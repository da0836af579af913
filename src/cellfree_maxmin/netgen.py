"""Random network instance generation.

Drops access points and users uniformly on a square, applies a three-slope
path-loss model with log-normal shadowing to get the large-scale coefficients
zeta, and derives the channel-estimation quality coefficients gamma from the
uplink pilot model. Everything is a pure function of (config, seed): named RNG
streams keep geometry, shadowing, small-scale fading and solver
initialization independent of each other.
"""

import json
import math
import numbers
from dataclasses import dataclass, field, fields, asdict
from typing import Iterator, List, NamedTuple, Tuple

import numpy as np

from . import native

BOLTZMANN_J_PER_K = 1.38e-23

# Named RNG streams. Drawing more from one stream never perturbs another.
STREAM_GEOMETRY = 0
STREAM_SHADOWING = 1
STREAM_SMALLSCALE = 2
STREAM_SOLVER_INIT = 3
STREAM_TRIALS = 4

# Fixed draw count per block of small-scale realizations: the unit of work of
# the Monte-Carlo oracle's threads, whose block sums are added in block order.
SMALLSCALE_BLOCK = 4096


def stream_rng(seed: int, stream_id: int, *key: int) -> np.random.Generator:
    """Generator for one named stream of a seed, optionally sub-keyed (block
    index, trial index, ...); (seed, stream_id, *key) reproduces identical
    draws bit-for-bit on one platform."""
    return np.random.default_rng(
        np.random.SeedSequence([_checked_seed(seed), int(stream_id), *map(int, key)]))


def integer(name: str, value) -> int:
    """`value` as an int when it is an integer (numpy integers included, bool
    not); otherwise a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checked_seed(seed) -> int:
    """`seed` as an int when it is an integer >= 0; otherwise a ValueError
    naming it (1.5 or True would otherwise pass as another seed)."""
    seed = integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class Dimensions:
    num_aps: int
    num_groups: int
    group_sizes: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_aps", integer("num_aps", self.num_aps))
        object.__setattr__(self, "num_groups", integer("num_groups", self.num_groups))
        object.__setattr__(self, "group_sizes",
                           tuple(integer("group_sizes entry", k) for k in self.group_sizes))
        if self.num_aps < 1:
            raise ValueError("num_aps must be >= 1")
        if len(self.group_sizes) != self.num_groups:
            raise ValueError("group_sizes length must equal num_groups")
        if self.num_groups < 1:
            raise ValueError("group_sizes must be non-empty")
        if any(k < 1 for k in self.group_sizes):
            raise ValueError("group_sizes entries must be >= 1")

    @property
    def num_users(self) -> int:
        return sum(self.group_sizes)

    @staticmethod
    def uniform(num_aps: int, num_groups: int, users_per_group: int) -> "Dimensions":
        return Dimensions(num_aps, num_groups, (users_per_group,) * num_groups)


@dataclass(frozen=True)
class PhysicalConfig:
    """Physical layer constants; defaults follow the simulation setup used
    throughout (20 MHz at 1.9 GHz, 0.2 W pilot/data power, 9 dB shadowing)."""

    bandwidth_hz: float = 20e6
    carrier_freq_hz: float = 1900e6
    noise_figure_db: float = 9.0
    temperature_k: float = 290.0
    pilot_power_w: float = 0.2
    data_power_w: float = 0.2
    pilot_len_symbols: int = 20
    shadow_std_db: float = 9.0
    area_side_m: float = 1000.0
    # three-slope path loss: breakpoints and antenna heights (overridable)
    pathloss_d0_m: float = 10.0
    pathloss_d1_m: float = 50.0
    ap_height_m: float = 15.0
    user_height_m: float = 1.65

    def __post_init__(self):
        object.__setattr__(self, "pilot_len_symbols",
                           integer("pilot_len_symbols", self.pilot_len_symbols))
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        positive = (
            "bandwidth_hz carrier_freq_hz temperature_k pilot_power_w data_power_w "
            "pilot_len_symbols shadow_std_db area_side_m "
            "pathloss_d0_m pathloss_d1_m ap_height_m user_height_m"
        ).split()
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.noise_figure_db < 0:
            raise ValueError("noise_figure_db must be nonnegative")
        if self.pathloss_d0_m >= self.pathloss_d1_m:
            raise ValueError("pathloss_d0_m must be below pathloss_d1_m")


def noise_power(cfg: PhysicalConfig) -> float:
    """Thermal noise power k*T*B*NF in watts (NF converted from dB)."""
    nf_linear = 10.0 ** (cfg.noise_figure_db / 10.0)
    return BOLTZMANN_J_PER_K * cfg.temperature_k * cfg.bandwidth_hz * nf_linear


def generate_geometry(dims: Dimensions, area_side_m: float, seed: int):
    """Uniform AP and user positions on the [0, side]^2 square.

    Returns (ap_xy (M,2), user_xy (T,2)); deterministic given the seed.
    """
    rng = stream_rng(seed, STREAM_GEOMETRY)
    ap_xy = rng.uniform(0.0, area_side_m, size=(dims.num_aps, 2))
    user_xy = rng.uniform(0.0, area_side_m, size=(dims.num_users, 2))
    return ap_xy, user_xy


def _cost231_fixed_loss_db(cfg: PhysicalConfig) -> float:
    f_mhz = cfg.carrier_freq_hz / 1e6
    lf = np.log10(f_mhz)
    return (
        46.3
        + 33.9 * lf
        - 13.82 * np.log10(cfg.ap_height_m)
        - ((1.1 * lf - 0.7) * cfg.user_height_m - (1.56 * lf - 0.8))
    )


def path_loss_db(dist_m: np.ndarray, cfg: PhysicalConfig) -> np.ndarray:
    """Three-slope path loss in dB (gain, i.e. negative).

    35 dB/decade beyond d1, 20 dB/decade between d0 and d1, constant below d0
    (distance floored at d0 to avoid the d -> 0 singularity).
    """
    loss = _cost231_fixed_loss_db(cfg)
    d_km = np.maximum(np.asarray(dist_m, dtype=float), cfg.pathloss_d0_m) / 1000.0
    d1_km = cfg.pathloss_d1_m / 1000.0
    near = -loss - 15.0 * np.log10(d1_km) - 20.0 * np.log10(d_km)
    far = -loss - 35.0 * np.log10(d_km)
    return np.where(d_km > d1_km, far, near)


def large_scale_fading(ap_xy: np.ndarray, user_xy: np.ndarray, cfg: PhysicalConfig,
                       seed: int) -> np.ndarray:
    """Large-scale coefficients zeta (M, T): path loss times log-normal
    shadowing. Shadowing (std shadow_std_db, i.i.d. per AP-user pair) is
    applied only beyond the d1 breakpoint."""
    dist = np.linalg.norm(ap_xy[:, None, :] - user_xy[None, :, :], axis=2)
    pl_db = path_loss_db(dist, cfg)
    rng = stream_rng(seed, STREAM_SHADOWING)
    shadow = cfg.shadow_std_db * rng.standard_normal(size=dist.shape)
    shadow = np.where(dist > cfg.pathloss_d1_m, shadow, 0.0)
    return 10.0 ** ((pl_db + shadow) / 10.0)


def group_pointer(dims: Dimensions) -> np.ndarray:
    """CSR-style user offsets per group: users of group n are ptr[n]:ptr[n+1]."""
    return np.concatenate(([0], np.cumsum(dims.group_sizes))).astype(np.int64)


def user_groups(group_sizes) -> np.ndarray:
    """The group index of each user, users group-major: (T,)."""
    return np.repeat(np.arange(len(group_sizes)), group_sizes)


def check_pilot_length(dims: Dimensions, cfg: PhysicalConfig):
    if cfg.pilot_len_symbols < dims.num_groups:
        raise ValueError("pilot_len_symbols must be >= the number of groups (orthonormal pilots)")


def pilot_variance(zeta: np.ndarray, group_ptr: np.ndarray, rt: float,
                   noise_variance_w: float) -> np.ndarray:
    """Variance of the pilot observation of group n at AP m, (M, N):
    rho_p*tau_p*sum_{k in group n} zeta_mk + sigma_n^2, with rt = rho_p*tau_p."""
    sums = [zeta[:, lo:hi].sum(axis=1) for lo, hi in zip(group_ptr[:-1], group_ptr[1:])]
    return rt * np.stack(sums, axis=1) + noise_variance_w


def gamma_coefficients(zeta: np.ndarray, dims: Dimensions, pilot_power_w: float,
                       pilot_len_symbols: float, noise_variance_w: float) -> np.ndarray:
    """Estimation-quality coefficients (M, T):

    gamma = rho_p*tau_p*zeta^2 / (sigma_n^2 + rho_p*tau_p*sum_l zeta_l)

    with the sum running over the users l of the same group at that AP.
    Always 0 < gamma < zeta.
    """
    rt = pilot_power_w * pilot_len_symbols
    var = pilot_variance(zeta, group_pointer(dims), rt, noise_variance_w)
    return rt * zeta ** 2 / var[:, user_groups(dims.group_sizes)]


@dataclass(frozen=True)
class NetworkInstance:
    """Immutable problem data: dimensions, large-scale coefficients zeta,
    estimation coefficients gamma (both (M, T), users group-major), powers
    and noise variance."""

    dims: Dimensions
    zeta: np.ndarray
    gamma: np.ndarray
    noise_variance_w: float
    rho_d_w: float
    rho_p_w: float
    config: PhysicalConfig = field(default_factory=PhysicalConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("zeta", "gamma"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m, t = self.zeta.shape
        if (m, t) != (self.dims.num_aps, self.dims.num_users) or self.gamma.shape != (m, t):
            raise ValueError("zeta/gamma shapes do not match dimensions")
        # NaN fails every comparison, so these also refuse NaN; finite zeta
        # bounds gamma
        if not ((self.zeta > 0) & (self.zeta < math.inf)).all():
            raise ValueError("zeta must be finite and strictly positive")
        if not ((self.gamma > 0) & (self.gamma < self.zeta)).all():
            raise ValueError("gamma must satisfy 0 < gamma < zeta elementwise")
        for name in ("noise_variance_w", "rho_d_w", "rho_p_w"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 < value < math.inf):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        object.__setattr__(self, "seed", _checked_seed(self.seed))

    @property
    def group_ptr(self) -> np.ndarray:
        return group_pointer(self.dims)


def generate_instance(dims: Dimensions, cfg: PhysicalConfig, seed: int) -> NetworkInstance:
    """Full instance: geometry -> zeta -> gamma, all streams keyed off `seed`."""
    check_pilot_length(dims, cfg)
    ap_xy, user_xy = generate_geometry(dims, cfg.area_side_m, seed)
    zeta = large_scale_fading(ap_xy, user_xy, cfg, seed)
    sigma2 = noise_power(cfg)
    gamma = gamma_coefficients(zeta, dims, cfg.pilot_power_w, cfg.pilot_len_symbols, sigma2)
    return NetworkInstance(
        dims=dims,
        zeta=zeta,
        gamma=gamma,
        noise_variance_w=sigma2,
        rho_d_w=cfg.data_power_w,
        rho_p_w=cfg.pilot_power_w,
        config=cfg,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# small-scale fading
# ---------------------------------------------------------------------------

class SmallScaleBlock(NamedTuple):
    """One block of joint draws in real arithmetic: small-scale gains
    g = g_re + i*g_im (n, M, T) and normalized pilot-estimate variables
    z = z_re + i*z_im (n, M, N)."""

    g_re: np.ndarray
    g_im: np.ndarray
    z_re: np.ndarray
    z_im: np.ndarray


class PilotModel(NamedTuple):
    """Pilot stage of the block pipeline. The pilot observation of group n at
    AP m is ytilde_mn = sum_{k in group n} pilot[m, k] g_mk + noise_scale *
    (unit complex normal), with pilot[m, k] = sqrt(rho_p*tau_p*zeta_mk);
    z = ytilde / z_scale has unit variance. mc_block.c forms it."""

    pilot: np.ndarray      # (M, T)
    group_ptr: np.ndarray  # (N+1,) int64
    noise_scale: float
    z_scale: np.ndarray    # (M, N)

    def c_args(self) -> tuple:
        """The leading arguments of mc_pilot and mc_block: the model."""
        m, t = self.pilot.shape
        return (m, t, self.z_scale.shape[1], self.group_ptr.ctypes.data, self.pilot.ctypes.data,
                self.noise_scale, self.z_scale.ctypes.data)


def pilot_model(instance: NetworkInstance) -> PilotModel:
    rt = instance.rho_p_w * instance.config.pilot_len_symbols
    sigma2 = instance.noise_variance_w
    ptr = instance.group_ptr
    return PilotModel(np.sqrt(instance.zeta) * np.sqrt(rt), ptr, np.sqrt(sigma2 / 2.0),
                      np.sqrt(pilot_variance(instance.zeta, ptr, rt, sigma2)))


def smallscale_key(seed: int) -> int:
    """The 64-bit key k0 + 2^32 k1 of the compiled normal generator for the
    small-scale draws of `seed`: the two 32-bit words of
    SeedSequence([seed, STREAM_SMALLSCALE])."""
    seq = np.random.SeedSequence([_checked_seed(seed), STREAM_SMALLSCALE])
    k0, k1 = seq.generate_state(2, np.uint32)
    return int(k0) | int(k1) << 32


def block_sizes(count: int) -> List[int]:
    """Draw count of each block: SMALLSCALE_BLOCK, then the remainder."""
    return [min(SMALLSCALE_BLOCK, count - lo) for lo in range(0, count, SMALLSCALE_BLOCK)]


def iter_smallscale_blocks(instance: NetworkInstance, count: int,
                           seed: int) -> Iterator[SmallScaleBlock]:
    """Yield blocks of at most SMALLSCALE_BLOCK joint draws in fresh arrays:
    g = sqrt(1/2) * (unit complex normal) and z built from the actual pilot
    observation so that E{h * conj(z)} = sqrt(gamma) (see PilotModel), one
    mc_pilot call per block. Every normal is a pure function of (seed, draw,
    entry), so the joint draw sequence is a pure function of (instance,
    count, seed), whatever the block size, and a shorter run's draws are a
    prefix of a longer one's. Raises MemoryError when mc_pilot cannot
    allocate its scratch."""
    model = pilot_model(instance)
    m, t = model.pilot.shape
    n_groups = model.z_scale.shape[1]
    lib = native.load_library()
    key = smallscale_key(seed)
    for block_idx, n in enumerate(block_sizes(count)):
        g, z = np.empty((2, n, m, t)), np.empty((2, n, m, n_groups))
        code = lib.mc_pilot(*model.c_args(), key, block_idx * SMALLSCALE_BLOCK, n,
                            g.ctypes.data, z.ctypes.data)
        if code == native.NO_MEMORY:
            raise MemoryError("mc_pilot could not allocate its scratch")
        yield SmallScaleBlock(g[0], g[1], z[0], z[1])


# ---------------------------------------------------------------------------
# JSON export / import (value-exact round trip)
# ---------------------------------------------------------------------------

def instance_to_json(instance: NetworkInstance) -> str:
    doc = {
        "dims": {
            "num_aps": instance.dims.num_aps,
            "num_groups": instance.dims.num_groups,
            "group_sizes": list(instance.dims.group_sizes),
        },
        "config": asdict(instance.config),
        "noise_variance_w": instance.noise_variance_w,
        "rho_d_w": instance.rho_d_w,
        "rho_p_w": instance.rho_p_w,
        "seed": instance.seed,
        "zeta_row_major": instance.zeta.ravel().tolist(),
        "gamma_row_major": instance.gamma.ravel().tolist(),
    }
    return json.dumps(doc)


def instance_from_json(text: str) -> NetworkInstance:
    doc = json.loads(text)
    dims = Dimensions(
        doc["dims"]["num_aps"], doc["dims"]["num_groups"], tuple(doc["dims"]["group_sizes"])
    )
    shape = (dims.num_aps, dims.num_users)
    return NetworkInstance(
        dims=dims,
        zeta=np.array(doc["zeta_row_major"], dtype=float).reshape(shape),
        gamma=np.array(doc["gamma_row_major"], dtype=float).reshape(shape),
        noise_variance_w=doc["noise_variance_w"],
        rho_d_w=doc["rho_d_w"],
        rho_p_w=doc["rho_p_w"],
        config=PhysicalConfig(**doc["config"]),
        seed=doc["seed"],
    )
