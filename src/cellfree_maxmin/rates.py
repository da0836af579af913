"""Closed-form achievable rates and their Monte-Carlo verification oracle.

The per-user rate in nat/s/Hz is

    R_u(mu) = ln(1 + (pi*rho/4) * (gs_u . mu_n)^2 / (rho * ||A_u mu_n||^2 + 1))

where gs_u is the user's sqrt-gamma vector over APs, A_u the diagonal with
entries sqrt(N*zeta - (pi/4)*gamma), and rho the data power normalized by the
noise variance (normalization happens once at model build, so solver code
never tracks watts). Rates depend only on the user's own group block of mu.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, native, pool
from .netgen import (SMALLSCALE_BLOCK, NetworkInstance, PilotModel, block_sizes, integer,
                     pilot_model, smallscale_key, user_groups)
from .tables import write_csv

LN2 = math.log(2.0)
FEASIBILITY_SLACK = 1e-9


def epa_power(num_aps: int, num_groups: int) -> np.ndarray:
    """Equal power allocation mu_mn = 1/sqrt(N), as an (N, M) array."""
    return np.full((num_groups, num_aps), 1.0 / math.sqrt(num_groups))


def is_feasible(mu) -> bool:
    """Whether the (N, M) power control mu lies in S: no negative entry and
    every AP's column in the unit ball, to FEASIBILITY_SLACK."""
    mu = np.asarray(mu, dtype=float)
    if (mu < 0).any():
        return False
    return bool((np.einsum("nm,nm->m", mu, mu) <= 1.0 + FEASIBILITY_SLACK).all())


@dataclass(frozen=True)
class RateModel:
    """Precomputed per-user quantities for O(M) rate/gradient evaluation."""

    gamma_sqrt: np.ndarray  # (T, M)
    a_sq: np.ndarray        # (T, M), entries N*zeta - (pi/4)*gamma
    group_ptr: np.ndarray   # (N+1,) int64
    rho_bar: float          # rho_d / sigma_n^2

    def __post_init__(self):
        for name in ("gamma_sqrt", "a_sq"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ptr = np.ascontiguousarray(np.asarray(self.group_ptr, dtype=np.int64))
        ptr.setflags(write=False)
        object.__setattr__(self, "group_ptr", ptr)
        # the compiled library sizes its buffers from these shapes
        if self.gamma_sqrt.ndim != 2 or self.a_sq.shape != self.gamma_sqrt.shape:
            raise ValueError("gamma_sqrt must be a (T, M) array and a_sq of its shape")
        if (ptr.ndim != 1 or ptr.shape[0] == 0 or ptr[0] != 0 or ptr[-1] != self.num_users
                or (np.diff(ptr) < 0).any()):
            raise ValueError("group_ptr must run from 0 to T, the number of users, "
                             "never decreasing")

    @property
    def num_users(self) -> int:
        return self.gamma_sqrt.shape[0]

    @property
    def num_aps(self) -> int:
        return self.gamma_sqrt.shape[1]

    @property
    def num_groups(self) -> int:
        return self.group_ptr.shape[0] - 1


def build_rate_model(instance: NetworkInstance) -> RateModel:
    """Build the compact rate model; noise is normalized away here."""
    n_groups = instance.dims.num_groups
    zeta_t = instance.zeta.T
    gamma_t = instance.gamma.T
    a_sq = n_groups * zeta_t - 0.25 * math.pi * gamma_t
    if not (a_sq > 0).all():
        raise ValueError("N*zeta - (pi/4)*gamma must be positive; instance is corrupted")
    return RateModel(
        gamma_sqrt=np.sqrt(gamma_t),
        a_sq=a_sq,
        group_ptr=instance.group_ptr,
        rho_bar=instance.rho_d_w / instance.noise_variance_w,
    )


def as_mu_matrix(mu, model: RateModel) -> np.ndarray:
    """mu as a contiguous (N, M) float64 matrix for the kernels; any other
    shape is rejected."""
    mat = np.asarray(mu, dtype=float)
    if mat.shape != (model.num_groups, model.num_aps):
        raise ValueError("mu must be an (N, M) array for this model")
    return np.ascontiguousarray(mat)


@dataclass(frozen=True)
class RateVector:
    """Per-user rates (nat/s/Hz), grouped by group (group-major order)."""

    rates: np.ndarray
    group_ptr: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.rates, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "rates", arr)

    @property
    def min_rate(self) -> float:
        return float(self.rates.min())

    def write_csv(self, path):
        write_csv(path, ["group", "user", "rate_nats", "rate_bits"],
                  [*user_columns(np.diff(self.group_ptr)), self.rates, self.rates / LN2])


def user_columns(group_sizes, repeats: int = 1):
    """(group, user-in-group) index columns of `repeats` copies of the users,
    group-major."""
    group = user_groups(group_sizes)
    user = np.concatenate([np.arange(k) for k in group_sizes])
    return np.tile(group, repeats), np.tile(user, repeats)


def rates_vector(model: RateModel, mu) -> RateVector:
    mat = as_mu_matrix(mu, model)
    rates = kernels.IMPL.user_rates(model.gamma_sqrt, model.a_sq, model.group_ptr, mat,
                                    model.rho_bar)
    return RateVector(rates=rates, group_ptr=model.group_ptr)


def min_rate(model: RateModel, mu) -> float:
    return rates_vector(model, mu).min_rate


def epa_rates(model: RateModel) -> RateVector:
    """Rates under equal power allocation (eta = 1/N): rates_vector at
    epa_power."""
    return rates_vector(model, epa_power(model.num_aps, model.num_groups))


# ---------------------------------------------------------------------------
# Monte-Carlo oracle for the general rate bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloRateReport:
    """Sample-moment estimates backing the hardening rate bound, per user:
    coherent mean gain E{a}, its fluctuation Var{a}, cross-group interference
    power, the plug-in rate estimate and its delta-method standard error."""

    mean_gain: np.ndarray      # (T,) complex
    gain_variance: np.ndarray  # (T,)
    cross_power: np.ndarray    # (T,) summed over the other groups
    rate_nats: np.ndarray      # (T,)
    std_error: np.ndarray      # (T,)
    mean_gain_se: np.ndarray   # (T,) std error of the complex mean
    draws: int

    def n_std_errs(self, reference: np.ndarray) -> np.ndarray:
        """|rate - reference| in units of the standard error."""
        se = np.where(self.std_error > 0, self.std_error, np.inf)
        return np.abs(self.rate_nats - np.asarray(reference, dtype=float)) / se


def _weights(instance: NetworkInstance, mu: np.ndarray) -> np.ndarray:
    """Per-user weights sqrt(zeta_mu * mu_nm^2), n the user's group, (M, T)."""
    return np.sqrt(instance.zeta * (mu * mu)[user_groups(instance.dims.group_sizes)].T)


def _block_moments(pilot: PilotModel, weight: np.ndarray, key: int, block_idx: int,
                   count: int):
    """Sums over the `count` draws of block `block_idx` (the run's draws from
    block_idx * SMALLSCALE_BLOCK on) of the moment vectors x (T, d) and of
    their outer products x x^T (T, d, d): one mc_block call, which draws the
    block's normals under generator key `key`. Raises MemoryError when
    mc_block cannot allocate its scratch."""
    lib = native.load_library()
    t_users = weight.shape[1]
    d = pilot.z_scale.shape[1] + 2  # Re a, Im a, |a|^2, |a'_j|^2 for each other group
    s1, s2 = np.empty((t_users, d)), np.empty((t_users, d, d))
    code = lib.mc_block(*pilot.c_args(), key, block_idx * SMALLSCALE_BLOCK, count,
                        weight.ctypes.data, s1.ctypes.data, s2.ctypes.data)
    if code == native.NO_MEMORY:
        raise MemoryError("mc_block could not allocate its scratch")
    return s1, s2


def _moment_sums(instance: NetworkInstance, weight: np.ndarray, draws: int, seed: int):
    """Sums over all draws of the moment vectors x (T, d) and of their outer
    products x x^T (T, d, d).

    Blocks are drawn and reduced through pool.ordered_map, and the block
    sums are added in block order, so the sums are bit-identical for every
    thread count."""
    t_users = weight.shape[1]
    d = instance.dims.num_groups + 2
    pilot, key = pilot_model(instance), smallscale_key(seed)
    sizes = block_sizes(draws)

    def reduce_block(b):
        return _block_moments(pilot, weight, key, b, sizes[b])

    s1 = np.zeros((t_users, d))
    s2 = np.zeros((t_users, d, d))
    for block_s1, block_s2 in pool.ordered_map(reduce_block, len(sizes)):
        s1 += block_s1
        s2 += block_s2
    return s1, s2


def _moment_report(instance: NetworkInstance, s1: np.ndarray, s2: np.ndarray,
                   draws: int) -> MonteCarloRateReport:
    """Plug-in rate and delta-method standard errors from the moment sums."""
    t_users, d = s1.shape
    theta = s1 / draws
    # covariance of the moment-mean vector (zero when draws == 1)
    if draws > 1:
        cov_mean = (s2 / draws - np.einsum("kp,kq->kpq", theta, theta)) / (draws - 1)
    else:
        cov_mean = np.zeros_like(s2)

    rho = instance.rho_d_w
    sigma2 = instance.noise_variance_w
    x0, y0, m2 = theta[:, 0], theta[:, 1], theta[:, 2]
    csum = theta[:, 3:].sum(axis=1) if d > 3 else np.zeros(t_users)
    e2 = x0 * x0 + y0 * y0
    total = rho * m2 + rho * csum + sigma2   # signal + interference + noise
    den = total - rho * e2
    rate = np.log1p(rho * e2 / den)

    grad = np.zeros((t_users, d))
    grad[:, 0] = 2.0 * rho * x0 / den
    grad[:, 1] = 2.0 * rho * y0 / den
    grad[:, 2] = rho / total - rho / den
    for j in range(3, d):
        grad[:, j] = rho / total - rho / den
    var_rate = np.einsum("kp,kpq,kq->k", grad, cov_mean, grad)
    se_rate = np.sqrt(np.maximum(var_rate, 0.0))
    se_mean = np.sqrt(np.maximum(cov_mean[:, 0, 0] + cov_mean[:, 1, 1], 0.0))

    return MonteCarloRateReport(
        mean_gain=x0 + 1j * y0,
        gain_variance=np.maximum(m2 - e2, 0.0),
        cross_power=csum,
        rate_nats=rate,
        std_error=se_rate,
        mean_gain_se=se_mean,
        draws=draws,
    )


def rate_oracle_monte_carlo(instance: NetworkInstance, mu: np.ndarray, draws: int,
                            seed: int) -> MonteCarloRateReport:
    """Estimate the hardening rate bound by sampling small-scale fading.

    Per draw and user u (group n), the coherent gain

        a_u = sum_m h_mu * sqrt(eta_mn) * conj(z_mn)/|z_mn|

    is accumulated together with the incoherent gains seen through the other
    groups' beam phases. Cross-group gains carry the user's own-group
    coefficients sqrt(eta_mn), the interference model under which the closed
    form's single N*zeta term is exact; at equal power allocation this
    coincides with the literal received-signal expansion.

    Every normal is a pure function of (seed, draw, entry) (see
    mc_block.c), and the draw blocks are reduced in parallel but added in
    block order (_moment_sums), so the result is a pure function of
    (instance, mu, draws, seed), bit for bit, whatever the number of CPUs.
    Standard errors come from the delta method on the joint moment
    covariance. mu is the (N, M) power control, eta_mn = mu_nm^2.
    """
    mu = np.asarray(mu, dtype=float)
    dims = instance.dims
    if mu.shape != (dims.num_groups, dims.num_aps):
        raise ValueError("mu must have shape (num_groups, num_aps), i.e. (N, M)")
    if not np.isfinite(mu).all():
        raise ValueError("mu must be finite")
    if (mu < 0).any():
        raise ValueError("mu must be nonnegative")
    draws = integer("draws", draws)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    s1, s2 = _moment_sums(instance, _weights(instance, mu), draws, seed)
    return _moment_report(instance, s1, s2, draws)
