"""Closed-form achievable rates and their Monte-Carlo verification oracle.

The per-user rate in nat/s/Hz is

    R_u(mu) = ln(1 + (pi*rho/4) * (gs_u . mu_n)^2 / (rho * ||A_u mu_n||^2 + 1))

where gs_u is the user's sqrt-gamma vector over APs, A_u the diagonal with
entries sqrt(N*zeta - (pi/4)*gamma), and rho the data power normalized by the
noise variance (normalization happens once at model build, so solver code
never tracks watts). Rates depend only on the user's own group block of mu.
"""

import csv
import math
import queue
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import kernels, pool
from .netgen import (
    NOISE_CHUNK,
    NetworkInstance,
    SmallScaleBlock,
    block_buffers,
    block_sizes,
    pilot_model,
    smallscale_block,
)

LN2 = math.log(2.0)
FEASIBILITY_SLACK = 1e-9
# Draws per _moment_vectors call within a block: every op in it is per draw,
# so the chunk bounds its temporaries and changes no result.
MOMENT_CHUNK = 512
# Bytes the block threads of one oracle call may hold together. A thread
# holds about 6 MB at M=8, 2x3 and 340 MB at M=100, 4x10 (_thread_bytes);
# the thread count is cut to fit, but never below one.
MOMENT_MEMORY_BUDGET = 1 << 30


@dataclass(frozen=True)
class PowerControl:
    """Power control vector mu (mu_mn = sqrt(eta_mn)), stored flat with N
    group-major blocks of length M: mu = [mu_1; mu_2; ...; mu_N]."""

    mu: np.ndarray
    num_aps: int
    num_groups: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.mu, dtype=float)).ravel()
        if arr.shape[0] != self.num_aps * self.num_groups:
            raise ValueError("mu length must be num_aps * num_groups")
        arr.setflags(write=False)
        object.__setattr__(self, "mu", arr)

    @property
    def by_group(self) -> np.ndarray:
        """(N, M) view; row n is group n's per-AP block."""
        return self.mu.reshape(self.num_groups, self.num_aps)

    def to_eta(self) -> np.ndarray:
        """Power coefficients eta_mn = mu_mn^2 as an (M, N) array."""
        return (self.by_group ** 2).T.copy()

    def is_feasible(self, slack: float = FEASIBILITY_SLACK) -> bool:
        if (self.mu < 0).any():
            return False
        nsq = np.einsum("nm,nm->m", self.by_group, self.by_group)
        return bool((nsq <= 1.0 + slack).all())

    @staticmethod
    def from_matrix(mat: np.ndarray) -> "PowerControl":
        mat = np.asarray(mat, dtype=float)
        return PowerControl(mat.ravel(), num_aps=mat.shape[1], num_groups=mat.shape[0])

    @staticmethod
    def epa(num_aps: int, num_groups: int) -> "PowerControl":
        """Equal power allocation: mu_mn = 1/sqrt(N) for all m, n."""
        mat = np.full((num_groups, num_aps), 1.0 / math.sqrt(num_groups))
        return PowerControl.from_matrix(mat)


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

    @property
    def num_users(self) -> int:
        return self.gamma_sqrt.shape[0]

    @property
    def num_aps(self) -> int:
        return self.gamma_sqrt.shape[1]

    @property
    def num_groups(self) -> int:
        return self.group_ptr.shape[0] - 1

    @property
    def group_sizes(self) -> Tuple[int, ...]:
        return tuple(int(k) for k in np.diff(self.group_ptr))

    @property
    def interference_diag(self) -> np.ndarray:
        """Per-user diagonal entries sqrt(N*zeta - (pi/4)*gamma), shape (T, M)."""
        return np.sqrt(self.a_sq)

    def user_index(self, n: int, k: int) -> int:
        if not (0 <= n < self.num_groups and 0 <= k < self.group_ptr[n + 1] - self.group_ptr[n]):
            raise IndexError("user (n, k) out of range")
        return int(self.group_ptr[n] + k)


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
    """Coerce a PowerControl / flat (MN,) / (N, M) array into a contiguous
    (N, M) float64 matrix for the kernels."""
    if isinstance(mu, PowerControl):
        mat = mu.by_group
    else:
        mat = np.asarray(mu, dtype=float)
        if mat.ndim == 1:
            mat = mat.reshape(model.num_groups, model.num_aps)
    if mat.shape != (model.num_groups, model.num_aps):
        raise ValueError("mu has the wrong shape for this model")
    return np.ascontiguousarray(mat, dtype=float)


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

    @property
    def argmin_user(self) -> Tuple[int, int]:
        """(group, user) of the smallest rate; ties resolve to the
        lexicographically first pair."""
        u = int(np.argmin(self.rates))
        n = int(np.searchsorted(self.group_ptr, u, side="right") - 1)
        return n, u - int(self.group_ptr[n])

    def group(self, n: int) -> np.ndarray:
        return self.rates[self.group_ptr[n]:self.group_ptr[n + 1]]

    def to_rows(self, prelog: float = 1.0):
        """Rows (group, user, rate_nats, rate_bits); `prelog` optionally
        applies a training-overhead factor for spectral-efficiency style
        reporting (1.0 = the bare rate expression)."""
        rows = []
        for n in range(self.group_ptr.shape[0] - 1):
            for k, r in enumerate(self.group(n)):
                rn = prelog * float(r)
                rows.append((n, k, rn, rn / LN2))
        return rows

    def write_csv(self, path, prelog: float = 1.0):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "user", "rate_nats", "rate_bits"])
            for n, k, rn, rb in self.to_rows(prelog):
                writer.writerow([n, k, repr(rn), repr(rb)])


def rates_vector(model: RateModel, mu) -> RateVector:
    mat = as_mu_matrix(mu, model)
    rates = kernels.IMPL.user_rates(model.gamma_sqrt, model.a_sq, model.group_ptr, mat, model.rho_bar)
    return RateVector(rates=rates, group_ptr=model.group_ptr)


def user_rate(model: RateModel, mu, n: int, k: int) -> float:
    """Closed-form rate of user k in group n at power control mu."""
    return float(rates_vector(model, mu).rates[model.user_index(n, k)])


def min_rate(model: RateModel, mu) -> float:
    return rates_vector(model, mu).min_rate


def min_rate_user(model: RateModel, mu) -> Tuple[float, int, int]:
    rv = rates_vector(model, mu)
    n, k = rv.argmin_user
    return rv.min_rate, n, k


def epa_power(model: RateModel) -> PowerControl:
    return PowerControl.epa(model.num_aps, model.num_groups)


def epa_rates(model: RateModel) -> RateVector:
    """Rates under equal power allocation (eta = 1/N), evaluated through the
    same path as user_rate so the two agree exactly."""
    return rates_vector(model, epa_power(model))


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


def _moment_vectors(blk: SmallScaleBlock, weight: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Per draw b and user u, the moment vector x[b, u] of the oracle.

    All gains a[b, u, j] of user u seen through group j's beam phase are
    sum_m weight[m, u] g[b, m, u] conj(z[b, m, j]) / |z[b, m, j]|. With the
    real and imaginary parts stacked along the AP axis,
    Re a = [hw_re; hw_im]^T [p_re; p_im] and Im a = [hw_re; hw_im]^T [-p_im; p_re],
    two batched matmuls. `pick` gathers each user's (Re a, Im a, |a|^2) of its
    own group and the |a|^2 of the other groups out of the (3, T, N) gains."""
    b, m_aps, t_users = blk.g_re.shape
    n_groups = blk.z_re.shape[2]
    modulus = blk.z_re * blk.z_re
    modulus += blk.z_im * blk.z_im
    np.sqrt(modulus, out=modulus)
    phase_re = np.empty((b, 2, m_aps, n_groups))
    phase_im = np.empty((b, 2, m_aps, n_groups))
    np.divide(blk.z_re, modulus, out=phase_re[:, 0])
    np.divide(blk.z_im, modulus, out=phase_re[:, 1])
    np.negative(phase_re[:, 1], out=phase_im[:, 0])
    phase_im[:, 1] = phase_re[:, 0]
    hw = np.empty((b, 2, m_aps, t_users))
    np.multiply(blk.g_re, weight, out=hw[:, 0])
    np.multiply(blk.g_im, weight, out=hw[:, 1])
    hw_t = hw.reshape(b, 2 * m_aps, t_users).swapaxes(1, 2)
    gains = np.empty((b, 3, t_users, n_groups))
    np.matmul(hw_t, phase_re.reshape(b, 2 * m_aps, n_groups), out=gains[:, 0])
    np.matmul(hw_t, phase_im.reshape(b, 2 * m_aps, n_groups), out=gains[:, 1])
    np.multiply(gains[:, 0], gains[:, 0], out=gains[:, 2])
    gains[:, 2] += gains[:, 1] * gains[:, 1]
    return np.take(gains.reshape(b, -1), pick, axis=1).reshape(b, t_users, -1)


def _moment_layout(instance: NetworkInstance, eta: np.ndarray):
    """(weight, pick) of _moment_vectors for power coefficients eta."""
    dims = instance.dims
    n_groups = dims.num_groups
    group = np.repeat(np.arange(n_groups), dims.group_sizes)
    # per-user weights sqrt(zeta_mu * eta_mn), n the user's group, (M, T)
    weight = np.sqrt(instance.zeta * eta[:, group])
    # flat positions of each user's moment vector in the (3, T, N) gains
    plane = dims.num_users * n_groups
    pick = np.array([[k * plane + u * n_groups + n for k in range(3)]
                     + [2 * plane + u * n_groups + j for j in range(n_groups) if j != n]
                     for u, n in enumerate(group)], dtype=np.intp).ravel()
    return weight, pick


def _thread_bytes(num_aps: int, t_users: int, n_groups: int, d: int, block: int) -> int:
    """Bytes one block thread holds: its buffer set for `block` draws (g, z,
    a pilot-noise chunk and the moment vectors x) and the temporaries of one
    _moment_vectors chunk."""
    held = (block * (2 * num_aps * (t_users + n_groups) + t_users * d)
            + min(NOISE_CHUNK, 2 * block * num_aps * n_groups))
    chunk = min(block, MOMENT_CHUNK) * (2 * num_aps * t_users + 5 * num_aps * n_groups
                                        + 3 * t_users * n_groups + t_users * d)
    return 8 * (held + chunk)


def _block_workers(num_aps: int, t_users: int, n_groups: int, d: int, sizes) -> int:
    """Threads of one oracle call over blocks of `sizes` draws: one per CPU
    and at most one per block, as many as MOMENT_MEMORY_BUDGET holds, and at
    least one."""
    per_thread = _thread_bytes(num_aps, t_users, n_groups, d, sizes[0])
    return max(1, min(pool.cpu_count(), len(sizes), MOMENT_MEMORY_BUDGET // per_thread))


def _moment_sums(instance: NetworkInstance, weight: np.ndarray, pick: np.ndarray,
                 draws: int, seed: int):
    """Sums over all draws of the moment vectors x (T, d) and of their outer
    products x x^T (T, d, d).

    Blocks are drawn and reduced on _block_workers threads (inline when that
    is 1), each thread in one buffer set allocated here and handed out
    through a queue; block sums and Gram matrices are added in block order,
    so the sums are bit-identical for every thread count."""
    num_aps, t_users = weight.shape
    d = pick.shape[0] // t_users  # Re a, Im a, |a|^2, |a'_j|^2 for each other group
    pilot = pilot_model(instance)
    sizes = block_sizes(draws)
    workers = _block_workers(num_aps, t_users, instance.dims.num_groups, d, sizes)
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put((block_buffers(pilot, sizes[0]), np.empty(sizes[0] * t_users * d)))

    def reduce_block(b):
        bufs, x_buf = free.get()
        try:
            n = sizes[b]
            blk = smallscale_block(pilot, seed, b, n, bufs)
            x = x_buf[:n * t_users * d].reshape(n, t_users, d)
            for lo in range(0, n, MOMENT_CHUNK):
                chunk = SmallScaleBlock._make(a[lo:lo + MOMENT_CHUNK] for a in blk)
                x[lo:lo + MOMENT_CHUNK] = _moment_vectors(chunk, weight, pick)
            # block sum and batched Gram
            return x.sum(axis=0), np.matmul(x.transpose(1, 2, 0), x.transpose(1, 0, 2))
        finally:
            free.put((bufs, x_buf))

    s1 = np.zeros((t_users, d))
    s2 = np.zeros((t_users, d, d))
    for block_sum, block_gram in pool.ordered_map(reduce_block, len(sizes), workers):
        s1 += block_sum
        s2 += block_gram
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
    rate = np.log(total) - np.log(den)

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


def rate_oracle_monte_carlo(instance: NetworkInstance, eta: np.ndarray, draws: int,
                            seed: int) -> MonteCarloRateReport:
    """Estimate the hardening rate bound by sampling small-scale fading.

    Per draw and user u (group n), the coherent gain

        a_u = sum_m h_mu * sqrt(eta_mn) * conj(z_mn)/|z_mn|

    is accumulated together with the incoherent gains seen through the other
    groups' beam phases. Cross-group gains carry the user's own-group
    coefficients sqrt(eta_mn), the interference model under which the closed
    form's single N*zeta term is exact; at equal power allocation this
    coincides with the literal received-signal expansion.

    The draw blocks (per-block RNG substreams) are reduced in parallel but
    added in block order (_moment_sums), so the result is a pure function of
    (instance, eta, draws, seed), bit for bit, whatever the number of CPUs.
    Standard errors come from the delta method on the joint moment
    covariance.
    """
    eta = np.asarray(eta, dtype=float)
    dims = instance.dims
    if eta.shape != (dims.num_aps, dims.num_groups):
        raise ValueError("eta must have shape (num_aps, num_groups)")
    if not np.isfinite(eta).all():
        raise ValueError("eta must be finite")
    if (eta < 0).any():
        raise ValueError("eta must be nonnegative")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    weight, pick = _moment_layout(instance, eta)
    s1, s2 = _moment_sums(instance, weight, pick, draws, seed)
    return _moment_report(instance, s1, s2, draws)
