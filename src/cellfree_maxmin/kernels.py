"""Hot numeric kernels: per-user rates, smoothed min-rate value/gradient,
per-AP feasible-set projection, cone-constraint residuals/margins, and one
monotone-APG iteration.

Each kernel has one numpy implementation. Code outside the APG stages
(rates, projections, the oracle's residuals and its last certificate) reads
them through :data:`IMPL` at call time, so a caller can swap a field of it (a
profiler wrapping a kernel, say) without touching that code. The solvers'
APG stages run in the compiled engine (native.py, apg_stage.c); these
kernels, with apg_step as the loop body of solver_apg.monotone_apg, are the
reference that engine is tested against.

The projection and both objectives' soft minimum and gradient sums repeat
the engine's arithmetic operation for operation: every sum runs in ascending
order with one add per term, and exp is _exp, a numpy port of the engine's
vector exp (within 1 ulp of the C library's). The margin value and gradient
also form p and q that way, so a margin stage of the engine equals
monotone_apg bit for bit; a step policy that chains many extrapolated steps
amplifies any last-bit difference. The rate kernels keep numpy's dot
products and log1p (the engine has its own vector log1p), because their
rates are the closed-form rates every experiment writes, and soc_residuals
keeps numpy's dot products for speed in the bisection oracle; a rate stage
agrees with the reference up to that rounding.

Array conventions shared by every kernel:

  gs    (T, M)  per-user sqrt-gamma vectors, users ordered group-major
  asq   (T, M)  per-user squared interference-diagonal entries
  gptr  (N+1,)  int64 group pointer: users of group n are gptr[n]:gptr[n+1]
  mu    (N, M)  power coefficients, row n = group-n per-AP block
  rho   float   data power normalized by the noise variance
"""

import math
from typing import Callable, NamedTuple

import numpy as np

PI = math.pi

# Slack on the squared per-AP norm when deciding whether to rescale. Makes the
# projection exactly idempotent (a rescaled block re-enters with norm^2 within
# a few ulp of 1) while staying far below the 1e-9 feasibility tolerance.
BALL_SLACK = 1e-12


def _user_pc(gs, asq, gptr, mu, rho):
    """p_u = gs_u . mu_n and c_u = rho * asq_u . mu_n^2 + 1 of every user,
    with numpy's dot products."""
    p = np.empty(gs.shape[0])
    c = np.empty(gs.shape[0])
    for n in range(gptr.shape[0] - 1):
        lo, hi = gptr[n], gptr[n + 1]
        p[lo:hi] = gs[lo:hi] @ mu[n]
        c[lo:hi] = rho * (asq[lo:hi] @ (mu[n] * mu[n])) + 1.0
    return p, c


def _rate_terms(gs, asq, gptr, mu, rho):
    """(rates, p, c) of every user (p and c of _user_pc), with numpy's dot
    products and log1p: these rates are the closed-form rates every
    experiment writes, so their rounding stays."""
    p, c = _user_pc(gs, asq, gptr, mu, rho)
    return np.log1p(0.25 * PI * rho * p * p / c), p, c


def _user_rates(gs, asq, gptr, mu, rho):
    return _rate_terms(gs, asq, gptr, mu, rho)[0]


_LN2_HI = 6.93147180369123816490e-01  # 32 bits: k * _LN2_HI is exact
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
_ROUND_MAGIC = float.fromhex("0x1.8p52")  # x + it - it rounds x; its low bits hold the result
_ROUND_MAGIC_BITS = np.array(_ROUND_MAGIC).view(np.int64)
# 1/13!, 1/12!, ..., 1/2!: Horner coefficients of exp(s) - 1 - s over s^2
_EXP_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13, 1, -1))


def _pow2(k):
    return ((k + 1023).view(np.uint64) << np.uint64(52)).view(np.float64)


def _exp(x):
    """exp of each entry of a float64 array: the compiled stage's vexp
    (apg_stage.c) operation for operation, so equal to it bit for bit and
    within 1 ulp of the C library. Cody-Waite reduction x = k ln2 + s, the
    degree-13 Taylor polynomial of exp(s), and 2^k as two factors; below
    -750 gives 0, above 710 inf, NaN stays NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.minimum(np.maximum(x, -750.0), 710.0)
        t = x * _INV_LN2 + _ROUND_MAGIC
        q = t - _ROUND_MAGIC
        k = t.view(np.int64) - _ROUND_MAGIC_BITS
        s = (x - q * _LN2_HI) - q * _LN2_LO
        u = np.full_like(s, _EXP_TAYLOR[0])
        for c in _EXP_TAYLOR[1:]:
            u = u * s + c
        u = s * s * u + s + 1.0
        k1 = k >> 1
        return u * _pow2(k1) * _pow2(k - k1)


def _seq_sum(a, axis=-1):
    """Sum along a nonempty axis in ascending order, one add per term."""
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def _user_pq(gs, asq, gptr, mu):
    """p_u = gs_u . mu_n and q_u = asq_u . mu_n^2 of every user, each summed
    over m in ascending order."""
    p = np.empty(gs.shape[0])
    q = np.empty(gs.shape[0])
    for n in range(gptr.shape[0] - 1):
        lo, hi = gptr[n], gptr[n + 1]
        p[lo:hi] = _seq_sum(gs[lo:hi] * mu[n])
        q[lo:hi] = _seq_sum(asq[lo:hi] * (mu[n] * mu[n]))
    return p, q


def _soft_min(v, sigma):
    """(min, weights exp(-sigma*(v - min)), their sum, soft minimum of v)"""
    vmin = v.min()
    w = _exp(-sigma * (v - vmin))
    wsum = _seq_sum(w)
    return vmin, w, wsum, vmin - math.log(wsum / v.shape[0]) / sigma


def _group_sums(gs, asq, gptr, wg, wa, shape):
    """Per group n, sum_u wg_u gs_u and sum_u wa_u asq_u over its users in
    ascending order."""
    g = np.empty(shape)
    acc = np.empty(shape)
    for n in range(gptr.shape[0] - 1):
        lo, hi = gptr[n], gptr[n + 1]
        g[n] = _seq_sum(wg[lo:hi, None] * gs[lo:hi], axis=0)
        acc[n] = _seq_sum(wa[lo:hi, None] * asq[lo:hi], axis=0)
    return g, acc


def _soft_min_value(gs, asq, gptr, mu, rho, sigma):
    rmin, _, _, f_sigma = _soft_min(_user_rates(gs, asq, gptr, mu, rho), sigma)
    return f_sigma, rmin


def _soft_min_value_grad(gs, asq, gptr, mu, rho, sigma):
    rates, p, c = _rate_terms(gs, asq, gptr, mu, rho)
    rmin, w, wsum, f_sigma = _soft_min(rates, sigma)
    w = w / wsum
    bc = 0.25 * PI * rho * p * p + c
    wb = w * (0.5 * PI * rho) * p / bc
    wc = w * 2.0 * rho * (1.0 / bc - 1.0 / c)
    g, acc = _group_sums(gs, asq, gptr, wb, wc, mu.shape)
    return f_sigma, rmin, g + acc * mu


def _project_ball_orthant(x):
    u = np.maximum(x, 0.0)
    nsq = _seq_sum(u * u, axis=0)
    scale = np.where(nsq > 1.0 + BALL_SLACK, np.sqrt(nsq), 1.0)
    out = u / scale
    over = np.isinf(nsq)
    if over.any():
        # the squares overflow: scale such a column by its largest entry
        # first, unless that is +inf, which keeps inf / inf
        top = u.max(axis=0)
        over &= np.isfinite(top)
        v = u[:, over] / top[over]
        out[:, over] = v / np.sqrt(_seq_sum(v * v, axis=0))
    return out


def _soc_residuals(gs, asq, gptr, mu, rho, t):
    p, c = _user_pc(gs, asq, gptr, mu, rho)
    return np.sqrt(math.expm1(t) * c) - math.sqrt(0.25 * PI * rho) * p


def _margin_value_grad(gs, asq, gptr, mu, rho, t, sigma_f):
    et1 = math.expm1(t)
    set1 = math.sqrt(et1)
    lin = math.sqrt(0.25 * PI * rho)
    p, q = _user_pq(gs, asq, gptr, mu)
    d = np.sqrt(rho * q + 1.0)
    fmin, w, wsum, f_sigma = _soft_min(lin * p - set1 * d, sigma_f)
    w = w / wsum
    g, acc = _group_sums(gs, asq, gptr, w, w * (1.0 / d), mu.shape)
    return f_sigma, -fmin, lin * g - (set1 * rho * acc) * mu


def _margin_value(gs, asq, gptr, mu, rho, t, sigma_f):
    # soc_residuals with the summation order of _user_pq
    et1 = math.expm1(t)
    lin = math.sqrt(0.25 * PI * rho)
    p, q = _user_pq(gs, asq, gptr, mu)
    fmin, _, _, f_sigma = _soft_min(-(np.sqrt(et1 * (rho * q + 1.0)) - lin * p), sigma_f)
    return f_sigma, -fmin


def _sq_dist(a, b):
    """||a - b||^2 summed in row-major order"""
    d = a - b
    return float(np.cumsum(d * d)[-1])


class ApgStep(NamedTuple):
    """Outcome of one apg_step. status is "accepted", "skipped" (the
    extrapolated trial was taken without running the plain branch),
    "rejected" (the extrapolated branch failed its search and the plain step
    was taken), "stalled" or "failed"; on the last two x, z, f and aux are
    the current iterate's, and f_best is the best plain-branch trial value.
    run_y and run_mu are the branches' first-try counts to pass to the next
    step."""

    x: np.ndarray
    z: np.ndarray
    f: float
    aux: float
    alpha_y: float
    alpha_mu: float
    bt_y: int
    bt_mu: int
    run_y: int
    run_mu: int
    status: str
    f_best: float


def apg_step(value_grad, value, project, mu, mu_prev, z, t_prev, t_cur, f_cur,
             alpha_y, alpha_mu, run_y, run_mu, delta, kappa, cap, grow_after) -> ApgStep:
    """One iteration of the monotone APG (Li & Lin, NeurIPS 2015) that
    maximizes a smooth objective over a projectable set: projected
    extrapolation, a backtracking search from the extrapolated point y, and,
    unless its trial already gains enough over f_cur = f(mu), one from mu and
    a monotone pick between the two trials.

    value(x) -> (f, aux); value_grad(x) -> (f, aux, grad). Each search
    accepts the first trial x+ with f(x+) >= f(x) + delta*||x+ - x||^2 after
    at most `cap` shrinks by kappa. It starts from its branch's step, grown
    by 1/kappa only when the branch's count of searches in a row that
    accepted their first trial (run_y, run_mu) has reached grow_after
    (Scheinberg, Goldfarb & Bai, FoCM 2014); a search that backtracks resets
    its count. When the accepted extrapolated trial z+ also has
    f(z+) >= f_cur + delta*||z+ - y||^2, it is the next iterate and the
    plain branch is skipped: no value_grad(mu), alpha_mu and run_mu
    unchanged, bt_mu 0. "stalled" means the plain search ended on mu itself
    with both values finite: the step underflowed, and value and value_grad
    may round f(mu) differently, so no test can pass."""
    # the raw extrapolation can leave the set when iterates ride the ball
    # boundary, making the sufficient-increase test unsatisfiable; the
    # projected extrapolation keeps the test and the momentum intact
    y = project(mu + (t_prev / t_cur) * (z - mu) + ((t_prev - 1.0) / t_cur) * (mu - mu_prev))
    fy, _, gy = value_grad(y)

    alpha_y_in = alpha_y
    if run_y >= grow_after:
        alpha_y = alpha_y / kappa
    bt_y = 0
    z_ok = False
    while bt_y <= cap:
        z_new = project(y + alpha_y * gy)
        fz, aux_z = value(z_new)
        dz = delta * _sq_dist(z_new, y)
        if fz >= fy + dz:
            z_ok = True
            break
        alpha_y *= kappa
        bt_y += 1
    if not z_ok:
        alpha_y = alpha_y_in  # rejected extrapolation must not sink the step size
    run_y = run_y + 1 if z_ok and bt_y == 0 else 0

    if z_ok and fz >= f_cur + dz:
        return ApgStep(z_new, z_new, fz, aux_z, alpha_y, alpha_mu, bt_y, 0, run_y, run_mu,
                       "skipped", -math.inf)

    fmu, aux_mu, gmu = value_grad(mu)
    if run_mu >= grow_after:
        alpha_mu = alpha_mu / kappa
    bt_mu = 0
    fv_best = -math.inf
    while bt_mu <= cap:
        v_new = project(mu + alpha_mu * gmu)
        fv, aux_v = value(v_new)
        fv_best = max(fv_best, fv)
        if fv >= fmu + delta * _sq_dist(v_new, mu):
            break
        alpha_mu *= kappa
        bt_mu += 1
    else:
        stalled = np.array_equal(v_new, mu) and math.isfinite(fv) and math.isfinite(fmu)
        return ApgStep(mu, z, fmu, aux_mu, alpha_y, alpha_mu, bt_y, bt_mu, run_y, run_mu,
                       "stalled" if stalled else "failed", fv_best)
    run_mu = run_mu + 1 if bt_mu == 0 else 0

    if z_ok and fz > fv:
        return ApgStep(z_new, z_new, fz, aux_z, alpha_y, alpha_mu, bt_y, bt_mu, run_y, run_mu,
                       "accepted", fv_best)
    return ApgStep(v_new, z_new if z_ok else v_new, fv, aux_v, alpha_y, alpha_mu, bt_y, bt_mu,
                   run_y, run_mu, "accepted" if z_ok else "rejected", fv_best)


class KernelImpl(NamedTuple):
    user_rates: Callable
    soft_min_value: Callable
    soft_min_value_grad: Callable
    project_ball_orthant: Callable
    soc_residuals: Callable
    margin_value: Callable
    margin_value_grad: Callable
    # apg_step under the name the benchmark's layer hooks trace it by
    rate_apg_step: Callable


IMPL = KernelImpl(
    _user_rates,
    _soft_min_value,
    _soft_min_value_grad,
    _project_ball_orthant,
    _soc_residuals,
    _margin_value,
    _margin_value_grad,
    apg_step,
)
