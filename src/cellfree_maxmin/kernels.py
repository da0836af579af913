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


def _user_rates(gs, asq, gptr, mu, rho):
    rates = np.empty(gs.shape[0])
    for n in range(gptr.shape[0] - 1):
        lo, hi = gptr[n], gptr[n + 1]
        p = gs[lo:hi] @ mu[n]
        q = asq[lo:hi] @ (mu[n] * mu[n])
        rates[lo:hi] = np.log1p(0.25 * PI * rho * p * p / (rho * q + 1.0))
    return rates


def _soft_min_value(gs, asq, gptr, mu, rho, sigma):
    rates = _user_rates(gs, asq, gptr, mu, rho)
    rmin = rates.min()
    s = np.exp(-sigma * (rates - rmin)).sum()
    return rmin - math.log(s / rates.shape[0]) / sigma, rmin


def _soft_min_value_grad(gs, asq, gptr, mu, rho, sigma):
    T = gs.shape[0]
    N, M = mu.shape
    rates = np.empty(T)
    p_all = np.empty(T)
    c_all = np.empty(T)
    for n in range(N):
        lo, hi = gptr[n], gptr[n + 1]
        p = gs[lo:hi] @ mu[n]
        q = asq[lo:hi] @ (mu[n] * mu[n])
        b = 0.25 * PI * rho * p * p
        c = rho * q + 1.0
        rates[lo:hi] = np.log1p(b / c)
        p_all[lo:hi] = p
        c_all[lo:hi] = c
    rmin = rates.min()
    w = np.exp(-sigma * (rates - rmin))
    wsum = w.sum()
    f_sigma = rmin - math.log(wsum / T) / sigma
    w = w / wsum
    b_all = 0.25 * PI * rho * p_all * p_all
    grad = np.empty_like(mu)
    for n in range(N):
        lo, hi = gptr[n], gptr[n + 1]
        bc = b_all[lo:hi] + c_all[lo:hi]
        wb = w[lo:hi] * (0.5 * PI * rho) * p_all[lo:hi] / bc
        wc = w[lo:hi] * 2.0 * rho * (1.0 / bc - 1.0 / c_all[lo:hi])
        grad[n] = wb @ gs[lo:hi] + (wc @ asq[lo:hi]) * mu[n]
    return f_sigma, rmin, grad


def _project_ball_orthant(x):
    u = np.maximum(x, 0.0)
    nsq = np.einsum("nm,nm->m", u, u)
    scale = np.where(nsq > 1.0 + BALL_SLACK, np.sqrt(nsq), 1.0)
    return u / scale


def _soc_residuals(gs, asq, gptr, mu, rho, t):
    et1 = math.expm1(t)
    lin = math.sqrt(0.25 * PI * rho)
    res = np.empty(gs.shape[0])
    for n in range(gptr.shape[0] - 1):
        lo, hi = gptr[n], gptr[n + 1]
        p = gs[lo:hi] @ mu[n]
        q = asq[lo:hi] @ (mu[n] * mu[n])
        res[lo:hi] = np.sqrt(et1 * (rho * q + 1.0)) - lin * p
    return res


def _margin_value_grad(gs, asq, gptr, mu, rho, t, sigma_f):
    T = gs.shape[0]
    N, M = mu.shape
    et1 = math.expm1(t)
    set1 = math.sqrt(et1)
    lin = math.sqrt(0.25 * PI * rho)
    marg = np.empty(T)
    dinv = np.empty(T)
    for n in range(N):
        lo, hi = gptr[n], gptr[n + 1]
        p = gs[lo:hi] @ mu[n]
        q = asq[lo:hi] @ (mu[n] * mu[n])
        d = np.sqrt(rho * q + 1.0)
        marg[lo:hi] = lin * p - set1 * d
        dinv[lo:hi] = 1.0 / d
    fmin = marg.min()
    w = np.exp(-sigma_f * (marg - fmin))
    wsum = w.sum()
    f_sigma = fmin - math.log(wsum / T) / sigma_f
    w = w / wsum
    grad = np.empty_like(mu)
    for n in range(N):
        lo, hi = gptr[n], gptr[n + 1]
        grad[n] = lin * (w[lo:hi] @ gs[lo:hi]) - (
            set1 * rho * ((w[lo:hi] * dinv[lo:hi]) @ asq[lo:hi])
        ) * mu[n]
    return f_sigma, -fmin, grad


def _margin_value(gs, asq, gptr, mu, rho, t, sigma_f):
    res = _soc_residuals(gs, asq, gptr, mu, rho, t)
    marg = -res
    fmin = marg.min()
    s = np.exp(-sigma_f * (marg - fmin)).sum()
    return fmin - math.log(s / marg.shape[0]) / sigma_f, -fmin


class ApgStep(NamedTuple):
    """Outcome of one apg_step. status is "accepted", "rejected" (the
    extrapolated branch failed its search and the plain step was taken),
    "stalled" or "failed"; on the last two x, z, f and aux are the current
    iterate's, and f_best is the best plain-branch trial value."""

    x: np.ndarray
    z: np.ndarray
    f: float
    aux: float
    alpha_y: float
    alpha_mu: float
    bt_y: int
    bt_mu: int
    status: str
    f_best: float


def apg_step(value_grad, value, project, mu, mu_prev, z, t_prev, t_cur,
             alpha_y, alpha_mu, delta, kappa, cap) -> ApgStep:
    """One iteration of the monotone APG (Li & Lin, NeurIPS 2015) that
    maximizes a smooth objective over a projectable set: projected
    extrapolation, a backtracking search from the extrapolated point y and
    one from mu, and a monotone pick between the two trials.

    value(x) -> (f, aux); value_grad(x) -> (f, aux, grad). Each search first
    grows its step by 1/kappa, then accepts the first trial x+ with
    f(x+) >= f(x) + delta*||x+ - x||^2 after at most `cap` shrinks.
    "stalled" means the plain search ended on mu itself with both values
    finite: the step underflowed, and value and value_grad may round f(mu)
    differently, so no test can pass."""
    # the raw extrapolation can leave the set when iterates ride the ball
    # boundary, making the sufficient-increase test unsatisfiable; the
    # projected extrapolation keeps the test and the momentum intact
    y = project(mu + (t_prev / t_cur) * (z - mu) + ((t_prev - 1.0) / t_cur) * (mu - mu_prev))
    fy, _, gy = value_grad(y)

    alpha_y_in = alpha_y
    alpha_y = alpha_y / kappa
    bt_y = 0
    z_ok = False
    while bt_y <= cap:
        z_new = project(y + alpha_y * gy)
        fz, aux_z = value(z_new)
        diff = z_new - y
        if fz >= fy + delta * float(np.vdot(diff, diff)):
            z_ok = True
            break
        alpha_y *= kappa
        bt_y += 1
    if not z_ok:
        alpha_y = alpha_y_in  # rejected extrapolation must not sink the step size

    fmu, aux_mu, gmu = value_grad(mu)
    alpha_mu = alpha_mu / kappa
    bt_mu = 0
    fv_best = -math.inf
    while bt_mu <= cap:
        v_new = project(mu + alpha_mu * gmu)
        fv, aux_v = value(v_new)
        fv_best = max(fv_best, fv)
        diff = v_new - mu
        if fv >= fmu + delta * float(np.vdot(diff, diff)):
            break
        alpha_mu *= kappa
        bt_mu += 1
    else:
        stalled = np.array_equal(v_new, mu) and math.isfinite(fv) and math.isfinite(fmu)
        return ApgStep(mu, z, fmu, aux_mu, alpha_y, alpha_mu, bt_y, bt_mu,
                       "stalled" if stalled else "failed", fv_best)

    if z_ok and fz > fv:
        return ApgStep(z_new, z_new, fz, aux_z, alpha_y, alpha_mu, bt_y, bt_mu, "accepted",
                       fv_best)
    return ApgStep(v_new, z_new if z_ok else v_new, fv, aux_v, alpha_y, alpha_mu, bt_y, bt_mu,
                   "accepted" if z_ok else "rejected", fv_best)


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


def soft_min(values, sigma: float) -> float:
    """Log-sum-exp soft minimum of an array: -ln(mean(exp(-sigma*v)))/sigma.

    Sandwich: min(v) <= soft_min(v, sigma) <= min(v) + ln(len(v))/sigma.
    """
    values = np.asarray(values, dtype=float)
    vmin = values.min()
    s = np.exp(-sigma * (values - vmin)).sum()
    return float(vmin - math.log(s / values.shape[0]) / sigma)
