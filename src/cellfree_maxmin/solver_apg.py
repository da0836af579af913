"""Monotone accelerated projected gradient (APG) solver for the smoothed
max-min rate problem.

The nonsmooth objective min_u R_u(mu) is replaced by the log-sum-exp soft
minimum f_sigma (accuracy ln(T)/sigma, T = total users) and maximized over
the per-AP orthant-ball set S with:

  * extrapolation y^n = mu^n + (t_{n-1}/t_n)(z^n - mu^n)
                      + ((t_{n-1}-1)/t_n)(mu^n - mu^{n-1}),
    t_{n+1} = 0.5 + sqrt(t_n^2 + 0.25), t_0 = t_1 = 1;
  * two backtracking searches (from y and from mu^n) accepting the first
    step with f(x+) >= f(x) + delta*||x+ - x||^2, step sizes carried over
    and regrown by 1/kappa once per iteration;
  * a monotone pick between the extrapolated and plain iterate, so the
    f_sigma trace never decreases.

The same driver is reused by the bisection feasibility oracle with a
different (concave) objective. Each fixed-sigma stage runs as one call into
the compiled engine (native.py, apg_stage.c) when a C compiler is available,
and as monotone_apg otherwise. monotone_apg, one kernels.apg_step per
iteration, is the reference the compiled stage is tested against.
"""

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import kernels, native
from .rates import PowerControl, RateModel, as_mu_matrix


@dataclass(frozen=True)
class SmoothingConfig:
    """Soft-min smoothness parameter; larger sigma tracks the true minimum
    more closely at the price of a stiffer gradient."""

    sigma: float = 100.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def gap_bound(self, total_users: int) -> float:
        """Guaranteed accuracy: f <= f_sigma <= f + ln(T)/sigma."""
        return math.log(total_users) / self.sigma


@dataclass(frozen=True)
class ApgConfig:
    delta: float = 1e-5          # sufficient-increase constant
    kappa: float = 0.45          # backtracking shrink factor
    alpha_y0: float = 1.0        # initial step size, extrapolated branch
    alpha_mu0: float = 1.0       # initial step size, plain branch
    max_iters: int = 5000
    stop_tol: float = 1e-6       # objective change over stop_window
    stop_window: int = 20
    line_search_cap: int = 60

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if self.alpha_y0 <= 0 or self.alpha_mu0 <= 0:
            raise ValueError("initial step sizes must be positive")
        if self.line_search_cap < 0:
            raise ValueError("line_search_cap must be >= 0")


class LineSearchError(RuntimeError):
    """Backtracking exceeded its cap on the non-extrapolated branch, which a
    correct gradient/objective pair cannot do. (When the last trial is the
    iterate itself and both objective values are finite, the step has
    underflowed and the stage ends "stalled" instead.)"""

    def __init__(self, iteration: int, alpha: float, f_current: float, f_best: float):
        self.iteration = iteration
        self.alpha = alpha
        self.f_current = f_current
        self.f_best = f_best
        super().__init__(
            f"line search failed at iteration {iteration}: "
            f"alpha={alpha:.3e}, f={f_current!r}, best trial {f_best!r}"
        )


@dataclass
class DriverResult:
    x: np.ndarray
    f: float
    aux: float
    iterations: int
    termination: str
    # lists from monotone_apg, arrays from compiled_stage
    trace_f: Sequence[float] = field(default_factory=list)
    trace_aux: Sequence[float] = field(default_factory=list)
    trace_alpha_y: Sequence[float] = field(default_factory=list)
    trace_alpha_mu: Sequence[float] = field(default_factory=list)
    trace_bt_y: Sequence[int] = field(default_factory=list)
    trace_bt_mu: Sequence[int] = field(default_factory=list)
    trace_elapsed: Sequence[float] = field(default_factory=list)
    extrapolation_rejections: int = 0
    certified_bound: Optional[float] = None  # margin stage: last Frank-Wolfe bound


def monotone_apg(
    value_grad: Callable,
    value: Callable,
    project: Callable,
    x0: np.ndarray,
    cfg: ApgConfig,
    monitor: Optional[Callable] = None,
    clock: Optional[Callable[[], float]] = None,
) -> DriverResult:
    """Maximize a smooth objective over a projectable set, one
    kernels.apg_step per iteration (read as kernels.IMPL.rate_apg_step when
    the call starts), with the plateau stop.

    value(x) -> (f, aux); value_grad(x) -> (f, aux, grad). `aux` is carried
    into the trace untouched (the callers store the true min-rate or the max
    cone residual there). `monitor(x, f, aux, it)` may return a termination
    reason to stop early.
    """
    clock = clock or time.perf_counter
    start = clock()

    mu = project(np.ascontiguousarray(x0, dtype=float))
    mu_prev = mu
    z = mu
    t_prev = 1.0
    t_cur = 1.0
    alpha_y = cfg.alpha_y0
    alpha_mu = cfg.alpha_mu0

    f_cur, aux_cur = value(mu)
    res = DriverResult(x=mu, f=f_cur, aux=aux_cur, iterations=0, termination="max_iters")
    res.trace_f.append(f_cur)
    res.trace_aux.append(aux_cur)
    res.trace_alpha_y.append(alpha_y)
    res.trace_alpha_mu.append(alpha_mu)
    res.trace_bt_y.append(0)
    res.trace_bt_mu.append(0)
    res.trace_elapsed.append(clock() - start)

    step_fn = kernels.IMPL.rate_apg_step
    for it in range(1, cfg.max_iters + 1):
        step = step_fn(value_grad, value, project, mu, mu_prev, z, t_prev, t_cur,
                       alpha_y, alpha_mu, cfg.delta, cfg.kappa, cfg.line_search_cap)
        if step.status == "stalled":
            res.termination = "stalled"
            break
        if step.status == "failed":
            raise LineSearchError(it, step.alpha_mu, step.f, step.f_best)
        if step.status == "rejected":
            res.extrapolation_rejections += 1
        alpha_y, alpha_mu = step.alpha_y, step.alpha_mu
        mu_prev, mu, z = mu, step.x, step.z
        t_prev, t_cur = t_cur, 0.5 + math.sqrt(t_cur * t_cur + 0.25)
        f_cur, aux_cur = step.f, step.aux

        res.trace_f.append(f_cur)
        res.trace_aux.append(aux_cur)
        res.trace_alpha_y.append(alpha_y)
        res.trace_alpha_mu.append(alpha_mu)
        res.trace_bt_y.append(step.bt_y)
        res.trace_bt_mu.append(step.bt_mu)
        res.trace_elapsed.append(clock() - start)
        res.iterations = it

        if monitor is not None:
            reason = monitor(mu, f_cur, aux_cur, it)
            if reason:
                res.termination = reason
                break

        if it >= cfg.stop_window:
            if abs(res.trace_f[-1] - res.trace_f[-1 - cfg.stop_window]) < cfg.stop_tol:
                res.termination = "objective_plateau"
                break

    res.x = mu
    res.f = f_cur
    res.aux = aux_cur
    return res


def compiled_stage(
    lib,
    kind: int,
    model: RateModel,
    x0,
    cfg: ApgConfig,
    sigma: float,
    t: float = 0.0,
    eps_soc: float = 0.0,
    gap_check_every: int = 1,
    clock: Optional[Callable[[], float]] = None,
) -> DriverResult:
    """monotone_apg as one call of the compiled engine `lib` (see native.py).

    kind native.RATE maximizes the soft minimum of the user rates at `sigma`
    (aux: the true min-rate). kind native.MARGIN maximizes the soft minimum
    of the cone margins at level `t` with sharpness `sigma` (aux: the max
    cone residual), with the exits of the bisection oracle's monitor: it
    stops "feasible" once aux <= eps_soc, and every gap_check_every
    iterations it records the Frank-Wolfe bound and stops "infeasible" once
    that exceeds -eps_soc. Elapsed times come from one `clock` call per
    iteration; without a clock they read 0. A `clock` that is `lib.apg_clock`
    is called inside the stage without entering the interpreter."""
    gs, asq, ptr = model.gamma_sqrt, model.a_sq, model.group_ptr
    T, M = gs.shape
    N = ptr.shape[0] - 1
    x = np.array(x0, dtype=float, order="C")  # a copy: receives the last iterate
    if (x.shape != (N, M) or asq.shape != gs.shape or ptr[0] != 0 or ptr[-1] != T
            or (np.diff(ptr) < 0).any()):
        raise ValueError("start point and rate model shapes disagree")
    if kind == native.MARGIN and gap_check_every < 1:
        raise ValueError("gap_check_every must be >= 1")

    n = max(cfg.max_iters, 0) + 1
    # one block per dtype: fewer mid-sized allocations fragment the heap less
    traces = np.empty((5, n))  # f, aux, alpha_y, alpha_mu, clock
    bt_y, bt_mu = np.empty((2, n), dtype=np.int64)
    work = np.empty(lib.apg_work_len(T, N, M))
    stage_cfg = native.StageConfig(cfg.delta, cfg.kappa, cfg.alpha_y0, cfg.alpha_mu0,
                                   cfg.stop_tol, eps_soc, cfg.max_iters, cfg.stop_window,
                                   cfg.line_search_cap, gap_check_every)
    out = native.StageResult()
    if clock is None:
        clock_fn = native.CLOCK_FN()
    elif clock is lib.apg_clock:
        clock_fn = lib.stage_clock
    else:
        clock_fn = native.CLOCK_FN(clock)
    start = clock() if clock is not None else 0.0
    code = lib.apg_stage(
        kind, gs.ctypes.data, asq.ctypes.data, ptr.ctypes.data, T, N, M,
        model.rho_bar, sigma, t, stage_cfg, x.ctypes.data, work.ctypes.data,
        *(a.ctypes.data for a in traces[:4]), bt_y.ctypes.data, bt_mu.ctypes.data,
        traces[4].ctypes.data, clock_fn, out,
    )
    reason = native.STOP_REASONS[code]
    if reason == "line_search":
        raise LineSearchError(out.iterations, out.alpha_mu, out.f_mu, out.f_best)
    k = out.iterations + 1
    f, aux, alpha_y, alpha_mu, stamps = (a[:k] for a in traces)
    return DriverResult(
        x=x, f=out.f, aux=out.aux, iterations=out.iterations, termination=reason,
        trace_f=f, trace_aux=aux, trace_alpha_y=alpha_y, trace_alpha_mu=alpha_mu,
        trace_bt_y=bt_y[:k], trace_bt_mu=bt_mu[:k],
        trace_elapsed=stamps - start if clock is not None else stamps,
        extrapolation_rejections=out.rejections,
        certified_bound=None if math.isnan(out.bound) else out.bound,
    )


# ---------------------------------------------------------------------------
# public operations on the rate model
# ---------------------------------------------------------------------------

def project_feasible(x, num_aps: Optional[int] = None) -> PowerControl:
    """Exact Euclidean projection onto S: per AP, clip negatives then scale
    into the unit ball if needed. Accepts an (N, M) matrix or a flat
    group-major vector plus num_aps."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if num_aps is None:
            raise ValueError("flat input requires num_aps")
        arr = arr.reshape(-1, num_aps)
    mat = kernels.IMPL.project_ball_orthant(np.ascontiguousarray(arr))
    return PowerControl.from_matrix(mat)


def smooth_objective(model: RateModel, mu, sigma: float) -> float:
    mat = as_mu_matrix(mu, model)
    f, _ = kernels.IMPL.soft_min_value(
        model.gamma_sqrt, model.a_sq, model.group_ptr, mat, model.rho_bar, sigma
    )
    return float(f)


def smooth_gradient(model: RateModel, mu, sigma: float) -> np.ndarray:
    """Gradient of the soft minimum, returned flat (group-major, length MN)."""
    mat = as_mu_matrix(mu, model)
    _, _, grad = kernels.IMPL.soft_min_value_grad(
        model.gamma_sqrt, model.a_sq, model.group_ptr, mat, model.rho_bar, sigma
    )
    return grad.ravel()


def objective_closures(model: RateModel, sigma: float):
    """(value_grad, value, project) bound to a model and sigma, in
    monotone_apg's argument order; value functions return (f_sigma,
    true_min_rate[, grad])."""
    impl = kernels.IMPL
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar

    def value(mat):
        return impl.soft_min_value(gs, asq, ptr, mat, rho, sigma)

    def value_grad(mat):
        return impl.soft_min_value_grad(gs, asq, ptr, mat, rho, sigma)

    def project(mat):
        return impl.project_ball_orthant(mat)

    return value_grad, value, project


@dataclass
class SolveReport:
    """Solution, objectives, and the per-iteration trace of one APG run."""

    power: PowerControl
    f_sigma: float
    min_rate: float
    sigma: float
    iterations: int
    termination: str
    wall_time_s: float
    trace_f_sigma: np.ndarray
    trace_f_true: np.ndarray
    trace_alpha_y: np.ndarray
    trace_alpha_mu: np.ndarray
    trace_bt_y: np.ndarray
    trace_bt_mu: np.ndarray
    trace_elapsed_s: np.ndarray
    extrapolation_rejections: int = 0

    def write_trace_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "iter", "f_sigma_nats", "f_true_nats", "alpha_y", "alpha_mu",
                "backtracks_y", "backtracks_mu", "elapsed_s",
            ])
            for i in range(self.trace_f_sigma.shape[0]):
                writer.writerow([
                    i,
                    repr(float(self.trace_f_sigma[i])),
                    repr(float(self.trace_f_true[i])),
                    repr(float(self.trace_alpha_y[i])),
                    repr(float(self.trace_alpha_mu[i])),
                    int(self.trace_bt_y[i]),
                    int(self.trace_bt_mu[i]),
                    repr(float(self.trace_elapsed_s[i])),
                ])


def apg_solve(
    model: RateModel,
    cfg: Optional[ApgConfig] = None,
    smoothing: Optional[SmoothingConfig] = None,
    mu0=None,
    clock: Optional[Callable[[], float]] = None,
) -> SolveReport:
    """Run the monotone APG on the smoothed max-min rate objective.

    Starts from the (feasible, strictly positive) equal power allocation
    unless mu0 is given. The stage runs on the compiled engine when it loads
    (kernels.active_backend()), else as monotone_apg over
    objective_closures. Without a `clock` the compiled stage reads its own C
    clock (`apg_clock`), which it calls without the interpreter lock, and
    monotone_apg reads time.perf_counter."""
    cfg = cfg or ApgConfig()
    smoothing = smoothing or SmoothingConfig()
    if mu0 is None:
        mat0 = PowerControl.epa(model.num_aps, model.num_groups).by_group
    else:
        mat0 = as_mu_matrix(mu0, model)
        if (mat0 <= 0).any():
            raise ValueError("mu0 must be strictly positive")
        if not PowerControl.from_matrix(mat0).is_feasible():
            raise ValueError("mu0 must be feasible")

    lib = native.load_library()  # before the clock starts: the first call may build
    sigma = smoothing.sigma
    if clock is None:
        clock = time.perf_counter if lib is None else lib.apg_clock
    start = clock()
    if lib is not None:
        res = compiled_stage(lib, native.RATE, model, mat0, cfg, sigma, clock=clock)
    else:
        res = monotone_apg(*objective_closures(model, sigma), mat0, cfg, clock=clock)
    wall = clock() - start
    return SolveReport(
        power=PowerControl.from_matrix(res.x),
        f_sigma=res.f,
        min_rate=res.aux,
        sigma=sigma,
        iterations=res.iterations,
        termination=res.termination,
        wall_time_s=wall,
        trace_f_sigma=np.asarray(res.trace_f, dtype=float),
        trace_f_true=np.asarray(res.trace_aux, dtype=float),
        trace_alpha_y=np.asarray(res.trace_alpha_y, dtype=float),
        trace_alpha_mu=np.asarray(res.trace_alpha_mu, dtype=float),
        trace_bt_y=np.asarray(res.trace_bt_y, dtype=int),
        trace_bt_mu=np.asarray(res.trace_bt_mu, dtype=int),
        trace_elapsed_s=np.asarray(res.trace_elapsed, dtype=float),
        extrapolation_rejections=res.extrapolation_rejections,
    )


def apg_solve_continuation(
    model: RateModel,
    sigmas: Sequence[float],
    cfg: Optional[ApgConfig] = None,
    mu0=None,
    clock: Optional[Callable[[], float]] = None,
) -> List[SolveReport]:
    """Chain APG solves over an increasing sigma schedule, warm-starting each
    stage at the previous solution. A single-entry schedule is the plain
    fixed-sigma solver; extra stages squeeze the smoothing bias at little
    cost because the warm starts are already near-optimal."""
    if not sigmas:
        raise ValueError("sigma schedule must be non-empty")
    reports = []
    start_point = mu0
    for sigma in sigmas:
        report = apg_solve(model, cfg=cfg, smoothing=SmoothingConfig(sigma=sigma),
                           mu0=start_point, clock=clock)
        reports.append(report)
        # converged iterates may have exactly-zero entries; nudge them so the
        # next stage's strictly-positive start requirement holds
        start_mat = np.maximum(report.power.by_group, 1e-12)
        start_point = kernels.IMPL.project_ball_orthant(np.ascontiguousarray(start_mat))
    return reports
