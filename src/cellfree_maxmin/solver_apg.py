"""Monotone accelerated projected gradient (APG) solver for the smoothed
max-min rate problem.

The nonsmooth objective min_u R_u(mu) is replaced by the log-sum-exp soft
minimum f_sigma (accuracy ln(T)/sigma, T = total users) and maximized over
the per-AP orthant-ball set S with:

  * extrapolation y^n = mu^n + (t_{n-1}/t_n)(z^n - mu^n)
                      + ((t_{n-1}-1)/t_n)(mu^n - mu^{n-1}),
    t_{n+1} = 0.5 + sqrt(t_n^2 + 0.25), t_0 = t_1 = 1;
  * a backtracking search from y accepting the first step with
    f(z+) >= f(y) + delta*||z+ - y||^2; when also
    f(z+) >= f(mu^n) + delta*||z+ - y||^2 (Li & Lin's test against the
    current value, known from the previous iteration) z+ is the next iterate
    and the plain branch is skipped;
  * otherwise a backtracking search from mu^n with the same test and a
    monotone pick between the extrapolated and plain iterate, so the
    f_sigma trace never decreases;
  * step sizes carried over between iterations, each grown by 1/kappa only
    when its branch's last STEP_GROW_AFTER searches all accepted their first
    trial (Scheinberg, Goldfarb & Bai, FoCM 2014), and on each branch's
    first search of a stage.

The step policy is fixed: the module constants DELTA, KAPPA, ALPHA_Y0,
ALPHA_MU0, LINE_SEARCH_CAP and STEP_GROW_AFTER, read when a stage starts. A
stage stops on the plateau test |f_n - f_{n-STOP_WINDOW}| < stop_tol, so
stop_tol = 0 runs exactly max_iters iterations. ApgConfig holds the two
values callers set, max_iters and stop_tol; it is the one APG configuration
of the package. The bisection feasibility oracle reuses the same driver and
step policy with a different (concave) objective, a per-stage iteration
budget and stop_tol. Each fixed-sigma stage runs as one call into the
compiled engine (native.py, apg_stage.c), which needs a C compiler.
monotone_apg, one kernels.apg_step per iteration over the numpy kernels, is
the reference the compiled stage is tested against; no solver runs it.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import kernels, native
from .rates import RateModel, as_mu_matrix, epa_power, is_feasible
from .tables import write_csv

DELTA = 1e-5          # sufficient-increase constant
KAPPA = 0.45          # backtracking shrink factor
ALPHA_Y0 = 1.0        # initial step size, extrapolated branch
ALPHA_MU0 = 1.0       # initial step size, plain branch
LINE_SEARCH_CAP = 60  # shrinks per search
STOP_WINDOW = 20      # iterations the plateau test looks back
# A branch grows its step by 1/kappa only when this many of its searches in
# a row accepted their first trial; growing on every iteration cost a failed
# trial and a backtrack in almost every search.
STEP_GROW_AFTER = 10
# the experiments' sigma continuation: one warm-started stage per entry
SIGMA_SCHEDULE = (100.0, 1000.0)


@dataclass(frozen=True)
class ApgConfig:
    max_iters: int = 5000
    stop_tol: float = 1e-6       # objective change over STOP_WINDOW iterations

    def __post_init__(self):
        if not self.max_iters >= 0:
            raise ValueError("max_iters must be >= 0")
        if not 0 <= self.stop_tol < math.inf:
            raise ValueError("stop_tol must be finite and >= 0")


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
    plain_skips: int = 0       # iterations that took the extrapolated trial alone
    evaluations: int = 0       # value + value_grad calls (compiled: gap checks too)
    certified_bound: Optional[float] = None  # margin stage: last Frank-Wolfe bound


def monotone_apg(
    value_grad: Callable,
    value: Callable,
    project: Callable,
    x0: np.ndarray,
    cfg: ApgConfig,
    monitor: Optional[Callable] = None,
) -> DriverResult:
    """Maximize a smooth objective over a projectable set, one
    kernels.apg_step per iteration (read as kernels.IMPL.rate_apg_step when
    the call starts), with the plateau stop.

    value(x) -> (f, aux); value_grad(x) -> (f, aux, grad). `aux` is carried
    into the trace untouched (the callers store the true min-rate or the max
    cone residual there). `monitor(x, f, aux, it)` may return a termination
    reason to stop early. The result's `evaluations` counts the calls of
    value and value_grad made here, not those of the monitor. The reference
    keeps no clock: its trace_elapsed stays empty.
    """
    calls = [0]

    def counted(fn):
        def call(x):
            calls[0] += 1
            return fn(x)
        return call

    value, value_grad = counted(value), counted(value_grad)
    mu = project(np.ascontiguousarray(x0, dtype=float))
    mu_prev = mu
    z = mu
    t_prev = 1.0
    t_cur = 1.0
    alpha_y = ALPHA_Y0
    alpha_mu = ALPHA_MU0
    run_y = run_mu = STEP_GROW_AFTER  # full: each branch's first search grows

    f_cur, aux_cur = value(mu)
    res = DriverResult(x=mu, f=f_cur, aux=aux_cur, iterations=0, termination="max_iters")
    res.trace_f.append(f_cur)
    res.trace_aux.append(aux_cur)
    res.trace_alpha_y.append(alpha_y)
    res.trace_alpha_mu.append(alpha_mu)
    res.trace_bt_y.append(0)
    res.trace_bt_mu.append(0)

    step_fn = kernels.IMPL.rate_apg_step
    for it in range(1, cfg.max_iters + 1):
        step = step_fn(value_grad, value, project, mu, mu_prev, z, t_prev, t_cur, f_cur,
                       alpha_y, alpha_mu, run_y, run_mu, DELTA, KAPPA,
                       LINE_SEARCH_CAP, STEP_GROW_AFTER)
        if step.status == "stalled":
            res.termination = "stalled"
            break
        if step.status == "failed":
            raise LineSearchError(it, step.alpha_mu, step.f, step.f_best)
        if step.status == "rejected":
            res.extrapolation_rejections += 1
        elif step.status == "skipped":
            res.plain_skips += 1
        alpha_y, alpha_mu = step.alpha_y, step.alpha_mu
        run_y, run_mu = step.run_y, step.run_mu
        mu_prev, mu, z = mu, step.x, step.z
        t_prev, t_cur = t_cur, 0.5 + math.sqrt(t_cur * t_cur + 0.25)
        f_cur, aux_cur = step.f, step.aux

        res.trace_f.append(f_cur)
        res.trace_aux.append(aux_cur)
        res.trace_alpha_y.append(alpha_y)
        res.trace_alpha_mu.append(alpha_mu)
        res.trace_bt_y.append(step.bt_y)
        res.trace_bt_mu.append(step.bt_mu)
        res.iterations = it

        if monitor is not None:
            reason = monitor(mu, f_cur, aux_cur, it)
            if reason:
                res.termination = reason
                break

        if it >= STOP_WINDOW:
            if abs(res.trace_f[-1] - res.trace_f[-1 - STOP_WINDOW]) < cfg.stop_tol:
                res.termination = "objective_plateau"
                break

    res.x = mu
    res.f = f_cur
    res.aux = aux_cur
    res.evaluations = calls[0]
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
) -> DriverResult:
    """monotone_apg as one call of the compiled engine `lib` (see native.py).

    kind native.RATE maximizes the soft minimum of the user rates at `sigma`
    (aux: the true min-rate). kind native.MARGIN maximizes the soft minimum
    of the cone margins at level `t` with sharpness `sigma` (aux: the max
    cone residual), with the exits of the bisection oracle's monitor: it
    stops "feasible" once aux <= eps_soc, and every gap_check_every
    iterations it records the Frank-Wolfe bound and stops "infeasible" once
    that exceeds -eps_soc. The stage stamps every iteration with the
    library's C clock `lib.apg_clock`; elapsed times are measured from one
    reading before the call."""
    gs, asq, ptr = model.gamma_sqrt, model.a_sq, model.group_ptr
    T, M = gs.shape
    N = ptr.shape[0] - 1
    x = np.array(x0, dtype=float, order="C")  # a copy: receives the last iterate
    if (x.shape != (N, M) or asq.shape != gs.shape or ptr[0] != 0 or ptr[-1] != T
            or (np.diff(ptr) < 0).any()):
        raise ValueError("start point and rate model shapes disagree")
    if kind == native.MARGIN and gap_check_every < 1:
        raise ValueError("gap_check_every must be >= 1")

    n = cfg.max_iters + 1
    # one block per dtype: fewer mid-sized allocations fragment the heap less
    traces = np.empty((5, n))  # f, aux, alpha_y, alpha_mu, clock
    bt_y, bt_mu = np.empty((2, n), dtype=np.int64)
    work = np.empty(lib.apg_work_len(T, N, M))
    stage_cfg = native.StageConfig(DELTA, KAPPA, ALPHA_Y0, ALPHA_MU0, cfg.stop_tol, eps_soc,
                                   cfg.max_iters, STOP_WINDOW, LINE_SEARCH_CAP,
                                   gap_check_every, STEP_GROW_AFTER)
    out = native.StageResult()
    start = lib.apg_clock()
    code = lib.apg_stage(
        kind, gs.ctypes.data, asq.ctypes.data, ptr.ctypes.data, T, N, M,
        model.rho_bar, sigma, t, stage_cfg, x.ctypes.data, work.ctypes.data,
        *(a.ctypes.data for a in traces[:4]), bt_y.ctypes.data, bt_mu.ctypes.data,
        traces[4].ctypes.data, out,
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
        trace_elapsed=stamps - start,
        extrapolation_rejections=out.rejections,
        plain_skips=out.plain_skips,
        evaluations=out.evaluations,
        certified_bound=None if math.isnan(out.bound) else out.bound,
    )


# ---------------------------------------------------------------------------
# public operations on the rate model
# ---------------------------------------------------------------------------

def project_feasible(x, num_aps: Optional[int] = None) -> np.ndarray:
    """Exact Euclidean projection onto S: per AP, clip negatives then scale
    into the unit ball if needed. Accepts an (N, M) matrix or a flat
    group-major vector plus num_aps; returns the (N, M) matrix."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if num_aps is None:
            raise ValueError("flat input requires num_aps")
        arr = arr.reshape(-1, num_aps)
    return kernels.IMPL.project_ball_orthant(np.ascontiguousarray(arr))


def smooth_objective(model: RateModel, mu, sigma: float) -> float:
    mat = as_mu_matrix(mu, model)
    f, _ = kernels.IMPL.soft_min_value(
        model.gamma_sqrt, model.a_sq, model.group_ptr, mat, model.rho_bar, sigma
    )
    return float(f)


def smooth_gradient(model: RateModel, mu, sigma: float) -> np.ndarray:
    """Gradient of the soft minimum, an (N, M) array like mu."""
    mat = as_mu_matrix(mu, model)
    _, _, grad = kernels.IMPL.soft_min_value_grad(
        model.gamma_sqrt, model.a_sq, model.group_ptr, mat, model.rho_bar, sigma
    )
    return grad


@dataclass
class SolveReport:
    """Solution, objectives, and the per-iteration trace of one APG run."""

    power: np.ndarray  # (N, M) mu
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
    plain_skips: int = 0
    evaluations: int = 0

    def write_trace_csv(self, path):
        write_csv(path, ["iter", "f_sigma_nats", "f_true_nats", "alpha_y", "alpha_mu",
                         "backtracks_y", "backtracks_mu", "elapsed_s"],
                  [np.arange(self.trace_f_sigma.shape[0]), self.trace_f_sigma,
                   self.trace_f_true, self.trace_alpha_y, self.trace_alpha_mu,
                   self.trace_bt_y, self.trace_bt_mu, self.trace_elapsed_s])


def apg_solve(
    model: RateModel,
    cfg: Optional[ApgConfig] = None,
    sigma: float = 100.0,
    mu0=None,
    clock: Optional[Callable[[], float]] = None,
) -> SolveReport:
    """Run the monotone APG on the soft minimum of the user rates at
    smoothness `sigma` (larger tracks the true minimum more closely, within
    ln(T)/sigma, at the price of a stiffer gradient).

    Starts from the (feasible, strictly positive) equal power allocation
    unless mu0 is given. The stage is one compiled_stage call, which stamps
    its iterations on the library's C clock. Without a `clock` the wall time
    is read on that clock too; an injected clock is read just before and
    after the stage, and the stamps are scaled linearly onto that span."""
    cfg = cfg or ApgConfig()
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if mu0 is None:
        mat0 = epa_power(model.num_aps, model.num_groups)
    else:
        mat0 = as_mu_matrix(mu0, model)
        if (mat0 <= 0).any():
            raise ValueError("mu0 must be strictly positive")
        if not is_feasible(mat0):
            raise ValueError("mu0 must be feasible")

    lib = native.load_library()  # before the clock starts: the first call may build
    read = clock or lib.apg_clock
    start = read()
    res = compiled_stage(lib, native.RATE, model, mat0, cfg, sigma)
    wall = read() - start
    elapsed = res.trace_elapsed
    if clock is not None:
        span = elapsed[-1]
        elapsed = elapsed / span * wall if span > 0 else np.zeros_like(elapsed)
    return SolveReport(
        power=res.x,
        f_sigma=res.f,
        min_rate=res.aux,
        sigma=sigma,
        iterations=res.iterations,
        termination=res.termination,
        wall_time_s=wall,
        trace_f_sigma=res.trace_f,
        trace_f_true=res.trace_aux,
        trace_alpha_y=res.trace_alpha_y,
        trace_alpha_mu=res.trace_alpha_mu,
        trace_bt_y=res.trace_bt_y,
        trace_bt_mu=res.trace_bt_mu,
        trace_elapsed_s=elapsed,
        extrapolation_rejections=res.extrapolation_rejections,
        plain_skips=res.plain_skips,
        evaluations=res.evaluations,
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
        report = apg_solve(model, cfg=cfg, sigma=sigma, mu0=start_point, clock=clock)
        reports.append(report)
        # converged iterates may have exactly-zero entries; nudge them so the
        # next stage's strictly-positive start requirement holds
        start_mat = np.maximum(report.power, 1e-12)
        start_point = kernels.IMPL.project_ball_orthant(np.ascontiguousarray(start_mat))
    return reports
