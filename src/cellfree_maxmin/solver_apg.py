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
of the package. The bisection feasibility oracle reuses the same stage and
step policy with a different (concave) objective, a per-stage iteration
budget and stop_tol. Each fixed-sigma stage runs as one call into the
compiled engine (native.py, apg_stage.c), which needs a C compiler; the
oracle's whole continuation of stages is one call too.
monotone_apg, one kernels.apg_step per iteration over the numpy kernels, is
the reference the compiled stage is tested against; no solver runs it.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import kernels, native
from .netgen import integer
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


def real(name: str, value) -> float:
    """`value` as a float when it is a real number (numpy reals included,
    bool not); otherwise a ValueError naming `name`, as netgen.integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ApgConfig:
    max_iters: int = 5000
    stop_tol: float = 1e-6       # objective change over STOP_WINDOW iterations

    def __post_init__(self):
        # the budget crosses into the compiled stage as an int64
        object.__setattr__(self, "max_iters", integer("max_iters", self.max_iters))
        if not self.max_iters >= 0:
            raise ValueError("max_iters must be >= 0")
        object.__setattr__(self, "stop_tol", real("stop_tol", self.stop_tol))
        if not 0 <= self.stop_tol < math.inf:
            raise ValueError("stop_tol must be finite and >= 0")


class LineSearchError(RuntimeError):
    """Backtracking exceeded its cap on the non-extrapolated branch, which a
    correct gradient/objective pair cannot do."""

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
class SolveReport:
    """Last iterate, objectives, counters and per-iteration trace of one
    monotone-APG stage, for either objective. f_sigma is the smoothed
    objective; f_true the true one: the min-rate of a rate stage, the min
    cone margin (minus the max cone residual) of a margin stage."""

    power: np.ndarray  # (N, M) mu, the last iterate
    f_sigma: float
    f_true: float
    iterations: int
    termination: str
    sigma: Optional[float] = None        # set by compiled_stage
    wall_time_s: Optional[float] = None  # set by apg_solve
    # lists from monotone_apg, arrays from compiled_stage
    trace_f_sigma: Sequence[float] = field(default_factory=list)
    trace_f_true: Sequence[float] = field(default_factory=list)
    trace_alpha_y: Sequence[float] = field(default_factory=list)
    trace_alpha_mu: Sequence[float] = field(default_factory=list)
    trace_bt_y: Sequence[int] = field(default_factory=list)
    trace_bt_mu: Sequence[int] = field(default_factory=list)
    trace_elapsed_s: Sequence[float] = field(default_factory=list)
    extrapolation_rejections: int = 0
    plain_skips: int = 0       # iterations that took the extrapolated trial alone
    evaluations: int = 0       # value + value_grad calls (compiled: gap checks too)
    certified_bound: Optional[float] = None  # margin stage: last Frank-Wolfe bound

    def write_trace_csv(self, path):
        write_csv(path, ["iter", "f_sigma_nats", "f_true_nats", "alpha_y", "alpha_mu",
                         "backtracks_y", "backtracks_mu", "elapsed_s"],
                  [np.arange(len(self.trace_f_sigma)), self.trace_f_sigma,
                   self.trace_f_true, self.trace_alpha_y, self.trace_alpha_mu,
                   self.trace_bt_y, self.trace_bt_mu, self.trace_elapsed_s])


def monotone_apg(
    value_grad: Callable,
    value: Callable,
    project: Callable,
    x0: np.ndarray,
    cfg: ApgConfig,
    monitor: Optional[Callable] = None,
) -> SolveReport:
    """Maximize a smooth objective over a projectable set, one
    kernels.apg_step per iteration (read as kernels.IMPL.rate_apg_step when
    the call starts), with the plateau stop.

    value(x) -> (f, aux); value_grad(x) -> (f, aux, grad). `aux` is the
    true objective (the min-rate or the min cone margin), carried into
    f_true and its trace untouched. `monitor(x, f, aux, it)` may return a
    termination reason to stop early. The result's `evaluations` counts the
    calls of value and value_grad made here, not those of the monitor. The
    reference keeps no clock: its trace_elapsed_s stays empty and its sigma
    None.
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
    res = SolveReport(power=mu, f_sigma=f_cur, f_true=aux_cur, iterations=0,
                      termination="max_iters")
    res.trace_f_sigma.append(f_cur)
    res.trace_f_true.append(aux_cur)
    res.trace_alpha_y.append(alpha_y)
    res.trace_alpha_mu.append(alpha_mu)
    res.trace_bt_y.append(0)
    res.trace_bt_mu.append(0)

    step_fn = kernels.IMPL.rate_apg_step
    for it in range(1, cfg.max_iters + 1):
        step = step_fn(value_grad, value, project, mu, mu_prev, z, t_prev, t_cur, f_cur,
                       alpha_y, alpha_mu, run_y, run_mu, DELTA, KAPPA,
                       LINE_SEARCH_CAP, STEP_GROW_AFTER)
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

        res.trace_f_sigma.append(f_cur)
        res.trace_f_true.append(aux_cur)
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
            if abs(res.trace_f_sigma[-1] - res.trace_f_sigma[-1 - STOP_WINDOW]) < cfg.stop_tol:
                res.termination = "objective_plateau"
                break

    res.power = mu
    res.f_sigma = f_cur
    res.f_true = aux_cur
    res.evaluations = calls[0]
    return res


def stage_start(model: RateModel, x0) -> np.ndarray:
    """A C-ordered float copy of the start point x0, which the compiled
    engine overwrites with the last iterate; ValueError when it is no
    (N, M) array for the rate model."""
    x = np.array(x0, dtype=float, order="C")
    if x.shape != (model.num_groups, model.num_aps):
        raise ValueError("start point and rate model shapes disagree")
    return x


def stage_config(max_iters: int, stop_tol: float, eps_soc: float,
                 gap_check_every: int) -> native.StageConfig:
    """The compiled engine's stage settings: this module's step policy with
    the given budget, plateau tolerance and margin-stage exits."""
    return native.StageConfig(DELTA, KAPPA, ALPHA_Y0, ALPHA_MU0, stop_tol, eps_soc, max_iters,
                              STOP_WINDOW, LINE_SEARCH_CAP, gap_check_every, STEP_GROW_AFTER)


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
) -> SolveReport:
    """monotone_apg as one call of the compiled engine `lib` (see native.py).

    kind native.RATE maximizes the soft minimum of the user rates at `sigma`
    (f_true: the min-rate). kind native.MARGIN maximizes the soft minimum
    of the cone margins at level `t` with sharpness `sigma` (f_true: the min
    cone margin), with the exits of the bisection oracle's monitor: it
    stops "feasible" once f_true >= -eps_soc, and every gap_check_every
    iterations it records the Frank-Wolfe bound and stops "infeasible" once
    that exceeds -eps_soc. The stage stamps every iteration with the
    library's C clock `lib.apg_clock`; elapsed times are measured from one
    reading before the call."""
    x = stage_start(model, x0)
    if kind == native.MARGIN and gap_check_every < 1:
        raise ValueError("gap_check_every must be >= 1")
    gs, asq, ptr = model.gamma_sqrt, model.a_sq, model.group_ptr
    (N, M), T = x.shape, gs.shape[0]

    n = cfg.max_iters + 1
    # one block per dtype: fewer mid-sized allocations fragment the heap less
    traces = np.empty((5, n))  # f_sigma, f_true, alpha_y, alpha_mu, clock
    bt_y, bt_mu = np.empty((2, n), dtype=np.int64)
    work = np.empty(lib.apg_work_len(T, N, M))
    out = native.StageResult()
    start = lib.apg_clock()
    code = lib.apg_stage(
        kind, gs.ctypes.data, asq.ctypes.data, ptr.ctypes.data, T, N, M, model.rho_bar,
        sigma, t, stage_config(cfg.max_iters, cfg.stop_tol, eps_soc, gap_check_every),
        x.ctypes.data, work.ctypes.data,
        *(a.ctypes.data for a in traces[:4]), bt_y.ctypes.data, bt_mu.ctypes.data,
        traces[4].ctypes.data, out,
    )
    reason = native.STOP_REASONS[code]
    if reason == "line_search":
        raise LineSearchError(out.iterations, out.alpha_mu, out.f_mu, out.f_best)
    k = out.iterations + 1
    f_sigma, f_true, alpha_y, alpha_mu, stamps = (a[:k] for a in traces)
    return SolveReport(
        power=x, f_sigma=out.f, f_true=out.aux, iterations=out.iterations,
        termination=reason, sigma=sigma,
        trace_f_sigma=f_sigma, trace_f_true=f_true,
        trace_alpha_y=alpha_y, trace_alpha_mu=alpha_mu,
        trace_bt_y=bt_y[:k], trace_bt_mu=bt_mu[:k],
        trace_elapsed_s=stamps - start,
        extrapolation_rejections=out.rejections,
        plain_skips=out.plain_skips,
        evaluations=out.evaluations,
        certified_bound=None if math.isnan(out.bound) else out.bound,
    )


# ---------------------------------------------------------------------------
# public operations on the rate model
# ---------------------------------------------------------------------------

def project_feasible(x, num_aps: Optional[int] = None) -> np.ndarray:
    """Exact Euclidean projection of the (N, M) matrix x onto S: per AP,
    clip negatives then scale into the unit ball if needed. Any other shape,
    M != num_aps when num_aps is given, or a NaN or infinite entry is
    rejected."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError("x must be an (N, M) array")
    if num_aps is not None and arr.shape[1] != num_aps:
        raise ValueError(f"x has {arr.shape[1]} AP columns, expected num_aps={num_aps}")
    if not np.isfinite(arr).all():
        raise ValueError("x must be finite")
    return kernels.IMPL.project_ball_orthant(np.ascontiguousarray(arr))


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
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
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
    res.wall_time_s = read() - start
    if clock is not None:
        elapsed = res.trace_elapsed_s
        span = elapsed[-1]
        res.trace_elapsed_s = (elapsed / span * res.wall_time_s if span > 0
                               else np.zeros_like(elapsed))
    return res


def apg_solve_continuation(
    model: RateModel,
    sigmas: Sequence[float],
    clock: Optional[Callable[[], float]] = None,
) -> List[SolveReport]:
    """Chain APG solves over an increasing sigma schedule, warm-starting each
    stage at the previous solution; the first starts from the equal power
    allocation. A single-entry schedule is the plain fixed-sigma solver;
    extra stages squeeze the smoothing bias at little cost because the warm
    starts are already near-optimal."""
    if not sigmas:
        raise ValueError("sigma schedule must be non-empty")
    reports = []
    start_point = None
    for sigma in sigmas:
        report = apg_solve(model, sigma=sigma, mu0=start_point, clock=clock)
        reports.append(report)
        # converged iterates may have exactly-zero entries; nudge them so the
        # next stage's strictly-positive start requirement holds; the nudged
        # point passes is_feasible, and the stage projects its start itself
        start_point = np.maximum(report.power, 1e-12)
    return reports
