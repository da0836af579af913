"""Baseline solver: bisection on the epigraph level t with an internal
convex feasibility oracle.

Level-t feasibility of a user is the cone inequality

    sqrt(pi*rho/4) * (gs_u . mu_n)  >=  sqrt(e^t - 1) * sqrt(rho*||A_u mu_n||^2 + 1)

whose residual (RHS - LHS) is convex in mu. The oracle minimizes the largest
residual over the feasible set S by maximizing the concave smoothed minimum
margin with the monotone-APG stage of the main solver (kind native.MARGIN),
and certifies infeasibility through a Frank-Wolfe gap bound (the support
function of S has the closed form sum_m ||[d_m]_+||): inside the stages
every GAP_CHECK_EVERY iterations, and once more here when they end
undecided. The sharpness continuation of stages is one call into the
compiled library (apg_chain in apg_stage.c), which runs the schedule that
_smoothing_schedule sets here: each stage's sharpness and plateau
tolerance. The candidate pick before it and the last certificate after it
stay here too. The stages run the APG step policy of solver_apg.

Oracle outcomes: "feasible" (witness with max residual <= EPS_SOC),
"infeasible" (certified min of the max residual exceeds -EPS_SOC), or
"undecided" (iteration cap). Bisection treats undecided as infeasible, which
can only shrink the reported optimum. BisectionConfig has two knobs: the
bracket tolerance tol_t and the oracle's total iteration budget
oracle_iter_cap. The bracket always starts at
[0, zero-interference bound + pad]; a result below the equal power
allocation's min-rate, which the EPA point witnesses, is raised to it.
"""

import ctypes
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels, native
from .netgen import integer
from .rates import RateModel, as_mu_matrix, epa_power, is_feasible, min_rate
from .solver_apg import LineSearchError, real, stage_config, stage_start
from .tables import write_csv

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"

# residual tolerance of the oracle's feasible and infeasible verdicts
EPS_SOC = 1e-6

# period, in iterations, of the Frank-Wolfe certificate check inside the
# oracle's margin stages
GAP_CHECK_EVERY = 25
# the oracle's sharpness continuation resolves margins from SMOOTHING_COARSE_T
# (t units) down to SMOOTHING_QUALITY * tol_t, SMOOTHING_STEP times finer per stage
SMOOTHING_QUALITY = 0.25
SMOOTHING_COARSE_T = 0.02
SMOOTHING_STEP = 5.0


@dataclass(frozen=True)
class BisectionConfig:
    tol_t: float = 1e-4          # bisection bracket tolerance, nats
    oracle_iter_cap: int = 4000  # total budget across smoothing stages

    def __post_init__(self):
        object.__setattr__(self, "tol_t", real("tol_t", self.tol_t))
        if not 0 < self.tol_t < math.inf:
            raise ValueError("tol_t must be positive and finite")
        # the budget crosses into the compiled oracle as an int64
        object.__setattr__(self, "oracle_iter_cap",
                           integer("oracle_iter_cap", self.oracle_iter_cap))
        if not self.oracle_iter_cap >= 1:
            raise ValueError("oracle_iter_cap must be >= 1")


def build_soc_system(model: RateModel) -> RateModel:
    """`model` itself: the solvers here take the rate model. Kept only
    because perfbench/test_perfbench.py imports it; it goes with ROADMAP
    item 2."""
    return model


def rate_upper_bound(model: RateModel) -> float:
    """Zero-interference full-power bound: every user rate is at most
    ln(1 + (pi*rho/4) * (sum_m sqrt(gamma))^2)."""
    s = model.gamma_sqrt.sum(axis=1)
    return float(np.log1p(0.25 * math.pi * model.rho_bar * s * s).max())


@dataclass
class OracleResult:
    status: str
    power: np.ndarray  # (N, M) last iterate; the witness when feasible
    iterations: int
    max_residual: float
    certified_lower_bound: Optional[float] = None
    stages: Tuple[str, ...] = ()  # each margin stage's stop reason, in order


def _support_gap(grad: np.ndarray, x: np.ndarray) -> float:
    """Frank-Wolfe gap max_{u in S} <grad, u - x>; the support function of S
    decomposes per AP into the norm of the clipped column."""
    pos = np.maximum(grad, 0.0)
    support = np.sqrt(np.einsum("nm,nm->m", pos, pos)).sum()
    return float(support - np.einsum("nm,nm->", grad, x))


def feasibility_oracle(
    model: RateModel,
    t: float,
    warm: Sequence = (),
    cfg: Optional[BisectionConfig] = None,
) -> OracleResult:
    """Find mu in S with all residuals <= EPS_SOC, or certify none is close.

    `warm` is a sequence of candidate (N, M) start points. The equal power
    allocation point always follows them as a fallback, and the candidate of
    least max residual starts the search; it is the witness itself when it
    lies in S with no residual above EPS_SOC. Otherwise the smoothed
    min-margin maximization runs an inner sharpness continuation (coarse to
    fine sigma_f, warm-started), checking the true residuals every iterate
    and the infeasibility certificate periodically: the whole continuation
    is one call into the compiled library (apg_chain in apg_stage.c).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"level t must be finite and >= 0, got {t!r}")
    cfg = cfg or BisectionConfig()
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar
    set1 = math.sqrt(math.expm1(t))
    lin = math.sqrt(0.25 * math.pi * rho)

    candidates = [as_mu_matrix(w, model) for w in warm]
    candidates.append(epa_power(model.num_aps, model.num_groups))

    best = best_d = None
    best_res = math.inf
    for cand in candidates:
        cand = np.ascontiguousarray(cand)
        p, c = kernels._user_pc(gs, asq, ptr, cand, rho)
        d = np.sqrt(c)
        # kernels._soc_residuals, bit for bit
        r = float((set1 * d - lin * p).max())
        if r < best_res:
            best, best_d, best_res = cand, d, r
    if best is None:
        # no candidate has a residual below inf (NaN or inf data): name the inputs
        inputs = {"gamma_sqrt": gs, "a_sq": asq, "rho_bar": rho, "warm start": candidates}
        bad = [name for name, val in inputs.items() if not np.isfinite(val).all()]
        raise ValueError(f"non-finite oracle data ({', '.join(bad) or 'residuals'}) at level t={t}")
    if best_res <= EPS_SOC:
        # a candidate outside S is no witness: the first stage projects it
        if is_feasible(best):
            return OracleResult(FEASIBLE, best, 0, best_res)
        if t == 0.0:
            # no residual of a point of S is positive at level 0, where the
            # sensitivity below is infinite: the EPA point, the last
            # candidate, witnesses it
            return OracleResult(FEASIBLE, candidates[-1], 0, r)

    # residual-to-t sensitivity at the warm point:
    # d(residual)/dt = exp(t)/(2*sqrt(e^t-1)) * sqrt(rho*||A mu||^2 + 1),
    # with the median over users taken as np.median does
    dvals = np.sort(best_d)
    half = dvals.shape[0] // 2
    median = dvals[half] if dvals.shape[0] % 2 else (dvals[half - 1] + dvals[half]) / 2.0
    sens = math.exp(t) / (2.0 * set1) * float(median)
    return _continuation(native.load_library(), model, t, best, sens, cfg)


def _smoothing_schedule(tol_t: float, sens: float,
                        num_users: int) -> Tuple[List[float], List[float]]:
    """The sharpness and plateau tolerance of each margin stage of the
    oracle's continuation, from the t-resolution SMOOTHING_COARSE_T down to
    SMOOTHING_QUALITY * tol_t, SMOOTHING_STEP times finer per stage: the stage
    at resolution res has sharpness ln(T)/(res * sens), clipped to
    [1e-3, 1e12], and plateau tolerance 0.02 * res * sens (sens: the
    residuals' sensitivity to t). The constants are read at call time."""
    log_t = math.log(max(num_users, 2))
    res_fine = max(SMOOTHING_QUALITY * tol_t, 1e-12)
    res = max(SMOOTHING_COARSE_T, res_fine)
    sigmas, tols = [], []
    while True:
        sigmas.append(min(max(log_t / max(res * sens, 1e-300), 1e-3), 1e12))
        tols.append(0.02 * res * sens)
        if not res > res_fine * (1 + 1e-9):
            return sigmas, tols
        res = max(res / SMOOTHING_STEP, res_fine)


def _continuation(lib, model: RateModel, t: float, x0, sens: float,
                  cfg: BisectionConfig) -> OracleResult:
    """The oracle's sharpness continuation at level t from x0: the stages of
    _smoothing_schedule as one apg_chain call of the compiled library `lib`,
    on the iteration budget cfg.oracle_iter_cap. When they end undecided,
    one last certificate attempt follows, at the sharpness of the first
    stage not run, or of the last one when all ran."""
    x = stage_start(model, x0)
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar
    (N, M), T = x.shape, gs.shape[0]
    sigmas, tols = _smoothing_schedule(cfg.tol_t, sens, T)
    if not all(0.0 <= tol < math.inf for tol in tols):
        raise ValueError("stop_tol must be finite and >= 0")
    cap, count = cfg.oracle_iter_cap, len(sigmas)
    work = np.empty(lib.apg_work_len(T, N, M) + 7 * (cap + 1))  # the work, then the traces
    codes = (ctypes.c_int64 * count)()
    out = native.StageResult()
    code = lib.apg_chain(
        gs.ctypes.data, asq.ctypes.data, ptr.ctypes.data, T, N, M, rho, t, count,
        (ctypes.c_double * count)(*sigmas), (ctypes.c_double * count)(*tols),
        stage_config(cap, 0.0, EPS_SOC, GAP_CHECK_EVERY), x.ctypes.data, work.ctypes.data,
        codes, out)
    reason = native.STOP_REASONS[code]
    if reason == "line_search":
        raise LineSearchError(out.iterations, out.alpha_mu, out.f_mu, out.f_best)
    stages = tuple(native.STOP_REASONS[c] for c in codes[:out.stages])
    if reason == FEASIBLE:
        return OracleResult(FEASIBLE, x, out.total_iterations, -out.aux, stages=stages)
    if reason == INFEASIBLE:
        return OracleResult(INFEASIBLE, x, out.total_iterations, -out.aux,
                            certified_lower_bound=out.bound, stages=stages)

    # budget exhausted or plateaued everywhere: one last certificate attempt
    sigma = sigmas[min(out.stages, count - 1)]
    fs, _, grad = kernels.IMPL.margin_value_grad(gs, asq, ptr, x, rho, t, sigma)
    gap = _support_gap(grad, x)
    lower = -(fs + gap)
    status = INFEASIBLE if lower > -EPS_SOC else UNDECIDED
    return OracleResult(status, x, out.total_iterations, -out.aux,
                        certified_lower_bound=lower, stages=stages)


@dataclass
class BisectionStep:
    step: int
    t_lo: float
    t_hi: float
    oracle_iters: int
    oracle_status: str


@dataclass
class BisectionReport:
    t_star: float
    power: np.ndarray  # (N, M) mu
    min_rate: float
    steps: List[BisectionStep]
    undecided_count: int
    approximate: bool
    initial_upper_bound: float
    wall_time_s: float
    oracle_iters_total: int = 0

    def write_steps_csv(self, path):
        names = ["step", "t_lo", "t_hi", "oracle_iters", "oracle_status"]
        write_csv(path, names, [[getattr(s, name) for s in self.steps] for name in names])


def bisection_solve(
    model: RateModel,
    cfg: Optional[BisectionConfig] = None,
    clock: Optional[Callable[[], float]] = None,
) -> BisectionReport:
    """Bisection over t; the lower end of the bracket is always witnessed.
    When the bracket closes below the equal power allocation's min-rate (an
    optimum under tol_t), t_star is that min-rate and the power EPA; the
    optimum still lies within tol_t of it. The wall time is read on `clock`
    or, without one, on the library's C clock, the clock of apg_solve."""
    cfg = cfg or BisectionConfig()
    lib = native.load_library()  # before the clock starts: the first call may build
    read = clock or lib.apg_clock
    start = read()

    upper = rate_upper_bound(model)
    lo = 0.0  # always feasible
    hi = upper + max(cfg.tol_t, 1e-6)
    witness = epa = epa_power(model.num_aps, model.num_groups)

    steps: List[BisectionStep] = []
    extra_warm = None
    while hi - lo > cfg.tol_t:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # tol_t is below the spacing of doubles near t: the bracket is closed
        warm = [witness] if extra_warm is None else [witness, extra_warm]
        res = feasibility_oracle(model, mid, warm=warm, cfg=cfg)
        steps.append(BisectionStep(len(steps), lo, hi, res.iterations, res.status))
        extra_warm = res.power
        if res.status == FEASIBLE:
            lo = mid
            witness = res.power
        else:
            hi = mid

    epa_level = min_rate(model, epa)
    if epa_level > lo:
        lo, witness = epa_level, epa
    # an undecided step's level is its midpoint, bit for bit
    undecided = [0.5 * (s.t_lo + s.t_hi) for s in steps if s.oracle_status == UNDECIDED]
    return BisectionReport(
        t_star=lo,
        power=witness,
        min_rate=min_rate(model, witness),
        steps=steps,
        undecided_count=len(undecided),
        approximate=any(t >= lo for t in undecided),
        initial_upper_bound=upper,
        wall_time_s=read() - start,
        oracle_iters_total=sum(s.oracle_iters for s in steps),
    )
