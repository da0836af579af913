"""Baseline solver: bisection on the epigraph level t with an internal
convex feasibility oracle.

Level-t feasibility of a user is the cone inequality

    sqrt(pi*rho/4) * (gs_u . mu_n)  >=  sqrt(e^t - 1) * sqrt(rho*||A_u mu_n||^2 + 1)

whose residual (RHS - LHS) is convex in mu. The oracle minimizes the largest
residual over the feasible set S by maximizing the concave smoothed minimum
margin with the same compiled monotone-APG stage as the main solver
(solver_apg.compiled_stage, kind native.MARGIN), and certifies infeasibility
through a Frank-Wolfe gap bound (the support function of S has the closed
form sum_m ||[d_m]_+||): inside the stage every GAP_CHECK_EVERY iterations,
and once more here when the stages end undecided. The stages run the APG
step policy of solver_apg; only their iteration budget and plateau tolerance
are set here.

Oracle outcomes: "feasible" (witness with max residual <= EPS_SOC),
"infeasible" (certified min of the max residual exceeds -EPS_SOC), or
"undecided" (iteration cap). Bisection treats undecided as infeasible, which
can only shrink the reported optimum. BisectionConfig has two knobs: the
bracket tolerance tol_t and the oracle's total iteration budget
oracle_iter_cap. The bracket always starts at
[0, zero-interference bound + pad]; a result below the equal power
allocation's min-rate, which the EPA point witnesses, is raised to it.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import kernels, native
from .rates import RateModel, as_mu_matrix, epa_power, min_rate
from .solver_apg import ApgConfig, compiled_stage
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
        if not 0 < self.tol_t < math.inf:
            raise ValueError("tol_t must be positive and finite")
        if not self.oracle_iter_cap >= 1:
            raise ValueError("oracle_iter_cap must be >= 1")


def build_soc_system(model: RateModel) -> RateModel:
    """`model` itself: the solvers here take the rate model. Kept only
    because perfbench/test_perfbench.py imports it; it goes with ROADMAP
    item 2."""
    return model


def soc_residual(model: RateModel, mu, t: float) -> np.ndarray:
    """Per-user residual RHS - LHS; the constraint holds iff residual <= 0."""
    mat = as_mu_matrix(mu, model)
    return kernels.IMPL.soc_residuals(
        model.gamma_sqrt, model.a_sq, model.group_ptr, mat, model.rho_bar, t
    )


def rate_upper_bound(model: RateModel) -> float:
    """Zero-interference full-power bound: every user rate is at most
    ln(1 + (pi*rho/4) * (sum_m sqrt(gamma))^2)."""
    s = model.gamma_sqrt.sum(axis=1)
    return float(np.log1p(0.25 * math.pi * model.rho_bar * s * s).max())


@dataclass
class OracleResult:
    status: str
    mu: Optional[np.ndarray]       # witness matrix (N, M) when feasible
    iterations: int
    max_residual: float
    certified_lower_bound: Optional[float] = None
    last_iterate: Optional[np.ndarray] = None  # useful warm start either way


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
    allocation point always follows them as a fallback, and the candidate of least max
    residual starts the search. The smoothed min-margin maximization runs an
    inner sharpness continuation (coarse to fine sigma_f, warm-started),
    checking the true residuals every iterate and the infeasibility
    certificate periodically. Each stage is one compiled_stage call, as in
    apg_solve.
    """
    cfg = cfg or BisectionConfig()
    impl = kernels.IMPL
    lib = native.load_library()
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar

    candidates = [as_mu_matrix(w, model) for w in warm]
    candidates.append(epa_power(model.num_aps, model.num_groups))

    best = None
    best_res = math.inf
    for cand in candidates:
        cand = np.ascontiguousarray(cand)
        r = float(impl.soc_residuals(gs, asq, ptr, cand, rho, t).max())
        if r < best_res:
            best, best_res = cand, r
    if best is None:
        # no candidate has a residual below inf (NaN or inf data): name the inputs
        inputs = {"gamma_sqrt": gs, "a_sq": asq, "rho_bar": rho, "t": t,
                  "warm start": candidates}
        bad = [name for name, val in inputs.items() if not np.isfinite(val).all()]
        raise ValueError(f"non-finite oracle data ({', '.join(bad) or 'residuals'}) at level t={t}")
    if best_res <= EPS_SOC:
        return OracleResult(FEASIBLE, best, 0, best_res, last_iterate=best)

    # residual-to-t sensitivity at the warm point:
    # d(residual)/dt = exp(t)/(2*sqrt(e^t-1)) * sqrt(rho*||A mu||^2 + 1)
    et1 = math.expm1(t)
    dvals = np.sqrt(kernels._user_pc(gs, asq, ptr, best, rho)[1])
    sens = math.exp(t) / (2.0 * math.sqrt(et1)) * float(np.median(dvals))
    log_t = math.log(max(model.num_users, 2))

    # sharpness schedule: resolve margins from a coarse t-resolution down to
    # a fraction of the bisection tolerance
    res_fine = max(SMOOTHING_QUALITY * cfg.tol_t, 1e-12)
    res_coarse = max(SMOOTHING_COARSE_T, res_fine)
    resolutions = [res_coarse]
    while resolutions[-1] > res_fine * (1.0 + 1e-9):
        resolutions.append(max(resolutions[-1] / SMOOTHING_STEP, res_fine))

    x = best
    iters_used = 0
    sigma_f = 0.0
    max_res = best_res
    for res_t in resolutions:
        sigma_f = float(np.clip(log_t / max(res_t * sens, 1e-300), 1e-3, 1e12))
        budget = cfg.oracle_iter_cap - iters_used
        if budget <= 0:
            break
        # plateau at this stage's resolution
        apg_cfg = ApgConfig(max_iters=budget, stop_tol=0.02 * res_t * sens)
        result = compiled_stage(lib, native.MARGIN, model, x, apg_cfg, sigma_f, t=t,
                                eps_soc=EPS_SOC, gap_check_every=GAP_CHECK_EVERY)
        iters_used += result.iterations
        x = result.x
        max_res = result.aux
        if result.termination == FEASIBLE:
            return OracleResult(FEASIBLE, x, iters_used, max_res, last_iterate=x)
        if result.termination == INFEASIBLE:
            return OracleResult(INFEASIBLE, None, iters_used, max_res,
                                certified_lower_bound=result.certified_bound, last_iterate=x)

    # budget exhausted or plateaued everywhere: one last certificate attempt
    fs, _, grad = impl.margin_value_grad(gs, asq, ptr, x, rho, t, sigma_f)
    gap = _support_gap(grad, x)
    lower = -(fs + gap)
    status = INFEASIBLE if lower > -EPS_SOC else UNDECIDED
    return OracleResult(status, None, iters_used, max_res,
                        certified_lower_bound=lower, last_iterate=x)


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
        warm = [witness] if extra_warm is None else [witness, extra_warm]
        res = feasibility_oracle(model, mid, warm=warm, cfg=cfg)
        steps.append(BisectionStep(len(steps), lo, hi, res.iterations, res.status))
        extra_warm = res.last_iterate
        if res.status == FEASIBLE:
            lo = mid
            witness = res.mu
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
