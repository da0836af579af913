"""Baseline solver: bisection on the epigraph level t with an internal
convex feasibility oracle.

Level-t feasibility of a user is the cone inequality

    sqrt(pi*rho/4) * (gs_u . mu_n)  >=  sqrt(e^t - 1) * sqrt(rho*||A_u mu_n||^2 + 1)

whose residual (RHS - LHS) is convex in mu. The oracle minimizes the largest
residual over the feasible set S by maximizing the concave smoothed minimum
margin with the same monotone-APG machinery used by the main solver, and
certifies infeasibility through a Frank-Wolfe gap bound (the support function
of S has the closed form sum_m ||[d_m]_+||).

Oracle outcomes: "feasible" (witness with max residual <= eps_soc),
"infeasible" (certified min of the max residual exceeds -eps_soc), or
"undecided" (iteration cap). Bisection treats undecided as infeasible, which
can only shrink the reported optimum.
"""

import csv
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import kernels, native
from .rates import PowerControl, RateModel, as_mu_matrix, min_rate
from .solver_apg import ApgConfig, compiled_stage, monotone_apg

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class BisectionConfig:
    tol_t: float = 1e-4          # bisection bracket tolerance, nats
    eps_soc: float = 1e-6        # residual tolerance of the oracle
    t_lower: float = 0.0         # always feasible
    t_upper: Optional[float] = None  # default: zero-interference bound + pad
    oracle_iter_cap: int = 4000  # total budget across smoothing stages
    oracle_delta: float = 1e-5
    oracle_kappa: float = 0.45
    oracle_alpha0: float = 1.0
    gap_check_every: int = 25
    # finest soft-min resolution as a fraction of tol_t, in t units
    smoothing_quality: float = 0.25
    # coarsest resolution (t units) the oracle's inner continuation starts at
    smoothing_coarse_t: float = 0.02
    smoothing_step: float = 5.0

    def __post_init__(self):
        if self.tol_t <= 0:
            raise ValueError("tol_t must be positive")
        if self.t_upper is not None and self.t_upper <= self.t_lower:
            raise ValueError("t_upper must exceed t_lower")
        if self.gap_check_every < 1:
            raise ValueError("gap_check_every must be >= 1")


@dataclass(frozen=True)
class SocSystem:
    """Per-user cone data bound to a rate model (normalized noise term 1)."""

    model: RateModel


def build_soc_system(model: RateModel) -> SocSystem:
    return SocSystem(model=model)


def soc_residual(system: SocSystem, mu, t: float) -> np.ndarray:
    """Per-user residual RHS - LHS; the constraint holds iff residual <= 0."""
    model = system.model
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
    sigma_f: float = 0.0
    last_iterate: Optional[np.ndarray] = None  # useful warm start either way


def _support_gap(grad: np.ndarray, x: np.ndarray) -> float:
    """Frank-Wolfe gap max_{u in S} <grad, u - x>; the support function of S
    decomposes per AP into the norm of the clipped column."""
    pos = np.maximum(grad, 0.0)
    support = np.sqrt(np.einsum("nm,nm->m", pos, pos)).sum()
    return float(support - np.einsum("nm,nm->", grad, x))


def feasibility_oracle(
    system: SocSystem,
    t: float,
    eps_soc: float = 1e-6,
    warm=None,
    cfg: Optional[BisectionConfig] = None,
) -> OracleResult:
    """Find mu in S with all residuals <= eps_soc, or certify none is close.

    `warm` may be a single start point or a sequence of them; the equal power
    allocation point is always added as a fallback candidate. The smoothed
    min-margin maximization runs an inner sharpness continuation (coarse to
    fine sigma_f, warm-started), checking the true residuals every iterate
    and the infeasibility certificate periodically. Each stage runs on the
    same engine as apg_solve: compiled when it loads, numpy otherwise.
    """
    cfg = cfg or BisectionConfig(eps_soc=eps_soc)
    model = system.model
    impl = kernels.IMPL
    lib = native.load_library()
    gs, asq, ptr, rho = model.gamma_sqrt, model.a_sq, model.group_ptr, model.rho_bar

    if warm is None:
        warm = []
    elif isinstance(warm, (list, tuple)):
        warm = list(warm)
    else:
        warm = [warm]
    candidates = [as_mu_matrix(w, model) for w in warm]
    candidates.append(PowerControl.epa(model.num_aps, model.num_groups).by_group.copy())

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
    if best_res <= eps_soc:
        return OracleResult(FEASIBLE, best, 0, best_res, sigma_f=0.0, last_iterate=best)

    # residual-to-t sensitivity at the warm point:
    # d(residual)/dt = exp(t)/(2*sqrt(e^t-1)) * sqrt(rho*||A mu||^2 + 1)
    et1 = math.expm1(t)
    dvals = np.empty(model.num_users)
    for n in range(model.num_groups):
        lo, hi = ptr[n], ptr[n + 1]
        q = asq[lo:hi] @ (best[n] * best[n])
        dvals[lo:hi] = np.sqrt(rho * q + 1.0)
    sens = math.exp(t) / (2.0 * math.sqrt(et1)) * float(np.median(dvals))
    log_t = math.log(max(model.num_users, 2))

    # sharpness schedule: resolve margins from a coarse t-resolution down to
    # a fraction of the bisection tolerance
    res_fine = max(cfg.smoothing_quality * cfg.tol_t, 1e-12)
    res_coarse = max(cfg.smoothing_coarse_t, res_fine)
    resolutions = [res_coarse]
    while resolutions[-1] > res_fine * (1.0 + 1e-9):
        resolutions.append(max(resolutions[-1] / cfg.smoothing_step, res_fine))

    def project(mat):
        return impl.project_ball_orthant(mat)

    state = {"status": None, "bound": None}
    x = best
    iters_used = 0
    sigma_f = 0.0
    max_res = best_res
    for res_t in resolutions:
        sigma_f = float(np.clip(log_t / max(res_t * sens, 1e-300), 1e-3, 1e12))

        def value(mat, _sf=sigma_f):
            return impl.margin_value(gs, asq, ptr, mat, rho, t, _sf)

        def value_grad(mat, _sf=sigma_f):
            return impl.margin_value_grad(gs, asq, ptr, mat, rho, t, _sf)

        def monitor(xx, f, aux, it, _vg=value_grad):
            # aux carries the exact max residual at the iterate
            if aux <= eps_soc:
                state["status"] = FEASIBLE
                return FEASIBLE
            if it % cfg.gap_check_every == 0:
                fs, _, grad = _vg(xx)
                gap = _support_gap(grad, xx)
                lower = -(fs + gap)  # certified lower bound on min-max residual
                state["bound"] = lower
                if lower > -eps_soc:
                    state["status"] = INFEASIBLE
                    return INFEASIBLE
            return None

        budget = cfg.oracle_iter_cap - iters_used
        if budget <= 0:
            break
        apg_cfg = ApgConfig(
            delta=cfg.oracle_delta,
            kappa=cfg.oracle_kappa,
            alpha_y0=cfg.oracle_alpha0,
            alpha_mu0=cfg.oracle_alpha0,
            max_iters=budget,
            stop_tol=0.02 * res_t * sens,  # plateau at this stage's resolution
            stop_window=20,
        )
        if lib is None:
            result = monotone_apg(value_grad, value, project, x, apg_cfg, monitor=monitor)
        else:
            result = compiled_stage(lib, native.MARGIN, model, x, apg_cfg, sigma_f, t=t,
                                    eps_soc=eps_soc, gap_check_every=cfg.gap_check_every)
            if result.termination in (FEASIBLE, INFEASIBLE):
                state["status"] = result.termination
                state["bound"] = result.certified_bound
        iters_used += result.iterations
        x = result.x
        max_res = result.aux
        if state["status"] is not None:
            break

    if state["status"] == FEASIBLE:
        return OracleResult(FEASIBLE, x, iters_used, max_res, sigma_f=sigma_f, last_iterate=x)
    if state["status"] == INFEASIBLE:
        return OracleResult(INFEASIBLE, None, iters_used, max_res,
                            certified_lower_bound=state["bound"], sigma_f=sigma_f,
                            last_iterate=x)
    # budget exhausted or plateaued everywhere: one last certificate attempt
    fs, _, grad = impl.margin_value_grad(gs, asq, ptr, x, rho, t, sigma_f)
    gap = _support_gap(grad, x)
    lower = -(fs + gap)
    status = INFEASIBLE if lower > -eps_soc else UNDECIDED
    return OracleResult(status, None, iters_used, max_res,
                        certified_lower_bound=lower, sigma_f=sigma_f, last_iterate=x)


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
    power: PowerControl
    min_rate: float
    steps: List[BisectionStep]
    undecided_count: int
    approximate: bool
    initial_upper_bound: float
    wall_time_s: float
    oracle_iters_total: int = 0

    def write_steps_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "t_lo", "t_hi", "oracle_iters", "oracle_status"])
            for s in self.steps:
                writer.writerow([s.step, repr(s.t_lo), repr(s.t_hi), s.oracle_iters, s.oracle_status])


def bisection_solve(
    system: SocSystem,
    cfg: Optional[BisectionConfig] = None,
    clock: Optional[Callable[[], float]] = None,
) -> BisectionReport:
    """Bisection over t; the lower end of the bracket is always witnessed."""
    cfg = cfg or BisectionConfig()
    clock = clock or time.perf_counter
    start = clock()
    model = system.model

    upper = rate_upper_bound(model)
    lo = cfg.t_lower
    hi = cfg.t_upper if cfg.t_upper is not None else upper + max(cfg.tol_t, 1e-6)
    witness = PowerControl.epa(model.num_aps, model.num_groups).by_group.copy()
    if lo > 0.0:
        res0 = feasibility_oracle(system, lo, cfg.eps_soc, warm=witness, cfg=cfg)
        if res0.status != FEASIBLE:
            raise ValueError(f"t_lower={lo} is not witnessed feasible")
        witness = res0.mu

    steps: List[BisectionStep] = []
    undecided_ts: List[float] = []
    total_iters = 0
    step_idx = 0
    extra_warm = None
    while hi - lo > cfg.tol_t:
        mid = 0.5 * (lo + hi)
        warm = [witness] if extra_warm is None else [witness, extra_warm]
        res = feasibility_oracle(system, mid, cfg.eps_soc, warm=warm, cfg=cfg)
        total_iters += res.iterations
        steps.append(BisectionStep(step_idx, lo, hi, res.iterations, res.status))
        step_idx += 1
        extra_warm = res.last_iterate
        if res.status == FEASIBLE:
            lo = mid
            witness = res.mu
        else:
            hi = mid
            if res.status == UNDECIDED:
                undecided_ts.append(mid)

    power = PowerControl.from_matrix(witness)
    return BisectionReport(
        t_star=lo,
        power=power,
        min_rate=min_rate(model, power),
        steps=steps,
        undecided_count=len(undecided_ts),
        approximate=any(t >= lo for t in undecided_ts),
        initial_upper_bound=upper,
        wall_time_s=clock() - start,
        oracle_iters_total=total_iters,
    )
