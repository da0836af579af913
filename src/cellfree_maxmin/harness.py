"""Seeded experiment runners and their CSV outputs.

Experiments: convergence (one instance, both solvers, iteration traces),
cdf (per-user rate distribution of optimized power control vs equal power
allocation over many trials), scaling (wall-time table over a grid of AP
counts), verify-rate (Monte-Carlo check of the closed-form rate), and
single-solve (the convergence run, plus the instance and its solution's
per-user rates).

Every experiment runs the solvers at their defaults: the APG continuation
over solver_apg.SIGMA_SCHEDULE and bisection_solve(model). ExperimentConfig
holds the scenario (sizes, physical parameters, seed, counts) and the output
directory; its JSON form (from_json_dict, the CLI's --config) rejects a key
that names no field, giving its dotted path.

Every run writes resolved_config.json plus experiment CSVs into the output
directory. All numerical content is a pure function of (config, master
seed); wall-clock fields are the only nondeterministic bytes.

Independent work runs on min(CPUs, tasks) threads through pool.ordered_map:
the cdf trials, and the two solvers of convergence and single-solve. Results
come back in task order, so outputs do not depend on the thread count. An
injected clock may therefore be called from two threads at once. scaling
runs its solves one after the other, because it compares their run times.
"""

import json
import numbers
import os
import statistics
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import pool
from .netgen import (
    Dimensions,
    PhysicalConfig,
    STREAM_SOLVER_INIT,
    STREAM_TRIALS,
    check_pilot_length,
    generate_instance,
    integer,
    instance_to_json,
    stream_rng,
)
from .rates import (
    LN2,
    build_rate_model,
    epa_rates,
    rate_oracle_monte_carlo,
    rates_vector,
    user_columns,
)
from .solver_apg import (
    SIGMA_SCHEDULE, ApgConfig, SolveReport, apg_solve, apg_solve_continuation, project_feasible,
)
from .solver_bisection import bisection_solve
from .tables import write_csv

EXPERIMENT_KINDS = ("convergence", "cdf", "scaling", "single-solve", "verify-rate")
# timed solves per solver and AP count in the scaling experiment
SCALING_REPEATS = 3
# APG iterations of the scaling experiment's fixed-iteration timing
SCALING_FIXED_ITERS = 150


def trial_seed(master_seed: int, trial: int) -> int:
    """Counter-split per-trial seed so trial i reproduces in isolation."""
    ss = np.random.SeedSequence([int(master_seed), STREAM_TRIALS, int(trial)])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    num_aps: int
    group_sizes: Tuple[int, ...]
    physical: PhysicalConfig = field(default_factory=PhysicalConfig)
    trials: int = 200
    master_seed: int = 1
    out_dir: str = "out"
    scaling_m_grid: Tuple[int, ...] = (100, 150, 200)
    mc_draws: int = 200_000

    def __post_init__(self):
        """Fails before a run writes anything, naming the field."""
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        counts = ("num_aps", "trials", "master_seed", "mc_draws")
        for name in counts:
            # a string would reach the comparisons below as an unnamed TypeError
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("trials", "mc_draws"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.master_seed >= 0:
            raise ValueError("master_seed must be >= 0")
        for name in counts:
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        for name in ("group_sizes", "scaling_m_grid"):
            value = getattr(self, name)
            # a string would be read one character per entry
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise ValueError(f"{name} must be a list of integers, got {value!r}")
            object.__setattr__(self, name, tuple(integer(f"{name} entry", k) for k in value))
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.physical, PhysicalConfig):
            raise ValueError(f"physical must be an object of physical parameters, "
                             f"got {self.physical!r}")
        check_pilot_length(self.dims, self.physical)  # self.dims runs Dimensions' checks
        if not self.scaling_m_grid:
            raise ValueError("scaling_m_grid must be non-empty")
        for m in self.scaling_m_grid:
            try:
                self.dims_at(m)
            except ValueError as exc:
                raise ValueError(f"scaling_m_grid entry {m}: {exc}") from None

    def dims_at(self, num_aps: int) -> Dimensions:
        """The config's groups with `num_aps` APs."""
        return Dimensions(num_aps, len(self.group_sizes), self.group_sizes)

    @property
    def dims(self) -> Dimensions:
        return self.dims_at(self.num_aps)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(doc: dict) -> "ExperimentConfig":
        """Inverse of to_json_dict; a key that names no field raises a
        ValueError naming its dotted path (e.g. physical.shadow_db)."""
        doc = _known_fields(ExperimentConfig, doc, "")
        if isinstance(doc.get("physical"), dict):
            doc["physical"] = PhysicalConfig(**_known_fields(PhysicalConfig, doc["physical"],
                                                             "physical."))
        return ExperimentConfig(**doc)


def _known_fields(cls, doc: dict, prefix: str) -> dict:
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError("unknown config key " + ", ".join(prefix + k for k in unknown))
    return dict(doc)


def default_config(kind: str) -> ExperimentConfig:
    """Per-experiment defaults following the simulation scenarios."""
    if kind == "convergence":
        return ExperimentConfig(kind=kind, num_aps=100, group_sizes=(10,) * 4)
    if kind == "cdf":
        return ExperimentConfig(kind=kind, num_aps=50, group_sizes=(10, 10), trials=200)
    if kind == "scaling":
        return ExperimentConfig(kind=kind, num_aps=100, group_sizes=(15, 15))
    if kind == "verify-rate":
        return ExperimentConfig(kind=kind, num_aps=8, group_sizes=(3, 3), trials=10)
    if kind == "single-solve":
        return ExperimentConfig(kind=kind, num_aps=30, group_sizes=(4, 4))
    raise ValueError(f"unknown experiment kind {kind!r}")


def write_resolved_config(cfg: ExperimentConfig) -> str:
    """Creates the run directory and writes resolved_config.json into it;
    returns the directory."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "resolved_config.json"), "w") as fh:
        json.dump(cfg.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return cfg.out_dir


def _write_stage_traces(reports: List[SolveReport], out: str):
    reports[0].write_trace_csv(os.path.join(out, "trace_apg.csv"))
    for idx, rep in enumerate(reports[1:], start=2):
        rep.write_trace_csv(os.path.join(out, f"trace_apg_stage{idx}.csv"))


def _apg_part(model, out: str, clock) -> tuple:
    """The APG continuation and its trace_apg*.csv: (summary entries, power)."""
    reports = apg_solve_continuation(model, SIGMA_SCHEDULE, clock=clock)
    _write_stage_traces(reports, out)
    final = reports[-1]
    return dict(
        apg_min_rate_nats=final.f_true,
        apg_f_sigma_nats=final.f_sigma,
        apg_iterations=sum(r.iterations for r in reports),
        apg_evaluations=sum(r.evaluations for r in reports),
        apg_wall_s=sum(r.wall_time_s for r in reports),
        apg_termination=final.termination,
    ), final.power


def _bisection_part(model, out: str, clock) -> tuple:
    """The bisection solve and its trace_bisection.csv: (summary entries,
    power)."""
    bis = bisection_solve(model, clock=clock)
    bis.write_steps_csv(os.path.join(out, "trace_bisection.csv"))
    return dict(
        bisection_t_star_nats=bis.t_star,
        bisection_min_rate_nats=bis.min_rate,
        bisection_oracle_iters=bis.oracle_iters_total,
        bisection_wall_s=bis.wall_time_s,
        bisection_undecided=bis.undecided_count,
        bisection_approximate=bis.approximate,
    ), bis.power


def _convergence(cfg: ExperimentConfig, clock: Optional[Callable]) -> tuple:
    """One seeded instance, both solvers, their traces and summary.csv.
    Returns (instance, rate model, summary, APG's solution power).

    The two solvers run through pool.ordered_map, each writing its own
    traces; summary.csv is written once both have returned. When they run
    at once, apg_wall_s, bisection_wall_s and the APG traces' elapsed_s
    column are wall times under contention for the CPUs. The run-time comparison is the
    scaling experiment's, which runs the solvers one after the other."""
    out = write_resolved_config(cfg)
    instance = generate_instance(cfg.dims, cfg.physical, cfg.master_seed)
    model = build_rate_model(instance)

    parts = (_apg_part, _bisection_part)
    results = list(pool.ordered_map(lambda i: parts[i](model, out, clock), len(parts)))
    summary = {key: value for entries, _ in results for key, value in entries.items()}
    gap = abs(summary["apg_min_rate_nats"] - summary["bisection_t_star_nats"])
    summary["abs_gap_nats"] = gap
    summary["agree_1e3"] = bool(gap <= 1e-3)

    _write_summary(out, summary)
    return instance, model, summary, results[0][1]


def run_convergence(cfg: ExperimentConfig, clock: Optional[Callable] = None) -> dict:
    """One seeded instance, both solvers, their traces and a summary with
    the solvers' agreement."""
    return _convergence(cfg, clock)[2]


def _write_summary(out: str, summary: dict):
    write_csv(os.path.join(out, "summary.csv"), ["key", "value"],
              [list(summary), list(summary.values())])


def _cdf_trial(cfg: ExperimentConfig, trial: int) -> tuple:
    """Per-user rates (APG, EPA) of one cdf trial on its own fresh instance."""
    instance = generate_instance(cfg.dims, cfg.physical, trial_seed(cfg.master_seed, trial))
    model = build_rate_model(instance)
    reports = apg_solve_continuation(model, SIGMA_SCHEDULE)
    return rates_vector(model, reports[-1].power).rates, epa_rates(model).rates


def run_cdf(cfg: ExperimentConfig, clock: Optional[Callable] = None) -> dict:
    """Per-trial: fresh instance, APG solve; pooled per-user rates for the
    optimized and equal power allocations, returned sorted under "apg" and
    "epa" and written with their empirical CDF to cdf_{apg,epa}.csv.

    Trials run through pool.ordered_map and come back in trial order, so
    every output is bit-identical for any thread count. The APG stages read
    their own clock; cdf outputs carry no timing."""
    out = write_resolved_config(cfg)

    results = list(pool.ordered_map(lambda trial: _cdf_trial(cfg, trial), cfg.trials))

    # (trials, users) rates of each allocation
    apg = np.array([r[0] for r in results])
    epa = np.array([r[1] for r in results])
    trial = np.arange(cfg.trials)
    user_cols = [np.repeat(trial, apg.shape[1]), *user_columns(cfg.group_sizes, cfg.trials)]
    header = ["trial", "group", "user", "rate_nats", "rate_bits"]
    pooled = {}
    for name, rates in (("apg", apg), ("epa", epa)):
        nats = rates.ravel()
        ranked = pooled[name] = np.sort(nats)
        write_csv(os.path.join(out, f"cdf_{name}.csv"), ["rate_nats", "rate_bits", "cdf"],
                  [ranked, ranked / LN2, np.arange(1, ranked.size + 1) / ranked.size])
        write_csv(os.path.join(out, f"users_{name}.csv"), header, [*user_cols, nats, nats / LN2])
    apg_min, epa_min = apg.min(axis=1), epa.min(axis=1)
    trial_cols = [trial, apg_min, epa_min, apg_min >= epa_min - 1e-6,
                  apg.mean(axis=1), epa.mean(axis=1)]
    write_csv(
        os.path.join(out, "trial_minrates.csv"),
        ["trial", "apg_min_nats", "epa_min_nats", "apg_ge_epa",
         "apg_mean_nats", "epa_mean_nats"],
        trial_cols,
    )
    return {
        **pooled,
        "dominance_fraction": float(np.mean(trial_cols[3])),
        "mean_min_apg": float(np.mean(apg_min)),
        "mean_min_epa": float(np.mean(epa_min)),
        "trial_rows": list(zip(*(col.tolist() for col in trial_cols))),
    }


def apg_fixed_iteration_time(model, sigma: float, iters: int,
                             clock: Optional[Callable] = None) -> float:
    """Wall time of exactly `iters` APG iterations at `sigma` (a plateau
    tolerance of 0 never stops the stage), on `clock` or, without one, on the
    stage's C clock; used for complexity-scaling checks."""
    return apg_solve(model, ApgConfig(max_iters=iters, stop_tol=0.0), sigma=sigma,
                     clock=clock).wall_time_s


def run_scaling(cfg: ExperimentConfig, clock: Optional[Callable] = None) -> dict:
    """Wall-time table over the AP grid. Each solver's wall time is the
    median of SCALING_REPEATS solves."""
    out = write_resolved_config(cfg)

    rows = []
    result = {"m_grid": list(cfg.scaling_m_grid), "apg_wall_s": [], "bisection_wall_s": [],
              "apg_fixed_iter_wall_s": [], "apg_faster": []}
    for m in cfg.scaling_m_grid:
        instance = generate_instance(cfg.dims_at(m), cfg.physical, cfg.master_seed)
        model = build_rate_model(instance)
        # solves alternate so that a burst of host load hits both solvers;
        # they are deterministic, so the last ones give the other columns
        apg_walls, bis_walls = [], []
        for _ in range(SCALING_REPEATS):
            reports = apg_solve_continuation(model, SIGMA_SCHEDULE, clock=clock)
            apg_walls.append(sum(r.wall_time_s for r in reports))
            bis = bisection_solve(model, clock=clock)
            bis_walls.append(bis.wall_time_s)
        apg_wall = statistics.median(apg_walls)
        bis_wall = statistics.median(bis_walls)
        apg_iters = sum(r.iterations for r in reports)
        fixed_wall = apg_fixed_iteration_time(model, SIGMA_SCHEDULE[0], SCALING_FIXED_ITERS,
                                              clock=clock)
        rows.append(
            (m, apg_wall, apg_iters, reports[-1].f_true, fixed_wall,
             bis_wall, bis.oracle_iters_total, bis.t_star, bool(apg_wall < bis_wall))
        )
        result["apg_wall_s"].append(apg_wall)
        result["bisection_wall_s"].append(bis_wall)
        result["apg_fixed_iter_wall_s"].append(fixed_wall)
        result["apg_faster"].append(bool(apg_wall < bis_wall))
    write_csv(
        os.path.join(out, "scaling.csv"),
        ["m_aps", "apg_wall_s", "apg_iterations", "apg_objective_nats",
         "apg_fixed_iter_wall_s", "bisection_wall_s", "bisection_oracle_iters",
         "bisection_t_star_nats", "apg_faster"],
        list(zip(*rows)),
    )
    return result


def random_feasible_power(dims: Dimensions, seed: int) -> np.ndarray:
    """Random feasible power control mu (N, M): a random positive point
    projected onto S."""
    rng = stream_rng(seed, STREAM_SOLVER_INIT)
    raw = rng.uniform(0.1, 1.0, size=(dims.num_groups, dims.num_aps))
    return project_feasible(raw)


def run_verify_rate(cfg: ExperimentConfig, clock: Optional[Callable] = None) -> dict:
    """Monte-Carlo verification of the closed-form rate on seeded instances,
    each at a random feasible power control (random_feasible_power)."""
    out = write_resolved_config(cfg)
    dims = cfg.dims
    per_trial = []  # (seed, closed, mc rate, std error, n std err, low conf)
    for trial in range(cfg.trials):
        seed = trial_seed(cfg.master_seed, trial)
        instance = generate_instance(dims, cfg.physical, seed)
        model = build_rate_model(instance)
        mu = random_feasible_power(dims, seed)
        closed = rates_vector(model, mu).rates
        mc = rate_oracle_monte_carlo(instance, mu, cfg.mc_draws, seed)
        low_conf = mc.std_error > 0.05 * np.maximum(np.abs(mc.rate_nats), 1e-12)
        per_trial.append((seed, closed, mc.rate_nats, mc.std_error, mc.n_std_errs(closed),
                          low_conf))
    T = dims.num_users
    seeds, closed, mc_rate, std_error, nse, low_conf = zip(*per_trial)
    nse, low_conf = np.concatenate(nse), np.concatenate(low_conf)
    ok = nse <= 3.0
    write_csv(
        os.path.join(out, "verify_rate.csv"),
        ["trial", "instance_seed", "group", "user", "closed_form_nats",
         "mc_rate_nats", "std_error", "n_std_err", "within_3se",
         "low_confidence"],
        [np.repeat(np.arange(cfg.trials), T), np.repeat(seeds, T),
         *user_columns(dims.group_sizes, cfg.trials), np.concatenate(closed),
         np.concatenate(mc_rate), np.concatenate(std_error), nse, ok, low_conf],
    )
    return {"all_pass": bool((ok | low_conf).all()), "low_confidence": bool(low_conf.any()),
            "rows": cfg.trials * T}


def run_single_solve(cfg: ExperimentConfig, clock: Optional[Callable] = None) -> dict:
    """The convergence run, plus the instance itself and the per-user rates
    at its solution."""
    instance, model, summary, power = _convergence(cfg, clock)
    with open(os.path.join(cfg.out_dir, "instance.json"), "w") as fh:
        fh.write(instance_to_json(instance))
    rates_vector(model, power).write_csv(os.path.join(cfg.out_dir, "solution_rates.csv"))
    return summary


RUNNERS = {
    "convergence": run_convergence,
    "cdf": run_cdf,
    "scaling": run_scaling,
    "verify-rate": run_verify_rate,
    "single-solve": run_single_solve,
}


def run_experiment(cfg: ExperimentConfig, clock: Optional[Callable] = None):
    return RUNNERS[cfg.kind](cfg, clock=clock)
