"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py
-v -s` to see them) and asserts the criterion at its stated tolerance:

  1  Monte-Carlo verification of the closed-form rate (3 standard errors)
  2  APG and bisection reach the same objective (1e-3 nat)
  3  Bisection never falls below the equal-power witness (1e-6)
  4  Optimized power control beats equal power allocation (>= 95% of trials)
  5  The smoothed objective trace never decreases
  6  Analytic gradient matches central finite differences (rel 1e-5)
  7  Projection satisfies the KKT conditions (1e-8), idempotent, nonexpansive
  8  Soft-min sandwich bound at sigma = 100
  9  Wall-time scaling: fixed-iteration ratio of the time per objective
     evaluation in [1.3, 3.5]; APG faster than bisection at every grid size
 10  Byte-identical outputs when an experiment is repeated
"""

import json
import math
import os
import statistics

import numpy as np
import pytest

from cellfree_maxmin import (
    ApgConfig,
    Dimensions,
    PhysicalConfig,
    apg_solve,
    apg_solve_continuation,
    bisection_solve,
    build_rate_model,
    epa_rates,
    generate_instance,
    min_rate,
    project_feasible,
    rate_oracle_monte_carlo,
    rates_vector,
    smooth_gradient,
    smooth_objective,
)
from cellfree_maxmin.harness import (
    ExperimentConfig,
    apg_fixed_iteration_time,
    default_config,
    random_feasible_eta,
    run_cdf,
    run_experiment,
    run_scaling,
)
from cellfree_maxmin.solver_apg import SIGMA_SCHEDULE


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    return ok


@pytest.fixture(scope="session")
def agreement_runs():
    """Shared solves for the agreement criteria: 20 small instances plus the
    large four-group scenario."""
    runs = []
    cases = [(30, 2, 4, seed) for seed in range(20)] + [(100, 4, 10, 1)]
    for m, n, k, seed in cases:
        dims = Dimensions.uniform(m, n, k)
        model = build_rate_model(generate_instance(dims, PhysicalConfig(), seed=seed))
        reports = apg_solve_continuation(model, SIGMA_SCHEDULE)
        bis = bisection_solve(model)
        runs.append({
            "label": f"M={m} N={n} K={k} seed={seed}",
            "model": model,
            "apg_reports": reports,
            "apg_min_rate": reports[-1].min_rate,
            "bisection": bis,
            "epa_min": epa_rates(model).min_rate,
        })
    return runs


def test_criterion_01_monte_carlo_rate_verification():
    worst = 0.0
    for seed in range(10):
        dims = Dimensions.uniform(8, 2, 3)
        instance = generate_instance(dims, PhysicalConfig(), seed=seed)
        model = build_rate_model(instance)
        eta = random_feasible_eta(dims, seed)
        mu = np.sqrt(eta.T)
        mc = rate_oracle_monte_carlo(instance, eta, draws=200_000, seed=seed)
        closed = rates_vector(model, mu).rates
        worst = max(worst, float(mc.n_std_errs(closed).max()))
    ok = worst < 3.0
    assert report(1, "monte-carlo rate verification", ok,
                  f"max |closed-form - MC| = {worst:.2f} standard errors over "
                  f"10 instances x 6 users (tolerance 3)")


def test_monte_carlo_rate_verification_at_paper_size():
    """Criterion 1's check on the paper's largest four-group scenario
    (M=100, 4x10, seed 1), at 8 blocks of draws: every user within 3
    standard errors."""
    dims = Dimensions.uniform(100, 4, 10)
    instance = generate_instance(dims, PhysicalConfig(), seed=1)
    eta = random_feasible_eta(dims, 1)
    mu = np.sqrt(eta.T)
    mc = rate_oracle_monte_carlo(instance, eta, draws=32_768, seed=1)
    worst = float(mc.n_std_errs(rates_vector(build_rate_model(instance), mu).rates).max())
    assert report(1, "monte-carlo rate verification at M=100, 4x10", worst < 3.0,
                  f"max |closed-form - MC| = {worst:.2f} standard errors over 40 users "
                  f"(tolerance 3)")


def test_criterion_02_solver_agreement(agreement_runs):
    gaps = [abs(r["apg_min_rate"] - r["bisection"].t_star) for r in agreement_runs]
    worst = max(gaps)
    worst_label = agreement_runs[int(np.argmax(gaps))]["label"]
    ok = worst <= 1e-3
    assert report(2, "APG/bisection objective agreement", ok,
                  f"max |min-rate(APG) - t*| = {worst:.2e} nat at {worst_label} "
                  f"over {len(gaps)} instances (tolerance 1e-3)")


def test_criterion_03_bisection_dominates_epa(agreement_runs):
    margins = [r["bisection"].t_star - r["epa_min"] for r in agreement_runs]
    worst = min(margins)
    ok = worst >= -1e-6
    assert report(3, "bisection above the equal-power witness", ok,
                  f"min(t* - min-rate(EPA)) = {worst:+.2e} nat (tolerance -1e-6)")


@pytest.fixture(scope="session")
def cdf_200(tmp_path_factory):
    cfg = ExperimentConfig(
        kind="cdf", num_aps=50, group_sizes=(10, 10), trials=200,
        master_seed=1, out_dir=str(tmp_path_factory.mktemp("cdf")),
    )
    return run_cdf(cfg)


def test_criterion_04_power_control_beats_epa(cdf_200):
    frac = cdf_200["dominance_fraction"]
    uplift = cdf_200["mean_min_apg"] - cdf_200["mean_min_epa"]
    ok = frac >= 0.95 and uplift > 0.0
    assert report(4, "optimized power control beats equal power", ok,
                  f"min-rate(APG) >= min-rate(EPA) - 1e-6 in {100 * frac:.1f}% of 200 "
                  f"trials (need >= 95%), mean min-rate uplift {uplift:+.4f} nat")


def test_criterion_04b_fairness_distribution(cdf_200):
    # supporting fairness properties on the same sample: the optimized
    # allocation dominates equal power at every pooled percentile, and the
    # within-trial worst-to-mean rate ratio improves in nearly every trial
    qs = np.linspace(1, 99, 99)
    dom = bool(np.all(
        np.percentile(cdf_200["apg"], qs)
        >= np.percentile(cdf_200["epa"], qs)
    ))
    rows = cdf_200["trial_rows"]
    fair_apg = np.array([r[1] / r[4] for r in rows])
    fair_epa = np.array([r[2] / r[5] for r in rows])
    improved = float(np.mean(fair_apg >= fair_epa))
    ok = dom and improved >= 0.9
    assert report(4, "fairness distribution (supporting check)", ok,
                  f"pooled percentile dominance: {dom}; within-trial min/mean ratio "
                  f"{fair_apg.mean():.3f} vs {fair_epa.mean():.3f}, improved in "
                  f"{100 * improved:.0f}% of trials (need >= 90%)")


def test_criterion_05_monotone_traces(agreement_runs):
    n_traces = 0
    violations = 0
    for run in agreement_runs:
        for rep in run["apg_reports"]:
            n_traces += 1
            if not np.all(np.diff(rep.trace_f_sigma) >= 0):
                violations += 1
    ok = violations == 0
    assert report(5, "monotone smoothed-objective traces", ok,
                  f"{violations} violations across {n_traces} recorded traces "
                  f"(zero tolerated)")


def test_criterion_06_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    step = 1e-6
    worst = 0.0
    for seed in range(5):
        model = build_rate_model(
            generate_instance(Dimensions.uniform(6, 2, 2), PhysicalConfig(), seed=seed)
        )
        for _ in range(20):
            raw = rng.uniform(0.05, 1.0, size=(model.num_groups, model.num_aps))
            mat = project_feasible(raw) * 0.95 + 0.01
            grad = smooth_gradient(model, mat, 100.0)
            fd = np.empty_like(grad)
            for i in np.ndindex(mat.shape):
                up = mat.copy(); up[i] += step
                dn = mat.copy(); dn[i] -= step
                fd[i] = (
                    smooth_objective(model, up, 100.0)
                    - smooth_objective(model, dn, 100.0)
                ) / (2 * step)
            worst = max(worst, float(np.abs(fd - grad).max() / np.abs(fd).max()))
    ok = worst < 1e-5
    assert report(6, "gradient vs central finite differences", ok,
                  f"max relative error {worst:.2e} over 100 points x 5 instances "
                  f"(tolerance 1e-5)")


def test_criterion_07_projection_kkt():
    from test_solver_apg import projection_kkt_residual

    rng = np.random.default_rng(7)
    worst_kkt = 0.0
    worst_idem = 0
    worst_nonexp = 0.0
    for _ in range(1000):
        x = rng.normal(scale=1.5, size=(3, 4))
        u = project_feasible(x)
        worst_kkt = max(worst_kkt, projection_kkt_residual(x, u))
        again = project_feasible(u)
        worst_idem += 0 if np.array_equal(u, again) else 1
        y = rng.normal(scale=1.5, size=(3, 4))
        py = project_feasible(y)
        worst_nonexp = max(
            worst_nonexp, float(np.linalg.norm(u - py) - np.linalg.norm(x - y))
        )
    ok = worst_kkt <= 1e-8 and worst_idem == 0 and worst_nonexp <= 1e-12
    assert report(7, "projection KKT / idempotence / nonexpansiveness", ok,
                  f"max KKT residual {worst_kkt:.2e} (<=1e-8), "
                  f"{worst_idem} idempotence mismatches (exact), "
                  f"nonexpansiveness slack {worst_nonexp:.2e} (<=1e-12) on 1000 vectors")


def test_criterion_08_smoothing_sandwich():
    model = build_rate_model(
        generate_instance(Dimensions.uniform(12, 2, 4), PhysicalConfig(), seed=8)
    )
    rng = np.random.default_rng(8)
    sigma = 100.0
    bound = math.log(model.num_users) / sigma
    worst_low = math.inf
    worst_high = -math.inf
    for _ in range(1000):
        raw = rng.uniform(0.0, 1.2, size=(model.num_groups, model.num_aps))
        mat = project_feasible(raw)
        f = min_rate(model, mat)
        fs = smooth_objective(model, mat, sigma)
        worst_low = min(worst_low, fs - f)
        worst_high = max(worst_high, fs - f)
    ok = worst_low >= -1e-12 and worst_high <= bound + 1e-12
    assert report(8, "soft-min sandwich bound", ok,
                  f"f_sigma - f in [{worst_low:.2e}, {worst_high:.4e}] over 1000 points; "
                  f"allowed [0, ln(T)/sigma = {bound:.4e}]")


def test_criterion_09_scaling(tmp_path):
    cfg = default_config("scaling")
    cfg = ExperimentConfig.from_json_dict({**cfg.to_json_dict(), "out_dir": str(tmp_path / "scaling")})

    # fixed-iteration complexity ratio of the seconds per objective
    # evaluation, since the step policy spends a different number of
    # evaluations on 300 iterations at each M; median of 11 to suppress
    # scheduler noise
    models = {}
    for m in (100, 200):
        dims = Dimensions.uniform(m, 2, 15)
        models[m] = build_rate_model(generate_instance(dims, cfg.physical, seed=cfg.master_seed))
    # warm-up; also builds or loads the compiled APG stage
    sigma = SIGMA_SCHEDULE[0]
    apg_fixed_iteration_time(models[100], sigma, 30)
    # the evaluations of the timed stages, which are deterministic
    fixed = ApgConfig(max_iters=300, stop_tol=0.0)
    evals = {m: apg_solve(model, fixed, sigma=sigma).evaluations for m, model in models.items()}
    ratios = []
    for _ in range(11):
        t100 = apg_fixed_iteration_time(models[100], sigma, 300)
        t200 = apg_fixed_iteration_time(models[200], sigma, 300)
        ratios.append((t200 / evals[200]) / (t100 / evals[100]))
    ratio = statistics.median(ratios)

    out = run_scaling(cfg)
    faster = out["apg_faster"]
    pairs = ", ".join(
        f"M={m}: {a * 1e3:.0f}ms vs {b * 1e3:.0f}ms"
        for m, a, b in zip(out["m_grid"], out["apg_wall_s"], out["bisection_wall_s"])
    )
    ok = 1.3 <= ratio <= 3.5 and all(faster)
    assert report(9, "wall-time scaling", ok,
                  f"fixed-iteration time per evaluation ratio M=200/M=100 = {ratio:.2f} "
                  f"({evals[100]} and {evals[200]} evaluations) "
                  f"(need [1.3, 3.5]); APG vs bisection: {pairs} "
                  f"(APG faster at every M: {all(faster)})")


def test_criterion_10_determinism(tmp_path):
    fake_clock = lambda: 0.0  # noqa: E731
    configs = {
        "convergence": dict(num_aps=8, group_sizes=(2, 2)),
        "cdf": dict(num_aps=6, group_sizes=(2, 2), trials=2),
        "scaling": dict(num_aps=6, group_sizes=(2, 2), scaling_m_grid=(4, 6)),
        "verify-rate": dict(num_aps=4, group_sizes=(2, 2), trials=2, mc_draws=20_000),
        "single-solve": dict(num_aps=8, group_sizes=(2, 2)),
    }
    mismatches = []
    checked = 0
    for kind, kw in configs.items():
        outputs = {}
        for tag in ("r1", "r2"):
            out_dir = tmp_path / kind / tag
            cfg = ExperimentConfig(kind=kind, master_seed=5, out_dir=str(out_dir), **kw)
            run_experiment(cfg, clock=fake_clock)
            outputs[tag] = out_dir
        for name in sorted(os.listdir(outputs["r1"])):
            checked += 1
            a = (outputs["r1"] / name).read_bytes()
            b = (outputs["r2"] / name).read_bytes()
            if name == "resolved_config.json":
                da = json.loads(a); da.pop("out_dir")
                db = json.loads(b); db.pop("out_dir")
                if da != db:
                    mismatches.append(f"{kind}/{name}")
            elif a != b:
                mismatches.append(f"{kind}/{name}")
    ok = not mismatches
    assert report(10, "repeat-run determinism", ok,
                  f"{checked} output files byte-identical across repeated runs of all "
                  f"5 experiments" + (f"; mismatches: {mismatches}" if mismatches else ""))
