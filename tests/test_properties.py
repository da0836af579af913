"""Soundness properties over random shapes and instances: the projection onto
S (KKT conditions, idempotence, nonexpansiveness), the gradients of both
objectives on the numpy kernels and the compiled evaluation (central finite
differences), the bisection steps certified infeasible (never at or below a
level the APG solve reaches), both solvers and the Monte-Carlo oracle on
edge scenarios, and both solvers against SciPy's SLSQP on small instances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from cellfree_maxmin import (
    BisectionConfig,
    Dimensions,
    NetworkInstance,
    PhysicalConfig,
    apg_solve_continuation,
    bisection_solve,
    build_rate_model,
    epa_power,
    epa_rates,
    feasibility_oracle,
    generate_geometry,
    generate_instance,
    is_feasible,
    kernels,
    large_scale_fading,
    min_rate,
    native,
    noise_power,
    project_feasible,
    rate_oracle_monte_carlo,
    rate_upper_bound,
)
from cellfree_maxmin.netgen import gamma_coefficients
from cellfree_maxmin.solver_bisection import INFEASIBLE
from conftest import random_feasible_matrix
from test_native import compiled_objective

# entries whose squares, and so some columns' squared norms, overflow
LARGE = 1e300


@st.composite
def projection_pairs(draw):
    """Two (N, M) points, N 1-6 and M 1-40, with negative entries, zeros of
    both signs and large values; the second is independent of the first or
    a perturbation of it from 1e-12 to 1 in size."""
    num_groups, num_aps = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    size = num_groups * num_aps
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0),
                        st.floats(-LARGE, LARGE))
    points = [np.array(draw(st.lists(entries, min_size=size, max_size=size)))
              .reshape(num_groups, num_aps) for _ in range(2)]
    x, y = points
    if draw(st.booleans()):
        y = x + y / max(np.abs(y).max(), 1.0) * 10.0 ** draw(st.integers(-12, 0))
    return x, y


def kkt_violation(x, p):
    """Largest violation of the optimality conditions of p = argmin ||p - x||
    over {p >= 0, ||p_m||^2 <= 1} per AP column m, each taken relative to
    max(1, max |x_m|): x - p = lam p - nu with nu >= 0, nu p = 0, lam >= 0
    and lam > 0 only on the sphere. lam is read off p's largest entry. The
    ball may hold ||p_m||^2 up to 1 + BALL_SLACK, where p = x is not
    scaled."""
    worst = 0.0
    for m in range(x.shape[1]):
        xm, pm = x[:, m], p[:, m]
        scale = max(1.0, float(np.abs(xm).max()))
        nsq = float(pm @ pm)
        if (pm < 0).any() or nsq > 1.0 + kernels.BALL_SLACK + 1e-15:
            return math.inf
        pos = pm > 0
        j = int(np.argmax(pm))
        lam = max(0.0, (xm[j] - pm[j]) / pm[j]) if pos.any() else 0.0
        nu = (1.0 + lam) * pm - xm
        worst = max(worst,
                    float(np.abs(nu[pos]).max(initial=0.0)) / scale,  # nu p = 0
                    float((-nu[~pos]).max(initial=0.0)) / scale)      # nu >= 0
        if lam > 1e-12 * scale:
            worst = max(worst, 1.0 - nsq)                            # on the sphere
    return worst


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=projection_pairs())
def test_projection_kkt_idempotent_nonexpansive(pair):
    """kernels.IMPL.project_ball_orthant is the Euclidean projection onto S
    to rounding: KKT residual <= 1e-12 of the column's scale, a projected
    point projects to itself bit for bit, and ||P(x) - P(y)|| <= ||x - y||
    up to the relative rounding of the distance and the 1e-12 of BALL_SLACK."""
    project = kernels.IMPL.project_ball_orthant
    x, y = pair
    with np.errstate(over="ignore"):  # squared norms may overflow
        px, py = project(np.ascontiguousarray(x)), project(np.ascontiguousarray(y))
        distance = np.linalg.norm(x - y)
    assert kkt_violation(x, px) <= 1e-12
    assert kkt_violation(y, py) <= 1e-12
    assert project(px).tobytes() == px.tobytes()
    assert np.linalg.norm(px - py) <= distance * (1.0 + 1e-14) + 1e-12


@st.composite
def gradient_cases(draw):
    """(rate model, point of S, sigma, level): M 1-12, 1-4 groups of 1-6
    users, sigma log-uniform on [10, 3000], level t uniform on
    [0, 1.2 x the zero-interference bound]."""
    num_aps = draw(st.integers(1, 12))
    group_sizes = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    seed = draw(st.integers(0, 2**32 - 1))
    dims = Dimensions(num_aps, len(group_sizes), group_sizes)
    model = build_rate_model(generate_instance(dims, PhysicalConfig(), seed))
    mat = random_feasible_matrix(model, np.random.default_rng(seed))
    sigma = 10.0 ** draw(st.floats(1.0, math.log10(3000.0)))
    t = draw(st.floats(0.0, 1.2)) * rate_upper_bound(model)
    return model, mat, sigma, t


FD_STEP = 1e-6
# relative error of one objective evaluation, in units of the double epsilon
EVAL_ULPS = 8


def central_differences(value, mat):
    """(central differences at FD_STEP, their rounding error bound): each
    evaluation is exact to EVAL_ULPS * eps * |f|, so a difference quotient
    is exact to EVAL_ULPS * eps * max |f| / FD_STEP. That bound matters
    where the soft minimum's offset ln(T)/sigma dwarfs the gradient."""
    fd = np.empty_like(mat)
    largest = 0.0
    for i in np.ndindex(mat.shape):
        up, dn = mat.copy(), mat.copy()
        up[i] += FD_STEP
        dn[i] -= FD_STEP
        f_up, f_dn = value(up), value(dn)
        fd[i] = (f_up - f_dn) / (2 * FD_STEP)
        largest = max(largest, abs(f_up), abs(f_dn))
    return fd, EVAL_ULPS * np.finfo(float).eps * largest / FD_STEP


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=gradient_cases())
def test_gradients_match_finite_differences(case):
    """Criterion 6's check (central differences, step 1e-6, error below 1e-5
    of max |fd|) at random sigma, level and group layout, for the rate soft
    minimum and the cone-margin soft minimum, on the numpy kernels and on
    the compiled evaluation (value path differenced, value+gradient path
    checked). The differences' own rounding bound is allowed on top: with
    tiny gains, a rate soft minimum near ln(T)/sigma = 0.04 has gradients
    near 1e-6, where rounding alone moves a difference quotient by 5e-6 of
    it (one such case, checked at 50 digits, has an analytic gradient
    exact to 1e-14)."""
    model, mat, sigma, t = case
    lib = native.load_library()
    impl = kernels.IMPL
    args = (model.gamma_sqrt, model.a_sq, model.group_ptr)
    rho = model.rho_bar
    objectives = {
        "rate numpy": (lambda m: impl.soft_min_value(*args, m, rho, sigma)[0],
                       impl.soft_min_value_grad(*args, mat, rho, sigma)[2]),
        "margin numpy": (lambda m: impl.margin_value(*args, m, rho, t, sigma)[0],
                         impl.margin_value_grad(*args, mat, rho, t, sigma)[2]),
    }
    for kind, name, level in ((native.RATE, "rate compiled", 0.0),
                              (native.MARGIN, "margin compiled", t)):
        objectives[name] = (
            lambda m, kind=kind, level=level:
                compiled_objective(lib, kind, model, m, sigma, level, grad=False)[0],
            compiled_objective(lib, kind, model, mat, sigma, level)[2])
    for name, (value, grad) in objectives.items():
        fd, rounding = central_differences(value, mat)
        err = np.abs(fd - grad).max()
        assert err < 1e-5 * np.abs(fd).max() + rounding, (name, err, rounding)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("shape", [(100, 4, 10), (150, 2, 15), (200, 2, 15)],
                         ids=lambda s: f"M{s[0]}-{s[1]}x{s[2]}")
def test_certified_infeasible_steps_lie_above_the_apg_min_rate(shape, seed):
    """Every bisection step whose oracle certified "infeasible" tests a level
    above the min-rate that the APG continuation's power reaches: a witnessed
    level is never refuted. (Undecided steps are not certificates.)"""
    model = build_rate_model(generate_instance(Dimensions.uniform(*shape), PhysicalConfig(),
                                               seed))
    apg = apg_solve_continuation(model, (100.0, 1000.0))[-1].f_true
    report = bisection_solve(model)
    refuted = [0.5 * (s.t_lo + s.t_hi) for s in report.steps if s.oracle_status == INFEASIBLE]
    assert refuted
    assert min(refuted) > apg


def colocated_instance(dims, seed):
    """Every user at the first user's drop point; shadowing stays independent
    per AP-user pair."""
    cfg = PhysicalConfig()
    ap_xy, user_xy = generate_geometry(dims, cfg.area_side_m, seed)
    user_xy[:] = user_xy[0]
    zeta = large_scale_fading(ap_xy, user_xy, cfg, seed)
    sigma2 = noise_power(cfg)
    gamma = gamma_coefficients(zeta, dims, cfg.pilot_power_w, cfg.pilot_len_symbols, sigma2)
    return NetworkInstance(dims, zeta, gamma, sigma2, cfg.data_power_w, cfg.pilot_power_w,
                           config=cfg, seed=seed)


EDGE_SCENARIOS = {
    "groups-1x30": lambda seed: generate_instance(Dimensions(20, 2, (1, 30)), PhysicalConfig(),
                                                  seed),
    "single-AP": lambda seed: generate_instance(Dimensions(1, 2, (3, 4)), PhysicalConfig(), seed),
    # twenty single-user groups on the default pilot length of 20
    "N-is-pilot-length": lambda seed: generate_instance(Dimensions(30, 20, (1,) * 20),
                                                        PhysicalConfig(), seed),
    "area-20km": lambda seed: generate_instance(Dimensions(40, 2, (5, 5)),
                                                PhysicalConfig(area_side_m=20000.0), seed),
    "co-located": lambda seed: colocated_instance(Dimensions(20, 2, (3, 3)), seed),
}
EDGE_CASES = [(name, seed) for name in EDGE_SCENARIOS for seed in (1, 2, 3)]


@pytest.mark.parametrize("name, seed", EDGE_CASES, ids=[f"{n}-{s}" for n, s in EDGE_CASES])
def test_edge_scenario_apg_point_is_sound(name, seed):
    """The APG continuation's power lies in S, the oracle does not refute the
    min-rate it reaches, and the Monte-Carlo oracle's rates at it are
    finite."""
    instance = EDGE_SCENARIOS[name](seed)
    model = build_rate_model(instance)
    apg = apg_solve_continuation(model, (100.0, 1000.0))[-1]
    assert is_feasible(apg.power)
    assert feasibility_oracle(model, apg.f_true).status != INFEASIBLE
    report = rate_oracle_monte_carlo(instance, apg.power, 2000, seed=seed)
    assert np.isfinite(report.rate_nats).all() and np.isfinite(report.std_error).all()


@pytest.mark.parametrize("name, seed", EDGE_CASES, ids=[f"{n}-{s}" for n, s in EDGE_CASES])
def test_edge_scenario_bisection_reaches_epa(name, seed):
    """Bisection's t* is at least the equal power allocation's min-rate less
    1e-6, the rule the acceptance checks apply."""
    model = build_rate_model(EDGE_SCENARIOS[name](seed))
    assert bisection_solve(model).t_star >= epa_rates(model).min_rate - 1e-6


def shape_instance(num_aps, group_sizes):
    return lambda seed: generate_instance(Dimensions(num_aps, len(group_sizes), group_sizes),
                                          PhysicalConfig(), seed)


# the edge scenarios plus the two low-rate instances of the CHANGES.md FOUND
# line on apg_solve_continuation
APG_EPA_SCENARIOS = {**EDGE_SCENARIOS, "M3-3x1x2": shape_instance(3, (3, 1, 2)),
                     "M1-1x1": shape_instance(1, (1, 1))}
APG_BELOW_EPA = pytest.mark.xfail(
    strict=True, reason="the APG continuation stops below the EPA min-rate on low-rate "
    "instances (CHANGES.md FOUND line on apg_solve_continuation; ROADMAP item 6)")
APG_EPA_CASES = [
    pytest.param(name, seed, id=f"{name}-{seed}",
                 marks=[APG_BELOW_EPA] if (name, seed) in {("single-AP", 1), ("single-AP", 3),
                                                           ("M3-3x1x2", 1841261663)} else [])
    for name, seed in EDGE_CASES + [("M3-3x1x2", 1841261663), ("M1-1x1", 1033071480)]
]


@pytest.mark.parametrize("name, seed", APG_EPA_CASES)
def test_edge_scenario_apg_reaches_epa(name, seed):
    """The APG continuation's min-rate is at least the equal power
    allocation's less 1e-6, the rule the acceptance checks apply. Three
    cases end below that (strict xfails): single-AP-1 (APG 4.76e-6 against
    EPA 8.07e-6), single-AP-3 (1.69e-7 against 2.36e-6) and M3-3x1x2
    (1.019e-4 against 1.044e-4). Three more pass only through the 1e-6
    slack, with APG below EPA: single-AP-2, area-20km-3 and M1-1x1, where
    APG gives one group no power and a min-rate of 0."""
    model = build_rate_model(APG_EPA_SCENARIOS[name](seed))
    apg = apg_solve_continuation(model, (100.0, 1000.0))[-1]
    assert apg.f_true >= epa_rates(model).min_rate - 1e-6


def slsqp_min_rate(model):
    """Max-min rate by SciPy's SLSQP on the epigraph form: maximize t over
    (mu, t) subject to rate_u(mu) >= t for every user, each AP's column of
    mu in the unit ball and 0 <= mu <= 1, from the equal power allocation
    with t at its min-rate. Rates and Jacobians are written out here from
    the closed form. SLSQP often ends on status 8 (a line search in a
    direction it cannot improve), so its objective is never read: the
    result is projected onto S and its min-rate evaluated there."""
    num_groups, num_aps = model.num_groups, model.num_aps
    gs, asq, rho = model.gamma_sqrt, model.a_sq, model.rho_bar
    group = np.repeat(np.arange(num_groups), np.diff(model.group_ptr))
    users = np.arange(group.size)
    c = 0.25 * math.pi * rho

    def split(x):
        mu = x[:-1].reshape(num_groups, num_aps)
        own = mu[group]  # (T, M): each user's group block
        return mu, own, (gs * own).sum(axis=1), rho * (asq * own * own).sum(axis=1) + 1.0

    def rate_margin(x):
        _, _, p, d = split(x)
        return np.log1p(c * p * p / d) - x[-1]

    def rate_margin_jac(x):
        # rate = ln(d + c p^2) - ln(d)
        _, own, p, d = split(x)
        dd, ds = 2.0 * rho * asq * own, 2.0 * c * p[:, None] * gs
        jac = np.zeros((users.size, num_groups, num_aps))
        jac[users, group] = (dd + ds) / (d + c * p * p)[:, None] - dd / d[:, None]
        return np.column_stack([jac.reshape(users.size, -1), -np.ones(users.size)])

    def ball(x):
        return 1.0 - (split(x)[0] ** 2).sum(axis=0)

    def ball_jac(x):
        aps = np.arange(num_aps)
        jac = np.zeros((num_aps, num_groups, num_aps))
        jac[aps, :, aps] = -2.0 * split(x)[0].T
        return np.column_stack([jac.reshape(num_aps, -1), np.zeros(num_aps)])

    objective_jac = np.zeros(num_groups * num_aps + 1)
    objective_jac[-1] = -1.0
    start = np.append(epa_power(num_aps, num_groups).ravel(), epa_rates(model).min_rate)
    res = minimize(lambda x: -x[-1], start, jac=lambda x: objective_jac, method="SLSQP",
                   bounds=[(0.0, 1.0)] * (num_groups * num_aps) + [(None, None)],
                   constraints=[{"type": "ineq", "fun": rate_margin, "jac": rate_margin_jac},
                                {"type": "ineq", "fun": ball, "jac": ball_jac}],
                   options={"maxiter": 1000, "ftol": 1e-12})
    return min_rate(model, project_feasible(res.x[:-1].reshape(num_groups, num_aps)))


SLSQP_CASES = [(num_aps, groups, seed) for num_aps in (2, 6, 10)
               for groups in ((2, 2), (1, 3), (2, 1, 2)) for seed in (1, 2, 3)]


@pytest.mark.parametrize("num_aps, group_sizes, seed", SLSQP_CASES,
                         ids=[f"M{m}-{'x'.join(map(str, g))}-{s}" for m, g, s in SLSQP_CASES])
def test_slsqp_agrees_with_bisection_and_apg(num_aps, group_sizes, seed):
    """An independent solver: SLSQP's min-rate lies within tol_t of
    bisection's t* and within criterion 2's 1e-3 of APG's. Over M 2-10 with
    these layouts and seeds 1-3, |SLSQP - t*| reached 9.15e-5 (M=10, 1x3,
    seed 3) and SLSQP - APG ranged from about 0 to 5.0e-4 (M=10, 2x1x2,
    seed 1)."""
    model = build_rate_model(shape_instance(num_aps, group_sizes)(seed))
    slsqp = slsqp_min_rate(model)
    assert abs(slsqp - bisection_solve(model).t_star) <= BisectionConfig().tol_t
    apg = apg_solve_continuation(model, (100.0, 1000.0))[-1]
    assert abs(slsqp - apg.f_true) <= 1e-3
