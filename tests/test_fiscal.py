"""Closed-form investment solve, grid oracle, clamps, and the composed solver."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiscap import (CostSpec, OutcomeKind, brute_force_tau2,
                    expected_utility_I1, investment_argument, inverse_marginal,
                    max_feasible_tau2, optimal_tau2, solve_equilibrium)

from conftest import draw_params, regime_map_point


def test_inverse_marginal_quadratic():
    assert inverse_marginal(CostSpec(kind="quadratic", c=2.0), 0.6) \
        == pytest.approx(0.3, rel=1e-15)
    assert inverse_marginal(CostSpec(kind="quadratic", c=1.0), -0.1) == 0.0
    assert inverse_marginal(CostSpec(kind="quadratic", c=1.0), 0.0) == 0.0


def test_inverse_marginal_custom_bisection():
    knots = tuple(np.linspace(0.0, 1.0, 21))
    cost = CostSpec(kind="custom", knots=knots,
                    marginals=tuple(3.0 * x for x in knots))
    for y in (0.05, 0.3, 1.2, 4.5):  # last one beyond the tabulated range
        assert inverse_marginal(cost, y) == pytest.approx(y / 3.0, abs=1e-11)


def test_inverse_marginal_rejects_non_finite(cost):
    with pytest.raises(ValueError):
        inverse_marginal(cost, float("nan"))


def test_investment_argument_worked_point(p0c):
    assert investment_argument(p0c, 0) == pytest.approx(0.262, rel=1e-12)


def test_investment_argument_override_cohesiveness(p0c):
    # overriding period-2 cohesiveness to the period-1 value is a no-op
    assert investment_argument(p0c, 0, sigma_d2=p0c.sigma_d) \
        == investment_argument(p0c, 0)


def test_optimal_tau2_interior_worked_point(p0c, cost):
    sol = optimal_tau2(p0c, cost, 0)
    assert sol.tau2_star == pytest.approx(0.462, rel=1e-12)
    assert not sol.flags.corner
    assert not sol.flags.clamped_at_tau_max
    assert not sol.flags.clamped_for_feasibility


def test_optimal_tau2_corner_peace(p0a, cost):
    sol = optimal_tau2(p0a, cost, 0)
    assert sol.tau2_star == p0a.tau1
    assert sol.argument == pytest.approx(-0.015, rel=1e-12)
    assert sol.flags.corner


def test_optimal_tau2_corner_war(cost):
    params = regime_map_point(epsilon=0.3, sigma_d=0.3)
    sol = optimal_tau2(params, cost, 1)
    assert sol.tau2_star == params.tau1
    assert sol.argument == pytest.approx(-0.215, rel=1e-12)
    assert sol.flags.corner


def test_optimal_tau2_clamps_at_tau_max(p0c, cost):
    sol = optimal_tau2(p0c.replace(tau_max=0.3), cost, 0)
    assert sol.tau2_star == 0.3
    assert sol.flags.clamped_at_tau_max


def test_optimal_tau2_clamps_for_feasibility(p0c, cost):
    tight = p0c.replace(tau1=0.01)
    sol = optimal_tau2(tight, cost, 0)
    assert sol.flags.clamped_for_feasibility
    assert sol.tau2_star == max_feasible_tau2(tight, cost)
    assert cost.value(sol.tau2_star - tight.tau1) <= tight.tau1 * tight.m


def test_max_feasible_tau2_quadratic(p0c, cost):
    # budget tau1*m = .2 buys x = sqrt(.4) of capacity before tau_max caps it
    hi = max_feasible_tau2(p0c, cost)
    assert hi == pytest.approx(0.2 + np.sqrt(0.4), rel=1e-12)
    assert cost.value(hi - p0c.tau1) <= p0c.tau1 * p0c.m


def test_max_feasible_tau2_custom_matches_quadratic(p0c):
    knots = tuple(np.linspace(0.0, 2.0, 41))
    tabulated = CostSpec(kind="custom", knots=knots,
                         marginals=tuple(1.0 * x for x in knots))
    quad = CostSpec(kind="quadratic", c=1.0)
    assert max_feasible_tau2(p0c, tabulated) \
        == pytest.approx(max_feasible_tau2(p0c, quad), abs=1e-9)


@given(st.integers(0, 10 ** 6))
def test_max_feasible_tau2_affordable_after_roundtrip(trial):
    # the feasibility bound must survive the tau1 + x - tau1 float round trip
    # that every consumer performs
    p = draw_params(seed=41, trial=trial)
    cost = CostSpec(kind="quadratic", c=float(
        np.random.default_rng(trial).uniform(0.5, 5.0)))
    hi = max_feasible_tau2(p, cost)
    assert p.tau1 <= hi <= p.tau_max
    assert cost.value(hi - p.tau1) <= p.tau1 * p.m


def _bisected_x_max(cost, budgets):
    """The 200-step bisection that max_feasible_tau2 used for tabulated costs
    before the closed-form root, kept as its oracle: the largest investment
    whose cost fits each budget, bisected elementwise.

    Pass budgets past the last knot one at a time, as a 0-d array: on longer
    arrays numpy squares the tail term as x*x where a scalar cost.value call
    uses pow, and the two can differ by an ulp. Inside the table they agree.
    """
    lo = np.zeros_like(budgets)
    hi = np.full_like(budgets, float(cost.knots[-1]))
    while True:
        short = cost.value(hi) < budgets
        if not short.any():
            break
        hi = np.where(short, hi * 2.0, hi)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        fits = cost.value(mid) <= budgets
        if np.where(fits, mid == lo, mid == hi).all():
            break  # a fixed point: the remaining steps would repeat this one
        lo, hi = np.where(fits, mid, lo), np.where(fits, hi, mid)
    return lo


def _guarded_top(params, cost, x_max):
    """The round-off guard of max_feasible_tau2, applied to the oracle."""
    top = min(params.tau_max, params.tau1 + x_max)
    for _ in range(16):
        if cost.value(top - params.tau1) <= params.tau1 * params.m:
            break
        top = float(np.nextafter(top, params.tau1))
    return top


def test_max_feasible_tau2_custom_matches_bisection():
    # 1000 seeded strictly convex tables of 2-8 knots, each crossed with a
    # zero budget, a budget equal to a knot's cumulative cost, one past the
    # last knot, one capped at tau_max and one inside the table
    base = regime_map_point(epsilon=0.3, sigma_d=0.5)
    rng = np.random.default_rng(20260)
    differing = capped = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, n - 1))])
        ms = (np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
              * 10.0 ** rng.uniform(-2.0, 2.0))
        cost = CostSpec(kind="custom", knots=tuple(xs.tolist()),
                        marginals=tuple(ms.tolist()))
        cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (ms[:-1] + ms[1:]) / 2.0)])
        tau1 = float(rng.uniform(0.01, 0.2))
        knot = int(rng.integers(1, n))
        inside = [
            base.replace(tau1=0.25, m=4.0 * float(cum[knot])),  # exactly cum[knot]
            base.replace(tau1=tau1, m=float(rng.uniform(cum[1], cum[-1])) / tau1,
                         tau_max=tau1 + float(rng.uniform(0.0, 1.0) * xs[1])),
            base.replace(tau1=tau1, m=float(rng.uniform(0.0, cum[-1])) / tau1),
        ]
        past = base.replace(tau1=tau1,
                            m=float(cum[-1] * rng.uniform(1.0001, 4.0)) / tau1)
        x_max = [*_bisected_x_max(cost, np.array([p.tau1 * p.m for p in inside])),
                 _bisected_x_max(cost, np.array(past.tau1 * past.m)),
                 0.0]  # at a zero budget the oracle never moves off lo = 0
        cases = inside + [past, base.replace(tau1=0.0)]
        for params, x in zip(cases, x_max):
            oracle = _guarded_top(params, cost, float(x))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                top = max_feasible_tau2(params, cost)
            assert top in (np.nextafter(oracle, -1.0), oracle, np.nextafter(oracle, 2.0))
            assert cost.value(top - params.tau1) <= params.tau1 * params.m
            differing += top != oracle
            capped += top == params.tau_max
    # the bisection never tests its starting hi, so it stops an ulp short
    # when the budget buys exactly the last knot; nearly all else is identical
    assert differing <= 10
    assert capped >= 1000  # the tau_max case binds: it is not a vacuous pass


def test_brute_force_matches_closed_form_worked_point(p0c, cost):
    assert brute_force_tau2(p0c, cost, 0, grid_step=1e-4) \
        == pytest.approx(0.462, abs=1e-4)


def test_brute_force_reproduces_corner(p0a, cost):
    assert brute_force_tau2(p0a, cost, 0, grid_step=1e-3) == p0a.tau1


def test_brute_force_rejects_bad_step(p0c, cost):
    with pytest.raises(ValueError):
        brute_force_tau2(p0c, cost, 0, grid_step=0.0)


def test_brute_force_ties_resolve_to_lowest(p0c, cost, monkeypatch):
    # a perfectly flat objective ties every grid point; the documented rule
    # picks the lowest tau2, independent of evaluation order
    import fiscap.fiscal as fiscal_mod

    def flat(params, cost_, grid, war):
        return np.zeros_like(np.asarray(grid, dtype=float))

    monkeypatch.setattr(fiscal_mod, "expected_utility_I1", flat)
    assert fiscal_mod.brute_force_tau2(p0c, cost, 0, grid_step=1e-3) == p0c.tau1


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_oracle_equivalence_on_random_draws(trial):
    p = draw_params(seed=42, trial=trial)
    rng = np.random.default_rng(np.random.SeedSequence((142, trial)))
    cost = CostSpec(kind="quadratic", c=float(rng.uniform(0.5, 5.0)))
    for gamma in (0, 1):
        sol = optimal_tau2(p, cost, gamma)
        oracle = brute_force_tau2(p, cost, gamma, grid_step=1e-3)
        if sol.flags.clamped_at_tau_max or sol.flags.clamped_for_feasibility:
            assert oracle == pytest.approx(sol.tau2_star, abs=2e-3)
        else:
            assert abs(sol.tau2_star - oracle) <= 2e-3


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_objective_concavity_second_differences(trial):
    p = draw_params(seed=43, trial=trial)
    cost = CostSpec(kind="quadratic", c=1.5)
    hi = max_feasible_tau2(p, cost)
    grid = np.linspace(p.tau1, hi, 41)
    for war in (False, True):
        values = expected_utility_I1(p, cost, grid, war)
        second = np.diff(values, n=2)
        assert np.all(second <= 1e-10)


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_maximality_of_closed_form(trial):
    p = draw_params(seed=44, trial=trial)
    cost = CostSpec(kind="quadratic", c=2.0)
    step = 1e-3
    for gamma in (0, 1):
        sol = optimal_tau2(p, cost, gamma)
        if sol.flags.clamped_at_tau_max or sol.flags.clamped_for_feasibility:
            continue
        best = expected_utility_I1(p, cost, sol.tau2_star, war=(gamma == 1))
        hi_bound = max_feasible_tau2(p, cost)
        for probe in (sol.tau2_star - 10 * step, sol.tau2_star + 10 * step):
            if p.tau1 <= probe <= hi_bound:
                assert best >= expected_utility_I1(
                    p, cost, probe, war=(gamma == 1)) - 1e-12


def test_solve_equilibrium_worked_points(p0a, p0c, cost):
    res = solve_equilibrium(p0a, cost)
    assert (res.gamma, res.phi, res.tau2_star) == (0, pytest.approx(0.2), 0.2)
    assert res.flags.corner
    war = solve_equilibrium(regime_map_point(epsilon=0.3, sigma_d=0.3), cost)
    assert (war.gamma, war.phi, war.tau2_star) \
        == (1, pytest.approx(0.7), pytest.approx(0.2))
    assert war.flags.corner
    interior = solve_equilibrium(p0c, cost)
    assert interior.gamma == 0
    assert interior.phi == pytest.approx(0.17, rel=1e-12)
    assert interior.tau2_star == pytest.approx(0.462, rel=1e-12)
    assert interior.sigma_f_bar == pytest.approx(10.0 / 9.0, rel=1e-12)


def test_solve_equilibrium_result_consistency(p0c, cost):
    res = solve_equilibrium(p0c, cost)
    assert p0c.tau1 <= res.tau2_star <= p0c.tau_max
    assert cost.value(res.tau2_star - p0c.tau1) <= p0c.tau1 * p0c.m
    assert abs(res.period1.budget_gap(p0c.m)) <= 1e-12
    for kind in (OutcomeKind.INCUMBENT_RETAINS, OutcomeKind.OPPOSITION_RULES,
                 OutcomeKind.FOREIGN_ADMINISTRATION):
        assert abs(res.period2_by_kind[kind].budget_gap(p0c.m)) <= 1e-12
    assert res.eu_I1 == expected_utility_I1(p0c, cost, res.tau2_star,
                                            war=res.gamma == 1)


def test_solve_equilibrium_undefined_threshold_still_solves(cost):
    from test_conflict import NO_THRESHOLD
    res = solve_equilibrium(NO_THRESHOLD, cost)
    assert res.sigma_f_bar is None
    assert res.gamma in (0, 1)
