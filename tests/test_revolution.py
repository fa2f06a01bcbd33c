"""Variant where a victorious rebel government owes the loser nothing."""

import pytest
from hypothesis import given, settings, strategies as st

from fiscap import (CostSpec, InvestmentRegime, TurnoverResponse,
                    brute_force_tau2_variant, civil_war_threshold,
                    expected_utility_I1, expected_utility_I1_variant,
                    expected_utility_O1, expected_utility_O1_variant,
                    indirect_utility, optimal_tau2, OutcomeKind, revolution_solve,
                    revolution_threshold, solve_equilibrium, variant_war_tau2)
from fiscap.cli import solve_report
from fiscap.fiscal import Solution

from conftest import draw_params, regime_map_point


def test_variant_threshold_worked_point():
    point = regime_map_point(epsilon=0.3, sigma_d=0.3)
    assert revolution_threshold(point) == pytest.approx(-0.57 / 0.545, rel=1e-12)
    assert revolution_threshold(point) == pytest.approx(-1.045872, abs=5e-7)


def test_variant_threshold_equals_baseline_at_zero_cohesion():
    for trial in range(50):
        p = draw_params(seed=71, trial=trial).replace(sigma_d=0.0)
        base = civil_war_threshold(p)
        variant = revolution_threshold(p)
        if base is None:
            assert variant is None
        else:
            # same value; the two expressions associate differently, so the
            # last couple of bits may round apart
            assert variant == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_variant_threshold_below_baseline_worked_point():
    point = regime_map_point(epsilon=0.3, sigma_d=0.3)
    assert revolution_threshold(point) < civil_war_threshold(point)


def test_variant_war_solve_worked_point(cost):
    point = regime_map_point(epsilon=0.3, sigma_d=0.3)
    res = revolution_solve(point, cost)
    assert res.gamma == 1
    assert res.phi == pytest.approx(0.7, rel=1e-12)
    assert res.tau2_star == point.tau1
    assert res.flags.corner
    # war-branch marginal benefit: m*(-phi + (1-sigma_d)/2) = -.7+.35
    assert variant_war_tau2(point, cost).argument == pytest.approx(-0.35, rel=1e-12)
    lines = solve_report(point, cost, "revolution").splitlines()
    assert lines[0].endswith(f" prop2={InvestmentRegime.WAR.value}")
    assert lines[2].startswith(f"prop1={TurnoverResponse.UP.value} ")


def test_variant_flips_interior_point_to_war(p0c, cost):
    # the rebellion premium moves this point across the war line: the
    # variant threshold .0488 sits just below sigma_f=.05, where the baseline
    # threshold 1.11 sits far above it
    res = revolution_solve(p0c, cost)
    assert res.sigma_f_bar == pytest.approx(0.004 / 0.082, rel=1e-10)
    assert res.sigma_f_bar < p0c.sigma_f < civil_war_threshold(p0c)
    assert res.gamma == 1
    assert res.phi == pytest.approx(0.22, rel=1e-12)
    # war-branch argument -phi' + (1-sigma_d)/2 = -.22+.4 = .18, interior
    assert res.tau2_star == pytest.approx(0.38, rel=1e-12)
    assert not res.flags.corner
    # the two decision routes agree: direct utilities also favor war
    war = expected_utility_O1_variant(p0c, 1.0, war=True)
    peace = expected_utility_O1_variant(p0c, 1.0, war=False)
    assert war > peace


def test_variant_peace_branch_identical_to_baseline(p0c, cost):
    # lowering sigma_f below the variant threshold restores peace, where the
    # variant must reproduce the baseline solve bit for bit
    calm = p0c.replace(sigma_f=0.04)
    res = revolution_solve(calm, cost)
    assert res.gamma == 0
    base = solve_equilibrium(calm, cost)
    assert base.gamma == 0
    assert res.tau2_star == base.tau2_star
    assert res.phi == base.phi


def test_both_solvers_return_one_record(p0c, cost):
    # variant war (interior), variant peace, and a war corner in both variants
    points = (p0c, p0c.replace(sigma_f=0.04), regime_map_point(epsilon=0.3, sigma_d=0.3))
    baseline_rulers = [OutcomeKind.INCUMBENT_RETAINS, OutcomeKind.OPPOSITION_RULES,
                       OutcomeKind.FOREIGN_ADMINISTRATION]
    for p in points:
        base = solve_equilibrium(p, cost)
        var = revolution_solve(p, cost)
        assert type(base) is Solution and type(var) is Solution
        # only the variant has a post-revolution ruler to report
        assert list(base.period2_by_kind) == baseline_rulers
        assert list(var.period2_by_kind) == list(OutcomeKind)
        assert base.argument == optimal_tau2(p, cost, base.gamma).argument
        closed = variant_war_tau2(p, cost) if var.gamma == 1 else optimal_tau2(p, cost, 0)
        assert var.argument == closed.argument
        war = var.gamma == 1
        assert var.eu_I1 == expected_utility_I1_variant(p, cost, var.tau2_star, war)
        assert var.eu_O1 == expected_utility_O1_variant(p, var.tau2_star, war)
        assert base.eu_O1 == expected_utility_O1(p, base.tau2_star, base.gamma == 1)


def test_variant_post_revolution_utilities(p0c):
    # winner takes the whole pot: (1-tau2)m + 2*tau2*m
    w = indirect_utility("O1", OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION,
                         0.4, p0c)
    assert w == pytest.approx(0.6 + 0.8, rel=1e-15)
    # at zero cohesiveness the ordinary accession already pays everything
    flat = p0c.replace(sigma_d=0.0)
    assert expected_utility_O1_variant(flat, 0.7, war=True) \
        == expected_utility_O1(flat, 0.7, war=True)


def test_variant_oracle_equivalence_worked_point(p0c, cost):
    oracle = brute_force_tau2_variant(p0c, cost, 1)
    assert oracle == pytest.approx(0.38, abs=1e-4)


def test_variant_war_derivative_matches_closed_form(p0c, cost):
    # interior war branch: d(tau2*')/d(alpha) = -m*(omega - delta + rho)/c
    h = 1e-6
    lo = variant_war_tau2(p0c.replace(alpha=p0c.alpha - h), cost).tau2_star
    hi = variant_war_tau2(p0c.replace(alpha=p0c.alpha + h), cost).tau2_star
    slope = (hi - lo) / (2 * h)
    expected = -(p0c.omega - p0c.delta + p0c.rho) * p0c.m
    assert slope == pytest.approx(expected, abs=1e-8)
    assert slope < 0


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_variant_threshold_never_above_baseline(trial):
    p = draw_params(seed=72, trial=trial)
    base = civil_war_threshold(p)
    variant = revolution_threshold(p)
    if base is not None and variant is not None:
        assert variant <= base + 1e-12


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_variant_decision_matches_threshold(trial):
    p = draw_params(seed=73, trial=trial)
    res = revolution_solve(p, CostSpec(kind="quadratic", c=1.0))
    if res.sigma_f_bar is not None:
        assert res.gamma == (1 if p.sigma_f > res.sigma_f_bar else 0)


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6))
def test_variant_solve_agrees_with_grid_oracle(trial):
    p = draw_params(seed=74, trial=trial)
    cost = CostSpec(kind="quadratic", c=2.0)
    res = revolution_solve(p, cost)
    if res.flags.clamped_at_tau_max or res.flags.clamped_for_feasibility:
        return
    oracle = brute_force_tau2_variant(p, cost, res.gamma)
    assert abs(res.tau2_star - oracle) <= 2e-3


def test_variant_equals_baseline_at_zero_cohesion_full_solve(cost):
    for trial in range(30):
        p = draw_params(seed=75, trial=trial).replace(sigma_d=0.0)
        res = revolution_solve(p, cost)
        base = solve_equilibrium(p, cost)
        assert res.gamma == base.gamma
        assert res.phi == base.phi
        assert res.tau2_star == pytest.approx(base.tau2_star, abs=1e-12)


def test_variant_i1_war_utility_drops_when_rule_voided(p0c, cost):
    # the incumbent loses the cohesiveness kickback exactly when tau2 > 0
    base_war = expected_utility_I1(p0c, cost, 0.4, True)
    variant_war = expected_utility_I1_variant(p0c, cost, 0.4, True)
    assert variant_war < base_war
