"""Regime classification and finite-difference validation of the statics."""

import pytest
from hypothesis import given, settings, strategies as st

from fiscap import (AssumptionViolation, CostSpec, InvestmentRegime, JointRegime,
                    TurnoverResponse, civil_war_threshold, classify,
                    finite_difference, investment_condition)

from conftest import draw_params, regime_map_point


def test_classify_worked_points(p0a, p0c):
    interior = classify(p0c)
    assert interior.prop1 is TurnoverResponse.DOWN
    assert interior.prop2 is InvestmentRegime.INVEST_UP
    assert interior.prop3 is JointRegime.TURNOVER_DOWN_INVEST_UP
    cohesive = classify(p0a)
    assert cohesive.prop1 is TurnoverResponse.DOWN
    assert cohesive.prop2 is InvestmentRegime.INVEST_DOWN
    assert cohesive.prop3 is JointRegime.TURNOVER_DOWN_INVEST_DOWN
    war = classify(regime_map_point(epsilon=0.3, sigma_d=0.3))
    assert war.prop1 is TurnoverResponse.UP
    assert war.prop2 is InvestmentRegime.WAR
    assert war.prop3 is JointRegime.WAR


def test_investment_condition_values(p0a, p0c):
    assert investment_condition(p0c) == pytest.approx(0.15 - 0.2 * 0.2, rel=1e-12)
    assert investment_condition(p0a) == pytest.approx(0.2 - 0.9 * 0.3, rel=1e-12)


def test_classify_knife_edge_equality(p0c):
    # construct sigma_d so (eps - mu) = sigma_d*(eps - lam*mu) to the last bit
    sigma_d = (p0c.epsilon - p0c.mu) / (p0c.epsilon - p0c.lam * p0c.mu)
    point = p0c.replace(sigma_d=sigma_d)
    if abs(investment_condition(point)) <= 1e-12:
        assert classify(point).prop2 is InvestmentRegime.KNIFE_EDGE
    else:  # float rounding pushed it off the edge; it must sit tight anyway
        assert abs(investment_condition(point)) <= 1e-15


def test_finite_difference_phi_worked_point(p0c, cost):
    fd = finite_difference(p0c, cost, "alpha")
    assert fd.phi == pytest.approx(-0.15, abs=1e-9)
    assert fd.regime_stable


def test_finite_difference_tau2_worked_point(p0c, cost):
    fd = finite_difference(p0c, cost, "alpha")
    assert fd.tau2 == pytest.approx(0.11, abs=1e-6)
    assert fd.regime_stable
    assert not fd.corner


def test_finite_difference_zero_at_corner(p0a, cost):
    fd = finite_difference(p0a, cost, "alpha")
    assert fd.tau2 == 0.0
    assert fd.corner


def test_finite_difference_domain_exit(p0c, cost):
    with pytest.raises(AssumptionViolation) as exc:
        finite_difference(p0c.replace(alpha=5e-7), cost, "alpha")
    assert [v.which for v in exc.value.violations] == ["range:alpha"]


def test_finite_difference_rejects_bad_axis(p0c, cost):
    with pytest.raises(ValueError):
        finite_difference(p0c, cost, "rho")


def test_finite_difference_flags_regime_flip(cost):
    # bisect the war boundary in sigma_d between the two reference points,
    # then difference straight across it
    lo, hi = 0.3, 0.9
    for _ in range(40):
        mid = (lo + hi) / 2
        bar = civil_war_threshold(regime_map_point(epsilon=0.3, sigma_d=mid))
        if bar is not None and bar > 0.1:
            hi = mid
        else:
            lo = mid
    straddle = regime_map_point(epsilon=0.3, sigma_d=(lo + hi) / 2)
    # the point sits within 1e-12 of the boundary, inside the default step
    fd = finite_difference(straddle, cost, "sigma_d")
    assert not fd.regime_stable


def test_prop2_boundary_flip_along_lambda_zero(cost):
    # at lam=0 the invest-up/invest-down boundary is eps*(1-sigma_d) = mu;
    # check the flip just each side of it at sigma_d=.75 (peace on both sides)
    below = regime_map_point(epsilon=0.39, sigma_d=0.75)
    above = regime_map_point(epsilon=0.41, sigma_d=0.75)
    assert classify(below).prop2 is InvestmentRegime.INVEST_DOWN
    assert classify(above).prop2 is InvestmentRegime.INVEST_UP
    for point in (below, above):
        assert classify(point).prop1 is TurnoverResponse.DOWN


@settings(max_examples=50)
@given(st.integers(0, 10 ** 6))
def test_fd_signs_match_classification(trial):
    p = draw_params(seed=51, trial=trial)
    cost = CostSpec(kind="quadratic", c=1.0)
    cls = classify(p)
    try:
        fd = finite_difference(p, cost, "alpha")
    except AssumptionViolation:
        return
    if not fd.regime_stable:
        return
    if cls.prop1 is TurnoverResponse.UP:
        assert fd.phi > 0
    else:
        assert fd.phi < 0
    if fd.corner:
        return
    cond = investment_condition(p)
    if abs(cond) * p.m <= 1e-7:  # below the difference quotient's resolution
        return
    if cls.prop2 is InvestmentRegime.INVEST_UP:
        assert fd.tau2 > 0
    elif cls.prop2 in (InvestmentRegime.WAR, InvestmentRegime.INVEST_DOWN):
        assert fd.tau2 < 0


@settings(max_examples=50)
@given(st.integers(0, 10 ** 6))
def test_prop3_consistency(trial):
    p = draw_params(seed=52, trial=trial)
    cls = classify(p)
    pairs = {
        JointRegime.WAR: (TurnoverResponse.UP, InvestmentRegime.WAR),
        JointRegime.TURNOVER_DOWN_INVEST_UP:
            (TurnoverResponse.DOWN, InvestmentRegime.INVEST_UP),
    }
    if cls.prop3 in pairs:
        assert (cls.prop1, cls.prop2) == pairs[cls.prop3]
    else:
        assert cls.prop1 is TurnoverResponse.DOWN
        assert cls.prop2 in (InvestmentRegime.INVEST_DOWN,
                             InvestmentRegime.KNIFE_EDGE)
