"""War threshold, decision routes, analytic sensitivities, and turnover."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiscap import (ModelParams, UndefinedThreshold, civil_war_decision,
                    civil_war_threshold, expected_utility_O1,
                    threshold_sensitivities, turnover_probability)

from fiscap.conflict import ConflictDecision, _decide

from conftest import draw_params, regime_map_point

# a point whose threshold denominator is negative: epsilon large enough that
# the election-turnover composite k is strongly negative
NO_THRESHOLD = ModelParams(alpha=0.1, lam=0.0, epsilon=0.9, delta=0.1, rho=0.2,
                           mu=0.1, omega=0.15, sigma_d=0.0, sigma_f=0.5,
                           m=1.0, tau1=0.2)


def test_threshold_worked_points(p0a, p0b, p0c):
    assert civil_war_threshold(p0a) == pytest.approx(30.0 / 23.0, rel=1e-12)
    assert civil_war_threshold(p0a) == pytest.approx(1.304348, abs=5e-7)
    assert civil_war_threshold(regime_map_point(epsilon=0.3, sigma_d=0.5)) \
        == pytest.approx(-2.0 / 7.0, rel=1e-12)
    assert civil_war_threshold(p0b) == pytest.approx(-30.0 / 41.0, rel=1e-12)
    assert civil_war_threshold(p0b) == pytest.approx(-0.731707, abs=5e-7)
    assert civil_war_threshold(p0c) == pytest.approx(10.0 / 9.0, rel=1e-12)


def test_threshold_exactly_two_at_full_cohesion(p0c):
    assert civil_war_threshold(p0c.replace(sigma_d=1.0)) == 2.0


def test_threshold_undefined_when_denominator_not_positive():
    assert civil_war_threshold(NO_THRESHOLD) is None


def test_decision_worked_points(p0a, p0b):
    peace = civil_war_decision(p0a)
    assert peace.gamma == 0
    assert peace.threshold == pytest.approx(30.0 / 23.0, rel=1e-12)
    war = civil_war_decision(p0b)
    assert war.gamma == 1
    assert war.threshold == pytest.approx(-30.0 / 41.0, rel=1e-12)


def test_decision_war_at_zero_cohesiveness(p0a):
    # with nothing owed to the opposition in peace, war pays whenever the
    # no-cohesion composite alpha*omega+(1-alpha)*(delta-epsilon) is positive
    # (it lowers the threshold below zero, and sigma_f >= 0 always exceeds it)
    for base in (p0a, regime_map_point(epsilon=0.3, sigma_d=0.5).replace(alpha=0.3)):
        point = base.replace(sigma_d=0.0)
        k = (point.alpha * point.omega + (1 - point.alpha) * point.delta
             - (1 - point.alpha) * point.epsilon)
        assert k > 0
        assert civil_war_decision(point).gamma == 1


def test_decision_falls_back_to_direct_comparison():
    decision = civil_war_decision(NO_THRESHOLD)
    assert decision.threshold is None
    war = expected_utility_O1(NO_THRESHOLD, 1.0, True)
    peace = expected_utility_O1(NO_THRESHOLD, 1.0, False)
    assert decision.gamma == (1 if war > peace else 0)


def test_decide_raises_when_the_routes_disagree(p0c):
    # p0c chooses peace by a clear margin; a threshold below sigma_f says war
    assert civil_war_decision(p0c).gamma == 0
    with pytest.raises(AssertionError, match="war-decision routes disagree"):
        _decide(p0c, expected_utility_O1, lambda p: p.sigma_f - 0.01)


def test_decide_resolves_a_disagreement_at_exact_indifference_to_peace(p0c):
    # alpha = 0 and delta = epsilon make war and peace equal bit for bit
    tie = p0c.replace(alpha=0.0, delta=p0c.epsilon)
    assert expected_utility_O1(tie, 1.0, True) == expected_utility_O1(tie, 1.0, False)
    decision = _decide(tie, expected_utility_O1, lambda p: p.sigma_f - 0.01)
    assert decision == ConflictDecision(gamma=0, threshold=tie.sigma_f - 0.01)


def test_sensitivities_worked_point(p0a):
    sens = threshold_sensitivities(p0a)
    assert sens["d_sigma_d"] == pytest.approx(0.32 / 0.0529, rel=1e-12)
    assert sens["d_alpha"] > 0  # delta exceeds epsilon here
    assert sens["d_lambda"] < 0


def test_sensitivities_match_finite_differences():
    # interior point: every probed coordinate stays inside (0, 1)
    point = regime_map_point(epsilon=0.3, sigma_d=0.7).replace(lam=0.3)
    sens = threshold_sensitivities(point)
    h = 1e-7
    for wrt, attr in (("d_sigma_d", "sigma_d"), ("d_lambda", "lam"),
                      ("d_alpha", "alpha")):
        x = getattr(point, attr)
        lo = civil_war_threshold(point.replace(**{attr: x - h}))
        hi = civil_war_threshold(point.replace(**{attr: x + h}))
        assert (hi - lo) / (2 * h) == pytest.approx(sens[wrt], rel=1e-6)


def test_sensitivities_require_defined_threshold():
    with pytest.raises(UndefinedThreshold):
        threshold_sensitivities(NO_THRESHOLD)


def test_turnover_worked_points(p0a, p0c):
    assert turnover_probability(p0a, 0) == pytest.approx(0.2, rel=1e-15)
    assert turnover_probability(p0a, 1) == pytest.approx(0.7, rel=1e-15)
    assert turnover_probability(p0c, 0) == pytest.approx(0.17, rel=1e-15)
    assert turnover_probability(p0c, 1) == pytest.approx(0.22, rel=1e-15)


def test_turnover_alpha_zero_reduces_to_election(p0c):
    params = p0c.replace(alpha=0.0)
    assert turnover_probability(params, 0) == params.epsilon


def test_turnover_rejects_bad_gamma(p0c):
    with pytest.raises(ValueError):
        turnover_probability(p0c, 2)


@given(st.integers(0, 10 ** 6))
def test_threshold_and_direct_decision_agree(trial):
    p = draw_params(seed=31, trial=trial)
    decision = civil_war_decision(p)
    if decision.threshold is not None:
        assert decision.gamma == (1 if p.sigma_f > decision.threshold else 0)


@given(st.integers(0, 10 ** 6))
def test_full_cohesion_threshold_always_two(trial):
    p = draw_params(seed=32, trial=trial).replace(sigma_d=1.0)
    if p.lam < 1.0:
        assert civil_war_threshold(p) == pytest.approx(2.0, abs=1e-12)
        assert civil_war_decision(p).gamma == 0


@given(st.integers(0, 10 ** 6))
def test_turnover_is_affine_in_alpha_with_known_slopes(trial):
    p = draw_params(seed=33, trial=trial)
    h = 1e-6
    if not h <= p.alpha <= 1 - h:
        return
    for gamma, slope in ((0, -(p.epsilon - p.mu)),
                         (1, p.omega - p.delta + p.rho)):
        lo = turnover_probability(p.replace(alpha=p.alpha - h), gamma)
        hi = turnover_probability(p.replace(alpha=p.alpha + h), gamma)
        assert (hi - lo) / (2 * h) == pytest.approx(slope, abs=1e-9)


@given(st.integers(0, 10 ** 6))
def test_threshold_monotone_in_sigma_d_and_lambda(trial):
    p = draw_params(seed=34, trial=trial)
    num_den_ok = civil_war_threshold(p) is not None
    if not num_den_ok:
        return
    h = 1e-6
    k = (p.alpha * p.omega + (1 - p.alpha) * p.delta
         - (1 - p.alpha) * p.epsilon)
    bracket = p.alpha * (p.rho - p.mu) * (1 + p.lam) + 2 * k
    if h <= p.sigma_d <= 1 - h and bracket > 1e-6:
        lo = civil_war_threshold(p.replace(sigma_d=p.sigma_d - h))
        hi = civil_war_threshold(p.replace(sigma_d=p.sigma_d + h))
        if lo is not None and hi is not None:
            assert hi - lo >= -1e-12
    if h <= p.lam <= 1 - h and p.alpha * (p.rho - p.mu) + k > 1e-6:
        lo = civil_war_threshold(p.replace(lam=p.lam - h))
        hi = civil_war_threshold(p.replace(lam=p.lam + h))
        if lo is not None and hi is not None:
            assert hi - lo <= 1e-12
