"""Constitutional stage: assumptions, regime, equilibrium share, acceptance."""

import pytest
from hypothesis import given, settings, strategies as st

from fiscap import (BargainingRegime, CostSpec, InvestmentEffect, ModelParams,
                    bargaining_outcome, check_bargaining_assumptions,
                    classify_prop5, condition11_lhs, condition12_lhs,
                    equilibrium_share, inside_value, o1_accept_decision,
                    offer_value_I1, reject_value_I1, reservation_value)

from conftest import draw_params

R4C_POINT = ModelParams(alpha=0.9, lam=0.0, epsilon=0.3, delta=0.3, rho=0.5,
                        mu=0.1, omega=0.5, sigma_d=0.0, sigma_f=0.9,
                        m=1.0, tau1=0.2)
ALPHA_ZERO = ModelParams(alpha=0.0, lam=0.0, epsilon=0.3, delta=0.3, rho=0.4,
                         mu=0.1, omega=0.5, sigma_d=0.0, sigma_f=0.1,
                         m=1.0, tau1=0.2)


def test_assumptions_ok_on_reference_point(p1):
    assert check_bargaining_assumptions(p1) == []


def test_assumptions_reject_epsilon_delta_gap(p1):
    violations = check_bargaining_assumptions(p1.replace(delta=0.4))
    assert any(v.which == "epsilon_eq_delta" for v in violations)
    assert any("requires epsilon = delta" in v.message for v in violations)


def test_assumptions_reject_large_epsilon(p1):
    violations = check_bargaining_assumptions(
        p1.replace(epsilon=0.6, delta=0.6))
    assert any(v.which == "epsilon_le_half" for v in violations)


def test_assumptions_reject_interior_failure():
    # alpha=1, mu=.9, lam=1 puts the proposer's interior value at .9 >= .5
    point = ModelParams(alpha=1.0, lam=1.0, epsilon=0.0, delta=0.0, rho=0.95,
                        mu=0.9, omega=0.05, sigma_d=0.0, sigma_f=0.1,
                        m=1.0, tau1=0.2)
    violations = check_bargaining_assumptions(point)
    assert any(v.which == "proposer_interior" for v in violations)


def test_condition_values_reference_point(p1):
    assert condition11_lhs(p1) == pytest.approx(0.3192857142857143, rel=1e-12)
    assert condition12_lhs(p1) == pytest.approx(0.225, rel=1e-12)


def test_outcome_interior_worked_point(p1):
    outcome = bargaining_outcome(p1)
    assert outcome.regime is BargainingRegime.ACCEPTED_POSITIVE
    assert outcome.accepted
    assert outcome.sigma_d2_star == pytest.approx(6.0 / 29.0, rel=1e-12)
    assert outcome.sigma_d2_star == pytest.approx(0.206897, abs=5e-7)
    assert outcome.cond12_rhs == outcome.cond11_lhs


def test_outcome_zero_share_at_alpha_zero():
    outcome = bargaining_outcome(ALPHA_ZERO)
    assert outcome.regime is BargainingRegime.ACCEPTED_ZERO
    assert outcome.accepted
    assert outcome.sigma_d2_star == 0.0
    # both sides of the acceptance comparison collapse to (1-alpha)*epsilon
    assert outcome.cond12_lhs == pytest.approx(outcome.cond12_rhs, rel=1e-12)


def test_outcome_rejected_worked_point():
    outcome = bargaining_outcome(R4C_POINT)
    assert outcome.regime is BargainingRegime.REJECTED
    assert not outcome.accepted
    assert outcome.sigma_d2_star == 0.0
    assert outcome.cond11_lhs == pytest.approx(0.6367241379310344, rel=1e-12)


def test_share_is_one_when_interior_condition_binds():
    # alpha=0 with epsilon=1/2 puts the war-value coefficient exactly at 1/2,
    # where the smallest acceptable share is full cohesiveness
    point = ModelParams(alpha=0.0, lam=0.0, epsilon=0.5, delta=0.5, rho=0.4,
                        mu=0.1, omega=0.6, sigma_d=0.0, sigma_f=0.1,
                        m=1.0, tau1=0.2)
    assert condition11_lhs(point) == 0.5
    assert equilibrium_share(point) == 1.0


def test_share_never_exceeds_one_just_below_binding():
    # a valid bargaining point one ulp below the binding interior condition;
    # the share formula rounds to 1.0000000000000002 here
    point = ModelParams(alpha=0.6866934810397353, lam=0.23242975395854062,
                        epsilon=0.07549536400281172, delta=0.07549536400281172,
                        rho=0.4819426744054971, mu=0.06740220000187637,
                        omega=0.5008187204504442, sigma_d=0.0,
                        sigma_f=0.4177427191873263, m=1.0, tau1=0.2)
    assert check_bargaining_assumptions(point) == []
    assert condition11_lhs(point) < 0.5
    assert equilibrium_share(point) == 1.0
    outcome = bargaining_outcome(point)
    assert outcome.regime is BargainingRegime.ACCEPTED_POSITIVE
    assert outcome.sigma_d2_star == 1.0


def test_accept_decision_binds_at_equilibrium_share(p1):
    share = bargaining_outcome(p1).sigma_d2_star
    assert o1_accept_decision(p1, share, 0.5)
    slack = inside_value(p1, share, 0.5) - reservation_value(p1, 0.5)
    assert abs(slack) <= 1e-10


def test_accept_decision_rejects_below_binding_offer(p1):
    assert not o1_accept_decision(p1, 0.1, 0.5)


def test_accept_decision_accepts_maximal_offer(p1):
    assert o1_accept_decision(p1, 1.0, 0.5)


def test_accept_decision_tau2_independent(p1):
    for offer in (0.1, 0.21, 0.9):
        reference = o1_accept_decision(p1, offer, 1.0)
        for tau2 in (0.05, 0.4, 0.75):
            assert o1_accept_decision(p1, offer, tau2) == reference


def test_accept_decision_validates_inputs(p1):
    with pytest.raises(ValueError):
        o1_accept_decision(p1, -0.1, 0.5)
    with pytest.raises(ValueError):
        o1_accept_decision(p1, 0.5, 0.0)


def test_offer_beats_rejection_at_equilibrium(p1):
    share = bargaining_outcome(p1).sigma_d2_star
    assert offer_value_I1(p1, share, 0.5) > reject_value_I1(p1, 0.5)


def test_prop5_damped_worked_point(p1, cost):
    result = classify_prop5(p1, cost)
    assert result.case is InvestmentEffect.DAMPED
    assert result.derivative <= 0
    assert result.derivative == pytest.approx(-4.0 / 35.0, abs=1e-6)
    assert not result.corner


def test_prop5_passthrough_at_alpha_zero(cost):
    result = classify_prop5(ALPHA_ZERO, cost)
    assert result.case is InvestmentEffect.PASSTHROUGH
    # zero-share branch: d(tau2*)/d(alpha) = m*(eps-mu)/c, one-sided at alpha=0
    assert result.derivative == pytest.approx(0.2, abs=1e-9)


def test_prop5_war_case_sits_at_corner(cost):
    result = classify_prop5(R4C_POINT, cost)
    assert result.case is InvestmentEffect.WAR
    # war argument m*(-phi*1 - alpha*rho*0 + 1/2) is deeply negative here, so
    # investment is pinned at the corner and the difference quotient is zero
    assert result.corner
    assert result.derivative == 0.0


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_share_valid_and_constraint_binds(trial):
    p = draw_params(seed=61, trial=trial, bargaining=True)
    outcome = bargaining_outcome(p)
    assert 0.0 <= outcome.sigma_d2_star <= 1.0
    if outcome.regime is BargainingRegime.ACCEPTED_POSITIVE:
        slack = (inside_value(p, outcome.sigma_d2_star, 0.5)
                 - reservation_value(p, 0.5))
        assert abs(slack) <= 1e-10
        # the share sits exactly on the indifference boundary, where rounding
        # decides the comparison; a hair above it acceptance must be robust
        assert o1_accept_decision(p, min(outcome.sigma_d2_star + 1e-9, 1.0), 0.5)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_offer_preferred_to_war_in_interior_regime(trial):
    p = draw_params(seed=62, trial=trial, bargaining=True)
    outcome = bargaining_outcome(p)
    if outcome.regime is BargainingRegime.ACCEPTED_POSITIVE:
        assert offer_value_I1(p, outcome.sigma_d2_star, 0.5) \
            >= reject_value_I1(p, 0.5) - 1e-12


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_share_monotone_in_sigma_f_and_alpha(trial):
    p = draw_params(seed=63, trial=trial, bargaining=True)
    outcome = bargaining_outcome(p)
    if outcome.regime is not BargainingRegime.ACCEPTED_POSITIVE:
        return
    h = 1e-5
    for attr in ("sigma_f", "alpha"):
        x = getattr(p, attr)
        if not h <= x <= 1 - h:
            continue
        lo_p, hi_p = p.replace(**{attr: x - h}), p.replace(**{attr: x + h})
        lo_o, hi_o = bargaining_outcome(lo_p), bargaining_outcome(hi_p)
        if not (lo_o.regime is outcome.regime is hi_o.regime):
            continue  # probe crossed a regime boundary; slope undefined there
        assert hi_o.sigma_d2_star - lo_o.sigma_d2_star > 0


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_higher_alpha_shrinks_interior_condition_set(trial):
    p = draw_params(seed=64, trial=trial, bargaining=True)
    if p.alpha > 0.95:
        return
    bumped = p.replace(alpha=p.alpha + 0.05)
    # satisfying the interior condition at the higher alpha implies
    # satisfying it at the lower one (the LHS increases with alpha here)
    if condition11_lhs(bumped) <= 0.5:
        assert condition11_lhs(p) <= 0.5 + 1e-12


def test_prop5_case_matches_regime_on_draws():
    for trial in range(200):
        p = draw_params(seed=65, trial=trial, bargaining=True)
        outcome = bargaining_outcome(p)
        result = classify_prop5(p, CostSpec(kind="quadratic", c=1.0))
        expected = {
            BargainingRegime.ACCEPTED_POSITIVE: InvestmentEffect.DAMPED,
            BargainingRegime.ACCEPTED_ZERO: InvestmentEffect.PASSTHROUGH,
            BargainingRegime.REJECTED: InvestmentEffect.WAR,
        }[outcome.regime]
        assert result.case is expected
