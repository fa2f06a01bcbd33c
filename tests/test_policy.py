"""Per-period policies, indirect utilities, and the expected-utility mixtures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiscap import (CostSpec, InfeasibleInvestment, ModelParams, OutcomeKind,
                    expected_utility_I1, expected_utility_O1, indirect_utility,
                    period1_policy, period2_policy)

from conftest import draw_params

ALL_KINDS = list(OutcomeKind)
# the period2_policy field paid to each viewer's group under each ruler
OWN_TRANSFER = {
    ("I1", OutcomeKind.INCUMBENT_RETAINS): "r_inc",
    ("I1", OutcomeKind.OPPOSITION_RULES): "r_opp",
    ("I1", OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION): "r_opp",
    ("I1", OutcomeKind.FOREIGN_ADMINISTRATION): "r_inc",  # always 0: I1 gets nothing
    ("O1", OutcomeKind.INCUMBENT_RETAINS): "r_opp",
    ("O1", OutcomeKind.OPPOSITION_RULES): "r_inc",
    ("O1", OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION): "r_inc",
    ("O1", OutcomeKind.FOREIGN_ADMINISTRATION): "r_opp",
}


def test_period2_incumbent_retains_worked_point():
    out = period2_policy(OutcomeKind.INCUMBENT_RETAINS, tau2=0.4, sigma_d=0.3,
                         sigma_f=0.1, m=1.0)
    assert out.t == 0.4
    assert out.r_inc == pytest.approx(0.615385, abs=5e-7)
    assert out.r_opp == pytest.approx(0.184615, abs=5e-7)
    assert out.r_f == 0.0
    assert out.r_opp == pytest.approx(0.3 * out.r_inc, rel=1e-15)
    assert (out.r_inc + out.r_opp) / 2 == pytest.approx(0.4, rel=1e-15)


def test_period2_foreign_administration_worked_point():
    out = period2_policy(OutcomeKind.FOREIGN_ADMINISTRATION, tau2=0.4,
                         sigma_d=0.3, sigma_f=0.1, m=1.0)
    assert out.r_f == pytest.approx(0.380952, abs=5e-7)
    assert out.r_opp == pytest.approx(0.038095, abs=5e-7)
    assert out.r_inc == 0.0
    assert out.r_opp == pytest.approx(0.1 * out.r_f, rel=1e-15)


def test_period2_post_revolution_pays_loser_nothing():
    out = period2_policy(OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION,
                         tau2=0.4, sigma_d=0.3, sigma_f=0.1, m=1.0)
    assert out.r_inc == pytest.approx(0.8, rel=1e-15)
    assert out.r_opp == 0.0 and out.r_f == 0.0


def test_period2_zero_capacity_zero_transfers():
    for kind in ALL_KINDS:
        out = period2_policy(kind, tau2=0.0, sigma_d=0.3, sigma_f=0.1, m=1.0)
        assert out.t == 0.0
        assert out.r_inc == out.r_opp == out.r_f == 0.0


def test_period2_rejects_out_of_range_tau2():
    with pytest.raises(ValueError):
        period2_policy(OutcomeKind.INCUMBENT_RETAINS, tau2=1.2, sigma_d=0.3,
                       sigma_f=0.1, m=1.0)


def test_period1_worked_point(cost):
    out = period1_policy(tau1=0.2, tau2=0.462, sigma_d=0.2, m=1.0, cost=cost)
    assert out.t == 0.2
    assert out.invest_cost == pytest.approx(0.034322, abs=5e-7)
    assert out.r_inc == pytest.approx(0.276130, abs=5e-7)
    assert out.r_opp == pytest.approx(0.055226, abs=5e-7)
    assert out.r_f == 0.0


def test_period1_zero_investment():
    out = period1_policy(tau1=0.2, tau2=0.2, sigma_d=0.5, m=1.0,
                         cost=CostSpec(kind="quadratic", c=1.0))
    assert out.invest_cost == 0.0
    assert out.r_inc == pytest.approx(0.266667, abs=5e-7)
    assert out.r_opp == pytest.approx(0.133333, abs=5e-7)


def test_period1_infeasible_investment_raises(cost):
    with pytest.raises(InfeasibleInvestment):
        period1_policy(tau1=0.1, tau2=0.9, sigma_d=0.2, m=1.0, cost=cost)


@given(st.integers(0, 10 ** 6), st.sampled_from(ALL_KINDS))
def test_period2_budget_identity(trial, kind):
    p = draw_params(seed=21, trial=trial)
    tau2 = (trial % 97) / 96.0
    out = period2_policy(kind, tau2, p.sigma_d, p.sigma_f, p.m)
    assert abs(out.budget_gap(p.m)) <= 1e-12


@given(st.integers(0, 10 ** 6))
def test_period1_budget_identity(trial):
    p = draw_params(seed=22, trial=trial)
    cost = CostSpec(kind="quadratic", c=2.0)
    # pick a tau2 that is always affordable: cost c*x^2/2 <= tau1*m
    x = min(1.0 - p.tau1, 0.9 * np.sqrt(2.0 * p.tau1 * p.m / 2.0))
    out = period1_policy(p.tau1, p.tau1 + x, p.sigma_d, p.m, cost)
    assert abs(out.budget_gap(p.m)) <= 1e-12


def test_indirect_utility_worked_points(p0c):
    params = p0c.replace(sigma_d=0.3)
    assert indirect_utility("O1", OutcomeKind.OPPOSITION_RULES, 0.4, params) \
        == pytest.approx(1.215385, abs=5e-7)
    foreign = p0c.replace(sigma_f=0.1)
    assert indirect_utility("O1", OutcomeKind.FOREIGN_ADMINISTRATION, 0.4, foreign) \
        == pytest.approx(0.638095, abs=5e-7)
    for kind in ALL_KINDS:
        assert indirect_utility("I1", kind, 0.0, p0c) == 1.0


def test_indirect_utility_foreign_leaves_old_incumbent_base_income(p0c):
    assert indirect_utility("I1", OutcomeKind.FOREIGN_ADMINISTRATION, 0.4, p0c) \
        == pytest.approx((1 - 0.4) * p0c.m, rel=1e-15)


def test_indirect_utility_rejects_unknown_viewer(p0c):
    with pytest.raises(ValueError):
        indirect_utility("F", OutcomeKind.INCUMBENT_RETAINS, 0.4, p0c)


def test_expected_utility_o1_war_mixture_worked_point():
    # alpha=0 collapses the mixture to the civil-war-only branch:
    # delta*W(opposition rules) + (1-delta)*W(incumbent retains)
    params = ModelParams(alpha=0.0, lam=0.0, epsilon=0.3, delta=0.4, rho=0.5,
                         mu=0.1, omega=0.5, sigma_d=0.3, sigma_f=0.1,
                         m=1.0, tau1=0.2)
    value = expected_utility_O1(params, 0.4, war=True)
    assert value == pytest.approx(0.9569230769230769, rel=1e-12)


def test_expected_utility_zero_capacity_is_base_income(p0c):
    for war in (False, True):
        assert expected_utility_O1(p0c, 0.0, war) == pytest.approx(p0c.m, rel=1e-15)


def test_expected_utility_o1_peace_beats_war_on_cohesive_point(p0a):
    peace = expected_utility_O1(p0a, 0.5, war=False)
    war = expected_utility_O1(p0a, 0.5, war=True)
    assert peace > war


def test_expected_utility_i1_direct_substitution(p0c, cost):
    # at tau2 = tau1 the investment is free, so the total splits into the
    # period-1 corner value plus the period-2 mixture, each checkable by hand
    value = expected_utility_I1(p0c, cost, p0c.tau1, war=False)
    period1 = (1 - p0c.tau1) * p0c.m + 2 * p0c.tau1 * p0c.m / (1 + p0c.sigma_d)
    w_keep = indirect_utility("I1", OutcomeKind.INCUMBENT_RETAINS, p0c.tau1, p0c)
    w_lose = indirect_utility("I1", OutcomeKind.OPPOSITION_RULES, p0c.tau1, p0c)
    w_foreign = indirect_utility("I1", OutcomeKind.FOREIGN_ADMINISTRATION,
                                 p0c.tau1, p0c)
    mix = (p0c.alpha * (p0c.mu * p0c.lam * w_lose + (1 - p0c.mu) * w_keep
                        + p0c.mu * (1 - p0c.lam) * w_foreign)
           + (1 - p0c.alpha) * (p0c.epsilon * w_lose + (1 - p0c.epsilon) * w_keep))
    assert value == pytest.approx(period1 + mix, rel=1e-14)


def test_expected_utility_i1_no_turnover_no_cost(cost):
    # alpha=0 with a certain election outcome keeps the incumbent in place
    params = ModelParams(alpha=0.0, lam=0.0, epsilon=0.011, delta=0.4, rho=0.5,
                         mu=0.01, omega=0.5, sigma_d=0.2, sigma_f=0.1,
                         m=1.0, tau1=0.2)
    value = expected_utility_I1(params, cost, params.tau1, war=False)
    period1 = (1 - 0.2) + 2 * 0.2 / 1.2
    w_keep = indirect_utility("I1", OutcomeKind.INCUMBENT_RETAINS, 0.2, params)
    w_lose = indirect_utility("I1", OutcomeKind.OPPOSITION_RULES, 0.2, params)
    expected = period1 + 0.011 * w_lose + (1 - 0.011) * w_keep
    assert value == pytest.approx(expected, rel=1e-14)


def test_expected_utility_i1_infeasible_raises(p0c, cost):
    with pytest.raises(InfeasibleInvestment):
        expected_utility_I1(p0c, cost, 0.9, war=False)


def test_expected_utility_i1_grid_argmax(p0c, cost):
    grid = np.arange(0.2, 0.8321, 1e-4)
    values = expected_utility_I1(p0c, cost, grid, war=False)
    best = grid[int(np.argmax(values))]
    assert best == pytest.approx(0.462, abs=1e-4)


def test_expected_utility_vectorized_matches_scalar(p0c, cost):
    grid = np.array([0.2, 0.3, 0.45])
    vec = expected_utility_I1(p0c, cost, grid, war=False)
    scalars = [expected_utility_I1(p0c, cost, t, war=False) for t in grid]
    assert np.array_equal(vec, np.array(scalars))
    vec_o1 = expected_utility_O1(p0c, grid, war=True)
    scalars_o1 = [expected_utility_O1(p0c, t, war=True) for t in grid]
    assert np.array_equal(vec_o1, np.array(scalars_o1))
    # the payoff contract on a sampled point, whose fields are np.float64:
    # after-tax income plus the transfer period2_policy pays the viewer's group
    p = draw_params(seed=14)
    assert type(p.sigma_d) is np.float64
    taus = (0.0, 0.37, 1.0)
    for (viewer, kind), field in OWN_TRANSFER.items():
        scalars = []
        for t in taus:
            transfer = getattr(period2_policy(kind, t, p.sigma_d, p.sigma_f, p.m), field)
            for tau2 in (t, np.float64(t), np.array(t)):
                w = indirect_utility(viewer, kind, tau2, p)
                assert type(w) is float
                assert w == (1.0 - t) * p.m + transfer
            scalars.append(w)
        assert np.array_equal(indirect_utility(viewer, kind, np.array(taus), p), scalars)
    grid = p.tau1 + np.array([0.0, 0.05, 0.1])
    for war in (False, True):
        scalars = [expected_utility_I1(p, cost, t, war) for t in grid.tolist()]
        assert np.array_equal(expected_utility_I1(p, cost, grid, war), scalars)
        for tau2 in (grid[1], np.array(grid[1]), float(grid[1])):
            assert type(expected_utility_I1(p, cost, tau2, war)) is float


def test_transfer_rules_reject_a_ruler_that_is_not_an_outcome_kind(p0c):
    # the strings solve_report prints name the rulers; they are not rulers
    for kind in ALL_KINDS:
        with pytest.raises(ValueError, match="OutcomeKind"):
            period2_policy(kind.value, 0.4, 0.2, 0.05, 1.0)
        for viewer in ("I1", "O1"):
            with pytest.raises(ValueError, match="OutcomeKind"):
                indirect_utility(viewer, kind.value, 0.4, p0c)


@given(st.integers(0, 10 ** 6))
def test_utilities_affine_in_tau2(trial):
    p = draw_params(seed=23, trial=trial)
    ts = np.array([0.1, 0.5, 0.9])
    for viewer in ("I1", "O1"):
        for kind in ALL_KINDS:
            w = indirect_utility(viewer, kind, ts, p)
            # exact three-point collinearity for an affine function
            assert w[1] - w[0] == pytest.approx(w[2] - w[1], abs=1e-12)


@given(st.integers(0, 10 ** 6))
def test_war_peace_gap_sign_is_tau2_invariant(trial):
    p = draw_params(seed=24, trial=trial)
    ref = expected_utility_O1(p, 1.0, True) - expected_utility_O1(p, 1.0, False)
    for t in (0.1, 0.5, 0.9):
        gap = expected_utility_O1(p, t, True) - expected_utility_O1(p, t, False)
        assert np.sign(gap) == np.sign(ref) or abs(ref) <= 1e-12


@given(st.integers(0, 10 ** 6))
def test_scale_invariance_in_m(trial):
    p = draw_params(seed=25, trial=trial)
    k = 3.5
    scaled = p.replace(m=p.m * k)
    for war in (False, True):
        assert expected_utility_O1(scaled, 0.6, war) \
            == pytest.approx(k * expected_utility_O1(p, 0.6, war), rel=1e-12)
    for kind in ALL_KINDS:
        out = period2_policy(kind, 0.6, p.sigma_d, p.sigma_f, p.m)
        big = period2_policy(kind, 0.6, p.sigma_d, p.sigma_f, p.m * k)
        for field in ("r_inc", "r_opp", "r_f"):
            assert getattr(big, field) == pytest.approx(
                k * getattr(out, field), rel=1e-12)
