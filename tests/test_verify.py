"""The randomized property harness: determinism, accounting, and clean runs."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fiscap import (PROPERTY_NAMES, OutcomeKind, TurnoverResponse, civil_war_threshold,
                    investment_condition, render_report, run_trials, solve_equilibrium,
                    verify)
from fiscap.fiscal import GRID_STEP
from fiscap.verify import PROPERTIES, _make_trial, _near_label_boundary

from conftest import regime_map_point


def test_zero_trials_gives_empty_passing_report():
    report = run_trials(0, seed=0)
    assert report.failures == 0
    assert all(s.passed == s.failed == s.skipped == 0
               for s in report.properties.values())
    text = render_report(report)
    assert "trials=0" in text
    assert text.endswith("result: PASS (0 failing checks)")


def test_negative_trials_rejected():
    with pytest.raises(ValueError, match="trials"):
        run_trials(-3, seed=0)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_trials(0, seed=-1)


def test_small_run_passes_with_full_accounting():
    trials = 60
    report = run_trials(trials, seed=42)
    assert report.failures == 0
    # perfbench/gate.py compares the report's keys with PROPERTY_NAMES as a list
    assert type(PROPERTY_NAMES) is list
    assert list(report.properties) == PROPERTY_NAMES
    # one name per registered function; the digest below pins their order
    assert PROPERTY_NAMES == [prop.__name__ for prop in PROPERTIES]
    assert len(set(PROPERTY_NAMES)) == len(PROPERTY_NAMES) == 24
    for name, stats in report.properties.items():
        assert stats.passed + stats.failed + stats.skipped == trials, name
    assert sum(v for k, v in report.regime_counts.items()
               if k.startswith("regime[")) == trials
    assert sum(v for k, v in report.regime_counts.items()
               if k.startswith("bargaining[")) == trials
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == (
        "81c5252039cc6953fe56fd26a85c0c94d2dc94f73ccebd6ed920779b5b6ada4f")


def test_report_is_deterministic_across_runs():
    base = render_report(run_trials(40, seed=7))
    again = render_report(run_trials(40, seed=7, workers=1))
    assert base == again


@pytest.mark.parametrize("workers", [0, 2, 4])
def test_workers_other_than_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        run_trials(3, seed=0, workers=workers)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="revolutoin"):
        run_trials(3, seed=0, variant="revolutoin")


def test_different_seeds_sample_different_points():
    a = run_trials(25, seed=1)
    b = run_trials(25, seed=2)
    assert a.regime_counts != b.regime_counts


def test_variant_suite_runs_clean():
    report = run_trials(40, seed=13, variant="revolution")
    assert report.failures == 0
    assert "variant=revolution" in render_report(report)
    for name, stats in report.properties.items():
        assert stats.passed + stats.failed + stats.skipped == 40, name
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == (
        "45ef0779494ba145ec0d3e75e9b62c88660d546ae927b4391ffaf2088496c5f8")



def test_fd_sign_guard_near_label_boundaries(p0c, cost):
    # sigma_f on the war threshold (0.345 at this point, inside [0, 1])
    base = regime_map_point(epsilon=0.3, sigma_d=0.7)
    on_threshold = base.replace(sigma_f=civil_war_threshold(base))
    # sigma_d with (eps - mu) = sigma_d*(eps - lam*mu) to rounding
    knife_edge = p0c.replace(
        sigma_d=(p0c.epsilon - p0c.mu) / (p0c.epsilon - p0c.lam * p0c.mu))
    assert abs(investment_condition(knife_edge)) <= 1e-15
    for point, guarded in ((on_threshold, True), (knife_edge, True),
                           (base, False), (p0c, False)):
        result = solve_equilibrium(point, cost)
        assert _near_label_boundary(point, cost, result) == guarded


def _shift_tau2(sol):
    return replace(sol, tau2_star=sol.tau2_star + 10 * GRID_STEP)


def _unbalance_period2(t):
    kind = OutcomeKind.INCUMBENT_RETAINS
    pol = t.result.period2_by_kind[kind]
    by_kind = {**t.result.period2_by_kind, kind: replace(pol, r_inc=pol.r_inc + 1e-6)}
    return replace(t, result=replace(t.result, period2_by_kind=by_kind))


def _flip_turnover_label(t):
    up = t.labels.prop1 is TurnoverResponse.UP
    return replace(t, labels=t.labels._replace(
        prop1=TurnoverResponse.DOWN if up else TurnoverResponse.UP))


# each property against one field of a trial broken the way the property
# exists to catch
BREAKS = [
    (verify.budget_identity, _unbalance_period2),
    (verify.threshold_decision_agreement,
     lambda t: replace(t, result=replace(t.result, gamma=1 - t.result.gamma))),
    (verify.oracle_equivalence, lambda t: replace(t, sol=_shift_tau2(t.sol))),
    (verify.second_order_condition,
     lambda t: replace(t, eu_I1=lambda params, cost, tau2, war: np.asarray(tau2) ** 2)),
    (verify.maximality, lambda t: replace(t, sol=_shift_tau2(t.sol))),
    (verify.corner_consistency,
     lambda t: replace(t, sol=replace(t.sol, flags=replace(
         t.sol.flags, corner=not t.sol.flags.corner)))),
    (verify.regime_fd_signs, _flip_turnover_label),
    (verify.bargain_share_valid,
     lambda t: replace(t, outcome=replace(t.outcome,
                                          sigma_d2_star=t.outcome.sigma_d2_star / 2))),
    (verify.variant_threshold_ordering,
     lambda t: replace(t, vresult=replace(t.vresult,
                                          sigma_f_bar=t.result.sigma_f_bar + 0.1))),
    (verify.variant_peace_identity, lambda t: replace(t, vresult=_shift_tau2(t.vresult))),
    (verify.variant_oracle_equivalence,
     lambda t: replace(t, vresult=_shift_tau2(t.vresult))),
]


@pytest.mark.parametrize("prop, break_trial", BREAKS,
                         ids=[prop.__name__ for prop, _ in BREAKS])
def test_property_fails_on_a_broken_trial(prop, break_trial):
    # the first seed-0 trial on which the property passes
    trial = next(t for t in (_make_trial(i, 0, "baseline") for i in range(100))
                 if prop(t) is not None and prop(t)[0])
    outcome = prop(break_trial(trial))
    assert outcome is not None
    passed, detail = outcome
    assert not passed and isinstance(detail, str)
