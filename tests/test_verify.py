"""The randomized property harness: determinism, accounting, and clean runs."""

import pytest

from fiscap import PROPERTY_NAMES, render_report, run_trials


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


def test_small_run_passes_with_full_accounting():
    trials = 60
    report = run_trials(trials, seed=42)
    assert report.failures == 0
    assert set(report.properties) == set(PROPERTY_NAMES)
    for name, stats in report.properties.items():
        assert stats.passed + stats.failed + stats.skipped == trials, name
    assert sum(v for k, v in report.regime_counts.items()
               if k.startswith("regime[")) == trials
    assert sum(v for k, v in report.regime_counts.items()
               if k.startswith("bargaining[")) == trials


def test_report_is_deterministic_across_runs():
    base = render_report(run_trials(40, seed=7))
    again = render_report(run_trials(40, seed=7, workers=1))
    assert base == again


@pytest.mark.parametrize("workers", [0, 2, 4])
def test_workers_other_than_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        run_trials(3, seed=0, workers=workers)


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
