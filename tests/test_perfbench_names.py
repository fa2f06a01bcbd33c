"""perfbench's tracer finds every fiscap function it times.

perfbench/tracer.py looks its TRACED names up with getattr and rebinds them
in every fiscap module by identity. A renamed or deleted name breaks every
traced benchmark run, and a call made through a reference captured at import
time escapes the trace; both show up here in seconds. A small traced sweep
checks the per-point call rates behind the regime-map counts that
perfbench/check.py pins, which take half a minute to trace in full. The
benchmark's verify gate (perfbench/gate.py) reads the report's property
order and counterexample format; a short run checks that it still does.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from fiscap import CostSpec, parse_config_text, validate_params
from fiscap.cli import parse_axis, solve_report, sweep_rows
from fiscap.verify import PROPERTY_NAMES, render_report, run_trials

from conftest import REGIME_MAP_CONFIG, regime_map_point

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def gate():
    return _load("gate")


def test_every_traced_name_resolves(tracer):
    missing = []
    for module_name, names in tracer.TRACED.items():
        module = importlib.import_module(f"fiscap.{module_name}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_traced_solves_record_their_calls(tracer):
    spans = tracer.Spans()
    point = regime_map_point(epsilon=0.3, sigma_d=0.5)
    with tracer.install(spans):
        for variant in ("baseline", "revolution"):
            solve_report(point, CostSpec(kind="quadratic", c=1.0), variant)
    per_function, _ = tracer.summarize(spans)
    calls = {name: stats["calls"] for name, stats in per_function.items()}
    assert calls["fiscal.solve_equilibrium"] == 1
    assert calls["revolution.revolution_solve"] == 1
    assert calls["statics.classify"] == 1
    # one war decision in the baseline solve, one more in classify
    assert calls["conflict.civil_war_decision"] == 2
    # each solve reaches the investment problem once, on its own branch
    assert calls["fiscal.optimal_tau2"] + calls["revolution.variant_war_tau2"] == 2


def test_traced_sweep_call_rates(tracer):
    # 5x5 points of the regime map; epsilon=0.1 violates epsilon > mu, so
    # 20 points are valid
    base = validate_params(parse_config_text(REGIME_MAP_CONFIG.read_text()))
    axis1, axis2 = parse_axis("sigma_d=0:1:0.25"), parse_axis("epsilon=0.1:0.5:0.1")
    spans = tracer.Spans()
    with tracer.install(spans):
        sweep_rows(base, CostSpec(kind="quadratic", c=1.0), axis1, axis2)
    per_function, _ = tracer.summarize(spans)
    assert per_function["params.validate_params"]["calls"] == 25
    assert per_function["params.validate_params"]["raised"] == 5
    # two war decisions and 18 indirect utilities per valid point
    assert per_function["conflict.civil_war_decision"]["calls"] == 40
    assert per_function["policy.indirect_utility"]["calls"] == 360


def test_verify_gate_accepts_a_clean_run(gate):
    # seed 5: the gate checks accounting and counterexamples but no
    # reference digest, which exists for seed 0's 1000 trials only
    trials = 30
    report = run_trials(trials, 5, max_counterexamples=trials * len(PROPERTY_NAMES))
    verify_gate = gate.VerifyGate("verify", 5, SimpleNamespace(trials=trials))
    assert verify_gate.check(report, render_report(report)) == 0


def test_verify_gate_forgives_the_zero_cohesion_false_alarm(gate):
    report = run_trials(14, 0)
    [entry] = report.counterexamples
    match = gate.CEX.match(entry)
    assert match.group(1, 2) == ("variant_equal_at_zero_cohesion", "13")
    assert gate.is_false_alarm(match.group(1), match.group(3))
