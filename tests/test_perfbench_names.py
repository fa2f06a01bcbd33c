"""perfbench's tracer finds every fiscap function it times.

perfbench/tracer.py looks its TRACED names up with getattr and rebinds them
in every fiscap module by identity. A renamed or deleted name breaks every
traced benchmark run, and a call made through a reference captured at import
time escapes the trace; both show up here in seconds.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fiscap import CostSpec
from fiscap.cli import solve_report

from conftest import regime_map_point

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
