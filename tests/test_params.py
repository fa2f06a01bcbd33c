"""Validation, config parsing, cost specs, and the parameter sampler."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiscap import (AssumptionViolation, CostSpec, ModelParams, NonConvexCost,
                    check_params, parse_config_text, sample_params,
                    validate_params)

from conftest import REGIME_MAP_BASE, draw_params

VALID_RAW = {
    "alpha": 0.5, "lambda": 0.0, "epsilon": 0.3, "delta": 0.4, "rho": 0.5,
    "mu": 0.1, "omega": 0.5, "sigma_d": 0.9, "sigma_f": 0.1,
    "m": 1.0, "tau1": 0.2,
}


def violation_codes(exc: AssumptionViolation):
    return {v.which for v in exc.violations}


def test_accepts_reference_point():
    params = validate_params(VALID_RAW)
    assert params.alpha == 0.5
    assert params.lam == 0.0
    assert params.tau_max == 1.0  # default fills in


def test_rejects_rho_below_mu():
    raw = dict(VALID_RAW, rho=0.05)
    with pytest.raises(AssumptionViolation) as info:
        validate_params(raw)
    assert "rho_gt_mu" in violation_codes(info.value)
    assert "requires rho > mu" in str(info.value)


def test_rejects_lottery_overflow():
    raw = dict(VALID_RAW, omega=0.7, rho=0.5)
    with pytest.raises(AssumptionViolation) as info:
        validate_params(raw)
    assert "lottery_overflow" in violation_codes(info.value)


def test_rejects_omega_not_above_delta():
    raw = dict(VALID_RAW, omega=0.4, delta=0.4)
    with pytest.raises(AssumptionViolation) as info:
        validate_params(raw)
    assert "omega_gt_delta" in violation_codes(info.value)


def test_bargaining_flag_waives_only_omega_delta():
    raw = dict(VALID_RAW, omega=0.4, delta=0.4)
    params = validate_params(raw, bargaining=True)
    assert params.omega == params.delta == 0.4
    # everything else still enforced under the flag
    with pytest.raises(AssumptionViolation) as info:
        validate_params(dict(raw, rho=0.05), bargaining=True)
    assert "rho_gt_mu" in violation_codes(info.value)


def test_rejects_epsilon_not_above_mu():
    raw = dict(VALID_RAW, epsilon=0.1, mu=0.1)
    with pytest.raises(AssumptionViolation) as info:
        validate_params(raw)
    assert "epsilon_gt_mu" in violation_codes(info.value)


def test_validation_is_total_not_first_failure():
    raw = dict(VALID_RAW, rho=0.05, omega=1.7, epsilon=0.05)
    with pytest.raises(AssumptionViolation) as info:
        validate_params(raw)
    codes = violation_codes(info.value)
    assert {"rho_gt_mu", "epsilon_gt_mu", "range:omega"} <= codes


def test_missing_field_named():
    raw = dict(VALID_RAW)
    del raw["rho"]
    with pytest.raises(AssumptionViolation) as info:
        validate_params(raw)
    assert "missing field: rho" in str(info.value)


def test_unknown_field_named():
    raw = dict(VALID_RAW, gamma=1.0)
    with pytest.raises(AssumptionViolation) as info:
        validate_params(raw)
    assert "unknown field: gamma" in str(info.value)


def test_defaults_m_tau1_tau_max():
    raw = dict(VALID_RAW)
    del raw["m"], raw["tau1"]
    params = validate_params(raw)
    assert params.m == 1.0 and params.tau1 == 0.0 and params.tau_max == 1.0


def test_tau1_above_tau_max_rejected():
    raw = dict(VALID_RAW, tau1=0.8, tau_max=0.5)
    with pytest.raises(AssumptionViolation) as info:
        validate_params(raw)
    assert "range:tau1" in violation_codes(info.value)


def test_rejects_infinite_m():
    for m in (float("inf"), float("nan"), 0.0):
        with pytest.raises(AssumptionViolation) as info:
            validate_params(dict(VALID_RAW, m=m))
        assert "range:m" in violation_codes(info.value)


def test_probability_range_enforced_per_field():
    for field in ("alpha", "lambda", "epsilon", "delta", "rho", "mu", "omega",
                  "sigma_d", "sigma_f"):
        raw = dict(VALID_RAW)
        raw[field] = 1.5
        with pytest.raises(AssumptionViolation) as info:
            validate_params(raw)
        assert f"range:{field}" in violation_codes(info.value)


@pytest.mark.parametrize("build", [
    lambda p: ModelParams(**dict(dataclasses.asdict(p), alpha=2.0)),
    lambda p: p.replace(alpha=2.0),
    lambda p: dataclasses.replace(p, alpha=2.0),
], ids=["constructor", "replace", "dataclasses.replace"])
def test_every_construction_route_checks_ranges(build):
    params = validate_params(VALID_RAW)
    with pytest.raises(AssumptionViolation) as info:
        build(params)
    assert violation_codes(info.value) == {"range:alpha"}


def test_construction_reports_every_bad_range_together():
    with pytest.raises(AssumptionViolation) as info:
        ModelParams(epsilon=-0.1, sigma_d=1.5, **REGIME_MAP_BASE)
    assert violation_codes(info.value) == {"range:epsilon", "range:sigma_d"}


def test_construction_bounds_m():
    base = dict(REGIME_MAP_BASE, m=1e300)
    assert ModelParams(epsilon=0.3, sigma_d=0.9, **base).m == 1e300
    with pytest.raises(AssumptionViolation) as info:
        ModelParams(epsilon=0.3, sigma_d=0.9, **dict(base, m=1e301))
    assert violation_codes(info.value) == {"range:m"}


@given(st.integers(0, 10 ** 6))
def test_sampled_params_always_valid(trial):
    params = draw_params(seed=11, trial=trial)
    assert check_params(params.as_dict()) == []
    # strict inequalities hold with the sampler's margin
    assert params.rho - params.mu >= 0.01
    assert params.omega - params.delta >= 0.01
    assert params.epsilon - params.mu >= 0.01
    assert params.omega + params.rho <= 0.99


@given(st.integers(0, 10 ** 6))
def test_sampled_bargaining_params_satisfy_stage_assumptions(trial):
    params = draw_params(seed=12, trial=trial, bargaining=True)
    assert params.delta == params.epsilon
    assert params.sigma_d == 0.0
    assert params.epsilon <= 0.5 - 0.01
    interior = ((1 - params.alpha) * params.epsilon
                + params.alpha * params.mu * (1 + params.lam) / 2)
    assert interior < 0.5


def test_sampler_is_deterministic_per_seed():
    a = sample_params(np.random.default_rng(7))
    b = sample_params(np.random.default_rng(7))
    assert a == b


# -- config text ---------------------------------------------------------


def test_parse_config_roundtrip():
    text = "\n".join(f"{k} = {v}" for k, v in VALID_RAW.items())
    assert parse_config_text(text) == pytest.approx(VALID_RAW)


def test_parse_config_comments_and_blanks():
    text = "# header\n\nalpha = 0.5  # inline\n\nmu=0.1\n"
    assert parse_config_text(text) == {"alpha": 0.5, "mu": 0.1}


def test_parse_config_bad_line_reports_line_number():
    with pytest.raises(AssumptionViolation) as info:
        parse_config_text("alpha = 0.5\nnot a pair\n")
    assert "line 2" in str(info.value)


def test_parse_config_bad_value_names_key():
    with pytest.raises(AssumptionViolation) as info:
        parse_config_text("alpha = pi\n")
    assert "invalid value for alpha" in str(info.value)


def test_parse_config_duplicate_key_reports_lines():
    with pytest.raises(AssumptionViolation) as info:
        parse_config_text("alpha = 0.5\nmu = 0.1\n# again\nalpha = 0.6\n")
    assert violation_codes(info.value) == {"duplicate:alpha"}
    assert "lines 1, 4" in str(info.value)


# -- cost specs ----------------------------------------------------------


def test_quadratic_cost_value_and_marginal():
    cost = CostSpec(kind="quadratic", c=2.0)
    assert cost.value(0.0) == 0.0
    assert cost.marginal(0.0) == 0.0
    assert cost.value(0.3) == pytest.approx(2.0 * 0.09 / 2)
    assert cost.marginal(0.3) == pytest.approx(0.6)


def test_quadratic_cost_requires_positive_c():
    with pytest.raises(ValueError):
        CostSpec(kind="quadratic", c=0.0)


def test_quadratic_cost_requires_finite_c():
    for c in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            CostSpec(kind="quadratic", c=c)


def test_custom_cost_requires_finite_table():
    inf, nan = float("inf"), float("nan")
    for knots, marginals in (((0.0, 0.5, inf), (0.0, 0.4, 0.8)),
                             ((0.0, 0.5, nan), (0.0, 0.4, 0.8)),
                             ((0.0, 0.5, 1.0), (0.0, 0.4, inf)),
                             ((0.0, 0.5, 1.0), (0.0, nan, 0.8))):
        with pytest.raises(ValueError, match="finite"):
            CostSpec(kind="custom", knots=knots, marginals=marginals)


def test_custom_cost_scalar_and_array_calls_agree():
    # past the last knot too: both calls square the tail term the same way
    cost = CostSpec(kind="custom", knots=(0.0, 0.25, 0.5, 0.75, 1.0),
                    marginals=(0.0, 0.2, 0.5, 0.9, 1.4))
    xs = np.random.default_rng(0).uniform(0.0, 3.0, 20_000)
    values = cost.value(xs)
    assert (xs > 1.0).sum() > 10_000
    assert all(cost.value(float(x)) == v for x, v in zip(xs, values))


def test_custom_cost_matches_quadratic_on_linear_marginal():
    # marginal 2x tabulated on a grid reproduces C(x) = x^2 exactly
    knots = tuple(np.linspace(0.0, 1.0, 11))
    cost = CostSpec(kind="custom", knots=knots,
                    marginals=tuple(2.0 * x for x in knots))
    for x in (0.0, 0.05, 0.31, 0.77, 1.0):
        assert cost.value(x) == pytest.approx(x ** 2, abs=1e-12)
        assert cost.marginal(x) == pytest.approx(2.0 * x, abs=1e-12)
    # linear extension beyond the last knot stays exact for this marginal
    assert cost.value(1.5) == pytest.approx(1.5 ** 2, abs=1e-12)
    # the table cached by those calls is not a field: the used spec still
    # equals, hashes and prints like a fresh one
    fresh = CostSpec(kind="custom", knots=knots,
                     marginals=tuple(2.0 * x for x in knots))
    assert cost == fresh and hash(cost) == hash(fresh)
    assert repr(cost) == repr(fresh)
    assert re.findall(r"(\w+)=", repr(cost)) == ["kind", "c", "knots", "marginals"]


def test_custom_cost_rejects_nonconvex_table():
    with pytest.raises(NonConvexCost):
        CostSpec(kind="custom", knots=(0.0, 0.5, 1.0),
                 marginals=(0.0, 0.4, 0.3))


def test_cost_spec_rejects_contradictory_fields():
    for knots, marginals in (((0, 1), (0, 5)), ((0, 1), ()), ((), (0, 5))):
        with pytest.raises(ValueError, match="quadratic cost takes no"):
            CostSpec(kind="quadratic", c=2, knots=knots, marginals=marginals)
    with pytest.raises(ValueError, match="not c=7"):
        CostSpec(kind="custom", c=7, knots=(0, 1), marginals=(0, 5))
    assert CostSpec(kind="custom", c=1, knots=(0, 1), marginals=(0, 5)).value(0.5) == 0.625


def test_cost_spec_rejects_malformed_tables():
    with pytest.raises(ValueError, match="unknown cost kind"):
        CostSpec(kind="cubic")
    with pytest.raises(ValueError, match="matching"):
        CostSpec(kind="custom", knots=(0.0, 0.5, 1.0), marginals=(0.0, 0.4))
    with pytest.raises(ValueError, match="knots must be strictly increasing"):
        CostSpec(kind="custom", knots=(0.0, 0.5, 0.5), marginals=(0.0, 0.4, 0.8))


def test_custom_cost_requires_zero_marginal_at_zero():
    with pytest.raises(ValueError):
        CostSpec(kind="custom", knots=(0.0, 1.0), marginals=(0.1, 0.5))


def test_cost_value_rejects_negative_investment():
    cost = CostSpec(kind="quadratic", c=1.0)
    with pytest.raises(ValueError):
        cost.value(-0.1)


def test_regime_map_base_point_constructs():
    params = ModelParams(epsilon=0.3, sigma_d=0.9, **REGIME_MAP_BASE)
    assert check_params(params.as_dict()) == []
