"""Command surface: solve, sweep, verify, bargain; exit codes and formats."""

import hashlib
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fiscap import cli
from fiscap.cli import (CSV_HEADER, MAX_AXIS_POINTS, bargain_report, main,
                        parse_axis, parse_cost, solve_report, sweep_rows,
                        write_sweep_csv)
from fiscap import AssumptionViolation, CostSpec, solve_equilibrium, validate_params

from conftest import REGIME_MAP_CONFIG, draw_params, regime_map_point

P0C_TEXT = """\
# interior-investment point
alpha = 0.2
lambda = 0
epsilon = 0.2
delta = 0.1
rho = 0.4
mu = 0.05
omega = 0.3
sigma_d = 0.2
sigma_f = 0.05
m = 1
tau1 = 0.2
"""

P1_TEXT = """\
alpha = 0.3
lambda = 0
epsilon = 0.3
delta = 0.3
rho = 0.4
mu = 0.1
omega = 0.3
sigma_d = 0
sigma_f = 0.1
m = 1
tau1 = 0.2
"""

# regime-map base point; the swept sigma_d and epsilon values replace these
REGIME_MAP_TEXT = REGIME_MAP_CONFIG.read_text()


@pytest.fixture
def p0c_config(tmp_path):
    path = tmp_path / "p0c.cfg"
    path.write_text(P0C_TEXT)
    return str(path)


@pytest.fixture
def p1_config(tmp_path):
    path = tmp_path / "p1.cfg"
    path.write_text(P1_TEXT)
    return str(path)


def test_solve_reports_worked_point(p0c_config, capsys):
    assert main(["solve", "--config", p0c_config]) == 0
    out = capsys.readouterr().out
    assert "gamma=0 phi=0.170000 tau2_star=0.462000 prop2=2.B.1" in out
    assert "sigma_f_bar=1.111111" in out
    assert "prop1=down prop3=3.B.1" in out
    assert "corner=0 clamped=0" in out
    assert "period1: t=0.200000" in out
    assert "invest_cost=0.034322" in out
    assert "period2[incumbent_retains]:" in out


def test_solve_missing_field_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text(P0C_TEXT.replace("rho = 0.4\n", ""))
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "missing field: rho" in err


def test_solve_violated_inequality_exits_one(tmp_path, capsys):
    path = tmp_path / "badrho.cfg"
    path.write_text(P0C_TEXT.replace("rho = 0.4", "rho = 0.01"))
    assert main(["solve", "--config", str(path)]) == 1
    assert "requires rho > mu" in capsys.readouterr().err


def test_solve_unreadable_config_exits_one(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_revolution_variant(p0c_config, capsys):
    assert main(["solve", "--config", p0c_config,
                 "--variant", "revolution"]) == 0
    out = capsys.readouterr().out
    assert "gamma=1 phi=0.220000 tau2_star=0.380000 prop2=2.A" in out
    assert "sigma_f_bar=0.048780" in out
    assert "period2[opposition_rules_post_revolution]:" in out


def test_bargain_reports_worked_point(p1_config, capsys):
    assert main(["bargain", "--config", p1_config]) == 0
    out = capsys.readouterr().out
    assert "regime=4.A sigma_d2_star=0.206897 prop5=5.A" in out
    assert "accepted=1" in out
    assert "cond11_lhs=0.319286" in out


def test_bargain_rejects_epsilon_delta_gap(tmp_path, capsys):
    path = tmp_path / "gap.cfg"
    path.write_text(P1_TEXT.replace("delta = 0.3", "delta = 0.4"))
    assert main(["bargain", "--config", str(path)]) == 1
    assert "requires epsilon = delta" in capsys.readouterr().err
    # every field present and in range: the model's violations and the stage's
    # come in one error line, the model's first
    path.write_text(P1_TEXT.replace("epsilon = 0.3", "epsilon = 0.6")
                    .replace("rho = 0.4", "rho = 0.05"))
    assert main(["bargain", "--config", str(path)]) == 1
    assert capsys.readouterr().err == ("error: requires rho > mu; requires epsilon <= 1/2; "
                                       "requires epsilon = delta\n")


def test_bargain_alpha_zero_regime(tmp_path, capsys):
    path = tmp_path / "a0.cfg"
    path.write_text(P1_TEXT.replace("alpha = 0.3", "alpha = 0")
                    .replace("omega = 0.3", "omega = 0.5"))
    assert main(["bargain", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "regime=4.B sigma_d2_star=0.000000 prop5=5.B" in out


def test_parse_cost_forms():
    assert parse_cost("quadratic:c=2.5") == CostSpec(kind="quadratic", c=2.5)
    for bad in ("cubic:c=1", "quadratic:k=1", "quadratic:c=abc"):
        with pytest.raises(ValueError):
            parse_cost(bad)


def test_parse_axis_inclusive_endpoints():
    axis = parse_axis("sigma_d=0:1:0.25")
    assert axis.name == "sigma_d"
    assert axis.values == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))
    single = parse_axis("epsilon=0.3:0.3:0.1")
    assert single.values == (0.3,)


def test_parse_axis_rejects_bad_specs():
    for bad in ("sigma_d=0:1", "notafield=0:1:0.5", "sigma_d=1:0:0.5",
                "sigma_d=0:1:0", "sigma_d=0:1:x"):
        with pytest.raises(ValueError):
            parse_axis(bad)


@pytest.mark.parametrize("bad", [
    "sigma_d=0:inf:0.5", "sigma_d=-inf:1:0.5", "sigma_d=0:1:inf",
    "sigma_d=nan:1:0.5", "sigma_d=0:nan:0.5", "sigma_d=0:1:nan"])
def test_parse_axis_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="bad axis range"):
        parse_axis(bad)


def test_parse_axis_caps_point_count(monkeypatch):
    assert len(parse_axis(f"m=1:{MAX_AXIS_POINTS}:1").values) == MAX_AXIS_POINTS
    with pytest.raises(ValueError, match="more than"):
        parse_axis(f"m=1:{MAX_AXIS_POINTS + 1}:1")

    # fail instead of allocating should the cap ever be checked too late
    def bounded_range(n):
        assert n <= MAX_AXIS_POINTS, f"range({n}) built"
        return range(n)

    monkeypatch.setattr(cli, "range", bounded_range, raising=False)
    for oversized in ("sigma_d=0:1:1e-12", "sigma_d=-1e308:1e308:1"):
        with pytest.raises(ValueError, match="more than"):
            parse_axis(oversized)


def test_sweep_infinite_axis_exits_one(p0c_config, tmp_path, capsys):
    out_path = tmp_path / "never.csv"
    assert main(["sweep", "--config", p0c_config,
                 "--axis1", "sigma_d=0:inf:0.5", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert not out_path.exists()


def test_sweep_same_field_on_both_axes_exits_one(p0c_config, tmp_path, capsys):
    # axis2 would overwrite axis1, so the axis1 column would name unused values
    out_path = tmp_path / "never.csv"
    assert main(["sweep", "--config", p0c_config,
                 "--axis1", "sigma_d=0:1:0.5", "--axis2", "sigma_d=0.2:0.3:0.1",
                 "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "sigma_d" in captured.err
    assert not out_path.exists()
    base = regime_map_point(epsilon=0.3, sigma_d=0.5)
    with pytest.raises(ValueError, match="sigma_d"):
        sweep_rows(base, CostSpec(), parse_axis("sigma_d=0:1:0.5"),
                   parse_axis("sigma_d=0.2:0.3:0.1"))


def test_sweep_rows_accepts_only_one_worker(cost):
    base = regime_map_point(epsilon=0.3, sigma_d=0.5)
    axis1 = parse_axis("sigma_d=0.3:0.9:0.3")
    assert sweep_rows(base, cost, axis1, None, workers=1) == sweep_rows(
        base, cost, axis1, None)
    for workers in (0, 2, 4):
        with pytest.raises(ValueError, match="workers"):
            sweep_rows(base, cost, axis1, None, workers=workers)


def test_sweep_rows_rejects_unknown_variant(cost):
    base = regime_map_point(epsilon=0.3, sigma_d=0.5)
    with pytest.raises(ValueError, match="revolutoin"):
        sweep_rows(base, cost, parse_axis("sigma_d=0.3:0.9:0.3"), None,
                   variant="revolutoin")


def test_solve_report_rejects_unknown_variant(p0c, cost):
    with pytest.raises(ValueError, match="revolutoin"):
        solve_report(p0c, cost, "revolutoin")


def test_sweep_writes_expected_csv(p0c_config, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", p0c_config,
                 "--axis1", "sigma_d=0.2:0.2:0.1", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "0.200000"
    assert row[1] == ""  # no second axis
    assert row[2] == "0"
    assert row[3] == "1.111111"
    assert row[4] == "0.170000"
    assert row[5] == "0.462000"
    assert row[6:9] == ["down", "2.B.1", "3.B.1"]
    assert row[9:12] == ["0", "0", "ok"]


def test_sweep_rows_match_solve(cost):
    base = regime_map_point(epsilon=0.3, sigma_d=0.5)
    axis1 = parse_axis("sigma_d=0.3:0.9:0.3")
    rows = sweep_rows(base, cost, axis1, None)
    for value, row in zip(axis1.values, rows):
        res = solve_equilibrium(base.replace(sigma_d=value), cost)
        fields = row.split(",")
        assert fields[2] == str(res.gamma)
        assert fields[5] == f"{res.tau2_star:.6f}"
        assert fields[11] == "ok"


def test_sweep_marks_invalid_points(tmp_path, p0c_config):
    out_path = tmp_path / "invalid.csv"
    # epsilon <= mu at the low end of this axis
    assert main(["sweep", "--config", p0c_config,
                 "--axis1", "epsilon=0.05:0.25:0.1",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "0.050000,,,,,,,,,,,invalid"
    assert lines[2].endswith(",ok") and lines[3].endswith(",ok")


def test_sweep_two_axes_row_major_and_deterministic(p0c_config, tmp_path):
    args = ["sweep", "--config", p0c_config,
            "--axis1", "sigma_d=0:1:0.5", "--axis2", "epsilon=0.1:0.3:0.1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + 3 * 3
    # row-major: axis1 varies slowest
    firsts = [line.split(",")[0] for line in lines[1:]]
    assert firsts == ["0.000000"] * 3 + ["0.500000"] * 3 + ["1.000000"] * 3
    seconds = [line.split(",")[1] for line in lines[1:]]
    assert seconds[:3] == ["0.100000", "0.200000", "0.300000"]


def test_revolution_sweep_frozen_oracle(tmp_path):
    # 21x19 regime map under the revolution rule, quadratic cost c=1; the
    # digest pins every row of the CSV the variant writes
    config = tmp_path / "regime_map.cfg"
    config.write_text(REGIME_MAP_TEXT)
    out_path = tmp_path / "revolution.csv"
    assert main(["sweep", "--config", str(config), "--cost", "quadratic:c=1",
                 "--variant", "revolution",
                 "--axis1", "sigma_d=0:1:0.05", "--axis2", "epsilon=0.1:1:0.05",
                 "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "e0cad1a5068d33040a1c4a484588ed891f079362977e05f9390b50097654a1c3")


def test_tabulated_sweep_frozen_oracle(tmp_path):
    # 21x19 baseline regime map under a 5-knot tabulated cost; the digest pins
    # every row of the CSV, so the custom-cost solve path is held to its bytes
    cost = CostSpec(kind="custom", knots=(0.0, 0.25, 0.5, 0.75, 1.0),
                    marginals=(0.0, 0.2, 0.5, 0.9, 1.4))
    base = regime_map_point(epsilon=0.3, sigma_d=0.5)
    rows = sweep_rows(base, cost, parse_axis("sigma_d=0:1:0.05"),
                      parse_axis("epsilon=0.1:1:0.05"))
    out_path = tmp_path / "tabulated.csv"
    write_sweep_csv(str(out_path), rows)
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "accda364506abfd02523daab62eb9c7891e7b3fa847f089a17f6ecb418b2c990")


# sha256 of the solve reports, joined by blank lines, of draw_params(seed=99,
# trial=0..99) plus p0c at tau1=0.01 (clamped for feasibility in both
# variants at c=0.3); the set holds corner, capped, feasibility-clamped and
# interior solves of either variant
SOLVE_REPORT_COSTS = {
    "c=0.05": CostSpec(kind="quadratic", c=0.05),
    "c=0.3": CostSpec(kind="quadratic", c=0.3),
    "tabulated": CostSpec(kind="custom", knots=(0.0, 0.25, 0.5, 0.75, 1.0),
                          marginals=(0.0, 0.2, 0.5, 0.9, 1.4)),
}
SOLVE_REPORT_DIGESTS = {
    ("baseline", "c=0.05"):
        "6e01e9b25678719c2aa45388f62da5920de33a77bc53dba10702d5ad75da1985",
    ("baseline", "c=0.3"):
        "c3d216a51bc7f4eaec1523a9af959102d5bbd7414c6bc70d952412adabdaac17",
    ("baseline", "tabulated"):
        "372db01b9b80a8321d94d960499ae1d04e6764da77d2d32e5d7ca248c9342e9e",
    ("revolution", "c=0.05"):
        "e6e9450040a264504af927ce226c8b3821b35c2c7db4854f8fe95dff349933fd",
    ("revolution", "c=0.3"):
        "57eb5c62d7d89a877da4eb621baeae7234852187294c09fa38bb4f6433323156",
    ("revolution", "tabulated"):
        "9e1fb310c339977e859f9ca9b2aca9fea4f1ee1ecdda1c84f1251575854410c1",
}


@pytest.mark.parametrize("variant,cost_name", sorted(SOLVE_REPORT_DIGESTS))
def test_solve_report_frozen_oracle(p0c, variant, cost_name):
    points = [draw_params(seed=99, trial=t) for t in range(100)]
    points.append(p0c.replace(tau1=0.01))
    text = "\n\n".join(solve_report(p, SOLVE_REPORT_COSTS[cost_name], variant)
                        for p in points)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SOLVE_REPORT_DIGESTS[variant, cost_name]


def test_sweep_csv_uses_lf_newlines(tmp_path):
    write_sweep_csv(str(tmp_path / "rows.csv"), ["a,b", "c,d"])
    raw = (tmp_path / "rows.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_negative_zero_never_printed():
    # values inside the rounding tick must not print as -0.000000
    from fiscap.cli import _fmt
    assert _fmt(-3e-8) == "0.000000"
    assert _fmt(-0.0) == "0.000000"


def _printed_numbers(report):
    """Every key=value value in a report that parses as a float."""
    numbers = []
    for token in report.split():
        _, eq, text = token.partition("=")
        if not eq:
            continue
        try:
            numbers.append(float(text))
        except ValueError:
            pass  # a label such as prop2=2.B.1
    return numbers


@given(st.integers(0, 10 ** 6), st.floats(-300, 300), st.floats(-300, 300),
       st.floats(1e300, 1e308, exclude_min=True))
def test_reports_finite_at_every_scale(trial, log_m, log_c, big_m):
    # m and c log-uniform in [1e-300, 1e300]; m past 1e300 is out of range
    cost = CostSpec(kind="quadratic", c=10.0 ** log_c)
    raw = dict(draw_params(seed=61, trial=trial).as_dict(), m=10.0 ** log_m)
    braw = dict(draw_params(seed=61, trial=trial, bargaining=True).as_dict(),
                m=10.0 ** log_m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = validate_params(raw)
        reports = [solve_report(params, cost, variant)
                   for variant in ("baseline", "revolution")]
        reports.append(bargain_report(validate_params(braw, bargaining=True), cost))
    for report in reports:
        numbers = _printed_numbers(report)
        assert numbers and all(math.isfinite(x) for x in numbers), report
    with pytest.raises(AssumptionViolation) as info:
        validate_params(dict(raw, m=big_m))
    assert {v.which for v in info.value.violations} == {"range:m"}


def test_verify_zero_trials_exits_zero(capsys):
    assert main(["verify", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert "trials=0" in out
    assert "result: PASS" in out


def test_verify_negative_trials_exits_one(capsys):
    assert main(["verify", "--trials", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("trials", ["0", "1"])
def test_verify_negative_seed_exits_one(trials, capsys):
    assert main(["verify", "--trials", trials, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


def test_verify_small_run_and_determinism(capsys):
    assert main(["verify", "--trials", "25", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--trials", "25", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "result: PASS" in first


def test_verify_failing_run_exits_two(capsys):
    # The known sigma_d = 0 tolerance false alarm: at trial 13 the baseline and
    # revolution thresholds at sigma_d = 0 differ by rounding alone, above the
    # property's absolute 1e-12 tolerance. ROADMAP items 1 and 10 replace it
    # with a relative tolerance, which turns this run into a PASS and
    # re-records the digest.
    assert main(["verify", "--trials", "14", "--seed", "0"]) == 2
    out = capsys.readouterr().out
    lines = out.splitlines()
    counterexamples = lines[lines.index("counterexamples:") + 1:-1]
    assert len(counterexamples) == 1
    assert counterexamples[0].startswith(
        "  variant_equal_at_zero_cohesion trial=13: baseline=")
    assert lines[-1] == "result: FAIL (1 failing checks)"
    assert out.endswith("\n")
    assert hashlib.sha256(out[:-1].encode()).hexdigest() == (
        "5c85f5f154a5d09a176b3785709a48bf8b900de21f40d617f776b187abf292bb")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fiscap.cli", "verify", "--trials", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


def test_readme_commands_parse():
    # every `fiscap ...` line of README's fenced blocks, `\` continuations
    # joined and `#` comments dropped, must still parse
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands, fenced = [], False
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("fiscap "):
            commands.append(shlex.split(line, comments=True)[1:])
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: fiscap {shlex.join(argv)}")
    assert {argv[0] for argv in commands} == {"solve", "sweep", "verify", "bargain"}
