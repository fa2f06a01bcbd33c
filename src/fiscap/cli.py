"""Command-line surface: solve, sweep, verify, bargain.

Exit codes: 0 on success, 1 on configuration or usage errors, 2 when the
verification suite reports failures.
"""

import argparse
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .bargaining import bargaining_outcome, check_bargaining_assumptions, classify_prop5
from .fiscal import solve_equilibrium
from .params import (AssumptionViolation, CostSpec, DEFAULTS, FIELD_ORDER, KEY_TO_ATTR,
                     ModelParams, parse_config_text, validate_params)
from .revolution import VARIANTS, _check_variant, revolution_solve
from .statics import _labels, classify, investment_condition
from .verify import render_report, run_trials

CSV_HEADER = ("axis1,axis2,gamma,sigma_f_bar,phi,tau2_star,"
              "prop1,prop2,prop3,corner,clamped,status")
MAX_AXIS_POINTS = 10_000  # per axis; the paper's regime map uses 101 and 91


def _fmt(value: float) -> str:
    # round first so values inside the rounding tick cannot print as -0.000000
    rounded = round(value, 6) + 0.0
    return f"{rounded:.6f}"


def parse_cost(text: str) -> CostSpec:
    """Parse a cost option of the form quadratic:c=VALUE."""
    kind, _, rest = text.partition(":")
    if kind != "quadratic":
        raise ValueError(f"unsupported cost: {text}")
    key, _, raw = rest.partition("=")
    if key != "c":
        raise ValueError(f"unsupported cost parameter: {text}")
    try:
        c = float(raw)
    except ValueError:
        raise ValueError(f"bad cost value: {text}") from None
    return CostSpec(kind="quadratic", c=c)


@dataclass(frozen=True)
class Axis:
    name: str      # external config key
    values: Tuple[float, ...]


def parse_axis(text: str) -> Axis:
    """Parse an axis option of the form field=start:stop:step, inclusive."""
    name, eq, rest = text.partition("=")
    parts = rest.split(":")
    if not eq or name not in FIELD_ORDER or len(parts) != 3:
        raise ValueError(f"bad axis: {text}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad axis: {text}") from None
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0.0
            and stop >= start):
        raise ValueError(f"bad axis range: {text}")
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_AXIS_POINTS:  # also a span that overflowed to inf
        raise ValueError(f"axis has more than {MAX_AXIS_POINTS} points: {text}")
    count = int(math.floor(steps)) + 1
    return Axis(name=name, values=tuple(start + i * step for i in range(count)))


def _solve_labelled(params: ModelParams, cost: CostSpec, variant: str):
    """The variant's Solution and its (prop1, prop2, prop3) label values."""
    if variant == "revolution":
        sol = revolution_solve(params, cost)
        labels = _labels(sol.gamma, investment_condition(params))
    else:
        sol = solve_equilibrium(params, cost)
        # classify makes a second war decision; it stays until ROADMAP item 8
        # replaces the pinned civil_war_decision call count
        labels = classify(params)
    return sol, tuple(label.value for label in labels)


def _policy_line(label: str, out) -> str:
    return (f"{label}: t={_fmt(out.t)} r_inc={_fmt(out.r_inc)} "
            f"r_opp={_fmt(out.r_opp)} r_f={_fmt(out.r_f)} "
            f"invest_cost={_fmt(out.invest_cost)}")


def solve_report(params: ModelParams, cost: CostSpec, variant: str = "baseline") -> str:
    _check_variant(variant)
    sol, (prop1, prop2, prop3) = _solve_labelled(params, cost, variant)
    lines = [
        f"gamma={sol.gamma} phi={_fmt(sol.phi)} tau2_star={_fmt(sol.tau2_star)} "
        f"prop2={prop2}",
        "sigma_f_bar=undefined" if sol.sigma_f_bar is None
        else f"sigma_f_bar={_fmt(sol.sigma_f_bar)}",
        f"prop1={prop1} prop3={prop3}",
        f"corner={int(sol.flags.corner)} clamped={int(sol.flags.clamped)}",
        _policy_line("period1", sol.period1),
    ]
    lines.extend(_policy_line(f"period2[{kind.value}]", out)
                 for kind, out in sol.period2_by_kind.items())
    lines.append(f"eu_I1={_fmt(sol.eu_I1)} eu_O1={_fmt(sol.eu_O1)}")
    return "\n".join(lines)


def bargain_report(params: ModelParams, cost: CostSpec) -> str:
    outcome = bargaining_outcome(params)
    prop5 = classify_prop5(params, cost)
    lines = [
        f"regime={outcome.regime.value} "
        f"sigma_d2_star={_fmt(outcome.sigma_d2_star)} prop5={prop5.case.value}",
        f"accepted={int(outcome.accepted)}",
        f"cond11_lhs={_fmt(outcome.cond11_lhs)} "
        f"cond12_lhs={_fmt(outcome.cond12_lhs)} cond12_rhs={_fmt(outcome.cond12_rhs)}",
        f"d_tau2_d_alpha={_fmt(prop5.derivative)} corner={int(prop5.corner)}",
    ]
    return "\n".join(lines)


def sweep_rows(params: ModelParams, cost: CostSpec, axis1: Axis,
               axis2: Optional[Axis], variant: str = "baseline",
               workers: int = 1) -> List[str]:
    """Row-major sweep over one config field or two different ones; invalid
    points keep their axis values and carry status=invalid with everything
    else empty. `workers` must be 1; it stays only for perfbench/run.py,
    which passes it."""
    _check_variant(variant)
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    if axis2 is not None and axis2.name == axis1.name:
        raise ValueError(f"axis1 and axis2 both sweep {axis1.name}")
    base = params.as_dict()
    axis2_values: Tuple[Optional[float], ...] = (
        axis2.values if axis2 is not None else (None,))
    rows = []
    for v1 in axis1.values:
        for v2 in axis2_values:
            raw = dict(base)
            raw[axis1.name] = v1
            axis2_text = ""
            if axis2 is not None:
                raw[axis2.name] = v2
                axis2_text = _fmt(v2)
            try:
                p = validate_params(raw)
            except AssumptionViolation:
                rows.append(f"{_fmt(v1)},{axis2_text},,,,,,,,,,invalid")
                continue
            sol, labels = _solve_labelled(p, cost, variant)
            bar = "" if sol.sigma_f_bar is None else _fmt(sol.sigma_f_bar)
            rows.append(f"{_fmt(v1)},{axis2_text},{sol.gamma},{bar},{_fmt(sol.phi)},"
                        f"{_fmt(sol.tau2_star)},{labels[0]},{labels[1]},{labels[2]},"
                        f"{int(sol.flags.corner)},{int(sol.flags.clamped)},ok")
    return rows


def write_sweep_csv(path: str, rows: List[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a failed verification."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fiscap",
        description="Equilibrium solver for external threats, civil conflict, "
                    "and fiscal-capacity investment.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--cost", default="quadratic:c=1",
                       help="investment cost, quadratic:c=VALUE")

    p_solve = sub.add_parser("solve", help="solve one parameter point")
    add_common(p_solve)
    p_solve.add_argument("--variant", choices=VARIANTS, default="baseline")

    p_sweep = sub.add_parser("sweep", help="solve over a parameter grid")
    add_common(p_sweep)
    p_sweep.add_argument("--axis1", required=True, help="field=start:stop:step")
    p_sweep.add_argument("--axis2", help="field=start:stop:step")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--variant", choices=VARIANTS, default="baseline")

    p_verify = sub.add_parser("verify", help="run the property suite")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)

    p_bargain = sub.add_parser("bargain", help="solve the constitutional stage")
    add_common(p_bargain)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            report = run_trials(args.trials, args.seed)
            print(render_report(report))
            return 2 if report.failures else 0

        cost = parse_cost(args.cost)
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = parse_config_text(fh.read())
        if args.command == "bargain":
            # every field present and in range: one error lists model, then stage codes
            try:
                params, found = validate_params(raw, bargaining=True), []
            except AssumptionViolation as exc:
                if any(":" in v.which for v in exc.violations):  # missing:, range:, ...
                    raise
                params = ModelParams(**{KEY_TO_ATTR[k]: v
                                        for k, v in {**DEFAULTS, **raw}.items()})
                found = exc.violations
            found = found + check_bargaining_assumptions(params)
            if found:
                raise AssumptionViolation(found)
            print(bargain_report(params, cost))
            return 0
        params = validate_params(raw)
        if args.command == "solve":
            print(solve_report(params, cost, args.variant))
            return 0
        axis1 = parse_axis(args.axis1)
        axis2 = parse_axis(args.axis2) if args.axis2 else None
        rows = sweep_rows(params, cost, axis1, axis2, variant=args.variant)
        write_sweep_csv(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
        return 0
    except (AssumptionViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
