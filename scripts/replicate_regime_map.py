"""Reproduce the regime map: sweep cohesiveness against the election
probability and write one CSV row per grid point.

The default grid fixes alpha=.5, rho=.5, omega=.5, delta=.4, mu=.1,
sigma_f=.1, lambda=0, m=1, tau1=.2 and varies sigma_d over [0, 1] and
epsilon over [.1, 1], both in steps of .01. Points violating the model
assumptions (here the first epsilon column, where epsilon = mu) come out
as status=invalid rows.
"""

import argparse

from fiscap.cli import parse_axis, sweep_rows, write_sweep_csv
from fiscap.params import CostSpec, validate_params

BASE = {
    "alpha": 0.5, "lambda": 0.0, "epsilon": 0.3, "delta": 0.4, "rho": 0.5,
    "mu": 0.1, "omega": 0.5, "sigma_d": 0.5, "sigma_f": 0.1,
    "m": 1.0, "tau1": 0.2, "tau_max": 1.0,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="regime_map.csv")
    parser.add_argument("--axis1", default="sigma_d=0:1:0.01",
                        help="field=start:stop:step")
    parser.add_argument("--axis2", default="epsilon=0.1:1:0.01",
                        help="field=start:stop:step")
    parser.add_argument("--cost-c", type=float, default=1.0)
    parser.add_argument("--variant", choices=["baseline", "revolution"],
                        default="baseline")
    args = parser.parse_args()

    params = validate_params(BASE)
    cost = CostSpec(kind="quadratic", c=args.cost_c)
    axis1, axis2 = parse_axis(args.axis1), parse_axis(args.axis2)
    rows = sweep_rows(params, cost, axis1, axis2, variant=args.variant)
    write_sweep_csv(args.out, rows)
    invalid = sum(1 for r in rows if r.endswith(",invalid"))
    print(f"wrote {len(rows)} rows to {args.out} ({invalid} invalid points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
