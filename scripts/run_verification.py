"""Run the randomized property suite at a chosen scale and print the report.

Exit status is 0 when every property passes and 2 otherwise, matching the
CLI verify subcommand.
"""

import argparse

from fiscap.verify import render_report, run_trials


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--variant", choices=["baseline", "revolution"],
                        default="baseline")
    args = parser.parse_args()

    report = run_trials(args.trials, args.seed, variant=args.variant)
    print(render_report(report))
    return 2 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
