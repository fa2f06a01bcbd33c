"""Run the benchmark command over several seeds and report each metric's
median and its quartile spread against the bound in BENCHMARK.json. It runs
the end-to-end metrics (--trace 0), which carry the bounds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--json OUT]

Runs one seed after another from the checkout root, never in parallel.
The spread of a metric is (q3 - q1) / median over its per-seed values, with
quartiles from statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(manifest, workload, seed):
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(manifest["run_seconds"]),
                                 "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    print(f"  {workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall",
          flush=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    stamp = json.loads(lines[0].partition(" ")[2])
    return stamp, json.loads(lines[-1])


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--json", help="write the per-seed results here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(manifest, workload, seed)
                for seed in range(args.seeds)]
        values = {}
        for _, result in runs:
            if not result["correct"]:
                print(f"{workload}: incorrect output", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {"stamps": [s for s, _ in runs],
                             "results": [r for _, r in runs]}
        print(f"{workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            print(f"  {name:<46} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} bound={bound} spread/bound={spread / bound:.2f}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
