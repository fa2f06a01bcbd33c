"""Self-check of the benchmark; run from the checkout root (about a minute).

    python3 perfbench/check.py

- Every workload, untraced and traced, reports a correct result with
  exactly the metrics BENCHMARK.json names, and layer_map.json names only
  those metrics and workloads.
- Two traced regime_map runs at seed 0 make identical call counts, and the
  counts recorded at the seed commit: validate_params 9,191 calls with 101
  rejections, civil_war_decision 18,180 and indirect_utility 163,620. A
  change that moves one of these fails here and reports the new count.
- In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED0_REGIME_MAP = {
    "params.validate_params.calls": 9191,
    "params.validate_params.rejected": 101,
    "conflict.civil_war_decision.calls": 18180,
    "policy.indirect_utility.calls": 163620,
}


def bench(manifest, workload, trace, cwd=ROOT):
    cmd = manifest["command"] + ["--workload", workload, "--seed", "0",
                                 "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in manifest["end_to_end"]},
                1: {m["name"] for m in manifest["per_layer"]}}
    workloads = [w["name"] for w in manifest["workloads"]]
    problems = []

    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    for claim in layer_map:
        unknown = (set(claim["layer_metrics"]) - expected[1]
                   | {claim["end_to_end"]} - expected[0]
                   | set(claim["moves_on"] + claim["flat_on"]) - set(workloads))
        if unknown:
            problems.append(f"layer_map.json names unknown {sorted(unknown)}")

    traced = []
    for workload in workloads:
        for trace in (0, 1):
            result = result_of(bench(manifest, workload, trace))
            if result is None or not result["correct"]:
                problems.append(f"{workload} trace={trace}: no correct result")
                continue
            emitted = set(result["metrics"])
            if emitted != expected[trace]:
                problems.append(
                    f"{workload} trace={trace}: missing "
                    f"{sorted(expected[trace] - emitted)}, extra {sorted(emitted - expected[trace])}")
            if workload == "regime_map" and trace:
                traced.append(result["metrics"])

    again = result_of(bench(manifest, "regime_map", 1))
    if traced and again:
        traced.append(again["metrics"])
        counts = [{k: v["value"] for k, v in m.items()
                   if k.endswith((".calls", ".rejected", ".raised"))} for m in traced]
        if counts[0] != counts[1]:
            problems.append("regime_map call counts differ between two traced runs")
        for name, want in SEED0_REGIME_MAP.items():
            if counts[0].get(name) != want:
                problems.append(f"regime_map seed 0: {name} = {counts[0].get(name)}, "
                                f"recorded {want}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(manifest, workloads[0], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare directory: expected a nonzero exit and no output")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("check: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
