"""Closed-loop benchmark of fiscap's regime-map sweeps and property suite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fiscap is imported from ./src. One
process on one thread repeats passes of the workload (the next pass starts
when the previous one ends) until S seconds have passed, and checks the
output of every pass (gate.py). With --trace 0 the last line reports the
end-to-end metrics; with --trace 1 the same untraced passes are followed by
one traced pass (tracer.py) and the last line reports the per-layer
metrics. The exit status is 0 when every output was correct, 1 when one was
not, and 2 when the checkout holds no fiscap sources.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"   # temp CSVs and span dumps
SETUP_REPEATS = 7


def _import_fiscap() -> bool:
    if not (SRC / "fiscap" / "__init__.py").is_file():
        print(f"error: no fiscap sources under {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(BENCH)]
    import fiscap
    if Path(fiscap.__file__).resolve().parent != SRC / "fiscap":
        print(f"error: imported fiscap from {fiscap.__file__}", file=sys.stderr)
        return False
    return True


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args) -> dict:
    """What identifies a run: code, interpreter, machine and its load."""
    import numpy as np
    from gate import sha256
    sources = b"".join(p.read_bytes() for p in sorted((SRC / "fiscap").glob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _git_commit(),
            "src_sha256": sha256(sources),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0]}


def setup_time(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing fiscap and building the
    workload's inputs (the bytecode caches are already written)."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(BENCH)]!r}; "
            f"import fiscap.cli, workloads; workloads.build({workload!r}, {seed!r})")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class SweepWorkload:
    """One sweep pass (a CSV written to OUT) plus the gate that checks it."""

    failed_checks = 0   # a sweep runs no property checks

    def __init__(self, name: str, seed: int, inputs):
        import gate
        from fiscap.cli import parse_axis
        self.name, self.seed, self.inputs = name, seed, inputs
        self.items = (len(parse_axis(inputs.axis1).values)
                      * len(parse_axis(inputs.axis2).values))
        self.gate = gate.SweepGate(name, seed, inputs)
        OUT.mkdir(exist_ok=True)
        self.csv = OUT / f"{name}-{seed}-{os.getpid()}.csv"

    def run(self):
        """The timed part of a pass."""
        from fiscap import cli
        inp = self.inputs
        axis1, axis2 = cli.parse_axis(inp.axis1), cli.parse_axis(inp.axis2)
        rows = cli.sweep_rows(inp.base, inp.cost, axis1, axis2, workers=1)
        cli.write_sweep_csv(str(self.csv), rows)

    def check(self, output) -> int:
        """Failed items of a pass."""
        return self.gate.check(self.csv.read_bytes())

    def close(self):
        self.csv.unlink(missing_ok=True)


class VerifyWorkload:
    """One run_trials + render_report pass plus the gate that checks it."""

    def __init__(self, name: str, seed: int, inputs):
        import gate
        self.name, self.seed, self.inputs = name, seed, inputs
        self.items = inputs.trials
        self.gate = gate.VerifyGate(name, seed, inputs)
        self.failed_checks = 0   # failing property checks in the last report

    def run(self):
        """The timed part of a pass."""
        from fiscap import verify
        inp = self.inputs
        report = verify.run_trials(
            inp.trials, inp.seed, workers=1,
            max_counterexamples=inp.trials * len(verify.PROPERTY_NAMES))
        return report, verify.render_report(report)

    def check(self, output) -> int:
        """Failed items of a pass, from its report."""
        report, text = output
        self.failed_checks = report.failures
        return self.gate.check(report, text)

    def close(self):
        pass


def make_workload(name: str, seed: int):
    import workloads
    inputs = workloads.build(name, seed)
    kind = VerifyWorkload if name == "verify" else SweepWorkload
    return kind(name, seed, inputs)


def one_pass(work, passes: list) -> bool:
    """Append (wall_s, cpu_s, failed_items) for one pass; False if it raised."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        output = work.run()
    except Exception:
        traceback.print_exc()
        passes.append((time.perf_counter() - w0, time.process_time() - c0,
                       work.items))
        return False
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    passes.append((wall, cpu, work.check(output)))
    return True


def run_passes(work, seconds: float, passes: list, setup=None) -> bool:
    """Closed loop: one pass after another until `seconds` have passed (at
    least one pass). Returns False, and stops, if a pass raised. With a
    `setup` list, SETUP_REPEATS set-up times are taken between passes,
    spread over the run so that their median sees the same machine as the
    passes do."""
    start = time.perf_counter()
    while True:
        ok = one_pass(work, passes)
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds or not ok
        due = SETUP_REPEATS if done else SETUP_REPEATS * elapsed / seconds
        while setup is not None and len(setup) < due:
            setup.append(setup_time(work.name, work.seed))
        if done:
            break
    return ok


def end_to_end(work, passes, setup):
    """name -> (value, unit, samples) for the untraced metrics."""
    rates = [work.items / wall for wall, _, _ in passes]
    cpu = [cpu * 1e6 / work.items for _, cpu, _ in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"items_per_s": (statistics.median(rates), "1/s", rates),
            "cpu_us_per_item": (statistics.median(cpu), "us", cpu),
            "setup_s": (statistics.median(setup), "s", setup),
            "peak_rss_mb": (rss_mb, "MB", [rss_mb])}


def per_layer(work, spans, traced_wall: float, untraced_walls):
    """name -> (value, unit, samples) for the per-layer metrics of one traced pass."""
    from tracer import TRACED, summarize
    per_function, left_module = summarize(spans)
    out = {}
    for name, s in per_function.items():
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")
    out["params.validate_params.rejected"] = (
        per_function["params.validate_params"]["raised"], "count")
    for module, funcs in TRACED.items():
        self_s = sum(per_function[f"{module}.{f}"]["self_s"] for f in funcs)
        out[f"{module}.self_s"] = (self_s, "s")
        out[f"{module}.share"] = (self_s / traced_wall, "frac")
        out[f"{module}.raised"] = (left_module[module], "count")

    def calls(name):
        return per_function[name]["calls"]
    out["policy.calls_per_item"] = (
        sum(calls(f"policy.{f}") for f in TRACED["policy"]) / work.items, "calls/item")
    out["conflict.civil_war_decision.calls_per_item"] = (
        calls("conflict.civil_war_decision") / work.items, "calls/item")
    solves = calls("fiscal.optimal_tau2") + calls("revolution.variant_war_tau2")
    cost_evals = calls("params.CostSpec.value") + calls("params.CostSpec.marginal")
    out["params.cost_evals_per_solve"] = (
        cost_evals / solves if solves else 0.0, "evals/solve")
    out["trace_overhead_frac"] = (
        traced_wall / statistics.median(untraced_walls) - 1.0, "frac")
    out["verify.failed_checks"] = (work.failed_checks, "count")
    return {k: (v, unit, [v]) for k, (v, unit) in out.items()}


def measure(args):
    """Runs the workload; returns (passes, metrics, work)."""
    work = make_workload(args.workload, args.seed)
    passes = []
    try:
        if not args.trace:
            setup = []
            run_passes(work, args.seconds, passes, setup)
            return passes, end_to_end(work, passes, setup), work
        from tracer import Spans, install
        if run_passes(work, args.seconds, passes):
            untraced = [wall for wall, _, _ in passes]
            spans = Spans()
            with install(spans):
                traced_ok = one_pass(work, passes)
            if traced_ok:
                traced_wall = passes[-1][0]
                _save_spans(args, spans)
                return passes, per_layer(work, spans, traced_wall, untraced), work
        return passes, {}, work
    finally:
        work.close()


def _save_spans(args, spans):
    import numpy as np
    from tracer import SPAN_NAMES
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                        names=np.array(SPAN_NAMES), **spans.arrays())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_fiscap():
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    print("stamp " + json.dumps(stamp(args)), flush=True)
    passes, metrics, work = measure(args)
    attempted = len(passes) * work.items
    failed = sum(f for _, _, f in passes)
    correct = failed == 0 and bool(metrics)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of "
          f"{work.items} items, {failed} failed, output sha256 {work.gate.digest}")
    if isinstance(work, VerifyWorkload):
        print(f"verify: {work.failed_checks} failing property checks "
              f"(known false alarms are not failed trials)")
    for name, (value, unit, samples) in metrics.items():
        spread = ""
        if len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = f"q1={q1:.6g} q3={q3:.6g} n={len(samples)}"
        print(f"  {name:<46} {value:>14.6g} {unit:<11} {spread}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
