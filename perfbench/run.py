"""dpmech benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload verify --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --report [--trace 1] [--seed 7] [--seconds 15]
    python3 perfbench/run.py --record-reference

A run first times ``SETUP_REPEATS`` fresh set-up processes, then repeats
the workload's operation, one at a time (a closed loop with one client),
until the next one would end after ``--seconds``.  Every operation's output
is checked; a failed operation is counted, never skipped.  The last line of
standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json (``--trace 0``), or with its per-layer metrics (``--trace 1``),
taken from one further operation whose processes record spans.

``--report`` runs every workload and prints the metrics as a table, with
units and sample counts.  ``--record-reference`` rewrites reference.json,
the outputs that later runs are checked against, from the current tree.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
DEFAULT_BUDGET = 10**7  # dpmech.environment.DEFAULT_BUDGET, the budget of every check run here
TRACE_TOL_S = 1e-6


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Measure one workload; returns the raw samples and, if traced, spans."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORKDIR / name
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.Workload(name, seed, scale, workdir)
    errors: list[str] = []

    setup = []
    for k in range(SETUP_REPEATS):
        proc = workloads.run_process(wl.setup_argv(), workdir / "setup-stderr.txt",
                                     deadline - time.monotonic())
        if proc.code != 0:
            errors.append(f"set-up {k}: exit code {proc.code}")
        setup.append(proc.wall_s)

    ops = []
    window = time.monotonic()
    while True:
        ops.append(wl.run_op(deadline - time.monotonic()))
        now = time.monotonic()
        typical = median([op.wall_s for op in ops])
        # a traced operation still has to fit before the deadline
        reserve = 4 * typical if trace else 0.0
        if now + typical - window > seconds or now + typical + reserve > deadline:
            break

    result = {"workload": wl, "setup": setup, "ops": ops, "errors": errors}
    if trace:
        traced = wl.run_op(deadline - time.monotonic(), trace=True)
        result["traced"] = traced
        result["spans"] = merge([spans.load(p) for p in traced.span_files
                                 if p.exists()])
        s = result["spans"]
        if (abs(s["self_sum_s"] - s["root_s"]) > TRACE_TOL_S
                or s["min_self_s"] < -TRACE_TOL_S):
            traced.errors.append("trace spans do not nest")
    return result


def merge(summaries: list[dict]) -> dict:
    """Sum the span summaries of an operation's processes."""
    out = {"calls": {}, "self_s": {}, "counters": {},
           "root_s": 0.0, "self_sum_s": 0.0, "min_self_s": 0.0}
    for s in summaries:
        for key in ("calls", "self_s", "counters"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["root_s"] += s["root_s"]
        out["self_sum_s"] += s["self_sum_s"]
        out["min_self_s"] = min(out["min_self_s"], s["min_self_s"])
    return out


def op_errors(result: dict) -> list[list[str]]:
    """Per attempted operation, its problems; set-up problems fail the first."""
    ops = result["ops"] + ([result["traced"]] if "traced" in result else [])
    per_op = [list(op.errors) for op in ops]
    per_op[0] = result["errors"] + per_op[0]
    return per_op


def end_to_end(result: dict) -> dict:
    ops = result["ops"]
    wall = median([op.wall_s for op in ops])
    return {
        "wall_s": wall,
        "work_per_s": result["workload"].work() / wall,
        "setup_s": median(result["setup"]),
        "peak_rss_mb": median([op.rss_mb for op in ops]),
    }


def layer_value(name: str, result: dict):
    """A per-layer metric, named ``<module>.<function>.<stat>``."""
    s, wl = result["spans"], result["workload"]
    if name == "trace.overhead_s":
        return result["traced"].wall_s - median([op.wall_s for op in result["ops"]])
    if name == "environment.enumeration.needed":
        return wl.enumeration_needed()
    if name == "environment.enumeration.budget_frac":
        return wl.enumeration_needed() / DEFAULT_BUDGET
    span, stat = name.rsplit(".", 1)
    if stat == "repeat_frac":
        calls = s["calls"].get(span, 0)
        return s["counters"].get(f"{span}.repeats", 0) / calls if calls else 0.0
    if stat not in ("calls", "self_s"):
        raise KeyError(f"no rule for per-layer metric {name}")
    return s[stat].get(span, 0.0 if stat == "self_s" else 0)


def metrics(result: dict, spec: dict, trace: bool) -> dict:
    if trace:
        return {m["name"]: {"value": layer_value(m["name"], result), "unit": m["unit"]}
                for m in spec["per_layer"]}
    values = end_to_end(result)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def samples(name: str, result: dict) -> int:
    return len(result["setup"]) if name == "setup_s" else len(result["ops"])


def report(seed: int, seconds: float, trace: bool, spec: dict):
    """Every metric of every workload as a table, with units and sample counts."""
    results = {}
    for name in workloads.WORKLOADS:
        print(f"running {name} ...", file=sys.stderr, flush=True)
        results[name] = run_workload(name, seed, seconds, trace)
    if trace:
        names = list(workloads.WORKLOADS)
        print(f"{'per-layer metric':48s} {'unit':6s} " + " ".join(f"{n:>15s}" for n in names))
        for m in spec["per_layer"]:
            vals = [layer_value(m["name"], results[n]) for n in names]
            print(f"{m['name']:48s} {m['unit']:6s} "
                  + " ".join(f"{v:15.6g}" for v in vals))
        print("(per-layer values come from one traced operation per workload)")
    else:
        print(f"{'workload':15s} {'metric':12s} {'median':>14s} {'unit':6s} samples")
        for name, result in results.items():
            values = end_to_end(result)
            for m in spec["end_to_end"]:
                print(f"{name:15s} {m['name']:12s} {values[m['name']]:14.6g} "
                      f"{m['unit']:6s} {samples(m['name'], result)}")
            per_op = op_errors(result)
            failed = sum(1 for e in per_op if e)
            print(f"{name:15s} {'failed_frac':12s} {failed / len(per_op):14.6g} "
                  f"{'1':6s} {len(per_op)}")
            print(f"{name:15s} work unit: {workloads.WORK_UNITS[name]}, "
                  f"{result['workload'].work()} per operation")
    for name, result in results.items():
        for k, errs in enumerate(op_errors(result)):
            for e in errs:
                print(f"{name} operation {k}: {e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes are for the smoke test")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (workloads.SRC / "dpmech" / "cli.py").is_file() or not SPEC.is_file():
        print(f"perfbench: needs src/dpmech and BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.record_reference:
        ref = workloads.record_reference(WORKDIR / "reference")
        workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        return 0
    if args.report:
        report(args.seed, seconds, bool(args.trace), spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    result = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                          args.scale)
    per_op = op_errors(result)
    failed = sum(1 for e in per_op if e)
    for k, errs in enumerate(per_op):
        for e in errs:
            print(f"operation {k}: {e}")
    print("operation wall times (s): "
          + " ".join(f"{op.wall_s:.4f}" for op in result["ops"]))
    print("set-up times (s): " + " ".join(f"{t:.4f}" for t in result["setup"]))
    values = metrics(result, spec, bool(args.trace))
    for name, m in values.items():
        n = samples(name, result) if not args.trace else 1
        print(f"{name} = {m['value']:.6g} {m['unit']} ({n} samples)")
    print(json.dumps({"correct": failed == 0, "attempted": len(per_op),
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
