"""Smoke test of the benchmark at toy sizes (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload, that
  * an untraced run prints, as its last line, a correct result carrying
    every end-to-end metric of BENCHMARK.json, each positive;
  * a traced run yields every per-layer metric of BENCHMARK.json;
  * the traced ``calls`` counts repeat exactly across two runs with the
    same seed;
  * the self times of a traced run sum to its root spans, and none is
    negative (children nest inside their parents).
Exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import run
import workloads

SEED = 5


def check_untraced(name: str, spec: dict) -> list[str]:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
            "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--scale", "toy"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"run not correct: {proc.stdout[-1000:]}")
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"end-to-end metrics {got} != {want}")
    for k, m in result["metrics"].items():
        if not (isinstance(m["value"], float) and m["value"] > 0):
            problems.append(f"{k} = {m['value']!r} is not a positive number")
    return problems


def check_traced(name: str, spec: dict) -> list[str]:
    first, second = (run.run_workload(name, SEED, 1, True, "toy") for _ in range(2))
    problems = []
    for result in (first, second):
        failures = [e for errs in run.op_errors(result) for e in errs]
        if failures:
            problems.append(f"operations failed: {failures}")
        s = result["spans"]
        if not math.isclose(s["self_sum_s"], s["root_s"], rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"self times sum to {s['self_sum_s']}, root spans "
                            f"to {s['root_s']}")
        if s["min_self_s"] < -1e-9:
            problems.append(f"negative self time {s['min_self_s']}")
        values = run.metrics(result, spec, trace=True)
        if set(values) != {m["name"] for m in spec["per_layer"]}:
            problems.append("per-layer metrics missing")
    if first["spans"]["calls"] != second["spans"]["calls"]:
        diff = {k: (v, second["spans"]["calls"].get(k))
                for k, v in first["spans"]["calls"].items()
                if v != second["spans"]["calls"].get(k)}
        problems.append(f"calls differ between same-seed runs: {diff}")
    if not any(first["spans"]["calls"].values()):
        problems.append("no spans recorded")
    return problems


def main() -> int:
    spec = json.loads(run.SPEC.read_text())
    failed = False
    for name in workloads.WORKLOADS:
        for label, check in (("untraced", check_untraced), ("traced", check_traced)):
            problems = check(name, spec)
            failed |= bool(problems)
            print(f"{name:15s} {label:9s} {'FAIL' if problems else 'ok'}")
            for p in problems:
                print(f"    {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
