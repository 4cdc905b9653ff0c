"""The four benchmark workloads and how one operation of each is run and checked.

An operation is one closed-loop unit of user work, run in fresh processes:
the CLI workloads start ``python3 -m dpmech.cli`` once per config, and
audit-dp starts one process that makes the library calls.  Each operation
reports its wall time, the peak resident memory of its processes, and the
problems its correctness check found (an empty list when it passed).
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import audit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# CSV columns that do not depend on the seed; verify uses the seed nowhere
SWEEP_COLUMNS = ("experiment", "n", "eps", "q", "n0", "p_tilde", "gamma", "d",
                 "s_count", "beta_bound")
VERIFY_COLUMNS = SWEEP_COLUMNS + ("beta_measured", "properties")

FACILITY = {"m": 2, "K": 2, "mechanism": "loc2"}
PRICING = {"cohort_size": 2, "grid_m": 4, "cohorts": 2}


def _sweep_facility(n_list, probes):
    return {"experiment": "sweep", "facility": {"n": n_list[0], **FACILITY},
            "n_list": n_list, "probes": probes}


def _sweep_pricing(n_list, probes):
    return {"experiment": "sweep", "pricing": PRICING, "n_list": n_list,
            "probes": probes}


def _verify_facility(n):
    return {"experiment": "verify", "facility": {"n": n, **FACILITY}}


def _verify_pricing(cohorts):
    return {"experiment": "verify",
            "pricing": {"cohorts": cohorts, "cohort_size": 1, "grid_m": 4}}


# per workload and scale, the CLI configs of one operation ("toy" is for the
# smoke test); the seed is added from the benchmark's --seed
CLI_CONFIGS = {
    "sweep-facility": {
        "full": [_sweep_facility([200, 2000, 6000], 10)],
        "toy": [_sweep_facility([170, 340], 2)],
    },
    "sweep-pricing": {
        "full": [_sweep_pricing([6000, 12000], 200)],
        "toy": [_sweep_pricing([5400], 4)],
    },
    "verify": {
        "full": [_verify_facility(3), _verify_pricing(5)],
        "toy": [_verify_facility(2), _verify_pricing(3)],
    },
}

WORKLOADS = ("sweep-facility", "sweep-pricing", "verify", "audit-dp")

WORK_UNITS = {
    "sweep-facility": "agent-probes (sum of n x probes)",
    "sweep-pricing": "agent-probes (sum of n x probes)",
    "verify": "enumerated unilateral deviations (ex-post Nash + strict dominance)",
    "audit-dp": "neighbour pairs x alternatives x eps values",
}


def child_env() -> dict:
    """Environment of every benchmark process: dpmech from the checkout's
    source tree, and numeric libraries held to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float


def run_process(argv: list[str], log: Path, timeout: float) -> Proc:
    """Run argv to completion; wall time from spawn to reap, and peak RSS."""
    with open(log, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                             env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, usage.ru_maxrss / 1024)


@dataclass
class OpResult:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)
    span_files: list[Path] = field(default_factory=list)


class Workload:
    """One named workload at one scale, with its files under ``workdir``."""

    def __init__(self, name: str, seed: int, scale: str, workdir: Path):
        self.name, self.seed, self.scale, self.workdir = name, seed, scale, workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.cli_configs = CLI_CONFIGS.get(name, {}).get(scale, [])
        self.config_paths = []
        for k, cfg in enumerate(self.cli_configs):
            path = workdir / f"config{k}.json"
            path.write_text(json.dumps({**cfg, "seed": seed}))
            self.config_paths.append(path)
        self.tables = audit.make_tables(seed, scale) if name == "audit-dp" else None
        self._reference = None

    def setup_argv(self) -> list[str]:
        """A fresh interpreter doing the workload's set-up and nothing else:
        importing the CLI and validating the configs, or, for audit-dp,
        importing dpmech and building the seeded environments."""
        if self.tables is not None:
            return [sys.executable, str(HERE / "child.py"), "audit-build",
                    "--seed", str(self.seed), "--scale", self.scale]
        code = ("import json, sys\n"
                "from dpmech.cli import validate_config\n"
                "for p in sys.argv[1:]:\n"
                "    with open(p) as f:\n"
                "        validate_config(json.load(f))\n")
        return [sys.executable, "-c", code] + [str(p) for p in self.config_paths]

    def run_op(self, timeout: float, trace: bool = False) -> OpResult:
        """One operation; with ``trace`` its processes record spans."""
        if self.tables is not None:
            return self._audit_op(timeout, trace)
        result = OpResult()
        deadline = time.monotonic() + timeout
        for k, (cfg, path) in enumerate(zip(self.cli_configs, self.config_paths)):
            out = self.workdir / f"out{k}.csv"
            for stale in (out, out.with_suffix(".json")):
                stale.unlink(missing_ok=True)
            args = [cfg["experiment"], "--config", str(path), "--seed", str(self.seed),
                    "--out", str(out)]
            if trace:
                spans_path = self.workdir / f"spans{k}.npz"
                argv = [sys.executable, str(HERE / "child.py"), "--trace",
                        str(spans_path), "cli"] + args
                result.span_files.append(spans_path)
            else:
                argv = [sys.executable, "-m", "dpmech.cli"] + args
            proc = run_process(argv, self.workdir / f"stderr{k}.txt",
                               deadline - time.monotonic())
            result.wall_s += proc.wall_s
            result.rss_mb = max(result.rss_mb, proc.rss_mb)
            result.errors += self._check_cli(k, proc.code, out)
        return result

    def _audit_op(self, timeout: float, trace: bool) -> OpResult:
        out = self.workdir / "audit.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py")]
        result = OpResult()
        if trace:
            spans_path = self.workdir / "spans.npz"
            argv += ["--trace", str(spans_path)]
            result.span_files.append(spans_path)
        argv += ["audit", "--seed", str(self.seed), "--scale", self.scale,
                 "--out", str(out)]
        proc = run_process(argv, self.workdir / "stderr.txt", timeout)
        result.wall_s, result.rss_mb = proc.wall_s, proc.rss_mb
        if proc.code != 0:
            result.errors.append(f"audit process exit code {proc.code}")
        elif not out.exists():
            result.errors.append("audit process wrote no results")
        else:
            result.errors += audit.check(self.tables, json.loads(out.read_text()))
        return result

    def _check_cli(self, k: int, code: int, out: Path) -> list[str]:
        """The failure rule of one CLI run: a nonzero exit code, a failed
        property, or seed-independent columns or verify witnesses that differ
        from the reference recorded by :func:`record_reference`."""
        if code != 0:
            return [f"config {k}: exit code {code}"]
        if not out.exists():
            return [f"config {k}: no CSV written"]
        if self._reference is None:
            self._reference = json.loads(REFERENCE.read_text())[self.scale][self.name]
        got = read_outputs(self.name, out)
        want = self._reference[k]
        errors = [f"config {k}: property failed in {r['properties']}"
                  for r in got.pop("full_rows") if "fail" in r["properties"]]
        if got != want:
            errors.append(f"config {k}: outputs {got} != reference {want}")
        return errors

    def work(self) -> int:
        """Units of work in one operation, as named in ``WORK_UNITS``."""
        if self.tables is not None:
            return audit.work(self.scale)
        total = 0
        for cfg in self.cli_configs:
            if cfg["experiment"] == "sweep":
                total += sum(_sweep_agents(cfg, n) for n in cfg["n_list"]) * cfg["probes"]
            else:
                counts = enumeration_counts(*_verify_shape(cfg))
                total += counts["deviations"] + counts["opponent_deviations"]
        return total

    def enumeration_needed(self) -> int:
        """Largest enumeration an operation checks against the budget; the
        sweeps measure on probes and enumerate nothing."""
        if self.tables is not None:
            return max(
                enumeration_counts([k] * n, s)[key]
                for n, k, s in audit.SHAPES[self.scale] for key in AUDIT_ENUMERATIONS
            )
        return max(
            (max(enumeration_counts(*_verify_shape(cfg)).values())
             for cfg in self.cli_configs if cfg["experiment"] == "verify"),
            default=0,
        )


def _sweep_agents(cfg: dict, n: int) -> int:
    if "pricing" in cfg:
        size = cfg["pricing"]["cohort_size"]
        return max(1, n // size) * size
    return n


def _verify_shape(cfg: dict) -> tuple[list[int], int]:
    """Type-space sizes and alternative count of a verify config's instance."""
    if "facility" in cfg:
        f = cfg["facility"]
        return [f["m"] + 1] * f["n"], (f["m"] + 1) ** f["K"]
    p = cfg["pricing"]
    member = [2] + [1] * (p["cohort_size"] - 1)
    return member * p["cohorts"], p["grid_m"] + 1


def enumeration_counts(sizes: list[int], s_count: int) -> dict[str, int]:
    """The enumeration sizes dpmech's checkers compare against their budget.

    ``pairs_x_alternatives``: verify_sensitivity and audit_dp;
    ``triples_x_alternatives``: compute_gap; ``deviations``: ex-post Nash and
    near-indifference; ``opponent_deviations``: strict dominance;
    ``vectors_x_alternatives``: exact implementation gap and accuracy.
    """
    total = math.prod(sizes)
    opp = [total // k for k in sizes]
    pairs = sum(k * (k - 1) // 2 * o for k, o in zip(sizes, opp))
    return {
        "pairs_x_alternatives": pairs * s_count,
        "triples_x_alternatives": 2 * pairs * s_count,
        "deviations": total * max(sum(k - 1 for k in sizes), 1),
        "opponent_deviations": total * sum((k - 1) * o for k, o in zip(sizes, opp)),
        "vectors_x_alternatives": total * s_count,
    }


AUDIT_ENUMERATIONS = ("pairs_x_alternatives", "deviations", "vectors_x_alternatives")


def read_outputs(name: str, out: Path) -> dict:
    """The compared part of a CLI run's CSV and sidecar, plus its full rows."""
    with open(out, newline="") as f:
        full_rows = list(csv.DictReader(f))
    columns = VERIFY_COLUMNS if name == "verify" else SWEEP_COLUMNS
    got = {"full_rows": full_rows,
           "rows": [{c: r[c] for c in columns} for r in full_rows]}
    if name == "verify":
        sides = json.loads(out.with_suffix(".json").read_text())
        got["witnesses"] = [side["witnesses"] for side in sides]
    return got


def record_reference(workdir: Path, seed: int = 1) -> dict:
    """Reference outputs of every CLI workload at every scale, from this tree."""
    ref: dict = {}
    for scale in ("full", "toy"):
        ref[scale] = {}
        for name in CLI_CONFIGS:
            wl = Workload(name, seed, scale, workdir / f"{scale}-{name}")
            entries = []
            for k, (cfg, path) in enumerate(zip(wl.cli_configs, wl.config_paths)):
                out = wl.workdir / f"out{k}.csv"
                argv = [sys.executable, "-m", "dpmech.cli", cfg["experiment"],
                        "--config", str(path), "--seed", str(seed), "--out", str(out)]
                proc = run_process(argv, wl.workdir / f"stderr{k}.txt", 600)
                if proc.code != 0:
                    raise RuntimeError(f"{name} config {k} exited {proc.code}")
                got = read_outputs(name, out)
                del got["full_rows"]
                entries.append(got)
            ref[scale][name] = entries
    return ref
