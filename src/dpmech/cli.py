"""Config-driven experiment runner.

Builds an environment family from a JSON config, runs incentive
verifications or accuracy sweeps, and writes a CSV result table plus a JSON
sidecar with witnesses.  Identical (config, seed) pairs produce byte-identical
CSVs; wall-clock timings live only in the sidecar.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
import zlib
from fractions import Fraction

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from .combined import build_combined, compute_n0, schedule_params, saturating_params
from .commitment import (
    commitment_mechanism,
)
from .environment import DEFAULT_BUDGET, compute_gap, verify_sensitivity
from .errors import (
    AssertionFailed,
    ConfigInvalid,
    EnumerationBudgetExceeded,
    GridTooCoarse,
    ParamContractViolated,
    ResolutionBudgetExceeded,
)
from .exponential import exp_mech_rate, exponential_mechanism
from .facility import COMMITMENTS, build_grid_env
from .payoffs import PayoffTable
from .pricing import (
    build_pricing_env,
    example1_env,
    example3_env,
    example3_mechanism,
    revenue_per_agent,
    uniform_price_commitment,
)
from .verify import (
    check_expost_nash_truthful,
    check_strictly_dominant_truthful,
    constant_map,
    expected_utility,
    find_dominating_strategy,
    histogram_gap,
    implementation_gap,
    truthful_profile,
)

CSV_COLUMNS = [
    "experiment", "n", "eps", "q", "n0", "p_tilde", "gamma", "d", "s_count",
    "beta_bound", "beta_measured", "properties", "seed",
]

DEFAULT_PROBES = 200

_POSINT = {"type": "integer", "minimum": 1}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "seed"],
    "properties": {
        "experiment": {"enum": ["verify", "sweep", "example1", "example3"]},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "out": {"type": "string"},
        "budget": _POSINT,
        "probes": _POSINT,
        "n_list": {"type": "array", "items": _POSINT},
        "facility": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n", "m", "K"],
            "properties": {
                "n": _POSINT,
                "m": _POSINT,
                "K": _POSINT,
                "mechanism": {"enum": ["loc1", "loc2"]},
            },
        },
        "pricing": {
            "type": "object",
            "additionalProperties": False,
            "required": ["cohorts", "cohort_size", "grid_m"],
            "properties": {
                "cohorts": _POSINT,
                "cohort_size": _POSINT,
                "grid_m": _POSINT,
                "mu": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
            },
        },
        "example": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": _POSINT,
                "mu": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
            },
        },
    },
}


def validate_config(config: dict) -> dict:
    if jsonschema is None:
        raise ConfigInvalid("jsonschema is not installed")
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as e:
        raise ConfigInvalid(e.message) from e
    exp = config["experiment"]
    if exp in ("verify", "sweep"):
        if ("facility" in config) == ("pricing" in config):
            raise ConfigInvalid(f"{exp} needs exactly one of 'facility'/'pricing'")
    if exp == "sweep" and not config.get("n_list"):
        raise ConfigInvalid("sweep needs a non-empty n_list")
    fac = config.get("facility", {})
    if fac.get("mechanism") == "loc2" and fac["K"] < 2:
        raise ConfigInvalid("mechanism loc2 needs facility.K >= 2")
    if exp == "example3" and config.get("example", {}).get("n", 2) < 2:
        raise ConfigInvalid("example3 needs example.n >= 2")
    return config


def task_rng(seed: int, experiment: str, index: int) -> np.random.Generator:
    """Deterministic substream keyed by (experiment, task index)."""
    key = zlib.crc32(experiment.encode())
    ss = np.random.SeedSequence([int(seed), key, int(index)])
    return np.random.Generator(np.random.PCG64(ss))


def sample_probes(objective, count: int, rng: np.random.Generator) -> np.ndarray:
    """Histograms of uniform i.i.d. type vectors, a (count x cells) matrix.

    Row k decodes the k-th ``rng.random(n)`` draw into per-agent type
    indices, the same draws ``rng.random((count, n))`` gives, one row at a
    time so memory stays O(n).
    """
    lens = np.tile([len(s) for s in objective.member_types], objective.units)
    return np.array([
        objective.histogram((rng.random(lens.size) * lens).astype(int))
        for _ in range(count)
    ])


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _props(reports: dict) -> str:
    parts = []
    for name, rep in reports.items():
        if hasattr(rep, "passed"):
            margin = getattr(rep, "margin", None)
            tail = f"({float(margin):.6g})" if margin is not None else ""
            parts.append(f"{name}={'pass' if rep.passed else 'fail'}{tail}")
        else:
            parts.append(f"{name}={rep}")
    return "|".join(parts)


# ------------------------------------------------------------- experiments


def _pricing_instance(cfg: dict, n_override: int | None = None):
    """The default two-signal cohort family at the requested size.

    Each cohort has one informative member (signals 0 < 1 mapping the whole
    cohort to valuation 1/5 or 9/10) and cohort_size - 1 members with a
    single uninformative signal.
    """
    N = n_override if n_override is not None else cfg["cohorts"]
    D = cfg["cohort_size"]
    m = cfg["grid_m"]
    lo, hi = Fraction(1, 5), Fraction(9, 10)
    spaces = [(0, 1)] + [(0,)] * (D - 1)

    def valuation(X):
        v = hi if X[0] == 1 else lo
        return (v,) * D

    return build_pricing_env(N, D, m, spaces, valuation)


def _facility_pair(cfg: dict, n: int):
    inst = build_grid_env(n, cfg["m"], cfg["K"])
    return inst, COMMITMENTS[cfg.get("mechanism", "loc1")](inst)


def run_verify(config: dict) -> tuple[list[dict], list[dict]]:
    budget = config.get("budget", DEFAULT_BUDGET)
    t0 = time.monotonic()
    if "facility" in config:
        inst, P = _facility_pair(config["facility"], config["facility"]["n"])
        kind = "facility"
    else:
        pc = config["pricing"]
        inst = _pricing_instance(pc)
        P = uniform_price_commitment(inst)
        kind = "pricing"
    env, F = inst.env, inst.F
    gap = compute_gap(env, budget=budget)
    sens = verify_sensitivity(F, env, budget=budget)
    reports = {"sensitivity": sens}
    eps = q = None
    beta_measured = None
    if gap.gamma > 0:
        eps, q = saturating_params(env, P, gap.gamma)
        mech = build_combined(env, F, P, gap.gamma, eps, q)
        # every expected utility ex-post Nash needs, strict dominance needs
        # too; the implementation gap reads the truthful distributions
        table = PayoffTable(mech, env)
        reports["expost_nash"] = check_expost_nash_truthful(
            mech, env, budget=budget, table=table
        )
        if env.values_kind != "interdependent":
            reports["strictly_dominant"] = check_strictly_dominant_truthful(
                mech, env, budget=budget, table=table
            )
        beta_measured, _ = implementation_gap(
            mech, env, F, truthful_profile(env), budget=budget, table=table
        )
    else:
        mech = commitment_mechanism(P, env)
        table = PayoffTable(mech, env)
        reports["expost_nash"] = check_expost_nash_truthful(
            mech, env, budget=budget, table=table
        )
        reports["trivial"] = "gap-zero"
    n0 = compute_n0(P.p_tilde, gap.gamma, F.sensitivity_d, len(env.alternatives)) \
        if gap.gamma > 0 else None
    row = {
        "experiment": f"verify-{kind}",
        "n": env.n,
        "eps": eps, "q": q, "n0": n0,
        "p_tilde": P.p_tilde, "gamma": gap.gamma,
        "d": F.sensitivity_d, "s_count": len(env.alternatives),
        "beta_bound": None, "beta_measured": beta_measured,
        "properties": _props(reports),
        "seed": config["seed"],
    }
    side = {
        **{k: _fmt(v) for k, v in row.items()},
        "wall_clock": time.monotonic() - t0,
        "witnesses": {
            name: repr(getattr(rep, "witness", None))
            for name, rep in reports.items()
        },
        "payoff_table": {**table.stats(), "budget": budget},
    }
    failed = any(
        hasattr(rep, "passed") and not rep.passed for rep in reports.values()
    )
    if failed:
        raise AssertionFailed(([row], [side]))
    return [row], [side]


def _sweep_point(config: dict, n: int, index: int) -> tuple[dict, dict]:
    probes = config.get("probes", DEFAULT_PROBES)
    t0 = time.monotonic()
    if "facility" in config:
        inst, P = _facility_pair(config["facility"], n)
        kind = "facility"
    else:
        # n counts agents; round down to whole cohorts
        cohorts = max(1, n // config["pricing"]["cohort_size"])
        inst = _pricing_instance(config["pricing"], n_override=cohorts)
        P = uniform_price_commitment(inst)
        kind = "pricing"
    F, objective, gamma = inst.F, inst.objective, inst.gamma_declared
    s_count = len(objective.alternatives)
    params = schedule_params(P, gamma, F.sensitivity_d, s_count, inst.n)
    counts = sample_probes(objective, probes, task_rng(config["seed"], "sweep", index))
    rate = exp_mech_rate(inst.n, params.eps, F.sensitivity_d)
    beta_measured, worst = histogram_gap(objective, counts, rate, P, params.q)
    ok = beta_measured <= params.beta_bound + 1e-9
    row = {
        "experiment": f"sweep-{kind}",
        "n": inst.n,
        "eps": params.eps, "q": params.q, "n0": params.n0,
        "p_tilde": P.p_tilde, "gamma": gamma,
        "d": F.sensitivity_d, "s_count": s_count,
        "beta_bound": params.beta_bound, "beta_measured": beta_measured,
        "properties": f"measured_le_bound={'pass' if ok else 'fail'}",
        "seed": config["seed"],
    }
    side = {
        **{k: _fmt(v) for k, v in row.items()},
        "wall_clock": time.monotonic() - t0,
        "probe_count": probes,
        "beta_measured_kind": "lower-bound estimate of beta_measured",
        # agents (facility) or cohorts (pricing) per type cell
        "worst_probe": {
            ",".join(map(_fmt, cell)): int(c)
            for cell, c in zip(objective.cells, counts[worst])
        },
    }
    return row, side


def run_sweep(config: dict) -> tuple[list[dict], list[dict]]:
    results = [_sweep_point(config, n, i) for i, n in enumerate(config["n_list"])]
    rows = [r for r, _ in results]
    sides = [s for _, s in results]
    if any("fail" in r["properties"] for r in rows):
        raise AssertionFailed((rows, sides))
    return rows, sides


def run_example1(config: dict) -> tuple[list[dict], list[dict]]:
    ex = config.get("example", {})
    n = ex.get("n", 6)
    mu = Fraction(ex["mu"]).limit_denominator(10**6) if "mu" in ex else Fraction(1, 4)
    budget = config.get("budget", DEFAULT_BUDGET)
    t0 = time.monotonic()
    inst = example1_env(n, mu)
    env, F = inst.env, inst.F
    eps = 0.1
    mech = exponential_mechanism(F, env, eps)
    low = env.type_spaces[0][0]
    table = PayoffTable(mech, env)
    nash = check_expost_nash_truthful(mech, env, budget=budget, table=table)
    dominating = find_dominating_strategy(
        mech, env, 0, dict(truthful_profile(env)[0]), budget=budget, table=table
    )
    is_const_low = dominating == constant_map(env, 0, low)
    reports = {
        "truth_not_expost_nash": "pass" if not nash.passed else "fail",
        "const_low_dominates": "pass" if is_const_low else "fail",
    }
    row = {
        "experiment": "example1", "n": n,
        "eps": eps, "q": None, "n0": None,
        "p_tilde": None, "gamma": None, "d": 1,
        "s_count": len(env.alternatives),
        "beta_bound": None, "beta_measured": None,
        "properties": _props(reports), "seed": config["seed"],
    }
    side = {
        **{k: _fmt(v) for k, v in row.items()},
        "wall_clock": time.monotonic() - t0,
        "witnesses": {"nash_violation": repr(nash.witness),
                      "dominating_map": repr(dominating)},
    }
    if "fail" in row["properties"]:
        raise AssertionFailed(([row], [side]))
    return [row], [side]


def run_example3(config: dict) -> tuple[list[dict], list[dict]]:
    ex = config.get("example", {})
    n = ex.get("n", 8)
    mu = Fraction(ex["mu"]).limit_denominator(10**6) if "mu" in ex else Fraction(1, 4)
    t0 = time.monotonic()
    inst = example3_env(n, mu)
    env = inst.env
    mech = example3_mechanism(inst)
    low, high = env.type_spaces[0]
    W_bad = tuple(constant_map(env, i, low) for i in env.agents)
    # exact unilateral-deviation check at every true type vector
    worst = None
    for t in env.type_vectors():
        for i in env.agents:
            base = expected_utility(mech, env, W_bad, i, t)
            dev_profile = list(W_bad)
            dev_profile[i] = constant_map(env, i, high)
            dev = expected_utility(mech, env, tuple(dev_profile), i, t)
            slack = base - dev
            if worst is None or slack < worst:
                worst = slack
    nash_ok = worst is not None and worst >= -1e-12
    all_high = tuple(high for _ in env.agents)
    revenue = revenue_per_agent(inst, all_high, inst.prices[0])
    revenue_ok = revenue == Fraction(1, n)
    reports = {
        "bad_profile_is_nash": "pass" if nash_ok else "fail",
        "revenue_is_1_over_n": "pass" if revenue_ok else "fail",
    }
    row = {
        "experiment": "example3", "n": n,
        "eps": None, "q": Fraction(1, n), "n0": None,
        "p_tilde": None, "gamma": None, "d": 1,
        "s_count": len(env.alternatives),
        "beta_bound": None, "beta_measured": None,
        "properties": _props(reports), "seed": config["seed"],
    }
    side = {
        **{k: _fmt(v) for k, v in row.items()},
        "wall_clock": time.monotonic() - t0,
        "witnesses": {"min_nash_slack": _fmt(worst), "revenue": _fmt(revenue)},
    }
    if "fail" in row["properties"]:
        raise AssertionFailed(([row], [side]))
    return [row], [side]


# ------------------------------------------------------------------ output


def render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dpmech-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sidecar_path(out_path: str) -> str:
    return os.path.splitext(out_path)[0] + ".json"


def write_outputs(rows, sides, out_path: str | None):
    if not out_path:
        sys.stdout.write(render_csv(rows))
        return
    atomic_write(out_path, render_csv(rows))
    atomic_write(sidecar_path(out_path), json.dumps(sides, indent=2, default=str) + "\n")


def run_config(config: dict) -> tuple[list[dict], list[dict]]:
    exp = config["experiment"]
    if exp == "verify":
        return run_verify(config)
    if exp == "sweep":
        return run_sweep(config)
    if exp == "example1":
        return run_example1(config)
    return run_example3(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpmech",
        description="Verify and sweep approximately optimal truthful mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "sweep", "example1", "example3"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("config error: the config must be a JSON object", file=sys.stderr)
        return 2

    if args.seed is not None:
        config["seed"] = args.seed
    config.setdefault("experiment", args.command)
    if config["experiment"] != args.command:
        print(
            f"config error: config says {config['experiment']!r}, "
            f"subcommand is {args.command!r}",
            file=sys.stderr,
        )
        return 2

    out = args.out or config.get("out")
    if out and os.path.realpath(args.config) in {
        os.path.realpath(p) for p in (out, sidecar_path(out))
    }:
        print(f"config error: output {out!r} would overwrite the config",
              file=sys.stderr)
        return 2
    try:
        config = validate_config(config)
        rows, sides = run_config(config)
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (EnumerationBudgetExceeded, ResolutionBudgetExceeded) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (ParamContractViolated, GridTooCoarse) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except AssertionFailed as e:
        rows, sides = e.args[0]
        write_outputs(rows, sides, out)
        print("assertion failed; witnesses in output", file=sys.stderr)
        return 1
    write_outputs(rows, sides, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
