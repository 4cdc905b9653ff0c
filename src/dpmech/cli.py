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
import math
import operator
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

from .combined import build_combined, compute_n0, schedule_params, saturating_params
from .commitment import commitment_mechanism, uniform_histogram_commitment
from .environment import DEFAULT_BUDGET, check_budget, compute_gap, verify_sensitivity
from .errors import (
    ConfigInvalid,
    EnumerationBudgetExceeded,
    GridTooCoarse,
    ParamContractViolated,
    ResolutionBudgetExceeded,
)
from .exponential import exp_mech_rate, exponential_mechanism
from .facility import COMMITMENTS, build_grid_env
from .payoffs import PayoffTable, payoff_table
from .pricing import (
    build_pricing_env,
    example1_env,
    example3_env,
    example3_mechanism,
    revenue_per_agent,
)
from .verify import (
    check_expost_nash_truthful,
    check_strictly_dominant_truthful,
    constant_map,
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
            "required": ["m", "K"],
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
            "required": ["cohort_size", "grid_m"],
            "properties": {
                "cohorts": _POSINT,
                "cohort_size": _POSINT,
                "grid_m": _POSINT,
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


# JSON type -> (test, name); a bool is neither an integer nor a number, and
# an integer is a JSON integer, never an integral float like 3.0.
_TYPES = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "integer": (lambda v: type(v) is int, "an integer"),
    "number": (lambda v: type(v) in (int, float), "a number"),
}
_BOUNDS = {
    "minimum": (operator.ge, ">="),
    "maximum": (operator.le, "<="),
    "exclusiveMinimum": (operator.gt, ">"),
    "exclusiveMaximum": (operator.lt, "<"),
}


def _check(value, schema: dict, path: str = "") -> None:
    """Raise ConfigInvalid, naming the key path, unless ``value`` meets
    ``schema``.  Implements the keywords CONFIG_SCHEMA uses: type, enum,
    required, properties, additionalProperties (false), items and the four
    bounds; a bound holds only if its comparison is true, so NaN fails."""
    where = path or "config"
    if "type" in schema:
        test, name = _TYPES[schema["type"]]
        if not test(value):
            raise ConfigInvalid(f"{where}: {value!r} is not {name}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigInvalid(f"{where}: {value!r} is not one of {schema['enum']}")
    for key, (holds, sign) in _BOUNDS.items():
        if key in schema and not holds(value, schema[key]):
            raise ConfigInvalid(f"{where}: {value!r} is not {sign} {schema[key]}")
    if isinstance(value, dict):
        prefix = f"{path}." if path else ""
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigInvalid(f"{prefix}{key}: required but missing")
        for key, item in value.items():
            if key in props:
                _check(item, props[key], f"{prefix}{key}")
            elif schema.get("additionalProperties", True) is False:
                raise ConfigInvalid(f"{prefix}{key}: unknown key")
    if isinstance(value, list) and "items" in schema:
        for k, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{k}]")


# the top-level keys each experiment reads besides experiment, seed and out
_READS = {"verify": ("budget", "facility", "pricing"),
          "sweep": ("probes", "n_list", "facility", "pricing"),
          "example1": ("budget", "example"), "example3": ("budget", "example")}


def validate_config(config: dict) -> dict:
    _check(config, CONFIG_SCHEMA)
    exp = config["experiment"]
    for key in config:
        if key not in ("experiment", "seed", "out", *_READS[exp]):
            raise ConfigInvalid(f"{key}: not read by {exp}")
    if exp in ("verify", "sweep"):
        if ("facility" in config) == ("pricing" in config):
            raise ConfigInvalid(f"{exp} needs exactly one of 'facility'/'pricing'")
    if exp == "verify":
        # a sweep sizes its instances from n_list alone
        block, key = ("facility", "n") if "facility" in config else ("pricing", "cohorts")
        if key not in config[block]:
            raise ConfigInvalid(f"{block}.{key}: required but missing")
    if exp == "sweep" and not config.get("n_list"):
        raise ConfigInvalid("sweep needs a non-empty n_list")
    fac = config.get("facility", {})
    if fac.get("mechanism") == "loc2" and fac["K"] < 2:
        raise ConfigInvalid("mechanism loc2 needs facility.K >= 2")
    if exp == "example3" and config.get("example", {}).get("n", 2) < 2:
        raise ConfigInvalid("example3 needs example.n >= 2")
    return config


def task_rng(seed: int, experiment: str, index: int) -> random.Random:
    """Deterministic substream keyed by (seed, experiment, task index); a
    string seed is hashed with SHA-512, the same on every interpreter."""
    return random.Random(f"{experiment}:{seed}:{index}")


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, 0 < p < 1, by inversion from the mode outward.

    Counts are visited in decreasing probability (the law is unimodal), each
    pmf from its neighbour's by the ratio of consecutive terms, so a draw
    takes O(sqrt(n p (1 - p))) steps in expectation after one
    ``math.lgamma`` pmf at the mode.
    """
    k = lo = hi = min(int((n + 1) * p), n)
    odds = p / (1 - p)
    p_lo = p_hi = math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    u = rng.random() - p_lo
    while u >= 0:
        # the pmf one step below lo and one step above hi, 0 off the support
        down = p_lo * lo / ((n - lo + 1) * odds) if lo > 0 else 0.0
        up = p_hi * (n - hi) * odds / (hi + 1) if hi < n else 0.0
        if up >= down:
            if up == 0.0:
                break  # u fell in the rounding left over past the whole mass
            k = hi = hi + 1
            p_hi = up
            u -= up
        else:
            k = lo = lo - 1
            p_lo = down
            u -= down
    return k


def sample_probes(objective, count: int, rng: random.Random) -> list[list[int]]:
    """Cell counts of ``count`` uniform i.i.d. type vectors, one row each.

    Each of the objective's ``units`` groups lands uniformly in one of its C
    cells, so a row is Multinomial(units; 1/C, ..., 1/C): cell j takes
    Binomial(left, 1/(C - j)) of the ``left`` groups no earlier cell took,
    and the last cell the rest.  Memory is O(count x C); the binomial walks
    took 0.6-0.85 of count x (C - 1) x (isqrt(units) + 1) steps, the sweep's
    charge (means over 200 seeded probes, C in {2, 3}, 200 to 10^8 units).
    """
    C = len(objective.cells)
    rows = []
    for _ in range(count):
        left, row = objective.units, []
        for j in range(C - 1):
            row.append(binomial(rng, left, 1 / (C - j)))
            left -= row[-1]
        rows.append(row + [left])
    return rows


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


def _check_population(n: int, budget: int) -> None:
    """Refuse over ``budget`` or ``DEFAULT_BUDGET`` agents before any is listed."""
    check_budget(n, min(budget, DEFAULT_BUDGET))


def _instance(config: dict, n: int | None = None, budget: int = DEFAULT_BUDGET) -> tuple:
    """(kind, instance, commitment) of a verify or sweep config, at the
    config's own size or at a sweep point's population n; a pricing
    cohort's members, listed here, are refused by ``_check_population``.

    Pricing builds the default two-signal cohort family: each cohort has
    one informative member (signals 0 < 1 mapping the whole cohort to
    valuation 1/5 or 9/10) and cohort_size - 1 members with a single
    uninformative signal.
    """
    if "facility" in config:
        fc = config["facility"]
        inst = build_grid_env(fc["n"] if n is None else n, fc["m"], fc["K"])
        return "facility", inst, COMMITMENTS[fc.get("mechanism", "loc1")](inst)
    pc = config["pricing"]
    D = pc["cohort_size"]
    # n counts agents; round down to whole cohorts
    N = pc["cohorts"] if n is None else max(1, n // D)
    _check_population(D, budget)
    lo, hi = Fraction(1, 5), Fraction(9, 10)

    def valuation(X):
        return (hi if X[0] == 1 else lo,) * D

    inst = build_pricing_env(N, D, pc["grid_m"], [(0, 1)] + [(0,)] * (D - 1), valuation)
    return "pricing", inst, uniform_histogram_commitment(inst)


def _record(
    config: dict, fields: dict, reports: dict, t0: float, **extra
) -> tuple[dict, dict]:
    """A result's CSV row and sidecar entry.

    The row holds ``fields`` over ``CSV_COLUMNS`` (absent columns empty),
    the properties of ``reports`` and the seed; the sidecar entry is the
    formatted row, the wall clock since ``t0`` and ``extra``.
    """
    row = dict.fromkeys(CSV_COLUMNS)
    row.update(fields, properties=_props(reports), seed=config["seed"])
    side = {
        **{k: _fmt(v) for k, v in row.items()},
        "wall_clock": time.monotonic() - t0,
        **extra,
    }
    return row, side


def run_verify(config: dict) -> tuple[dict, dict]:
    budget = config.get("budget", DEFAULT_BUDGET)
    t0 = time.monotonic()
    kind, inst, P = _instance(config, budget=budget)
    _check_population(inst.n, budget)
    env, F = inst.env, inst.F
    gap = compute_gap(env, budget=budget)
    reports = {"sensitivity": verify_sensitivity(F, env, budget=budget)}
    fields = {
        "experiment": f"verify-{kind}", "n": env.n,
        "p_tilde": P.p_tilde, "gamma": gap.gamma,
        "d": F.sensitivity_d, "s_count": len(env.alternatives),
    }
    if gap.gamma > 0:
        eps, q = saturating_params(P, gap.gamma)
        mech = build_combined(env, F, P, gap.gamma, eps, q)
    else:
        mech = commitment_mechanism(P, env)
    # the checks share the table env holds: strict dominance and the
    # implementation gap read the distributions ex-post Nash built
    reports["expost_nash"] = check_expost_nash_truthful(
        mech, env, budget=budget
    )
    if gap.gamma > 0:
        if env.private_reactions:
            reports["strictly_dominant"] = check_strictly_dominant_truthful(
                mech, env, budget=budget
            )
        beta_measured, _ = implementation_gap(mech, env, F, budget=budget)
        n0 = compute_n0(P.p_tilde, gap.gamma, F.sensitivity_d, len(env.alternatives))
        fields.update(eps=eps, q=q, n0=n0, beta_measured=beta_measured)
    else:
        reports["trivial"] = "gap-zero"
    return _record(
        config, fields, reports, t0,
        witnesses={
            name: repr(getattr(rep, "witness", None))
            for name, rep in reports.items()
        },
        payoff_table={**PayoffTable.of(mech, env).stats(), "budget": budget},
    )


def _sweep_point(config: dict, n: int, index: int) -> tuple[dict, dict]:
    probes = config.get("probes", DEFAULT_PROBES)
    t0 = time.monotonic()
    kind, inst, P = _instance(config, n)
    if kind == "facility" and config["facility"]["K"] == 1:  # past the grid caps
        raise ParamContractViolated("facility.K = 1: the gap is 0, so no schedule exists")
    F, gamma = inst.F, inst.gamma_declared
    # the sampler's steps, before schedule_params takes n to a float
    check_budget(probes * (len(F.cells) - 1) * (math.isqrt(F.units) + 1), DEFAULT_BUDGET)
    params = schedule_params(P, gamma, F.sensitivity_d, len(F.alternatives), inst.n)
    counts = sample_probes(F, probes, task_rng(config["seed"], "sweep", index))
    rate = exp_mech_rate(inst.n, params.eps, F.sensitivity_d)
    beta_measured, worst = histogram_gap(F, counts, rate, P, params.q)
    ok = beta_measured <= params.beta_bound + 1e-9
    fields = {
        "experiment": f"sweep-{kind}", "n": inst.n,
        "eps": params.eps, "q": params.q, "n0": params.n0,
        "p_tilde": P.p_tilde, "gamma": gamma,
        "d": F.sensitivity_d, "s_count": params.s_count,
        "beta_bound": params.beta_bound, "beta_measured": beta_measured,
    }
    return _record(
        config, fields, {"measured_le_bound": "pass" if ok else "fail"}, t0,
        probe_count=probes,
        beta_measured_kind="lower-bound estimate of beta_measured",
        # agents (facility) or cohorts (pricing) per type cell
        worst_probe={
            ",".join(map(_fmt, cell)): c
            for cell, c in zip(F.cells, counts[worst])
        },
    )


def _example(config: dict, n: int) -> tuple:
    """(n, mu) of the optional ``example`` block, defaulting to n and 1/4."""
    ex = config.get("example", {})
    mu = Fraction(ex["mu"]).limit_denominator(10**6) if "mu" in ex else Fraction(1, 4)
    if not 0 < mu < Fraction(1, 2):
        raise ConfigInvalid(f"example.mu: {ex['mu']!r} rounds to {mu}, outside (0, 1/2)")
    return ex.get("n", n), mu


def run_example1(config: dict) -> tuple[dict, dict]:
    n, mu = _example(config, 6)
    budget = config.get("budget", DEFAULT_BUDGET)
    _check_population(n, budget)
    t0 = time.monotonic()
    inst = example1_env(n, mu)
    env, F = inst.env, inst.F
    eps = 0.1
    mech = exponential_mechanism(F, env, eps)
    low = env.type_spaces[0][0]
    nash = check_expost_nash_truthful(mech, env, budget=budget)
    dominating = find_dominating_strategy(
        mech, env, 0, dict(truthful_profile(env)[0]), budget=budget
    )
    is_const_low = dominating == constant_map(env, 0, low)
    reports = {
        "truth_not_expost_nash": "pass" if not nash.passed else "fail",
        "const_low_dominates": "pass" if is_const_low else "fail",
    }
    fields = {"experiment": "example1", "n": n, "eps": eps, "d": 1,
              "s_count": len(env.alternatives)}
    return _record(
        config, fields, reports, t0,
        witnesses={"nash_violation": repr(nash.witness),
                   "dominating_map": repr(dominating)},
    )


def run_example3(config: dict) -> tuple[dict, dict]:
    n, mu = _example(config, 8)
    budget = config.get("budget", DEFAULT_BUDGET)
    _check_population(n, budget)
    t0 = time.monotonic()
    inst = example3_env(n, mu)
    env = inst.env
    mech = example3_mechanism(inst)
    table = payoff_table(mech, env, "bad_profile_nash", env.num_deviations(), budget)
    # every agent announces low (vector 0), agent i deviates to high (vector strides[i])
    worst = min(
        table.eu(0, i, kt) - table.eu(stride, i, kt)
        for i, stride in enumerate(env.strides)
        for kt in env.keys(i)
    )
    high = env.type_spaces[0][1]
    revenue = revenue_per_agent(inst, (high,) * n, env.alternatives[0])
    reports = {
        "bad_profile_is_nash": "pass" if worst >= -1e-12 else "fail",
        "revenue_is_1_over_n": "pass" if revenue == Fraction(1, n) else "fail",
    }
    fields = {"experiment": "example3", "n": n, "q": Fraction(1, n), "d": 1,
              "s_count": len(env.alternatives)}
    return _record(
        config, fields, reports, t0,
        witnesses={"min_nash_slack": _fmt(worst), "revenue": _fmt(revenue)},
    )


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
    """The rows and sidecar entries of a validated config; a failed property
    reads ``fail`` in its row's ``properties``."""
    exp = config["experiment"]
    if exp == "sweep":
        results = [_sweep_point(config, n, i) for i, n in enumerate(config["n_list"])]
    else:
        run = {"verify": run_verify, "example1": run_example1, "example3": run_example3}
        results = [run[exp](config)]
    return [row for row, _ in results], [side for _, side in results]


def _read_config(args) -> tuple[dict, str | None]:
    """The validated config a command line names, and its output path."""
    try:
        with open(args.config) as f:
            config = json.load(f)
    except (OSError, ValueError) as e:
        # ValueError covers bad JSON, bytes that are not text and integers
        # over the interpreter's digit limit
        raise ConfigInvalid(e) from e
    if not isinstance(config, dict):
        raise ConfigInvalid("the config must be a JSON object")
    if args.seed is not None:
        config["seed"] = args.seed
    config.setdefault("experiment", args.command)
    if config["experiment"] != args.command:
        raise ConfigInvalid(
            f"config says {config['experiment']!r}, subcommand is {args.command!r}"
        )
    validate_config(config)  # before reading its out
    out = args.out or config.get("out")
    if out:
        paths = (out, sidecar_path(out))
        if os.path.realpath(args.config) in {os.path.realpath(p) for p in paths}:
            raise ConfigInvalid(f"output {out!r} would overwrite the config")
        if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ConfigInvalid(f"output {out!r}: its directory does not exist")
        for p in paths:
            if os.path.isdir(p):
                raise ConfigInvalid(f"output {out!r}: {p!r} is a directory")
    return config, out


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
        config, out = _read_config(args)
        rows, sides = run_config(config)
    except (ConfigInvalid, ParamContractViolated, GridTooCoarse) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (EnumerationBudgetExceeded, ResolutionBudgetExceeded) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    try:
        write_outputs(rows, sides, out)
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 2
    if any("fail" in row["properties"] for row in rows):
        print("assertion failed; witnesses in output", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
