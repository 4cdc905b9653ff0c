"""The audit-dp workload: seeded private-value environments and their checks.

Instances follow the tier-1 test generator (per-agent utility tables, F the
average of the tables, singleton reactions, d = 1) but with fixed, larger
shapes, so that the cost of an operation does not depend on the seed; only
the table values do.  The exact results are recomputed here with numpy, a
second implementation the dpmech outputs are compared against.
"""

from __future__ import annotations

import math

import numpy as np

EPS_GRID = (0.1, 0.5, 1.0)
TOL = 1e-9

# (agents, types per agent, alternatives), one instance per entry
SHAPES = {
    "full": [(n, k, s) for n, k in ((3, 3), (4, 3), (5, 2), (5, 3)) for s in (4, 6)] * 2,
    "toy": [(2, 2, 3), (3, 2, 4)],
}


def make_tables(seed: int, scale: str) -> list[list[np.ndarray]]:
    """Per instance, one (types, alternatives) utility table per agent."""
    rng = np.random.default_rng(seed)
    return [
        [rng.random((k, s)) for _ in range(n)] for n, k, s in SHAPES[scale]
    ]


def build(tables: list[np.ndarray]):
    """dpmech environment and objective for one instance's tables."""
    import dpmech as dm

    n = len(tables)
    rows = [tab.tolist() for tab in tables]

    def F_eval(t, s):
        return sum(rows[i][t_i][s] for i, t_i in enumerate(t)) / n

    def utility(i, t, s, r):
        return rows[i][t[i]][s]

    env = dm.Environment(
        type_spaces=tuple(tuple(range(len(tab))) for tab in tables),
        alternatives=tuple(range(tables[0].shape[1])),
        reaction_spaces=tuple(("noop",) for _ in range(n)),
        utility=utility,
        values_kind=dm.PRIVATE_VALUES,
    )
    return env, dm.ObjectiveFunction(eval=F_eval, sensitivity_d=1)


def accuracy_applies(n: int, s_count: int, eps: float) -> bool:
    """The population condition of accuracy_bound_check (d = 1)."""
    return n > 2 * math.e / (eps * s_count)


def run_checks(instances) -> list[dict]:
    """The three library checks at every eps, one record per (instance, eps)."""
    import dpmech as dm

    out = []
    for env, F in instances:
        for eps in EPS_GRID:
            mech = dm.exponential_mechanism(F, env, eps)
            dp = dm.audit_dp(mech, env, eps)
            ni = dm.near_indifference_bound_check(mech, env, eps)
            rec = {
                "dp_eps": dp.epsilon_measured, "dp_passed": dp.passed,
                "ni_margin": ni.margin, "ni_passed": ni.passed,
                "acc_margin": None, "acc_passed": True,
            }
            if accuracy_applies(env.n, len(env.alternatives), eps):
                acc = dm.accuracy_bound_check(F, env, eps)
                rec["acc_margin"] = acc.margin
                rec["acc_passed"] = acc.passed
            out.append(rec)
    return out


def reference(tables: list[np.ndarray], eps: float) -> dict:
    """Exact DP loss, near-indifference margin and accuracy margin in numpy."""
    n = len(tables)
    s_count = tables[0].shape[1]
    # F over the full type grid: axis i is agent i's type, last axis is s
    F = sum(
        tab.reshape((1,) * i + (tab.shape[0],) + (1,) * (n - 1 - i) + (s_count,))
        for i, tab in enumerate(tables)
    ) / n
    x = (n * eps / 2) * F
    logp = x - x.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    p = np.exp(logp)

    dp_eps = max(float((logp.max(axis=i) - logp.min(axis=i)).max()) for i in range(n))

    swing = 0.0
    for i, tab in enumerate(tables):
        # eu[..., b, a]: agent i of true type a announcing b, others truthful
        eu = np.moveaxis(p, i, -2) @ tab.T
        truthful = np.diagonal(eu, axis1=-2, axis2=-1)[..., None, :]
        swing = max(swing, float(np.abs(truthful - eu).max()))

    out = {"dp_eps": dp_eps, "ni_margin": math.exp(eps) - 1 - swing, "acc_margin": None}
    if accuracy_applies(n, s_count, eps):
        bound = (4 / (n * eps)) * math.log(n * eps * s_count / 2)
        slack = (p * F).sum(axis=-1) - (F.max(axis=-1) - bound)
        out["acc_margin"] = float(slack.min())
    return out


def check(all_tables, records: list[dict]) -> list[str]:
    """Mismatches between the dpmech records and the numpy reference."""
    errors = []
    expected = [reference(tables, eps) for tables in all_tables for eps in EPS_GRID]
    if len(records) != len(expected):
        return [f"{len(records)} audit records, expected {len(expected)}"]
    for k, (rec, ref) in enumerate(zip(records, expected)):
        for flag in ("dp_passed", "ni_passed", "acc_passed"):
            if rec[flag] is not True:
                errors.append(f"record {k}: {flag} is {rec[flag]}")
        for key in ("dp_eps", "ni_margin", "acc_margin"):
            got, want = rec[key], ref[key]
            if (got is None) != (want is None) or (
                want is not None and abs(got - want) > TOL
            ):
                errors.append(f"record {k}: {key} {got} != reference {want}")
    return errors


def work(scale: str) -> int:
    """Neighbour pairs x alternatives x eps values, summed over instances."""
    total = 0
    for n, k, s in SHAPES[scale]:
        pairs = n * (k * (k - 1) // 2) * k ** (n - 1)
        total += pairs * s * len(EPS_GRID)
    return total
