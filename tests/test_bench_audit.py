"""The audit-dp benchmark's correctness check passes at its toy scale.

``perfbench/audit.py`` recomputes every DP loss, near-indifference margin
and accuracy margin in numpy, a second implementation the library's audits
are compared against; this runs that comparison in the test suite, so a
change to the audits that breaks it fails here and not only in a benchmark
run.  The module is loaded from its file and left as it is.
"""

import importlib.util
from pathlib import Path

import pytest

AUDIT = Path(__file__).resolve().parents[1] / "perfbench" / "audit.py"


def _audit():
    spec = importlib.util.spec_from_file_location("perfbench_audit", AUDIT)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    return audit


@pytest.mark.parametrize("seed", [1, 7])
def test_benchmark_audit_check_passes_at_toy_scale(seed):
    audit = _audit()
    tables = audit.make_tables(seed, "toy")
    records = audit.run_checks([audit.build(t) for t in tables])
    assert len(records) == len(tables) * len(audit.EPS_GRID)
    assert audit.check(tables, records) == []


def test_audit_dp_shaped_payoffs_built_once_per_environment():
    """Across eps 0.1, 0.5 and 1.0, ``audit_dp`` and the near-indifference
    check evaluate each (agent, own type, alternative) utility once: the
    utilities are held by the environment."""
    from collections import Counter

    import dpmech as dm
    from tests.conftest import replaced_env

    audit = _audit()
    calls = Counter()

    def counted(utility):
        def wrapped(*args):
            calls["utility"] += 1
            return utility(*args)
        return wrapped

    instances = []
    for tables in audit.make_tables(7, "full"):
        env, F = audit.build(tables)
        instances.append((replaced_env(env, utility=counted(env.utility)), F))
    for env, F in instances:
        for eps in audit.EPS_GRID:
            mech = dm.exponential_mechanism(F, env, eps)
            dm.audit_dp(mech, env, eps)
            dm.near_indifference_bound_check(mech, env, eps)
    assert len(instances) == 16
    assert calls["utility"] == sum(
        env.n * len(env.type_spaces[0]) * len(env.alternatives) for env, _ in instances
    ) == 920
