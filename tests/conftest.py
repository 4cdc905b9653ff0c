"""Shared instance generators for the test suite."""

from fractions import Fraction

import numpy as np
import pytest

import dpmech as dm

MASTER_SEED = 20260824


def random_private_instance(rng):
    """Small environment with per-agent utility tables and F = their average.

    n <= 4, |T_i| <= 3, |S| <= 5; singleton reactions; d = 1 by construction
    (a unilateral type change moves the average by at most 1/n).
    """
    n = int(rng.integers(1, 5))
    s_count = int(rng.integers(2, 6))
    alternatives = tuple(range(s_count))
    type_spaces = tuple(tuple(range(int(rng.integers(2, 4)))) for _ in range(n))
    tables = [
        {t: {s: float(rng.random()) for s in alternatives} for t in space}
        for space in type_spaces
    ]

    def F_eval(t, s):
        return sum(tables[i][t_i][s] for i, t_i in enumerate(t)) / n

    def utility(i, t, s, r):
        return tables[i][t[i]][s]

    env = dm.Environment(
        type_spaces=type_spaces,
        alternatives=alternatives,
        reaction_spaces=tuple(("noop",) for _ in range(n)),
        utility=utility,
        values_kind=dm.PRIVATE_VALUES,
    )
    return env, dm.ObjectiveFunction(eval=F_eval, sensitivity_d=1)


def replaced_env(env, **changes):
    """A new ``dm.Environment`` with env's fields, ``changes`` in their place."""
    fields = {"type_spaces": env.type_spaces, "alternatives": env.alternatives,
              "reaction_spaces": env.reaction_spaces, "utility": env.utility,
              "values_kind": env.values_kind}
    return dm.Environment(**{**fields, **changes})


@pytest.fixture(scope="session")
def random_instances():
    rng = np.random.default_rng(MASTER_SEED)
    return [random_private_instance(rng) for _ in range(200)]


def cohort_pricing_instance(N=2, D=2, m=4):
    """The two-signal cohort family used throughout: one informative member
    (valuations 1/5 or 9/10 for the whole cohort), D-1 degenerate members."""
    lo, hi = Fraction(1, 5), Fraction(9, 10)
    spaces = [(0, 1)] + [(0,)] * (D - 1)

    def valuation(X):
        v = hi if X[0] == 1 else lo
        return (v,) * D

    return dm.build_pricing_env(N, D, m, spaces, valuation)


def two_signal_valuation(X):
    """Both cohort members informative: each signal moves both valuations."""
    return (Fraction(1, 10) + Fraction(4, 10) * X[0] + Fraction(4, 10) * X[1],
            Fraction(1, 10) + Fraction(4, 10) * X[0] + Fraction(3, 10) * X[1])


def two_signal_pricing_instance(N=2):
    """Cohorts of two informative members, so a cohort's type cell needs
    both signals; the grid m=20 is the coarsest that passes fineness."""
    return dm.build_pricing_env(N, 2, 20, [(0, 1), (0, 1)], two_signal_valuation)


# one line per acceptance criterion, echoed after the run (capture ends
# before the terminal summary, so these survive plain `pytest -v`)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
