"""Every per-agent environment a histogram family derives, against the
model's utility formula written out agent by agent.

The checks read only ``inst.env``: its spaces, its declared values kind, and
``utility`` on every (agent, type vector, alternative, reaction), compared
by value and by number type.
"""

import itertools
from fractions import Fraction

import pytest

import dpmech as dm
from dpmech.pricing import BUY, NOT_BUY
from tests.conftest import (
    cohort_pricing_instance,
    two_signal_pricing_instance,
    two_signal_valuation,
)


def grid(m):
    return tuple(Fraction(j, m) for j in range(m + 1))


def assert_utilities(env, formula):
    for t in env.type_vectors():
        for s in env.alternatives:
            for i in env.agents:
                for r in env.reaction_spaces[i]:
                    got, want = env.utility(i, t, s, r), formula(i, t, s, r)
                    assert got == want, (i, t, s, r)
                    assert type(got) is type(want), (i, t, s, r, got)


@pytest.mark.parametrize("n,m,K", [
    (n, m, K) for m in (1, 2, 3) for K in (1, 2) for n in (1, 2, 3)
])
def test_facility_utility_is_one_minus_distance(n, m, K):
    env = dm.build_grid_env(n, m, K).env
    locs = grid(m)
    assert env.type_spaces == (locs,) * n
    assert env.reaction_spaces == (locs,) * n
    assert env.alternatives == tuple(itertools.product(locs, repeat=K))
    assert env.values_kind == dm.PRIVATE_VALUES

    def formula(i, t, s, r):
        # an agent at t_i using facility r: 1 - |t_i - r| if s opens r
        return 1 - abs(t[i] - r) if r in s else 0

    assert_utilities(env, formula)


def pricing_formula(valuation, D, vmax):
    """(raw + 1) / (1 + vmax), raw = V_i - p for a purchase and 0 otherwise,
    V_i member j's valuation at its cohort c's signals."""

    def formula(i, t, p, r):
        c, j = divmod(i, D)
        raw = valuation(t[c * D:(c + 1) * D])[j] - p if r == BUY else 0
        return (raw + 1) / (1 + vmax)

    return formula


def assert_pricing_env(env, n, prices, member_types, formula):
    D = len(member_types)
    assert env.type_spaces == member_types * (n // D)
    assert env.reaction_spaces == ((NOT_BUY, BUY),) * n
    assert env.alternatives == prices
    kind = dm.PRIVATE_VALUES if D == 1 else dm.INTERDEPENDENT
    assert env.values_kind == kind
    assert_utilities(env, formula)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_cohort_pricing_utility(D):
    lo, hi = Fraction(1, 5), Fraction(9, 10)

    def valuation(X):
        return (hi if X[0] == 1 else lo,) * D

    env = cohort_pricing_instance(N=2, D=D).env
    assert_pricing_env(env, 2 * D, grid(4), ((0, 1),) + ((0,),) * (D - 1),
                       pricing_formula(valuation, D, hi))


def test_two_signal_pricing_utility():
    env = two_signal_pricing_instance(N=2).env
    vmax = max(v for X in itertools.product((0, 1), repeat=2)
               for v in two_signal_valuation(X))
    assert_pricing_env(env, 4, grid(20), ((0, 1), (0, 1)),
                       pricing_formula(two_signal_valuation, 2, vmax))


@pytest.mark.parametrize("build,low,prices", [
    (dm.example1_env, lambda n, mu: Fraction(1, 2) + mu,
     lambda n: (Fraction(1, 2), Fraction(1))),
    (dm.example3_env, lambda n, mu: Fraction(1, n),
     lambda n: (Fraction(1, n), Fraction(1))),
], ids=["example1", "example3"])
@pytest.mark.parametrize("n,mu", [(3, Fraction(1, 4)), (4, Fraction(2, 5))])
def test_two_level_example_utility(build, low, prices, n, mu):
    # a buyer's type is its valuation
    env = build(n, mu).env
    types = (low(n, mu), 1 + mu)
    assert_pricing_env(env, n, prices(n), (types,),
                       pricing_formula(lambda X: X, 1, 1 + mu))


def test_float_mu_stays_float():
    # example3 keeps a float mu as a float, so its utilities are floats
    env = dm.example3_env(3, 0.3).env
    assert_pricing_env(env, 3, (Fraction(1, 3), Fraction(1)), ((Fraction(1, 3), 1.3),),
                       pricing_formula(lambda X: X, 1, 1.3))
