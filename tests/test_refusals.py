"""Each constructor's and builder's refusals: exception type and message."""

from fractions import Fraction

import pytest

import dpmech as dm
from dpmech.facility import _rho_grid


def _zero(i, t, s, r):
    return 0


def _valued(table):
    return lambda X: table[X]


HALF = Fraction(1, 2)

REFUSALS = [
    (lambda: dm.Environment([(0, 1)], [], [(0,)], _zero), ValueError,
     "type spaces, alternatives and reactions must be non-empty"),
    (lambda: dm.Environment([(0, 1), ()], ["s"], [(0,), (0,)], _zero), ValueError,
     "empty per-agent space"),
    (lambda: dm.ObjectiveFunction(lambda t, s: 0, 0), ValueError,
     "sensitivity bound must be positive"),
    (lambda: dm.CommitmentDistribution(["a", "b"], [HALF, Fraction(1, 4)], ["a"]),
     ValueError, "probabilities must sum to 1"),
    (lambda: dm.CommitmentDistribution(["a", "b"], [HALF, HALF], []), ValueError,
     "separating set must be non-empty"),
    (lambda: dm.combined_mechanism(None, None, 1, 0.1, HALF, HALF),
     dm.ParamContractViolated, "mixing weight q = 1 outside (0, 1)"),
    (lambda: dm.combined_mechanism(None, None, 0, 0.1, HALF, HALF),
     dm.ParamContractViolated, "mixing weight q = 0 outside (0, 1)"),
    (lambda: dm.build_grid_env(0, 2, 2), ValueError, "need n, m, K >= 1"),
    (lambda: dm.build_grid_env(3, 0, 2), ValueError, "need n, m, K >= 1"),
    (lambda: dm.build_grid_env(3, 2, 0), ValueError, "need n, m, K >= 1"),
    (lambda: _rho_grid(0, 1), ValueError, "rho must lie in (0, 1]"),
    (lambda: _rho_grid(2, 1), ValueError, "rho must lie in (0, 1]"),
    (lambda: _rho_grid(Fraction(3, 8), 1), ValueError,
     "rho must be a reciprocal power of two"),
    (lambda: _rho_grid(Fraction(1, 3), 1), ValueError,
     "rho must be a reciprocal power of two"),
    (lambda: dm.DyadicCommitment(0), ValueError, "need m_bar >= 1 and K >= 1"),
    (lambda: dm.loc3_params(2, 1), ValueError, "need n >= 3"),
    (lambda: dm.build_pricing_env(0, 1, 4, [(0, 1)], None), ValueError,
     "need N, D, m >= 1"),
    (lambda: dm.build_pricing_env(1, 0, 4, [], None), ValueError, "need N, D, m >= 1"),
    (lambda: dm.build_pricing_env(1, 1, 0, [(0, 1)], None), ValueError,
     "need N, D, m >= 1"),
    (lambda: dm.build_pricing_env(1, 2, 4, [(0, 1)], None), ValueError,
     "need one signal space per cohort member"),
    (lambda: dm.build_pricing_env(1, 1, 4, [(0, 1)], lambda X: (HALF, HALF)),
     ValueError, "valuation at (0,) has 2 entries, want 1"),
    # member 0's step moves neither member's valuation
    (lambda: dm.build_pricing_env(1, 2, 4, [(0, 1), (0,)], lambda X: (HALF, HALF)),
     ValueError, "raising member 0's signal at (0,) moves no valuation"),
    # the step 0 -> 1 has price 1/10 in its window, 1 -> 2 has none, and the
    # pair 0 -> 2 passes: the second step's valuations are named
    (lambda: dm.build_pricing_env(
        1, 1, 10, [(0, 1, 2)],
        _valued({(0,): (0,), (1,): (HALF,), (2,): (Fraction(3, 5),)})),
     dm.GridTooCoarse, "no grid price p with 3/5 > p + 2/m > p > 1/2"),
    (lambda: dm.example1_env(4, HALF), ValueError, "mu must lie in (0, 0.5)"),
    (lambda: dm.example1_env(4, 0), ValueError, "mu must lie in (0, 0.5)"),
    (lambda: dm.example3_env(4, HALF), ValueError, "mu must lie in (0, 0.5)"),
    (lambda: dm.example3_env(1), ValueError, "need n >= 2"),
    (lambda: dm.revenue_per_agent(
        dm.build_pricing_env(1, 2, 10, [(0, 1), (0, 1)],
                             lambda X: tuple(Fraction(1 + 4 * x, 6) for x in X)),
        (0, 0), 0), ValueError, "revenue_per_agent expects a D=1 instance"),
]

IDS = [
    "environment-no-alternatives", "environment-empty-type-space", "objective-d-0",
    "commitment-sum", "commitment-no-separating-set", "combined-q-1", "combined-q-0",
    "grid-n-0", "grid-m-0", "grid-K-0", "rho-0", "rho-2", "rho-3/8", "rho-1/3",
    "dyadic-m_bar-0", "loc3-n-2", "pricing-N-0", "pricing-D-0", "pricing-m-0",
    "pricing-spaces", "pricing-valuation-length", "pricing-moves-no-valuation",
    "pricing-second-step-too-coarse", "example1-mu-half", "example1-mu-0",
    "example3-mu-half", "example3-n-1", "revenue-cohort-of-2",
]


@pytest.mark.parametrize("call,error,message", REFUSALS, ids=IDS)
def test_refusal(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert type(e.value) is error
    assert str(e.value) == message


def test_gap_is_zero_without_a_second_type():
    env = dm.Environment([(0,), (1,)], ["s", "u"], [(0, 1), (0, 1)],
                         lambda i, t, s, r: r, values_kind=dm.PRIVATE_VALUES)
    assert dm.compute_gap(env) == dm.Gap(gamma=0, argmin_witness=None)
