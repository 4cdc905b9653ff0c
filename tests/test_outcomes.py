import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpmech as dm
from dpmech.outcomes import SUM_TOL, left_sum, softmax


def test_validation():
    o = dm.Outcome("a")
    with pytest.raises(ValueError, match="sum"):
        dm.OutcomeDistribution([o], [0.5])
    with pytest.raises(ValueError, match="negative"):
        dm.OutcomeDistribution([o, o], [-0.5, 1.5])
    with pytest.raises(ValueError, match="lengths"):
        dm.OutcomeDistribution([o], [0.5, 0.5])


def test_imposing_flag_and_masses():
    free = dm.Outcome("a")
    forced = dm.Outcome("a", imposed=("buy",))
    assert not free.imposing and forced.imposing
    dist = dm.OutcomeDistribution([free, forced], [Fraction(3, 4), Fraction(1, 4)])
    assert dist.imposing_mass() == Fraction(1, 4)
    assert dist.marginal_alternatives() == {"a": 1}


def test_mix_keeps_components_separate():
    d1 = dm.OutcomeDistribution([dm.Outcome("a")], [1])
    d2 = dm.OutcomeDistribution([dm.Outcome("a", imposed=("r",))], [1])
    mixed = dm.mix([d1, d2], [Fraction(2, 3), Fraction(1, 3)])
    assert len(mixed) == 2
    assert mixed.imposing_mass() == Fraction(1, 3)
    assert mixed.marginal_alternatives() == {"a": 1}


def test_sample_deterministic_and_supported():
    dist = dm.OutcomeDistribution(
        [dm.Outcome(s) for s in "abc"], [0.2, 0.5, 0.3]
    )
    a = [dist.sample(np.random.default_rng(7)).alternative for _ in range(3)]
    b = [dist.sample(np.random.default_rng(7)).alternative for _ in range(3)]
    assert a == b
    rng = np.random.default_rng(0)
    counts = {s: 0 for s in "abc"}
    for _ in range(2000):
        counts[dist.sample(rng).alternative] += 1
    assert abs(counts["b"] / 2000 - 0.5) < 0.05


@given(
    st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=6),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
)
@settings(max_examples=50, deadline=None)
def test_mix_expectation_is_convex(weights, w):
    total = sum(weights)
    if total == 0:
        weights = [Fraction(1)] + weights[1:]
        total = sum(weights)
    probs = [x / total for x in weights]
    outs = [dm.Outcome(k) for k in range(len(probs))]
    d1 = dm.OutcomeDistribution(outs, probs)
    d2 = dm.OutcomeDistribution(list(reversed(outs)), probs)
    mixed = dm.mix([d1, d2], [w, 1 - w])
    fn = lambda o: o.alternative
    assert abs(sum(mixed.probs) - 1) <= SUM_TOL
    assert mixed.expectation(fn) == w * d1.expectation(fn) + (1 - w) * d2.expectation(fn)


def _loop_sum(terms):
    total = 0
    for x in terms:
        total += x
    return total


def test_left_sum_adds_left_to_right():
    """left_sum is a literal left-to-right loop, not a compensated or exact
    float sum: on these lists it often differs from math.fsum."""
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert math.fsum([0.1] * 10) == 1.0
    rng = random.Random(20261018)
    differs = 0
    for _ in range(500):
        terms = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 6)
                 for _ in range(rng.randint(0, 8))]
        got = left_sum(iter(terms))
        assert repr(got) == repr(_loop_sum(terms))
        differs += got != math.fsum(terms)
    assert differs > 50


def test_left_sum_keeps_exact_terms_exact():
    terms = [Fraction(1, k) for k in range(1, 30)]
    got = left_sum(terms)
    assert type(got) is Fraction and got == sum(terms)
    assert left_sum([1, 2, 3]) == 6 and type(left_sum([1, 2])) is int
    assert left_sum([]) == 0
    # a float term turns the running total into a float from there on
    assert left_sum([Fraction(1, 3), 0.5]) == float(Fraction(1, 3)) + 0.5


def test_probability_checks_measure_the_true_sum():
    """100 000 equal float probabilities add, left to right, to
    0.9999999999980838: further from 1 than SUM_TOL, though their true sum
    is within it.  Both probability-sum checks accept them."""
    probs = softmax([0.0] * 100_000, 1.0)
    assert abs(left_sum(probs) - 1) > SUM_TOL >= abs(math.fsum(probs) - 1)
    dist = dm.OutcomeDistribution([dm.Outcome(k) for k in range(100_000)], probs)
    assert len(dist) == 100_000
    assert dm.CommitmentDistribution(range(100_000), probs, [0]).p_tilde == probs[0]


class _LastDrawRng:
    """A generator whose ``random()`` is the largest float below 1."""

    def random(self):
        return 1 - 2**-53


def test_sample_past_the_float_cdf_skips_zero_probability():
    # the CDF stops at the draw, 1 - 2^-53, and exp(-2e9) underflows to 0
    probs = softmax([0.0, 1.0, -1e9], 2.0)
    assert probs[2] == 0 and left_sum(probs) == 1 - 2**-53
    dist = dm.OutcomeDistribution([dm.Outcome(s) for s in "abc"], probs)
    assert dist.sample(_LastDrawRng()).alternative == "b"
