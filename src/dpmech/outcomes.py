"""Exact outcome distributions over (alternative, imposed reactions) pairs.

A mechanism maps an announced type vector to one of these distributions.
An imposing outcome fixes one reaction per agent; ``None`` means every agent
reacts freely (a non-imposing outcome).
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple, Sequence

SUM_TOL = 1e-12


def left_sum(terms):
    """Sum of ``terms`` added one at a time, left to right, from 0.

    This is what the built-in ``sum`` computes on CPython up to 3.11; from
    3.12 the built-in compensates float additions, so an expected utility
    or a normaliser summed with it can move by an ulp between interpreters.
    Exact terms (ints, Fractions) give the exact sum either way.
    """
    total = 0
    for x in terms:
        total += x
    return total


def softmax(values: list, rate: float) -> list:
    """Selection probabilities proportional to exp(rate * v) over float
    objective values, by a max-shifted softmax.  Raises ValueError when a
    rate * v is not a finite float (see ``check_normaliser``)."""
    scores = [rate * v for v in values]
    m = max(scores)
    weights = [math.exp(x - m) for x in scores]
    z = left_sum(weights)
    check_normaliser(z)
    return [w / z for w in weights]


def check_normaliser(z) -> None:
    """Refuse a max-shifted softmax normaliser ``z`` that is not >= 1.

    With finite scores the largest one's weight is exactly 1; an infinite
    or NaN score, wherever it stands, makes a weight and so ``z`` NaN.
    """
    if not z >= 1:
        raise ValueError(f"softmax normaliser {z}: a rate * value is not finite")


def check_probabilities(probs) -> None:
    """Refuse a negative or NaN probability, and a total not within
    ``SUM_TOL`` of 1 (a NaN or infinite total included)."""
    if not all(p >= 0 for p in probs):
        raise ValueError("negative or NaN probability")
    total = math.fsum(probs)
    if not abs(total - 1) <= SUM_TOL:
        raise ValueError(f"probabilities must sum to 1, not {total}")


class Outcome(NamedTuple):
    alternative: Any
    imposed: tuple | None = None  # one reaction per agent

    @property
    def imposing(self) -> bool:
        return self.imposed is not None


class OutcomeDistribution:
    """A finite-support probability distribution over outcomes.

    Probabilities may be exact (Fraction) or float; the support order is the
    construction order and is the canonical order used for inverse-CDF
    sampling, so runs are bit-reproducible for a fixed stream.
    """

    __slots__ = ("outcomes", "probs")

    def __init__(self, outcomes: Sequence[Outcome], probs: Sequence):
        outcomes = tuple(outcomes)
        probs = tuple(probs)
        if len(outcomes) != len(probs):
            raise ValueError("support and probability lengths differ")
        check_probabilities(probs)
        self.outcomes = outcomes
        self.probs = probs

    def __len__(self) -> int:
        return len(self.outcomes)

    def items(self):
        return zip(self.outcomes, self.probs)

    def marginal_alternatives(self) -> dict:
        """Marginal distribution over alternatives (imposed reactions summed out)."""
        marg: dict = {}
        for o, p in self.items():
            marg[o.alternative] = marg.get(o.alternative, 0) + p
        return marg

    def imposing_mass(self):
        """Total probability of the imposing outcomes."""
        return left_sum(p for o, p in self.items() if o.imposing)

    def expectation(self, fn):
        """Exact expectation of fn(outcome) under this distribution."""
        return left_sum(p * fn(o) for o, p in self.items() if p != 0)

    def sample(self, rng) -> Outcome:
        """Inverse-CDF draw over the stored support order.

        ``rng`` is a numpy Generator (or anything with ``random()``); the
        draw is deterministic given the stream state.
        """
        u = rng.random()
        acc = 0.0
        for o, p in self.items():
            acc += float(p)
            if u < acc:
                return o
        # u past the float CDF: the last outcome that has probability
        return next(o for o, p in zip(reversed(self.outcomes), reversed(self.probs)) if p > 0)


def mix(components: Sequence[OutcomeDistribution], weights: Sequence) -> OutcomeDistribution:
    """Convex combination of distributions, keeping components' outcomes apart.

    Outcomes are concatenated in component order; no merging occurs, so an
    alternative reachable both with and without imposition stays represented
    by two distinct support points.
    """
    outcomes: list[Outcome] = []
    probs: list = []
    for dist, w in zip(components, weights):
        for o, p in dist.items():
            outcomes.append(o)
            probs.append(w * p)
    return OutcomeDistribution(outcomes, probs)
