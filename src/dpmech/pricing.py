"""Digital-goods monopolist pricing environments.

Agents sit in cohorts; a cohort's signal vector determines every member's
valuation (interdependent values).  The alternative is a posted price, the
reactions are Buy / NotBuy, and the objective is average revenue per agent.
Also builds the two counterexample economies: the pure exponential mechanism
with its dominant low announcement, and the optimal-price lottery whose
all-announce-low profile is a bad Nash equilibrium.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .environment import HistogramInstance, HistogramObjective
from .errors import GridTooCoarse, ResolutionBudgetExceeded
from .facility import DEFAULT_SUPPORT_CAP, SCORE_TABLE_CAP
from .outcomes import Outcome, OutcomeDistribution
from .payoffs import Mechanism

BUY = "buy"
NOT_BUY = "not-buy"

# NOT_BUY first so a value-equals-price tie resolves to not buying
REACTIONS = (NOT_BUY, BUY)


def _utility(table: dict, vmax, X: tuple, j: int, p, r):
    """Member j's utility at its cohort's signals X: (raw + 1) / (1 + vmax),
    where raw is V - p for a purchase and 0 otherwise, V = table[X][j]."""
    raw = (table[X][j] - p) if r == BUY else 0
    return (raw + 1) / (1 + vmax)


def _buyer_count(vals: Sequence, p) -> int:
    # strict inequality: value exactly at the price does not buy
    return sum(1 for v in vals if v > p)


def build_pricing_env(
    N: int,
    D: int,
    m: int,
    signal_spaces: Sequence[Sequence],
    valuation: Callable[[tuple], tuple],
) -> HistogramInstance:
    """Cohort pricing economy on the price grid {0, 1/m, ..., 1}.

    ``signal_spaces`` gives each cohort member's finite signal set (listed in
    increasing order, same for every cohort); ``valuation`` maps a cohort's
    signal vector to the D member valuations.  Verifies monotonicity and the
    grid-fineness premise by enumeration.
    """
    if N < 1 or D < 1 or m < 1:
        raise ValueError("need N, D, m >= 1")
    signal_spaces = tuple(tuple(s) for s in signal_spaces)
    if len(signal_spaces) != D:
        raise ValueError("need one signal space per cohort member")

    # the m + 1 prices, then the cells x prices score table, over their caps
    # are refused before either is listed
    cells = math.prod(map(len, signal_spaces))
    if m + 1 > DEFAULT_SUPPORT_CAP:
        raise ResolutionBudgetExceeded(m + 1, DEFAULT_SUPPORT_CAP)
    if cells * (m + 1) > SCORE_TABLE_CAP:
        raise ResolutionBudgetExceeded(f"{cells}x{m + 1}", SCORE_TABLE_CAP, "score table")
    table = {X: tuple(valuation(X)) for X in itertools.product(*signal_spaces)}
    for X, vals in table.items():
        if len(vals) != D:
            raise ValueError(f"valuation at {X} has {len(vals)} entries, want {D}")
    vmax = max(v for vals in table.values() for v in vals)
    prices = tuple(Fraction(k, m) for k in range(m + 1))

    _check_monotone(signal_spaces, table)
    _check_fineness(signal_spaces, table, m)

    # gamma_declared: the grid bound 1/m in utility units; the gap may exceed it
    return HistogramInstance(
        F=_revenue_objective(signal_spaces, table, prices, N, D), reactions=REACTIONS,
        utility=partial(_utility, table, vmax), gamma_declared=Fraction(1, m) / (1 + vmax),
    )


def _revenue_objective(signal_spaces, table, prices, N, d, scale=1) -> HistogramObjective:
    """Average revenue per agent times ``scale``, from the cohort histogram,
    declared d-sensitive.

    B[X, p] counts the members of a cohort with signal vector X who value
    the good strictly above p; F(t, p) = scale * p * (c @ B[:, p]) / n.
    Each cell's valuations are sorted once, and the members at or below p
    found by bisection.
    """
    B = []
    for X in itertools.product(*signal_spaces):
        vals = sorted(table[X])
        B.append([len(vals) - bisect.bisect_right(vals, p) for p in prices])
    return HistogramObjective(
        signal_spaces, prices, B, offset=0, weights=[scale * p for p in prices],
        denom=N * len(signal_spaces), units=N, sensitivity_d=d,
    )


def _signal_steps(signal_spaces, table):
    """(j, rest, V_lo, V_hi) per step of member j's signal to its next one, at
    each signal vector ``rest`` of the others: the valuations either side."""
    for j, own in enumerate(signal_spaces):
        if len(own) < 2:  # no step; skipped before the others' product is listed
            continue
        for rest in itertools.product(*signal_spaces[:j], *signal_spaces[j + 1:]):
            for lo, hi in zip(own, own[1:]):
                yield (j, rest, table[rest[:j] + (lo,) + rest[j:]],
                       table[rest[:j] + (hi,) + rest[j:]])


def _check_monotone(signal_spaces, table):
    for j, rest, v_lo, v_hi in _signal_steps(signal_spaces, table):
        diffs = [h - l for l, h in zip(v_lo, v_hi)]
        if any(d < 0 for d in diffs):
            raise ValueError(f"valuation not monotone in member {j}'s signal at {rest}")
        if not any(d > 0 for d in diffs):
            raise ValueError(f"raising member {j}'s signal at {rest} moves no valuation")


def _check_fineness(signal_spaces, table, m):
    """Some grid price p has V_hi > p + 2/m > p > V_lo for each own-signal pair.

    Steps suffice: after ``_check_monotone`` V_j does not fall along j's
    signals, so a pair's window (V_lo, V_hi - 2/m) holds each of its steps'
    windows, and the first failing pair in ``combinations`` order is the
    first failing step.
    """
    two_over_m = Fraction(2, m)
    for j, _, v_lo, v_hi in _signal_steps(signal_spaces, table):
        if not any(v_hi[j] > Fraction(k, m) + two_over_m and Fraction(k, m) > v_lo[j]
                   for k in range(m + 1)):
            raise GridTooCoarse(v_lo[j], v_hi[j])


def _two_level_instance(n: int, v_low, v_high, prices, mu) -> HistogramInstance:
    """n independent buyers with valuation v_low or v_high; custom price set.

    A cohort economy of size D=1 whose signal is the valuation itself.
    """
    if not 0 < mu < Fraction(1, 2):
        raise ValueError("mu must lie in (0, 0.5)")
    types = (v_low, v_high)
    table = {(v,): (v,) for v in types}
    return HistogramInstance(
        F=_revenue_objective((types,), table, prices, n, 1, scale=1 / (1 + mu)),
        reactions=REACTIONS,
        utility=partial(_utility, table, v_high), gamma_declared=None,
    )


def example1_env(n: int, mu=Fraction(1, 4)) -> HistogramInstance:
    """Buyers valued 1/2+mu or 1+mu, prices {1/2, 1}.

    Under the pure exponential mechanism the constant low announcement
    dominates truth for high types, driving revenue to 1/2 per buyer
    against an optimum of 1.  Objective values are divided by 1+mu so the
    optimum sits at 1/(1+mu).
    """
    mu = Fraction(mu) if not isinstance(mu, float) else mu
    return _two_level_instance(
        n, Fraction(1, 2) + mu, 1 + mu, (Fraction(1, 2), Fraction(1)), mu
    )


def example3_env(n: int, mu=Fraction(1, 4)) -> HistogramInstance:
    """Buyers valued 1/n or 1+mu, prices {1/n, 1}."""
    mu = Fraction(mu) if not isinstance(mu, float) else mu
    if n < 2:
        raise ValueError("need n >= 2")
    return _two_level_instance(n, Fraction(1, n), 1 + mu, (Fraction(1, n), Fraction(1)), mu)


def optimal_announced_price(inst: HistogramInstance, b: tuple):
    """Revenue-maximizing price for the announced valuations, ties upward.

    Counts announced buyers weakly (V >= p): the monopolist prices assuming
    indifferent agents purchase, which is what makes the announced-low
    profile's optimal price sit at the low price instead of degenerating.
    """
    best_p = None
    best_rev = None
    for p in inst.F.alternatives:
        rev = p * sum(1 for v in b if v >= p)
        if best_rev is None or rev >= best_rev:
            best_p, best_rev = p, rev
    return best_p


def example3_mechanism(inst: HistogramInstance, imposing_prob=None) -> Mechanism:
    """Posts the announced-optimal price; imposes reactions with low probability.

    For D=1 instances, where announced types are the valuations (as
    ``optimal_announced_price`` assumes).  With probability 1 - imposing_prob
    (default 1 - 1/n) the price stands and agents react freely; otherwise
    the announced-optimal reaction is imposed: Buy for an announced
    valuation at least the price, so a value-equals-price tie is imposed as
    Buy (matching the weak buyer count in the price choice).
    ``imposing_prob=1`` gives the fully imposing variant.
    """
    q = Fraction(1, inst.n) if imposing_prob is None else Fraction(imposing_prob)

    def mech(b: tuple) -> OutcomeDistribution:
        p = optimal_announced_price(inst, b)
        imposed = Outcome(p, imposed=tuple(BUY if v >= p else NOT_BUY for v in b))
        return OutcomeDistribution([Outcome(p), imposed], [1 - q, q])

    return mech


def revenue_per_agent(inst: HistogramInstance, t: tuple, p):
    """Exact unnormalized average revenue p * |{i: V_i > p}| / n.

    Only for D=1 instances, where announced types are the valuations.
    """
    if len(inst.F.member_types) != 1:
        raise ValueError("revenue_per_agent expects a D=1 instance")
    return p * Fraction(_buyer_count(t, p), inst.n)
