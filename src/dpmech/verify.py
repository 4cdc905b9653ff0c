"""Exact incentive and accuracy verification.

Expected utilities are computed from exact outcome distributions; the checks
(ex-post Nash truthfulness, strict dominance, dominated strategies and the
implementation gap) enumerate exhaustively within an explicit budget and
return replayable witnesses on failure.

Scope: deviation checks for interdependent values are restricted to
unilateral deviations from the truthful profile, so the reacting agent can
read opponents' true types off their announcements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .environment import (
    ABS_TOL,
    DEFAULT_BUDGET,
    PRIVATE_REACTIONS,
    PRIVATE_VALUES,
    Environment,
    HistogramObjective,
    ObjectiveFunction,
    optimal_reaction,
)
from .errors import EnumerationBudgetExceeded, WrongValuesKind
from .outcomes import OutcomeDistribution

Mechanism = Callable[[tuple], OutcomeDistribution]

EXPOST_NASH = "expost_nash"
DOMINANT = "dominant"
STRICTLY_DOMINANT = "strictly_dominant"


@dataclass(frozen=True)
class VerificationReport:
    property: str
    passed: bool
    margin: float
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


def truthful_profile(env: Environment) -> tuple:
    """The identity announcement map for every agent."""
    return tuple({t: t for t in space} for space in env.type_spaces)


def unilateral_deviation(env: Environment, i: int, t_i, b_i) -> tuple:
    """Truthful profile except agent i maps t_i to b_i."""
    W = [dict(m) for m in truthful_profile(env)]
    W[i][t_i] = b_i
    return tuple(W)


def constant_map(env: Environment, i: int, b_i) -> dict:
    return {t: b_i for t in env.type_spaces[i]}


def announce(W: tuple, t: tuple) -> tuple:
    return tuple(W[i][t_i] for i, t_i in enumerate(t))


def _utility_at(env: Environment, i: int, t: tuple, outcome) -> Any:
    allowed = (
        outcome.restrictions[i] if outcome.restrictions is not None
        else env.reaction_spaces[i]
    )
    r = optimal_reaction(env, i, t, outcome.alternative, allowed)
    return env.utility(i, t, outcome.alternative, r)


def expected_utility(mech: Mechanism, env: Environment, W: tuple, i: int, t: tuple):
    """Exact expected utility of agent i with true types t under profile W.

    For unrestricted outcomes the agent best-responds with her true type
    (opponents' types are read off their truthful announcements); for imposed
    outcomes the committed reaction is forced through the singleton
    restriction the mechanism supplied.
    """
    dist = mech(announce(W, t))
    return sum(
        p * _utility_at(env, i, t, o) for o, p in dist.items() if p != 0
    )


def _budget_check(needed: int, budget: int):
    if needed > budget:
        raise EnumerationBudgetExceeded(needed, budget)


class _EUCache:
    """Memoizes mechanism distributions and per-(b, i, t) expected utilities."""

    def __init__(self, mech: Mechanism, env: Environment):
        self.mech = mech
        self.env = env
        self._dists: dict = {}
        self._eu: dict = {}

    def dist(self, b: tuple) -> OutcomeDistribution:
        d = self._dists.get(b)
        if d is None:
            d = self.mech(b)
            self._dists[b] = d
        return d

    def eu(self, b: tuple, i: int, t: tuple):
        key = (b, i, t)
        v = self._eu.get(key)
        if v is None:
            dist = self.dist(b)
            v = sum(
                p * _utility_at(self.env, i, t, o)
                for o, p in dist.items()
                if p != 0
            )
            self._eu[key] = v
        return v


def check_expost_nash_truthful(
    mech: Mechanism, env: Environment, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Truth is a best response to truthful opponents at every type vector.

    Margin is the minimum slack over all (t, i, b_i); a failing report
    carries the witness (i, t, b_i, truthful EU, deviation EU).
    """
    deviations = sum(len(ts) - 1 for ts in env.type_spaces)
    _budget_check(env.num_type_vectors() * max(deviations, 1), budget)
    cache = _EUCache(mech, env)
    margin = math.inf
    witness = None
    passed = True
    for t in env.type_vectors():
        for i in env.agents:
            base = cache.eu(t, i, t)
            for b_i in env.type_spaces[i]:
                if b_i == t[i]:
                    continue
                dev = cache.eu(env.insert_type(i, b_i, t[:i] + t[i + 1:]), i, t)
                slack = base - dev
                if slack < margin:
                    margin = slack
                    if slack < -ABS_TOL:
                        passed = False
                        witness = (i, t, b_i, base, dev)
    return VerificationReport(EXPOST_NASH, passed, float(margin), witness)


def check_strictly_dominant_truthful(
    mech: Mechanism,
    env: Environment,
    budget: int = DEFAULT_BUDGET,
    strict_tol: float = ABS_TOL,
) -> VerificationReport:
    """Truth strictly beats every misreport against every opponent announcement.

    Requires private reactions (or private values); otherwise deviation
    payoffs against non-truthful opponents are not well defined here.
    """
    if env.values_kind not in (PRIVATE_REACTIONS, PRIVATE_VALUES):
        raise WrongValuesKind(env.values_kind)
    opp_counts = [
        math.prod(len(env.type_spaces[j]) for j in env.agents if j != i)
        for i in env.agents
    ]
    needed = env.num_type_vectors() * sum(
        (len(env.type_spaces[i]) - 1) * opp_counts[i] for i in env.agents
    )
    _budget_check(max(needed, 1), budget)
    cache = _EUCache(mech, env)
    margin = math.inf
    witness = None
    passed = True
    for t in env.type_vectors():
        for i in env.agents:
            for b_minus in env.opponent_vectors(i):
                truth_b = env.insert_type(i, t[i], b_minus)
                base = cache.eu(truth_b, i, t)
                for b_i in env.type_spaces[i]:
                    if b_i == t[i]:
                        continue
                    dev = cache.eu(env.insert_type(i, b_i, b_minus), i, t)
                    slack = base - dev
                    if slack < margin:
                        margin = slack
                        witness = (i, t, b_i, b_minus, base, dev)
                    if slack <= strict_tol:
                        passed = False
    return VerificationReport(STRICTLY_DOMINANT, passed, float(margin), witness)


def find_dominating_strategy(
    mech: Mechanism,
    env: Environment,
    i: int,
    W_i: dict,
    budget: int = DEFAULT_BUDGET,
    strict_tol: float = ABS_TOL,
) -> Optional[dict]:
    """First announcement map (canonical order) that dominates W_i, if any.

    A candidate dominates when it is weakly better against every opponent
    announcement vector and every true type vector, and strictly better
    somewhere (slack above ``strict_tol``).
    """
    types_i = env.type_spaces[i]
    map_count = len(types_i) ** len(types_i)
    opp = math.prod(len(env.type_spaces[j]) for j in env.agents if j != i)
    _budget_check(map_count * env.num_type_vectors() * opp, budget)
    cache = _EUCache(mech, env)

    base_images = tuple(W_i[t] for t in types_i)
    for images in itertools.product(types_i, repeat=len(types_i)):
        if images == base_images:
            continue
        cand = dict(zip(types_i, images))
        dominates = True
        strict_somewhere = False
        for t in env.type_vectors():
            if not dominates:
                break
            for b_minus in env.opponent_vectors(i):
                b_old = env.insert_type(i, W_i[t[i]], b_minus)
                b_new = env.insert_type(i, cand[t[i]], b_minus)
                diff = cache.eu(b_new, i, t) - cache.eu(b_old, i, t)
                if diff < -ABS_TOL:
                    dominates = False
                    break
                if diff > strict_tol:
                    strict_somewhere = True
        if dominates and strict_somewhere:
            return cand
    return None


def implementation_gap(
    mech: Mechanism,
    env: Environment,
    F: ObjectiveFunction,
    W: tuple,
    budget: int = DEFAULT_BUDGET,
):
    """Worst shortfall of E[F] under W from the pointwise optimum.

    Enumerates the full type space.  Returns (beta_measured, worst type
    vector).
    """
    _budget_check(env.num_type_vectors() * len(env.alternatives), budget)
    worst = -math.inf
    worst_t = None
    dists: dict = {}
    for t in env.type_vectors():
        b = announce(W, t)
        dist = dists.get(b)
        if dist is None:
            dist = mech(b)
            dists[b] = dist
        expected = sum(p * F.eval(t, o.alternative) for o, p in dist.items() if p != 0)
        best = max(F.eval(t, s) for s in env.alternatives)
        gap = best - expected
        if gap > worst:
            worst = gap
            worst_t = t
    return float(worst), worst_t


def histogram_gap(
    objective: HistogramObjective, counts: np.ndarray, rate: float, P, q: float
) -> tuple[float, int]:
    """Worst shortfall of the lottery's E[F] from max F over type histograms.

    Vectorized ``implementation_gap`` for truthful announcements on probe
    histograms (rows of ``counts``): the lottery puts 1 - q on the
    exponential mechanism at ``rate`` and q on the commitment distribution
    ``P``'s alternative marginal.  Returns (beta_measured, worst row).
    """
    F = objective.scores(counts)
    x = rate * F
    w = np.exp(x - x.max(axis=1, keepdims=True))
    expmech = (w / w.sum(axis=1, keepdims=True) * F).sum(axis=1)
    marginal = np.zeros(len(objective.alternatives))
    for s, p in zip(P.alternatives, P.probs):
        marginal[objective.index[s]] += float(p)
    gaps = F.max(axis=1) - ((1 - q) * expmech + q * (F @ marginal))
    worst = int(np.argmax(gaps))
    return float(gaps[worst]), worst
