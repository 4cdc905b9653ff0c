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
from typing import Any, Optional

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
from .errors import WrongValuesKind
from .payoffs import Mechanism, PayoffTable, payoff_table

EXPOST_NASH = "expost_nash"
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


def check_expost_nash_truthful(
    mech: Mechanism,
    env: Environment,
    budget: int = DEFAULT_BUDGET,
    *,
    table: PayoffTable | None = None,
) -> VerificationReport:
    """Truth is a best response to truthful opponents at every type vector.

    Margin is the minimum slack over all (t, i, b_i); a failing report
    carries the witness (i, t, b_i, truthful EU, deviation EU).  ``table``
    shares payoffs with other checks of the same mechanism.
    """
    table = payoff_table(
        mech, env, EXPOST_NASH, max(env.num_deviations(), 1), budget, table
    )
    margin = math.inf
    witness = None
    passed = True
    for kt, i, b_i, base, dev in table.unilateral():
        slack = base - dev
        if slack < margin:
            margin = slack
            if slack < -ABS_TOL:
                passed = False
                witness = (i, table.vector(kt), env.type_spaces[i][b_i], base, dev)
    return VerificationReport(EXPOST_NASH, passed, float(margin), witness)


def check_strictly_dominant_truthful(
    mech: Mechanism,
    env: Environment,
    budget: int = DEFAULT_BUDGET,
    strict_tol: float = ABS_TOL,
    *,
    table: PayoffTable | None = None,
) -> VerificationReport:
    """Truth strictly beats every misreport against every opponent announcement.

    Requires private reactions (or private values); otherwise deviation
    payoffs against non-truthful opponents are not well defined here.
    Under private values agent i's slacks depend on the true vector only
    through t_i (the table keys them so), and only the first true vector
    with each (i, t_i) is visited: the budget counts the
    ``env.num_deviations()`` slacks evaluated, where the full loop of the
    other kinds counts N * sum_i (|T_i| - 1) * |T_-i|.
    """
    if env.values_kind not in (PRIVATE_REACTIONS, PRIVATE_VALUES):
        raise WrongValuesKind(env.values_kind)
    N = env.num_type_vectors()
    if env.values_kind == PRIVATE_VALUES:
        needed = env.num_deviations()
    else:
        needed = N * sum((len(ts) - 1) * (N // len(ts)) for ts in env.type_spaces)
    table = payoff_table(mech, env, STRICTLY_DOMINANT, max(needed, 1), budget, table)
    margin = math.inf
    witness = None
    passed = True
    for kt, digits in enumerate(table.digits()):
        for i, (t_i, stride) in enumerate(zip(digits, table.strides)):
            if table.own(i, kt) != kt:
                # the slacks of (i, t_i) at its first vector, own(i, kt)
                continue
            for k in table.bases[i]:
                base = table.eu(k + t_i * stride, i, kt)
                for b_i in range(table.sizes[i]):
                    if b_i == t_i:
                        continue
                    dev = table.eu(k + b_i * stride, i, kt)
                    slack = base - dev
                    if slack < margin:
                        margin = slack
                        witness = (i, table.vector(kt), env.type_spaces[i][b_i],
                                   table.opponents(k, i), base, dev)
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
    *,
    table: PayoffTable | None = None,
) -> Optional[dict]:
    """First announcement map (canonical order) that dominates W_i, if any.

    A candidate dominates when it is weakly better against every opponent
    announcement vector and every true type vector, and strictly better
    somewhere (slack above ``strict_tol``).
    """
    types_i = env.type_spaces[i]
    map_count = len(types_i) ** len(types_i)
    opp = math.prod(len(env.type_spaces[j]) for j in env.agents if j != i)
    table = payoff_table(
        mech, env, "dominating_strategy", map_count * env.num_type_vectors() * opp,
        budget, table,
    )
    index = {t: j for j, t in enumerate(types_i)}
    old = tuple(index[W_i[t]] for t in types_i)
    stride = table.strides[i]
    for images in itertools.product(range(len(types_i)), repeat=len(types_i)):
        if images == old:
            continue
        dominates = True
        strict_somewhere = False
        for kt, digits in enumerate(table.digits()):
            if not dominates:
                break
            b_old, b_new = old[digits[i]] * stride, images[digits[i]] * stride
            for k in table.bases[i]:
                diff = table.eu(k + b_new, i, kt) - table.eu(k + b_old, i, kt)
                if diff < -ABS_TOL:
                    dominates = False
                    break
                if diff > strict_tol:
                    strict_somewhere = True
        if dominates and strict_somewhere:
            return {t: types_i[j] for t, j in zip(types_i, images)}
    return None


def implementation_gap(
    mech: Mechanism,
    env: Environment,
    F: ObjectiveFunction,
    W: tuple,
    budget: int = DEFAULT_BUDGET,
    *,
    table: PayoffTable | None = None,
):
    """Worst shortfall of E[F] under W from the pointwise optimum.

    Enumerates the full type space, reading each announcement's outcome
    distribution from ``table`` (shared with other checks of the same
    mechanism).  Returns (beta_measured, worst type vector).
    """
    table = payoff_table(
        mech, env, "implementation_gap", env.num_type_vectors() * len(env.alternatives),
        budget, table,
    )
    index = [{t: j for j, t in enumerate(ts)} for ts in env.type_spaces]
    worst = -math.inf
    worst_t = None
    for t in table.vectors:
        kb = sum(
            index[i][W[i][t_i]] * stride
            for i, (t_i, stride) in enumerate(zip(t, table.strides))
        )
        scores = [F.eval(t, s) for s in env.alternatives]
        expected = sum(p * scores[a] for p, _, a, _ in table.dist(kb))
        gap = max(scores) - expected
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
