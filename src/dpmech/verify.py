"""Exact incentive and accuracy verification.

Expected utilities are read from a ``PayoffTable`` (exact sums over outcome
distributions); the checks (ex-post Nash truthfulness, strict dominance,
dominated strategies and the implementation gap) enumerate exhaustively
within an explicit budget and return replayable witnesses on failure.

Scope: deviation checks for interdependent values are restricted to
unilateral deviations from the truthful profile, so the reacting agent can
read opponents' true types off their announcements.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple, Optional

from .environment import (
    ABS_TOL,
    DEFAULT_BUDGET,
    Environment,
    HistogramObjective,
    ObjectiveFunction,
)
from .errors import WrongValuesKind
from .outcomes import left_sum, softmax
from .payoffs import Mechanism, payoff_table

EXPOST_NASH = "expost_nash"
STRICTLY_DOMINANT = "strictly_dominant"


class VerificationReport(NamedTuple):
    property: str
    passed: bool
    margin: float
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


def truthful_profile(env: Environment) -> tuple:
    """The identity announcement map for every agent."""
    return tuple({t: t for t in space} for space in env.type_spaces)


def constant_map(env: Environment, i: int, b_i) -> dict:
    return {t: b_i for t in env.type_spaces[i]}


def announce(W: tuple, t: tuple) -> tuple:
    return tuple(W[i][t_i] for i, t_i in enumerate(t))


def check_expost_nash_truthful(
    mech: Mechanism,
    env: Environment,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Truth is a best response to truthful opponents at every type vector.

    Margin is the minimum slack over all (t, i, b_i); a failing report
    carries the witness (i, t, b_i, truthful EU, deviation EU), reading
    the table ``env`` holds for ``mech`` (``PayoffTable.of``).
    """
    table = payoff_table(
        mech, env, EXPOST_NASH, max(env.num_deviations(), 1), budget
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
                witness = (i, env.vector(kt), env.type_spaces[i][b_i], base, dev)
    return VerificationReport(EXPOST_NASH, passed, float(margin), witness)


def check_strictly_dominant_truthful(
    mech: Mechanism,
    env: Environment,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Truth strictly beats every misreport against every opponent announcement.

    Requires private reactions (or private values); otherwise deviation
    payoffs against non-truthful opponents are not well defined here.
    Agent i's slacks are walked at the true vectors that key its payoffs
    (``env.keys(i)``), every other one repeating those at its key, by true
    vector, then agent: the budget counts the slacks evaluated,
    sum_i keys(i) * (|T_i| - 1) * |T_-i|.  Reads the table ``env`` holds for
    ``mech``.
    """
    if not env.private_reactions:
        raise WrongValuesKind(env.values_kind)
    N = env.num_type_vectors()
    needed = sum(env.num_keys(i) * (m - 1) * (N // m) for i, m in enumerate(env.sizes))
    table = payoff_table(mech, env, STRICTLY_DOMINANT, max(needed, 1), budget)
    margin = math.inf
    witness = None
    passed = True
    for kt, i in sorted((kt, i) for i in env.agents for kt in env.keys(i)):
        stride, m = env.strides[i], env.sizes[i]
        t_i = kt // stride % m
        for k in env.bases[i]:
            base = table.eu(k + t_i * stride, i, kt)
            for b_i in range(m):
                if b_i == t_i:
                    continue
                dev = table.eu(k + b_i * stride, i, kt)
                slack = base - dev
                if slack < margin:
                    margin = slack
                    witness = (i, env.vector(kt), env.type_spaces[i][b_i],
                               env.opponents(k, i), base, dev)
                if slack <= ABS_TOL:
                    passed = False
    return VerificationReport(STRICTLY_DOMINANT, passed, float(margin), witness)


def find_dominating_strategy(
    mech: Mechanism,
    env: Environment,
    i: int,
    W_i: dict,
    budget: int = DEFAULT_BUDGET,
) -> Optional[dict]:
    """First announcement map (canonical order) that dominates W_i, if any.

    A candidate dominates when it is weakly better against every opponent
    announcement vector and every true type vector, and strictly better
    somewhere (slack above ``ABS_TOL``).  Only the true vectors that key
    agent i's payoffs (``env.keys(i)``) are read and budgeted.  Reads the
    table ``env`` holds.
    """
    types_i = env.type_spaces[i]
    map_count = len(types_i) ** len(types_i)
    needed = map_count * env.num_keys(i) * (env.num_type_vectors() // len(types_i))
    table = payoff_table(mech, env, "dominating_strategy", needed, budget)
    old = tuple(env.type_index[i][W_i[t]] for t in types_i)
    stride, m = env.strides[i], env.sizes[i]
    for images in itertools.product(range(len(types_i)), repeat=len(types_i)):
        if images == old:
            continue
        dominates = True
        strict_somewhere = False
        for kt in env.keys(i):
            if not dominates:
                break
            t_i = kt // stride % m
            b_old, b_new = old[t_i] * stride, images[t_i] * stride
            for k in env.bases[i]:
                diff = table.eu(k + b_new, i, kt) - table.eu(k + b_old, i, kt)
                if diff < -ABS_TOL:
                    dominates = False
                    break
                if diff > ABS_TOL:
                    strict_somewhere = True
        if dominates and strict_somewhere:
            return {t: types_i[j] for t, j in zip(types_i, images)}
    return None


def implementation_gap(
    mech: Mechanism,
    env: Environment,
    F: ObjectiveFunction,
    budget: int = DEFAULT_BUDGET,
):
    """Worst shortfall of E[F] under truthful play from the pointwise optimum.

    Enumerates the full type space, reading each truthful announcement's
    outcome distribution from the table ``env`` holds for ``mech`` and F
    from ``env.scores``.  Returns (beta_measured, worst type vector).
    """
    table = payoff_table(
        mech, env, "implementation_gap", env.num_type_vectors() * len(env.alternatives),
        budget,
    )
    worst = -math.inf
    worst_t = None
    for k, (t, scores) in enumerate(zip(env.type_vectors(), env.scores(F))):
        expected = left_sum(p * scores[a] for p, _, a, _ in table.dist(k))
        gap = max(scores) - expected
        if gap > worst:
            worst = gap
            worst_t = t
    return float(worst), worst_t


def histogram_gap(
    objective: HistogramObjective, counts, rate: float, P, q: float
) -> tuple[float, int]:
    """Worst shortfall of the lottery's E[F] from max F over type histograms.

    ``implementation_gap`` on probe histograms (rows of ``counts``): the
    lottery puts 1 - q on the exponential mechanism at ``rate`` and q on the
    commitment distribution ``P``'s alternative marginal.  Returns
    (beta_measured, worst row), the first row on a tie.
    """
    marginal = [0.0] * len(objective.alternatives)
    for s, p in zip(P.alternatives, P.probs):
        marginal[objective.index[s]] += float(p)
    beta, worst = -math.inf, 0
    for k, row in enumerate(objective.scores(counts)):
        expmech = left_sum(map(operator.mul, softmax(row, rate), row))
        committed = left_sum(map(operator.mul, row, marginal))
        gap = max(row) - ((1 - q) * expmech + q * committed)
        if gap > beta:
            beta, worst = gap, k
    return beta, worst
