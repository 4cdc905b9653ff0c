"""The tests' naive oracle: expected utilities and optimal reactions on type
tuples, by direct utility calls.

The library reads every expected utility from ``PayoffTable.eu`` over
``Environment.utilities``; these functions compute the same quantities the
plain way, from a mechanism's distribution at an announced tuple and
``environment.optimal_reaction``, so the tests can compare the two.
"""

from __future__ import annotations

import itertools
from typing import Any

from dpmech.environment import Environment, _near_max, optimal_reaction
from dpmech.payoffs import Mechanism
from dpmech.verify import announce, truthful_profile


def opponent_vectors(env: Environment, i: int):
    """Iterate over T_{-i}: the other agents' types, as tuples of length
    n-1 in the order of the remaining coordinates."""
    spaces = [env.type_spaces[j] for j in env.agents if j != i]
    return itertools.product(*spaces)


def insert_type(env: Environment, i: int, t_i, t_minus: tuple) -> tuple:
    return tuple(t_minus[:i]) + (t_i,) + tuple(t_minus[i:])


def optimal_reaction_set(env: Environment, i: int, t: tuple, s) -> tuple:
    """All reactions within tolerance of the maximum utility."""
    reactions = env.reaction_spaces[i]
    return _near_max(reactions, [env.utility(i, t, s, r) for r in reactions])


def unilateral_deviation(env: Environment, i: int, t_i, b_i) -> tuple:
    """Truthful profile except agent i maps t_i to b_i."""
    W = [dict(m) for m in truthful_profile(env)]
    W[i][t_i] = b_i
    return tuple(W)


def _utility_at(env: Environment, i: int, t: tuple, outcome) -> Any:
    s = outcome.alternative
    r = outcome.imposed[i] if outcome.imposing else optimal_reaction(env, i, t, s)
    return env.utility(i, t, s, r)


def expected_utility(mech: Mechanism, env: Environment, W: tuple, i: int, t: tuple):
    """Exact expected utility of agent i with true types t under profile W.

    For free outcomes the agent best-responds with its true type
    (opponents' types are read off their truthful announcements); an
    imposing outcome fixes the agent's reaction to the one it imposes.
    """
    return mech(announce(W, t)).expectation(lambda o: _utility_at(env, i, t, o))
