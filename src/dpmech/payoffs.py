"""Mechanisms, and the payoff table the exhaustive incentive checkers share.

A :class:`PayoffTable` addresses an environment's type vectors by their
mixed-radix index in canonical order: with ``strides`` the place values of
the per-agent type indices, agent i's unilateral deviation from vector
``k`` (true type index ``t_i``) to type index ``b_i`` is vector
``k + (b_i - t_i) * strides[i]``.  Keyed by such indices, the table
memoizes

- each announcement's outcome distribution, as (probability, alternative
  index, per-agent restriction as reaction indices) entries;
- each agent's optimal reaction and its payoff at a (true vector,
  alternative, restriction);
- each expected utility (announcement, agent, true vector);

so no type tuple is hashed and no payoff is evaluated twice.  Under
private values an agent's reactions, payoffs and expected utilities depend
on the true vector only through its own type, so the table keys them by
the agent's own type index alone (every opponent at index 0); under the
other kinds, whose utilities may read opponents' types, by the full true
vector.  Everything a table holds is bounded by the enumeration of the
checks it serves; build one per check, or one per run of checks on the
same mechanism.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .environment import PRIVATE_VALUES, Environment, check_budget, optimal_reaction
from .outcomes import OutcomeDistribution

Mechanism = Callable[[tuple], OutcomeDistribution]

# pairs() converts its index arrays to Python ints this many at a time
_CHUNK = 1 << 16


class PayoffTable:
    """Index-keyed payoffs of one mechanism on one environment.

    ``mech`` may be None when no expected utilities are needed: for
    payoffs and reactions, or for the index alone (``pairs``, ``bases``).
    Expected utilities are exact sums in the distribution's support order:
    a float probability multiplies the payoff's float value (what ``p * u``
    computes for a rational ``u``), any other probability the payoff itself.
    Agent i's true vector ``k`` is keyed as ``own(i, k)``: its own type
    under private values, the whole vector otherwise.
    """

    def __init__(self, mech: Mechanism | None, env: Environment):
        self.mech = mech
        self.env = env
        self.sizes = tuple(len(ts) for ts in env.type_spaces)
        self.strides = tuple(math.prod(self.sizes[i + 1:]) for i in env.agents)
        self._places = tuple(zip(env.type_spaces, self.strides, self.sizes))
        self._alternative_index = {s: a for a, s in enumerate(env.alternatives)}
        self._reaction_index = [
            {r: j for j, r in enumerate(rs)} for rs in env.reaction_spaces
        ]
        self._unrestricted = [tuple(range(len(rs))) for rs in env.reaction_spaces]
        self._private = env.values_kind == PRIVATE_VALUES
        self._decoded: dict = {}
        self._dists: dict = {}
        self._reactions: dict = {}
        self._payoffs: dict = {}
        self._eus: dict = {}
        self.eu_lookups = 0
        # evaluations each check enumerated, by check name
        self.enumerated: dict = {}

    @cached_property
    def vectors(self) -> list:
        """Every type vector, in canonical order; listed on first use, so
        after a check has compared its enumeration with its budget.  Full
        walks read this list; point lookups read ``vector``."""
        return list(self.env.type_vectors())

    def vector(self, k: int) -> tuple:
        """Type vector k: read from ``vectors`` once a full walk has listed
        them, otherwise decoded from its index alone (and kept)."""
        listed = self.__dict__.get("vectors")
        if listed is not None:
            return listed[k]
        t = self._decoded.get(k)
        if t is None:
            t = self._decoded[k] = tuple([ts[k // s % m] for ts, s, m in self._places])
        return t

    def digits(self) -> Iterator[tuple]:
        """Per-agent type indices of every vector, in vector order."""
        return itertools.product(*(range(k) for k in self.sizes))

    @cached_property
    def bases(self) -> list:
        """Per agent i, the vectors whose agent-i type index is 0, in the
        order of ``env.opponent_vectors(i)``; add t_i * strides[i] for type
        index t_i."""
        places = list(zip(self.sizes, self.strides))
        return [
            [sum(c) for c in itertools.product(
                *(range(0, k * s, s) for j, (k, s) in enumerate(places) if j != i)
            )]
            for i in self.env.agents
        ]

    def pair_index(self) -> tuple:
        """Every unordered unilateral pair as three int arrays (agent i,
        vector ka, vector kb), agent i's type index lower at ka: by agent,
        then opponent profile in the order of ``bases[i]``, then type-index
        pair in ``itertools.combinations`` order."""
        parts = []
        for i, (m, stride) in enumerate(zip(self.sizes, self.strides)):
            a, b = np.array(
                list(itertools.combinations(range(m), 2)), dtype=np.int64
            ).reshape(-1, 2).T
            base = np.array(self.bases[i], dtype=np.int64)[:, None]
            ka = (base + a * stride).ravel()
            parts.append((np.full(ka.size, i), ka, (base + b * stride).ravel()))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def pairs(self) -> Iterator[tuple]:
        """``pair_index`` as (i, ka, kb) tuples of Python ints."""
        agents, ka, kb = self.pair_index()
        for lo in range(0, ka.size, _CHUNK):
            hi = lo + _CHUNK
            yield from zip(agents[lo:hi].tolist(), ka[lo:hi].tolist(), kb[lo:hi].tolist())

    def own(self, i: int, k):
        """The key of true vector k for agent i's payoffs: under private
        values the vector of k's agent-i type with every opponent at type
        index 0, otherwise k.  ``k`` may be an int array, keyed elementwise."""
        if self._private:
            return k // self.strides[i] % self.sizes[i] * self.strides[i]
        return k

    def opponents(self, k: int, i: int) -> tuple:
        """The types of every agent but i in vector k."""
        t = self.vector(k)
        return t[:i] + t[i + 1:]

    def dist(self, k: int) -> list:
        """The mechanism's nonzero-probability outcomes at vector k, as
        (probability, whether it is a float, alternative index, per-agent
        reaction-index restrictions or None)."""
        d = self._dists.get(k)
        if d is None:
            d = self._dists[k] = [
                (
                    p,
                    type(p) is float,
                    self._alternative_index[o.alternative],
                    None if o.restrictions is None else tuple(
                        tuple(index[r] for r in allowed)
                        for index, allowed in zip(self._reaction_index, o.restrictions)
                    ),
                )
                for o, p in self.mech(self.vector(k)).items() if p != 0
            ]
        return d

    def reaction(self, i: int, k: int, a: int, restriction: tuple | None = None) -> int:
        """Index of agent i's optimal reaction at vector k and alternative a,
        among the reaction indices ``restriction`` (all when None)."""
        allowed = self._unrestricted[i] if restriction is None else restriction
        if len(allowed) == 1:
            return allowed[0]
        k = self.own(i, k)
        key = (i, k, a, restriction)
        r = self._reactions.get(key)
        if r is None:
            space = self.env.reaction_spaces[i]
            r = self._reactions[key] = self._reaction_index[i][optimal_reaction(
                self.env, i, self.vector(k), self.env.alternatives[a],
                space if restriction is None else tuple(space[j] for j in allowed),
            )]
        return r

    def payoff(self, i: int, k: int, a: int, restriction: tuple | None = None) -> tuple:
        """Agent i's utility at true vector k and alternative a under its
        optimal reaction within ``restriction``, as (exact, float)."""
        k = self.own(i, k)
        key = (i, k, a, restriction)
        hit = self._payoffs.get(key)
        if hit is None:
            u = self.env.utility(
                i, self.vector(k), self.env.alternatives[a],
                self.env.reaction_spaces[i][self.reaction(i, k, a, restriction)],
            )
            hit = self._payoffs[key] = (u, float(u))
        return hit

    def eu(self, kb: int, i: int, kt: int):
        """Agent i's exact expected utility with true vector kt when vector
        kb is announced."""
        self.eu_lookups += 1
        kt = self.own(i, kt)
        key = (kb, i, kt)
        v = self._eus.get(key)
        if v is None:
            v = self._eus[key] = sum(
                p * self.payoff(i, kt, a, None if r is None else r[i])[is_float]
                for p, is_float, a, r in self.dist(kb)
            )
        return v

    def unilateral(self) -> Iterator[tuple]:
        """(true vector, agent, misreport index, truthful EU, deviation EU)
        for every unilateral misreport against truthful opponents, by true
        vector, then agent, then misreport in type-space order."""
        for kt, digits in enumerate(self.digits()):
            for i, (t_i, stride) in enumerate(zip(digits, self.strides)):
                base = self.eu(kt, i, kt)
                for b_i in range(self.sizes[i]):
                    if b_i != t_i:
                        yield kt, i, b_i, base, self.eu(kt + (b_i - t_i) * stride, i, kt)

    def stats(self) -> dict:
        """Work counters: distributions built, payoffs evaluated, expected
        utilities looked up and found, and each check's enumeration size."""
        return {
            "distributions_built": len(self._dists),
            "utility_evaluations": len(self._payoffs),
            "eu_lookups": self.eu_lookups,
            "eu_hits": self.eu_lookups - len(self._eus),
            "enumerated": dict(self.enumerated),
        }


def payoff_table(
    mech: Mechanism,
    env: Environment,
    check: str,
    needed: int,
    budget: int,
    table: PayoffTable | None = None,
) -> PayoffTable:
    """The table for a check that enumerates ``needed`` evaluations.

    Raises EnumerationBudgetExceeded before building anything when
    ``needed`` exceeds ``budget``; returns ``table`` (which must belong to
    ``mech`` and ``env``) or, when None, a fresh table.
    """
    check_budget(needed, budget)
    if table is None:
        table = PayoffTable(mech, env)
    elif table.mech is not mech or table.env is not env:
        raise ValueError("payoff table belongs to another mechanism or environment")
    table.enumerated[check] = needed
    return table
