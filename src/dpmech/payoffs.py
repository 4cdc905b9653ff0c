"""Mechanisms, and the payoff table the exhaustive incentive checkers share.

A :class:`PayoffTable` addresses type vectors by the environment's index
(``Environment.vector``, ``strides``, ``own``).  Keyed by such indices, the
table memoizes

- each announcement's outcome distribution, as (probability, alternative
  index, per-agent imposed reaction indices) entries;
- each payoff at a (true vector, alternative, imposed reaction), with the
  agent's optimal reaction when none is imposed;
- each expected utility (announcement, agent, true vector);

so no type tuple is hashed and no payoff is evaluated twice.  Under
private values an agent's payoffs and expected utilities depend on the
true vector only through its own type, so the table keys them by the
agent's own type index alone (every opponent at index 0); under the other
kinds, whose utilities may read opponents' types, by the full true vector.
Everything a table holds is bounded by the enumeration of the checks it
serves; build one per check, or one per run of checks on the same
mechanism.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .environment import Environment, check_budget, optimal_reaction
from .outcomes import OutcomeDistribution, left_sum

Mechanism = Callable[[tuple], OutcomeDistribution]


class PayoffTable:
    """Index-keyed payoffs of one mechanism on one environment.

    Expected utilities are exact sums in the distribution's support order:
    a float probability multiplies the payoff's float value (what ``p * u``
    computes for a rational ``u``), any other probability the payoff itself.
    Agent i's true vector ``k`` is keyed as ``env.own(i, k)``: its own type
    under private values, the whole vector otherwise.
    """

    def __init__(self, mech: Mechanism, env: Environment):
        self.mech = mech
        self.env = env
        self._alternative_index = {s: a for a, s in enumerate(env.alternatives)}
        self._reaction_index = [
            {r: j for j, r in enumerate(rs)} for rs in env.reaction_spaces
        ]
        self._dists: dict = {}
        self._payoffs: dict = {}
        self._eus: dict = {}
        self.eu_lookups = 0
        # evaluations each check enumerated, by check name
        self.enumerated: dict = {}

    def dist(self, k: int) -> list:
        """The mechanism's nonzero-probability outcomes at vector k, as
        (probability, whether it is a float, alternative index, per-agent
        imposed reaction indices or None)."""
        d = self._dists.get(k)
        if d is None:
            d = self._dists[k] = [
                (
                    p,
                    type(p) is float,
                    self._alternative_index[o.alternative],
                    None if o.imposed is None else tuple(
                        index[r] for index, r in zip(self._reaction_index, o.imposed)
                    ),
                )
                for o, p in self.mech(self.env.vector(k)).items() if p != 0
            ]
        return d

    def payoff(self, i: int, k: int, a: int, imposed: int | None = None) -> tuple:
        """Agent i's utility at true vector k and alternative a, as (exact,
        float), under the reaction index ``imposed`` or, when None, its
        optimal reaction."""
        env = self.env
        k = env.own(i, k)
        key = (i, k, a, imposed)
        hit = self._payoffs.get(key)
        if hit is None:
            t, s = env.vector(k), env.alternatives[a]
            r = (optimal_reaction(env, i, t, s) if imposed is None
                 else env.reaction_spaces[i][imposed])
            u = env.utility(i, t, s, r)
            hit = self._payoffs[key] = (u, float(u))
        return hit

    def eu(self, kb: int, i: int, kt: int):
        """Agent i's exact expected utility with true vector kt when vector
        kb is announced."""
        self.eu_lookups += 1
        kt = self.env.own(i, kt)
        key = (kb, i, kt)
        v = self._eus.get(key)
        if v is None:
            v = self._eus[key] = left_sum(
                p * self.payoff(i, kt, a, None if r is None else r[i])[is_float]
                for p, is_float, a, r in self.dist(kb)
            )
        return v

    def unilateral(self) -> Iterator[tuple]:
        """(true vector, agent, misreport index, truthful EU, deviation EU)
        for every unilateral misreport against truthful opponents, by true
        vector, then agent, then misreport in type-space order."""
        for kt, digits in enumerate(self.env.digits()):
            for i, (t_i, stride) in enumerate(zip(digits, self.env.strides)):
                base = self.eu(kt, i, kt)
                for b_i in range(self.env.sizes[i]):
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
