"""Mechanisms, and the payoff table the exhaustive incentive checkers share.

A :class:`PayoffTable` addresses type vectors by the environment's index
(``Environment.vector``, ``strides``, ``own``).  Keyed by such indices, the
table memoizes

- each announcement's outcome distribution, as (probability, alternative
  index, per-agent imposed reaction indices) entries;
- each expected utility (announcement, agent, true vector);

over the environment's utility rows, which ``Environment.payoff`` reads for
every mechanism, so no type tuple is hashed and no utility is evaluated
twice.  Under private values both are keyed by the agent's own type index
alone (every opponent at index 0); under the other kinds, whose utilities
may read opponents' types, by the full true vector.  The environment holds
the table of the last mechanism a check read (:meth:`PayoffTable.of`), so
its checks share it and what it holds is bounded by the enumeration of the
checks it serves.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .environment import Environment, check_budget
from .outcomes import OutcomeDistribution, left_sum

Mechanism = Callable[[tuple], OutcomeDistribution]


class PayoffTable:
    """Index-keyed distributions and expected utilities of one mechanism.

    Expected utilities are exact sums in the distribution's support order:
    a float probability multiplies the payoff's float value (what ``p * u``
    computes for a rational ``u``), any other probability the payoff itself.
    Agent i's true vector ``k`` is keyed as ``env.own(i, k)``: its own type
    under private values, the whole vector otherwise.
    """

    def __init__(self, mech: Mechanism, env: Environment):
        self.mech = mech
        self.env = env
        self._dists: dict = {}
        self._eus: dict = {}
        self.eu_lookups = 0
        # evaluations each check enumerated, by check name
        self.enumerated: dict = {}

    @classmethod
    def of(cls, mech: Mechanism, env: Environment) -> PayoffTable:
        """The table ``env`` holds, when it belongs to ``mech``; otherwise a
        new table for ``mech``, which replaces the held one."""
        table = env.__dict__.get("_payoff_table")
        if table is None or table.mech is not mech:
            table = env.__dict__["_payoff_table"] = cls(mech, env)
        return table

    def dist(self, k: int) -> list:
        """The mechanism's nonzero-probability outcomes at vector k, as
        (probability, whether it is a float, alternative index, per-agent
        imposed reaction indices or None).  The one place a check calls
        the mechanism."""
        d = self._dists.get(k)
        if d is None:
            t = self.env.vector(k)
            d = self._dists[k] = [(p, type(p) is float, *self._indices(o, t))
                                  for o, p in self.mech(t).items() if p != 0]
        return d

    def _indices(self, o, t: tuple) -> tuple:
        """Outcome o's alternative index and imposed reaction indices (None
        when it imposes nothing).  Raises ValueError, naming o and the
        announcement t, when its alternative is not the environment's or it
        does not impose one environment reaction per agent."""
        env = self.env
        try:
            return env.alternative_index[o.alternative], None if o.imposed is None else tuple(
                index[r] for index, r in zip(env.reaction_index, o.imposed, strict=True))
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"outcome {o!r} at announcement {t!r} is not of the environment: "
                             "it needs one of its alternatives and, if it imposes, one "
                             "reaction per agent") from None

    def eu(self, kb: int, i: int, kt: int):
        """Agent i's exact expected utility with true vector kt when vector
        kb is announced."""
        self.eu_lookups += 1
        kt = self.env.own(i, kt)
        key = (kb, i, kt)
        v = self._eus.get(key)
        if v is None:
            v = self._eus[key] = left_sum(
                p * self.env.payoff(i, kt, a, None if r is None else r[i])[is_float]
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
        """Work counters: distributions built, utilities in the environment's
        rows, expected utilities looked up and found, each check's enumeration."""
        rows = self.env.__dict__.get("_utilities", {})
        return {
            "distributions_built": len(self._dists),
            "utility_evaluations": sum(len(row) for row, _ in rows.values()),
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
) -> PayoffTable:
    """The table ``env`` holds for a check of ``mech`` that enumerates
    ``needed`` evaluations.

    Raises EnumerationBudgetExceeded before building anything when
    ``needed`` exceeds ``budget``.
    """
    check_budget(needed, budget)
    table = PayoffTable.of(mech, env)
    table.enumerated[check] = needed
    return table
