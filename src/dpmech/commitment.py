"""Imposing commitment mechanisms.

The alternative is drawn from a fixed, announcement-independent distribution;
each agent is then imposed the one reaction that is optimal for the
announced type vector.  Misreporting therefore carries a guaranteed expected
loss of p_tilde * gamma in non-trivial environments.
"""

from __future__ import annotations

from fractions import Fraction

from .environment import (
    DEFAULT_BUDGET,
    Environment,
    HistogramInstance,
    compute_gap,
    find_separating_set,
)
from .errors import NotNonTrivial
from .outcomes import Outcome, OutcomeDistribution, check_probabilities
from .payoffs import Mechanism
from .verify import (
    VerificationReport,
    check_expost_nash_truthful,
    check_strictly_dominant_truthful,
)


class CommitmentDistribution:
    """An announcement-independent distribution with a separating support.

    ``p_tilde`` is the minimum probability over the separating set; it is
    computed, not declared.
    """

    def __init__(self, alternatives, probs, separating_set):
        self.alternatives = tuple(alternatives)
        self.probs = tuple(probs)
        self.separating_set = tuple(separating_set)
        check_probabilities(self.probs)
        if not self.separating_set:
            raise ValueError("separating set must be non-empty")
        index = {s: p for s, p in zip(self.alternatives, self.probs)}
        p_tilde = min(index.get(s, 0) for s in self.separating_set)
        if p_tilde <= 0:
            raise ValueError("separating set must have positive mass everywhere")
        self.p_tilde: Fraction | float = p_tilde

    @classmethod
    def uniform(cls, alternatives, separating_set) -> CommitmentDistribution:
        """Mass 1/|alternatives| on each of a sequence of alternatives."""
        k = len(alternatives)
        return cls(alternatives, tuple(Fraction(1, k) for _ in alternatives), separating_set)


def uniform_commitment(
    env: Environment, budget: int = DEFAULT_BUDGET
) -> CommitmentDistribution:
    """Uniform P over the full alternative set; p_tilde = 1/|S|.

    The separating set is the greedy certificate's alternatives, or every
    alternative when the certificate is empty (no agent has two types).
    """
    certificate = find_separating_set(env, budget=budget)
    return CommitmentDistribution.uniform(
        env.alternatives, certificate.separating_set or env.alternatives
    )


def uniform_histogram_commitment(inst: HistogramInstance) -> CommitmentDistribution:
    """Uniform P over a histogram family's alternatives; p_tilde = 1/|S|.

    All are taken as separating (the full facility grid, or the full price
    grid by the fineness premise) without the greedy certificate, which is
    infeasible at sweep-scale populations.
    """
    return CommitmentDistribution.uniform(inst.F.alternatives, inst.F.alternatives)


def commitment_mechanism(P: CommitmentDistribution, env: Environment) -> Mechanism:
    """M^P: draw s from P; impose the announced-type-optimal reaction.

    Agent i's imposed reaction at s is the optimal one for the announced
    vector b, read from the row ``env.utilities`` holds for (i, b, s), so
    it is computed once per (agent, own announced type, alternative) under
    private values.  Raises ValueError when b is not a vector of ``env``.
    """
    columns = [env.alternative_index[s] for s in P.alternatives]

    def mech(b: tuple) -> OutcomeDistribution:
        k = env.index(b)
        outcomes = [
            Outcome(s, imposed=tuple(reactions[env.utilities(i, k, a)[1]]
                                     for i, reactions in enumerate(env.reaction_spaces)))
            for s, a in zip(P.alternatives, columns)
        ]
        return OutcomeDistribution(outcomes, P.probs)

    mech.symmetric_on = env  # each reaction reads its own group's announced row
    return mech


def truth_advantage(
    env: Environment, P: CommitmentDistribution, i: int, t: tuple, b_i
):
    """Exact expected gain of announcing t_i over b_i under M^P.

    E_P[u_i(t, s, r_i(t, s))] - E_P[u_i(t, s, r_i((b_i, t_-i), s))], read
    from the held rows ``env.utilities``; the imposed-commitment bound says
    this is at least p_tilde * gamma when b_i differs from t_i.
    """
    kt = env.index(t)
    kb = env.index(t[:i] + (b_i,) + t[i + 1:])
    total = 0
    for s, p in zip(P.alternatives, P.probs):
        if p != 0:
            a = env.alternative_index[s]
            row, best = env.utilities(i, kt, a)
            total += p * (row[best][0] - row[env.utilities(i, kb, a)[1]][0])
    return total


def verify_corollary1(
    env: Environment,
    P: CommitmentDistribution,
    budget: int = DEFAULT_BUDGET,
) -> dict[str, VerificationReport]:
    """Incentive guarantees of the separating commitment mechanism.

    Checks ex-post Nash truthfulness exhaustively and, under private
    reactions, strict dominance of truth.  Rejects trivial environments
    (gap 0) since the guarantees' premise fails there.
    """
    gap = compute_gap(env, budget=budget)
    if not gap.gamma > 0:
        raise NotNonTrivial(gap.argmin_witness)
    mech = commitment_mechanism(P, env)
    reports = {
        "expost_nash": check_expost_nash_truthful(mech, env, budget=budget)
    }
    if env.private_reactions:
        reports["strictly_dominant"] = check_strictly_dominant_truthful(
            mech, env, budget=budget
        )
    return reports
