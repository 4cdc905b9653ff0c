"""The exponential mechanism over a finite alternative set.

Selection probability is proportional to exp(rate * F(t, s)), computed with a
max-shifted log-sum-exp.  Includes an exact differential-privacy auditor and
checkers for the near-indifference and accuracy guarantees that the rate
n*eps/(2d) buys on a d-sensitive objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .environment import (
    DEFAULT_BUDGET,
    Environment,
    ObjectiveFunction,
    check_budget,
)
from .errors import PopulationTooSmall, ZeroProbabilityAsymmetry
from .outcomes import Outcome, OutcomeDistribution
from .payoffs import Mechanism, PayoffTable, payoff_table
from .verify import VerificationReport

DP_RATIO_TOL = 1e-9


@dataclass(frozen=True)
class DpAuditReport:
    epsilon_measured: float
    witness: tuple | None  # (agent, t, t_hat, alternative)
    target_epsilon: float
    passed: bool


def exp_mech_rate(n: int, eps: float, d: float) -> float:
    """The rate n*eps/(2d) that makes the mechanism eps-DP on a d-sensitive F."""
    return n * eps / (2 * d)


def exp_mech_distribution(
    F: ObjectiveFunction, alternatives, t: tuple, rate: float
) -> OutcomeDistribution:
    """Exact exponential-mechanism distribution at the given rate.

    ``rate`` multiplies F directly; pass n*eps/(2d) to obtain eps-differential
    privacy on a d-sensitive objective.  The result is non-imposing.
    """
    alternatives = tuple(alternatives)
    scores = [rate * float(F.eval(t, s)) for s in alternatives]
    m = max(scores)
    weights = [math.exp(x - m) for x in scores]
    z = sum(weights)
    probs = [w / z for w in weights]
    return OutcomeDistribution([Outcome(s) for s in alternatives], probs)


def exponential_mechanism(
    F: ObjectiveFunction, env: Environment, eps: float, d: float | None = None
) -> Mechanism:
    """Mechanism t -> exponential distribution at rate n*eps/(2d)."""
    if d is None:
        d = F.sensitivity_d
    rate = exp_mech_rate(env.n, eps, d)
    alternatives = env.alternatives

    def mech(t: tuple) -> OutcomeDistribution:
        return exp_mech_distribution(F, alternatives, t, rate)

    return mech


def audit_dp(
    mech: Mechanism,
    env: Environment,
    target_eps: float,
    budget: int = DEFAULT_BUDGET,
    tol: float = DP_RATIO_TOL,
) -> DpAuditReport:
    """Exact worst-case privacy loss over all unilateral neighbor pairs.

    Enumerates every pair of type vectors differing in one coordinate and
    every alternative of the marginal on S; raises
    :class:`ZeroProbabilityAsymmetry` when exactly one side of a ratio is 0.
    """
    check_budget(env.num_deviations() // 2 * len(env.alternatives), budget)

    table = PayoffTable(None, env)
    marginals: list = [None] * env.num_type_vectors()

    def marg(k: int) -> dict:
        if marginals[k] is None:
            marginals[k] = mech(table.vectors[k]).marginal_alternatives()
        return marginals[k]

    worst = 0.0
    witness = None
    for i, ka, kb in table.pairs():
        ta, tb = table.vectors[ka], table.vectors[kb]
        pa, pb = marg(ka), marg(kb)
        for s in env.alternatives:
            x = float(pa.get(s, 0))
            y = float(pb.get(s, 0))
            if x == 0.0 and y == 0.0:
                continue
            if x == 0.0 or y == 0.0:
                raise ZeroProbabilityAsymmetry((i, ta, tb, s))
            loss = abs(math.log(x) - math.log(y))
            if loss > worst:
                worst = loss
                witness = (i, ta, tb, s)
    return DpAuditReport(
        epsilon_measured=worst,
        witness=witness,
        target_epsilon=target_eps,
        passed=worst <= target_eps + tol,
    )


def near_indifference_bound_check(
    mech: Mechanism,
    env: Environment,
    eps: float,
    budget: int = DEFAULT_BUDGET,
    tol: float = 1e-12,
) -> VerificationReport:
    """Max unilateral expected-utility swing of a non-imposing eps-DP mechanism.

    The deviation family is truthful opponents with all unilateral
    announcements (every richer unilateral map factors through these).  The
    bound asserted is e^eps - 1, which is at most 2*eps for eps <= 1.
    """
    table = payoff_table(
        mech, env, "near_indifference", max(env.num_deviations(), 1), budget
    )
    bound = math.exp(eps) - 1
    worst = 0.0
    witness = None
    for kt, i, b_i, base, dev in table.unilateral():
        swing = abs(float(base - dev))
        if swing > worst:
            worst = swing
            witness = (i, table.vectors[kt], env.type_spaces[i][b_i], base, dev)
    return VerificationReport(
        property="near_indifference",
        passed=worst <= bound + tol,
        margin=bound - worst,
        witness=witness,
    )


def accuracy_bound_check(
    F: ObjectiveFunction,
    env: Environment,
    eps: float,
    d: float | None = None,
    budget: int = DEFAULT_BUDGET,
    tol: float = 1e-12,
) -> VerificationReport:
    """E[F] under the exponential mechanism is within the closed-form bound
    of the optimum, for every enumerated type vector.

    Requires the population condition n > 2*e*d/(eps*|S|).
    """
    if d is None:
        d = F.sensitivity_d
    n = env.n
    s_count = len(env.alternatives)
    required = 2 * math.e * d / (eps * s_count)
    if not n > required:
        raise PopulationTooSmall(n, required)
    check_budget(env.num_type_vectors() * s_count, budget)

    bound = (4 * d / (n * eps)) * math.log(n * eps * s_count / (2 * d))
    rate = exp_mech_rate(n, eps, d)
    worst = math.inf
    witness = None
    passed = True
    for t in env.type_vectors():
        dist = exp_mech_distribution(F, env.alternatives, t, rate)
        expected = sum(p * float(F.eval(t, o.alternative)) for o, p in dist.items())
        best = max(float(F.eval(t, s)) for s in env.alternatives)
        slack = expected - (best - bound)
        if slack < worst:
            worst = slack
            witness = (t, expected, best)
        if slack < -tol:
            passed = False
    return VerificationReport(
        property="accuracy_bound",
        passed=passed,
        margin=float(worst),
        witness=witness,
    )
