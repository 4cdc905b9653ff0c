"""The exponential mechanism over a finite alternative set.

Selection probability is proportional to exp(rate * F(t, s)), computed with a
max-shifted log-sum-exp.  Includes an exact differential-privacy auditor and
checkers for the near-indifference and accuracy guarantees that the rate
n*eps/(2d) buys on a d-sensitive objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _softmax(values: list, rate: float) -> list:
    """Selection probabilities proportional to exp(rate * v) over float
    objective values, by a max-shifted softmax."""
    scores = [rate * v for v in values]
    m = max(scores)
    weights = [math.exp(x - m) for x in scores]
    z = sum(weights)
    return [w / z for w in weights]


def exp_mech_distribution(
    F: ObjectiveFunction, alternatives, t: tuple, rate: float
) -> OutcomeDistribution:
    """Exact exponential-mechanism distribution at the given rate.

    ``rate`` multiplies F directly; pass n*eps/(2d) to obtain eps-differential
    privacy on a d-sensitive objective.  The result is non-imposing.
    """
    alternatives = tuple(alternatives)
    probs = _softmax([float(F.eval(t, s)) for s in alternatives], rate)
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

    Compares every pair of type vectors differing in one coordinate, in
    ``PayoffTable.pairs()`` order, at every alternative of the marginal on
    S; raises :class:`ZeroProbabilityAsymmetry` at the first ratio with
    exactly one side 0.  The witness is the first pair and alternative of
    largest loss, None when no loss is positive.
    """
    check_budget(env.num_deviations() // 2 * len(env.alternatives), budget)

    table = PayoffTable(None, env)
    marginals = []
    for t in table.vectors:
        marg = mech(t).marginal_alternatives()
        marginals.append([float(marg.get(s, 0)) for s in env.alternatives])
    # math.log, not np.log, so that every loss is the libm value; a zero
    # reads 0.0, so a pair zero on both sides loses 0 (one-sided zeros raise)
    logs = np.array([[math.log(x) if x else 0.0 for x in row] for row in marginals])
    zero = np.array(marginals) == 0.0
    agents, ka, kb = table.pair_index()

    def at(flat, shape: tuple) -> tuple:
        p, a = divmod(int(flat), shape[1])
        return (int(agents[p]), table.vectors[ka[p]], table.vectors[kb[p]],
                env.alternatives[a])

    one_sided = zero[ka] != zero[kb]
    if one_sided.any():
        raise ZeroProbabilityAsymmetry(at(np.argmax(one_sided), one_sided.shape))
    loss = logs[ka]
    loss -= logs[kb]
    np.abs(loss, out=loss)
    worst = 0.0
    witness = None
    if loss.size and loss.max() > 0:
        first = np.argmax(loss)
        worst = float(loss.flat[first])
        witness = at(first, loss.shape)
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

    Expected utilities are the ``PayoffTable.eu`` sums, computed for every
    (true vector, agent, announced type) at once: each announcement's
    outcomes are laid out as (vectors x support) arrays and summed column by
    column in support order, in float64 when every probability is a float
    and as exact Python numbers otherwise.  The witness is the first largest
    swing in ``PayoffTable.unilateral()`` order.
    """
    table = payoff_table(
        mech, env, "near_indifference", max(env.num_deviations(), 1), budget
    )
    N = len(table.vectors)
    dists = [table.dist(k) for k in range(N)]
    dtype = float if all(f for d in dists for _, f, _, _ in d) else object
    width = max(map(len, dists))
    prob = np.array([[p for p, *_ in d] + [0] * (width - len(d)) for d in dists], dtype)
    # every distinct (float flag, alternative, restriction) of the supports,
    # numbered; -1 pads a short support and reads a 0 payoff at probability
    # 0, which adds an exact 0 to every sum
    outcomes: dict = {}
    ids = np.array([
        [outcomes.setdefault((f, a, r), len(outcomes)) for _, f, a, r in d]
        + [-1] * (width - len(d))
        for d in dists
    ])
    kt = np.arange(N)
    # per agent: expected utilities by (true vector, announced type index),
    # and the true vectors' own type indices
    columns = []
    for i, (m, stride) in enumerate(zip(table.sizes, table.strides)):
        # payoff rows: the vectors that are their own key, in vector order
        own = table.own(i, kt)
        rows = kt[own == kt]
        key = np.searchsorted(rows, own)
        terms: dict = {}
        term_of = np.array([
            terms.setdefault((f, a, None if r is None else r[i]), len(terms))
            for f, a, r in outcomes
        ] + [len(terms)])  # a pad's -1 reads the last, 0 column
        payoff = np.array([
            [table.payoff(i, k, a, r)[f] for f, a, r in terms] + [0]
            for k in rows.tolist()
        ], dtype)
        t_i = kt // stride % m
        kb = kt[:, None] + (np.arange(m) - t_i[:, None]) * stride
        eu = np.zeros((N, m), dtype)
        for c in range(width):
            eu += prob[kb, c] * payoff[key[:, None], term_of[ids[kb, c]]]
        columns.append((eu, t_i))
    swing = np.abs(np.concatenate(
        [(eu[kt, t_i][:, None] - eu).astype(float) for eu, t_i in columns], axis=1
    ))
    bound = math.exp(eps) - 1
    worst = float(swing.max())
    witness = None
    if worst > 0:
        k, col = divmod(int(np.argmax(swing)), swing.shape[1])
        i, b_i = [(j, b) for j, m in enumerate(table.sizes) for b in range(m)][col]
        eu, t_i = columns[i]
        witness = (i, table.vectors[k], env.type_spaces[i][b_i],
                   eu.item(k, t_i[k]), eu.item(k, b_i))
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

    Requires the population condition n > 2*e*d/(eps*|S|).  F is evaluated
    once per (vector, alternative); the witness is the first vector of least
    slack.
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
    vectors = list(env.type_vectors())
    scores = [[float(F.eval(t, s)) for s in env.alternatives] for t in vectors]
    expected = np.array([
        sum(p * f for p, f in zip(_softmax(row, rate), row)) for row in scores
    ])
    slack = expected - (np.max(scores, axis=1) - bound)
    k = int(np.argmin(slack))
    return VerificationReport(
        property="accuracy_bound",
        passed=not (slack < -tol).any(),
        margin=float(slack[k]),
        witness=(vectors[k], float(expected[k]), max(scores[k])),
    )
