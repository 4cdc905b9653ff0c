"""The exponential mechanism over a finite alternative set.

Selection probability is proportional to exp(rate * F(t, s)), computed with a
max-shifted log-sum-exp.  Includes an exact differential-privacy auditor and
checkers for the near-indifference and accuracy guarantees that the rate
n*eps/(2d) buys on a d-sensitive objective.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple

from .environment import (
    DEFAULT_BUDGET,
    Environment,
    ObjectiveFunction,
    check_budget,
)
from .errors import PopulationTooSmall, ZeroProbabilityAsymmetry
from .outcomes import Outcome, OutcomeDistribution, check_normaliser, softmax
from .payoffs import Mechanism, payoff_table
from .verify import VerificationReport

DP_RATIO_TOL = 1e-9
# slack the near-indifference and accuracy bounds allow for float rounding
BOUND_TOL = 1e-12


class DpAuditReport(NamedTuple):
    epsilon_measured: float
    witness: tuple | None  # (agent, t, t_hat, alternative)
    target_epsilon: float
    passed: bool


def exp_mech_rate(n: int, eps: float, d: float) -> float:
    """The rate n*eps/(2d) that makes the mechanism eps-DP on a d-sensitive F.
    Raises ValueError when it is not a finite float."""
    rate = n * eps / (2 * d)
    if not math.isfinite(rate):
        raise ValueError(f"exponential-mechanism rate {rate} is not finite")
    return rate


def exp_mech_distribution(
    F: ObjectiveFunction, alternatives, t: tuple, rate: float
) -> OutcomeDistribution:
    """Exact exponential-mechanism distribution at the given rate.

    ``rate`` multiplies F directly; pass n*eps/(2d) to obtain eps-differential
    privacy on a d-sensitive objective.  The result is non-imposing.
    """
    alternatives = tuple(alternatives)
    return _distribution(alternatives, [F.eval(t, s) for s in alternatives], rate)


def _distribution(alternatives: tuple, values: list, rate: float) -> OutcomeDistribution:
    """The exponential mechanism over ``alternatives`` given F's value at each."""
    probs = softmax([float(v) for v in values], rate)
    return OutcomeDistribution([Outcome(s) for s in alternatives], probs)


def exponential_mechanism(
    F: ObjectiveFunction, env: Environment, eps: float
) -> Mechanism:
    """Mechanism t -> exponential distribution at rate n*eps/(2d).

    F is read from the row ``env.scores(F)`` holds for t once a check has
    built it, and evaluated at t otherwise; the mechanism never lists the
    type vectors itself.
    """
    rate = exp_mech_rate(env.n, eps, F.sensitivity_d)
    alternatives = env.alternatives

    def mech(t: tuple) -> OutcomeDistribution:
        values = env._held_scores(F, t)
        if values is None:
            return exp_mech_distribution(F, alternatives, t, rate)
        return _distribution(alternatives, values, rate)

    # for the audits; in the function's __dict__, which functools.wraps
    # copies, so a wrapped mechanism is audited the same way
    mech.exp_mech = (F, env, rate)
    if env.group(F) == env.group_size:  # an anonymous F: permuting groups permutes the rows
        mech.symmetric_on = env
    return mech


def probability_table(F: ObjectiveFunction, env: Environment, rate: float):
    """Every vector's exponential-mechanism probabilities at ``rate``, as one
    float (vectors x alternatives) array, rows in canonical order.

    Bit for bit what ``softmax`` gives on each row of ``env.scores(F)``:
    ``rate * f`` less the row's max, libm's ``math.exp`` of each entry, then
    each weight divided by its row's sum, added left to right, and the same
    ``check_normaliser`` refusal of a score that is not finite.  Built on
    first use and held on the environment, one table per objective, replaced
    when the rate changes; every audit at that rate reads the same array.
    """
    memo = env.__dict__.setdefault("_probability_tables", {})
    held = memo.get(F)
    if held is not None and held[0] == rate:
        return held[1]
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        x = np.array(list(env.scores(F).values()), float) * float(rate)
        x -= x.max(axis=1, keepdims=True)
    weights = np.fromiter(map(math.exp, x.ravel().tolist()), float,
                          x.size).reshape(x.shape)
    z = _left_sums(weights)
    check_normaliser(z.min())
    weights /= z[:, None]
    weights.flags.writeable = False  # shared by every audit at this rate
    memo[F] = (rate, weights)
    return weights


def _left_sums(a, b=None):
    """Sums over the last axis of ``a``, or of ``a * b`` broadcast, its
    entries added left to right from 0 as ``left_sum`` adds them, one column
    at a time, so that no product array is held whole."""
    import numpy as np

    shape = a.shape if b is None else np.broadcast_shapes(a.shape, b.shape)
    total = np.zeros(shape[:-1])
    for k in range(a.shape[-1]):
        total += a[..., k] if b is None else a[..., k] * b[..., k]
    return total


def _probabilities(mech: Mechanism, env: Environment):
    """``probability_table`` of an ``exponential_mechanism`` on ``env``: the
    values ``mech(t)`` holds, without building a distribution.  None for any
    other mechanism or environment."""
    F, on, rate = getattr(mech, "exp_mech", (None, None, None))
    if on is not env:
        return None
    return probability_table(F, env, rate)


def audit_dp(
    mech: Mechanism,
    env: Environment,
    target_eps: float,
    budget: int = DEFAULT_BUDGET,
) -> DpAuditReport:
    """Exact worst-case privacy loss over all unilateral neighbor pairs.

    A pair differs in one agent's type, so agent i's largest loss at an
    opponent profile and alternative is the max less the min of that column
    of the log-marginal table along agent i's axis (float subtraction is
    monotone).  Raises :class:`ZeroProbabilityAsymmetry` at the first ratio,
    in ``Environment.pairs()`` order, with exactly one side 0.  The witness
    is the first pair and alternative of largest loss, None when no loss is
    positive.  A mechanism that is not an ``exponential_mechanism`` on
    ``env`` is read through ``PayoffTable.dist``, each alternative's mass
    summed exactly in support order, then made a float.
    """
    import numpy as np

    needed = env.num_deviations() // 2 * len(env.alternatives)
    check_budget(needed, budget)

    prob = _probabilities(mech, env)
    if prob is None:
        table = payoff_table(mech, env, "audit_dp", needed, budget)
        marginals = [[0] * len(env.alternatives) for _ in range(env.num_type_vectors())]
        for k, marg in enumerate(marginals):
            for p, _, a, _ in table.dist(k):
                marg[a] += p
        prob = np.array(marginals, float)
    # math.log, not np.log, so that every loss is the libm value; a zero
    # reads as 1.0, log 0.0, so a pair zero on both sides loses 0 (one-sided
    # zeros raise)
    zero = prob == 0.0
    logs = np.fromiter(map(math.log, np.where(zero, 1.0, prob).ravel().tolist()),
                       float, prob.size).reshape(prob.shape)
    for i in env.agents if zero.any() else ():
        z = _axis(env, zero, i)
        one_sided = (z.any(axis=1) != z.all(axis=1)).any(axis=2).ravel()
        if one_sided.any():
            raise ZeroProbabilityAsymmetry(
                _first_pair(env, zero, i, np.argmax(one_sided), operator.ne))
    worst = 0.0
    witness = None
    for i in env.agents:
        x = _axis(env, logs, i)
        spans = (x.max(axis=1) - x.min(axis=1)).max(axis=2).ravel()  # per profile
        peak = float(spans.max())
        if peak > worst:
            worst, first = peak, (i, np.argmax(spans))
    if worst > 0:
        witness = _first_pair(env, logs, *first, lambda x, y: abs(x - y) == worst)
    return DpAuditReport(
        epsilon_measured=worst,
        witness=witness,
        target_epsilon=target_eps,
        passed=worst <= target_eps + DP_RATIO_TOL,
    )


def _axis(env: Environment, table, i: int):
    """A (vectors x alternatives) table with agent i's type index on axis 1:
    vector (h * m + t_i) * stride + lo at [h, t_i, lo], profile h * stride + lo."""
    return table.reshape(-1, env.sizes[i], env.strides[i], table.shape[1])


def _first_pair(env: Environment, table, i: int, p, hit) -> tuple:
    """(i, t, t_hat, alternative): agent i's first pair at opponent profile
    p (``profiles(i)`` order), in ``Environment.pairs()`` order, and alternative
    at which ``hit`` holds between the two sides' entries of ``table``."""
    stride, m = env.strides[i], env.sizes[i]
    h, lo = divmod(p, stride)  # _axis's layout
    block = _axis(env, table, i)[h, :, lo].tolist()
    for a, b in itertools.combinations(range(m), 2):
        for s, (x, y) in enumerate(zip(block[a], block[b])):
            if hit(x, y):
                return (i, env.vector((h * m + a) * stride + lo),
                        env.vector((h * m + b) * stride + lo), env.alternatives[s])


def near_indifference_bound_check(
    mech: Mechanism,
    env: Environment,
    eps: float,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Max unilateral expected-utility swing of a non-imposing eps-DP mechanism.

    The deviation family is truthful opponents with all unilateral
    announcements (every richer unilateral map factors through these).  The
    bound asserted is e^eps - 1 (+inf once that overflows a float), which is
    at most 2*eps for eps <= 1.

    Expected utilities are the ``PayoffTable.eu`` sums of the deviations
    ``PayoffTable.unilateral()`` walks.  For an ``exponential_mechanism`` on
    ``env`` the same sums are added up agent by agent, on agent i's axis of
    ``probability_table`` as in ``audit_dp``, against ``env.payoff``.  The
    witness is the first largest swing in ``PayoffTable.unilateral()`` order.
    """
    needed = max(env.num_deviations(), 1)
    check_budget(needed, budget)
    prob = _probabilities(mech, env)
    worst, witness = 0.0, None
    if prob is None:
        table = payoff_table(mech, env, "near_indifference", needed, budget)
        for kt, i, b_i, base, dev in table.unilateral():
            swing = abs(float(base - dev))
            if swing > worst:
                worst = swing
                witness = (i, env.vector(kt), env.type_spaces[i][b_i], base, dev)
    else:
        import numpy as np

        # each sum adds the alternatives' terms left to right, as
        # PayoffTable.eu does; a probability that underflowed adds an exact 0
        N, width = prob.shape
        kt, at = np.arange(N), N
        for i, m in enumerate(env.sizes):
            # agent i's payoffs at its keys, read at each vector's key
            keys = env.keys(i)
            payoff = np.array([[env.payoff(i, k, a)[1] for a in range(width)]
                               for k in keys])[(env.own(i, kt) - keys.start) // keys.step]
            # eu[h, t, b, lo]: true type t announcing b at profile h * stride + lo
            eu = _left_sums(_axis(env, prob, i)[:, None], _axis(env, payoff, i)[:, :, None])
            eu = eu.transpose(0, 1, 3, 2).reshape(N, m)  # by true vector, announced type
            t_i = kt // env.strides[i] % m
            swing = np.abs(eu[kt, t_i][:, None] - eu)
            k, b = divmod(int(np.argmax(swing)), m)
            peak = swing.item(k, b)
            # first largest in PayoffTable.unilateral() order: by vector, then agent
            if peak > worst or (peak == worst > 0 and k < at):
                worst, at = peak, k
                witness = (i, env.vector(k), env.type_spaces[i][b],
                           eu.item(k, t_i[k]), eu.item(k, b))
    try:
        bound = math.exp(eps) - 1
    except OverflowError:  # e^eps past the largest float: no swing can exceed it
        bound = math.inf
    return VerificationReport(
        property="near_indifference",
        passed=worst <= bound + BOUND_TOL,
        margin=bound - worst,
        witness=witness,
    )


def accuracy_bound_check(
    F: ObjectiveFunction,
    env: Environment,
    eps: float,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """E[F] under the exponential mechanism is within the closed-form bound
    of the optimum, for every enumerated type vector.

    Requires the population condition n > 2*e*d/(eps*|S|).  F is read from
    ``env.scores``, evaluated once per (vector, alternative) for as long as
    the environment lives, and E[F] adds each row of ``probability_table``
    times F left to right; the witness is the first vector of least slack.
    """
    import numpy as np

    d = F.sensitivity_d
    n = env.n
    s_count = len(env.alternatives)
    required = 2 * math.e * d / (eps * s_count)
    if not n > required:
        raise PopulationTooSmall(n, required)
    check_budget(env.num_type_vectors() * s_count, budget)

    bound = (4 * d / (n * eps)) * math.log(n * eps * s_count / (2 * d))
    scores = np.array(list(env.scores(F).values()), float)
    expected = _left_sums(probability_table(F, env, exp_mech_rate(n, eps, d)), scores)
    best = scores.max(axis=1)
    slack = expected - (best - bound)
    k = int(np.argmin(slack))
    return VerificationReport(
        property="accuracy_bound",
        passed=not (slack < -BOUND_TOL).any(),
        margin=float(slack[k]),
        witness=(env.vector(k), float(expected[k]), float(best[k])),
    )
