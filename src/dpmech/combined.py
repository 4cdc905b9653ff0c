"""Lottery of an exponential mechanism with an imposing commitment mechanism.

With probability 1-q the exponential mechanism runs on the announced types;
with probability q the commitment mechanism imposes reactions.  Truthfulness
holds once the commitment branch's truth premium q * p_tilde * gamma covers
the exponential branch's manipulation gain of at most 2 * eps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .commitment import CommitmentDistribution, commitment_mechanism
from .environment import Environment, ObjectiveFunction
from .errors import ParamContractViolated, PopulationTooSmall
from .exponential import exponential_mechanism
from .outcomes import OutcomeDistribution, mix
from .payoffs import Mechanism


class MechanismParams(NamedTuple):
    eps: float
    q: float
    d: float
    p_tilde: float
    gamma: float
    s_count: int
    n: int
    n0: int

    @property
    def beta_bound(self) -> float:
        """Closed-form worst-case shortfall of E[F] from the optimum."""
        pg = self.p_tilde * self.gamma
        return 6 * math.sqrt(self.d / (pg * self.n)) * math.sqrt(
            math.log(self.n * pg * self.s_count / (2 * self.d))
        )


def incentive_contract_holds(eps: float, q: float, p_tilde, gamma) -> bool:
    """The lottery's truthfulness condition q * p_tilde * gamma >= 2 * eps."""
    return float(q) * float(p_tilde) * float(gamma) >= 2 * eps


def saturating_params(P: CommitmentDistribution, gamma):
    """Incentive-only parameters: q = 1/2, eps saturating the contract.

    Useful for small populations where the asymptotic schedule would demand
    an eps above 1; accuracy is whatever it is.
    """
    q = Fraction(1, 2)
    eps = float(q) * float(P.p_tilde) * float(gamma) / 2
    return eps, q


def schedule_params(
    P: CommitmentDistribution, gamma, d, s_count: int, n: int
) -> MechanismParams:
    """The accuracy-optimal schedule for n agents, |S| = s_count, sensitivity d.

    eps = sqrt(p_tilde*gamma*d/n * ln(n*p_tilde*gamma*|S|/(2d))) and
    q = 2*eps/(p_tilde*gamma), raised by the last ulps the rounding may have
    cost so that q * p_tilde * gamma >= 2 * eps holds exactly as written.
    Raises PopulationTooSmall unless n > n0, which gives q < 1 and eps <= 1.
    """
    d = float(d)
    n0 = compute_n0(P.p_tilde, gamma, d, s_count)
    if n <= n0:
        raise PopulationTooSmall(n, n0)
    pg = float(P.p_tilde) * float(gamma)
    eps = math.sqrt(pg * d / n * math.log(n * pg * s_count / (2 * d)))
    q = 2 * eps / pg
    while not incentive_contract_holds(eps, q, P.p_tilde, gamma):
        q = math.nextafter(q, math.inf)
    if not (q < 1 and eps <= 1):
        raise ParamContractViolated(f"q = {q}, eps = {eps} at n = {n}")
    return MechanismParams(
        eps=eps, q=q, d=d, p_tilde=float(P.p_tilde), gamma=float(gamma),
        s_count=s_count, n=n, n0=n0,
    )


def compute_n0(p_tilde, gamma, d: float, s_count: int) -> int:
    """Smallest population size from which the schedule is admissible.

    The least n with
      n >= max(8d/(p_tilde*gamma) * ln(p_tilde*gamma*|S|/(2d)), 4e^2 d/(p_tilde*gamma*|S|))
    and n / ln(n) > 8d / (p_tilde*gamma), or ParamContractViolated past the
    floats.  n / ln(n) increases from n = 3 on and 2 / ln 2 > 3 / ln 3, so
    past the first candidate a bound is doubled until it holds, then bisected.
    """
    pg = float(p_tilde) * float(gamma)
    if pg <= 0:
        raise ParamContractViolated("p_tilde * gamma must be positive")
    c = 8 * d / pg
    floor_a = c * math.log(max(pg * s_count / (2 * d), 1.0))
    floor_b = 4 * math.e**2 * d / (pg * s_count)

    def admissible(n: int) -> bool:
        return n / math.log(n) > c

    try:
        lo = hi = max(2, math.ceil(max(floor_a, floor_b)))
        while not admissible(hi):
            lo, hi = hi + 1, 2 * hi
    except (OverflowError, ValueError):  # an infinite or NaN floor, or n past floats
        raise ParamContractViolated(f"no float n has n / ln(n) > {c:g}") from None
    while lo < hi:
        lo, hi = (lo, mid) if admissible(mid := (lo + hi) // 2) else (mid + 1, hi)
    return lo


def combined_mechanism(
    expmech: Mechanism,
    commitment: Mechanism,
    q,
    eps: float,
    p_tilde,
    gamma,
) -> Mechanism:
    """The lottery (1-q) * expmech + q * commitment.

    Refuses parameter combinations that break the truthfulness condition.
    """
    if not 0 < float(q) < 1:
        raise ParamContractViolated(f"mixing weight q = {q} outside (0, 1)")
    if not incentive_contract_holds(eps, q, p_tilde, gamma):
        raise ParamContractViolated(
            f"q*p_tilde*gamma = {float(q) * float(p_tilde) * float(gamma)} "
            f"< 2*eps = {2 * eps}"
        )

    def mech(b: tuple) -> OutcomeDistribution:
        return mix([expmech(b), commitment(b)], [1 - q, q])

    return mech


def build_combined(
    env: Environment,
    F: ObjectiveFunction,
    P: CommitmentDistribution,
    gamma,
    eps: float,
    q,
) -> Mechanism:
    """Convenience constructor wiring both branches from the environment."""
    return combined_mechanism(
        exponential_mechanism(F, env, eps),
        commitment_mechanism(P, env),
        q,
        eps,
        P.p_tilde,
        gamma,
    )
