"""K-facility location on the unit interval.

Grid environments (types, reactions and facilities on {0, 1/m, ..., 1})
with the uniform-commitment and dyad-commitment scheduled mechanisms, plus
the continuous-type construction: a rho-grid exponential mechanism and the
dyadic imposing mechanism with its quadrature-exact misreport loss.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .combined import MechanismParams, build_combined, schedule_params
from .commitment import CommitmentDistribution, uniform_histogram_commitment
from .environment import HistogramInstance, HistogramObjective
from .errors import PopulationTooSmall, ResolutionBudgetExceeded
from .outcomes import Outcome, OutcomeDistribution, left_sum
from .payoffs import Mechanism

DEFAULT_RHO = Fraction(1, 1024)
DEFAULT_SUPPORT_CAP = 2**17
SCORE_TABLE_CAP = 2**20
LOC3_N0_SCAN_LIMIT = 10**7


def grid(m: int) -> tuple:
    return tuple(Fraction(j, m) for j in range(m + 1))


def _utility(X: tuple, j: int, s: tuple, r):
    """1 - |x - r| when the chosen facility r is in s, else 0 (the raw
    -|x - r| / -1 form shifted by +1 into [0, 1]); an agent is its own
    group, so x = X[j] is its location."""
    return 1 - abs(X[j] - r) if r in s else 0


def build_grid_env(n: int, m: int, K: int) -> HistogramInstance:
    """Grid environment: T_i = R_i = L(m), S = L(m)^K.

    F is the average utility under nearest-facility reactions, with
    sensitivity 1, computed exactly from the counts of agents per grid point.
    """
    if n < 1 or m < 1 or K < 1:
        raise ValueError("need n, m, K >= 1")
    # refuse |S| = (m+1)^K >= 2^K over the cap before listing S, then the
    # (m+1) x |S| score table over its cap (at most 2^34 entries once S
    # fits) before building it; each error names the power, whose digits a
    # large K would make unprintable
    if K >= DEFAULT_SUPPORT_CAP.bit_length() or (m + 1) ** K > DEFAULT_SUPPORT_CAP:
        raise ResolutionBudgetExceeded(f"{m + 1}^{K}", DEFAULT_SUPPORT_CAP)
    if (m + 1) ** (K + 1) > SCORE_TABLE_CAP:
        raise ResolutionBudgetExceeded(f"{m + 1}^{K + 1}", SCORE_TABLE_CAP, "score table")
    locs = grid(m)
    alternatives = tuple(itertools.product(locs, repeat=K))

    # J[g, s]: grid steps from point g/m to the nearest facility of s
    J = [[min(abs(g - int(f * m)) for f in s) for s in alternatives]
         for g in range(m + 1)]
    F = HistogramObjective(
        (locs,), alternatives, J, offset=1, weights=(-1,) * len(alternatives),
        denom=m * n, units=n, sensitivity_d=1,
    )
    # gamma_declared 1/m, but 0 when K = 1: one imposed facility fixes every
    # reaction whatever was announced, and no schedule exists for a zero gap
    return HistogramInstance(
        F=F, reactions=locs, utility=_utility,
        gamma_declared=Fraction(1, m) if K > 1 else Fraction(0),
    )


def dyad_facility_commitment(inst: HistogramInstance) -> CommitmentDistribution:
    """Uniform over the m dyads (j/m, (j+1)/m, ..., (j+1)/m); p_tilde = 1/m.

    The dyad at j separates j/m from every higher type (their nearest
    facilities differ), so the m dyads jointly separate all type pairs.
    Needs K >= 2 to host both dyad endpoints.
    """
    locs = inst.F.member_types[0]
    K = len(inst.F.alternatives[0])
    if K < 2:
        raise ValueError("dyad commitment needs K >= 2")
    dyads = tuple((locs[j],) + (locs[j + 1],) * (K - 1) for j in range(len(locs) - 1))
    return CommitmentDistribution.uniform(dyads, dyads)


# the commitment of each scheduled mechanism, by name
COMMITMENTS = {"loc1": uniform_histogram_commitment, "loc2": dyad_facility_commitment}


class ScheduledMechanism(NamedTuple):
    mech: Mechanism
    params: MechanismParams
    P: CommitmentDistribution
    inst: HistogramInstance


def _scheduled(n: int, m: int, K: int, mechanism: str) -> ScheduledMechanism:
    inst = build_grid_env(n, m, K)
    P = COMMITMENTS[mechanism](inst)
    params = schedule_params(
        P, inst.gamma_declared, inst.F.sensitivity_d, len(inst.F.alternatives), n
    )
    mech = build_combined(inst.env, inst.F, P, inst.gamma_declared, params.eps, params.q)
    return ScheduledMechanism(mech=mech, params=params, P=P, inst=inst)


def loc1(n: int, m: int, K: int) -> ScheduledMechanism:
    """Combined mechanism with the uniform commitment, scheduled for accuracy."""
    return _scheduled(n, m, K, "loc1")


def loc2(n: int, m: int, K: int) -> ScheduledMechanism:
    """Combined mechanism with the m-dyad commitment; p_tilde = 1/m, K >= 2."""
    return _scheduled(n, m, K, "loc2")


# ---------------------------------------------------------------- continuous


def continuous_objective(t: Sequence, s: Sequence):
    """1 - average distance to the nearest facility, on real coordinates."""
    n = len(t)
    total = left_sum(min(abs(x - f) for f in s) for x in t)
    return 1 - (Fraction(total, 1) / n if isinstance(total, (int, Fraction)) else total / n)


def _rho_grid(rho, K: int) -> tuple:
    """The rho-grid of [0, 1]; its K-fold product must fit the support cap."""
    rho = Fraction(rho)
    if rho <= 0 or rho > 1:
        raise ValueError("rho must lie in (0, 1]")
    steps = 1 / rho
    if steps.denominator != 1 or steps.numerator & (steps.numerator - 1):
        raise ValueError("rho must be a reciprocal power of two")
    support = (int(steps) + 1) ** K
    if support > DEFAULT_SUPPORT_CAP:
        raise ResolutionBudgetExceeded(support, DEFAULT_SUPPORT_CAP)
    return tuple(Fraction(j) * rho for j in range(int(steps) + 1))


def continuous_expmech_distribution(
    t: Sequence,
    eps: float,
    K: int,
    rho=DEFAULT_RHO,
) -> OutcomeDistribution:
    """Exact exponential-mechanism distribution over the rho-grid of [0,1]^K.

    Rate n*eps/2 (sensitivity 1); the grid max of F is within rho of the
    continuous max, so every continuous-case accuracy claim picks up at most
    a rho slack.
    """
    import numpy as np

    pts = _rho_grid(rho, K)
    t_arr = np.asarray([float(x) for x in t])
    pts_arr = np.asarray([float(p) for p in pts])
    # distance of each agent to each grid point, then min over the K slots
    d1 = np.abs(t_arr[:, None] - pts_arr[None, :])
    alternatives = []
    scores = np.empty(len(pts) ** K)
    for idx, combo in enumerate(itertools.product(range(len(pts)), repeat=K)):
        alternatives.append(tuple(pts[j] for j in combo))
        scores[idx] = 1.0 - d1[:, list(combo)].min(axis=1).mean()
    rate = len(t) * eps / 2
    shifted = rate * scores
    shifted -= shifted.max()
    weights = np.exp(shifted)
    probs = weights / weights.sum()
    return OutcomeDistribution([Outcome(s) for s in alternatives], [float(p) for p in probs])


def continuous_expmech_sample(t, eps, K, rho, rng):
    return continuous_expmech_distribution(t, eps, K, rho).sample(rng).alternative


class DyadicCommitment:
    """X uniform in {1..m_bar}, Y uniform in [0, 2^X - 1]; facilities at
    Y/2^X and (at the remaining K-1 slots) (Y+1)/2^X."""

    def __init__(self, m_bar: int, K: int = 1):
        if m_bar < 1 or K < 1:
            raise ValueError("need m_bar >= 1 and K >= 1")
        self.m_bar = m_bar
        self.K = K

    def sample(self, rng):
        x = int(rng.integers(1, self.m_bar + 1))
        y = float(rng.random()) * (2**x - 1)
        a = y / 2**x
        b = (y + 1) / 2**x
        # both dyad endpoints are always present; K=1 is read as the pair
        return x, y, (a,) + (b,) * max(self.K - 1, 1)

    def committed_facility(self, v, x, y):
        """The imposed choice for announced coordinate v: the nearer of
        Y/2^X and (Y+1)/2^X, ties toward the smaller."""
        a = Fraction(y) / 2**x
        return a if Fraction(v) <= a + Fraction(1, 2**(x + 1)) else a + Fraction(1, 2**x)

    def misreport_loss(self, t, b):
        """Exact E[|t - committed(b)| - |t - committed(t)|] by quadrature.

        For each X the integrand is piecewise linear in Y with kinks at the
        commitment switch points and the points where a facility crosses t,
        so midpoint sums over the cut segments are exact.
        """
        t = Fraction(t)
        b = Fraction(b)
        total = Fraction(0)
        for x in range(1, self.m_bar + 1):
            two_x = Fraction(2**x)
            hi = two_x - 1
            cuts = {Fraction(0), hi}
            for c in (two_x * t - Fraction(1, 2), two_x * b - Fraction(1, 2),
                      two_x * t, two_x * t - 1):
                if 0 < c < hi:
                    cuts.add(c)
            pts = sorted(cuts)
            integral = Fraction(0)
            for lo_y, hi_y in zip(pts, pts[1:]):
                mid = (lo_y + hi_y) / 2
                g = (abs(t - self.committed_facility(b, x, mid))
                     - abs(t - self.committed_facility(t, x, mid)))
                integral += g * (hi_y - lo_y)
            total += integral / hi
        return total / self.m_bar


class Loc3Params(NamedTuple):
    n: int
    K: int
    eps: float
    m_bar: int
    q: float
    rho: Fraction
    accuracy_target: float


def loc3_params(n: int, K: int, rho=DEFAULT_RHO) -> Loc3Params:
    """eps = sqrt(K+1)/n^(2/3), m_bar = ceil(log2(n^(1/3)/(6 sqrt(K+1) ln n)))
    clamped to at least 1, q = 16 eps m_bar 2^m_bar.

    The log is read base 2; the clamp covers populations where the raw
    formula dips below 1 (the domination algebra is unaffected).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    eps = math.sqrt(K + 1) / n ** (2 / 3)
    raw = n ** (1 / 3) / (6 * math.sqrt(K + 1) * math.log(n))
    m_bar = max(1, math.ceil(math.log2(raw))) if raw > 0 else 1
    q = 16 * eps * m_bar * 2**m_bar
    target = 32 * math.sqrt(K + 1) / n ** (1 / 3) * math.log(n)
    return Loc3Params(
        n=n, K=K, eps=eps, m_bar=m_bar, q=q, rho=Fraction(rho),
        accuracy_target=target,
    )


def _loc3_admissible(p: Loc3Params) -> bool:
    return p.q < 1 and p.eps <= 0.5 and p.m_bar <= math.log(p.n)


def loc3_n0(K: int) -> int:
    """Smallest population for which the loc3 schedule is admissible."""
    n = 3
    while n <= LOC3_N0_SCAN_LIMIT:
        if _loc3_admissible(loc3_params(n, K)):
            return n
        n += 1
    raise PopulationTooSmall(LOC3_N0_SCAN_LIMIT, math.inf)


def domination_margin(p: Loc3Params) -> float:
    """q*Delta^2/(8 m_bar) - 2*eps*Delta at the band edge Delta = 2^(1-m_bar).

    Nonnegative whenever q >= 16 eps m_bar 2^m_bar, so the commitment
    branch's loss outweighs the exponential branch's temptation for every
    misreport beyond the band.
    """
    delta = 2.0 ** (1 - p.m_bar)
    return p.q * delta**2 / (8 * p.m_bar) - 2 * p.eps * delta


class Loc3Mechanism(NamedTuple):
    params: Loc3Params
    dyadic: DyadicCommitment

    def sample(self, t: Sequence, rng):
        """One alternative draw: dyadic branch w.p. q, else rho-grid expmech."""
        if rng.random() < self.params.q:
            return self.dyadic.sample(rng)[2]
        return continuous_expmech_sample(
            t, self.params.eps, self.params.K, self.params.rho, rng
        )


def loc3(n: int, K: int, rho=DEFAULT_RHO) -> Loc3Mechanism:
    """The continuous mechanism; its rho-grid of [0,1]^K must fit the support cap."""
    params = loc3_params(n, K, rho)
    if not _loc3_admissible(params):
        raise PopulationTooSmall(n, loc3_n0(K))
    _rho_grid(rho, K)
    return Loc3Mechanism(params=params, dyadic=DyadicCommitment(m_bar=params.m_bar, K=K))


def lipschitz_checks(t: Sequence, b: Sequence, alternatives: Sequence) -> dict:
    """Both continuity facts behind the accuracy analysis, on given probes.

    Pointwise: |F(t,s) - F(b,s)| <= mean |t_i - b_i| for every probed s.
    Max form: the best-alternative values differ by at most max |t_i - b_i|.
    """
    n = len(t)
    mean_shift = left_sum(abs(x - y) for x, y in zip(t, b)) / n
    max_shift = max(abs(x - y) for x, y in zip(t, b)) if n else 0
    worst = 0
    for s in alternatives:
        diff = abs(continuous_objective(t, s) - continuous_objective(b, s))
        excess = diff - mean_shift
        if excess > worst:
            worst = excess
    max_t = max(continuous_objective(t, s) for s in alternatives)
    max_b = max(continuous_objective(b, s) for s in alternatives)
    return {
        "pointwise_excess": float(worst),
        "pointwise_ok": worst <= 1e-12,
        "max_diff": float(abs(max_t - max_b)),
        "max_bound": float(max_shift),
        "max_ok": abs(max_t - max_b) <= max_shift + 1e-12,
    }
