import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpmech as dm
from dpmech.facility import (
    DyadicCommitment,
    continuous_expmech_distribution,
    domination_margin,
    loc3_params,
)


def test_grid_env_basics():
    inst = dm.build_grid_env(3, 2, 1)
    env = inst.env
    assert len(env.alternatives) == 3
    # n=3, K=1, t=(0,0,1): brute force says the best single placement is 0
    t = (Fraction(0), Fraction(0), Fraction(1))
    best = max(env.alternatives, key=lambda s: inst.F.eval(t, s))
    assert best == (Fraction(0),)
    assert inst.F.eval(t, best) == 1 - Fraction(1, 3)
    # reaction outside s scores 0 (the raw -1, shifted)
    assert env.utility(0, t, (Fraction(1),), Fraction(0)) == 0


def test_grid_gap_is_one_over_m_for_two_facilities():
    for m in (2, 3):
        inst = dm.build_grid_env(2, m, 2)
        assert dm.compute_gap(inst.env).gamma == Fraction(1, m)


def test_grid_gap_zero_for_single_facility():
    inst = dm.build_grid_env(2, 2, 1)
    assert dm.compute_gap(inst.env).gamma == 0


def test_separating_set_exists_for_dyads():
    inst = dm.build_grid_env(2, 2, 2)
    cert = dm.find_separating_set(inst.env)
    assert cert.separating_set  # non-empty greedy cover
    dm.check_environment(inst.env)


def test_loc1_loc2_population_guard_and_truthfulness():
    with pytest.raises(dm.PopulationTooSmall):
        dm.loc1(3, 2, 2)
    with pytest.raises(dm.PopulationTooSmall):
        dm.loc2(3, 2, 2)
    with pytest.raises(ValueError, match="K >= 2"):
        dm.loc2(200, 2, 1)


def test_loc2_beats_loc1_bound_for_k2():
    # closed-form beta comparison at fixed m, large n
    m, K, n = 2, 2, 10**5
    s_count = (m + 1) ** K

    def beta(p_tilde):
        pg = p_tilde / m
        return 6 * math.sqrt(1 / (pg * n)) * math.sqrt(
            math.log(n * pg * s_count / 2)
        )

    assert beta(1 / m) < beta(1 / s_count)


def test_scheduled_loc2_runs_and_is_truthful_at_small_scale():
    # exhaustive truthfulness is checked at contract-saturating params instead of the
    # asymptotic schedule (which needs n > 164)
    inst = dm.build_grid_env(3, 2, 2)
    P = dm.dyad_facility_commitment(inst)
    eps, q = dm.saturating_params(P, inst.gamma_declared)
    mech = dm.build_combined(inst.env, inst.F, P, inst.gamma_declared, eps, q)
    assert dm.check_strictly_dominant_truthful(mech, inst.env).passed


@pytest.mark.parametrize("build, m", [(dm.loc2, 2), (dm.loc1, 1)])
def test_scheduled_mechanisms_past_n0(build, m):
    # n0 = 164 for both at K = 2: the schedule is the closed form, and the
    # lottery imposes with probability q
    n, K = 165, 2
    sched = build(n, m, K)
    inst = sched.inst
    assert sched.params == dm.schedule_params(
        sched.P, inst.gamma_declared, inst.F.sensitivity_d, len(inst.F.alternatives), n
    )
    locs = inst.F.member_types[0]
    b = tuple(locs[i % len(locs)] for i in range(n))
    assert sched.mech(b).imposing_mass() == sched.params.q


def test_continuous_rate_zero_uniform():
    dist = continuous_expmech_distribution((0.5,), eps=0.0, K=1, rho=Fraction(1, 8))
    probs = list(dist.probs)
    assert len(probs) == 9
    assert all(p == pytest.approx(1 / 9) for p in probs)


def test_continuous_concentration_at_high_rate():
    # n=1, K=1, rate = eps/2 = 200 => mass within +-2 rho of 0.5 over 0.99
    rho = Fraction(1, 64)
    dist = continuous_expmech_distribution((0.5,), eps=400.0, K=1, rho=rho)
    near = sum(
        p for o, p in dist.items() if abs(float(o.alternative[0]) - 0.5) <= 2 * float(rho)
    )
    assert near > 0.99


def test_continuous_support_cap():
    with pytest.raises(dm.ResolutionBudgetExceeded):
        continuous_expmech_distribution((0.5, 0.2), eps=1.0, K=2, rho=Fraction(1, 1024))


def test_continuous_deviation_gain_bounded():
    # misreport gain of the rho-grid mechanism <= 2 eps |t_i - b_i|
    rho = Fraction(1, 16)
    eps = 0.5
    t = (0.3, 0.8)
    grid_pts = [j / 16 for j in range(17)]

    def eu(announced, true_x):
        dist = continuous_expmech_distribution(announced, eps, 1, rho)
        return sum(
            p * (1 - abs(true_x - float(o.alternative[0]))) for o, p in dist.items()
        )

    base = eu(t, t[0])
    for b0 in grid_pts:
        gain = eu((b0, t[1]), t[0]) - base
        assert gain <= 2 * eps * abs(t[0] - b0) + 1e-12


def test_dyadic_m1_exact_loss():
    dc = DyadicCommitment(m_bar=1)
    # t=0 vs b=1: committed facility is always the far endpoint, loss 1/2
    assert dc.misreport_loss(0, 1) == Fraction(1, 2)
    assert dc.misreport_loss(1, 0) == Fraction(1, 2)
    assert dc.misreport_loss(Fraction(1, 2), Fraction(1, 2)) == 0


def test_dyadic_loss_lower_bound_on_mesh():
    rng = np.random.default_rng(42)
    for m_bar in (1, 2, 3, 4):
        dc = DyadicCommitment(m_bar=m_bar)
        delta_min = Fraction(1, 2 ** (m_bar - 1))
        if m_bar == 1:
            pairs = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
        else:
            # sample t, then b directly from the admissible tails
            pairs = []
            while len(pairs) < 40:
                t = Fraction(int(rng.integers(0, 1025)), 1024)
                lo_cap = t - delta_min
                hi_base = t + delta_min
                choices = [
                    Fraction(j, 1024)
                    for j in range(1025)
                    if Fraction(j, 1024) <= lo_cap or Fraction(j, 1024) >= hi_base
                ]
                if choices:
                    pairs.append((t, choices[int(rng.integers(0, len(choices)))]))
        assert any(b > t for t, b in pairs) and any(b < t for t, b in pairs)
        for t, b in pairs:
            loss = dc.misreport_loss(t, b)
            assert loss >= (t - b) ** 2 / (8 * m_bar) - Fraction(1, 10**10)


def test_dyadic_favorable_event_geometry():
    # for the unique X with 1/2^X < delta/2 <= 2/2^X and Y/2^X in
    # [b, (b+t)/2], truth and lie commit to different endpoints and the
    # committed-facility swing is at least delta/4
    t, b = Fraction(3, 4), Fraction(1, 4)
    delta = t - b
    x = next(x for x in range(1, 10) if Fraction(1, 2**x) < delta / 2 <= Fraction(2, 2**x))
    dc = DyadicCommitment(m_bar=max(x, 1))
    y = (b + delta / 4) * 2**x  # midpoint of the favorable band
    f_lie = dc.committed_facility(b, x, y)
    f_truth = dc.committed_facility(t, x, y)
    assert f_lie != f_truth
    assert abs(t - f_lie) - abs(t - f_truth) >= delta / 4


def test_dyadic_sampler_shapes():
    dc = DyadicCommitment(m_bar=3, K=2)
    rng = np.random.default_rng(0)
    x, y, s = dc.sample(rng)
    assert 1 <= x <= 3
    assert 0 <= y <= 2**x - 1
    assert len(s) == 2 and s[1] - s[0] == pytest.approx(2.0**-x)
    dc1 = DyadicCommitment(m_bar=1, K=1)
    _, _, s1 = dc1.sample(rng)
    assert len(s1) == 2  # K=1 still carries both dyad endpoints


def test_loc3_params_against_mpmath():
    mpmath.mp.dps = 50
    n, K = 10**6, 2
    p = loc3_params(n, K)
    eps = mpmath.sqrt(K + 1) / mpmath.mpf(n) ** (mpmath.mpf(2) / 3)
    assert p.eps == pytest.approx(float(eps), rel=1e-12)
    raw = mpmath.mpf(n) ** (mpmath.mpf(1) / 3) / (6 * mpmath.sqrt(K + 1) * mpmath.log(n))
    assert p.m_bar == max(1, int(mpmath.ceil(mpmath.log(raw, 2))))
    assert p.q == pytest.approx(float(16 * eps * p.m_bar * 2**p.m_bar), rel=1e-12)
    assert p.accuracy_target == pytest.approx(
        float(32 * mpmath.sqrt(K + 1) / mpmath.mpf(n) ** (mpmath.mpf(1) / 3) * mpmath.log(n)),
        rel=1e-12,
    )


def test_loc3_domination_and_n0():
    for K in (1, 2):
        n0 = dm.loc3_n0(K)
        # the schedule does not depend on rho; 257^2 grid points fit the cap
        mech = dm.loc3(n0, K, rho=Fraction(1, 256))
        assert mech.params.q < 1
        assert domination_margin(mech.params) >= 0
        with pytest.raises(dm.PopulationTooSmall):
            dm.loc3(3, K)


class _ExpBranchRng:
    """A generator whose ``random()`` is 0.99999, so loc3 always takes the
    exponential branch (probability 1 - q, about 6e-4 at loc3_n0(2))."""

    def random(self):
        return 0.99999


def test_loc3_exponential_branch_fits_the_support_cap():
    n0 = dm.loc3_n0(1)
    t = tuple(np.random.default_rng(3).random(n0))
    s = dm.loc3(n0, 1).sample(t, _ExpBranchRng())
    assert len(s) == 1 and 0 <= s[0] <= 1
    # a 1025^2 grid exceeds the cap: refused when built, not when drawn
    with pytest.raises(dm.ResolutionBudgetExceeded):
        dm.loc3(dm.loc3_n0(2), 2)


class _DyadicBranchRng:
    """A generator whose ``random()`` is 0.0 and ``integers(lo, hi)`` is lo,
    so loc3 takes the dyadic branch with X = 1 and Y = 0."""

    def random(self):
        return 0.0

    def integers(self, lo, hi):
        return lo


def test_loc3_dyadic_branch_draws_the_dyad():
    n0 = dm.loc3_n0(1)
    t = tuple(np.random.default_rng(3).random(n0))
    # facilities at Y/2^X = 0 and (Y+1)/2^X = 1/2; K = 1 carries both
    assert dm.loc3(n0, 1).sample(t, _DyadicBranchRng()) == (0.0, 0.5)


def test_loc3_sampler_deterministic():
    mech = dm.loc3(2000, 1, rho=Fraction(1, 64))
    t = tuple(np.random.default_rng(1).random(8))
    a = [mech.sample(t, np.random.default_rng(5)) for _ in range(3)]
    b = [mech.sample(t, np.random.default_rng(5)) for _ in range(3)]
    assert a == b


def test_lipschitz_checks():
    alts = [(Fraction(j, 8),) for j in range(9)]
    t = (Fraction(1, 4), Fraction(3, 4))
    assert dm.lipschitz_checks(t, t, alts)["max_diff"] == 0
    b = (Fraction(1, 4) + Fraction(1, 32), Fraction(3, 4))
    rep = dm.lipschitz_checks(t, b, alts)
    assert rep["pointwise_ok"] and rep["max_ok"]


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_lipschitz_random_probes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    t = tuple(Fraction(int(rng.integers(0, 257)), 256) for _ in range(n))
    shift = tuple(Fraction(int(rng.integers(-16, 17)), 256) for _ in range(n))
    b = tuple(min(max(x + d, Fraction(0)), Fraction(1)) for x, d in zip(t, shift))
    alts = [(Fraction(j, 16),) for j in range(17)]
    rep = dm.lipschitz_checks(t, b, alts)
    assert rep["pointwise_ok"] and rep["max_ok"]
