import math
import random
from fractions import Fraction

import mpmath
import pytest

import dpmech as dm


def facility_setup(n=3, m=2, K=2):
    inst = dm.build_grid_env(n, m, K)
    P = dm.dyad_facility_commitment(inst)
    gamma = inst.gamma_declared
    return inst, P, gamma


def test_contract_violation_rejected():
    inst, P, gamma = facility_setup()
    with pytest.raises(dm.ParamContractViolated):
        dm.build_combined(inst.env, inst.F, P, gamma, eps=0.5, q=Fraction(1, 10))
    # and accepted when the inequality holds: q * p~ * gamma = 1/8 >= 2 eps
    dm.build_combined(inst.env, inst.F, P, gamma, eps=0.05, q=Fraction(1, 2))


def test_mixture_weights_show_up_as_imposing_mass():
    inst, P, gamma = facility_setup()
    eps, q = dm.saturating_params(P, gamma)
    mech = dm.build_combined(inst.env, inst.F, P, gamma, eps, q)
    t = next(iter(inst.env.type_vectors()))
    assert mech(t).imposing_mass() == q


def test_saturating_params_saturate_contract():
    inst, P, gamma = facility_setup()
    eps, q = dm.saturating_params(P, gamma)
    assert q == Fraction(1, 2)
    assert math.isclose(float(q * P.p_tilde * gamma), 2 * eps)
    assert dm.incentive_contract_holds(eps, q, P.p_tilde, gamma)


def test_schedule_params_against_mpmath():
    inst, P, gamma = facility_setup(n=500)
    params = dm.schedule_params(P, gamma, 1, 9, 500)
    mpmath.mp.dps = 50
    pg = mpmath.mpf(1) / 4
    n = mpmath.mpf(500)
    s = mpmath.mpf(9)
    eps = mpmath.sqrt(pg / n * mpmath.log(n * pg * s / 2))
    assert params.eps == pytest.approx(float(eps), rel=1e-14)
    assert params.q == pytest.approx(float(2 * eps / pg), rel=1e-14)
    beta = 6 * mpmath.sqrt(1 / (pg * n)) * mpmath.sqrt(mpmath.log(n * pg * s / 2))
    assert params.beta_bound == pytest.approx(float(beta), rel=1e-14)
    # scheduled params satisfy the truthfulness contract by construction
    assert params.q * params.p_tilde * params.gamma >= 2 * params.eps - 1e-12


def test_schedule_rejects_tiny_population():
    inst, P, gamma = facility_setup(n=3)
    with pytest.raises(dm.ParamContractViolated):
        dm.schedule_params(P, gamma, 1, 9, 4)


def test_compute_n0_is_minimal_admissible():
    p_tilde, gamma, d, s_count = Fraction(1, 2), Fraction(1, 2), 1.0, 9
    n0 = dm.compute_n0(p_tilde, gamma, d, s_count)
    pg = 0.25
    c = 8 * d / pg

    def admissible(n):
        return (
            n >= c * math.log(max(pg * s_count / (2 * d), 1.0))
            and n >= 4 * math.e**2 * d / (pg * s_count)
            and n / math.log(n) > c
        )

    assert admissible(n0)
    assert not admissible(n0 - 1)
    # the schedule itself works from n0 + 1 on
    inst, P, gamma_ = facility_setup(n=n0 + 1)
    params = dm.schedule_params(P, gamma_, 1, 9, n0 + 1)
    assert 0 < params.q < 1 and params.eps <= 1 and params.n0 == n0
    with pytest.raises(dm.PopulationTooSmall):
        dm.schedule_params(P, gamma_, 1, 9, n0)


def _scan_n0(p_tilde, gamma, d, s_count):
    """compute_n0 as an ascending scan from the least candidate."""
    pg = float(p_tilde) * float(gamma)
    c = 8 * d / pg
    floor_a = c * math.log(max(pg * s_count / (2 * d), 1.0))
    n = max(2, math.ceil(max(floor_a, 4 * math.e**2 * d / (pg * s_count))))
    while not n / math.log(n) > c:
        n += 1
    return n


def test_compute_n0_bisection_matches_scan():
    rng = random.Random(20261019)
    cases = 0
    while cases < 300:
        p_tilde, gamma = rng.uniform(0.01, 1), rng.uniform(0.01, 1)
        d, s_count = rng.uniform(0.05, 3), rng.randint(1, 2000)
        if 8 * d / (p_tilde * gamma) > 5000:
            continue  # keeps n0 below 10^6 and the scan short
        want = _scan_n0(p_tilde, gamma, d, s_count)
        assert dm.compute_n0(p_tilde, gamma, d, s_count) == want
        cases += 1
    # the n0 of the pinned verify and acceptance runs
    for args, n0 in (((Fraction(1, 2), Fraction(1, 2), 1.0, 9), 164),
                     ((Fraction(1, 5), Fraction(11, 38), 1, 5), 948),
                     ((Fraction(1, 7), Fraction(17, 57), 2, 7), 3008)):
        assert dm.compute_n0(*args) == _scan_n0(*args) == n0
    # past 10^9, too far to scan: the least candidate is past it, or below
    # it with n / ln(n) <= 8d / (p_tilde * gamma) there
    for p_tilde, gamma, d, s_count in ((1e-9, 1.0, 1.0, 2), (1.6e-7, 1.0, 1.0, 1000)):
        n0 = dm.compute_n0(p_tilde, gamma, d, s_count)
        pg, c = p_tilde * gamma, 8 * d / (p_tilde * gamma)
        assert n0 > 10**9
        assert n0 / math.log(n0) > c >= (n0 - 1) / math.log(n0 - 1)
        assert n0 >= c * math.log(max(pg * s_count / (2 * d), 1.0))
        assert n0 >= 4 * math.e**2 * d / (pg * s_count)


@pytest.mark.parametrize("p_tilde", [1e-305, 1e-310, 5e-324])
def test_compute_n0_past_the_floats_violates_the_contract(p_tilde):
    # n / ln(n) > 8 / p_tilde needs an n over the largest float (1e-305), or
    # the bound itself is infinite (1e-310, 5e-324): the contract error, not
    # an OverflowError or a NaN's ValueError
    with pytest.raises(dm.ParamContractViolated, match="no float n has n / ln"):
        dm.compute_n0(p_tilde, 1.0, 1.0, 1)


def test_compute_n0_bisects_past_the_index_range():
    # n0 near 5.6e303 is far past sys.maxsize, so no range of candidates
    # could hold it
    n0 = dm.compute_n0(1e-300, 1.0, 1.0, 1)
    c = 8 / 1e-300
    assert n0 / math.log(n0) > c >= (n0 - 1) / math.log(n0 - 1)


def test_combined_truthful_at_saturating_params():
    inst, P, gamma = facility_setup()
    eps, q = dm.saturating_params(P, gamma)
    mech = dm.build_combined(inst.env, inst.F, P, gamma, eps, q)
    assert dm.check_expost_nash_truthful(mech, inst.env).passed
    assert dm.check_strictly_dominant_truthful(mech, inst.env).passed


@pytest.mark.parametrize("family", ["facility-m2", "facility-m3", "pricing"])
def test_schedule_contract_holds_at_every_n_above_n0(family):
    # q = 2 eps / (p~ gamma) can round to q p~ gamma < 2 eps; the schedule
    # must hand out parameters its own strict check accepts
    if family == "pricing":
        from dpmech.cli import _instance

        _, inst, P = _instance({"pricing": {"cohorts": 1, "cohort_size": 2, "grid_m": 4}})
    else:
        inst = dm.build_grid_env(1, int(family[-1]), 2)
        P = dm.dyad_facility_commitment(inst)
    gamma, d = inst.gamma_declared, inst.F.sensitivity_d
    s_count = len(inst.F.alternatives)
    n0 = dm.compute_n0(P.p_tilde, gamma, d, s_count)
    for n in range(n0 + 1, n0 + 2001):
        params = dm.schedule_params(P, gamma, d, s_count, n)
        assert params.q < 1 and params.n0 == n0
        assert dm.incentive_contract_holds(params.eps, params.q, P.p_tilde, gamma)
