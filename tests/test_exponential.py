import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpmech as dm
from tests.conftest import random_private_instance

# softmax of scores (0, 1) at rate 1, from mpmath at 50 digits
P_LOW_ORACLE = 0.26894142136999512074934946989610952015792900994316
P_HIGH_ORACLE = 0.73105857863000487925065053010389047984207099005684


def two_point_objective(a, b):
    return dm.ObjectiveFunction(eval=lambda t, s: a if s == 0 else b, sensitivity_d=1)


def test_distribution_matches_high_precision_softmax():
    F = two_point_objective(0.0, 1.0)
    dist = dm.exp_mech_distribution(F, (0, 1), (0,), rate=1.0)
    marg = dist.marginal_alternatives()
    assert marg[0] == pytest.approx(P_LOW_ORACLE, abs=1e-15)
    assert marg[1] == pytest.approx(P_HIGH_ORACLE, abs=1e-15)

    # spot-check a second rate against a live mpmath oracle
    mpmath.mp.dps = 50
    rate = 3.7
    dist = dm.exp_mech_distribution(F, (0, 1), (0,), rate=rate)
    z = mpmath.e**0 + mpmath.e ** (mpmath.mpf(rate))
    assert dist.marginal_alternatives()[1] == pytest.approx(
        float(mpmath.e ** mpmath.mpf(rate) / z), abs=1e-15
    )


def test_rate_zero_is_uniform():
    F = two_point_objective(0.3, 0.9)
    dist = dm.exp_mech_distribution(F, (0, 1), (0,), rate=0.0)
    assert dist.marginal_alternatives() == {0: 0.5, 1: 0.5}


def test_shift_invariance():
    base = two_point_objective(0.1, 0.4)
    shifted = two_point_objective(0.6, 0.9)
    d1 = dm.exp_mech_distribution(base, (0, 1), (0,), rate=5.0)
    d2 = dm.exp_mech_distribution(shifted, (0, 1), (0,), rate=5.0)
    for s in (0, 1):
        assert d1.marginal_alternatives()[s] == pytest.approx(
            d2.marginal_alternatives()[s], abs=1e-15
        )


def test_audit_dp_random_instance():
    env, F = random_private_instance(np.random.default_rng(5))
    eps = 0.5
    rep = dm.audit_dp(dm.exponential_mechanism(F, env, eps), env, eps)
    assert rep.passed
    assert rep.epsilon_measured <= eps + 1e-9


def test_audit_constant_mechanism_is_zero_eps():
    env, F = random_private_instance(np.random.default_rng(6))
    dist = dm.OutcomeDistribution(
        [dm.Outcome(s) for s in env.alternatives],
        [1 / len(env.alternatives)] * len(env.alternatives),
    )
    rep = dm.audit_dp(lambda t: dist, env, 0.0)
    assert rep.epsilon_measured == 0.0


def test_audit_zero_probability_asymmetry():
    env, F = random_private_instance(np.random.default_rng(7))
    s0 = env.alternatives[0]

    def leaky(t):
        if t[0] == 0:
            rest = env.alternatives[1:]
            return dm.OutcomeDistribution(
                [dm.Outcome(s) for s in rest], [1 / len(rest)] * len(rest)
            )
        return dm.OutcomeDistribution(
            [dm.Outcome(s) for s in env.alternatives],
            [1 / len(env.alternatives)] * len(env.alternatives),
        )

    with pytest.raises(dm.ZeroProbabilityAsymmetry):
        dm.audit_dp(leaky, env, 1.0)


@given(st.integers(0, 10**6), st.sampled_from([0.1, 0.5, 1.0]))
@settings(max_examples=30, deadline=None)
def test_dp_property_random(seed, eps):
    env, F = random_private_instance(np.random.default_rng(seed))
    rep = dm.audit_dp(dm.exponential_mechanism(F, env, eps), env, eps)
    assert rep.passed


def test_near_indifference_bound():
    env, F = random_private_instance(np.random.default_rng(8))
    eps = 0.3
    rep = dm.near_indifference_bound_check(
        dm.exponential_mechanism(F, env, eps), env, eps
    )
    assert rep.passed
    worst = (math.exp(eps) - 1) - rep.margin
    assert worst <= 2 * eps + 1e-12


def test_accuracy_bound_and_population_guard():
    env, F = random_private_instance(np.random.default_rng(9))
    eps = 1.0
    if env.n > 2 * math.e / (eps * len(env.alternatives)):
        assert dm.accuracy_bound_check(F, env, eps).passed
    with pytest.raises(dm.PopulationTooSmall):
        dm.accuracy_bound_check(F, env, eps=1e-6)


def _naive_accuracy(F, env, eps):
    """accuracy_bound_check's report from the public distribution and F.eval."""
    d, n, s_count = F.sensitivity_d, env.n, len(env.alternatives)
    bound = (4 * d / (n * eps)) * math.log(n * eps * s_count / (2 * d))
    worst, witness, passed = math.inf, None, True
    for t in env.type_vectors():
        dist = dm.exp_mech_distribution(F, env.alternatives, t, n * eps / (2 * d))
        expected = sum(p * float(F.eval(t, o.alternative)) for o, p in dist.items())
        best = max(float(F.eval(t, s)) for s in env.alternatives)
        slack = expected - (best - bound)
        if slack < worst:
            worst, witness = slack, (t, expected, best)
        passed = passed and slack >= -1e-12
    return worst, passed, witness


def _applies(env, eps):
    return env.n > 2 * math.e / (eps * len(env.alternatives))


def test_accuracy_matches_naive(random_instances):
    cases = [(env, F, eps) for env, F in random_instances[:60] for eps in (0.5, 2.0)
             if _applies(env, eps)]
    assert len(cases) > 20
    for env, F, eps in cases:
        rep = dm.accuracy_bound_check(F, env, eps)
        worst, passed, witness = _naive_accuracy(F, env, eps)
        assert (rep.margin, rep.passed) == (worst, passed)
        assert repr(rep.witness) == repr(witness)


def test_checks_call_mechanism_and_objective_once_per_vector(random_instances):
    for env, F in random_instances[:30]:
        calls = Counter()
        eps = 2.0
        mech = dm.exponential_mechanism(F, env, eps)

        def counted_mech(t):
            calls["mech"] += 1
            return mech(t)

        def counted_eval(t, s):
            calls["F"] += 1
            return F.eval(t, s)

        N = env.num_type_vectors()
        dm.audit_dp(counted_mech, env, eps)
        assert calls["mech"] == N
        dm.near_indifference_bound_check(counted_mech, env, eps)
        assert calls["mech"] == 2 * N
        if _applies(env, eps):
            dm.accuracy_bound_check(dm.ObjectiveFunction(counted_eval, 1), env, eps)
            assert calls["F"] == N * len(env.alternatives)


def test_checks_on_single_type_agents():
    # no agent can misreport: no neighbour pairs, no deviations
    env = dm.Environment(
        type_spaces=((0,), ("b",)),
        alternatives=(0, 1, 2),
        reaction_spaces=(("noop",), ("noop",)),
        utility=lambda i, t, s, r: s / 4,
        values_kind=dm.PRIVATE_VALUES,
    )
    F = dm.ObjectiveFunction(eval=lambda t, s: s / 4, sensitivity_d=1)
    mech = dm.exponential_mechanism(F, env, 0.5)
    assert dm.audit_dp(mech, env, 0.5) == dm.DpAuditReport(0.0, None, 0.5, True)
    rep = dm.near_indifference_bound_check(mech, env, 0.5)
    assert (rep.margin, rep.witness, rep.passed) == (math.exp(0.5) - 1, None, True)


def test_audit_constant_exact_mechanism_has_no_witness():
    env, F = random_private_instance(np.random.default_rng(10))
    s_count = len(env.alternatives)
    dist = dm.OutcomeDistribution([dm.Outcome(s) for s in env.alternatives],
                                  [Fraction(1, s_count)] * s_count)
    assert dm.audit_dp(lambda t: dist, env, 0.0) == dm.DpAuditReport(0.0, None, 0.0, True)


def test_budget_checks_run_before_any_mechanism_call():
    inst = dm.build_grid_env(2, 2, 2)

    def untouchable(*args):
        raise AssertionError("called before the budget check")

    F = dm.ObjectiveFunction(eval=untouchable, sensitivity_d=inst.F.sensitivity_d)
    for needed, check in (
        (36, lambda: dm.near_indifference_bound_check(untouchable, inst.env, 1.0, budget=1)),
        (162, lambda: dm.audit_dp(untouchable, inst.env, 1.0, budget=1)),
        (81, lambda: dm.accuracy_bound_check(F, inst.env, 1.0, budget=1)),
    ):
        with pytest.raises(dm.EnumerationBudgetExceeded) as e:
            check()
        assert (e.value.needed, e.value.budget) == (needed, 1)
