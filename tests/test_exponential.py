import functools
import hashlib
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpmech as dm
from tests.conftest import cohort_pricing_instance, random_private_instance

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
        # near-indifference reads the distributions audit_dp left in the table
        dm.near_indifference_bound_check(counted_mech, env, eps)
        assert calls["mech"] == N
        if _applies(env, eps):
            dm.accuracy_bound_check(dm.ObjectiveFunction(counted_eval, 1), env, eps)
            assert calls["F"] == N * len(env.alternatives)


def test_mechanism_scores_a_vector_outside_the_type_space_itself():
    # with env.scores(F) held, a vector the environment does not list (a
    # foreign type, a wrong length) is scored by F, not by a held row
    F = dm.ObjectiveFunction(eval=lambda t, s: sum(t) * s % 7 / 7, sensitivity_d=1)
    env = dm.Environment(
        type_spaces=((0, 1),) * 2, alternatives=(0, 1, 2),
        reaction_spaces=(("noop",),) * 2, utility=lambda i, t, s, r: 0,
    )
    env.scores(F)
    mech = dm.exponential_mechanism(F, env, 0.5)
    _, _, rate = mech.exp_mech
    for t in ((0, 5), (3, 1), (0, 1, 1), (1, 1)):
        dist = dm.exp_mech_distribution(F, env.alternatives, t, rate)
        assert (mech(t).outcomes, mech(t).probs) == (dist.outcomes, dist.probs)


def test_audits_score_the_objective_once_per_vector_and_alternative():
    # n * |S| > 20e, so the accuracy check applies at every eps below
    n, s_count = 6, 10
    tables = np.random.default_rng(17).random((n, 2, s_count)).tolist()
    calls = Counter()

    def F_eval(t, s):
        calls["F"] += 1
        return sum(tables[i][t_i][s] for i, t_i in enumerate(t)) / n

    def environment():
        return dm.Environment(
            type_spaces=((0, 1),) * n,
            alternatives=tuple(range(s_count)),
            reaction_spaces=(("noop",),) * n,
            utility=lambda i, t, s, r: tables[i][t[i]][s],
            values_kind=dm.PRIVATE_VALUES,
        )

    F = dm.ObjectiveFunction(F_eval, 1)
    env = environment()
    N = env.num_type_vectors()
    for eps in (0.1, 0.5, 1.0):
        mech = dm.exponential_mechanism(F, env, eps)
        assert dm.audit_dp(mech, env, eps).passed
        assert dm.near_indifference_bound_check(mech, env, eps).passed
        assert dm.accuracy_bound_check(F, env, eps).passed
    assert calls["F"] == N * s_count

    calls.clear()
    env = environment()
    uniform = dm.OutcomeDistribution([dm.Outcome(s) for s in env.alternatives],
                                     [1 / s_count] * s_count)
    dm.verify_sensitivity(F, env)
    dm.implementation_gap(lambda t: uniform, env, F)
    assert calls["F"] == N * s_count


def _audit(check, mech, env, eps) -> str:
    try:
        return repr(check(mech, env, eps))
    except dm.ZeroProbabilityAsymmetry as e:
        return f"raised {e.args!r}"


def test_audits_of_a_wrapped_mechanism_match_the_per_vector_path(random_instances):
    # at eps 700 some probabilities underflow to exactly 0; the histogram
    # instances bring cross-agent ties (symmetric facility agents), agents
    # with a single type and payoffs keyed by the full vector
    histograms = (dm.build_grid_env(3, 2, 2), dm.build_grid_env(4, 3, 2),
                  cohort_pricing_instance(N=2, D=2), cohort_pricing_instance(N=3, D=2, m=6))
    calls = Counter()
    underflows = 0
    for env, F in [*random_instances, *((inst.env, inst.F) for inst in histograms)]:
        for eps in (0.5, 700.0):
            mech = dm.exponential_mechanism(F, env, eps)

            @functools.wraps(mech)
            def wrapped(t):
                calls["wrapped"] += 1
                return mech(t)

            def plain(t):
                calls["plain"] += 1
                return mech(t)

            underflows += any(p == 0 for t in env.type_vectors() for p in mech(t).probs)
            for check in (dm.audit_dp, dm.near_indifference_bound_check):
                want = _audit(check, plain, env, eps)
                calls["raised"] += want.startswith("raised")
                assert _audit(check, mech, env, eps) == want
                assert _audit(check, wrapped, env, eps) == want
    assert underflows > 0 and calls["raised"] > 0 and calls["plain"] > 0
    assert calls["wrapped"] == 0


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


def test_audit_dp_memory_is_bounded_by_the_table():
    # 2 187 vectors x 9 alternatives, 15 309 unilateral pairs: the audit holds
    # a few (vectors x alternatives) arrays, none with a row per pair
    import tracemalloc

    inst = dm.build_grid_env(7, 2, 2)
    mech = dm.exponential_mechanism(inst.F, inst.env, 0.5)
    dm.exponential.probability_table(inst.F, inst.env, mech.exp_mech[2])
    tracemalloc.start()
    try:
        report = dm.audit_dp(mech, inst.env, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 1.5e6


def test_near_indifference_memory_is_bounded_per_agent():
    # one agent's deviations at a time, their products one alternative at a
    # time: no 2 187 vectors x 3 announced types x 9 alternatives array, and
    # none over every agent's deviations
    import tracemalloc

    inst = dm.build_grid_env(7, 2, 2)
    mech = dm.exponential_mechanism(inst.F, inst.env, 0.5)
    first = dm.near_indifference_bound_check(mech, inst.env, 0.5)  # builds the rows
    tracemalloc.start()
    try:
        report = dm.near_indifference_bound_check(mech, inst.env, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == first and report.passed
    assert peak < 0.75e6


def test_accuracy_memory_is_bounded_by_the_table():
    # E[F] adds probability times score one alternative at a time: a few
    # arrays of 2 187 vectors, no (vectors x alternatives) product
    import tracemalloc

    inst = dm.build_grid_env(7, 2, 2)
    first = dm.accuracy_bound_check(inst.F, inst.env, 0.5)  # builds the tables
    tracemalloc.start()
    try:
        report = dm.accuracy_bound_check(inst.F, inst.env, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == first and report.passed
    assert peak < 0.28e6


def test_near_indifference_bound_is_infinite_past_the_largest_float():
    # e^800 overflows a float: the bound is +inf, on both paths
    inst = dm.build_grid_env(2, 2, 2)
    mech = dm.exponential_mechanism(inst.F, inst.env, 800.0)
    reports = [dm.near_indifference_bound_check(m, inst.env, 800.0)
               for m in (mech, lambda t: mech(t))]
    assert repr(reports[0]) == repr(reports[1])
    assert reports[0].passed and reports[0].margin == math.inf
    assert reports[0].witness is not None


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


# (agents, types per agent, alternatives): the shapes of the audit-dp benchmark
AUDIT_SHAPES = [(n, k, s) for n, k in ((3, 3), (4, 3), (5, 2), (5, 3)) for s in (4, 6)]
# md5 of every report below: the audits' sums, witnesses and raises are
# fixed to the bit, whichever path computes them
AUDIT_REPORTS_MD5 = "d10c48a238e8d17aacec6148cac0454b"


def _audit_instance(rows):
    """Private values with agent i's utility ``rows[i][t_i][s]``, F their
    average and singleton reactions, as in the audit-dp benchmark."""
    n = len(rows)
    env = dm.Environment(
        type_spaces=tuple(tuple(range(len(r))) for r in rows),
        alternatives=tuple(range(len(rows[0][0]))),
        reaction_spaces=(("noop",),) * n,
        utility=lambda i, t, s, r: rows[i][t[i]][s],
        values_kind=dm.PRIVATE_VALUES,
    )
    F = dm.ObjectiveFunction(
        eval=lambda t, s: sum(rows[i][t_i][s] for i, t_i in enumerate(t)) / n,
        sensitivity_d=1,
    )
    return env, F


def test_audit_reports_pinned():
    # the exponential mechanism's array path and a plain closure (the
    # per-vector path) on the same tables; eps 700 underflows probabilities
    reports = []
    for seed in (1, 7, 11):
        rng = np.random.default_rng(seed)
        for n, k, s in AUDIT_SHAPES:
            env, F = _audit_instance([rng.random((k, s)).tolist() for _ in range(n)])
            for eps in (0.1, 0.5, 1.0, 700.0):
                mech = dm.exponential_mechanism(F, env, eps)
                for m in (mech, lambda t: mech(t)):
                    reports.append(_audit(dm.audit_dp, m, env, eps))
                    reports.append(_audit(dm.near_indifference_bound_check, m, env, eps))
                if n > 2 * math.e / (eps * s):
                    reports.append(repr(dm.accuracy_bound_check(F, env, eps)))
    digest = hashlib.md5("\n".join(reports).encode()).hexdigest()
    assert digest == AUDIT_REPORTS_MD5


@pytest.mark.parametrize("eps", [0.1, 1.0, 700.0])
def test_probability_table_rows_equal_the_distribution_path(eps):
    # the audits' shared table is bit for bit what the mechanism draws from,
    # including the probabilities that underflow to 0 at eps 700; the last
    # shape's rows are wider than numpy's pairwise sums add one by one
    rng = np.random.default_rng(3)
    underflows = 0
    for n, k, s in AUDIT_SHAPES + [(2, 3, 40)]:
        env, F = _audit_instance([rng.random((k, s)).tolist() for _ in range(n)])
        mech = dm.exponential_mechanism(F, env, eps)
        _, _, rate = mech.exp_mech
        table = dm.exponential.probability_table(F, env, rate)
        assert table.shape == (env.num_type_vectors(), s)
        for row, t in zip(table.tolist(), env.type_vectors()):
            assert row == list(dm.exp_mech_distribution(F, env.alternatives, t, rate).probs)
        underflows += int((table == 0.0).sum())
    assert (underflows > 0) == (eps == 700.0)


def test_one_probability_table_per_objective_and_one_exp_per_entry(monkeypatch):
    env, F = _audit_instance(np.random.default_rng(4).random((4, 3, 5)).tolist())
    G = dm.ObjectiveFunction(eval=lambda t, s: F.eval(t, s) / 2, sensitivity_d=1)
    for eps in np.linspace(0.1, 2.0, 20).tolist():
        for obj in (F, G):
            mech = dm.exponential_mechanism(obj, env, eps)
            dm.audit_dp(mech, env, eps)
        # the memo on the environment: the latest rate's table per objective
        held = env.__dict__["_probability_tables"]
        assert set(held) == {F, G}
        assert held[G][0] == mech.exp_mech[2]

    calls = Counter()
    exp = math.exp

    def counted_exp(x):
        calls["exp"] += 1
        return exp(x)

    monkeypatch.setattr(math, "exp", counted_exp)
    env, F = _audit_instance(np.random.default_rng(5).random((4, 3, 5)).tolist())
    eps = 0.5
    for _ in range(2):
        mech = dm.exponential_mechanism(F, env, eps)
        dm.audit_dp(mech, env, eps)
        dm.near_indifference_bound_check(mech, env, eps)
        dm.accuracy_bound_check(F, env, eps)
    # one exp per (vector, alternative), plus the bound e^eps - 1 of each
    # near-indifference check
    assert calls["exp"] == env.num_type_vectors() * len(env.alternatives) + 2


def test_a_rate_that_is_not_finite_is_refused():
    # n * eps overflows to inf, and at the price-0 alternative inf * 0 is NaN:
    # every probability was NaN, and ex-post Nash, the DP audit and the
    # accuracy check all passed on it
    inst = cohort_pricing_instance(N=2, D=1, m=4)
    with pytest.raises(ValueError, match="rate inf is not finite"):
        dm.exponential_mechanism(inst.F, inst.env, 1e308)
    with pytest.raises(ValueError, match="rate inf is not finite"):
        dm.accuracy_bound_check(inst.F, inst.env, 1e308)


def test_scores_that_overflow_at_a_finite_rate_are_refused():
    # rate 5e307 is finite, but rate * 4 is not: inf - inf would be a NaN
    # weight, on the array path and on the distribution path alike
    env, F = _audit_instance([[[4.0, 1.0], [1.0, 4.0]]])
    mech = dm.exponential_mechanism(F, env, 1e308)
    for m in (mech, lambda t: mech(t)):
        with pytest.raises(ValueError, match="is not finite"):
            dm.audit_dp(m, env, 1e308)


def test_an_objective_that_is_nan_after_its_first_alternative_is_refused():
    # a NaN score past the first is not the row's max, so only the
    # normaliser shows it; a NaN table passed the DP audit with eps 0
    env, F = _audit_instance([[[0.2, 0.5, 0.9], [0.9, 0.5, 0.2]]] * 2)
    G = dm.ObjectiveFunction(
        eval=lambda t, s: float("nan") if s == 1 else F.eval(t, s), sensitivity_d=1
    )
    mech = dm.exponential_mechanism(G, env, 0.5)
    for check in (
        lambda: dm.audit_dp(mech, env, 0.5),
        lambda: dm.audit_dp(lambda t: mech(t), env, 0.5),
        lambda: dm.near_indifference_bound_check(mech, env, 0.5),
        lambda: dm.accuracy_bound_check(G, env, 5.0),  # n = 2 is enough at eps 5
    ):
        with pytest.raises(ValueError, match="normaliser nan: a rate"):
            check()
