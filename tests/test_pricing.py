import time
from fractions import Fraction

import mpmath
import pytest

import dpmech as dm
from dpmech.pricing import BUY, NOT_BUY
from tests.conftest import cohort_pricing_instance, two_signal_pricing_instance


def test_build_checks_monotone_and_fineness():
    # non-monotone: raising the signal lowers the valuation
    with pytest.raises(ValueError, match="monotone"):
        dm.build_pricing_env(
            1, 1, 4, [(0, 1)],
            lambda X: (Fraction(9, 10),) if X[0] == 0 else (Fraction(1, 5),),
        )
    # too-coarse grid: valuations 0.4 / 0.6 leave no price with a 2/m margin
    with pytest.raises(dm.GridTooCoarse):
        dm.build_pricing_env(
            1, 1, 4, [(0, 1)],
            lambda X: (Fraction(2, 5),) if X[0] == 0 else (Fraction(3, 5),),
        )


def test_instance_shape_and_normalization():
    inst = cohort_pricing_instance()
    env = inst.env
    assert env.n == 4
    assert len(env.alternatives) == 5
    # the grid bound 1/m in utility units: 1/4 / (1 + 9/10)
    assert inst.gamma_declared == Fraction(1, 4) * Fraction(10, 19)
    # all utilities in [0, 1], exact
    for t in env.type_vectors():
        for p in env.alternatives:
            for i in env.agents:
                for r in (BUY, NOT_BUY):
                    u = env.utility(i, t, p, r)
                    assert 0 <= u <= 1
    dm.check_environment(env)


def test_tie_at_value_equals_price_is_not_buy():
    inst = cohort_pricing_instance()
    env = inst.env
    # informative member announcing low: valuation 1/5, price 1/5 not on the
    # m=8 grid, so use a D=1 instance with the valuation on the grid
    inst2 = dm.build_pricing_env(
        1, 1, 8, [(0, 1)],
        lambda X: (Fraction(1, 4),) if X[0] == 0 else (Fraction(19, 20),),
    )
    r = dm.optimal_reaction(inst2.env, 0, (0,), Fraction(1, 4))
    assert r == NOT_BUY


def test_objective_and_declared_sensitivity():
    inst = cohort_pricing_instance()
    rep = dm.verify_sensitivity(inst.F, inst.env)
    assert rep.passed
    assert rep.tightest_d == pytest.approx(1.5)  # below the declared D = 2
    # revenue at the all-high profile and price 3/4: all 4 members buy
    t_high = (1, 0, 1, 0)
    assert inst.F.eval(t_high, Fraction(3, 4)) == Fraction(3, 4)


def test_computed_gap_dominates_declared():
    inst = cohort_pricing_instance()
    gap = dm.compute_gap(inst.env)
    assert gap.gamma == Fraction(11, 38)
    assert gap.gamma >= inst.gamma_declared == Fraction(5, 38)


def test_commitment_advantage_and_expost_nash():
    inst = cohort_pricing_instance()
    env = inst.env
    P = dm.uniform_histogram_commitment(inst)
    assert P.p_tilde == Fraction(1, 5)
    gamma = dm.compute_gap(env).gamma
    floor = P.p_tilde * gamma
    for t in env.type_vectors():
        for i in env.agents:
            for b_i in env.type_spaces[i]:
                if b_i == t[i]:
                    continue
                assert dm.truth_advantage(env, P, i, t, b_i) >= floor
    mech = dm.commitment_mechanism(P, env)
    assert dm.check_expost_nash_truthful(mech, env).passed


def test_example1_constant_low_dominates_truth():
    inst = dm.example1_env(6)
    env = inst.env
    mech = dm.exponential_mechanism(inst.F, env, 0.1)
    assert not dm.check_expost_nash_truthful(mech, env).passed
    found = dm.find_dominating_strategy(
        mech, env, 0, dict(dm.truthful_profile(env)[0])
    )
    low = env.type_spaces[0][0]
    assert found == dm.constant_map(env, 0, low)


def test_example1_revenue_expectation_oracle():
    n, eps, mu = 200, 0.1, Fraction(1, 4)
    inst = dm.example1_env(n, mu)
    env = inst.env
    low, high = env.type_spaces[0]
    dist = dm.exponential_mechanism(inst.F, env, eps)(tuple(low for _ in range(n)))
    t_true = tuple(high for _ in range(n))
    realized = sum(
        p * dm.revenue_per_agent(inst, t_true, o.alternative)
        for o, p in dist.items()
    ) / (1 + mu)

    # independent oracle: two-outcome softmax at 50 digits
    mpmath.mp.dps = 50
    rate = mpmath.mpf(n) * mpmath.mpf(eps) / 2
    f_half = mpmath.mpf(1) / 2 / (1 + mpmath.mpf(1) / 4)  # announced-low F at p=1/2
    p_high_price = 1 / (1 + mpmath.e ** (rate * f_half))
    oracle = (mpmath.mpf(1) / 2 * (1 - p_high_price) + 1 * p_high_price) / (
        1 + mpmath.mpf(1) / 4
    )
    assert float(realized) == pytest.approx(float(oracle), abs=1e-12)
    # the counterexample's claim: revenue pinned near 0.5/(1+mu), optimum 1/(1+mu)
    assert abs(float(realized) - 0.5 / 1.25) < 0.02
    assert inst.F.eval(t_true, Fraction(1)) == Fraction(1) / (1 + mu) / 1  # optimum


def test_example3_bad_profile_nash_and_revenue():
    n = 8
    inst = dm.example3_env(n)
    env = inst.env
    low, high = env.type_spaces[0]
    for imposing_prob in (None, 1):
        mech = dm.example3_mechanism(inst, imposing_prob=imposing_prob)
        W_bad = tuple(dm.constant_map(env, i, low) for i in env.agents)
        for t in env.type_vectors():
            for i in env.agents:
                base = dm.expected_utility(mech, env, W_bad, i, t)
                dev = list(W_bad)
                dev[i] = dm.constant_map(env, i, high)
                assert base >= dm.expected_utility(mech, env, tuple(dev), i, t)
    all_high = tuple(high for _ in env.agents)
    assert dm.revenue_per_agent(inst, all_high, env.alternatives[0]) == Fraction(1, n)


def test_example3_imposes_buy_on_weak_preference():
    # a value-equals-price tie (low announcement at price 1/n) imposes Buy
    ties = 0
    for inst in (dm.example3_env(4), dm.example3_env(4, 0.3)):
        env = inst.env
        for imposing_prob in (None, 1):
            mech = dm.example3_mechanism(inst, imposing_prob=imposing_prob)
            for b in env.type_vectors():
                (imposing,) = [o for o, _ in mech(b).items() if o.imposing]
                p = imposing.alternative
                for i in env.agents:
                    buy = env.utility(i, b, p, BUY)
                    not_buy = env.utility(i, b, p, NOT_BUY)
                    ties += buy == not_buy
                    assert (imposing.imposed[i] == BUY) == (buy >= not_buy), (b, i)
    assert ties


def test_example3_unilateral_truth_loses_mu_ish():
    # the deviating high type ends at price 1: normalized utility of mu vs ~1
    n = 8
    mu = Fraction(1, 4)
    inst = dm.example3_env(n, mu)
    env = inst.env
    low, high = env.type_spaces[0]
    mech = dm.example3_mechanism(inst)
    t = tuple(high for _ in env.agents)
    W_bad = tuple(dm.constant_map(env, i, low) for i in env.agents)
    dev = list(W_bad)
    dev[0] = dm.constant_map(env, 0, high)
    eu_dev = dm.expected_utility(mech, env, tuple(dev), 0, t)
    # raw utility mu, normalized by (raw+1)/(2+mu)
    assert eu_dev == (mu + 1) / (2 + mu)
    eu_comply = dm.expected_utility(mech, env, W_bad, 0, t)
    assert eu_comply > eu_dev


def test_optimal_announced_price_ties_upward():
    inst = dm.example3_env(8)
    low, high = inst.env.type_spaces[0]
    # one high announcement: price 1 revenue = 1 = price 1/8 weak revenue
    b = (high,) + tuple(low for _ in range(7))
    assert dm.optimal_announced_price(inst, b) == Fraction(1)
    assert dm.optimal_announced_price(inst, tuple(low for _ in range(8))) == Fraction(1, 8)


def test_oversized_price_grid_refused_before_listing():
    def untouchable(X):
        raise AssertionError("valuation read before the size checks")

    # m + 1 prices over the support cap
    with pytest.raises(dm.ResolutionBudgetExceeded, match="grid support 131073 exceeds"):
        dm.build_pricing_env(1, 1, 2**17, [(0, 1)], untouchable)
    # 2^17 prices fit, but 9 signal cells x 2^17 prices exceed the score table cap
    with pytest.raises(dm.ResolutionBudgetExceeded,
                       match="score table 9x131072 exceeds cap 1048576"):
        dm.build_pricing_env(1, 2, 2**17 - 1, [(0, 1, 2)] * 2, untouchable)


def _naive_buyers(inst):
    """B by its definition: per cell, the members valuing the good strictly
    above each price, from the valuation table the instance's utility reads."""
    table = inst.utility.args[0]
    return [[sum(1 for v in table[X] if v > p) for p in inst.F.alternatives]
            for X in inst.F.cells]


@pytest.mark.parametrize("build", [
    lambda: cohort_pricing_instance(D=1),
    lambda: cohort_pricing_instance(D=2),
    lambda: cohort_pricing_instance(D=5),
    # every valuation is a grid price, so each one ties at its own price
    two_signal_pricing_instance,
    # a value equal to a price (1/4) does not buy at it
    lambda: dm.build_pricing_env(
        1, 1, 8, [(0, 1)],
        lambda X: (Fraction(1, 4),) if X[0] == 0 else (Fraction(19, 20),),
    ),
])
def test_buyer_table_matches_naive_count(build):
    inst = build()
    B = [list(row) for row in zip(*inst.F._columns)]
    assert B == _naive_buyers(inst)


def test_large_cohort_builds_in_time():
    # 20 000 members and 401 prices: counting each price's buyers member by
    # member took seconds; bisecting sorted valuations takes milliseconds
    start = time.perf_counter()
    inst = cohort_pricing_instance(N=1, D=20_000, m=400)
    assert time.perf_counter() - start < 2
    assert [row[200] for row in zip(*inst.F._columns)] == [0, 20_000]
