import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

import dpmech as dm
import dpmech.pricing as pricing
from dpmech.errors import GridTooCoarse
from dpmech.pricing import BUY, NOT_BUY
from tests.conftest import cohort_pricing_instance, two_signal_pricing_instance
from tests.naive import expected_utility


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



def _pairwise_monotone(signal_spaces, table):
    for j in range(len(signal_spaces)):
        if len(signal_spaces[j]) < 2:
            continue
        others = [signal_spaces[k] for k in range(len(signal_spaces)) if k != j]
        for rest in itertools.product(*others):
            for lo, hi in zip(signal_spaces[j], signal_spaces[j][1:]):
                v_lo = table[rest[:j] + (lo,) + rest[j:]]
                v_hi = table[rest[:j] + (hi,) + rest[j:]]
                diffs = [h - l for l, h in zip(v_lo, v_hi)]
                if any(d < 0 for d in diffs):
                    raise ValueError(
                        f"valuation not monotone in member {j}'s signal at {rest}"
                    )
                if not any(d > 0 for d in diffs):
                    raise ValueError(
                        f"raising member {j}'s signal at {rest} moves no valuation"
                    )


def _pairwise_fineness(signal_spaces, table, m):
    two_over_m = Fraction(2, m)
    for j in range(len(signal_spaces)):
        if len(signal_spaces[j]) < 2:
            continue
        others = [signal_spaces[k] for k in range(len(signal_spaces)) if k != j]
        for rest in itertools.product(*others):
            for lo, hi in itertools.combinations(signal_spaces[j], 2):
                v_lo = table[rest[:j] + (lo,) + rest[j:]][j]
                v_hi = table[rest[:j] + (hi,) + rest[j:]][j]
                ok = any(
                    v_hi > Fraction(k, m) + two_over_m and Fraction(k, m) > v_lo
                    for k in range(m + 1)
                )
                if not ok:
                    raise GridTooCoarse(v_lo, v_hi)


INCREMENTS = (-1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 8, 10, 12)


def _random_economy(rng):
    """(N, D, m, signal spaces, valuation): each member's valuation adds one
    increment per step of each signal, mostly positive, sometimes 0 or
    negative; now and then a valuation has the wrong length or m is 0."""
    D = rng.randint(1, 3)
    spaces = [tuple(range(rng.randint(1, 4))) for _ in range(D)]
    m = rng.choice([0] + list(range(1, 13)) * 4)
    steps = [[[Fraction(rng.choice(INCREMENTS), 20) for _ in space]
              for space in spaces] for _ in range(D)]
    base = [Fraction(rng.randint(0, 4), 20) for _ in range(D)]
    short = rng.random() < 0.03

    def valuation(X):
        vals = tuple(base[j] + sum(sum(steps[j][k][:x]) for k, x in enumerate(X))
                     for j in range(D))
        return vals[1:] if short and X == (0,) * D else vals

    return rng.randint(1, 3), D, m, spaces, valuation


def test_step_walk_matches_pairwise_premises_on_random_economies(monkeypatch):
    """The premises walked over signal steps give the same instance, or the
    same error, as the pairwise reference on a seeded random sweep."""

    def build(args):
        try:
            inst = dm.build_pricing_env(*args)
        except (ValueError, dm.GridTooCoarse) as e:
            return type(e), str(e)
        return inst.n, inst.gamma_declared, inst.F.alternatives, inst.F._columns

    rng = random.Random(20261020)
    economies = [_random_economy(rng) for _ in range(1000)]
    got = [build(args) for args in economies]
    monkeypatch.setattr(pricing, "_check_monotone", _pairwise_monotone)
    monkeypatch.setattr(pricing, "_check_fineness", _pairwise_fineness)
    assert got == [build(args) for args in economies]
    kinds = Counter(r[0] if r[0] in (ValueError, dm.GridTooCoarse) else "built" for r in got)
    assert min(kinds[ValueError], kinds[dm.GridTooCoarse], kinds["built"]) >= 100, kinds

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
                base = expected_utility(mech, env, W_bad, i, t)
                dev = list(W_bad)
                dev[i] = dm.constant_map(env, i, high)
                assert base >= expected_utility(mech, env, tuple(dev), i, t)
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
    eu_dev = expected_utility(mech, env, tuple(dev), 0, t)
    # raw utility mu, normalized by (raw+1)/(2+mu)
    assert eu_dev == (mu + 1) / (2 + mu)
    eu_comply = expected_utility(mech, env, W_bad, 0, t)
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
