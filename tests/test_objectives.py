"""The histogram-based facility and pricing objectives against brute force."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import dpmech as dm
from tests.conftest import (
    MASTER_SEED,
    cohort_pricing_instance,
    two_signal_pricing_instance,
    two_signal_valuation,
)

# population sizes on both sides of 64, where the objectives once switched
# from exact to float arithmetic
SIZES = (10, 100)


def facility_brute_force(t, s):
    """1 - average distance to the nearest facility, agent by agent."""
    return 1 - sum(min(abs(x - f) for f in s) for x in t) / Fraction(len(t))


def cohort_valuation(X):
    """The 2x2 cohort family: the first member's signal sets both values."""
    v = Fraction(9, 10) if X[0] == 1 else Fraction(1, 5)
    return (v, v)


def pricing_brute_force(valuation, t, p):
    """p times the share of agents valuing the good above p, agent by agent."""
    vals = [v for c in range(0, len(t), 2) for v in valuation(t[c:c + 2])]
    return p * Fraction(sum(v > p for v in vals), len(t))


def random_vectors(env, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(space[int(rng.integers(len(space)))] for space in env.type_spaces)
            for _ in range(count)]


FACILITY_SHAPES = [(n, m, K) for n in SIZES for m in (2, 3) for K in (1, 2)]


def facility_cases():
    return [dm.build_grid_env(n, m, K) for n, m, K in FACILITY_SHAPES]


def pricing_cases():
    return [(cohort_pricing_instance(N=n // 2, D=2), cohort_valuation) for n in SIZES] + [
        (two_signal_pricing_instance(N=n // 2), two_signal_valuation) for n in SIZES
    ]


@pytest.mark.parametrize("inst", facility_cases(),
                         ids=[f"n{n}-m{m}-K{K}" for n, m, K in FACILITY_SHAPES])
def test_facility_eval_is_exact(inst):
    for t in random_vectors(inst.env, 8, MASTER_SEED + inst.n):
        for s in inst.env.alternatives:
            got = inst.F.eval(t, s)
            assert isinstance(got, Fraction)
            assert got == facility_brute_force(t, s)


@pytest.mark.parametrize("inst,valuation", pricing_cases(),
                         ids=lambda x: f"n{x.n}" if hasattr(x, "n") else x.__name__)
def test_pricing_eval_is_exact(inst, valuation):
    for t in random_vectors(inst.env, 8, MASTER_SEED + inst.n):
        for p in inst.env.alternatives:
            got = inst.F.eval(t, p)
            assert isinstance(got, Fraction)
            assert got == pricing_brute_force(valuation, t, p)


def _counts(objective, t):
    """Cell counts of a type vector, from its groups' decoded type tuples."""
    D = len(objective.member_types)
    hist = Counter(t[j:j + D] for j in range(0, len(t), D))
    return [hist[cell] for cell in objective.cells]


# ids name each model's instances, as the suite always has
@pytest.mark.parametrize("inst", facility_cases() + [i for i, _ in pricing_cases()],
                         ids=[f"FacilityInstance-n{n}" for n, _, _ in FACILITY_SHAPES]
                         + [f"PricingInstance-n{i.n}" for i, _ in pricing_cases()])
def test_batched_scores_match_eval(inst):
    vectors = random_vectors(inst.env, 8, MASTER_SEED)
    counts = [_counts(inst.F, t) for t in vectors]
    scores = inst.F.scores(counts)
    assert len(scores) == len(vectors)
    assert all(len(row) == len(inst.env.alternatives) for row in scores)
    # two float roundings (product, then offset) against one
    for row, t in zip(scores, vectors):
        want = [float(inst.F.eval(t, s)) for s in inst.env.alternatives]
        np.testing.assert_allclose(row, want, rtol=0, atol=2 * np.finfo(float).eps)


def numpy_histogram_gap(objective, counts, rate, P, q):
    """The sweep's former numpy scoring, kept as the reference: F as an
    int64 matrix product, then the lottery's shortfall of every row.
    Returns (beta, worst row, F)."""
    matrix = np.array(objective._columns, np.int64).T
    weights = np.array([float(w) for w in objective.weights])
    F = float(objective.offset) + weights * (np.asarray(counts) @ matrix) / objective.denom
    x = rate * F
    w = np.exp(x - x.max(axis=1, keepdims=True))
    expmech = (w / w.sum(axis=1, keepdims=True) * F).sum(axis=1)
    marginal = np.zeros(len(objective.alternatives))
    for s, p in zip(P.alternatives, P.probs):
        marginal[objective.index[s]] += float(p)
    gaps = F.max(axis=1) - ((1 - q) * expmech + q * (F @ marginal))
    worst = int(np.argmax(gaps))
    return float(gaps[worst]), worst, F


SWEEP_POINTS = [
    ({"facility": {"m": 2, "K": 2, "mechanism": "loc2"}}, n) for n in (200, 2000, 6000)
] + [
    ({"facility": {"m": 3, "K": 2, "mechanism": "loc1"}}, 4000),
    ({"pricing": {"cohort_size": 2, "grid_m": 4}}, 6000),
    ({"pricing": {"cohort_size": 2, "grid_m": 4}}, 12000),
    ({"pricing": {"cohort_size": 1, "grid_m": 8}}, 11000),
]


@pytest.mark.parametrize("config,n", SWEEP_POINTS,
                         ids=[f"{next(iter(c))}-n{n}" for c, n in SWEEP_POINTS])
def test_histogram_gap_matches_numpy_reference(config, n):
    from dpmech.cli import _instance, sample_probes, task_rng
    from dpmech.combined import schedule_params
    from dpmech.exponential import exp_mech_rate
    from dpmech.verify import histogram_gap

    _, inst, P = _instance(config, n)
    objective, d = inst.F, inst.F.sensitivity_d
    params = schedule_params(P, inst.gamma_declared, d, len(objective.alternatives), inst.n)
    rate = exp_mech_rate(inst.n, params.eps, d)
    counts = sample_probes(objective, 200, task_rng(MASTER_SEED, "oracle", n))
    beta, worst = histogram_gap(objective, counts, rate, P, params.q)
    want, want_worst, F = numpy_histogram_gap(objective, counts, rate, P, params.q)
    # the same float operations per score, so the scores agree bit for bit
    assert objective.scores(counts) == F.tolist()
    # the gap is max F less the lottery's E[F], each summed in another order
    # and with libm's exp: within 4 ulp of the worst row's max F
    assert worst == want_worst
    assert abs(beta - want) <= 4 * math.ulp(max(F[worst]))


def test_example_revenue_stays_exact():
    mu = Fraction(1, 4)
    inst = dm.example3_env(5, mu)
    low, high = inst.env.type_spaces[0]
    t = (low, high, high, low, high)
    for p in inst.env.alternatives:
        buyers = sum(v > p for v in t)
        assert inst.F.eval(t, p) == p * Fraction(buyers, 5) / (1 + mu)
