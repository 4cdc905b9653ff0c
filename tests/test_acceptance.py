"""Acceptance suite: one printed pass/fail line per criterion.

Each test exercises one end-to-end claim at its stated tolerance and prints
a single summary line (bypassing capture so the lines survive pytest's
default capturing).
"""

import csv
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import dpmech as dm
from dpmech.cli import _sweep_point, main, render_csv, run_config
from dpmech.facility import DyadicCommitment, domination_margin
from tests.conftest import ACCEPTANCE_LINES, MASTER_SEED, cohort_pricing_instance

EPS_GRID = (0.1, 0.5, 1.0)


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_dp_exactness(random_instances):
    t0 = time.monotonic()
    worst = 0.0
    for env, F in random_instances:
        for eps in EPS_GRID:
            mech = dm.exponential_mechanism(F, env, eps)
            rep = dm.audit_dp(mech, env, eps)
            assert rep.passed
            worst = max(worst, rep.epsilon_measured - eps)
    elapsed = time.monotonic() - t0
    ok = elapsed < 10 and worst <= 1e-9
    report(
        1, ok,
        f"eps' - eps <= {worst:.3g} over 200 instances x 3 eps "
        f"(tol 1e-9), {elapsed:.2f}s < 10s",
    )


def test_criterion_02_near_indifference(random_instances):
    worst_ratio = 0.0
    for env, F in random_instances:
        for eps in EPS_GRID:
            mech = dm.exponential_mechanism(F, env, eps)
            rep = dm.near_indifference_bound_check(mech, env, eps)
            assert rep.passed
            swing = (math.exp(eps) - 1) - rep.margin
            assert swing <= 2 * eps + 1e-12  # eps <= 1 throughout
            worst_ratio = max(worst_ratio, swing / (math.exp(eps) - 1))
    report(
        2, True,
        f"max swing within e^eps - 1 (worst ratio {worst_ratio:.3f}) "
        "and within 2*eps, exact expectations",
    )


def test_criterion_03_accuracy(random_instances):
    checked = 0
    worst = math.inf
    for env, F in random_instances:
        for eps in EPS_GRID:
            s_count = len(env.alternatives)
            if not env.n > 2 * math.e / (eps * s_count):  # d = 1
                continue
            rep = dm.accuracy_bound_check(F, env, eps)
            assert rep.passed
            worst = min(worst, rep.margin)
            checked += 1
    ok = checked > 0 and worst >= -1e-12
    report(
        3, ok,
        f"E[F] >= max F - (4d/(n eps)) ln(n eps |S| / (2d)) on "
        f"{checked} qualifying (instance, eps) pairs; min slack {worst:.3g}",
    )


def test_criterion_04_commitment_advantage():
    t0 = time.monotonic()
    # stated grid instance (n=3, m=2, K=1): a single imposed facility never
    # separates two types, so the gap is exactly 0; the weak clauses hold
    # and the strict clause is exercised on the smallest nontrivial K=2 twin
    inst1 = dm.build_grid_env(3, 2, 1)
    assert dm.compute_gap(inst1.env).gamma == 0
    P1 = dm.uniform_histogram_commitment(inst1)
    for t in inst1.env.type_vectors():
        for i in inst1.env.agents:
            for b_i in inst1.env.type_spaces[i]:
                if b_i != t[i]:
                    adv = dm.truth_advantage(inst1.env, P1, i, t, b_i)
                    assert adv >= P1.p_tilde * 0 - Fraction(1, 10**12)
    assert dm.check_expost_nash_truthful(
        dm.commitment_mechanism(P1, inst1.env), inst1.env
    ).passed
    with pytest.raises(dm.NotNonTrivial):
        dm.verify_corollary1(inst1.env, P1)

    inst2 = dm.build_grid_env(3, 2, 2)
    P2 = dm.dyad_facility_commitment(inst2)
    reports = dm.verify_corollary1(inst2.env, P2)
    assert reports["expost_nash"].passed
    assert reports["strictly_dominant"].passed

    pinst = cohort_pricing_instance()
    penv = pinst.env
    Pp = dm.uniform_histogram_commitment(pinst)
    floor = Pp.p_tilde * dm.compute_gap(penv).gamma
    for t in penv.type_vectors():
        for i in penv.agents:
            for b_i in penv.type_spaces[i]:
                if b_i != t[i]:
                    adv = dm.truth_advantage(penv, Pp, i, t, b_i)
                    assert adv >= floor - Fraction(1, 10**12)
    assert dm.check_expost_nash_truthful(
        dm.commitment_mechanism(Pp, penv), penv
    ).passed
    elapsed = time.monotonic() - t0
    report(
        4, elapsed < 30,
        "truth advantage >= p~gamma exhaustively; M^P ex-post Nash on both "
        "applications; strict dominance at K=2 (K=1 gap is provably 0, "
        f"flagged non-trivial-check failure asserted); {elapsed:.2f}s < 30s",
    )


def test_criterion_05_combined_mechanism():
    # exhaustive truthfulness at contract-saturating params (q p~ gamma = 2 eps)
    finst = dm.build_grid_env(3, 2, 2)
    Pf = dm.dyad_facility_commitment(finst)
    eps_f, q_f = dm.saturating_params(Pf, finst.gamma_declared)
    mech_f = dm.build_combined(
        finst.env, finst.F, Pf, finst.gamma_declared, eps_f, q_f
    )
    assert dm.check_strictly_dominant_truthful(mech_f, finst.env).passed

    pinst = cohort_pricing_instance()
    Pp = dm.uniform_histogram_commitment(pinst)
    eps_p, q_p = dm.saturating_params(Pp, pinst.gamma_declared)
    mech_p = dm.build_combined(
        pinst.env, pinst.F, Pp, pinst.gamma_declared, eps_p, q_p
    )
    assert dm.check_expost_nash_truthful(mech_p, pinst.env).passed

    # probed implementation gap at the asymptotic schedule, n in {n0+1, 2n0, 4n0}
    rows = []
    n0_f = dm.compute_n0(Fraction(1, 2), Fraction(1, 2), 1.0, 9)
    fac_cfg = {
        "seed": MASTER_SEED,
        "facility": {"m": 2, "K": 2, "mechanism": "loc2"},
        "probes": 200,
    }
    for idx, n in enumerate((n0_f + 1, 2 * n0_f, 4 * n0_f)):
        row, _ = _sweep_point(fac_cfg, n, idx)
        rows.append(row)
    n0_p = dm.compute_n0(Fraction(1, 5), Fraction(5, 38), 2.0, 5)
    price_cfg = {
        "seed": MASTER_SEED,
        "pricing": {"cohorts": 2, "cohort_size": 2, "grid_m": 4},
        "probes": 200,
    }
    for idx, n in enumerate((n0_p + 1, 2 * n0_p, 4 * n0_p)):
        row, _ = _sweep_point(price_cfg, n, idx)
        rows.append(row)
    assert all(row["properties"] == "measured_le_bound=pass" for row in rows)
    worst = max(row["beta_measured"] / row["beta_bound"] for row in rows)
    report(
        5, True,
        "exhaustive truthfulness at q p~ gamma = 2 eps; probed gap <= "
        f"beta bound at 6 schedule points, 200 seeded probes each "
        f"(worst measured/bound {worst:.3f})",
    )


def test_criterion_06_posted_price_counterexample():
    inst = dm.example1_env(6)
    env = inst.env
    mech = dm.exponential_mechanism(inst.F, env, 0.1)
    low = env.type_spaces[0][0]
    found = dm.find_dominating_strategy(
        mech, env, 0, dict(dm.truthful_profile(env)[0])
    )
    assert found == dm.constant_map(env, 0, low)

    n, mu = 200, Fraction(1, 4)
    inst2 = dm.example1_env(n, mu)
    lo2, hi2 = inst2.env.type_spaces[0]
    dist = dm.exponential_mechanism(inst2.F, inst2.env, 0.1)(
        tuple(lo2 for _ in range(n))
    )
    t_true = tuple(hi2 for _ in range(n))
    realized = float(
        sum(
            p * dm.revenue_per_agent(inst2, t_true, o.alternative)
            for o, p in dist.items()
        ) / (1 + mu)
    )
    gap_to_half = abs(realized - 0.5 / 1.25)
    ok = gap_to_half < 0.02
    report(
        6, ok,
        "constant-low map dominates truth at n=6; all-announce-low revenue "
        f"{realized:.4f} within {gap_to_half:.4f} of 0.5/(1+mu) "
        f"(optimum {1 / 1.25:.2f}) at n=200, exact expectation",
    )


def test_criterion_07_bad_nash_counterexample():
    rows, sides = run_config({"experiment": "example3", "seed": MASTER_SEED})
    props = rows[0]["properties"]
    ok = "bad_profile_is_nash=pass" in props and "revenue_is_1_over_n=pass" in props
    report(
        7, ok,
        "all-announce-1/n profile is an exact Nash equilibrium at n=8; "
        "per-buyer revenue exactly 1/8",
    )


def test_criterion_08_dyadic_commitment_loss():
    t0 = time.monotonic()
    worst = Fraction(10)
    total = 0
    for m_bar in (1, 2, 3, 4):
        dc = DyadicCommitment(m_bar=m_bar)
        delta_min = Fraction(1, 2 ** (m_bar - 1))
        if m_bar == 1:
            # |b - t| >= 1 admits only the endpoint pair, both directions
            pairs = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
        else:
            pairs = []
            k = 0
            while len(pairs) < 500:
                t = Fraction(k % 257, 256)
                step = delta_min + Fraction(k % 97, 512)
                b = t + step if k % 2 == 0 else t - step
                if 0 <= b <= 1:
                    pairs.append((t, b))
                k += 1
            assert any(b > t for t, b in pairs) and any(b < t for t, b in pairs)
        for t, b in pairs:
            slack = dc.misreport_loss(t, b) - (t - b) ** 2 / (8 * m_bar)
            worst = min(worst, slack)
            total += 1
    elapsed = time.monotonic() - t0
    ok = worst >= -Fraction(1, 10**10) and elapsed < 10
    report(
        8, ok,
        f"loss >= |t-b|^2/(8 m_bar) on {total} pairs across m_bar in 1..4 "
        f"(min slack {float(worst):.3g}, tol 1e-10), {elapsed:.2f}s < 10s",
    )


def test_criterion_09_continuous_schedule_algebra():
    worst_margin = math.inf
    for n in (10**4, 10**5, 10**6):
        for K in (1, 2):
            p = dm.loc3_params(n, K)
            assert 0 < p.q < 1
            assert p.m_bar <= math.log(n)
            delta = 2.0 ** (1 - p.m_bar)
            lhs = p.q * delta**2 / (8 * p.m_bar)
            rhs = 2 * p.eps * delta
            assert lhs >= rhs
            assert domination_margin(p) >= 0
            worst_margin = min(worst_margin, lhs / rhs)
    report(
        9, True,
        "q < 1, m_bar <= ln n, and q Delta^2/(8 m_bar) >= 2 eps Delta at "
        f"Delta = 2^(1-m_bar) for n in 1e4..1e6, K in (1, 2); "
        f"min lhs/rhs ratio {worst_margin:.2f}",
    )


def test_criterion_10_convergence_shape():
    n0 = dm.compute_n0(Fraction(1, 2), Fraction(1, 2), 1.0, 9)
    cfg = {
        "seed": MASTER_SEED,
        "facility": {"m": 2, "K": 2, "mechanism": "loc2"},
        "probes": 50,
    }
    base = 200
    grid = [int(round(base * 100 ** (j / 8))) for j in range(9)]
    assert grid[0] > n0
    logs_n, logs_b = [], []
    for idx, n in enumerate(grid):
        row, _ = _sweep_point(cfg, n, idx)
        assert row["properties"] == "measured_le_bound=pass"
        logs_n.append(math.log(row["n"]))
        logs_b.append(math.log(row["beta_bound"]))
    slope = float(np.polyfit(logs_n, logs_b, 1)[0])
    ok = abs(slope - (-0.5)) <= 0.15
    report(
        10, ok,
        f"log-log slope of beta bound over n in [{grid[0]}, {grid[-1]}] is "
        f"{slope:.3f} (target -0.5 +/- 0.15); measured gap <= bound at "
        "every point",
    )


def test_criterion_11_determinism():
    cfg = {
        "experiment": "sweep",
        "seed": 91,
        "facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"},
        "n_list": [300, 500],
        "probes": 40,
    }
    csv1 = render_csv(run_config(dict(cfg))[0])
    csv2 = render_csv(run_config(dict(cfg))[0])
    ok = csv1.encode() == csv2.encode()
    report(
        11, ok,
        "two identically configured sweep runs produce byte-identical CSV",
    )


def test_criterion_12_asymptotic_regime(tmp_path):
    # the paper's additive O(1/sqrt(n)) is a large-population claim: the CLI
    # sweep runs there, each point charged its sampler's steps, not its agents
    cfg = {
        "experiment": "sweep",
        "seed": MASTER_SEED,
        "facility": {"m": 2, "K": 2, "mechanism": "loc2"},
        "n_list": [10**6, 10**7, 10**8, 10**9],
        "probes": 10,
    }
    path, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(path), "--out", str(out)])
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(row["n"]) for row in rows] == cfg["n_list"]
    passed = all(row["properties"] == "measured_le_bound=pass" for row in rows)
    slope = float(np.polyfit([math.log(int(row["n"])) for row in rows],
                             [math.log(float(row["beta_bound"])) for row in rows], 1)[0])
    ok = code == 0 and passed and -0.50 < slope < -0.45
    report(
        12, ok,
        f"CLI sweep over n in [1e6, 1e9] with 10 probes exits {code}, measured "
        f"gap <= bound at every point: {passed}; log-log slope of beta bound "
        f"{slope:.3f} (target in (-0.50, -0.45))",
    )
