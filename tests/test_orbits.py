"""The orbit walks: on a symmetric family (``HistogramInstance``) the checks
visit one type vector per orbit of group permutations, and report exactly
what the full walk reports.

The full walk is the same check on what carries no symmetry mark: a wrapper
``lambda b: mech(b)``, a plain ``ObjectiveFunction`` over the same ``eval``,
a plain copy of the environment.
"""

import itertools
import math
from fractions import Fraction

import pytest

import dpmech as dm
from dpmech import cli
from dpmech.outcomes import mix
from tests.conftest import cohort_pricing_instance, replaced_env, two_signal_pricing_instance
from tests.test_cli import _contract_grid
from tests.test_verify import PINNED_VERIFY


def _walks(inst, mech, checks=None) -> dict:
    """Each check's report on the symmetric ``mech``, ``env`` and ``F``,
    paired with the full walk's."""
    env, F = inst.env, inst.F
    assert env.group(mech, F) == env.group_size
    full = lambda b: mech(b)  # noqa: E731
    plain = dm.ObjectiveFunction(F.eval, F.sensitivity_d)
    walks = {
        "gap": lambda: (dm.compute_gap(env), dm.compute_gap(replaced_env(env))),
        "sensitivity": lambda: (dm.verify_sensitivity(F, env),
                                dm.verify_sensitivity(plain, env)),
        "expost_nash": lambda: (dm.check_expost_nash_truthful(mech, env),
                                dm.check_expost_nash_truthful(full, env)),
        "implementation_gap": lambda: (dm.implementation_gap(mech, env, F),
                                       dm.implementation_gap(full, env, F)),
    }
    if env.private_reactions:
        walks["strictly_dominant"] = lambda: (
            dm.check_strictly_dominant_truthful(mech, env),
            dm.check_strictly_dominant_truthful(full, env))
    return {name: walk() for name, walk in walks.items() if checks is None or name in checks}


def _assert_same(walks: dict) -> None:
    for name, (reduced, full) in walks.items():
        assert repr(reduced) == repr(full), name


def _verify_mechanism(app: dict):
    """The instance and mechanism ``dpmech verify`` checks on a config."""
    _, inst, P = cli._instance(app)
    gap = dm.compute_gap(inst.env)
    if gap.gamma > 0:
        eps, q = dm.saturating_params(P, gap.gamma)
        return inst, dm.build_combined(inst.env, inst.F, P, gap.gamma, eps, q)
    return inst, dm.commitment_mechanism(P, inst.env)


def _weak_lottery(inst, divisor):
    """The saturating lottery with q divided by ``divisor``, which breaks its
    incentive contract (``combined_mechanism`` refuses it), marked as
    ``build_combined`` marks the lottery it builds."""
    env = inst.env
    P = dm.uniform_histogram_commitment(inst)
    eps, q = dm.saturating_params(P, dm.compute_gap(env).gamma)
    expmech, commitment = dm.exponential_mechanism(inst.F, env, eps), dm.commitment_mechanism(P, env)
    q = q / divisor

    def lottery(b):
        return mix([expmech(b), commitment(b)], [1 - q, q])

    lottery.symmetric_on = env
    return lottery


def _grid_walks(cfg: dict) -> dict:
    """A contract-grid config's checks, on what its subcommand builds."""
    if cfg["experiment"] == "verify":
        return _walks(*_verify_mechanism(cfg))
    if cfg["experiment"] == "example1":
        inst = dm.example1_env(cfg["example"]["n"])
        mech = dm.exponential_mechanism(inst.F, inst.env, 0.1)
        return _walks(inst, mech, {"expost_nash", "implementation_gap"})
    inst = dm.example3_env(cfg["example"]["n"])
    # the bad profile's mechanism carries no mark: its walks are full
    assert inst.env.group(dm.example3_mechanism(inst)) == inst.n
    return {}


def test_orbit_walks_equal_the_full_walk_on_the_contract_grid():
    compared = 0
    for cfg, _ in _contract_grid():
        if cfg["experiment"] == "sweep":
            continue
        try:
            walks = _grid_walks(cfg)
        except (ValueError, dm.GridTooCoarse):  # refused before any check
            continue
        _assert_same(walks)
        compared += 1
    assert compared == 38


@pytest.mark.parametrize("app", [app for app, *_ in PINNED_VERIFY],
                         ids=["facility", "pricing", "facility-n5", "pricing-7",
                              "pricing-interdependent"])
def test_orbit_walks_equal_the_full_walk_on_pinned_configs(app):
    _assert_same(_walks(*_verify_mechanism(app)))


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_orbit_walks_equal_the_full_walk_on_two_signal_cohorts(N):
    inst = two_signal_pricing_instance(N)
    P = dm.uniform_histogram_commitment(inst)
    gap = dm.compute_gap(inst.env)
    eps, q = dm.saturating_params(P, gap.gamma)
    walks = _walks(inst, dm.build_combined(inst.env, inst.F, P, gap.gamma, eps, q))
    assert walks["expost_nash"][0].passed
    _assert_same(walks)


@pytest.mark.parametrize("make,margin", [
    (lambda: cli._instance({"pricing": {"cohorts": 5, "cohort_size": 1, "grid_m": 4}})[1],
     -5.6e-5),
    (lambda: cohort_pricing_instance(N=4, D=2, m=4), -5.6e-5),
    *[(lambda N=N: two_signal_pricing_instance(N), -3.9e-6) for N in (2, 3, 4, 5)],
], ids=["pricing-5x1", "pricing-4x2", "two-signal-2", "two-signal-3", "two-signal-4",
        "two-signal-5"])
def test_orbit_walks_equal_the_full_walk_on_failing_lotteries(make, margin):
    inst = make()
    walks = _walks(inst, _weak_lottery(inst, 1000),
                   {"expost_nash", "strictly_dominant", "implementation_gap"})
    reduced, _ = walks["expost_nash"]
    assert not reduced.passed and reduced.margin == pytest.approx(margin, rel=0.02)
    _assert_same(walks)


def test_orbit_walks_equal_the_full_walk_on_an_overstated_gap():
    # K = 1: one facility's gap is 0, but the lottery is scheduled for a
    # declared gap of 1/3, and truth fails ex-post Nash by about 1e-6
    inst = dm.build_grid_env(4, 3, 1)
    P = dm.facility.COMMITMENTS["loc1"](inst)
    eps, q = dm.saturating_params(P, Fraction(1, 3))
    walks = _walks(inst, dm.build_combined(inst.env, inst.F, P, Fraction(1, 3), eps, q))
    reduced, _ = walks["expost_nash"]
    locs = dm.facility.grid(3)
    assert not reduced.passed and reduced.margin == pytest.approx(-9.96e-7, rel=1e-3)
    assert reduced.witness[:2] == (3, (locs[0], locs[0], locs[0], locs[2]))
    _assert_same(walks)


def test_an_unmarked_mechanism_on_a_symmetric_environment_gets_the_full_walk():
    """A mechanism that departs from the dyad commitment only at the
    announcement (1/2, 0, 0), whose group cells decrease: it imposes agent
    0's facility at 1 there, so agent 0 gains by leaving that vector.  The
    full walk fails it at that vector; the orbit walk never visits it, so a
    false symmetry mark passes it."""
    inst = dm.build_grid_env(3, 2, 2)
    env = inst.env
    locs = dm.facility.grid(2)
    commitment = dm.commitment_mechanism(dm.facility.dyad_facility_commitment(inst), env)
    target = (locs[1], locs[0], locs[0])

    def tempting(b):
        if b == target:  # facilities at 0 and 1, agent 0 imposed 1, the others 0
            return dm.OutcomeDistribution(
                [dm.Outcome((locs[0], locs[2]), imposed=(locs[2], locs[0], locs[0]))], [1])
        return commitment(b)

    assert env.group(commitment) == 1 and env.group(tempting) == env.n
    report = dm.check_expost_nash_truthful(tempting, env)
    assert not report.passed and report.margin == -0.25
    assert report.witness == (0, target, locs[0], Fraction(1, 2), Fraction(3, 4))
    # the failing (vector, agent) is one the orbit walk skips
    visited = {(k, i) for k, agents in env.walk(1) for i in agents}
    assert (env.index(target), 0) not in visited
    tempting.symmetric_on = env  # a false mark is a wrong pass
    assert dm.check_expost_nash_truthful(tempting, env).passed


# ------------------------------------------------------- budgets and counts


def _sorted_cells(env, t) -> bool:
    cells = [env.index(t) // p % 4 for p in env.strides[1::2]]
    return cells == sorted(cells)


@pytest.mark.parametrize("make", [
    lambda: dm.build_grid_env(3, 2, 2), lambda: dm.build_grid_env(4, 2, 2),
    lambda: dm.build_grid_env(3, 3, 1),
    lambda: cli._instance({"pricing": {"cohorts": 5, "cohort_size": 1, "grid_m": 4}})[1],
], ids=["facility-3", "facility-4", "facility-m3", "pricing-5x1"])
def test_orbit_budgets_count_what_the_walks_visit(make):
    """One agent per group: each budget is n times the slacks, pairs or
    vectors its walk visits, counted here from the type vectors."""
    inst = make()
    env, F, n = inst.env, inst.F, inst.n
    P = dm.uniform_histogram_commitment(inst)
    gamma = dm.compute_gap(replaced_env(env)).gamma
    eps, q = dm.saturating_params(P, gamma)
    mech = dm.build_combined(env, F, P, gamma, eps, q)
    S, m = len(env.alternatives), env.sizes[0]
    vectors = [tuple(env.type_index[0][x] for x in t) for t in env.type_vectors()]
    # the least vector of each orbit, and its agents that start a run
    least = [t for t in vectors if list(t) == sorted(t)]
    slacks = sum(m - 1 for t in least for i in range(n) if not i or t[i] != t[i - 1])
    # agent 0's pairs (a < b) at opponents sorted
    pairs = sum(m - 1 - t[0] for t in vectors if list(t[1:]) == sorted(t[1:]))
    profiles = sum(1 for t in vectors if t[0] == 0 and list(t[1:]) == sorted(t[1:]))
    expected = [
        (n * slacks, lambda b: dm.check_expost_nash_truthful(mech, env, budget=b)),
        # each own type at one agent, against sorted opponents
        (n * m * (m - 1) * profiles,
         lambda b: dm.check_strictly_dominant_truthful(mech, env, budget=b)),
        (n * pairs * S, lambda b: dm.verify_sensitivity(F, env, budget=b)),
        (n * profiles * m * (m - 1) * S, lambda b: dm.compute_gap(env, budget=b)),
        (len(least) * S, lambda b: dm.implementation_gap(mech, env, F, budget=b)),
    ]
    for needed, check in expected:
        with pytest.raises(dm.EnumerationBudgetExceeded) as e:
            check(1)
        assert e.value.needed == needed
        check(needed)  # inclusive: runs at exactly its count


def test_orbit_walk_visits_the_representatives_in_ascending_order():
    # cohorts of 2 two-signal members: 4 cells per group, 3 groups
    env = two_signal_pricing_instance(3).env
    D = env.group()
    walk = list(env.walk(D))
    C, G = math.prod(env.sizes[:D]), env.n // D
    assert (C, G, D) == (4, 3, 2)
    assert [k for k, _ in walk] == sorted(
        env.index(t) for t in env.type_vectors() if _sorted_cells(env, t))
    assert len(walk) == env.num_type_vectors(D) == 20
    # the agents of the first group of each run of equal cells
    for k, agents in walk:
        cells = [k // p % C for p in env.strides[1::2]]
        firsts = [c for c in range(G) if not c or cells[c] != cells[c - 1]]
        assert agents == [2 * c + j for c in firsts for j in range(2)]
    # every vector's orbit holds exactly one representative
    reps = {k for k, _ in walk}
    for t in env.type_vectors():
        cells = [env.index(t) // p % C for p in env.strides[1::2]]
        orbit = {sum(c * p for c, p in zip(perm, env.strides[1::2]))
                 for perm in itertools.permutations(cells)}
        assert len(orbit & reps) == 1 and min(orbit) in reps


def test_scores_hold_one_row_per_representative():
    inst = dm.build_grid_env(4, 2, 2)
    env, F = inst.env, inst.F
    rows = env.scores(F, env.group(F))
    assert len(rows) == env.num_type_vectors(1) == 15
    for k, t in enumerate(env.type_vectors()):
        assert env.score(F, k) == [F.eval(t, s) for s in env.alternatives]


def test_verify_at_twenty_facility_agents_exits_zero(tmp_path):
    # 3^20 type vectors, 231 representatives: within the default budget
    import json

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "verify", "seed": 7, "facility": {
        "n": 20, "m": 2, "K": 2, "mechanism": "loc2"}}))
    out = tmp_path / "rows.csv"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    side = json.loads((tmp_path / "rows.json").read_text())[0]
    assert side["properties"] == "sensitivity=pass|expost_nash=pass(0.126007)" \
        "|strictly_dominant=pass(0.126007)"
    assert side["payoff_table"]["enumerated"]["expost_nash"] == 20 * 3 * 210 * 2
