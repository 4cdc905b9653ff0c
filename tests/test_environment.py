import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import dpmech as dm
from dpmech.outcomes import Outcome, OutcomeDistribution
from tests.conftest import (
    cohort_pricing_instance,
    replaced_env,
    two_signal_pricing_instance,
)
from tests.naive import insert_type, opponent_vectors, optimal_reaction_set


def tiny_env():
    """Two agents, two types each, two alternatives, Buy/Pass reactions.

    Utilities are exact and chosen so the gap is 1/4 by hand: alternative
    "a" pays type 0 for reaction keep, alternative "b" pays type 1.
    """
    F14 = Fraction(1, 4)

    def utility(i, t, s, r):
        if r == "pass":
            return Fraction(1, 2)
        # r == "keep": good for the matching type, bad otherwise
        match = (s == "a" and t[i] == 0) or (s == "b" and t[i] == 1)
        return Fraction(3, 4) if match else F14

    return dm.Environment(
        type_spaces=((0, 1), (0, 1)),
        alternatives=("a", "b"),
        reaction_spaces=(("keep", "pass"), ("keep", "pass")),
        utility=utility,
        values_kind=dm.PRIVATE_VALUES,
    )


def test_optimal_reaction_and_tie_break():
    env = tiny_env()
    assert dm.optimal_reaction(env, 0, (0, 0), "a") == "keep"
    assert dm.optimal_reaction(env, 0, (1, 0), "a") == "pass"

    def flat(i, t, s, r):
        return Fraction(1, 2)

    env_flat = dm.Environment(
        type_spaces=((0, 1),), alternatives=("a",),
        reaction_spaces=(("x", "y"),), utility=flat,
    )
    # exact tie goes to the first listed reaction
    assert dm.optimal_reaction(env_flat, 0, (0,), "a") == "x"
    assert optimal_reaction_set(env_flat, 0, (0,), "a") == ("x", "y")


def test_optimal_reaction_of_one_reaction_space_reads_no_utility():
    def refuse(i, t, s, r):
        raise AssertionError("utility evaluated")

    env = dm.Environment(type_spaces=((0, 1),), alternatives=("a",),
                         reaction_spaces=(("only",),), utility=refuse)
    assert dm.optimal_reaction(env, 0, (1,), "a") == "only"


def test_environment_imports_no_higher_layer():
    """The payoff table, the checkers and the exponential mechanism build on
    environment.py, which imports none of them."""
    tree = ast.parse(Path(dm.environment.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = set((getattr(node, "module", None) or "").split("."))
            parts |= {p for alias in node.names for p in alias.name.split(".")}
            assert not parts & {"payoffs", "verify", "exponential"}, ast.unparse(node)


def test_compute_gap_exact_value():
    env = tiny_env()
    gap = dm.compute_gap(env)
    # misreport commits to "pass" where "keep" paid 3/4, or vice versa;
    # best separation nets exactly 1/4 on the matching alternative
    assert gap.gamma == Fraction(1, 4)
    assert gap.argmin_witness is not None


def test_separating_set_found():
    env = tiny_env()
    cert = dm.find_separating_set(env)
    assert set(cert.separating_set) <= {"a", "b"}
    for (i, pair, t_minus), s in cert.witness.items():
        t = insert_type(env, i, pair[0], t_minus)
        t_hat = insert_type(env, i, pair[1], t_minus)
        a = set(optimal_reaction_set(env, i, t, s))
        b = set(optimal_reaction_set(env, i, t_hat, s))
        assert not (a & b)


def test_trivial_environment_rejected():
    def flat(i, t, s, r):
        return Fraction(1, 2)

    env = dm.Environment(
        type_spaces=((0, 1),), alternatives=("a", "b"),
        reaction_spaces=(("x",),), utility=flat,
    )
    assert dm.compute_gap(env).gamma == 0
    with pytest.raises(dm.NotNonTrivial):
        dm.find_separating_set(env)


def test_verify_sensitivity_tight_on_average_table(random_instances):
    env, F = random_instances[0]
    rep = dm.verify_sensitivity(F, env)
    assert rep.passed
    assert rep.tightest_d <= 1 + 1e-12


def test_check_environment_range_violation():
    def bad(i, t, s, r):
        return 2

    env = dm.Environment(
        type_spaces=((0,),), alternatives=("a",),
        reaction_spaces=(("x",),), utility=bad,
    )
    with pytest.raises(ValueError, match="outside"):
        dm.check_environment(env)


def test_check_environment_false_private_declaration():
    # agent 0's best reaction flips with agent 1's type: not private
    def utility(i, t, s, r):
        if i == 0:
            want = "x" if t[1] == 0 else "y"
            return 1 if r == want else 0
        return Fraction(1, 2)

    env = dm.Environment(
        type_spaces=((0,), (0, 1)),
        alternatives=("a",),
        reaction_spaces=(("x", "y"), ("x",)),
        utility=utility,
        values_kind=dm.PRIVATE_REACTIONS,
    )
    with pytest.raises(ValueError, match="depends on opponents"):
        dm.check_environment(env)


def test_budget_exceeded():
    env = tiny_env()
    with pytest.raises(dm.EnumerationBudgetExceeded):
        dm.compute_gap(env, budget=1)


def test_environment_validation():
    with pytest.raises(ValueError):
        dm.Environment(
            type_spaces=((0,),), alternatives=("a",),
            reaction_spaces=(("x",), ("y",)),  # wrong arity
            utility=lambda i, t, s, r: 0,
        )
    with pytest.raises(ValueError):
        dm.Environment(
            type_spaces=((0,),), alternatives=("a",),
            reaction_spaces=(("x",),),
            utility=lambda i, t, s, r: 0,
            values_kind="bogus",
        )


# -------------------------------------------------- the unilateral pair walk
# Naive references enumerate unilateral pairs by tuple: agent, then
# opponent_vectors(env, i), then itertools.combinations of agent i's types.
# Every witness of the index-walking checks depends on that order.


def _naive_pairs(env):
    """(agent, t, t_hat, (t_i, t_hat_i), t_minus) in tuple order."""
    for i in env.agents:
        for t_minus in opponent_vectors(env, i):
            for a, b in itertools.combinations(env.type_spaces[i], 2):
                yield (i, insert_type(env, i, a, t_minus),
                       insert_type(env, i, b, t_minus), (a, b), t_minus)


def _naive_sensitivity(F, env):
    worst, witness = 0.0, None
    for i, t, t_hat, _, _ in _naive_pairs(env):
        for s in env.alternatives:
            delta = abs(F.eval(t, s) - F.eval(t_hat, s))
            if delta > worst:
                worst, witness = delta, (i, t, t_hat, s)
    tightest = env.n * worst
    return dm.SensitivityReport(
        float(tightest), float(F.sensitivity_d),
        tightest <= F.sensitivity_d + dm.ABS_TOL, witness,
    )


def _naive_separating_set(env):
    """Greedy cover: a chosen alternative if one separates, else the first
    separating one; (chosen, witness map) or the NotNonTrivial payload."""
    chosen, witness = [], {}
    for i, t, t_hat, pair, t_minus in _naive_pairs(env):
        separating = [
            s for s in env.alternatives
            if not set(optimal_reaction_set(env, i, t, s))
            & set(optimal_reaction_set(env, i, t_hat, s))
        ]
        if not separating:
            return "NotNonTrivial", (i, pair, t_minus)
        found = next((s for s in chosen if s in separating), separating[0])
        if found not in chosen:
            chosen.append(found)
        witness[(i, pair, t_minus)] = found
    return tuple(chosen), witness


def _naive_audit(mech, env):
    """(worst loss, witness), or the ZeroProbabilityAsymmetry payload."""
    worst, witness = 0.0, None
    for i, t, t_hat, _, _ in _naive_pairs(env):
        pa, pb = (mech(v).marginal_alternatives() for v in (t, t_hat))
        for s in env.alternatives:
            x, y = float(pa.get(s, 0)), float(pb.get(s, 0))
            if x == 0.0 and y == 0.0:
                continue
            if x == 0.0 or y == 0.0:
                return "ZeroProbabilityAsymmetry", (i, t, t_hat, s)
            loss = abs(math.log(x) - math.log(y))
            if loss > worst:
                worst, witness = loss, (i, t, t_hat, s)
    return worst, witness


def _close(a, b):
    exact = (int, Fraction)
    if isinstance(a, exact) and isinstance(b, exact):
        return a == b
    return abs(a - b) <= dm.ABS_TOL


def _naive_private_kind_error(env):
    """The first private-kind violation message, or None."""
    for i in env.agents:
        for t_i in env.type_spaces[i]:
            first = insert_type(env, i, t_i, next(iter(opponent_vectors(env, i))))
            for s in env.alternatives:
                ref = None
                for t_minus in opponent_vectors(env, i):
                    t = insert_type(env, i, t_i, t_minus)
                    cur = set(optimal_reaction_set(env, i, t, s))
                    if ref is None:
                        ref = cur
                    elif cur != ref:
                        return (f"declared {env.values_kind} but argmax of agent "
                                f"{i} at {(t_i, s)} depends on opponents")
                    if env.values_kind == dm.PRIVATE_VALUES:
                        for r in env.reaction_spaces[i]:
                            if not _close(env.utility(i, t, s, r),
                                          env.utility(i, first, s, r)):
                                return (f"declared private values but utility of "
                                        f"agent {i} at {(t_i, s, r)} depends on "
                                        "opponents")
    return None


@pytest.fixture(scope="module")
def pair_walk_instances(random_instances):
    """(env, F): the seeded random instances, three facility grids and both
    pricing families."""
    named = (dm.build_grid_env(2, 2, 2), dm.build_grid_env(3, 2, 2),
             dm.build_grid_env(2, 3, 1), cohort_pricing_instance(),
             two_signal_pricing_instance())
    return list(random_instances[:40]) + [(inst.env, inst.F) for inst in named]


def test_verify_sensitivity_matches_naive_pair_order(pair_walk_instances):
    for env, F in pair_walk_instances:
        got = dm.verify_sensitivity(F, env)
        assert repr(got) == repr(_naive_sensitivity(F, env))


def test_find_separating_set_matches_naive_pair_order(pair_walk_instances):
    raised = 0
    for env, _ in pair_walk_instances:
        try:
            cert = dm.find_separating_set(env)
            got = (cert.separating_set, cert.witness)
        except dm.NotNonTrivial as e:
            got = ("NotNonTrivial", e.witness)
            raised += 1
        assert repr(got) == repr(_naive_separating_set(env))
    # both outcomes are exercised
    assert 0 < raised < len(pair_walk_instances)


def _sized_env(sizes):
    """An environment whose agent i has ``sizes[i]`` types."""
    return dm.Environment(
        type_spaces=tuple(tuple(range(m)) for m in sizes), alternatives=("a",),
        reaction_spaces=tuple(("x",) for _ in sizes),
        utility=lambda i, t, s, r: 0, values_kind=dm.PRIVATE_VALUES,
    )


def test_bases_match_opponent_vectors(pair_walk_instances):
    # agent i's bases are the vectors with agent-i type index 0, listed by
    # opponent profile
    envs = [env for env, _ in pair_walk_instances]
    envs += [_sized_env(sizes) for sizes in ((1,), (4,), (2, 1, 3), (3, 4, 1, 2))]
    for env in envs:
        index = {t: k for k, t in enumerate(env.type_vectors())}
        assert [env.profiles(i) for i in env.agents] == [
            [index[insert_type(env, i, env.type_spaces[i][0], t_minus)]
             for t_minus in opponent_vectors(env, i)]
            for i in env.agents
        ]


def test_keys_are_the_own_filter(random_instances):
    """``keys(i)`` lists the vectors that are their own key for agent i, in
    ascending order, and ``num_keys(i)`` counts them, under every kind."""
    kinds = (dm.INTERDEPENDENT, dm.PRIVATE_REACTIONS, dm.PRIVATE_VALUES)
    envs = [replaced_env(env, values_kind=kind) for env, _ in random_instances for kind in kinds]
    envs += [dm.build_grid_env(3, 2, 2).env, cohort_pricing_instance().env]
    for env in envs:
        N = env.num_type_vectors()
        for i in env.agents:
            keys = [k for k in range(N) if env.own(i, k) == k]
            assert list(env.keys(i)) == keys
            assert env.num_keys(i) == len(keys)


def test_pairs_walk_in_naive_order():
    """The walk lists every unordered pair once, in the naive tuple order,
    on seeded shapes (single-type agents and n=1 included).  A plain
    environment is one group of all n agents: its orbit walk visits every
    vector with every agent."""
    rng = random.Random(20261018)
    shapes = [(1,), (3,), (1, 3), (2, 1, 3)] + [
        tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5))) for _ in range(30)
    ]
    for sizes in shapes:
        env = _sized_env(sizes)
        assert env.group() == env.n
        vectors = list(env.walk())
        assert vectors == [(k, list(env.agents)) for k in range(math.prod(sizes))]
        assert env.num_type_vectors() == len(vectors)
        walk = list(env.pairs())
        assert len(walk) == env.num_deviations() // 2
        assert [(i, env.vector(ka), env.vector(kb)) for i, ka, kb in walk] == [
            (i, t, t_hat) for i, t, t_hat, _, _ in _naive_pairs(env)
        ]


def _argmax_dictator(F, env):
    """All mass on the best alternative: zero on one side of most pairs."""
    def mech(t):
        best = max(env.alternatives, key=lambda s: F.eval(t, s))
        return OutcomeDistribution([Outcome(best)], [1.0])
    return mech


def _audit(mech, env):
    try:
        rep = dm.audit_dp(mech, env, 0.5)
    except dm.ZeroProbabilityAsymmetry as e:
        return "ZeroProbabilityAsymmetry", e.witness
    return rep.epsilon_measured, rep.witness


def test_audit_dp_matches_naive_pair_order(pair_walk_instances):
    raised = 0
    for env, F in pair_walk_instances:
        expmech = dm.exponential_mechanism(F, env, 0.5)
        for mech in (expmech, _argmax_dictator(F, env)):
            got = _audit(mech, env)
            raised += got[0] == "ZeroProbabilityAsymmetry"
            assert repr(got) == repr(_naive_audit(mech, env))
    # the dictator trips the zero-probability check on most instances
    assert raised > len(pair_walk_instances) // 2


def _opponent_dependent(env):
    """env declared private values, with utility halved whenever the next
    agent holds its first type."""
    def utility(i, t, s, r):
        j = (i + 1) % env.n
        half = t[j] == env.type_spaces[j][0]
        return env.utility(i, t, s, r) * (Fraction(1, 2) if half else 1)
    return replaced_env(env, utility=utility, values_kind=dm.PRIVATE_VALUES)


def test_check_environment_evaluates_each_utility_once():
    # the walk evaluates exactly the utilities its budget charges
    grid = dm.build_grid_env(3, 2, 2).env
    envs = (grid, replaced_env(grid, values_kind=dm.PRIVATE_REACTIONS),
            cohort_pricing_instance(N=2, D=2, m=4).env)
    for env in envs:
        calls = []
        counted = replaced_env(env, utility=lambda *args: calls.append(args) or env.utility(*args))
        dm.check_environment(counted)
        needed = (env.num_type_vectors() * len(env.alternatives)
                  * sum(len(r) for r in env.reaction_spaces))
        assert len(calls) == len(set(calls)) == needed


def test_check_environment_private_kinds_match_naive_order(pair_walk_instances):
    messages = set()
    for env, _ in pair_walk_instances:
        variants = [replaced_env(env, values_kind=kind)
                    for kind in (dm.PRIVATE_REACTIONS, dm.PRIVATE_VALUES)]
        if env.n > 1:
            variants.append(_opponent_dependent(env))
        for variant in variants:
            try:
                got = dm.check_environment(variant)
            except ValueError as e:
                got = str(e)
                messages.add(got.split(" but ")[1].split(" of agent")[0])
            assert got == _naive_private_kind_error(variant)
    # both messages are exercised
    assert messages == {"argmax", "utility"}
