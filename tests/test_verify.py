import itertools
import math
from fractions import Fraction

import pytest

import dpmech as dm
from tests.conftest import replaced_env
from tests.naive import (
    expected_utility,
    insert_type,
    opponent_vectors,
    unilateral_deviation,
)


def test_truthful_profile_and_announce():
    inst = dm.build_grid_env(2, 2, 1)
    W = dm.truthful_profile(inst.env)
    t = (Fraction(0), Fraction(1, 2))
    assert dm.verify.announce(W, t) == t
    W_dev = unilateral_deviation(inst.env, 0, Fraction(0), Fraction(1))
    assert dm.verify.announce(W_dev, t) == (Fraction(1), Fraction(1, 2))


def test_expected_utility_respects_restrictions():
    inst = dm.build_grid_env(1, 2, 2)
    env = inst.env
    far = (Fraction(1), Fraction(1))

    def forced(b):
        return dm.OutcomeDistribution(
            [dm.Outcome(far, imposed=(Fraction(1),))], [1]
        )

    def free(b):
        return dm.OutcomeDistribution([dm.Outcome(far)], [1])

    W = dm.truthful_profile(env)
    t = (Fraction(0),)
    # free play picks the best reaction (the facility at 1, utility 0);
    # staying away also gives 0, so both mechanisms agree here
    assert expected_utility(free, env, W, 0, t) == 0
    assert expected_utility(forced, env, W, 0, t) == 0
    t2 = (Fraction(1, 2),)
    assert expected_utility(free, env, W, 0, t2) == Fraction(1, 2)


def test_strict_dominance_needs_private_kind():
    def utility(i, t, s, r):
        return Fraction(1, 2)

    env = dm.Environment(
        type_spaces=((0, 1),), alternatives=("a",),
        reaction_spaces=(("x",),), utility=utility,
        values_kind=dm.INTERDEPENDENT,
    )
    mech = lambda b: dm.OutcomeDistribution([dm.Outcome("a")], [1])
    with pytest.raises(dm.WrongValuesKind):
        dm.check_strictly_dominant_truthful(mech, env)


def test_no_dominating_strategy_over_truth_for_strict_mechanism():
    inst = dm.build_grid_env(2, 2, 2)
    P = dm.dyad_facility_commitment(inst)
    mech = dm.commitment_mechanism(P, inst.env)
    W_truth = dict(dm.truthful_profile(inst.env)[0])
    assert dm.find_dominating_strategy(mech, inst.env, 0, W_truth) is None


def test_dominated_constant_map_is_beaten_by_truth():
    inst = dm.build_grid_env(2, 2, 2)
    P = dm.dyad_facility_commitment(inst)
    mech = dm.commitment_mechanism(P, inst.env)
    # a constant announcement is dominated; the search finds some dominator
    W_const = dm.constant_map(inst.env, 0, Fraction(0))
    found = dm.find_dominating_strategy(mech, inst.env, 0, W_const)
    assert found is not None


def test_dominating_strategy_visits_each_own_vector_once():
    # private values: agent 0's expected utilities depend on the true vector
    # only through its own type, so the first candidate (constant low, which
    # dominates) is read at 2 own vectors x 128 opponent profiles x 2 maps,
    # not at all 256 true vectors, and the budget counts those 2
    inst = dm.example1_env(8)
    mech = dm.exponential_mechanism(inst.F, inst.env, 0.1)
    found = dm.find_dominating_strategy(
        mech, inst.env, 0, dict(dm.truthful_profile(inst.env)[0])
    )
    assert found == dm.constant_map(inst.env, 0, inst.env.type_spaces[0][0])
    stats = dm.PayoffTable.of(mech, inst.env).stats()
    assert stats["eu_lookups"] == 512
    assert stats["enumerated"] == {"dominating_strategy": 4 * 2 * 128}


def test_implementation_gap_zero_for_argmax_mechanism():
    inst = dm.build_grid_env(2, 2, 1)
    env, F = inst.env, inst.F

    def best(b):
        s_star = max(env.alternatives, key=lambda s: F.eval(b, s))
        return dm.OutcomeDistribution([dm.Outcome(s_star)], [1])

    beta, worst = dm.implementation_gap(best, env, F)
    assert beta == 0


def test_implementation_gap_known_value():
    inst = dm.build_grid_env(2, 2, 1)
    env, F = inst.env, inst.F
    s_fixed = (Fraction(0),)

    def constant(b):
        return dm.OutcomeDistribution([dm.Outcome(s_fixed)], [1])

    beta, worst = dm.implementation_gap(constant, env, F)
    # worst case both agents at 1: optimum 1, constant placement gives 0
    assert beta == 1
    assert worst == (Fraction(1), Fraction(1))


def test_expost_nash_witness_on_failure():
    inst = dm.build_grid_env(1, 2, 1)
    env = inst.env
    locs = env.alternatives

    def spiteful(b):
        # puts the facility far from the announcement: lying helps
        far = max(locs, key=lambda s: abs(s[0] - b[0]))
        return dm.OutcomeDistribution([dm.Outcome(far)], [1])

    rep = dm.check_expost_nash_truthful(spiteful, env)
    assert not rep.passed
    assert rep.witness is not None
    i, t, b_i, base, dev = rep.witness
    assert dev > base


# ------------------------------------------------ payoff-table checkers


# CSV and sidecar witnesses of the benchmark's two verify configs, as the
# checkers computed them before they shared a payoff table, and of the
# larger facility (n=5) and pricing (7 cohorts) instances, as the checkers
# computed them before the table keyed private-value payoffs by own type;
# the work counts are those of the walks over one vector per orbit
PINNED_VERIFY = [
    (
        {"facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"}},
        "verify-facility,3,0.0625,1/2,164,1/2,1/2,1,9,,0.26186955138235957,"
        "sensitivity=pass|expost_nash=pass(0.12606)"
        "|strictly_dominant=pass(0.12606),1",
        {
            "sensitivity": "(0, (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
            "(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), "
            "(Fraction(0, 1), Fraction(0, 1)))",
            "expost_nash": "None",
            "strictly_dominant": "(2, (Fraction(0, 1), Fraction(0, 1), Fraction(1, 2)), "
            "Fraction(0, 1), (Fraction(1, 2), Fraction(1, 2)), "
            "0.8917743648200944, 0.7657145007674057)",
        },
        # distributions built, utility evaluations, EU lookups, EU hits
        (26, 201, 108, 30),
    ),
    (
        {"pricing": {"cohorts": 5, "cohort_size": 1, "grid_m": 4}},
        "verify-pricing,5,0.014473684210526317,1/2,948,1/5,11/38,1,5,,"
        "0.44845926444127171,sensitivity=pass|expost_nash=pass(0.0473913)"
        "|strictly_dominant=pass(0.0473913),1",
        {
            "sensitivity": "(0, (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), Fraction(3, 4))",
            "expost_nash": "None",
            "strictly_dominant": "(0, (0, 0, 0, 0, 0), 1, (1, 1, 1, 1), "
            "0.5472770320864261, 0.4998857718967166)",
        },
        (14, 100, 40, 12),
    ),
    (
        {"facility": {"n": 5, "m": 2, "K": 2, "mechanism": "loc2"}},
        "verify-facility,5,0.0625,1/2,164,1/2,1/2,1,9,,0.26097818211158508,"
        "sensitivity=pass|expost_nash=pass(0.126055)"
        "|strictly_dominant=pass(0.126055),1",
        {
            "sensitivity": "(0, (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
            "(Fraction(0, 1), Fraction(0, 1)))",
            "expost_nash": "None",
            "strictly_dominant": "(4, (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
            "Fraction(0, 1), Fraction(1, 2)), Fraction(1, 1), (Fraction(1, 2), "
            "Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), "
            "0.8936881488501582, 0.767632833259176)",
        },
        (79, 321, 270, 63),
    ),
    (
        {"pricing": {"cohorts": 7, "cohort_size": 1, "grid_m": 4}},
        "verify-pricing,7,0.014473684210526317,1/2,948,1/5,11/38,1,5,,"
        "0.44784137351982378,sensitivity=pass|expost_nash=pass(0.0473913)"
        "|strictly_dominant=pass(0.0473913),1",
        {
            "sensitivity": "(0, (0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0), "
            "Fraction(3, 4))",
            "expost_nash": "None",
            "strictly_dominant": "(0, (0, 0, 0, 0, 0, 0, 0), 1, (1, 1, 1, 1, 1, 1), "
            "0.5472313573781351, 0.49984010448238875)",
        },
        (20, 140, 56, 16),
    ),
    (
        # cohorts of 2: interdependent values, so payoffs and reactions are
        # keyed by the full true vector and strict dominance is not checked
        {"pricing": {"cohorts": 3, "cohort_size": 2, "grid_m": 6}},
        "verify-pricing,6,0.010651629072681704,1/2,3008,1/7,17/57,2,7,,"
        "0.47546549172850405,sensitivity=pass|expost_nash=pass(0.0475454),1",
        {
            "sensitivity": "(0, (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), Fraction(5, 6))",
            "expost_nash": "None",
        },
        (6, 504, 18, 0),
    ),
]


@pytest.mark.parametrize(
    "app,row,witnesses,counts", PINNED_VERIFY,
    ids=["facility", "pricing", "facility-n5", "pricing-7", "pricing-interdependent"],
)
def test_verify_outputs_pinned(tmp_path, app, row, witnesses, counts):
    import json

    from dpmech.cli import CSV_COLUMNS, main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "verify", "seed": 1, **app}))
    out = tmp_path / "rows.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n" + row + "\n"
    side = json.loads((tmp_path / "rows.json").read_text())[0]
    assert side["witnesses"] == witnesses
    # work counters live in the sidecar only; each utility the environment's
    # rows hold, one per (agent, own type, alternative, reaction), is
    # evaluated once
    table = side["payoff_table"]
    assert (table["distributions_built"], table["utility_evaluations"],
            table["eu_lookups"], table["eu_hits"]) == counts
    checks = {"expost_nash", "implementation_gap"}
    if "strictly_dominant" in witnesses:
        checks.add("strictly_dominant")
    assert set(table["enumerated"]) == checks
    assert "implementation_gap" not in out.read_text()
    assert table["budget"] == dm.DEFAULT_BUDGET


def _count_utility_calls(monkeypatch, calls):
    """Count, under "utility", the utility calls of every Environment built
    from now on."""
    from dpmech import environment

    init = environment.Environment.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        utility = self.utility

        def counted(*args):
            calls["utility"] += 1
            return utility(*args)

        self.utility = counted

    monkeypatch.setattr(environment.Environment, "__init__", counting_init)


@pytest.mark.parametrize("app,f_evals,utilities", [
    ({"facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"}}, 10 * 9, 201),
    ({"pricing": {"cohorts": 5, "cohort_size": 1, "grid_m": 4}}, 6 * 5, 100),
], ids=["facility", "pricing"])
def test_verify_lottery_reuses_scores_and_imposed_reactions(monkeypatch, app, f_evals,
                                                            utilities):
    """On the benchmark's verify configs the lottery's exponential branch
    reads the objective from ``env.scores``, so F is evaluated once per
    (representative, alternative): 10 of 27 facility vectors, 6 of 32
    pricing ones.  Under private values the gap, the payoffs and the
    commitment branch's imposed reactions read one held utility row per
    (agent, own type, alternative) they reach: at most 3 x 3 x 9 rows of 3
    reactions for the facility, 5 x 2 x 5 rows of 2 for the pricing."""
    from collections import Counter

    from dpmech import cli, environment

    calls = Counter()
    objective = environment.HistogramObjective
    evaluate = objective.eval

    def counted_eval(*args):
        calls["F"] += 1
        return evaluate(*args)

    monkeypatch.setattr(objective, "eval", counted_eval)
    _count_utility_calls(monkeypatch, calls)
    row, _ = cli.run_verify({"seed": 1, **app})
    assert "fail" not in row["properties"]
    assert calls == {"F": f_evals, "utility": utilities}


def test_compute_gap_reads_held_utility_rows(monkeypatch):
    """compute_gap evaluates each (agent, own type, alternative, reaction)
    utility once: 3 agents x 3 types x 9 alternatives x 3 reactions on a
    plain environment, the first agent's alone on the symmetric family."""
    from collections import Counter

    calls = Counter()
    symmetric = dm.build_grid_env(3, 2, 2).env  # its utility is counted once, below
    _count_utility_calls(monkeypatch, calls)
    for env, utilities in ((replaced_env(symmetric), 243),
                           (dm.build_grid_env(3, 2, 2).env, 81)):
        calls.clear()
        gap = dm.compute_gap(env)
        assert calls == {"utility": utilities}
        assert gap == _naive_gap(env)


def test_compute_gap_reads_each_held_row_once():
    """At each opponent profile that is its own key, compute_gap looks up
    one row per (own type, alternative) of an agent with a misreport: the
    first profile alone under private values, every one otherwise."""
    from collections import Counter

    from tests.conftest import cohort_pricing_instance

    for inst in (dm.build_grid_env(1, 3, 2), dm.build_grid_env(2, 2, 2),
                 cohort_pricing_instance(N=2, D=2, m=4)):
        env = inst.env
        calls = Counter()
        utilities = env.utilities

        def counted(*args):
            calls["utilities"] += 1
            return utilities(*args)

        env.utilities = counted
        gap = dm.compute_gap(env)
        assert (gap.gamma, gap.argmin_witness) == _naive_gap(env)
        # the symmetric family walks the first group's agents, at opponent
        # profiles whose other groups are sorted
        D = env.group_size
        profiles = [1 if env.values_kind == dm.PRIVATE_VALUES else len(env.profiles(i, D))
                    for i in range(D)]
        assert calls["utilities"] == sum(
            keys * m * len(env.alternatives)
            for keys, m in zip(profiles, env.sizes) if m > 1)


def test_find_separating_set_reads_held_utility_rows(monkeypatch):
    """find_separating_set reads the rows compute_gap holds: alone it
    evaluates at most the 243 held utilities, after compute_gap none."""
    from collections import Counter

    calls = Counter()
    _count_utility_calls(monkeypatch, calls)
    alone = dm.find_separating_set(dm.build_grid_env(3, 2, 2).env)
    assert 0 < calls["utility"] <= 243
    # a plain environment: on the symmetric family compute_gap holds only
    # the first agent's rows, which find_separating_set's full walk outgrows
    env = replaced_env(dm.build_grid_env(3, 2, 2).env)
    dm.compute_gap(env)
    calls.clear()
    assert dm.find_separating_set(env) == alone
    assert calls == {}


def _naive_expost(mech, env):
    """Ex-post Nash margin and witness, and the near-indifference swing,
    from the naive expected_utility."""
    W = dm.truthful_profile(env)
    slack_min, witness, swing, swing_witness = None, None, 0.0, None
    for t in env.type_vectors():
        for i in env.agents:
            base = expected_utility(mech, env, W, i, t)
            for b_i in env.type_spaces[i]:
                if b_i == t[i]:
                    continue
                W_dev = unilateral_deviation(env, i, t[i], b_i)
                dev = expected_utility(mech, env, W_dev, i, t)
                if slack_min is None or base - dev < slack_min:
                    slack_min = base - dev
                    if slack_min < -dm.ABS_TOL:
                        witness = (i, t, b_i, base, dev)
                if abs(float(base - dev)) > swing:
                    swing = abs(float(base - dev))
                    swing_witness = (i, t, b_i, base, dev)
    return slack_min, witness, swing, swing_witness


def _naive_strict(mech, env):
    """Strict-dominance minimum slack and its witness from expected_utility,
    opponents announcing b_minus whatever their types."""
    slack_min, witness = None, None
    for t in env.type_vectors():
        for i in env.agents:
            for b_minus in opponent_vectors(env, i):
                opp = [dm.constant_map(env, j, b_j)
                       for j, b_j in zip([j for j in env.agents if j != i], b_minus)]

                def profile(b_i):
                    maps = list(opp)
                    maps.insert(i, dm.constant_map(env, i, b_i))
                    return tuple(maps)

                base = expected_utility(mech, env, profile(t[i]), i, t)
                for b_i in env.type_spaces[i]:
                    if b_i == t[i]:
                        continue
                    dev = expected_utility(mech, env, profile(b_i), i, t)
                    if slack_min is None or base - dev < slack_min:
                        slack_min = base - dev
                        witness = (i, t, b_i, b_minus, base, dev)
    return slack_min, witness


def _assert_matches_naive(mech, env, eps=None):
    """The table-backed checkers reproduce the naive reference exactly:
    same margins, and witnesses with the same values and number types."""
    slack_min, witness, swing, swing_witness = _naive_expost(mech, env)
    rep = dm.check_expost_nash_truthful(mech, env)
    assert rep.margin == float(slack_min)
    assert repr(rep.witness) == repr(witness)
    if eps is not None:
        ni = dm.near_indifference_bound_check(mech, env, eps)
        assert ni.margin == math.exp(eps) - 1 - swing
        assert repr(ni.witness) == repr(swing_witness)
    if env.values_kind != dm.INTERDEPENDENT:
        strict_min, strict_witness = _naive_strict(mech, env)
        rep = dm.check_strictly_dominant_truthful(mech, env)
        assert rep.margin == float(strict_min)
        assert repr(rep.witness) == repr(strict_witness)
        # the truthful-opponent expected utilities were looked up again in
        # the table the environment holds
        stats = dm.PayoffTable.of(mech, env).stats()
        assert stats["eu_hits"] >= env.num_type_vectors() * env.n
    return slack_min


def test_table_checkers_match_naive_on_seeded_instances(random_instances):
    for k, (env, F) in enumerate(random_instances[:24]):
        eps = (0.1, 0.5, 2.0)[k % 3]
        _assert_matches_naive(dm.exponential_mechanism(F, env, eps), env, eps)


def _opponent_dependent(env):
    """env declared private reactions, with a utility term that reads the
    opponents' types; reactions stay singletons, so the argmax is private."""
    def utility(i, t, s, r):
        others = sum(t_j for j, t_j in enumerate(t) if j != i)
        return 0.9 * env.utility(i, t, s, r) + 0.1 * ((s + others) % 2)
    return replaced_env(env, utility=utility, values_kind=dm.PRIVATE_REACTIONS)


def test_strict_dominance_keys_private_reactions_by_full_vector(random_instances):
    # an own-type key would read every opponent at its first type
    envs = [(env, F) for env, F in random_instances if env.n > 1][:8]
    for k, (env, F) in enumerate(envs):
        variant = _opponent_dependent(env)
        dm.check_environment(variant)
        with pytest.raises(ValueError, match="utility"):
            dm.check_environment(replaced_env(variant, values_kind=dm.PRIVATE_VALUES))
        _assert_matches_naive(dm.exponential_mechanism(F, variant, (0.5, 2.0)[k % 2]), variant)


def _lottery(inst, P):
    env, F = inst.env, inst.F
    gamma = dm.compute_gap(env).gamma
    eps, q = dm.saturating_params(P, gamma)
    return dm.build_combined(env, F, P, gamma, eps, q)


def test_table_checkers_match_naive_on_lotteries():
    from tests.conftest import cohort_pricing_instance

    fac = dm.build_grid_env(2, 2, 2)
    _assert_matches_naive(_lottery(fac, dm.dyad_facility_commitment(fac)), fac.env)
    # interdependent values: ex-post Nash only
    pricing = cohort_pricing_instance(N=2, D=2, m=4)
    assert pricing.env.values_kind == dm.INTERDEPENDENT
    _assert_matches_naive(
        _lottery(pricing, dm.uniform_histogram_commitment(pricing)), pricing.env
    )


def test_audit_dp_reads_the_lottery_from_the_held_table():
    from collections import Counter

    inst = dm.build_grid_env(2, 2, 2)
    env = inst.env
    lottery = _lottery(inst, dm.dyad_facility_commitment(inst))
    calls = Counter()

    def counted(t):
        calls["mech"] += 1
        return lottery(t)

    dm.check_expost_nash_truthful(counted, env)
    assert calls["mech"] == env.num_type_vectors()
    rep = dm.audit_dp(counted, env, 1.0)
    assert calls["mech"] == env.num_type_vectors()
    # the marginals the distributions themselves give
    prob = [[float(lottery(t).marginal_alternatives().get(s, 0)) for s in env.alternatives]
            for t in env.type_vectors()]
    worst = max(abs(math.log(prob[ka][a]) - math.log(prob[kb][a]))
                for _, ka, kb in env.pairs() for a in range(len(env.alternatives)))
    assert rep.epsilon_measured == worst


def _leaking_environment():
    """One agent with types 0 and 1, alternatives a and b, reactions x and y."""
    return dm.Environment(
        type_spaces=((0, 1),), alternatives=("a", "b"), reaction_spaces=(("x", "y"),),
        utility=lambda i, t, s, r: Fraction(1, 2), values_kind=dm.PRIVATE_VALUES,
    )


# half on a, half on an outcome the environment does not have
LEAKS = {
    # the other half reveals the type on an alternative outside the
    # environment, which the audit once dropped to pass it with eps 0
    "foreign-alternative": lambda t: dm.Outcome("z" if t == (0,) else "y"),
    "foreign-reaction": lambda t: dm.Outcome("b", ("w",)),
    "imposed-too-short": lambda t: dm.Outcome("b", ()),
    "imposed-too-long": lambda t: dm.Outcome("b", ("x", "y")),
}

CHECKS = {
    "audit_dp": lambda mech, env: dm.audit_dp(mech, env, 0.1),
    "expost_nash": dm.check_expost_nash_truthful,
    "strict_dominance": dm.check_strictly_dominant_truthful,
    "near_indifference": lambda mech, env: dm.near_indifference_bound_check(mech, env, 0.1),
    "implementation_gap": lambda mech, env: dm.implementation_gap(
        mech, env, dm.ObjectiveFunction(lambda t, s: 0, 1)),
}


@pytest.mark.parametrize("leak", LEAKS.values(), ids=list(LEAKS))
@pytest.mark.parametrize("check", CHECKS.values(), ids=list(CHECKS))
def test_checks_refuse_outcomes_outside_the_environment(check, leak):
    def mech(t):
        return dm.OutcomeDistribution([dm.Outcome("a"), leak(t)], [0.5, 0.5])

    with pytest.raises(ValueError, match=r"^outcome Outcome\(.*\) at announcement "
                                         r"\(0,\) is not of the environment"):
        check(mech, _leaking_environment())


def test_table_checkers_stay_exact_on_gap_zero_commitment():
    inst = dm.build_grid_env(2, 2, 1)
    env = inst.env
    assert dm.compute_gap(env).gamma == 0
    mech = dm.commitment_mechanism(dm.uniform_histogram_commitment(inst), env)
    slack_min = _assert_matches_naive(mech, env)
    assert isinstance(slack_min, Fraction) and slack_min == 0
    rep = dm.check_strictly_dominant_truthful(mech, env)
    *_, base, dev = rep.witness
    assert isinstance(base, Fraction) and isinstance(dev, Fraction)
    assert rep.margin == float(base - dev)


def test_near_indifference_matches_naive_off_the_benchmark():
    # a lottery mixing float and Fraction probabilities with imposed
    # reactions, all-Fraction commitment probabilities, and interdependent
    # values (payoffs keyed by the full vector)
    from tests.conftest import cohort_pricing_instance

    fac = dm.build_grid_env(2, 2, 2)
    _assert_matches_naive(_lottery(fac, dm.dyad_facility_commitment(fac)), fac.env, 0.5)
    inst = dm.build_grid_env(2, 2, 1)
    P = dm.uniform_histogram_commitment(inst)
    _assert_matches_naive(dm.commitment_mechanism(P, inst.env), inst.env, 0.1)
    pricing = cohort_pricing_instance(N=2, D=2, m=4)
    _assert_matches_naive(
        _lottery(pricing, dm.uniform_histogram_commitment(pricing)), pricing.env, 1.0
    )


def test_near_indifference_matches_naive_on_private_reactions(random_instances):
    envs = [(env, F) for env, F in random_instances if env.n > 1][:8]
    for k, (env, F) in enumerate(envs):
        variant = _opponent_dependent(env)
        eps = (0.5, 2.0)[k % 2]
        _assert_matches_naive(dm.exponential_mechanism(F, variant, eps), variant, eps)


def _naive_gap(env):
    """compute_gap by direct optimal_reaction and utility calls."""
    gamma, witness = None, None
    for i in env.agents:
        for t_minus in opponent_vectors(env, i):
            for t_i, b_i in itertools.permutations(env.type_spaces[i], 2):
                t = insert_type(env, i, t_i, t_minus)
                b = insert_type(env, i, b_i, t_minus)
                adv = max(
                    env.utility(i, t, s, dm.optimal_reaction(env, i, t, s))
                    - env.utility(i, t, s, dm.optimal_reaction(env, i, b, s))
                    for s in env.alternatives
                )
                if gamma is None or adv < gamma:
                    gamma, witness = adv, (i, (t_i, b_i), t_minus)
    return gamma, witness


def test_compute_gap_matches_naive():
    from tests.conftest import cohort_pricing_instance, two_signal_pricing_instance

    for inst in (dm.build_grid_env(2, 2, 2), dm.build_grid_env(3, 2, 1),
                 dm.build_grid_env(2, 3, 2), cohort_pricing_instance(N=2, D=2, m=4),
                 two_signal_pricing_instance(N=1)):
        gap = dm.compute_gap(inst.env)
        gamma, witness = _naive_gap(inst.env)
        assert repr((gap.gamma, gap.argmin_witness)) == repr((gamma, witness))


def test_dominating_strategy_through_shared_table():
    inst = dm.example1_env(3)
    env = inst.env
    mech = dm.exponential_mechanism(inst.F, env, 0.1)
    low, high = env.type_spaces[0]
    W = dm.truthful_profile(env)
    dm.check_expost_nash_truthful(mech, env)
    found = dm.find_dominating_strategy(mech, env, 0, dict(W[0]))
    assert found == dm.constant_map(env, 0, low)
    assert set(dm.PayoffTable.of(mech, env).enumerated) == {
        "expost_nash", "dominating_strategy"}
    # against truthful opponents, the constant low map beats truth weakly
    # everywhere and strictly somewhere
    diffs = [
        expected_utility(mech, env, (found,) + W[1:], 0, t)
        - expected_utility(mech, env, W, 0, t)
        for t in env.type_vectors()
    ]
    assert min(diffs) >= -dm.ABS_TOL and max(diffs) > dm.ABS_TOL


def test_budget_checks_report_needed_and_budget():
    inst = dm.build_grid_env(2, 2, 2)
    env, F = inst.env, inst.F
    mech = dm.exponential_mechanism(F, env, 1.0)
    W = dm.truthful_profile(env)
    reacting = replaced_env(env, values_kind=dm.PRIVATE_REACTIONS)
    checks = [
        (36, lambda: dm.check_expost_nash_truthful(mech, env, budget=1)),
        # private values: one slack per (agent, true type, misreport,
        # opponent announcement); private reactions: that per true vector
        (36, lambda: dm.check_strictly_dominant_truthful(mech, env, budget=1)),
        (108, lambda: dm.check_strictly_dominant_truthful(mech, reacting, budget=1)),
        (243, lambda: dm.find_dominating_strategy(mech, env, 0, dict(W[0]), budget=1)),
        (324, lambda: dm.compute_gap(env, budget=1)),
        (162, lambda: dm.verify_sensitivity(F, env, budget=1)),
        (162, lambda: dm.find_separating_set(env, budget=1)),
        (486, lambda: dm.check_environment(env, budget=1)),
        # one vector per orbit: 6 of the 9
        (54, lambda: dm.implementation_gap(mech, env, F, budget=1)),
    ]
    for needed, check in checks:
        with pytest.raises(dm.EnumerationBudgetExceeded) as e:
            check()
        assert (e.value.needed, e.value.budget) == (needed, 1)
    for needed, check in ((36, dm.near_indifference_bound_check), (162, dm.audit_dp)):
        with pytest.raises(dm.EnumerationBudgetExceeded) as e:
            check(mech, env, 1.0, budget=1)
        assert (e.value.needed, e.value.budget) == (needed, 1)
    with pytest.raises(dm.EnumerationBudgetExceeded) as e:
        dm.accuracy_bound_check(F, env, 1.0, budget=1)
    assert (e.value.needed, e.value.budget) == (81, 1)


def test_budgets_stay_integers_past_sys_maxsize():
    # 64 binary agents under private reactions: each agent has 2^64 keys,
    # more than len() of a range can count
    env = dm.Environment(
        type_spaces=((0, 1),) * 64, alternatives=("a",), reaction_spaces=(("x",),) * 64,
        utility=lambda i, t, s, r: 0, values_kind=dm.PRIVATE_REACTIONS,
    )

    def mech(t):
        raise AssertionError("the mechanism ran")

    checks = [
        # 64 agents x 2^64 keys x 1 misreport x 2^63 opponent announcements
        (2**133, lambda: dm.check_strictly_dominant_truthful(mech, env)),
        # 4 maps x 2^64 keys x 2^63 opponent announcements
        (2**129, lambda: dm.find_dominating_strategy(mech, env, 0, {0: 0, 1: 1})),
    ]
    for needed, check in checks:
        with pytest.raises(dm.EnumerationBudgetExceeded) as e:
            check()
        assert e.value.needed == needed


def test_dominating_strategy_budgets_every_true_vector_beyond_private_values():
    # 27 maps x 9 true vectors x 3 opponent profiles; 27 x 3 x 3 under
    # private values, where only the 3 own vectors are read
    inst = dm.build_grid_env(2, 2, 2)
    mech = dm.exponential_mechanism(inst.F, inst.env, 1.0)
    W_0 = dict(dm.truthful_profile(inst.env)[0])
    reacting = replaced_env(inst.env, values_kind=dm.PRIVATE_REACTIONS)
    with pytest.raises(dm.EnumerationBudgetExceeded) as e:
        dm.find_dominating_strategy(mech, reacting, 0, W_0, budget=1)
    assert e.value.needed == 729


def test_shared_table_checks_budget_before_listing_vectors(monkeypatch):
    # 3^40 type vectors: walking them would never finish; the wrapper
    # carries no symmetry mark, so the checks count the full walk
    inst = dm.build_grid_env(40, 2, 1)
    commitment = dm.commitment_mechanism(dm.uniform_histogram_commitment(inst), inst.env)
    mech = lambda b: commitment(b)  # noqa: E731
    table = dm.PayoffTable.of(mech, inst.env)

    def no_walk(self, *args):
        raise AssertionError("type vectors walked before the budget check")

    for walk in ("walk", "profiles", "type_vectors"):
        monkeypatch.setattr(dm.Environment, walk, no_walk)
    with pytest.raises(dm.EnumerationBudgetExceeded):
        dm.check_expost_nash_truthful(mech, inst.env)
    with pytest.raises(dm.EnumerationBudgetExceeded):
        dm.check_strictly_dominant_truthful(mech, inst.env)
    # the held table is still the empty one, and nothing was walked or held
    assert dm.PayoffTable.of(mech, inst.env) is table
    assert table.stats()["enumerated"] == {}
    assert not {"bases", "_scores", "_utilities"} & inst.env.__dict__.keys()


def _alternating_checks(inst) -> list:
    """(name, check) pairs on inst's environment, alternating between an
    exponential mechanism, a commitment mechanism and a saturating lottery."""
    env, F = inst.env, inst.F
    P = dm.uniform_histogram_commitment(inst)
    gamma = dm.compute_gap(env).gamma
    eps, q = dm.saturating_params(P, gamma)
    exp = dm.exponential_mechanism(F, env, 0.5)
    commit = dm.commitment_mechanism(P, env)
    lottery = dm.build_combined(env, F, P, gamma, eps, q)
    W0 = dict(dm.truthful_profile(env)[0])
    checks = [
        ("nash-exp", lambda: dm.check_expost_nash_truthful(exp, env)),
        ("nash-commit", lambda: dm.check_expost_nash_truthful(commit, env)),
        ("nash-lottery", lambda: dm.check_expost_nash_truthful(lottery, env)),
        ("dominating-exp", lambda: dm.find_dominating_strategy(exp, env, 0, W0)),
        ("gap-commit", lambda: dm.implementation_gap(commit, env, F)),
        ("near-lottery", lambda: dm.near_indifference_bound_check(lottery, env, eps)),
        ("near-exp", lambda: dm.near_indifference_bound_check(exp, env, 0.5)),
        ("dominating-lottery",
         lambda: dm.find_dominating_strategy(lottery, env, 0, W0)),
        ("gap-lottery", lambda: dm.implementation_gap(lottery, env, F)),
        ("nash-exp-again", lambda: dm.check_expost_nash_truthful(exp, env)),
    ]
    if env.values_kind != dm.INTERDEPENDENT:
        checks += [
            ("strict-commit", lambda: dm.check_strictly_dominant_truthful(commit, env)),
            ("strict-lottery", lambda: dm.check_strictly_dominant_truthful(lottery, env)),
            ("strict-exp", lambda: dm.check_strictly_dominant_truthful(exp, env)),
        ]
    return checks


def _held_tables(env) -> list:
    return [v for v in env.__dict__.values() if isinstance(v, dm.PayoffTable)]


def _halved(env):
    """env with every utility halved, in a new Environment."""
    return replaced_env(
        env, utility=lambda i, t, s, r, u=env.utility: u(i, t, s, r) / 2)


@pytest.mark.parametrize("family", ["facility", "cohort-pricing"])
def test_held_table_checks_match_fresh_environments(family):
    from tests.conftest import cohort_pricing_instance

    def build():
        if family == "facility":
            return dm.build_grid_env(2, 2, 2)
        return cohort_pricing_instance(N=2, D=2)

    inst = build()
    for name, check in _alternating_checks(inst):
        # the same check alone, on an environment no other check has read
        alone = dict(_alternating_checks(build()))[name]
        assert repr(check()) == repr(alone()), name
        # one table, that of the last mechanism a check read it for
        assert len(_held_tables(inst.env)) <= 1
    assert len(_held_tables(inst.env)) == 1
    # a replaced environment with another utility holds none of its payoffs
    half = _halved(inst.env)
    assert "_utilities" not in half.__dict__ and not _held_tables(half)
    P = dm.uniform_histogram_commitment(inst)
    on_half, on_fresh = (
        repr(dm.check_expost_nash_truthful(dm.commitment_mechanism(P, e), e))
        for e in (half, _halved(build().env))
    )
    assert on_half == on_fresh
    assert half.__dict__["_utilities"] is not inst.env.__dict__["_utilities"]


def _on_grid(check):
    """check(env, F, mech) on facility n=2, m=2, K=2 with its eps-1
    exponential mechanism."""
    inst = dm.build_grid_env(2, 2, 2)
    return check(inst.env, inst.F, dm.exponential_mechanism(inst.F, inst.env, 1.0))


def _failing_nash():
    inst = dm.example1_env(2)
    return dm.check_expost_nash_truthful(
        dm.exponential_mechanism(inst.F, inst.env, 0.1), inst.env)


# the records' reprs, as their frozen dataclasses printed them; a report's
# truth value is its ``passed``, although a non-empty tuple is always true
RECORD_REPRS = {
    "MechanismParams": (
        lambda: dm.MechanismParams(eps=0.125, q=0.5, d=1.0, p_tilde=0.5, gamma=0.5,
                                   s_count=9, n=300, n0=200),
        "MechanismParams(eps=0.125, q=0.5, d=1.0, p_tilde=0.5, gamma=0.5, s_count=9, "
        "n=300, n0=200)"),
    "Gap": (
        lambda: _on_grid(lambda env, F, mech: dm.compute_gap(env)),
        "Gap(gamma=Fraction(1, 2), argmin_witness=(0, (Fraction(0, 1), Fraction(1, 2)), "
        "(Fraction(0, 1),)))"),
    "SensitivityReport": (
        lambda: _on_grid(lambda env, F, mech: dm.verify_sensitivity(F, env)),
        "SensitivityReport(tightest_d=1.0, declared_d=1.0, passed=True, witness=(0, "
        "(Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(0, 1))))"),
    "SeparationCertificate": (
        lambda: dm.find_separating_set(dm.build_grid_env(1, 1, 2).env),
        "SeparationCertificate(separating_set=((Fraction(0, 1), Fraction(1, 1)),), "
        "witness={(0, (Fraction(0, 1), Fraction(1, 1)), ()): (Fraction(0, 1), "
        "Fraction(1, 1))})"),
    "DpAuditReport": (
        lambda: _on_grid(lambda env, F, mech: dm.audit_dp(mech, env, 1.0)),
        "DpAuditReport(epsilon_measured=0.535787920615455, witness=(0, (Fraction(0, 1), "
        "Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), "
        "Fraction(1, 1))), target_epsilon=1.0, passed=True)"),
    "VerificationReport-passed": (
        lambda: _on_grid(lambda env, F, mech: dm.check_expost_nash_truthful(mech, env)),
        "VerificationReport(property='expost_nash', passed=True, "
        "margin=0.03319958203570017, witness=None)"),
    "VerificationReport-failed": (
        _failing_nash,
        "VerificationReport(property='expost_nash', passed=False, "
        "margin=-0.0022219259733257113, witness=(1, (Fraction(3, 4), Fraction(5, 4)), "
        "Fraction(3, 4), 0.6666666666666667, 0.6688885926399925))"),
    "Outcome": (
        lambda: dm.Outcome(Fraction(1, 2), imposed=("buy", "not-buy")),
        "Outcome(alternative=Fraction(1, 2), imposed=('buy', 'not-buy'))"),
    "Outcome-free": (lambda: dm.Outcome("a"), "Outcome(alternative='a', imposed=None)"),
    "ScheduledMechanism": (
        lambda: dm.facility.ScheduledMechanism(mech="mech", params=None, P="P", inst="inst"),
        "ScheduledMechanism(mech='mech', params=None, P='P', inst='inst')"),
    "Loc3Params": (
        lambda: dm.Loc3Params(n=1000, K=2, eps=0.125, m_bar=1, q=0.5,
                              rho=Fraction(1, 1024), accuracy_target=2.5),
        "Loc3Params(n=1000, K=2, eps=0.125, m_bar=1, q=0.5, rho=Fraction(1, 1024), "
        "accuracy_target=2.5)"),
    "Loc3Mechanism": (
        lambda: dm.Loc3Mechanism(params=None, dyadic="dyadic"),
        "Loc3Mechanism(params=None, dyadic='dyadic')"),
}


@pytest.mark.parametrize("name", RECORD_REPRS)
def test_record_reprs_pinned(name):
    build, expected = RECORD_REPRS[name]
    record = build()
    assert repr(record) == expected
    if isinstance(record, dm.VerificationReport):
        assert bool(record) is record.passed is ("passed=True" in expected)
