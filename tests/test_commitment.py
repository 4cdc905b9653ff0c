from fractions import Fraction

import pytest

import dpmech as dm


def test_p_tilde_is_min_over_separating_set():
    P = dm.CommitmentDistribution(
        alternatives=("a", "b", "c"),
        probs=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        separating_set=("a", "c"),
    )
    assert P.p_tilde == Fraction(1, 6)


def test_zero_mass_on_separating_set_rejected():
    with pytest.raises(ValueError, match="positive mass"):
        dm.CommitmentDistribution(
            alternatives=("a", "b"),
            probs=(Fraction(1), Fraction(0)),
            separating_set=("b",),
        )


def test_uniform_commitment_on_facility():
    inst = dm.build_grid_env(3, 2, 2)
    P = dm.uniform_commitment(inst.env)
    assert P.p_tilde == Fraction(1, 9)


def test_uniform_commitment_separates_on_every_alternative_without_type_pairs():
    # no agent has two types, so the greedy certificate is empty
    env = dm.Environment(
        type_spaces=((0,), (0,)),
        alternatives=("a", "b"),
        reaction_spaces=((0,), (0,)),
        utility=lambda i, t, s, r: 0,
    )
    assert dm.find_separating_set(env).separating_set == ()
    P = dm.uniform_commitment(env)
    assert P.separating_set == ("a", "b")
    assert P.p_tilde == Fraction(1, 2)


def test_commitment_mechanism_is_announcement_independent():
    inst = dm.build_grid_env(2, 2, 2)
    P = dm.dyad_facility_commitment(inst)
    mech = dm.commitment_mechanism(P, inst.env)
    t1 = (Fraction(0), Fraction(1))
    t2 = (Fraction(1, 2), Fraction(1, 2))
    assert mech(t1).marginal_alternatives() == mech(t2).marginal_alternatives()
    # every outcome imposes one reaction on every agent
    for o, p in mech(t1).items():
        assert o.imposed is not None
        assert len(o.imposed) == inst.env.n


def test_truth_advantage_lower_bound_facility():
    inst = dm.build_grid_env(3, 2, 2)
    env = inst.env
    P = dm.dyad_facility_commitment(inst)
    gamma = dm.compute_gap(env).gamma
    floor = P.p_tilde * gamma
    for t in env.type_vectors():
        for i in env.agents:
            for b_i in env.type_spaces[i]:
                if b_i == t[i]:
                    continue
                adv = dm.truth_advantage(env, P, i, t, b_i)
                assert adv >= floor  # exact rationals on both sides


def test_truth_advantage_is_never_negative():
    inst = dm.build_grid_env(2, 3, 2)
    env = inst.env
    P = dm.uniform_histogram_commitment(inst)
    for t in env.type_vectors():
        for b_i in env.type_spaces[0]:
            assert dm.truth_advantage(env, P, 0, t, b_i) >= 0


def test_verify_corollary1_passes_nontrivial():
    inst = dm.build_grid_env(3, 2, 2)
    P = dm.dyad_facility_commitment(inst)
    reports = dm.verify_corollary1(inst.env, P)
    assert reports["expost_nash"].passed
    assert reports["strictly_dominant"].passed


def test_verify_corollary1_rejects_trivial_single_facility():
    # K = 1: one imposed facility never separates types, gap is 0
    inst = dm.build_grid_env(3, 2, 1)
    assert dm.compute_gap(inst.env).gamma == 0
    P = dm.uniform_histogram_commitment(inst)
    with pytest.raises(dm.NotNonTrivial):
        dm.verify_corollary1(inst.env, P)


@pytest.mark.parametrize("b", [(0, 7), (0,), (0, 0, 0)])
def test_commitment_announcement_outside_the_type_space_rejected(b):
    inst = dm.build_grid_env(2, 2, 2)
    mech = dm.commitment_mechanism(dm.uniform_histogram_commitment(inst), inst.env)
    with pytest.raises(ValueError, match="not a type vector"):
        mech(b)
