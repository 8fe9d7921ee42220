"""Defining representation, tensor powers, symmetrizers, action oracle."""

import random

import pytest

from chainalg import (
    AlgebraParams,
    Combination,
    act,
    act_tensor,
    bracket,
    chain,
    chain_state,
    element,
    equal_on_chains,
    gen_f,
    gen_l,
    gen_r,
    gen_s,
    grade,
    inner_chain,
    lowest_weight_vector_concrete,
    omega,
    tensor_state,
    young_project,
)
from chainalg.basis import enumerate_generators, in_b4
from chainalg.bracket import TriangularClass, classify, sigma_left_expansion, sigma_right_expansion
from chainalg.chains import all_chains, young_scalar
from chainalg.checks import random_element, random_generator
P21 = AlgebraParams(2, 1)
P22 = AlgebraParams(2, 2)


def test_interior_action_sums_over_occurrences():
    psi = chain_state(P21, chain(1, (2, 2), 1))
    out = act(element(P21, gen_s((1,), (2,))), psi)
    assert out == Combination.from_items(
        P21, [(chain(1, (1, 2), 1), 1), (chain(1, (2, 1), 1), 1)]
    )


def test_length_counter_action():
    psi = chain_state(P21, chain(1, (1, 2), 1))
    out = act(element(P21, gen_s((), ())), psi)
    assert out == psi.scaled(3)


def test_left_end_action_on_empty_body():
    psi = chain_state(P22, chain(1, (), 1))
    out = act(element(P22, gen_l(2, 1, (1,), ())), psi)
    assert out == chain_state(P22, chain(2, (1,), 1))


def test_inserter_and_deleter_actions():
    psi = chain_state(P21, chain(1, (2,), 1))
    ins = act(element(P21, gen_s((1,), ())), psi)
    assert ins == Combination.from_items(
        P21, [(chain(1, (1, 2), 1), 1), (chain(1, (2, 1), 1), 1)]
    )
    dele = act(element(P21, gen_s((), (2,))), psi)
    assert dele == chain_state(P21, chain(1, (), 1))


def test_tensor_action_is_a_derivation():
    v = chain(1, (), 1)
    vv = tensor_state(P21, (v, v))
    assert act_tensor(element(P21, gen_s((), ())), vv) == vv.scaled(2)
    assert act_tensor(element(P21, gen_f(1, 1, 1, 1, (), ())), vv) == vv.scaled(2)
    zero = Combination.zero(P21)
    assert act_tensor(element(P21, gen_s((1,), ())), zero).is_zero()


def test_young_project_examples():
    v = chain(1, (), 1)
    vv = tensor_state(P21, (v, v))
    assert young_project(vv, (1, 1)).is_zero()
    assert young_project(vv, (2,)) == vv.scaled(2)
    single = tensor_state(P21, (v,))
    assert young_project(single, (1,)) == single


def test_young_project_rejects_size_mismatch():
    v = chain(1, (), 1)
    with pytest.raises(ValueError):
        young_project(tensor_state(P21, (v, v)), (1,))


def test_young_rejects_non_partitions():
    v = chain(1, (), 1)
    for gamma in ((1, 2), (0,)):
        with pytest.raises(ValueError):
            young_scalar(gamma)
        with pytest.raises(ValueError):
            young_project(tensor_state(P21, (v,) * sum(gamma)), gamma)


def test_young_projector_scalar_and_invariance():
    w = chain(1, (1,), 1)
    v = chain(1, (), 1)
    psi = tensor_state(P21, (v, w, v))
    gamma = (2, 1)
    proj = young_project(psi, gamma)
    m = young_scalar(gamma)
    assert m == 3
    assert young_project(proj, gamma) == proj.scaled(m)
    rng = random.Random(12)
    for _ in range(10):
        e = random_element(rng, P21)
        moved = act_tensor(e, proj)
        # the image of the projector is an invariant subspace
        assert young_project(moved, gamma) == moved.scaled(m)


def test_inner_chain_examples():
    v = tensor_state(P21, (chain(1, (), 1),))
    w = tensor_state(P21, (chain(1, (1,), 1),))
    assert inner_chain(v, v) == 1
    assert inner_chain(v, w) == 0
    assert inner_chain(v.scaled(2) + w, v) == 2
    with pytest.raises(ValueError):
        inner_chain(v, tensor_state(P21, (chain(1, (), 1), chain(1, (), 1))))


def test_equal_on_chains_identity_instance():
    lhs = element(P21, gen_s((1,), (1,)))
    rhs = element(
        P21,
        gen_s((1, 1), (1, 1)),
        gen_s((2, 1), (2, 1)),
        gen_l(1, 1, (1,), (1,)),
    )
    assert equal_on_chains(lhs, rhs, 5)
    assert equal_on_chains(lhs, lhs, 2)
    assert not equal_on_chains(
        element(P21, gen_s((1,), (1,))), element(P21, gen_s((2,), (2,))), 2
    )


def test_interior_expansions_act_identically():
    rng = random.Random(13)
    for _ in range(20):
        g = random_generator(rng, P22)
        while g.kind != "s":
            g = random_generator(rng, P22)
        e = element(P22, g)
        assert equal_on_chains(e, sigma_left_expansion(g, P22), 4)
        assert equal_on_chains(e, sigma_right_expansion(g, P22), 4)


def test_action_is_a_homomorphism():
    rng = random.Random(14)
    for _ in range(40):
        a = random_element(rng, P22, max_terms=2)
        b = random_element(rng, P22, max_terms=2)
        br = bracket(a, b)
        for c in all_chains(P22, 3):
            psi = chain_state(P22, c)
            assert act(br, psi) == act(a, act(b, psi)) - act(b, act(a, psi))


def test_contravariance_of_inner_product():
    rng = random.Random(15)
    chains_pool = list(all_chains(P22, 2))
    for _ in range(60):
        e = random_element(rng, P22, max_terms=2)
        a = tensor_state(P22, (rng.choice(chains_pool),))
        b = tensor_state(P22, (rng.choice(chains_pool),))
        lhs = inner_chain(act_tensor(e, a), b)
        rhs = inner_chain(a, act_tensor(omega(e), b))
        assert lhs == rhs
        a2 = tensor_state(P22, (rng.choice(chains_pool), rng.choice(chains_pool)))
        b2 = tensor_state(P22, (rng.choice(chains_pool), rng.choice(chains_pool)))
        assert inner_chain(act_tensor(e, a2), b2) == inner_chain(a2, act_tensor(omega(e), b2))


def test_length_counter_commutes_with_grade_zero():
    rng = random.Random(16)
    counter = element(P22, gen_s((), ()))
    for c in all_chains(P22, 3):
        psi = chain_state(P22, c)
        assert act(counter, psi) == psi.scaled(len(c.body) + 1)
    for _ in range(30):
        g = random_generator(rng, P22)
        if grade(g) != 0:
            continue
        e = element(P22, g)
        for c in all_chains(P22, 3):
            psi = chain_state(P22, c)
            assert act(counter, act(e, psi)) == act(e, act(counter, psi))


def test_concrete_lowest_weight_vectors():
    assert lowest_weight_vector_concrete((1,), P21) == tensor_state(
        P21, (chain(1, (), 1),)
    )
    v = chain(1, (), 1)
    assert lowest_weight_vector_concrete((2,), P21) == tensor_state(P21, (v, v)).scaled(2)
    got = lowest_weight_vector_concrete((1, 1), P22)
    u = chain(1, (), 2)
    expect = Combination.from_items(P22, [((v, u), 1), ((u, v), -1)])
    assert got == expect


def test_concrete_lowest_weight_vectors_are_annihilated_by_lowering():
    for params in (P21, P22):
        for gamma in ((1,), (2,), (1, 1)):
            vec = lowest_weight_vector_concrete(gamma, params)
            for g in enumerate_generators(params, 2):
                if not in_b4(g) or classify(g) is not TriangularClass.LOWERING:
                    continue
                assert act_tensor(element(params, g), vec).is_zero()


def test_concrete_lowest_weight_vector_diagonal_eigenvalues():
    from chainalg import weight_from_partition

    for params in (P21, P22):
        for gamma in ((1,), (2,), (1, 1)):
            vec = lowest_weight_vector_concrete(gamma, params)
            w = weight_from_partition(gamma, params)
            for g in enumerate_generators(params, 2):
                if not in_b4(g) or classify(g) is not TriangularClass.DIAGONAL:
                    continue
                out = act_tensor(element(params, g), vec)
                assert out == vec.scaled(w.diagonal_eigenvalue(g))
