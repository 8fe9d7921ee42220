"""Basis membership, rewriting soundness, exact independence."""

import hashlib
import random

import pytest

from chainalg import (
    AlgebraParams,
    element,
    equal_on_chains,
    gen_f,
    gen_l,
    gen_r,
    gen_s,
    in_b0,
    in_b4,
    independence_check_b0,
    to_b0,
    to_b4,
)
from chainalg.basis import (
    b4_rewrite_depth,
    enumerate_generators,
    to_b0_gen,
    to_b4_gen,
)
from chainalg.bracket import sigma_left_expansion, sigma_right_expansion
from chainalg.checks import random_element, random_generator
from chainalg.core import Combination, render_element

P11 = AlgebraParams(1, 1)
P21 = AlgebraParams(2, 1)
P22 = AlgebraParams(2, 2)


def test_b0_membership():
    assert in_b0(gen_s((1,), (2,)))
    assert not in_b0(gen_l(1, 1, (1,), (2,)))
    assert not in_b0(gen_f(1, 2, 1, 1, (), ()))
    assert in_b0(gen_f(1, 2, 2, 1, (), ()))
    assert in_b0(gen_r(2, 2, (), (1,)))
    # extended interior operators are basis members (they are not in the
    # span of the nonempty ones: nothing else acts on the empty body)
    assert in_b0(gen_s((), ()))
    assert in_b0(gen_s((1,), ()))


def test_b4_membership():
    assert in_b4(gen_s((), ()))
    assert in_b4(gen_s((1, 2), ()))
    assert in_b4(gen_s((), (2, 1)))
    assert not in_b4(gen_l(1, 1, (2, 1), (2, 1)))
    assert in_b4(gen_l(1, 1, (2,), (2,)))
    assert in_b4(gen_r(1, 2, (1,), ()))
    assert not in_b4(gen_r(1, 1, (1,), ()))
    assert not in_b4(gen_r(1, 1, (), ()))
    assert in_b4(gen_r(2, 1, (), ()))
    assert not in_b4(gen_s((1, 2), (1, 1)))
    assert not in_b4(gen_s((2, 1), (1, 1)))
    assert in_b4(gen_s((2, 1), (1, 2)))
    assert in_b4(gen_f(1, 1, 1, 1, (1,), (1,)))


def test_to_b0_left_end_example():
    got = to_b0(element(P21, gen_l(1, 1, (1,), (2,))), P21)
    expect = element(
        P21,
        (1, gen_s((1,), (2,))),
        (-1, gen_s((1, 1), (1, 2))),
        (-1, gen_s((2, 1), (2, 2))),
    )
    assert got == expect


def test_to_b0_fixes_basis_members():
    rng = random.Random(21)
    for _ in range(200):
        g = random_generator(rng, P22)
        if in_b0(g):
            assert to_b0(element(P22, g), P22) == element(P22, g)


def test_to_b0_whole_chain_unit_flavors():
    got = to_b0(element(P11, gen_f(1, 1, 1, 1, (), ())), P11)
    expect = element(
        P11,
        (1, gen_s((), ())),
        (-2, gen_s((1,), (1,))),
        (1, gen_s((1, 1), (1, 1))),
    )
    assert got == expect


def test_to_b4_left_end_example():
    got = to_b4(element(P21, gen_l(1, 1, (2, 1), (2, 1))), P21)
    expect = element(
        P21,
        (1, gen_l(1, 1, (2,), (2,))),
        (-1, gen_l(1, 1, (2, 2), (2, 2))),
        (-1, gen_f(1, 1, 1, 1, (2,), (2,))),
    )
    assert got == expect


def test_to_b4_fixes_basis_members():
    rng = random.Random(22)
    for _ in range(200):
        g = random_generator(rng, P22)
        if in_b4(g):
            assert to_b4(element(P22, g), P22) == element(P22, g)


def test_to_b4_interior_case_against_action_oracle():
    p = AlgebraParams(3, 1)
    e = element(p, gen_s((1, 2), (1, 3)))
    out = to_b4(e, p)
    assert all(in_b4(g) for g in out.keys())
    assert equal_on_chains(e, out, 5)


def test_rewrites_preserve_action():
    rng = random.Random(23)
    for params in (P11, P21, P22):
        for _ in range(40):
            e = random_element(rng, params)
            b0 = to_b0(e, params)
            b4 = to_b4(e, params)
            assert all(in_b0(g) for g in b0.keys())
            assert all(in_b4(g) for g in b4.keys())
            assert equal_on_chains(e, b0, 6)
            assert equal_on_chains(e, b4, 6)


def test_rewrites_are_idempotent_and_consistent():
    rng = random.Random(24)
    for _ in range(60):
        e = random_element(rng, P22)
        b0 = to_b0(e, P22)
        b4 = to_b4(e, P22)
        assert to_b0(b0, P22) == b0
        assert to_b4(b4, P22) == b4
        assert to_b0(b4, P22) == b0


def _equal_pair(rng, params):
    """A pair of formally different expressions of one algebra element."""
    e = random_element(rng, params)
    items = list(e.items())
    g, c = items[rng.randrange(len(items))]
    if g.kind == "s":
        expand = rng.choice((sigma_left_expansion, sigma_right_expansion))(g, params)
    elif g.kind == "l":
        cands = [(gen_l(*g.flavors, g.upper + (j,), g.lower + (j,)), 1) for j in params.color_range()]
        cands += [
            (gen_f(g.flavors[0], g.flavors[1], m, m, g.upper, g.lower), 1)
            for m in params.flavor_range()
        ]
        expand = Combination.from_items(params, cands)
    elif g.kind == "r":
        cands = [(gen_r(*g.flavors, (i,) + g.upper, (i,) + g.lower), 1) for i in params.color_range()]
        cands += [
            (gen_f(m, m, g.flavors[0], g.flavors[1], g.upper, g.lower), 1)
            for m in params.flavor_range()
        ]
        expand = Combination.from_items(params, cands)
    else:
        return e, to_b4(e, params)
    return e, e - element(params, (c, g)) + expand.scaled(c)


def test_canonical_equality_decides_action_equality():
    rng = random.Random(25)
    for _ in range(40):
        e1, e2 = _equal_pair(rng, P21)
        assert to_b0(e1, P21) == to_b0(e2, P21)
        assert equal_on_chains(e1, e2, 6)
    for _ in range(40):
        e = random_element(rng, P21)
        g = random_generator(rng, P21)
        other = e + element(P21, (1, g))
        assert to_b0(other, P21) != to_b0(e, P21)
        assert not equal_on_chains(other, e, 6)


def test_rewrite_rejects_mismatched_params():
    # colour 2 is out of range at lambda=1: no silent relabelling
    e = element(P21, gen_l(1, 1, (2,), (2,)))
    for rewrite in (to_b0, to_b4):
        with pytest.raises(ValueError, match="mismatch"):
            rewrite(e, P11)
        assert rewrite(e, P21) == rewrite(e)


def test_rewrite_caches_are_clearable():
    # the b4 rewrite is the one memoised rewrite; b0 rewrites are not cached
    g = gen_l(1, 1, (2, 1), (2, 1))
    before = to_b4(element(P21, g))
    assert to_b4_gen.cache_info().currsize > 0
    to_b4_gen.cache_clear()
    assert to_b4_gen.cache_info().currsize == 0
    assert to_b4(element(P21, g)) == before


def test_to_b0_gen_rewrites_long_sequences():
    # a b0 rewrite takes at most two steps whatever the sequence length, so
    # 400 shared 1s raise no RecursionError
    g = gen_f(1, 1, 1, 1, (1,) * 400, (1,) * 400)
    out = to_b0_gen(g, P22)
    assert out.keys() and all(in_b0(t) for t in out.keys())


def test_b4_rewrite_depth_is_bounded():
    for params in (P21, P22):
        for g in enumerate_generators(params, 4):
            assert b4_rewrite_depth(g, params) <= len(g.upper) + len(g.lower) + 2
    rng = random.Random(26)
    for _ in range(100):
        g = random_generator(rng, P22, max_seq=3)
        assert b4_rewrite_depth(g, P22) <= len(g.upper) + len(g.lower) + 2


def test_independence_examples():
    assert independence_check_b0(P11, 1, 3)
    assert independence_check_b0(P11, 0, 2)
    assert independence_check_b0(P21, 2, 4)


def test_rewrites_golden():
    # to_b0_gen, to_b4_gen and b4_rewrite_depth of every generator of index
    # size <= 3 (1,671); the digest was recorded with every rule written out
    lines = []
    for params in (P22, AlgebraParams(1, 2), P21):
        for g in enumerate_generators(params, 3):
            b0 = render_element(to_b0_gen(g, params))
            b4 = render_element(to_b4_gen(g, params))
            depth = b4_rewrite_depth(g, params)
            lines.append(f"{params.colors},{params.flavors} {g!r} {b0} ; {b4} ; {depth}")
    assert len(lines) == 1671
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b0dce2f6b366e6a3835e21d515a782156d9412cbfcc9502a6c3e8c95d550fac7"


def test_b4_rewrites_golden_beyond_size3():
    # to_b4_gen of 5,178 generators: (2,2) at index size <= 4, (1,2) and (2,1)
    # at <= 5, (1,1) at <= 7; the digest was recorded while every leading-1
    # rule was written out and each step stripped one 1
    lines = []
    for params, size in ((P22, 4), (AlgebraParams(1, 2), 5), (P21, 5), (P11, 7)):
        for g in enumerate_generators(params, size):
            b4 = render_element(to_b4_gen(g, params))
            lines.append(f"{params.colors},{params.flavors} {g!r} {b4}")
    assert len(lines) == 5178
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9cfe009ce9a9a8e786f06324bdd0a6a9add920af7d1ab1a9f6c02fcbf40aca70"
