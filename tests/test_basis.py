"""Basis membership, rewriting soundness, exact independence."""

import hashlib
import itertools
import random
from functools import partial

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
    _action_gram,
    _b0_step,
    _b4_step,
    enumerate_b0,
    enumerate_generators,
    padding,
    to_b0_gen,
    to_b4_gen,
    whole_chain_sum,
)
from chainalg.checks import random_element, random_generator
from chainalg.core import (
    KIND_F,
    KIND_L,
    KIND_R,
    KIND_S,
    Combination,
    Element,
    Generator,
    all_seqs,
    congruence,
    mirror,
    mirror_gen,
    omega,
    omega_gen,
    render_element,
    trailing_ones,
)
from padded_sums import padded, reference_interior_sum, reference_left_end_sum

P11 = AlgebraParams(1, 1)
P21 = AlgebraParams(2, 1)
P22 = AlgebraParams(2, 2)


def b4_rewrite_depth(g: Generator, params: AlgebraParams) -> int:
    """Longest substitution chain taken while rewriting g into b4."""
    if in_b4(g):
        return 0
    return 1 + max((b4_rewrite_depth(h, params) for h in _b4_step(g, params).keys()), default=0)


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
    got = to_b0(element(P21, gen_l(1, 1, (1,), (2,))))
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
            assert to_b0(element(P22, g)) == element(P22, g)


def test_to_b0_whole_chain_unit_flavors():
    got = to_b0(element(P11, gen_f(1, 1, 1, 1, (), ())))
    expect = element(
        P11,
        (1, gen_s((), ())),
        (-2, gen_s((1,), (1,))),
        (1, gen_s((1, 1), (1, 1))),
    )
    assert got == expect


def test_to_b4_left_end_example():
    got = to_b4(element(P21, gen_l(1, 1, (2, 1), (2, 1))))
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
            assert to_b4(element(P22, g)) == element(P22, g)


def test_to_b4_interior_case_against_action_oracle():
    p = AlgebraParams(3, 1)
    e = element(p, gen_s((1, 2), (1, 3)))
    out = to_b4(e)
    assert all(in_b4(g) for g in out.keys())
    assert equal_on_chains(e, out, 5)


def test_rewrites_preserve_action():
    rng = random.Random(23)
    for params in (P11, P21, P22):
        for _ in range(40):
            e = random_element(rng, params)
            b0 = to_b0(e)
            b4 = to_b4(e)
            assert all(in_b0(g) for g in b0.keys())
            assert all(in_b4(g) for g in b4.keys())
            assert equal_on_chains(e, b0, 6)
            assert equal_on_chains(e, b4, 6)


def test_rewrites_are_idempotent_and_consistent():
    rng = random.Random(24)
    for _ in range(60):
        e = random_element(rng, P22)
        b0 = to_b0(e)
        b4 = to_b4(e)
        assert to_b0(b0) == b0
        assert to_b4(b4) == b4
        assert to_b0(b4) == b0


def _equal_pair(rng, params):
    """A pair of formally different expressions of one algebra element."""
    e = random_element(rng, params)
    items = list(e.items())
    g, c = items[rng.randrange(len(items))]
    if g.kind == "s":
        expand = padded(g, params, right=rng.choice((False, True)))
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
        return e, to_b4(e)
    return e, e - element(params, (c, g)) + expand.scaled(c)


def test_canonical_equality_decides_action_equality():
    rng = random.Random(25)
    for _ in range(40):
        e1, e2 = _equal_pair(rng, P21)
        assert to_b0(e1) == to_b0(e2)
        assert equal_on_chains(e1, e2, 6)
    for _ in range(40):
        e = random_element(rng, P21)
        g = random_generator(rng, P21)
        other = e + element(P21, (1, g))
        assert to_b0(other) != to_b0(e)
        assert not equal_on_chains(other, e, 6)


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


@pytest.mark.parametrize(
    "params, max_size, max_len",
    [(P11, 2, 1), (P11, 1, 0), (P21, 2, 1), (P22, 2, 1)],
    ids=["P11-2-1", "P11-1-0", "P21-2-1", "P22-2-1"],
)
def test_independence_fails_on_chains_too_short(params, max_size, max_len):
    # chains this short cannot separate the generators, so the rank falls short
    assert not independence_check_b0(params, max_size, max_len)


@pytest.mark.parametrize(
    "params, max_size, max_len",
    [(P11, 1, 3), (P21, 2, 4), (P11, 2, 1), (P22, 2, 1)],
    ids=["P11-1-3", "P21-2-4", "P11-2-1", "P22-2-1"],
)
def test_action_gram_is_semidefinite(params, max_size, max_len):
    n_pos, n_neg, radical = congruence(_action_gram(params, max_size, max_len))
    assert n_neg == 0
    assert n_pos + len(radical) == len(enumerate_b0(params, max_size))


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


def test_padding_rejects_a_closed_end():
    # f is closed at both ends, l at the left and r at the right; the padding
    # of a closed end would be a wrong identity, not an empty one
    for g, right in (
        (gen_f(1, 1, 1, 1, (1,), (1,)), True),
        (gen_f(1, 2, 2, 1, (), ()), False),
        (gen_l(1, 1, (1,), ()), False),
        (gen_r(2, 1, (), (2,)), True),
    ):
        with pytest.raises(ValueError, match="no open"):
            padding(g, P22, right)


def _open_ends(g):
    return [right for right, kind in ((True, KIND_L), (False, KIND_R)) if g.kind in (kind, KIND_S)]


@pytest.mark.parametrize(
    "params", [P11, P21, AlgebraParams(1, 2), P22], ids=lambda p: f"{p.colors},{p.flavors}"
)
def test_padding_acts_as_the_generator(params):
    # checked against the chain action itself, not against another rewrite
    checked = 0
    for g in enumerate_generators(params, 3):
        for right in _open_ends(g):
            pad = padded(g, params, right)
            assert len(pad) == params.colors + params.flavors
            assert equal_on_chains(element(params, g), pad, 5), (g, right)
            checked += 1
    assert checked


def _short(e, max_len):
    """The terms of e whose lower word has length <= max_len."""
    return Combination.from_items(e.params, ((g, c) for g, c in e if len(g.lower) <= max_len))


@pytest.mark.parametrize(
    "params", [P11, P21, AlgebraParams(1, 2), P22], ids=lambda p: f"{p.colors},{p.flavors}"
)
def test_whole_chain_sum_matches_the_written_out_sums(params):
    fl = params.flavor_range()
    pairs = [(up, lo) for up in all_seqs(params, 3) for lo in all_seqs(params, 3 - len(up))]
    for (up, lo), max_len in itertools.product(pairs, range(5)):
        for l1, l2 in itertools.product(fl, fl):
            _, left_end = reference_left_end_sum(params, l1, l2, up, lo, max_len)
            want = _short(left_end, max_len)
            assert whole_chain_sum(gen_l(l1, l2, up, lo), params, max_len) == want
            _, left_end = reference_left_end_sum(params, l1, l2, up[::-1], lo[::-1], max_len)
            want = mirror(_short(left_end, max_len))
            assert whole_chain_sum(gen_r(l1, l2, up, lo), params, max_len) == want
        interior = reference_interior_sum(up, lo, max_len, params)
        assert whole_chain_sum(gen_s(up, lo), params, max_len) == _short(interior, max_len)


# _b0_step and _b4_step as each rule was written out term by term before the
# rules became signed sums of the padding identity: the reference the steps
# are compared with, exactly

def _ref_b0_step(g: Generator, params: AlgebraParams) -> Element:
    """One substitution step for a generator outside b0."""
    if g.kind == KIND_R or (g.kind == KIND_F and g.flavors[2:] != (1, 1)):
        # (1,1) pair at the right end only: mirror image of the left-end case
        return mirror(_ref_b0_step(mirror_gen(g), params))
    up, lo = g.upper, g.lower
    colors, flavors = params.color_range(), params.flavor_range()
    if g.kind == KIND_L:
        # left-end operator with flavor pair (1,1)
        items = [(gen_s(up, lo), 1)]
        items += [(gen_s((i,) + up, (i,) + lo), -1) for i in colors]
        items += [(gen_l(m, m, up, lo), -1) for m in flavors if m >= 2]
    else:
        # whole-chain operator with right flavor pair (1,1)
        l1, l2 = g.flavors[:2]
        items = [(gen_l(l1, l2, up, lo), 1)]
        items += [(gen_l(l1, l2, up + (j,), lo + (j,)), -1) for j in colors]
        items += [(gen_f(l1, l2, m, m, up, lo), -1) for m in flavors if m >= 2]
    return Combination.from_items(params, items)


def _ref_b4_step(g: Generator, params: AlgebraParams) -> Element:
    """One substitution step for a generator outside b4."""
    up, lo = g.upper, g.lower
    if g.kind == KIND_R and lo and not up:
        # deleter with unit flavors: omega image of the inserter rule
        return omega(_ref_b4_step(omega_gen(g), params))
    if (g.kind == KIND_R and up and lo) or (g.kind == KIND_S and not (up[-1] == lo[-1] == 1)):
        # both sequences start with 1 (an interior operator strips trailing
        # 1s first): mirror image of the trailing-block rule
        return mirror(_ref_b4_step(mirror_gen(g), params))
    colors, flavors = params.color_range(), params.flavor_range()
    if g.kind == KIND_R and not up:
        # diagonal end operator with unit flavors
        items = [(gen_l(m, m, (), ()), 1) for m in flavors]
        items += [(gen_r(m, m, (), ()), -1) for m in flavors if m >= 2]
    elif g.kind == KIND_R:
        # upper sequence starts with 1, unit flavors
        core = up[1:]
        items = [(gen_s((1,) + core, ()), 1), (gen_s(core + (1,), ()), -1)]
        items += [(gen_s((i,) + core + (1,), (i,)), 1) for i in colors if i >= 2]
        items += [(gen_s((1,) + core + (j,), (j,)), -1) for j in colors if j >= 2]
        items += [(gen_l(m, m, core + (1,), ()), 1) for m in flavors]
        items += [(gen_r(m, m, (1,) + core, ()), -1) for m in flavors if m >= 2]
    else:
        # left-end or interior operator, both sequences end in 1: strip the
        # shared trailing 1-block at once; the chains whose body ends right
        # after the stripped prefix are caught by f (left end) or r (interior)
        if g.kind == KIND_L:
            l1, l2 = g.flavors
            op, cap = partial(gen_l, l1, l2), lambda m, u, v: gen_f(l1, l2, m, m, u, v)
        else:
            op, cap = gen_s, lambda m, u, v: gen_r(m, m, u, v)
        n = min(trailing_ones(up), trailing_ones(lo))
        bu, bl = up[:-n], lo[:-n]
        items = [(op(bu, bl), 1)]
        for p in range(n):
            u, v = bu + (1,) * p, bl + (1,) * p
            items += [(op(u + (j,), v + (j,)), -1) for j in colors if j >= 2]
            items += [(cap(m, u, v), -1) for m in flavors]
    return Combination.from_items(params, items)



def _one_block_generators(params, max_block):
    """l and s operators whose sequences end in a shared 1-block of length <= max_block."""
    for n in range(1, max_block + 1):
        for bu in all_seqs(params, 1):
            for bl in all_seqs(params, 1):
                up, lo = bu + (1,) * n, bl + (1,) * n
                yield gen_s(up, lo)
                for l1 in params.flavor_range():
                    for l2 in params.flavor_range():
                        yield gen_l(l1, l2, up, lo)


def test_steps_match_the_written_out_rules():
    sets = [(P22, enumerate_generators(P22, 4))]
    sets += [(p, enumerate_generators(p, 5)) for p in (AlgebraParams(1, 2), P21)]
    sets += [(P11, enumerate_generators(P11, 7)), (P22, _one_block_generators(P22, 12))]
    counts = [0, 0]
    for params, gens in sets:
        for g in gens:
            if not in_b0(g):
                assert _b0_step(g, params) == _ref_b0_step(g, params), g
                counts[0] += 1
            if not in_b4(g):
                assert _b4_step(g, params) == _ref_b4_step(g, params), g
                counts[1] += 1
    assert min(counts) > 1000
