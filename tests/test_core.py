"""Orderings, grading, anti-involution and exact element arithmetic."""

import dataclasses
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from chainalg import (
    AlgebraParams,
    Combination,
    element,
    gen_f,
    gen_key,
    gen_l,
    gen_r,
    gen_s,
    grade,
    omega,
    omega_gen,
    render_element,
)
from chainalg.basis import to_b4_gen
from chainalg.bracket import bracket_gen
from chainalg.checks import random_element, random_generator
from chainalg.cli import parse
from chainalg.core import seq_key

P21 = AlgebraParams(2, 1)
P22 = AlgebraParams(2, 2)


def seq_compare(a, b):
    """-1, 0 or +1 comparing index sequences under seq_key."""
    ka, kb = seq_key(tuple(a)), seq_key(tuple(b))
    return (ka > kb) - (ka < kb)


def gen_compare(x, y):
    """-1, 0 or +1 comparing generators under gen_key."""
    kx, ky = gen_key(x), gen_key(y)
    return (kx > ky) - (kx < ky)


def brute_seq_greater(a, b):
    """Literal transcription of the two sequence-ordering rules."""
    if len(a) > len(b):
        return True
    if len(a) == len(b) and len(a) != 0:
        for x, y in zip(a, b):
            if x != y:
                return x > y
    return False


def test_seq_compare_examples():
    assert seq_compare((1, 1), (2,)) == 1
    assert seq_compare((2, 1), (1, 2)) == 1
    assert seq_compare((), ()) == 0


def test_seq_compare_against_brute_force():
    seqs = [()]
    for n in (1, 2, 3):
        stack = [()]
        for _ in range(n):
            stack = [s + (i,) for s in stack for i in (1, 2)]
        seqs.extend(stack)
    for a in seqs:
        for b in seqs:
            expected = 1 if brute_seq_greater(a, b) else (-1 if brute_seq_greater(b, a) else 0)
            assert seq_compare(a, b) == expected


def test_gen_compare_examples():
    assert gen_compare(gen_s((1,), (2,)), gen_r(1, 1, (1,), (2,))) == 1
    assert gen_compare(gen_s((1, 2), (1,)), gen_s((1,), (1,))) == 1
    g = gen_f(1, 2, 1, 1, (1,), ())
    assert gen_compare(g, g) == 0


def test_gen_compare_kind_priority_chain():
    up, lo = (1,), (2,)
    s, r, l, f = (
        gen_s(up, lo),
        gen_r(1, 1, up, lo),
        gen_l(1, 1, up, lo),
        gen_f(1, 1, 1, 1, up, lo),
    )
    assert gen_compare(s, r) == gen_compare(r, l) == gen_compare(l, f) == 1


def test_gen_compare_flavor_tiebreak_uses_lower_pair_first():
    a = gen_l(1, 2, (1,), (1,))
    b = gen_l(2, 1, (1,), (1,))
    # lower flavor compares first: 2 > 1
    assert gen_compare(a, b) == 1
    x = gen_f(1, 1, 1, 2, (), ())
    y = gen_f(2, 1, 1, 1, (), ())
    # lower words equal (1,1) vs (1,1)? no: x lower=(1,2), y lower=(1,1)
    assert gen_compare(x, y) == 1


def test_gen_compare_total_order_random():
    rng = random.Random(11)
    gens = [random_generator(rng, P22) for _ in range(120)]
    for _ in range(400):
        x, y, z = rng.choice(gens), rng.choice(gens), rng.choice(gens)
        cxy, cyx = gen_compare(x, y), gen_compare(y, x)
        assert cxy == -cyx
        assert (cxy == 0) == (x == y)
        if gen_compare(x, y) >= 0 and gen_compare(y, z) >= 0:
            assert gen_compare(x, z) >= 0


def test_grade_examples():
    assert grade(gen_s((1, 2), (1,))) == 1
    assert grade(gen_f(1, 1, 1, 1, (), ())) == 0
    assert grade(gen_l(1, 1, (), (1, 1))) == -2


def test_omega_examples():
    assert omega_gen(gen_s((1,), (2,))) == gen_s((2,), (1,))
    e = element(P22, (3, gen_l(2, 1, (1,), ())))
    assert omega(e) == element(P22, (3, gen_l(1, 2, (), (1,))))
    rng = random.Random(5)
    for _ in range(50):
        x = random_element(rng, P22)
        assert omega(omega(x)) == x


def test_omega_negates_grade():
    rng = random.Random(6)
    for _ in range(100):
        g = random_generator(rng, P22)
        assert grade(omega_gen(g)) == -grade(g)


def test_element_vector_space_axioms():
    rng = random.Random(7)
    for _ in range(60):
        a = random_element(rng, P21)
        b = random_element(rng, P21)
        c = random_element(rng, P21)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        t = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert (a + b).scaled(s) == a.scaled(s) + b.scaled(s)
        assert a.scaled(s + t) == a.scaled(s) + a.scaled(t)
        assert a - a == Combination.zero(P21)


def test_map_is_the_termwise_sum():
    def fold(e, fn):
        total = Combination.zero(e.params)
        for k, c in e:
            total = total + fn(k).scaled(c)
        return total

    rng = random.Random(17)
    shared = gen_s((1,), (1,))
    x = random_generator(rng, P22)
    fns = (
        lambda g: element(P22, g, (Fraction(-1, 2), omega_gen(g))),
        lambda g: element(P22, (2, g), (-1, shared)),  # shared key in every part
        lambda g: bracket_gen(g, x, P22),
        lambda g: to_b4_gen(g, P22),
    )
    for _ in range(40):
        e = random_element(rng, P22, max_terms=4)
        for fn in fns:
            out = e.map(fn)
            assert out == fold(e, fn)
            assert all(type(c) is Fraction for c in out.terms.values())
        assert e.map(lambda g: element(P22, shared)).get(shared) == sum(c for _g, c in e)
    # parts that cancel store nothing
    cancel = element(P22, (Fraction(3, 2), gen_s((1,), ())), (Fraction(-3, 2), gen_s((2,), ())))
    out = cancel.map(lambda g: element(P22, shared, (2, gen_f(1, 2, 2, 1, (1,), ()))))
    assert out.is_zero() and out.terms == {}
    empty = Combination.zero(P22).map(lambda g: element(P22, g))
    assert empty.is_zero() and empty.params == P22


def test_scaled_by_one_is_the_same_object():
    e = element(P22, (Fraction(3, 2), gen_s((1,), ())), (-2, gen_l(1, 2, (), (2,))))
    assert e.scaled(1) is e and e.scaled(Fraction(1)) is e
    third = e.scaled(Fraction(1, 3))
    assert third is not e and third.terms is not e.terms
    assert third == element(
        P22, (Fraction(1, 2), gen_s((1,), ())), (Fraction(-2, 3), gen_l(1, 2, (), (2,)))
    )
    assert e.get(gen_s((1,), ())) == Fraction(3, 2)  # e itself unchanged


def test_generator_is_slotted_and_frozen():
    g = gen_f(1, 2, 2, 1, (1, 2), ())
    assert not hasattr(g, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.kind = "s"
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.upper = ()
    assert g != (g.kind, g.upper, g.lower, g.flavors)
    for text, built in (
        ("f(1,2;2,1)[1,2|]", g),
        ("l(2,1)[|2,2]", gen_l(2, 1, (), (2, 2))),
        ("r(1,1)[2|1]", gen_r(1, 1, (2,), (1,))),
        ("s[|]", gen_s((), ())),
    ):
        ((_, parsed),) = parse(text, P22).terms
        assert parsed == built and hash(parsed) == hash(built) and parsed is not built
        assert len({parsed, built}) == 1


def test_no_zero_coefficients_stored():
    g = gen_s((1,), (1,))
    e = element(P21, (1, g)) + element(P21, (-1, g))
    assert e.is_zero() and len(e) == 0


def test_param_mismatch_rejected():
    a = element(P21, gen_s((1,), (1,)))
    b = element(P22, gen_s((1,), (1,)))
    with pytest.raises(ValueError):
        _ = a + b


def test_render_is_sorted_and_elides_unit():
    e = element(
        P21,
        (1, gen_f(1, 1, 1, 1, (1,), (1,))),
        (-1, gen_f(1, 1, 1, 1, (2,), (2,))),
        (Fraction(3, 2), gen_s((1,), (1,))),
    )
    # lower sequence outranks kind in the ordering, so s[1|1] sits between
    assert render_element(e) == "f(1,1;1,1)[1|1] + 3/2*s[1|1] - f(1,1;1,1)[2|2]"


def test_gen_key_orders_by_grade_then_size_then_lower():
    assert gen_key(gen_s((1,), ())) > gen_key(gen_s((1,), (1,)))
    assert gen_key(gen_s((1, 1), (1,))) > gen_key(gen_s((1,), ()))
    assert gen_key(gen_s((1,), (2,))) < gen_key(gen_s((2,), (2,)))


# ---------------------------------------------------------------------------
# Combination stores a coefficient as is on a new key and adds only on a
# repeated one; these tests compare it with converting every input first


class _Sub(Fraction):
    """A Fraction subclass: its values must still be stored as plain Fractions."""


def _summed(items) -> dict:
    acc = {}
    for k, c in items:
        acc[k] = acc.get(k, Fraction(0)) + Fraction(c)
    return {k: c for k, c in acc.items() if c}


def _assert_stored(out, want: dict):
    assert out.terms == want
    assert all(type(c) is Fraction and c for c in out.terms.values())


def test_combination_fast_paths_match_converting_first():
    rng = random.Random(41)
    keys = [gen_s((i,), ()) for i in (1, 2)] + [gen_l(1, 2, (), (1,)), gen_f(1, 2, 2, 1, (), ())]
    coeffs = (0, 1, -2, 7, True, False, Fraction(0), Fraction(3, 4), Fraction(-3, 4),
              _Sub(1, 3), _Sub(-1, 3), _Sub(0), Fraction(1, 2**61 - 1))
    for _ in range(200):
        items = [(rng.choice(keys), rng.choice(coeffs)) for _ in range(rng.randint(0, 8))]
        more = [(rng.choice(keys), rng.choice(coeffs)) for _ in range(rng.randint(0, 8))]
        a, b = Combination.from_items(P22, items), Combination.from_items(P22, more)
        _assert_stored(a, _summed(items))
        _assert_stored(a + b, _summed(items + more))
        _assert_stored(b + a, _summed(items + more))
        _assert_stored(a - a, {})
    for c in coeffs:
        _assert_stored(Combination.term(P22, keys[0], c), _summed([(keys[0], c)]))
        _assert_stored(Combination(P22, {keys[0]: c}), _summed([(keys[0], c)]))
        _assert_stored(Combination.term(P22, keys[0]).scaled(c), _summed([(keys[0], c)]))


def test_combination_sums_repeated_keys_and_drops_cancelled_ones():
    g, h = gen_s((1,), (2,)), gen_r(2, 1, (1,), ())
    half = Fraction(1, 2)
    _assert_stored(Combination.from_items(P22, [(g, 1), (h, 2), (g, half)]), {g: 3 * half, h: 2})
    _assert_stored(Combination.from_items(P22, [(g, 1), (h, 2), (g, -1)]), {h: 2})
    _assert_stored(Combination.from_items(P22, [(g, half), (g, half)]), {g: 1})  # one object twice
    one = Combination.term(P22, g, half)
    _assert_stored(one + one, {g: 1})
    _assert_stored(one + Combination.term(P22, g, -half) + Combination.term(P22, h), {h: 1})


@pytest.mark.parametrize("bad", [0.5, 1.0, Decimal(1), Decimal("0.5")], ids=repr)
def test_combination_rejects_inexact_coefficients(bad):
    g = gen_s((1,), ())
    for build in (
        lambda: Combination.from_items(P22, [(g, 1), (g, bad)]),
        lambda: Combination.term(P22, g, bad),
        lambda: Combination(P22, {g: bad}),
        lambda: Combination.term(P22, g).scaled(bad),
    ):
        with pytest.raises(TypeError):
            build()


def _reference_random_generator(rng, params, max_seq=2):
    """The four-branch draw that checks.random_generator replaced."""
    def seq():
        n = rng.randint(0, max_seq)
        return tuple(rng.randint(1, params.colors) for _ in range(n))

    def fl():
        return rng.randint(1, params.flavors)

    kind = rng.randrange(4)
    if kind == 0:
        return gen_f(fl(), fl(), fl(), fl(), seq(), seq())
    if kind == 1:
        return gen_l(fl(), fl(), seq(), seq())
    if kind == 2:
        return gen_r(fl(), fl(), seq(), seq())
    return gen_s(seq(), seq())


@pytest.mark.parametrize("max_seq", [0, 1, 2, 3])
@pytest.mark.parametrize("colors,flavors", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_random_generator_matches_reference_draws(colors, flavors, max_seq):
    # every seeded test and the jacobi suite see the generators of the
    # four-branch draw: flavors first, then the upper and the lower sequence
    params = AlgebraParams(colors, flavors)
    seed = 1000 * colors + 100 * flavors + max_seq
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(2000):
        expected = _reference_random_generator(ref, params, max_seq)
        assert random_generator(ours, params, max_seq) == expected
