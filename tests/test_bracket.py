"""Bracket tables, grading, triangular classes, Cartan data."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from chainalg import (
    AlgebraParams,
    TriangularClass,
    bracket,
    cartan_commutes,
    classify,
    element,
    gen_f,
    gen_l,
    gen_r,
    gen_s,
    grade,
    is_root_vector,
)
from chainalg.basis import (
    enumerate_generators,
    in_b0,
    in_b4,
    to_b0,
    to_b0_gen,
    to_b4,
    to_b4_gen,
)
from chainalg.bracket import (
    _TABLE,
    _ff,
    _fl,
    _fs,
    _ll,
    _lr,
    _ls,
    _ss,
    bracket_gen,
    index_words,
    is_extended_sigma,
)
from chainalg.chains import Chain, act, all_chains, chain_state, equal_on_chains
from chainalg.core import (
    KIND_F,
    KIND_L,
    KIND_R,
    KIND_S,
    Combination,
    Generator,
    charge,
    mirror,
    mirror_gen,
    omega,
    omega_gen,
    render_element,
)
from chainalg.checks import (
    commutator_of_actions_ok,
    random_element,
    random_generator,
    suite_jacobi,
)
from padded_sums import padded

P21 = AlgebraParams(2, 1)
P22 = AlgebraParams(2, 2)


def test_whole_chain_pair_bracket():
    a = element(P21, gen_f(1, 1, 1, 1, (1,), (2,)))
    b = element(P21, gen_f(1, 1, 1, 1, (2,), (1,)))
    expect = element(
        P21,
        (1, gen_f(1, 1, 1, 1, (1,), (1,))),
        (-1, gen_f(1, 1, 1, 1, (2,), (2,))),
    )
    assert bracket(a, b) == expect


def test_bracket_with_itself_vanishes():
    rng = random.Random(2)
    for _ in range(50):
        a = random_element(rng, P22)
        assert to_b0(bracket(a, a)).is_zero()


def test_length_counter_bracket_with_inserter():
    counter = element(P21, gen_s((), ()))
    inserter = element(P21, gen_s((1,), ()))
    out = bracket(counter, inserter)
    assert to_b0(out) == to_b0(inserter)
    assert equal_on_chains(out, inserter, 4)


def test_antisymmetry_in_canonical_form():
    rng = random.Random(3)
    for _ in range(150):
        a = element(P22, random_generator(rng, P22))
        b = element(P22, random_generator(rng, P22))
        assert to_b0(bracket(a, b) + bracket(b, a)).is_zero()


def test_jacobi_in_canonical_form():
    rng = random.Random(4)
    for _ in range(60):
        a = element(P22, random_generator(rng, P22))
        b = element(P22, random_generator(rng, P22))
        c = element(P22, random_generator(rng, P22))
        jac = (
            bracket(bracket(a, b), c)
            + bracket(bracket(b, c), a)
            + bracket(bracket(c, a), b)
        )
        assert to_b0(jac).is_zero()


def test_bracket_is_graded():
    rng = random.Random(5)
    for _ in range(100):
        g1 = random_generator(rng, P22)
        g2 = random_generator(rng, P22)
        for h in bracket_gen(g1, g2, P22).keys():
            assert grade(h) == grade(g1) + grade(g2)


def test_bracket_matches_commutator_of_actions():
    rng = random.Random(6)
    for _ in range(80):
        a = element(P22, random_generator(rng, P22))
        b = element(P22, random_generator(rng, P22))
        assert commutator_of_actions_ok(a, b, 3)


def test_commutator_of_actions_rejects_a_negative_length():
    # a negative length would probe no chain and pass any pair
    a, b = element(P22, gen_s((1,), (2,))), element(P22, gen_s((2,), (1,)))
    assert commutator_of_actions_ok(a, b, 0)
    with pytest.raises(ValueError, match="^max_len must be at least 0, got -1$"):
        commutator_of_actions_ok(a, b, -1)


def test_whole_chain_operators_form_an_ideal():
    rng = random.Random(8)
    for _ in range(100):
        g = random_generator(rng, P22)
        f = random_generator(rng, P22)
        while f.kind != "f":
            f = random_generator(rng, P22)
        for h in bracket_gen(f, g, P22).keys():
            assert h.kind == "f"


def test_raising_and_lowering_close_under_bracket():
    rng = random.Random(9)
    found = 0
    while found < 60:
        g1 = random_generator(rng, P22)
        g2 = random_generator(rng, P22)
        if classify(g1) is not TriangularClass.RAISING:
            continue
        if classify(g2) is not TriangularClass.RAISING:
            continue
        found += 1
        for h in bracket_gen(g1, g2, P22).keys():
            assert classify(h) is TriangularClass.RAISING
    found = 0
    while found < 60:
        g1 = random_generator(rng, P22)
        g2 = random_generator(rng, P22)
        if classify(g1) is not TriangularClass.LOWERING:
            continue
        if classify(g2) is not TriangularClass.LOWERING:
            continue
        found += 1
        for h in bracket_gen(g1, g2, P22).keys():
            assert classify(h) is TriangularClass.LOWERING


def test_classify_examples():
    assert classify(gen_f(1, 1, 1, 1, (1,), ())) is TriangularClass.RAISING
    assert classify(gen_s((2,), (1,))) is TriangularClass.RAISING
    assert classify(gen_f(1, 1, 1, 1, (1,), (1,))) is TriangularClass.DIAGONAL
    assert classify(gen_s((1,), (2,))) is TriangularClass.LOWERING
    assert classify(gen_s((), (1,))) is TriangularClass.LOWERING
    assert classify(gen_s((), ())) is TriangularClass.DIAGONAL
    # grade zero, flavor word decides
    assert classify(gen_l(2, 1, (1,), (1,))) is TriangularClass.RAISING
    assert classify(gen_r(1, 2, (1,), (1,))) is TriangularClass.LOWERING


def test_root_vector_detection():
    e = element(P21, gen_f(1, 1, 1, 1, (1,), (2,)))
    data = is_root_vector(e)
    assert data is not None
    (h_up, ev_up), (h_dn, ev_dn) = data
    assert h_up == gen_f(1, 1, 1, 1, (1,), (1,)) and ev_up == 1
    assert h_dn == gen_f(1, 1, 1, 1, (2,), (2,)) and ev_dn == -1
    # eigen equations hold in canonical form
    for h, ev in data:
        lhs = bracket(element(P21, h), e)
        assert to_b0(lhs - e.scaled(ev)).is_zero()
    assert is_root_vector(element(P21, gen_s((1,), (2,)))) is None
    assert is_root_vector(element(P21, gen_f(1, 1, 1, 1, (1,), (1,)))) is None
    two = element(P21, gen_f(1, 1, 1, 1, (1,), (2,)), gen_f(1, 1, 1, 1, (2,), (1,)))
    assert is_root_vector(two) is None


def test_root_vector_characterization_random():
    rng = random.Random(10)
    for _ in range(120):
        g = random_generator(rng, P22)
        data = is_root_vector(element(P22, (2, g)))
        up, lo = index_words(g)
        if g.kind == "f" and up != lo:
            assert data is not None
        else:
            assert data is None


def test_cartan_commutes():
    assert cartan_commutes(gen_s((1,), (1,)), gen_s((2,), (2,)), P21)
    assert cartan_commutes(gen_f(1, 1, 1, 1, (), ()), gen_s((1,), (1,)), P21)
    g = gen_s((1, 2), (1, 2))
    assert cartan_commutes(g, g, P21)
    with pytest.raises(ValueError):
        cartan_commutes(gen_s((1,), (2,)), g, P21)


def _mirror_state(state):
    return Combination.from_items(
        state.params, ((Chain(c.right, c.body[::-1], c.left), v) for c, v in state)
    )


def test_chain_reversal_is_an_automorphism_exhaustive():
    # the right-end bracket rows and b0 rules are derived through mirror_gen;
    # this checks the symmetry they rely on exactly, not up to canonical form
    for params in (AlgebraParams(1, 2), AlgebraParams(2, 1), P22):
        gens = list(enumerate_generators(params, 2))
        chains = list(all_chains(params, 3))
        for a in gens:
            ma = mirror_gen(a)
            assert mirror_gen(ma) == a
            assert to_b0_gen(ma, params) == mirror(to_b0_gen(a, params))
            ea, ema = Combination.term(params, a), Combination.term(params, ma)
            for c in chains:
                psi = chain_state(params, c)
                assert act(ema, _mirror_state(psi)) == _mirror_state(act(ea, psi))
            if is_extended_sigma(a):
                continue
            for b in gens:
                if not is_extended_sigma(b):
                    assert bracket_gen(ma, mirror_gen(b), params) == mirror(
                        bracket_gen(a, b, params)
                    )
            bracket_gen.cache_clear()  # keeps one a's rows: at most 1,435 at (2, 2)


def test_charge_is_a_grading():
    # gram_matrix pairs only words of equal charge: brackets must add
    # charges, omega must negate them and diagonal letters must carry none
    gens = list(enumerate_generators(P22, 2))
    diagonal = 0
    for g in gens:
        assert charge(omega_gen(g)) == tuple((k, -n) for k, n in charge(g))
        if classify(g) is TriangularClass.DIAGONAL:
            diagonal += 1
            assert charge(g) == ()
    assert diagonal
    sized = [(g, len(g.upper) + len(g.lower)) for g in gens]
    for x, nx in sized:
        for y, ny in sized:
            if nx + ny > 2:
                continue
            e = bracket_gen(x, y, P22)
            if e:
                want = charge(x, y)
                for z in list(e.keys()) + list(to_b4(e).keys()):
                    assert charge(z) == want


def _size(g):
    return len(g.upper) + len(g.lower)


def test_omega_is_an_anti_automorphism_exhaustive():
    # each bracket row writes only the half where a's lower data meets b's
    # upper data and derives the other through omega; both bases are
    # omega-invariant, so their rewrites must commute with omega exactly
    for params, max_size in ((AlgebraParams(1, 2), 2), (P22, 3)):
        gens = list(enumerate_generators(params, max_size))
        for g in gens:
            w = omega_gen(g)
            assert omega_gen(w) == g
            assert in_b0(w) == in_b0(g) and in_b4(w) == in_b4(g)
            assert to_b0_gen(w, params) == omega(to_b0_gen(g, params))
            assert to_b4_gen(w, params) == omega(to_b4_gen(g, params))
        sized = [(g, _size(g)) for g in gens if _size(g) <= 2]
        for a, na in sized:
            wa = omega_gen(a)
            for b, nb in sized:
                if params == P22 and na + nb > 2:
                    continue
                assert bracket_gen(omega_gen(b), wa, params) == omega(bracket_gen(a, b, params))
        bracket_gen.cache_clear()


def _bracket_golden_pairs():
    # (colors, flavors), largest index size of each generator, largest combined size
    for (colors, flavors), each, combined in (
        ((1, 1), 4, 8),
        ((2, 1), 2, 4),
        ((1, 2), 2, 4),
        ((2, 2), 2, 2),
    ):
        params = AlgebraParams(colors, flavors)
        gens = list(enumerate_generators(params, each))
        for a in gens:
            for b in gens:
                if _size(a) + _size(b) <= combined:
                    yield params, a, b


def _bracket_golden_lines():
    for params, a, b in _bracket_golden_pairs():
        out = render_element(bracket_gen(a, b, params))
        yield f"{params.colors},{params.flavors} {a!r} {b!r} {out}"


def test_bracket_table_golden():
    # every row, s-s overlaps included (61,349 pairs); the digest was
    # recorded with both halves of every row written out
    lines = list(_bracket_golden_lines())
    bracket_gen.cache_clear()
    assert len(lines) == 61349
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b2df100fab49f675f7fbd671496e91b7f6aa44b44acf4949eb1b098b740fbf57"


# The hand enumeration of overlap shapes that the offset rule (_meet, _agree)
# replaces, kept as the reference: every split of J and K into pieces, with
# the pieces that must be nonempty flagged.
def _splits2(seq, ne1=False, ne2=False):
    lo = 1 if ne1 else 0
    hi = len(seq) - (1 if ne2 else 0)
    for cut in range(lo, hi + 1):
        yield seq[:cut], seq[cut:]


def _splits3(seq, ne=(True, True, True)):
    n = len(seq)
    lo1 = 1 if ne[0] else 0
    for c1 in range(lo1, n + 1):
        lo2 = c1 + 1 if ne[1] else c1
        hi2 = n - (1 if ne[2] else 0)
        for c2 in range(lo2, hi2 + 1):
            yield seq[:c1], seq[c1:c2], seq[c2:]


def _ref_fl(I, J, fa, K, L, fb):
    a1, a2, a3, a4 = fa
    b1, b2 = fb
    if b1 == a2:
        for j1, j2 in _splits2(J):
            if j1 == K:
                yield KIND_F, I, L + j2, (a1, b2, a3, a4)


def _ref_fs(I, J, fa, K, L, fb):
    for j1, j2, j3 in _splits3(J, ne=(False, True, False)):
        if j2 == K:
            yield KIND_F, I, j1 + L + j3, fa


def _ref_ll(I, J, fa, K, L, fb):
    a1, a2 = fa
    b1, b2 = fb
    if b1 != a2:
        return
    if K == J:
        yield KIND_L, I, L, (a1, b2)
    for j1, j2 in _splits2(J, ne2=True):
        if j1 == K:
            yield KIND_L, I, L + j2, (a1, b2)
    for k1, k2 in _splits2(K, ne2=True):
        if k1 == J:
            yield KIND_L, I + k2, L, (a1, b2)


def _ref_lr(I, J, fa, K, L, fb):
    for j1, j2 in _splits2(J):
        for k1, k2 in _splits2(K):
            if k1 == j2:
                yield KIND_F, I + k2, j1 + L, fa + fb


def _ref_ls(I, J, fa, K, L, fb):
    if J == K:
        yield KIND_L, I, L, fa
    for k1, k2 in _splits2(K, ne1=True, ne2=True):
        if k1 == J:
            yield KIND_L, I + k2, L, fa
    for j1, j2 in _splits2(J, ne1=True, ne2=True):
        if j2 == K:
            yield KIND_L, I, j1 + L, fa
        if j1 == K:
            yield KIND_L, I, L + j2, fa
    for j1, j2 in _splits2(J, ne1=True, ne2=True):
        for k1, k2 in _splits2(K, ne1=True, ne2=True):
            if k1 == j2:
                yield KIND_L, I + k2, j1 + L, fa
    for j1, j2, j3 in _splits3(J):
        if j2 == K:
            yield KIND_L, I, j1 + L + j3, fa


def _ref_ss(I, J, fa, K, L, fb):
    if K == J:
        yield KIND_S, I, L, ()
    for j1, j2 in _splits2(J, ne1=True, ne2=True):
        if K == j2:
            yield KIND_S, I, j1 + L, ()
        if K == j1:
            yield KIND_S, I, L + j2, ()
    for k1, k2 in _splits2(K, ne1=True, ne2=True):
        if k1 == J:
            yield KIND_S, I + k2, L, ()
        if k2 == J:
            yield KIND_S, k1 + I, L, ()
    for j1, j2 in _splits2(J, ne1=True, ne2=True):
        for k1, k2 in _splits2(K, ne1=True, ne2=True):
            if k1 == j2:
                yield KIND_S, I + k2, j1 + L, ()
            if k2 == j1:
                yield KIND_S, k1 + I, L + j2, ()
    for j1, j2, j3 in _splits3(J):
        if K == j2:
            yield KIND_S, I, j1 + L + j3, ()
    for k1, k2, k3 in _splits3(K):
        if k2 == J:
            yield KIND_S, k1 + I + k3, L, ()


# The slow path that the field-tuple rows replace, on the reference halves:
# every term of a half is wrapped in a Generator, omega_gen and mirror_gen act
# on whole generators, and the +1/-1 terms are summed by Combination.from_items.
_REFERENCE_ROWS = {  # (a.kind, b.kind): (half, row derived through mirror_gen)
    (KIND_F, KIND_F): (_ff, False),
    (KIND_F, KIND_L): (_ref_fl, False),
    (KIND_F, KIND_R): (_ref_fl, True),
    (KIND_F, KIND_S): (_ref_fs, False),
    (KIND_L, KIND_L): (_ref_ll, False),
    (KIND_L, KIND_R): (_ref_lr, False),
    (KIND_L, KIND_S): (_ref_ls, False),
    (KIND_R, KIND_R): (_ref_ll, True),
    (KIND_R, KIND_S): (_ref_ls, True),
    (KIND_S, KIND_S): (_ref_ss, False),
}


def _half_terms(half, a, b):
    return [Generator(*t) for t in half(a.upper, a.lower, a.flavors, b.upper, b.lower, b.flavors)]


def _reference_row(half, a, b, params):
    items = [(g, 1) for g in _half_terms(half, a, b)]
    items += [(omega_gen(g), -1) for g in _half_terms(half, omega_gen(a), omega_gen(b))]
    return Combination.from_items(params, items)


def _reference_bracket_gen(a, b, params):
    if is_extended_sigma(a):
        return _reference_bracket(padded(a, params, right=False), element(params, b), params)
    if is_extended_sigma(b):
        return _reference_bracket(element(params, a), padded(b, params, right=False), params)
    if (a.kind, b.kind) not in _REFERENCE_ROWS:
        return -_reference_bracket_gen(b, a, params)
    half, mirrored = _REFERENCE_ROWS[a.kind, b.kind]
    if mirrored:
        return mirror(_reference_row(half, mirror_gen(a), mirror_gen(b), params))
    return _reference_row(half, a, b, params)


def _reference_bracket(ea, eb, params):
    return Combination.from_items(params, (
        t for x, c1 in ea for y, c2 in eb
        for t in _reference_bracket_gen(x, y, params).scaled(c1 * c2)
    ))


# (offset-rule half, reference half, flavor count of a, of b, whether a's and
# b's words may be empty): f and l words may be empty, s words may not
_HALF_PAIRS = {
    "fl": (_fl, _ref_fl, 4, 2, True, True),
    "fs": (_fs, _ref_fs, 4, 0, True, False),
    "ll": (_ll, _ref_ll, 2, 2, True, True),
    "lr": (_lr, _ref_lr, 2, 2, True, True),
    "ls": (_ls, _ref_ls, 2, 0, True, False),
    "ss": (_ss, _ref_ss, 0, 0, False, False),
}
_PERIODIC_WORDS = ((1,), (1, 1), (1, 2, 1), (1, 1, 1, 1), (1, 2, 1, 2, 1), (2, 1, 2, 1, 2, 1))


@pytest.mark.parametrize("name", list(_HALF_PAIRS))
def test_offset_halves_match_the_split_enumeration(name):
    # as Counters of field tuples, so a repeated term cannot hide behind a
    # cancellation in the row
    half, ref, n_fa, n_fb, a_empty, b_empty = _HALF_PAIRS[name]
    rng = random.Random(name)

    def word(may_be_empty):
        return tuple(rng.choice((1, 2)) for _ in range(rng.randint(0 if may_be_empty else 1, 6)))

    def flavors(n):
        return tuple(rng.choice((1, 2)) for _ in range(n))

    cases = [
        (word(a_empty), J, flavors(n_fa), K, word(b_empty), flavors(n_fb))
        for J in _PERIODIC_WORDS + ((),) * a_empty
        for K in _PERIODIC_WORDS + ((),) * b_empty
    ]
    cases += [
        (word(a_empty), word(a_empty), flavors(n_fa), word(b_empty), word(b_empty), flavors(n_fb))
        for _ in range(1500)
    ]
    terms = multiple = 0
    for fields in cases:
        got = Counter(half(*fields))
        assert got == Counter(ref(*fields)), fields
        terms += sum(got.values())
        multiple += len(got) > 1
    assert terms > 150 and (multiple > 20 or name in ("fl", "ll"))


@pytest.mark.parametrize(
    "params", [AlgebraParams(3, 2), AlgebraParams(2, 3)], ids=["3-colors", "3-flavors"]
)
def test_field_tuple_rows_match_the_generator_reference(params):
    # beyond the golden's range: three colors or three flavors, sequences up
    # to length 3, extended interior operators included
    rng = random.Random(params.colors * 10 + params.flavors)
    extended = nonzero = 0
    bracket_gen.cache_clear()
    try:
        for _ in range(3000):
            a = random_generator(rng, params, max_seq=3)
            b = random_generator(rng, params, max_seq=3)
            got = bracket_gen(a, b, params)
            assert got == _reference_bracket_gen(a, b, params), (a, b)
            extended += is_extended_sigma(a) or is_extended_sigma(b)
            nonzero += bool(got)
    finally:
        bracket_gen.cache_clear()
    assert extended > 50 and nonzero > 500


def test_bracket_rows_have_integer_coefficients():
    # bracket reads each row coefficient's numerator: over the golden's pairs,
    # extended interior operators included, every row is integral
    bracket_gen.cache_clear()
    try:
        pairs = 0
        for params, a, b in _bracket_golden_pairs():
            pairs += 1
            row = bracket_gen(a, b, params)
            assert all(c.denominator == 1 for c in row.terms.values()), (a, b)
    finally:
        bracket_gen.cache_clear()
    assert pairs == 61349


def test_bracket_memo_is_bounded_with_one_entry_per_row():
    # the rows of an extended interior operator's padding pairs are summed
    # inside its own row and take no memo entries; a pair in reversed kind
    # order also stores the table-order row it negates
    assert bracket_gen.cache_info().maxsize == 1 << 14
    s_, s_1 = gen_s((), ()), gen_s((1,), ())
    l_1, l1_ = gen_l(1, 2, (), (1,)), gen_l(1, 2, (1,), ())
    f_1 = gen_f(1, 2, 2, 1, (), (1,))
    try:
        for a, b, entries in ((s_, s_1, 1), (l_1, s_1, 1), (l1_, f_1, 2)):
            bracket_gen.cache_clear()
            row = bracket_gen(a, b, P22)
            assert bracket_gen.cache_info().currsize == entries, (a, b)
        assert bracket_gen(f_1, l1_, P22) == -row
        assert bracket_gen.cache_info().hits == 1
    finally:
        bracket_gen.cache_clear()


_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 2**61 - 1)


def _random_rational_element(rng, params, extended=None):
    """1-4 random terms with signed fractional coefficients; optionally one more
    term on the given extended interior operator."""
    items = [
        (random_generator(rng, params, max_seq=3),
         Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(_DENOMINATORS)))
        for _ in range(rng.randint(1, 4))
    ]
    if extended is not None:
        items.append((extended, Fraction(-5, 2**61 - 1)))
    return Combination.from_items(params, items)


@pytest.mark.parametrize(
    "params", [P22, AlgebraParams(3, 2), AlgebraParams(2, 3)], ids=["2-2", "3-2", "2-3"]
)
def test_bracket_matches_the_reference_sum(params):
    # the integer-numerator sum over one common denominator against the
    # from_items sum of scaled reference rows that it replaces
    rng = random.Random(params.colors * 10 + params.flavors + 7)
    zero = Combination.zero(params)
    cases = [(zero, zero)]
    for _ in range(120):
        a, b = _random_rational_element(rng, params), _random_rational_element(rng, params)
        cases += [(a, b), (a, zero), (zero, b), (a, a)]
    for g in (gen_s((), ()), gen_s((1,), ()), gen_s((), (params.colors, 1))):
        for h in (gen_s((), ()), gen_s((params.colors,), ()), gen_s((), (1,))):
            a = _random_rational_element(rng, params, extended=g)
            b = _random_rational_element(rng, params, extended=h)
            cases += [(a, b), (b, a)]
    bracket_gen.cache_clear()
    both_extended = big_denominators = nonzero = 0
    try:
        for a, b in cases:
            got = bracket(a, b)
            assert got == _reference_bracket(a, b, params), (a, b)
            assert all(type(c) is Fraction and c != 0 for c in got.terms.values()), (a, b)
            both_extended += any(map(is_extended_sigma, a.keys())) and any(
                map(is_extended_sigma, b.keys()))
            big_denominators += any(c.denominator % (2**61 - 1) == 0 for c in got.terms.values())
            nonzero += bool(got)
    finally:
        bracket_gen.cache_clear()
    assert both_extended > 30 and big_denominators > 40 and nonzero > 100


def test_jacobi_suite_detects_a_broken_row(monkeypatch):
    # the suite computes bracket(a, b) once for both antisymmetry and the Jacobi
    # sum; the (l, s) row without its omega half must still make it fail
    bracket_gen.cache_clear()
    assert suite_jacobi(P22, seed=101, cases=200)[0]
    assert suite_jacobi(P22, seed=202, cases=200)[0]
    half_only = lambda a, b: ((t, 1) for t in _ls(*a[1:], *b[1:]))  # noqa: E731
    monkeypatch.setitem(_TABLE, (KIND_L, KIND_S), half_only)
    bracket_gen.cache_clear()
    try:
        ok, lines = suite_jacobi(P22, seed=101, cases=200)
    finally:
        bracket_gen.cache_clear()
    assert not ok, lines
