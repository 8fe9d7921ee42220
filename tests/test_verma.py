"""Normal ordering, contravariant form, Gram analysis, sl(2) data."""

import functools
import random
from fractions import Fraction

import pytest

from chainalg import (
    AlgebraParams,
    Combination,
    apply_element,
    bracket,
    element,
    expectation,
    gen_f,
    gen_s,
    gram_matrix,
    hermitian_form,
    inertia,
    inner_chain,
    lowest_weight_vector_concrete,
    omega,
    sl2_triple,
    truncated_interior_norm_check,
    vacuum,
    weight_from_partition,
)
from chainalg.basis import to_b0, to_b4
from chainalg.bracket import TriangularClass, bracket_gen, classify
from chainalg.chains import Chain, act_tensor, matrix_element
from chainalg.core import _as_fraction, all_seqs, charge, gen_key
from chainalg.checks import random_generator
from chainalg.verma import (
    VermaState,
    pbw_words,
    raising_letters,
    render_word,
    word_size,
)
from chainalg.weights import Weight
from padded_sums import padding_pairs, reference_interior_sum

P11 = AlgebraParams(1, 1)
P21 = AlgebraParams(2, 1)
P12 = AlgebraParams(1, 2)
P22 = AlgebraParams(2, 2)


def test_apply_lowering_annihilates_vacuum():
    w = weight_from_partition((1,), P11)
    low = element(P11, gen_f(1, 1, 1, 1, (), (1,)))
    assert apply_element(low, vacuum(P11), w).is_zero()


def test_apply_diagonal_scales_vacuum():
    w = weight_from_partition((1,), P11)
    diag = element(P11, gen_s((1,), (1,)))
    assert apply_element(diag, vacuum(P11), w).is_zero()  # eigenvalue 0
    counter = element(P11, gen_s((), ()))
    assert apply_element(counter, vacuum(P11), w) == vacuum(P11)  # eigenvalue 1


def test_apply_raising_parks_a_letter():
    w = weight_from_partition((1,), P11)
    g = gen_f(1, 1, 1, 1, (1,), ())
    out = apply_element(element(P11, g), vacuum(P11), w)
    assert out == Combination.term(P11, (g,))


def test_expectation_examples():
    w = weight_from_partition((1,), P11)
    assert expectation([], w) == 1
    low = element(P11, gen_f(1, 1, 1, 1, (), (1,)))
    rai = element(P11, gen_f(1, 1, 1, 1, (1,), ()))
    assert expectation([low, rai], w) == 1
    assert expectation([rai, rai], w) == 0
    assert expectation([element(P11, gen_s((1,), ()))], w) == 0


def test_hermitian_form_examples():
    w = weight_from_partition((1,), P11)
    rai = element(P11, gen_f(1, 1, 1, 1, (1,), ()))
    sig = element(P11, gen_s((1,), ()))
    assert hermitian_form([rai], [rai], w) == 1
    assert hermitian_form([sig], [sig], w) == 1
    assert hermitian_form([sig], [rai], w) == 1


def test_contravariance_of_hermitian_form():
    rng = random.Random(31)
    w = weight_from_partition((2, 1), P22)
    for _ in range(40):
        x = element(P22, random_generator(rng, P22))
        e1 = [element(P22, random_generator(rng, P22))]
        e2 = [element(P22, random_generator(rng, P22))]
        assert hermitian_form([x] + e1, e2, w) == hermitian_form(e1, [omega(x)] + e2, w)


def test_pbw_words_are_ordered_and_bounded():
    for params in (P11, P22):
        words = pbw_words(params, 3)
        assert words[0] == ()
        for word in words:
            assert word_size(word) <= 3
            for g in word:
                assert classify(g) is TriangularClass.RAISING
            keys = [gen_key(g) for g in word]
            assert all(a >= b for a, b in zip(keys, keys[1:]))
        assert len(set(words)) == len(words)


def test_gram_block_example():
    w = weight_from_partition((1,), P11)
    gm = gram_matrix(w, 2)
    sig = (gen_s((1,), ()),)
    f_word = (gen_f(1, 1, 1, 1, (1,), ()),)
    i, j = gm.words.index(sig), gm.words.index(f_word)
    assert gm[i, i] == gm[i, j] == gm[j, i] == gm[j, j] == 1


def test_gram_zero_weight():
    w = Weight(P11, mode="af")
    gm = gram_matrix(w, 2)
    for i, wi in enumerate(gm.words):
        for j in range(len(gm.words)):
            if wi or gm.words[j]:
                assert gm[i, j] == 0
            else:
                assert gm[i, j] == 1


def test_gram_bound_zero():
    w = weight_from_partition((2,), P11)
    gm = gram_matrix(w, 0)
    assert gm.words == [()]
    assert gm.entries == [[Fraction(1)]]


def test_gram_is_symmetric():
    w = weight_from_partition((2, 1), P22)
    gm = gram_matrix(w, 2)
    n = len(gm.words)
    for i in range(n):
        for j in range(n):
            assert gm[i, j] == gm[j, i]


def test_inertia_examples():
    res = inertia([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert (res.n_pos, res.n_zero, res.n_neg) == (1, 1, 0)
    (vec,) = res.radical
    assert vec[0] == -vec[1] != 0
    res = inertia([[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]])
    assert (res.n_pos, res.n_zero, res.n_neg) == (3, 0, 0)
    res = inertia([[Fraction(0)]])
    assert (res.n_pos, res.n_zero, res.n_neg) == (0, 1, 0)
    res = inertia([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert (res.n_pos, res.n_zero, res.n_neg) == (1, 0, 1)


def test_inertia_rejects_non_square_and_ragged():
    with pytest.raises(ValueError, match="square"):
        inertia([[1, 2]])
    with pytest.raises(ValueError, match="square"):
        inertia([[1, 0], [0]])


def test_inertia_rejects_floats():
    with pytest.raises(TypeError, match="exact rationals"):
        inertia([[1.5, 0], [0, 1]])


def test_inertia_interleaved_blocks_golden():
    # blocks {0,3,5}, {1,6,8} (zero diagonal: the off-diagonal step runs),
    # {2,7} (singular) and {4} (zero); expected values recorded from one
    # whole-matrix elimination
    n = 9
    m = [[0] * n for _ in range(n)]
    blocks = {
        (0, 3, 5): [[2, 1, 0], [1, -1, 3], [0, 3, Fraction(1, 2)]],
        (1, 6, 8): [[0, 1, 0], [1, 0, 2], [0, 2, 0]],
        (2, 7): [[1, 2], [2, 4]],
    }
    for idx, block in blocks.items():
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                m[i][j] = block[a][b]
    res = inertia(m)
    assert (res.n_pos, res.n_zero, res.n_neg) == (4, 3, 2)
    assert res.radical == [{4: 1}, {2: -2, 7: 1}, {1: -2, 8: 1}]


def test_gram_matches_hermitian_form_on_every_pair():
    # gram_matrix computes equal-charge pairs only; hermitian_form pairs
    # every word pair, so the cross-charge entries must come out zero
    cases = [weight_from_partition(g, p) for p in (P11, P21, P22) for g in ((1,), (2,), (1, 1))]
    cross = 0
    for w in cases + [Weight(P11, mode="af")]:
        gm = gram_matrix(w, 2)
        words = [[element(w.params, g) for g in word] for word in gm.words]
        for i, wi in enumerate(gm.words):
            for j in range(i, len(words)):
                assert gm[i, j] == gm[j, i] == hermitian_form(words[i], words[j], w)
                cross += charge(*wi) != charge(*gm.words[j])
    assert cross


def _reference_inertia(entries: list) -> tuple:
    """The dense elimination that inertia replaced, kept as its slow path.

    Returns (n_pos, n_zero, n_neg, radical rows, off-diagonal steps taken).
    """
    n = len(entries)
    a = [[_as_fraction(v) for v in row] for row in entries]
    t = [[Fraction(0)] * i + [Fraction(1)] + [Fraction(0)] * (n - 1 - i) for i in range(n)]
    n_pos = n_neg = off_steps = 0
    radical = []
    for comp in _components(a):
        remaining = list(comp)
        while remaining:
            pivot = next((k for k in remaining if a[k][k]), None)
            if pivot is None:
                off = next(
                    ((i, j) for i in remaining for j in remaining if i != j and a[i][j]),
                    None,
                )
                if off is None:
                    break
                i, j = off
                for c in comp:
                    a[i][c] += a[j][c]
                for r in comp:
                    a[r][i] += a[r][j]
                for c in comp:
                    t[i][c] += t[j][c]
                off_steps += 1
                continue
            d = a[pivot][pivot]
            if d > 0:
                n_pos += 1
            else:
                n_neg += 1
            others = [i for i in remaining if i != pivot]
            factors = {i: a[i][pivot] / d for i in others}
            for i in others:
                f = factors[i]
                if not f:
                    continue
                for c in comp:
                    a[i][c] -= f * a[pivot][c]
                    t[i][c] -= f * t[pivot][c]
            for i in others:
                f = factors[i]
                if not f:
                    continue
                for r in comp:
                    a[r][i] -= f * a[r][pivot]
            remaining.remove(pivot)
        radical += remaining
    return n_pos, len(radical), n_neg, [t[i] for i in sorted(radical)], off_steps


def _components(a: list) -> list:
    """Ascending index lists of the connected components of a's nonzero pattern."""
    seen, out = set(), []
    for start in range(len(a)):
        if start not in seen:
            seen.add(start)
            comp = [start]
            for i in comp:
                new = {j for j, v in enumerate(a[i]) if v} - seen
                seen |= new
                comp += new
            out.append(sorted(comp))
    return out


def _random_symmetric(rng: random.Random, n: int) -> list:
    """Symmetric rational matrix with a random density; about half its diagonal is zero."""
    m = [[Fraction(0)] * n for _ in range(n)]
    density = rng.random()
    for i in range(n):
        for j in range(i + 1):
            if rng.random() < density:
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if rng.random() < 0.5:
            m[i][i] = Fraction(0)
    return m


@functools.lru_cache(maxsize=None)
def _small_grams() -> tuple:
    """(case, Gram entries, inertia) for every Gram matrix of size <= 3 at
    lambda, lambda_f <= 2 and gamma in (1), (2), (1,1), (2,1)."""
    out = []
    for params in (P11, P21, P12, P22):
        for gamma in ((1,), (2,), (1, 1), (2, 1)):
            w = weight_from_partition(gamma, params)
            for size in (1, 2, 3):
                gm = gram_matrix(w, size)
                out.append(((params, gamma, size), gm.entries, inertia(gm)))
    return tuple(out)


def _matches_reference(entries: list, res) -> int:
    """Assert res equals the dense reference on entries; return its off-diagonal steps."""
    *expected, off_steps = _reference_inertia(entries)
    n = len(entries)
    dense = [[row.get(j, 0) for j in range(n)] for row in res.radical]
    assert [res.n_pos, res.n_zero, res.n_neg, dense] == expected
    return off_steps


def _random_matrices() -> list:
    rng = random.Random(2026)
    return [_random_symmetric(rng, rng.randint(0, 9)) for _ in range(2000)]


def test_inertia_matches_dense_reference_on_random_matrices():
    off_steps = sum(_matches_reference(m, inertia(m)) for m in _random_matrices())
    assert off_steps > 500  # the zero-diagonal step runs often


def test_inertia_matches_dense_reference_on_small_grams():
    grams = _small_grams()
    assert len(grams) == 48
    for _, entries, res in grams:
        _matches_reference(entries, res)


def test_inertia_radical_rows_are_sparse():
    cases = [(entries, res) for _, entries, res in _small_grams()]
    cases += [(m, inertia(m)) for m in _random_matrices()]
    for entries, res in cases:
        for row in res.radical:
            assert isinstance(row, dict) and row.keys() <= set(range(len(entries)))
            assert all(row.values())


P_MOD = 2**31 - 1


def _rank_mod_p(entries: list) -> int:
    """Rank modulo P_MOD by sparse row echelon: a check independent of the congruence kernel."""
    pivots: dict = {}
    for row in entries:
        work = {}
        for j, v in enumerate(row):
            if v:
                assert v.denominator % P_MOD, "P_MOD divides a denominator"
                if v.numerator % P_MOD:
                    work[j] = v.numerator * pow(v.denominator, -1, P_MOD) % P_MOD
        while work:
            col = min(work)
            if col not in pivots:
                inv = pow(work[col], -1, P_MOD)
                pivots[col] = {c: x * inv % P_MOD for c, x in work.items()}
                break
            f = work[col]
            for c, x in pivots[col].items():
                s = (work.get(c, 0) - f * x) % P_MOD
                if s:
                    work[c] = s
                else:
                    work.pop(c, None)
    return len(pivots)


def test_rank_mod_p_example():
    assert _rank_mod_p([[1, 2], [2, 4]]) == 1
    assert _rank_mod_p([[P_MOD, 0], [0, Fraction(1, 2)]]) == 1  # P_MOD vanishes modulo itself
    assert _rank_mod_p([[0, 1], [1, 0]]) == 2


def test_inertia_rank_is_at_least_the_rank_mod_p():
    # reduction modulo a prime can only lower the rank over the rationals
    for case, entries, res in _small_grams():
        assert res.n_pos + res.n_neg >= _rank_mod_p(entries), case


def test_inertia_radical_annihilates_matrix():
    w = weight_from_partition((2,), P21)
    gm = gram_matrix(w, 2)
    res = inertia(gm)
    n = len(gm.words)
    for vec in res.radical:
        for col in range(n):
            assert sum(c * gm[i, col] for i, c in vec.items()) == 0
    assert res.n_pos + res.n_zero + res.n_neg == n


def test_sl2_triple_example():
    e, h, f = sl2_triple((1,), (), (1, 1, 1, 1), P11)
    expect_h = element(
        P11,
        (1, gen_f(1, 1, 1, 1, (1,), (1,))),
        (-1, gen_f(1, 1, 1, 1, (), ())),
    )
    assert h == expect_h
    assert to_b0(bracket(h, e) - e.scaled(2)).is_zero()
    assert to_b0(bracket(h, f) + f.scaled(2)).is_zero()
    assert to_b0(bracket(e, f) - h).is_zero()
    # swapping the raiser and lowerer negates the middle element
    w = weight_from_partition((1,), P11)
    assert expectation([h], w) == -1
    assert w.h_I(1, (), 1) - w.h_I(1, (1,), 1) == 1


def test_sl2_triple_rejects_bad_order():
    with pytest.raises(ValueError):
        sl2_triple((), (1,), (1, 1, 1, 1), P11)
    with pytest.raises(ValueError):
        sl2_triple((1,), (1,), (1, 1, 1, 1), P11)


def test_sl2_relations_random():
    rng = random.Random(33)
    from chainalg.bracket import index_words
    from chainalg.core import seq_key

    w = weight_from_partition((2, 1), P22)
    done = 0
    while done < 30:
        g = random_generator(rng, P22)
        if g.kind != "f":
            continue
        up, lo = index_words(g)
        if not seq_key(up) > seq_key(lo):
            continue
        done += 1
        e, h, f = sl2_triple(g.upper, g.lower, g.flavors, P22)
        assert to_b0(bracket(h, e) - e.scaled(2)).is_zero()
        assert to_b0(bracket(h, f) + f.scaled(2)).is_zero()
        assert to_b0(bracket(e, f) - h).is_zero()
        l1, l2, l3, l4 = g.flavors
        diff = w.h_I(l2, g.lower, l4) - w.h_I(l1, g.upper, l3)
        assert expectation([h], w) == -diff
        assert diff >= 0 and diff.denominator == 1


def _is_normal(word: tuple) -> bool:
    if any(classify(x) is not TriangularClass.RAISING for x in word):
        return False
    keys = [gen_key(x) for x in word]
    return all(a >= b for a, b in zip(keys, keys[1:]))


def reduce_word_random(word: tuple, w: Weight, rng) -> VermaState:
    """Normal-order a raw letter word by randomly chosen legal local moves.

    Exists to cross-check the deterministic straightening: the result
    must not depend on the order in which transpositions and vacuum
    evaluations are applied.
    """
    params = w.params
    out = Combination.zero(params)
    stack = [(tuple(word), Fraction(1))]
    while stack:
        cur, coeff = stack.pop()
        if _is_normal(cur):
            out = out + Combination.term(params, cur, coeff)
            continue
        moves = []
        if cur and classify(cur[-1]) is not TriangularClass.RAISING:
            moves.append(("end", len(cur) - 1))
        for i in range(len(cur) - 1):
            x, y = cur[i], cur[i + 1]
            if classify(x) is not TriangularClass.RAISING:
                moves.append(("swap", i))
            elif gen_key(x) < gen_key(y):
                moves.append(("swap", i))
        kind, i = moves[rng.randrange(len(moves))]
        if kind == "end":
            x = cur[-1]
            if classify(x) is TriangularClass.DIAGONAL:
                stack.append((cur[:-1], coeff * w.diagonal_eigenvalue(x)))
            # lowering letters annihilate the vacuum: drop the word
            continue
        x, y = cur[i], cur[i + 1]
        stack.append((cur[:i] + (y, x) + cur[i + 2 :], coeff))
        for z, c in to_b4(bracket_gen(x, y, params)):
            stack.append((cur[:i] + (z,) + cur[i + 2 :], coeff * c))
    return out


def expectation_random(word, w: Weight, rng) -> Fraction:
    """Vacuum coefficient via randomized straightening of the expanded product."""
    raw_words = [((), Fraction(1))]
    for e in word:
        expanded = []
        for prefix, coeff in raw_words:
            for g, c in to_b4(e):
                expanded.append((prefix + (g,), coeff * c))
        raw_words = expanded
    total = Fraction(0)
    for raw, coeff in raw_words:
        total += coeff * reduce_word_random(raw, w, rng).get(())
    return total


def test_straightening_order_independence():
    rng = random.Random(34)
    w = weight_from_partition((2, 1), P22)
    for _ in range(25):
        word = [element(P22, random_generator(rng, P22)) for _ in range(rng.randint(1, 3))]
        assert expectation(word, w) == expectation_random(word, w, rng)


def test_module_pairing_matches_concrete_model():
    for params in (P11, P22):
        words = pbw_words(params, 2)
        for gamma in ((1,), (2,), (1, 1)):
            w = weight_from_partition(gamma, params)
            v = lowest_weight_vector_concrete(gamma, params)
            norm = inner_chain(v, v)
            images = []
            for word in words:
                state = v
                for g in reversed(word):
                    state = act_tensor(element(params, g), state)
                images.append(state)
            for i in range(len(words)):
                ei = [element(params, g) for g in words[i]]
                for j in range(i, len(words)):
                    ej = [element(params, g) for g in words[j]]
                    assert hermitian_form(ei, ej, w) == inner_chain(images[i], images[j]) / norm


def test_radical_vectors_vanish_in_concrete_model():
    for params, gamma in ((P11, (2,)), (P21, (1, 1)), (P22, (1,))):
        w = weight_from_partition(gamma, params)
        gm = gram_matrix(w, 2)
        res = inertia(gm)
        assert res.n_neg == 0
        v = lowest_weight_vector_concrete(gamma, params)
        images = []
        for word in gm.words:
            state = v
            for g in reversed(word):
                state = act_tensor(element(params, g), state)
            images.append(state)
        for vec in res.radical:
            total = Combination.zero(params)
            for i, c in vec.items():
                total = total + images[i].scaled(c)
            assert total.is_zero()


def test_truncated_interior_norm_examples():
    assert truncated_interior_norm_check((2,), (1,), 0, (1,), P21)
    assert truncated_interior_norm_check((2,), (1,), 1, (2,), P21)
    assert truncated_interior_norm_check((1, 1), (1,), 0, (1,), P21)
    # zero weight: both sides vanish
    assert truncated_interior_norm_check((2,), (1,), 0, (), P21)


# the truncated interior norm as it was written out before it read its
# corrections off basis.whole_chain_sum: one correction per padding pair,
# weighed by the number of ways the interior operator reaches that pair

def _splitting_count(upper, lower, left, right) -> int:
    """Number of ways s[upper|lower] turns the padded lower word into the padded upper one."""
    return matrix_element(
        gen_s(upper, lower), Chain(1, left + lower + right, 1), Chain(1, left + upper + right, 1)
    )


def _reference_pairing(upper, lower, depth, w):
    """The interior pairing less the padded whole-chain corrections."""
    sigma = element(w.params, gen_s(upper, lower))
    value = hermitian_form([sigma], [sigma], w)
    for left, right in padding_pairs(w.params, depth):
        s = _splitting_count(upper, lower, left, right)
        for l1 in w.params.flavor_range():
            for l2 in w.params.flavor_range():
                value -= s * (
                    w.h_I(l1, left + lower + right, l2) - w.h_I(l1, left + upper + right, l2)
                )
    return value


def _reference_norm_check(upper, lower, depth, gamma, params):
    value = _reference_pairing(upper, lower, depth, weight_from_partition(gamma, params))
    sigma = element(params, gen_s(upper, lower))
    v = lowest_weight_vector_concrete(gamma, params)
    image = act_tensor(sigma - reference_interior_sum(upper, lower, depth, params), v)
    return value == inner_chain(image, image) / inner_chain(v, v) and value >= 0


def test_truncated_interior_norm_stabilizes():
    w = weight_from_partition((1,), P21)
    assert _reference_pairing((2,), (1,), 2, w) == _reference_pairing((2,), (1,), 3, w)


def test_truncated_interior_norm_matches_the_written_out_sum():
    verdicts = []
    for params in (P11, P21, P12):
        seqs = list(all_seqs(params, 2))
        for up in seqs:
            for lo in seqs:
                for depth in range(3):
                    for gamma in ((), (1,), (2,), (1, 1)):
                        if up or lo:
                            got = truncated_interior_norm_check(up, lo, depth, gamma, params)
                            assert got == _reference_norm_check(up, lo, depth, gamma, params)
                            verdicts.append(got)
    assert (verdicts.count(True), verdicts.count(False)) == (656, 112)


def test_raising_letters_are_b4_raising():
    from chainalg.basis import in_b4

    for params in (P11, P22):
        for g in raising_letters(params, 3):
            assert in_b4(g)
            assert classify(g) is TriangularClass.RAISING


def test_render_word():
    assert render_word(()) == "1"
    assert render_word((gen_s((1,), ()),)) == "s[1|]"
