"""Lowest-weight modules: normal ordering, Hermitian form, Gram analysis.

Module states are combinations of words of raising basis-b4 letters,
weakly descending in the generator ordering.  A letter multiplied onto a
word is straightened by adjacent transpositions, each producing a
commutator term on a strictly shorter word; diagonal letters reaching
the vacuum evaluate through the weight tables, lowering letters
annihilate it.

The contravariant form of two words is the vacuum coefficient of the
first word's image under the anti-involution times the second word.
Gram matrices are analyzed by exact congruence elimination, giving the
signature and a basis of the radical.

Every word has an additive charge (core.charge), and the form pairs only
words of equal charge (the weight-space splitting of the Shapovalov
form).  gram_matrix computes in-charge pairs only.  inertia checks its
input and hands the nonzero entries as sparse rows to core.congruence,
whose steps never leave a block of the nonzero pattern; the radical rows
it returns stay sparse.

The truncated interior operator is an interior operator less its
whole-chain sum over bounded paddings (basis.whole_chain_sum).  A term of
that sum with coefficient m stands for m paddings, and the interior
operator reaches each of them in m ways, so its norm correction is m².
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basis import enumerate_generators, in_b4, to_b4, whole_chain_sum
from .bracket import TriangularClass, bracket, bracket_gen, classify, index_words
from .chains import act_tensor, inner_chain, lowest_weight_vector_concrete
from .core import (
    AlgebraParams,
    Combination,
    Element,
    Generator,
    _as_fraction,
    charge,
    congruence,
    gen_f,
    gen_key,
    gen_s,
    omega,
    omega_gen,
    render_generator,
    seq_key,
)
from .weights import Weight, weight_from_partition

PbwWord = tuple  # tuple of Generators, weakly descending in gen_key

VermaState = Combination  # keys: PbwWord


def vacuum(params: AlgebraParams) -> VermaState:
    return Combination.term(params, ())


def letter_size(g: Generator) -> int:
    return len(g.upper) + len(g.lower) + 1


def word_size(word: PbwWord) -> int:
    return sum(letter_size(g) for g in word)


def render_word(word: PbwWord) -> str:
    if not word:
        return "1"
    return "*".join(render_generator(g) for g in word)


# ---------------------------------------------------------------------------
# normal ordering

def insert_letter(x: Generator, word: PbwWord, w: Weight) -> VermaState:
    """Normal-ordered state of x applied to an ordered word on the vacuum."""
    key = (x, word)
    hit = w.letter_memo.get(key)
    if hit is not None:
        return hit
    params = w.params
    cls = classify(x)
    if not word:
        if cls is TriangularClass.RAISING:
            out = Combination.term(params, (x,))
        elif cls is TriangularClass.DIAGONAL:
            out = Combination.term(params, (), w.diagonal_eigenvalue(x))
        else:
            out = Combination.zero(params)
    elif cls is TriangularClass.RAISING and gen_key(x) >= gen_key(word[0]):
        out = Combination.term(params, (x,) + word)
    else:
        # x * head * rest = head * (x * rest) + [x, head] * rest
        head, rest = word[0], word[1:]
        swapped = insert_letter(x, rest, w).map(lambda u: insert_letter(head, u, w))
        commutator = to_b4(bracket_gen(x, head, params))
        out = swapped + commutator.map(lambda z: insert_letter(z, rest, w))
    w.letter_memo[key] = out
    return out


def apply_element(e: Element, state: VermaState, w: Weight) -> VermaState:
    """Left action of an algebra element on a module state."""
    if e.params != w.params or state.params != w.params:
        raise ValueError("algebra parameter mismatch")
    return Combination.from_items(
        w.params,
        (t for g, c in to_b4(e) for u, s in state for t in insert_letter(g, u, w).scaled(c * s)),
    )


def expectation(word, w: Weight) -> Fraction:
    """Vacuum coefficient after applying the listed elements right to left."""
    state = vacuum(w.params)
    for e in reversed(list(word)):
        state = apply_element(e, state, w)
        if state.is_zero():
            break
    return state.get(())


def hermitian_form(e1, e2, w: Weight) -> Fraction:
    """Contravariant pairing of two operator words applied to the vacuum."""
    conj = [omega(e) for e in reversed(list(e1))]
    return expectation(conj + list(e2), w)


# ---------------------------------------------------------------------------
# word enumeration and Gram matrices

def raising_letters(params: AlgebraParams, max_size: int) -> list:
    """Basis-b4 raising generators of letter size at most max_size, descending."""
    letters = [
        g
        for g in enumerate_generators(params, max_size - 1)
        if in_b4(g) and classify(g) is TriangularClass.RAISING
    ]
    letters.sort(key=gen_key, reverse=True)
    return letters


def pbw_words(params: AlgebraParams, max_size: int) -> list:
    """All weakly descending letter words of total size at most max_size."""
    letters = raising_letters(params, max_size)
    sizes = [letter_size(g) for g in letters]
    out = []

    def rec(start: int, budget: int, acc: list):
        out.append(tuple(acc))
        for i in range(start, len(letters)):
            if sizes[i] <= budget:
                acc.append(letters[i])
                rec(i, budget - sizes[i], acc)
                acc.pop()

    rec(0, max_size, [])
    out.sort(key=lambda word: (word_size(word), [gen_key(g) for g in word]))
    return out


@dataclass
class GramMatrix:
    words: list  # PbwWord index
    entries: list  # square matrix of Fractions

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def gram_matrix(w: Weight, max_word_size: int) -> GramMatrix:
    """Contravariant pairings within the size bound; unequal charges pair to zero."""
    words = pbw_words(w.params, max_word_size)
    entries = [[Fraction(0)] * len(words) for _ in words]
    conj = {word: [omega_gen(x) for x in word] for word in words}
    blocks: dict = {}
    for j, word in enumerate(words):
        blocks.setdefault(charge(*word), []).append(j)
    for block in blocks.values():
        for b, j in enumerate(block):
            base = Combination.term(w.params, words[j])
            for i in block[: b + 1]:
                state = base
                for x in conj[words[i]]:
                    if state.is_zero():
                        break
                    state = state.map(lambda u: insert_letter(x, u, w))
                val = state.get(())
                entries[i][j] = val
                entries[j][i] = val
    return GramMatrix(words, entries)


@dataclass
class Inertia:
    n_pos: int
    n_zero: int
    n_neg: int
    radical: list  # sparse rows {word index: nonzero coefficient}, by ascending index


def inertia(m: GramMatrix | list) -> Inertia:
    """Exact signature and radical basis by congruence elimination (core.congruence).

    The radical rows are the kernel's own sparse rows, one per non-pivot index.
    """
    entries = m.entries if isinstance(m, GramMatrix) else m
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("inertia requires a square matrix")
    rows = {
        i: {j: v for j, v in enumerate(map(_as_fraction, row)) if v}
        for i, row in enumerate(entries)
    }
    if any(entries[i][j] != entries[j][i] for i in range(n) for j in range(i)):
        raise ValueError("inertia requires a symmetric matrix")
    n_pos, n_neg, radical = congruence(rows)
    return Inertia(n_pos, len(radical), n_neg, [radical[i] for i in sorted(radical)])


# ---------------------------------------------------------------------------
# sl(2) triples

def sl2_triple(upper, lower, flavors, params: AlgebraParams):
    """(e, h, f) with [h,e]=2e, [h,f]=-2f, [e,f]=h from one whole-chain raiser."""
    l1, l2, l3, l4 = flavors
    e_gen = gen_f(l1, l2, l3, l4, tuple(upper), tuple(lower))
    up, lo = index_words(e_gen)
    if not seq_key(up) > seq_key(lo):
        raise ValueError("upper index word must exceed the lower one")
    e = Combination.term(params, e_gen)
    f_elt = omega(e)
    h_elt = bracket(e, f_elt)
    return e, h_elt, f_elt


# ---------------------------------------------------------------------------
# truncated interior operators and their norms

def truncated_interior_norm_check(upper, lower, depth, gamma, params: AlgebraParams) -> bool:
    """Norm identity for the truncated interior operator on a partition weight.

    The truncated operator is s[I|J] less C, its whole-chain sum over the
    paddings of total length <= depth.  A term f(a,a;b,b)[U|L] of C with
    coefficient m corrects the interior pairing by m² (h_I(a,L,b) - h_I(a,U,b)).
    The corrected pairing must be non-negative and must equal the squared
    norm of the truncated operator applied to the concrete symmetrized
    tensor vector.
    """
    g = gen_s(upper, lower)
    w = weight_from_partition(gamma, params)
    sigma = Combination.term(params, g)
    corrections = whole_chain_sum(g, params, depth + len(g.lower))
    value = hermitian_form([sigma], [sigma], w)
    for f, m in corrections:
        a, _, b, _ = f.flavors
        value -= m * m * (w.h_I(a, f.lower, b) - w.h_I(a, f.upper, b))
    v = lowest_weight_vector_concrete(gamma, params)
    image = act_tensor(sigma - corrections, v)
    concrete = inner_chain(image, image) / inner_chain(v, v)
    return value == concrete and value >= 0
