"""Lie bracket of the open string algebra and the triangular-like split.

The bracket of two basis generators is a finite combination of basis
generators.  Each term of a half is one way b's upper word K sits on a's
lower word J: K starts at offset d of J (d < 0 when K starts first), the
words agree where they overlap (_agree), and _meet glues what K has beyond
J onto a's upper word and what J has beyond K onto b's lower word.  An end
operator pins its word to that end of the chain and a whole-chain word is
the whole body, so each half allows only the offsets its two kinds fit:
  f-l  d = 0, |K| <= |J|            K starts the body J
  f-s  0 <= d <= |J|-|K|            K lies inside the body J
  l-l  d = 0                        both start at the left end (*)
  l-r  max(0, |J|-|K|) <= d <= |J|  J and K cover the body together (*)
  l-s  0 <= d < |J|                 K starts inside J, which starts the chain
  s-s  1-|K| <= d < |J|             any nonempty overlap
where (*) marks the halves whose overlap may be empty.
Brackets touching an extended interior operator (an empty sequence on a
kind-s generator) first replace it by its left padding (basis.padding):
the interior operators one letter longer at the left plus the left-end
operators, whose sum acts as it does on every chain.

Only the left-end rows are written out, each only in half.  Chain
reversal induces the automorphism mirror_gen of the algebra (sequences
reversed, l and r swapped), so each right-end row is the mirror image of
its left-end twin.  The anti-involution omega (upper and lower data
swapped) is an anti-automorphism, [omega b, omega a] = omega [a, b], so
each row writes only the half where a's lower data meets b's upper data;
the other half is the omega image of that half, with the sign flipped.

Rows are computed on field tuples (kind, upper, lower, flavors) with integer
multiplicities, omega and mirror acting through core.omega_fields/mirror_fields;
each term that survives cancellation is built once, as one Generator.  Every
row has integer coefficients: the halves yield +1 and -1, and the row of an
extended interior operator is the sum of the integer rows of its padding
pairs, built inside the one memo entry of the pair (the memo keeps at most
2^14 rows).  The bilinear bracket sums integer numerators over one common
denominator and builds one Fraction per output generator.

Grade-zero generators split into raising, diagonal and lowering by
comparing the upper index word (sequence followed by its flavor indices)
against the lower one; together with the sign of the grade this yields
the triangular-like decomposition.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .basis import padding, to_b0
from .core import (
    KIND_F,
    KIND_L,
    KIND_R,
    KIND_S,
    AlgebraParams,
    Combination,
    Element,
    Generator,
    flavor_words,
    gen_f,
    grade,
    mirror_fields,
    omega_fields,
)


def is_extended_sigma(g: Generator) -> bool:
    return g.kind == KIND_S and (not g.upper or not g.lower)


# ---------------------------------------------------------------------------
# generator-pair brackets; each half takes the fields (I, J, fa, K, L, fb) of
# a = (kind, I, J, fa) and b = (kind, K, L, fb) and yields the field tuples,
# each with multiplicity +1, where a's lower data meets b's upper data

def _ff(I, J, fa, K, L, fb):
    a1, a2, a3, a4 = fa
    b1, b2, b3, b4 = fb
    if b1 == a2 and K == J and b3 == a4:
        yield KIND_F, I, L, (a1, b2, a3, b4)


def _meet(I, J, K, L, d):
    """(upper, lower) of the term where K starts at position d of J (d may be negative)."""
    return K[:max(0, -d)] + I + K[len(J) - d:], J[:max(0, d)] + L + J[d + len(K):]


def _agree(J, K, d):
    """Whether J and K, K starting at position d of J, are equal where they overlap."""
    lo, hi = max(0, d), min(len(J), d + len(K))
    return J[lo:hi] == K[lo - d:hi - d]


def _fl(I, J, fa, K, L, fb):
    if fb[0] == fa[1] and len(K) <= len(J) and _agree(J, K, 0):
        yield KIND_F, *_meet(I, J, K, L, 0), (fa[0], fb[1], *fa[2:])


def _fs(I, J, fa, K, L, fb):
    for d in range(len(J) - len(K) + 1):
        if _agree(J, K, d):
            yield KIND_F, *_meet(I, J, K, L, d), fa


def _ll(I, J, fa, K, L, fb):
    if fb[0] == fa[1] and _agree(J, K, 0):
        yield KIND_L, *_meet(I, J, K, L, 0), (fa[0], fb[1])


def _lr(I, J, fa, K, L, fb):
    for d in range(max(0, len(J) - len(K)), len(J) + 1):
        if _agree(J, K, d):
            yield KIND_F, *_meet(I, J, K, L, d), fa + fb


def _ls(I, J, fa, K, L, fb):
    for d in range(len(J)):
        if _agree(J, K, d):
            yield KIND_L, *_meet(I, J, K, L, d), fa


def _ss(I, J, fa, K, L, fb):
    for d in range(1 - len(K), len(J)):
        if _agree(J, K, d):
            yield KIND_S, *_meet(I, J, K, L, d), ()


def _commutator(half):
    """The row [a, b] = half(a, b) - omega half(omega a, omega b), on field tuples.

    omega is an anti-automorphism, so the terms where b's lower data meets
    a's upper data are the omega image of the half for the omega-fields:
    both sequences swapped, each flavor pair transposed.
    """

    def row(a: tuple, b: tuple):
        for t in half(*a[1:], *b[1:]):
            yield t, 1
        for t in half(*omega_fields(*a)[1:], *omega_fields(*b)[1:]):
            yield omega_fields(*t), -1

    return row


def _mirrored(row):
    """The row of the mirror-image kinds: [a, b] = mirror [mirror a, mirror b]."""

    def mirrored_row(a: tuple, b: tuple):
        for t, c in row(mirror_fields(*a), mirror_fields(*b)):
            yield mirror_fields(*t), c

    return mirrored_row


_TABLE = {
    (KIND_F, KIND_F): _commutator(_ff),
    (KIND_F, KIND_L): _commutator(_fl),
    (KIND_F, KIND_R): _mirrored(_commutator(_fl)),
    (KIND_F, KIND_S): _commutator(_fs),
    (KIND_L, KIND_L): _commutator(_ll),
    (KIND_L, KIND_R): _commutator(_lr),
    (KIND_L, KIND_S): _commutator(_ls),
    (KIND_R, KIND_R): _mirrored(_commutator(_ll)),
    (KIND_R, KIND_S): _mirrored(_commutator(_ls)),
    (KIND_S, KIND_S): _commutator(_ss),
}


@lru_cache(maxsize=1 << 14)
def bracket_gen(a: Generator, b: Generator, params: AlgebraParams) -> Element:
    """Bracket of two generators as an exact Element, with integer coefficients."""
    if (a.kind, b.kind) not in _TABLE:  # lower-priority kind first: antisymmetry
        return -bracket_gen(b, a, params)
    acc = {}
    for x in padding(a, params, False) if is_extended_sigma(a) else (a,):
        tx = (x.kind, x.upper, x.lower, x.flavors)
        for y in padding(b, params, False) if is_extended_sigma(b) else (b,):
            ty = (y.kind, y.upper, y.lower, y.flavors)
            if (x.kind, y.kind) in _TABLE:
                row = _TABLE[x.kind, y.kind](tx, ty)
            else:
                row = ((t, -c) for t, c in _TABLE[y.kind, x.kind](ty, tx))
            for t, c in row:
                acc[t] = acc.get(t, 0) + c
    return Combination(params, {Generator(*t): c for t, c in acc.items() if c})


def bracket(a: Element, b: Element) -> Element:
    """Bilinear extension of bracket_gen: ints k1 * k2 * m summed over D_a * D_b,
    D_a the lcm of a's denominators and k1 = coeff * D_a (b's k2 likewise)."""
    if a.params != b.params:
        raise ValueError("algebra parameter mismatch between bracket operands")
    d_a = lcm(*(c.denominator for c in a.terms.values()))
    d_b = lcm(*(c.denominator for c in b.terms.values()))
    nums_b = [(g2, c2.numerator * (d_b // c2.denominator)) for g2, c2 in b]
    acc = {}
    for g1, c1 in a:
        k1 = c1.numerator * (d_a // c1.denominator)
        for g2, k2 in nums_b:
            for h, m in bracket_gen(g1, g2, a.params).terms.items():
                acc[h] = acc.get(h, 0) + k1 * k2 * m.numerator
    return Combination(a.params, acc).scaled(Fraction(1, d_a * d_b))


# ---------------------------------------------------------------------------
# triangular-like classification

class TriangularClass(enum.Enum):
    LOWERING = "lowering"
    DIAGONAL = "diagonal"
    RAISING = "raising"


def index_words(g: Generator) -> tuple:
    """Upper and lower index words: sequence entries then flavor indices."""
    up_fl, lo_fl = flavor_words(g)
    return g.upper + up_fl, g.lower + lo_fl


def classify(g: Generator) -> TriangularClass:
    m = grade(g)
    if m > 0:
        return TriangularClass.RAISING
    if m < 0:
        return TriangularClass.LOWERING
    up, lo = index_words(g)
    if up == lo:
        return TriangularClass.DIAGONAL
    return TriangularClass.RAISING if up > lo else TriangularClass.LOWERING


def diagonal_f(word: tuple) -> Generator:
    """The diagonal whole-chain operator attached to an index word (seq, l1, l2)."""
    seq, l1, l2 = word[:-2], word[-2], word[-1]
    return gen_f(l1, l1, l2, l2, seq, seq)


def is_root_vector(e: Element):
    """The eigenvalue pairs ((h_up, 1), (h_lo, -1)) of a root vector e, or None.

    e is a root vector, a common eigenvector of the diagonal subalgebra,
    exactly when e is a scalar multiple of a single whole-chain (kind f)
    generator whose index words differ; the eigenvalues are +1 under the
    diagonal generator of its upper word and -1 under that of its lower
    word.
    """
    if len(e) != 1:
        return None
    (g, _), = list(e)
    if g.kind != KIND_F:
        return None
    up, lo = index_words(g)
    if up == lo:
        return None
    return (diagonal_f(up), 1), (diagonal_f(lo), -1)


def cartan_commutes(g1: Generator, g2: Generator, params: AlgebraParams) -> bool:
    """Exact check that two diagonal generators commute, in canonical form."""
    for g in (g1, g2):
        if classify(g) is not TriangularClass.DIAGONAL:
            raise ValueError(f"{g!r} is not diagonal")
    return to_b0(bracket_gen(g1, g2, params)).is_zero()
