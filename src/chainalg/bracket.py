"""Lie bracket of the open string algebra and the triangular-like split.

The bracket of two basis generators is a finite combination of basis
generators, given kind by kind below; delta-matching of sequence
splittings is enumerated exhaustively (interior split parts must be
nonempty, boundary parts may be empty exactly where the formulas allow).
Brackets touching an extended interior operator (an empty sequence on a
kind-s generator) first replace it by the equivalent combination of
one-step-longer interior operators plus left-end operators, which acts
identically on every chain.

Only the left-end rows are written out.  Chain reversal induces the
automorphism mirror_gen of the algebra (sequences reversed, l and r
swapped), so each right-end row, and the right-end expansion of an
interior operator, is the mirror image of its left-end twin.  (Basis b4
is not mirror-symmetric, so its rewriting rules in basis.py stay
written out for both ends.)

Grade-zero generators split into raising, diagonal and lowering by
comparing the upper index word (sequence followed by its flavor indices)
against the lower one; together with the sign of the grade this yields
the triangular-like decomposition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

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
    gen_l,
    gen_s,
    grade,
    mirror,
    mirror_gen,
)


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


def is_extended_sigma(g: Generator) -> bool:
    return g.kind == KIND_S and (not g.upper or not g.lower)


def sigma_left_expansion(g: Generator, params: AlgebraParams) -> Element:
    """s[I|J] as interior operators one step longer plus left-end operators.

    Acts identically on every chain; applicable to any index sequences,
    in particular the extended ones.
    """
    items = [(gen_s((i,) + g.upper, (i,) + g.lower), 1) for i in params.color_range()]
    items += [(gen_l(m, m, g.upper, g.lower), 1) for m in params.flavor_range()]
    return Combination.from_items(params, items)


def sigma_right_expansion(g: Generator, params: AlgebraParams) -> Element:
    """Mirror expansion through the right end."""
    return mirror(sigma_left_expansion(mirror_gen(g), params))


# ---------------------------------------------------------------------------
# generator-pair brackets; each helper yields (Generator, +-1) contributions

def _ff(a: Generator, b: Generator):
    a1, a2, a3, a4 = a.flavors
    b1, b2, b3, b4 = b.flavors
    if b1 == a2 and b.upper == a.lower and b3 == a4:
        yield gen_f(a1, b2, a3, b4, a.upper, b.lower), 1
    if a1 == b2 and a.upper == b.lower and a3 == b4:
        yield gen_f(b1, a2, b3, a4, b.upper, a.lower), -1


def _fl(a: Generator, b: Generator):
    a1, a2, a3, a4 = a.flavors
    b1, b2 = b.flavors
    if b1 == a2:
        for j1, j2 in _splits2(a.lower):
            if j1 == b.upper:
                yield gen_f(a1, b2, a3, a4, a.upper, b.lower + j2), 1
    if a1 == b2:
        for i1, i2 in _splits2(a.upper):
            if i1 == b.lower:
                yield gen_f(b1, a2, a3, a4, b.upper + i2, a.lower), -1


def _fs(a: Generator, b: Generator):
    a1, a2, a3, a4 = a.flavors
    for j1, j2, j3 in _splits3(a.lower, ne=(False, True, False)):
        if j2 == b.upper:
            yield gen_f(a1, a2, a3, a4, a.upper, j1 + b.lower + j3), 1
    for i1, i2, i3 in _splits3(a.upper, ne=(False, True, False)):
        if i2 == b.lower:
            yield gen_f(a1, a2, a3, a4, i1 + b.upper + i3, a.lower), -1


def _ll(a: Generator, b: Generator):
    a1, a2 = a.flavors
    b1, b2 = b.flavors
    if b1 == a2:
        if b.upper == a.lower:
            yield gen_l(a1, b2, a.upper, b.lower), 1
        for j1, j2 in _splits2(a.lower, ne2=True):
            if j1 == b.upper:
                yield gen_l(a1, b2, a.upper, b.lower + j2), 1
        for k1, k2 in _splits2(b.upper, ne2=True):
            if k1 == a.lower:
                yield gen_l(a1, b2, a.upper + k2, b.lower), 1
    if a1 == b2:
        if a.upper == b.lower:
            yield gen_l(b1, a2, b.upper, a.lower), -1
        for l1, l2 in _splits2(b.lower, ne2=True):
            if l1 == a.upper:
                yield gen_l(b1, a2, b.upper, a.lower + l2), -1
        for i1, i2 in _splits2(a.upper, ne2=True):
            if i1 == b.lower:
                yield gen_l(b1, a2, b.upper + i2, a.lower), -1


def _lr(a: Generator, b: Generator):
    a1, a2 = a.flavors
    b1, b2 = b.flavors
    for j1, j2 in _splits2(a.lower):
        for k1, k2 in _splits2(b.upper):
            if k1 == j2:
                yield gen_f(a1, a2, b1, b2, a.upper + k2, j1 + b.lower), 1
    for i1, i2 in _splits2(a.upper):
        for l1, l2 in _splits2(b.lower):
            if i2 == l1:
                yield gen_f(a1, a2, b1, b2, i1 + b.upper, a.lower + l2), -1


def _ls(a: Generator, b: Generator):
    a1, a2 = a.flavors
    K, L = b.upper, b.lower
    I, J = a.upper, a.lower
    if J == K:
        yield gen_l(a1, a2, I, L), 1
    for k1, k2 in _splits2(K, ne1=True, ne2=True):
        if k1 == J:
            yield gen_l(a1, a2, I + k2, L), 1
    for j1, j2 in _splits2(J, ne1=True, ne2=True):
        if j2 == K:
            yield gen_l(a1, a2, I, j1 + L), 1
        if j1 == K:
            yield gen_l(a1, a2, I, L + j2), 1
    for j1, j2 in _splits2(J, ne1=True, ne2=True):
        for k1, k2 in _splits2(K, ne1=True, ne2=True):
            if k1 == j2:
                yield gen_l(a1, a2, I + k2, j1 + L), 1
    for j1, j2, j3 in _splits3(J):
        if j2 == K:
            yield gen_l(a1, a2, I, j1 + L + j3), 1
    if I == L:
        yield gen_l(a1, a2, K, J), -1
    for l1, l2 in _splits2(L, ne1=True, ne2=True):
        if I == l1:
            yield gen_l(a1, a2, K, J + l2), -1
    for i1, i2 in _splits2(I, ne1=True, ne2=True):
        if i2 == L:
            yield gen_l(a1, a2, i1 + K, J), -1
        if i1 == L:
            yield gen_l(a1, a2, K + i2, J), -1
    for l1, l2 in _splits2(L, ne1=True, ne2=True):
        for i1, i2 in _splits2(I, ne1=True, ne2=True):
            if i2 == l1:
                yield gen_l(a1, a2, i1 + K, J + l2), -1
    for i1, i2, i3 in _splits3(I):
        if i2 == L:
            yield gen_l(a1, a2, i1 + K + i3, J), -1


def _ss_half(I, J, K, L):
    if K == J:
        yield gen_s(I, L), 1
    for j1, j2 in _splits2(J, ne1=True, ne2=True):
        if K == j2:
            yield gen_s(I, j1 + L), 1
        if K == j1:
            yield gen_s(I, L + j2), 1
    for k1, k2 in _splits2(K, ne1=True, ne2=True):
        if k1 == J:
            yield gen_s(I + k2, L), 1
        if k2 == J:
            yield gen_s(k1 + I, L), 1
    for j1, j2 in _splits2(J, ne1=True, ne2=True):
        for k1, k2 in _splits2(K, ne1=True, ne2=True):
            if k1 == j2:
                yield gen_s(I + k2, j1 + L), 1
            if k2 == j1:
                yield gen_s(k1 + I, L + j2), 1
    for j1, j2, j3 in _splits3(J):
        if K == j2:
            yield gen_s(I, j1 + L + j3), 1
    for k1, k2, k3 in _splits3(K):
        if k2 == J:
            yield gen_s(k1 + I + k3, L), 1


def _ss(a: Generator, b: Generator):
    for g, c in _ss_half(a.upper, a.lower, b.upper, b.lower):
        yield g, c
    for g, c in _ss_half(b.upper, b.lower, a.upper, a.lower):
        yield g, -c


def _mirrored(row):
    """The row of the mirror-image kinds: [a, b] = mirror [mirror a, mirror b]."""

    def mirrored_row(a: Generator, b: Generator):
        for g, c in row(mirror_gen(a), mirror_gen(b)):
            yield mirror_gen(g), c

    return mirrored_row


_TABLE = {
    (KIND_F, KIND_F): _ff,
    (KIND_F, KIND_L): _fl,
    (KIND_F, KIND_R): _mirrored(_fl),
    (KIND_F, KIND_S): _fs,
    (KIND_L, KIND_L): _ll,
    (KIND_L, KIND_R): _lr,
    (KIND_L, KIND_S): _ls,
    (KIND_R, KIND_R): _mirrored(_ll),
    (KIND_R, KIND_S): _mirrored(_ls),
    (KIND_S, KIND_S): _ss,
}


@lru_cache(maxsize=None)
def bracket_gen(a: Generator, b: Generator, params: AlgebraParams) -> Element:
    """Bracket of two generators as an exact Element."""
    if is_extended_sigma(a):
        return _bracket_element(sigma_left_expansion(a, params),
                                Combination.term(params, b), params)
    if is_extended_sigma(b):
        return _bracket_element(Combination.term(params, a),
                                sigma_left_expansion(b, params), params)
    fn = _TABLE.get((a.kind, b.kind))
    if fn is not None:
        return Combination.from_items(params, fn(a, b))
    # lower-priority kind first: antisymmetry
    return -bracket_gen(b, a, params)


def _bracket_element(a: Element, b: Element, params: AlgebraParams) -> Element:
    total = Combination.zero(params)
    for g1, c1 in a:
        for g2, c2 in b:
            total = total + bracket_gen(g1, g2, params).scaled(c1 * c2)
    return total


def bracket(a: Element, b: Element) -> Element:
    """Bilinear extension of the generator-pair brackets."""
    if a.params != b.params:
        raise ValueError("algebra parameter mismatch between bracket operands")
    return _bracket_element(a, b, a.params)


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


@dataclass(frozen=True)
class RootData:
    """Nonzero eigenvalue pairs of a root vector under diagonal generators."""

    pairs: tuple  # ((Generator, +1), (Generator, -1))


def is_root_vector(e: Element):
    """RootData if e is a common eigenvector of the diagonal subalgebra.

    That happens exactly when e is a scalar multiple of a single
    whole-chain (kind f) generator whose index words differ; the
    eigenvalues are +1 under the diagonal generator of its upper word
    and -1 under that of its lower word.
    """
    if len(e) != 1:
        return None
    (g, _), = list(e)
    if g.kind != KIND_F:
        return None
    up, lo = index_words(g)
    if up == lo:
        return None
    return RootData(((diagonal_f(up), 1), (diagonal_f(lo), -1)))


def cartan_commutes(g1: Generator, g2: Generator, params: AlgebraParams) -> bool:
    """Exact check that two diagonal generators commute, in canonical form."""
    from .basis import to_b0

    for g in (g1, g2):
        if classify(g) is not TriangularClass.DIAGONAL:
            raise ValueError(f"{g!r} is not diagonal")
    return to_b0(bracket_gen(g1, g2, params), params).is_zero()
