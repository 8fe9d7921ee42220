"""Membership tests and rewriting for the two explicit bases.

Basis b0 (canonical forms): whole-chain operators whose two flavor pairs
both differ from (1,1), end operators whose flavor pair differs from
(1,1), and every interior operator including the extended ones.  Basis
b4 (module construction): every whole-chain operator, end and interior
operators restricted by first/last-index conditions, plus the extended
interior operators.

Rewriting a generator into either basis uses finite substitution
identities that leave the action on every chain unchanged, applied
recursively.  Rewriting into b0 needs two rules, l(1,1) and a whole-chain
operator with right flavor pair (1,1); the rewrite is unique because b0
is a basis, so chaining them reproduces any one-shot expansion.

Basis b0 is invariant under chain reversal (mirror_gen), so its
right-end substitutions are the mirror images of the left-end ones.
Rewriting into b4 needs one block rule: a left-end or interior operator
whose sequences both end in 1 loses the whole shared trailing 1-block in
one step.  Both sequences starting with 1 (a right-end operator with two
nonempty sequences, or an interior one whose sequences do not both end
in 1) is the mirror image of that case.  Basis b4 breaks mirror
invariance only at right-end operators with flavor pair (1,1) and an
empty sequence: it keeps every left-end operator with an empty sequence
but drops r(1,1)[|], r(1,1)[1...|] and r(1,1)[|1...].  The first two
rules are written out; the deleter rule r(1,1)[|1...] is the omega image
of the inserter rule r(1,1)[1...|], because both bases are invariant
under the anti-involution omega, which swaps upper and lower data.  The
b4 recursion depth is bounded by the total index size plus two.  Only
to_b4_gen is memoised, as its sub-generators repeat across Gram words; a b0
step yields terms in b0 or one step from it, so to_b0_gen needs no memo.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .chains import _act_gen_chain, all_chains
from .core import (
    KIND_F,
    KIND_L,
    KIND_R,
    KIND_S,
    AlgebraParams,
    Combination,
    Element,
    Generator,
    all_seqs,
    gen_f,
    gen_l,
    gen_r,
    gen_s,
    mirror,
    mirror_gen,
    omega,
    omega_gen,
    run_length,
)


def in_b0(g: Generator) -> bool:
    if g.kind == KIND_F:
        l1, l2, l3, l4 = g.flavors
        return (l1, l2) != (1, 1) and (l3, l4) != (1, 1)
    if g.kind in (KIND_L, KIND_R):
        return g.flavors != (1, 1)
    return True  # every interior operator, extended ones included


def in_b4(g: Generator) -> bool:
    up, lo = g.upper, g.lower
    if g.kind == KIND_F:
        return True
    if g.kind == KIND_L:
        return not (up and lo and up[-1] == 1 and lo[-1] == 1)
    if g.kind == KIND_R:
        if not up and not lo:
            return g.flavors != (1, 1)
        if up and not lo:
            return g.flavors != (1, 1) or up[0] != 1
        if lo and not up:
            return g.flavors != (1, 1) or lo[0] != 1
        return not (up[0] == 1 and lo[0] == 1)
    if not up or not lo:
        return True
    return not (up[0] == 1 and lo[0] == 1) and not (up[-1] == 1 and lo[-1] == 1)


# ---------------------------------------------------------------------------
# rewriting into b0: recursive substitution

def _b0_step(g: Generator, params: AlgebraParams) -> Element:
    """One substitution step for a generator outside b0."""
    if g.kind == KIND_R or (g.kind == KIND_F and g.flavors[2:] != (1, 1)):
        # (1,1) pair at the right end only: mirror image of the left-end case
        return mirror(_b0_step(mirror_gen(g), params))
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


def to_b0_gen(g: Generator, params: AlgebraParams) -> Element:
    if in_b0(g):
        return Combination.term(params, g)
    return to_b0(_b0_step(g, params), params)


def _check_params(e: Element, params: AlgebraParams | None) -> AlgebraParams:
    if params is not None and params != e.params:
        raise ValueError("algebra parameter mismatch between element and basis rewrite")
    return e.params


def to_b0(e: Element, params: AlgebraParams | None = None) -> Element:
    """Rewrite into basis b0; equals the input as an open-string-algebra element."""
    params = _check_params(e, params)
    return e.map(lambda g: to_b0_gen(g, params))


# ---------------------------------------------------------------------------
# rewriting into b4: recursive stripping of 1-blocks

def _b4_step(g: Generator, params: AlgebraParams) -> Element:
    """One substitution step for a generator outside b4."""
    up, lo = g.upper, g.lower
    if g.kind == KIND_R and lo and not up:
        # deleter with unit flavors: omega image of the inserter rule
        return omega(_b4_step(omega_gen(g), params))
    if (g.kind == KIND_R and up and lo) or (g.kind == KIND_S and not (up[-1] == lo[-1] == 1)):
        # both sequences start with 1 (an interior operator strips trailing
        # 1s first): mirror image of the trailing-block rule
        return mirror(_b4_step(mirror_gen(g), params))
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
        n = min(run_length(up, 1, True), run_length(lo, 1, True))
        bu, bl = up[:-n], lo[:-n]
        items = [(op(bu, bl), 1)]
        for p in range(n):
            u, v = bu + (1,) * p, bl + (1,) * p
            items += [(op(u + (j,), v + (j,)), -1) for j in colors if j >= 2]
            items += [(cap(m, u, v), -1) for m in flavors]
    return Combination.from_items(params, items)


@lru_cache(maxsize=None)
def to_b4_gen(g: Generator, params: AlgebraParams) -> Element:
    if in_b4(g):
        return Combination.term(params, g)
    return _b4_step(g, params).map(lambda h: to_b4_gen(h, params))


def b4_rewrite_depth(g: Generator, params: AlgebraParams) -> int:
    """Longest substitution chain taken while rewriting g into b4."""
    if in_b4(g):
        return 0
    return 1 + max((b4_rewrite_depth(h, params) for h in _b4_step(g, params).keys()), default=0)


def to_b4(e: Element, params: AlgebraParams | None = None) -> Element:
    """Rewrite into basis b4; equals the input as an open-string-algebra element."""
    params = _check_params(e, params)
    return e.map(lambda g: to_b4_gen(g, params))


# ---------------------------------------------------------------------------
# generator enumeration and exact independence check

def enumerate_generators(params: AlgebraParams, max_size: int):
    """All generators with total index size <= max_size (extended ones included)."""
    fl = list(params.flavor_range())
    for up in all_seqs(params, max_size):
        for lo in all_seqs(params, max_size - len(up)):
            for l1 in fl:
                for l2 in fl:
                    yield gen_l(l1, l2, up, lo)
                    yield gen_r(l1, l2, up, lo)
                    for l3 in fl:
                        for l4 in fl:
                            yield gen_f(l1, l2, l3, l4, up, lo)
            yield gen_s(up, lo)


def enumerate_b0(params: AlgebraParams, max_size: int):
    return [g for g in enumerate_generators(params, max_size) if in_b0(g)]


def sparse_rank(rows: list) -> int:
    """Rank of sparse rational rows (dicts keyed by comparable column ids)."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        work = {c: Fraction(v) for c, v in row.items() if v}
        while work:
            col = min(work)
            if col in pivots:
                f = work.pop(col)
                for c2, v in pivots[col].items():
                    s = work.get(c2, Fraction(0)) - f * v
                    if s:
                        work[c2] = s
                    else:
                        work.pop(c2, None)
            else:
                lead = work.pop(col)
                pivots[col] = {c: v / lead for c, v in work.items()}
                rank += 1
                break
    return rank


def independence_check_b0(params: AlgebraParams, max_size: int, max_len: int) -> bool:
    """Exact rank of the action matrix equals the number of b0 generators."""
    gens = enumerate_b0(params, max_size)
    col_ids: dict = {}
    rows = []
    for g in gens:
        row: dict = {}
        for c in all_chains(params, max_len):
            for out, coeff in _act_gen_chain(g, c):
                key = (c, out)
                cid = col_ids.setdefault(key, len(col_ids))
                row[cid] = row.get(cid, 0) + coeff
        rows.append(row)
    return sparse_rank(rows) == len(gens)
