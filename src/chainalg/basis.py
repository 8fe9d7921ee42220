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
is a basis, so chaining them reproduces any one-shot expansion.  Rewriting
into b4 strips leading or trailing 1-blocks, and its recursion depth is
bounded by the total index size plus two.

Basis b0 is invariant under chain reversal (mirror_gen), so its
right-end substitutions are the mirror images of the left-end ones.
Basis b4 is not: it keeps every left-end operator with an empty
sequence, but drops a right-end one with flavor pair (1,1) when both
sequences are empty or the nonempty one starts with 1 (l(1,1)[|1] is in
b4, r(1,1)[|1] is not), so its rules stay written out for both ends.
Both bases are invariant under the anti-involution omega, which swaps
upper and lower data, so the right-end deleter rule (r(1,1)[|1...]) is
the omega image of the inserter rule (r(1,1)[1...|]).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .core import (
    KIND_F,
    KIND_L,
    KIND_R,
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


@lru_cache(maxsize=None)
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
    total = Combination.zero(params)
    for g, c in e:
        total = total + to_b0_gen(g, params).scaled(c)
    return total


# ---------------------------------------------------------------------------
# rewriting into b4: recursive stripping of 1-blocks

def _b4_step(g: Generator, params: AlgebraParams) -> Element:
    """One substitution step for a generator outside b4."""
    up, lo = g.upper, g.lower
    if g.kind == KIND_R and lo and not up:
        # deleter with unit flavors: omega image of the inserter rule
        return omega(_b4_step(omega_gen(g), params))
    colors, flavors = params.color_range(), params.flavor_range()
    items = []
    if g.kind == KIND_L:
        # both sequences end in 1: strip the shared trailing 1-block at once
        l1, l2 = g.flavors
        n = min(run_length(up, 1, True), run_length(lo, 1, True))
        bu, bl = up[:-n], lo[:-n]
        items.append((gen_l(l1, l2, bu, bl), 1))
        for p in range(n):
            pad = (1,) * p
            items += [
                (gen_l(l1, l2, bu + pad + (j,), bl + pad + (j,)), -1)
                for j in colors
                if j >= 2
            ]
            items += [(gen_f(l1, l2, m, m, bu + pad, bl + pad), -1) for m in flavors]
    elif g.kind == KIND_R:
        l1, l2 = g.flavors
        if not up and not lo:
            # diagonal end operator with unit flavors
            items += [(gen_l(m, m, (), ()), 1) for m in flavors]
            items += [(gen_r(m, m, (), ()), -1) for m in flavors if m >= 2]
        elif up and not lo:
            # upper sequence starts with 1, unit flavors
            core = up[1:]
            items.append((gen_s((1,) + core, ()), 1))
            items.append((gen_s(core + (1,), ()), -1))
            items += [(gen_s((i,) + core + (1,), (i,)), 1) for i in colors if i >= 2]
            items += [(gen_s((1,) + core + (j,), (j,)), -1) for j in colors if j >= 2]
            items += [(gen_l(m, m, core + (1,), ()), 1) for m in flavors]
            items += [(gen_r(m, m, (1,) + core, ()), -1) for m in flavors if m >= 2]
        else:
            # both sequences start with 1: strip one leading 1
            bu, bl = up[1:], lo[1:]
            items.append((gen_r(l1, l2, bu, bl), 1))
            items += [(gen_r(l1, l2, (i,) + bu, (i,) + bl), -1) for i in colors if i >= 2]
            items += [(gen_f(m, m, l1, l2, bu, bl), -1) for m in flavors]
    else:
        # interior operator, both sequences nonempty
        if up[-1] == 1 and lo[-1] == 1:
            bu, bl = up[:-1], lo[:-1]
            items.append((gen_s(bu, bl), 1))
            items += [(gen_s(bu + (j,), bl + (j,)), -1) for j in colors if j >= 2]
            items += [(gen_r(m, m, bu, bl), -1) for m in flavors]
        else:
            bu, bl = up[1:], lo[1:]
            items.append((gen_s(bu, bl), 1))
            items += [(gen_s((i,) + bu, (i,) + bl), -1) for i in colors if i >= 2]
            items += [(gen_l(m, m, bu, bl), -1) for m in flavors]
    return Combination.from_items(params, items)


def to_b4_gen(g: Generator, params: AlgebraParams) -> Element:
    elem, _depth = _to_b4_gen_depth(g, params)
    return elem


def b4_rewrite_depth(g: Generator, params: AlgebraParams) -> int:
    """Longest substitution chain taken while rewriting g into b4."""
    _elem, depth = _to_b4_gen_depth(g, params)
    return depth


@lru_cache(maxsize=None)
def _to_b4_gen_depth(g: Generator, params: AlgebraParams):
    if in_b4(g):
        return (Combination.term(params, g), 0)
    total = Combination.zero(params)
    depth = 0
    for h, c in _b4_step(g, params):
        sub, d = _to_b4_gen_depth(h, params)
        total = total + sub.scaled(c)
        depth = max(depth, d)
    return (total, depth + 1)


def to_b4(e: Element, params: AlgebraParams | None = None) -> Element:
    """Rewrite into basis b4; equals the input as an open-string-algebra element."""
    params = _check_params(e, params)
    total = Combination.zero(params)
    for g, c in e:
        total = total + to_b4_gen(g, params).scaled(c)
    return total


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
    from .chains import act_gen, all_chains

    gens = enumerate_b0(params, max_size)
    col_ids: dict = {}
    rows = []
    for g in gens:
        row: dict = {}
        for c in all_chains(params, max_len):
            for out, coeff in act_gen(g, c, params):
                key = (c, out)
                cid = col_ids.setdefault(key, len(col_ids))
                row[cid] = row.get(cid, 0) + coeff
        rows.append(row)
    return sparse_rank(rows) == len(gens)
