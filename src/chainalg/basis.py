"""Membership tests and rewriting for the two explicit bases.

Basis b0 (canonical forms): whole-chain operators whose two flavor pairs
both differ from (1,1), end operators whose flavor pair differs from
(1,1), and every interior operator including the extended ones.  Basis
b4 (module construction): every whole-chain operator, end and interior
operators restricted by first/last-index conditions, plus the extended
interior operators.

Every substitution rule is a signed sum of one identity: an operator
whose window is open at one end (the right end of l and s, the left end
of r and s) acts on every chain as the sum of its padding there, its
copies one letter longer at that end plus the operators closing that
end.  So whole - sum(padding(whole)) acts as zero, and a step adds to g
such identities, chosen so that g cancels:
  b0  l(1,1)[I|J]              left padding of s[I|J]
  b0  f(a,b;1,1)[I|J]          right padding of l(a,b)[I|J]
  b4  l or s, [I'1^n|J'1^n]    right paddings of op(I'1^p|J'1^p), p < n
  b4  r(1,1)[I|], I = () or 1...  right padding of s[I|] less the left
                                  padding of s[rotate(I)|]
The 1-block paddings telescope, so the whole block goes in one step.
Iterated until only kind-f generators are left, the identity writes any
operator as its whole-chain sum (whole_chain_sum), finite on chains of
bounded length.
Every other generator outside a basis is the chain-reversal (mirror_gen)
or omega image (upper and lower data swapped) of one of these: both
bases are omega-invariant, and b4 breaks mirror invariance only at
r(1,1)[|], r(1,1)[1...|] and r(1,1)[|1...], the omega image of the
second.  The b0 rewrite is unique because b0 is a basis; the b4
recursion depth is at most the total index size plus two.  Only
to_b4_gen is memoised, as its sub-generators repeat across Gram words; a
b0 step yields terms in b0 or one step from it, so to_b0_gen needs no memo.
"""

from __future__ import annotations

from functools import lru_cache

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
    congruence,
    gen_f,
    gen_l,
    gen_r,
    gen_s,
    mirror,
    mirror_gen,
    omega,
    omega_gen,
    trailing_ones,
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
# the padding identity, and rewriting into b0

def padding(g: Generator, params: AlgebraParams, right: bool = True) -> list:
    """The generators whose sum acts as g, padded at its right (or left) end.

    At the right end of l(a,b) or s: g[Ij|Jj] for every color j, then for
    every flavor m the operator closing that end, f(a,b;m,m) or r(m,m).
    At the left end of r(a,b) or s: g[jI|jJ], then f(m,m;a,b) or l(m,m).
    """
    kind, up, lo, fl = g.kind, g.upper, g.lower, g.flavors
    if kind == KIND_F or kind == (KIND_R if right else KIND_L):
        raise ValueError(f"{g!r} has no open {'right' if right else 'left'} end")
    if right:
        gens = [Generator(kind, up + (j,), lo + (j,), fl) for j in params.color_range()]
    else:
        gens = [Generator(kind, (j,) + up, (j,) + lo, fl) for j in params.color_range()]
    for m in params.flavor_range():
        if kind == KIND_S:
            gens.append(Generator(KIND_R if right else KIND_L, up, lo, (m, m)))
        else:
            gens.append(Generator(KIND_F, up, lo, fl + (m, m) if right else (m, m) + fl))
    return gens


def whole_chain_sum(g: Generator, params: AlgebraParams, max_len: int) -> Element:
    """The kind-f generators whose sum acts as g on every chain of body length <= max_len.

    Pads g at its open end (right for l and s, left for r), then each padding
    generator in turn, keeping the f ones; a generator whose lower word is
    longer than max_len acts on no such chain and is dropped.  Each (left,
    right, flavor) padding is reached once, so a term's coefficient is the
    number of paddings that build it.
    """
    items, todo = [], [g]
    while todo:
        h = todo.pop()
        if len(h.lower) > max_len:
            continue
        if h.kind == KIND_F:
            items.append((h, 1))
        else:
            todo += padding(h, params, right=h.kind != KIND_R)
    return Combination.from_items(params, items)


def _vanishing(whole: Generator, params: AlgebraParams, right=True, sign=1) -> list:
    """sign * (whole - sum of its padding) as items; it acts as zero on every chain."""
    return [(whole, sign)] + [(h, -sign) for h in padding(whole, params, right)]


def _b0_step(g: Generator, params: AlgebraParams) -> Element:
    """One substitution step for a generator outside b0."""
    if g.kind == KIND_R or (g.kind == KIND_F and g.flavors[2:] != (1, 1)):
        # (1,1) pair at the right end only: mirror image of the left-end case
        return mirror(_b0_step(mirror_gen(g), params))
    if g.kind == KIND_L:  # l(1,1)[I|J] closes the left padding of s[I|J]
        whole, right = gen_s(g.upper, g.lower), False
    else:  # f(a,b;1,1)[I|J] closes the right padding of l(a,b)[I|J]
        whole, right = gen_l(*g.flavors[:2], g.upper, g.lower), True
    return Combination.from_items(params, [(g, 1)] + _vanishing(whole, params, right))


def to_b0_gen(g: Generator, params: AlgebraParams) -> Element:
    if in_b0(g):
        return Combination.term(params, g)
    return to_b0(_b0_step(g, params))


def to_b0(e: Element) -> Element:
    """Rewrite into basis b0; equals the input as an open-string-algebra element."""
    return e.map(lambda g: to_b0_gen(g, e.params))


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
    items = [(g, 1)]
    if g.kind == KIND_R:
        # r(1,1)[I|], I empty or starting with 1: the terms the two paddings
        # share cancel
        items += _vanishing(gen_s(up, ()), params)
        items += _vanishing(gen_s(up[1:] + up[:1], ()), params, right=False, sign=-1)
    else:
        # left-end or interior operator, both sequences end in 1: the right
        # paddings of the copies short of 1^k, k <= n, telescope, so the
        # shared 1-block goes in one step
        n = min(trailing_ones(up), trailing_ones(lo))
        for k in range(n, 0, -1):
            items += _vanishing(Generator(g.kind, up[:-k], lo[:-k], g.flavors), params)
    return Combination.from_items(params, items)


@lru_cache(maxsize=None)
def to_b4_gen(g: Generator, params: AlgebraParams) -> Element:
    if in_b4(g):
        return Combination.term(params, g)
    return _b4_step(g, params).map(lambda h: to_b4_gen(h, params))


def to_b4(e: Element) -> Element:
    """Rewrite into basis b4; equals the input as an open-string-algebra element."""
    return e.map(lambda g: to_b4_gen(g, e.params))


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


def _action_gram(params: AlgebraParams, max_size: int, max_len: int) -> dict:
    """Sparse rows of G = M M^T, M the b0 generators' action rows on the chains.

    Distinct (chain, image) pairs are orthonormal, so x^T G x = |M^T x|^2:
    G is positive semidefinite and rank G = rank M.
    """
    gens, chains = enumerate_b0(params, max_size), list(all_chains(params, max_len))
    cols: dict = {}
    for a, g in enumerate(gens):
        for c in chains:
            for out, coeff in _act_gen_chain(g, c.left, c.body, c.right):
                col = cols.setdefault((c, out), {})
                col[a] = col.get(a, 0) + coeff
    gram: dict = {a: {} for a in range(len(gens))}
    for col in cols.values():
        for a, x in col.items():
            for b, y in col.items():
                gram[a][b] = gram[a].get(b, 0) + x * y
    return {a: {b: v for b, v in row.items() if v} for a, row in gram.items()}


def independence_check_b0(params: AlgebraParams, max_size: int, max_len: int) -> bool:
    """Exact rank of the action matrix equals the number of b0 generators."""
    gram = _action_gram(params, max_size, max_len)
    n_pos, _, _ = congruence(gram)  # G is semidefinite: its rank is n_pos
    return n_pos == len(gram)
