"""The defining representation on open matrix chains, and its tensor powers.

A chain is (left flavor, body, right flavor): a conjugate parton, a word
of adjoint partons and a fundamental parton.  States are exact rational
combinations of chains; equality of algebra elements in the open string
algebra means equality of their actions on every chain, which this
module probes up to a chosen body length.

_act_gen_chain is the one rule for a single generator on a single chain, read
and yielded as (left, body, right) field tuples.  act and act_tensor share one
loop.  It applies the rule only to the terms that can act, indexing each
element once by the chain data its terms read (a one-entry memo keyed by
identity keeps the index across equal_on_chains), and sums integer numerators
over one common denominator, on field tuples for act: one Chain and one
Fraction per nonzero output.  equal_on_chains builds a Chain and asks act only
where that index finds a term of the difference; act maps the rest to 0.

all_chains decides the one chain order: bodies in the sequence ordering,
then flavor pairs, right flavor fastest.  chain_sort_key sorts in it and
arg_at / arg_index are its position map, O(body length) each; row k of a
partition weight sits on the k-th chain (partition_chains).

Young symmetrizers cut invariant subspaces out of tensor powers; the
projected tensor of the leading chains is a concrete lowest weight vector.
The row (column) group is the product of its rows' (columns') symmetric
groups, so the projector symmetrizes one row, then antisymmetrizes one
column, at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (
    _ATOM_FORMS,
    KIND_F,
    KIND_L,
    KIND_R,
    AlgebraParams,
    Combination,
    Element,
    Generator,
    all_seqs,
    check_indices,
    render_seq,
)


@dataclass(frozen=True)
class Chain:
    left: int
    body: tuple
    right: int

    def __repr__(self):
        return render_chain(self)


def chain(left: int, body, right: int) -> Chain:
    return Chain(left, tuple(body), right)


def render_chain(c: Chain) -> str:
    return "chain" + _ATOM_FORMS["chain"].format(c.left, c.right, render_seq(c.body))


ChainState = Combination  # keys: Chain
TensorState = Combination  # keys: tuple of Chain, fixed length


def chain_state(params: AlgebraParams, c: Chain, coeff=Fraction(1)) -> ChainState:
    return Combination.term(params, c, coeff)


# ---------------------------------------------------------------------------
# single-chain action of one generator

def _act_gen_chain(g: Generator, left: int, body: tuple, right: int):
    """Yield ((left, body, right), mult) contributions of one generator on one chain."""
    n = len(body)
    if g.kind == KIND_F:
        l1, l2, l3, l4 = g.flavors
        if left == l2 and body == g.lower and right == l4:
            yield (l1, g.upper, l3), 1
    elif g.kind == KIND_L:
        l1, l2 = g.flavors
        k = len(g.lower)
        if left == l2 and body[:k] == g.lower:
            yield (l1, g.upper + body[k:], right), 1
    elif g.kind == KIND_R:
        # written out, not derived through mirror_gen: the right-end identity
        # then checks this branch against the f branch, not a mirror copy
        l1, l2 = g.flavors
        k = len(g.lower)
        if right == l2 and (k == 0 or body[-k:] == g.lower):
            head = body[: n - k] if k else body
            yield (left, head + g.upper, l1), 1
    else:
        lo, up = g.lower, g.upper
        if not lo and not up:
            # length counter
            yield (left, body, right), n + 1
        elif not lo:
            # inserter: one copy of the upper word at every gap
            for cut in range(n + 1):
                yield (left, body[:cut] + up + body[cut:], right), 1
        else:
            # match every occurrence of the lower word, substitute the upper
            k = len(lo)
            for start in range(n - k + 1):
                if body[start : start + k] == lo:
                    yield (left, body[:start] + up + body[start + k :], right), 1


def _index_terms(e: Element) -> tuple:
    """Tables from the chain data each term of e reads to its (generator, k), and D_e.

    D_e is the lcm of e's denominators, so k = coeff * D_e is an int.  f terms
    are keyed by (left flavor, lower word, right flavor); l and r terms by
    (end flavor, lower word) and s terms with a nonempty lower word by that
    word, one table per lower length.  The length counter and the inserters
    act on every chain and sit in a plain list.
    """
    d_e = lcm(*(c.denominator for c in e.terms.values()))
    whole, left, right, inner, every = {}, {}, {}, {}, []
    for g, coeff in e:
        term = (g, coeff.numerator * (d_e // coeff.denominator))
        kind, lo = g.kind, g.lower
        if kind == KIND_F:
            table, key = whole, (g.flavors[1], lo, g.flavors[3])
        elif kind == KIND_L:
            table, key = left.setdefault(len(lo), {}), (g.flavors[1], lo)
        elif kind == KIND_R:
            table, key = right.setdefault(len(lo), {}), (g.flavors[1], lo)
        elif lo:
            table, key = inner.setdefault(len(lo), {}), lo
        else:
            every.append(term)
            continue
        table.setdefault(key, []).append(term)
    return (whole, left, right, inner, every), d_e


def _terms_on(index: tuple, lf: int, body: tuple, rf: int) -> list:
    """The indexed terms whose lower data occurs in the chain: the only ones that act."""
    whole, left, right, inner, every = index
    n = len(body)
    terms = every + whole.get((lf, body, rf), [])
    for k, table in left.items():
        if k <= n:
            terms += table.get((lf, body[:k]), ())
    for k, table in right.items():
        if k <= n:
            terms += table.get((rf, body[n - k :]), ())
    for k, table in inner.items():
        # each distinct occurrence once; _act_gen_chain counts the repeats
        for sub in {body[i : i + k] for i in range(n - k + 1)}:
            terms += table.get(sub, ())
    return terms


# One-entry memo: equal_on_chains acts with the same difference on every
# chain.  Holding the element keeps its id from being reused while stored;
# the pair is read and replaced whole, so a concurrent caller never mixes
# one element with another's index.
_last_index = (None, None)  # (element, _index_terms(element))


def _index_of(e: Element) -> tuple:
    global _last_index
    held, index = _last_index
    if held is not e:
        index = _index_terms(e)
        _last_index = (e, index)
    return index


def _act_sum(e: Element, psi: Combination, tensor: bool) -> Combination:
    """The loop of act, on field tuples, and of act_tensor, on chain tuples slot by slot."""
    if e.params != psi.params:
        raise ValueError("algebra parameter mismatch between element and state")
    index, d_e = _index_of(e)
    d_psi = lcm(*(w.denominator for w in psi.terms.values()))
    acc = {}
    for key, w in psi:
        w_num = w.numerator * (d_psi // w.denominator)
        for slot, c in enumerate(key) if tensor else ((0, key),):
            for g, k in _terms_on(index, c.left, c.body, c.right):
                for out, mult in _act_gen_chain(g, c.left, c.body, c.right):
                    if tensor:
                        out = key[:slot] + (Chain(*out),) + key[slot + 1 :]
                    acc[out] = acc.get(out, 0) + k * w_num * mult
    terms = {k if tensor else Chain(*k): Fraction(t, d_e * d_psi) for k, t in acc.items() if t}
    return Combination(psi.params, terms)


def act(e: Element, psi: ChainState) -> ChainState:
    """Bilinear extension of the generator action to states."""
    return _act_sum(e, psi, tensor=False)


def matrix_element(g: Generator, src: Chain, dst: Chain) -> int:
    """Coefficient of dst in g . src."""
    want = (dst.left, dst.body, dst.right)
    return sum(m for out, m in _act_gen_chain(g, src.left, src.body, src.right) if out == want)


# ---------------------------------------------------------------------------
# the chain order

def all_chains(params: AlgebraParams, max_len: int):
    """Every basis chain with body length up to max_len, ascending in chain_sort_key."""
    for body in all_seqs(params, max_len):
        for lf in params.flavor_range():
            for rf in params.flavor_range():
                yield Chain(lf, body, rf)


def chain_sort_key(c: Chain):
    return (len(c.body), c.body, c.left, c.right)


def arg_at(k: int, params: AlgebraParams) -> tuple:
    """The k-th chain of all_chains (k from 1) as (left flavor, body, right flavor)."""
    if k < 1:
        raise ValueError("argument positions start at 1")
    n, within = divmod(k - 1, params.flavors**2)
    body = []
    while n:  # n is the body's position in all_seqs, a bijective base-lambda numeral
        n, digit = divmod(n - 1, params.colors)
        body.append(digit + 1)
    lf, rf = divmod(within, params.flavors)
    return (lf + 1, tuple(reversed(body)), rf + 1)


def arg_index(arg: tuple, params: AlgebraParams) -> int:
    """Position (from 1) of the chain (left flavor, body, right flavor) in all_chains."""
    lf, body, rf = arg
    check_indices(params, body, (lf, rf))
    n = 0
    for i in body:
        n = n * params.colors + i
    return (n * params.flavors + lf - 1) * params.flavors + rf


def equal_on_chains(a: Element, b: Element, max_len: int) -> bool:
    """Whether a and b act identically on every chain of body length <= max_len."""
    if max_len < 0:
        raise ValueError(f"max_len must be at least 0, got {max_len}")
    params = a.params
    diff = a - b  # a zero difference has no term, so no chain is probed
    index, _ = _index_of(diff)
    fl = params.flavor_range()
    for body, lf, rf in itertools.product(all_seqs(params, max_len), fl, fl):  # all_chains' order
        if _terms_on(index, lf, body, rf) and act(diff, chain_state(params, Chain(lf, body, rf))):
            return False
    return True


# ---------------------------------------------------------------------------
# tensor powers

def tensor_state(params: AlgebraParams, chains_tuple, coeff=1) -> TensorState:
    return Combination.term(params, tuple(chains_tuple), coeff)


def act_tensor(e: Element, psi: TensorState) -> TensorState:
    """Derivation action: sum over slots of the single-factor action."""
    return _act_sum(e, psi, tensor=True)


def inner_chain(a: TensorState, b: TensorState) -> Fraction:
    """Pairing in which distinct chain tuples are orthonormal."""
    arities = {len(k) for k in a.keys()} | {len(k) for k in b.keys()}
    if len(arities) > 1:
        raise ValueError("arity mismatch between tensor states")
    total = Fraction(0)
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    for k, c in small:
        total += c * big.get(k)
    return total


# ---------------------------------------------------------------------------
# Young symmetrizers

def check_partition(gamma) -> tuple:
    gamma = tuple(int(p) for p in gamma)
    if any(p <= 0 for p in gamma):
        raise ValueError("partition parts must be positive")
    if any(a < b for a, b in zip(gamma, gamma[1:])):
        raise ValueError("partition parts must be weakly decreasing")
    return gamma


def partition_chains(gamma: tuple, params: AlgebraParams):
    """(k-th chain of all_chains, row k of gamma) for each row of the partition gamma."""
    return zip(all_chains(params, len(gamma)), gamma)


def _symmetrize(psi: TensorState, blocks, signed: bool) -> TensorState:
    """Sum psi over the permutations of each block's slots, one block at a time,
    each term with the permutation's sign if signed."""
    for block in blocks:
        items = []
        for tup, c in psi:
            for img in itertools.permutations(block):
                t = list(tup)
                for pos, src in zip(block, img):
                    t[pos] = tup[src]
                # blocks ascend, so the inversions of img give its sign
                odd = sum(x > y for x, y in itertools.combinations(img, 2)) % 2
                items.append((tuple(t), -c if signed and odd else c))
        psi = Combination.from_items(psi.params, items)
    return psi


def young_project(psi: TensorState, gamma) -> TensorState:
    """Row-symmetrize then column-antisymmetrize tensor slots (unnormalized),
    on the row-major filling of the diagram with slots 0..d-1."""
    gamma = check_partition(gamma)
    d = sum(gamma)
    arities = {len(k) for k in psi.keys()}
    if arities and arities != {d}:
        raise ValueError(f"partition size {d} does not match tensor arity")
    starts = itertools.accumulate(gamma, initial=0)
    rows = [range(k, k + part) for k, part in zip(starts, gamma)]
    cols = [[row[j] for row in rows if j < len(row)] for j in range(gamma[0] if gamma else 0)]
    return _symmetrize(_symmetrize(psi, rows, False), cols, True)


# ---------------------------------------------------------------------------
# concrete lowest weight vectors

class ZeroProjectionError(ValueError):
    """The symmetrizer annihilated the seed tensor."""


def lowest_weight_vector_concrete(gamma, params: AlgebraParams) -> TensorState:
    """Unnormalized Young projection of the tensor with row k's parts on the k-th chain."""
    gamma = check_partition(gamma)
    slots = [c for c, part in partition_chains(gamma, params) for _ in range(part)]
    psi = tensor_state(params, slots)
    out = young_project(psi, gamma)
    if out.is_zero():
        raise ZeroProjectionError(f"partition {gamma} projects the seed tensor to zero")
    return out
