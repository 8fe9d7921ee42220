"""Padding sums shared by the tests, and the written-out whole-chain sums that
basis.whole_chain_sum replaced, kept as its references."""

import itertools

from chainalg.basis import padding
from chainalg.core import Combination, all_seqs, gen_f, gen_l


def padded(g, params, right=True):
    """The sum of g's padding at its right (or left) end, as an element."""
    return Combination.from_items(params, ((h, 1) for h in padding(g, params, right)))


def padding_pairs(params, depth):
    """Every (left, right) pair of sequences of total length <= depth."""
    for left in all_seqs(params, depth):
        for right in all_seqs(params, depth - len(left)):
            yield left, right


def reference_left_end_sum(params, l1, l2, up, lo, max_len) -> tuple:
    """l(l1,l2)[up|lo] and its whole-chain sum over the padding tails of length <= max_len."""
    tails = itertools.product(all_seqs(params, max_len), params.flavor_range())
    rhs = [(gen_f(l1, l2, l3, l3, up + tail, lo + tail), 1) for tail, l3 in tails]
    return Combination.term(params, gen_l(l1, l2, up, lo)), Combination.from_items(params, rhs)


def reference_interior_sum(upper, lower, depth, params):
    """The whole-chain sum of s[upper|lower] over the paddings of total length <= depth."""
    fl = params.flavor_range()
    return Combination.from_items(params, (
        (gen_f(l1, l1, l2, l2, left + upper + right, left + lower + right), 1)
        for left, right in padding_pairs(params, depth)
        for l1 in fl
        for l2 in fl
    ))
