"""Verification suites shared by the CLI check command and the test suite.

Each suite checks the one AlgebraParams it is given, at the fixed sizes its
docstring names.  The identity suite derives two of its three whole-chain
sums.  The right-end sum is the chain-reversal image (mirror) of the
left-end sum built for the reversed sequences, and the interior sum is
verma.truncated_interior_element, which must act as zero.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .basis import independence_check_b0, to_b0
from .bracket import bracket, sigma_left_expansion, sigma_right_expansion
from .chains import (
    act,
    act_tensor,
    all_chains,
    chain_state,
    equal_on_chains,
    inner_chain,
    lowest_weight_vector_concrete,
)
from .core import (
    _N_FLAVORS,
    KINDS,
    AlgebraParams,
    Combination,
    Element,
    Generator,
    all_seqs,
    gen_f,
    gen_l,
    gen_s,
    mirror,
)
from .verma import gram_matrix, truncated_interior_element
from .weights import weight_from_partition


def random_generator(rng: random.Random, params: AlgebraParams, max_seq: int = 2) -> Generator:
    def seq():
        n = rng.randint(0, max_seq)
        return tuple(rng.randint(1, params.colors) for _ in range(n))

    # flavors, then the upper and the lower sequence: the seeded draws depend on this order
    kind = rng.choice(KINDS)
    flavors = tuple(rng.randint(1, params.flavors) for _ in range(_N_FLAVORS[kind]))
    return Generator(kind, seq(), seq(), flavors)


def random_element(
    rng: random.Random, params: AlgebraParams, max_terms: int = 3, max_seq: int = 2
) -> Element:
    items = []
    for _ in range(rng.randint(1, max_terms)):
        num = rng.randint(-3, 3) or 1
        den = rng.randint(1, 3)
        items.append((random_generator(rng, params, max_seq), Fraction(num, den)))
    return Combination.from_items(params, items)


# ---------------------------------------------------------------------------

def suite_jacobi(params, seed=0, cases=200, max_len=4):
    """Antisymmetry and the Jacobi identity in canonical form, random triples (sequences <= 2)."""
    del max_len
    if cases < 1:
        raise ValueError(f"--cases must be at least 1 for the jacobi suite, got {cases}")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        a = Combination.term(params, random_generator(rng, params))
        b = Combination.term(params, random_generator(rng, params))
        c = Combination.term(params, random_generator(rng, params))
        ab = bracket(a, b)
        if not to_b0(ab + bracket(b, a)).is_zero():
            failures += 1
            continue
        jac = (
            bracket(ab, c)
            + bracket(bracket(b, c), a)
            + bracket(bracket(c, a), b)
        )
        if not to_b0(jac).is_zero():
            failures += 1
    return failures == 0, [f"jacobi: {cases - failures}/{cases} random triples pass"]


def suite_identities(params, seed=0, cases=0, max_len=5):
    """Interior-operator expansions and whole-chain sum identities, index pairs of size <= 3."""
    del seed, cases
    checked = 0
    bad = 0
    for up in all_seqs(params, 3):
        for lo in all_seqs(params, 3 - len(up)):
            sig = Combination.term(params, gen_s(up, lo))
            for expansion in (
                sigma_left_expansion(gen_s(up, lo), params),
                sigma_right_expansion(gen_s(up, lo), params),
            ):
                checked += 1
                if not equal_on_chains(sig, expansion, max_len):
                    bad += 1
            for l1 in params.flavor_range():
                for l2 in params.flavor_range():
                    checked += 2
                    if not equal_on_chains(*_gg_left(params, l1, l2, up, lo, max_len), max_len):
                        bad += 1
                    lhs, rhs = _gg_left(params, l1, l2, up[::-1], lo[::-1], max_len)
                    if not equal_on_chains(mirror(lhs), mirror(rhs), max_len):
                        bad += 1
            checked += 1
            interior = truncated_interior_element(up, lo, max_len, params)
            if not equal_on_chains(interior, Combination.zero(params), max_len):
                bad += 1
    return bad == 0, [
        f"identities (colors={params.colors}, flavors={params.flavors}): "
        f"{checked - bad}/{checked} pass"
    ]


def _gg_left(params, l1, l2, up, lo, max_len) -> tuple:
    """l(l1,l2)[up|lo] and its whole-chain sum over the padding tails."""
    tails = itertools.product(all_seqs(params, max_len), params.flavor_range())
    rhs = [(gen_f(l1, l2, l3, l3, up + tail, lo + tail), 1) for tail, l3 in tails]
    return Combination.term(params, gen_l(l1, l2, up, lo)), Combination.from_items(params, rhs)


def suite_independence(params, seed=0, cases=0, max_len=0):
    """Exact-rank independence of the canonical basis at desk scale."""
    del seed, cases, max_len
    lines = []
    ok = True
    for max_size, chain_len in ((1, 3), (2, 4)):
        good = independence_check_b0(params, max_size, chain_len)
        lines.append(
            f"independence (colors={params.colors}, flavors={params.flavors}, "
            f"size<={max_size}, chains<={chain_len}): {'ok' if good else 'FAIL'}"
        )
        ok = ok and good
    return ok, lines


def suite_oracle(params, seed=0, cases=0, max_len=0):
    """Gram entries, cross-charge zeros included, against the tensor model; words of size <= 2."""
    del seed, cases, max_len
    lines = []
    ok = True
    for gamma in ((1,), (2,), (1, 1)):
        w = weight_from_partition(gamma, params)
        gm = gram_matrix(w, 2)
        v = lowest_weight_vector_concrete(gamma, params)
        norm = inner_chain(v, v)
        images = [_act_word(word, v, params) for word in gm.words]
        pairs = [(i, j) for i in range(len(images)) for j in range(i, len(images))]
        bad = sum(gm[i, j] != inner_chain(images[i], images[j]) / norm for i, j in pairs)
        total = len(pairs)
        lines.append(
            f"oracle (colors={params.colors}, flavors={params.flavors}, gamma={gamma}): "
            f"{total - bad}/{total} word pairs match"
        )
        ok = ok and bad == 0
    return ok, lines


def _act_word(word, state, params):
    out = state
    for g in reversed(word):
        out = act_tensor(Combination.term(params, g), out)
    return out


def commutator_of_actions_ok(a: Element, b: Element, max_len: int) -> bool:
    """act(bracket(a,b)) equals the commutator of actions on bounded chains."""
    if max_len < 0:
        raise ValueError(f"max_len must be at least 0, got {max_len}")
    params = a.params
    br = bracket(a, b)
    for c in all_chains(params, max_len):
        psi = chain_state(params, c)
        direct = act(br, psi)
        comm = act(a, act(b, psi)) - act(b, act(a, psi))
        if direct != comm:
            return False
    return True
