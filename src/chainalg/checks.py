"""Verification suites shared by the CLI check command and the test suite.

Each suite checks the one AlgebraParams it is given, at the fixed sizes its
docstring names.  The identity suite checks each interior operator against
its left and its right padding, and each l, r and s operator against its
whole-chain sum (basis.whole_chain_sum), on chains of bounded length.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .basis import independence_check_b0, padding, to_b0, whole_chain_sum
from .bracket import bracket
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
    gen_l,
    gen_r,
    gen_s,
)
from .verma import gram_matrix
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
    """Paddings and whole-chain sums of the l, r and s operators, index pairs of size <= 3."""
    del seed, cases
    checked = 0
    bad = 0
    fl = params.flavor_range()
    for up in all_seqs(params, 3):
        for lo in all_seqs(params, 3 - len(up)):
            sig = gen_s(up, lo)
            sums = [
                (sig, Combination.from_items(params, ((h, 1) for h in padding(sig, params, right))))
                for right in (False, True)
            ]
            ends = [gen(l1, l2, up, lo) for l1 in fl for l2 in fl for gen in (gen_l, gen_r)]
            sums += [(g, whole_chain_sum(g, params, max_len)) for g in ends + [sig]]
            for g, total in sums:
                checked += 1
                if not equal_on_chains(Combination.term(params, g), total, max_len):
                    bad += 1
    return bad == 0, [
        f"identities (colors={params.colors}, flavors={params.flavors}): "
        f"{checked - bad}/{checked} pass"
    ]


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
        # words ascend in size, so () comes first and each word's tail before the word
        letters = {x: Combination.term(params, x) for word in gm.words for x in word}
        image = {(): v}
        for word in gm.words[1:]:
            image[word] = act_tensor(letters[word[0]], image[word[1:]])
        images = [image[word] for word in gm.words]
        pairs = [(i, j) for i in range(len(images)) for j in range(i, len(images))]
        bad = sum(gm[i, j] != inner_chain(images[i], images[j]) / norm for i, j in pairs)
        total = len(pairs)
        lines.append(
            f"oracle (colors={params.colors}, flavors={params.flavors}, gamma={gamma}): "
            f"{total - bad}/{total} word pairs match"
        )
        ok = ok and bad == 0
    return ok, lines


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
