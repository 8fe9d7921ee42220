"""Acceptance criteria: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion at the sizes fixed below.
"""

import itertools
import random

from chainalg import (
    AlgebraParams,
    TriangularClass,
    act_tensor,
    bracket,
    cartan_commutes,
    element,
    equal_on_chains,
    expectation,
    gram_matrix,
    hermitian_form,
    inertia,
    inner_chain,
    is_approximately_finite,
    is_root_vector,
    lowest_weight_vector_concrete,
    sl2_triple,
    split_weight,
    tail_parameters,
    truncated_interior_norm_check,
    weight_from_partition,
)
from chainalg.basis import (
    enumerate_b0,
    in_b4,
    independence_check_b0,
    to_b0,
    to_b4,
)
from chainalg.bracket import classify, index_words
from chainalg.checks import (
    commutator_of_actions_ok,
    random_element,
    random_generator,
    suite_identities,
)
from chainalg.core import KIND_L, Generator, seq_key
from chainalg.verma import pbw_words
from chainalg.weights import Weight, free_weight_from_af
from padded_sums import padded

ALL_PARAMS = (
    AlgebraParams(1, 1),
    AlgebraParams(2, 1),
    AlgebraParams(1, 2),
    AlgebraParams(2, 2),
)


def _report(n, label, ok):
    print(f"ACCEPTANCE {n:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label}) failed"


def test_criterion_01_bracket_laws():
    rng = random.Random(101)
    ok = True
    for n in range(200):
        p = ALL_PARAMS[n % 4]
        a = element(p, random_generator(rng, p, 2))
        b = element(p, random_generator(rng, p, 2))
        c = element(p, random_generator(rng, p, 2))
        if not to_b0(bracket(a, b) + bracket(b, a)).is_zero():
            ok = False
            break
        jac = (
            bracket(bracket(a, b), c)
            + bracket(bracket(b, c), a)
            + bracket(bracket(c, a), b)
        )
        if not to_b0(jac).is_zero():
            ok = False
            break
    _report(1, "antisymmetry and Jacobi, 200 random triples", ok)


def test_criterion_02_representation_homomorphism():
    rng = random.Random(102)
    ok = True
    for n in range(200):
        p = ALL_PARAMS[n % 4]
        a = element(p, random_generator(rng, p, 2))
        b = element(p, random_generator(rng, p, 2))
        if not commutator_of_actions_ok(a, b, 4):
            ok = False
            break
    _report(2, "bracket equals commutator of actions, 200 random pairs", ok)


def test_criterion_03_identity_suite():
    ok = True
    for p in ALL_PARAMS:
        good, _lines = suite_identities(p, max_len=5)
        ok = ok and good
    _report(3, "interior expansions and whole-chain sums on chains <= 5", ok)


def test_criterion_04_basis_soundness():
    rng = random.Random(104)
    ok = True
    for n in range(200):
        p = ALL_PARAMS[n % 4]
        e = random_element(rng, p)
        b0 = to_b0(e)
        b4 = to_b4(e)
        if not (equal_on_chains(e, b0, 6) and equal_on_chains(e, b4, 6)):
            ok = False
            break
        if to_b0(b4) != b0:
            ok = False
            break
    # canonical-form equality decides action equality on constructed pairs
    p = AlgebraParams(2, 1)
    for _ in range(50):
        e = random_element(rng, p)
        terms = list(e.items())
        g, c = terms[rng.randrange(len(terms))]
        if g.kind == "s":
            expansion = padded(g, p, right=rng.choice((False, True)))
            e2 = e - element(p, (c, g)) + expansion.scaled(c)
        else:
            e2 = to_b4(e)
        same = to_b0(e) == to_b0(e2)
        if not (same and equal_on_chains(e, e2, 6)):
            ok = False
            break
        g_extra = random_generator(rng, p, 2)
        e3 = e + element(p, g_extra)
        if to_b0(e3) == to_b0(e) or equal_on_chains(e3, e, 6):
            ok = False
            break
    _report(4, "basis rewrites sound, consistent, decide equality", ok)


def test_criterion_05_basis_independence():
    ok = True
    for p in ALL_PARAMS:
        for max_size, max_len in ((1, 3), (2, 4)):
            if not independence_check_b0(p, max_size, max_len):
                ok = False
    _report(5, "exact rank equals basis count at (1,3) and (2,4)", ok)


def test_criterion_06_cartan_and_roots():
    ok = True
    for p in (AlgebraParams(1, 1), AlgebraParams(2, 2)):
        diag = [
            g
            for g in enumerate_b0(p, 4)
            if classify(g) is TriangularClass.DIAGONAL
            and len(g.upper) + len(g.lower) <= 4
        ]
        for g1 in diag:
            for g2 in diag:
                if not cartan_commutes(g1, g2, p):
                    ok = False
    rng = random.Random(106)
    for n in range(120):
        p = ALL_PARAMS[n % 4]
        if n % 5 == 0:
            e = random_element(rng, p, max_terms=2)
        else:
            e = element(p, (rng.randint(1, 3), random_generator(rng, p, 2)))
        data = is_root_vector(e)
        gens = list(e.keys())
        expect_root = (
            len(gens) == 1
            and gens[0].kind == "f"
            and index_words(gens[0])[0] != index_words(gens[0])[1]
        )
        if (data is not None) != expect_root:
            ok = False
        if data is not None:
            for h, ev in data:
                lhs = bracket(element(p, h), e)
                if not to_b0(lhs - e.scaled(ev)).is_zero():
                    ok = False
    _report(6, "diagonal generators commute; root vectors characterized", ok)


def test_criterion_07_weight_recursions():
    ok = True
    for p in ALL_PARAMS:
        for gamma in ((1,), (2,), (2, 1)):
            af = weight_from_partition(gamma, p)
            fr = free_weight_from_af(af, 4)
            for n in range(3):
                for seq in itertools.product(p.color_range(), repeat=n):
                    for l1 in p.flavor_range():
                        for l2 in p.flavor_range():
                            if af.h_I(l1, seq, l2) != fr.h_I(l1, seq, l2):
                                ok = False
                        if af.h_II(l1, seq) != fr.h_II(l1, seq):
                            ok = False
                        if af.h_III(seq, l1) != fr.h_III(seq, l1):
                            ok = False
                    if af.h_IV(seq) != fr.h_IV(seq):
                        ok = False
    # vacuum expectation of diagonal generators outside basis b4 agrees
    rng = random.Random(107)
    checked = 0
    while checked < 50:
        p = ALL_PARAMS[checked % 4]
        w = weight_from_partition((2, 1), p)
        cand = random_generator(rng, p, 2)
        if cand.kind == "f":
            fl = (cand.flavors[0], cand.flavors[0], cand.flavors[2], cand.flavors[2])
        elif cand.kind in "lr":
            fl = (cand.flavors[0], cand.flavors[0])
        else:
            fl = ()
        g = Generator(cand.kind, cand.upper, cand.upper, fl)
        if in_b4(g):
            continue
        checked += 1
        if expectation([element(p, g)], w) != w.diagonal_eigenvalue(g):
            ok = False
    _report(7, "recursion closure equals derived sums; vacuum coherent", ok)


def test_criterion_08_tensor_oracle_and_unitarity():
    ok = True
    for p in (AlgebraParams(1, 1), AlgebraParams(2, 2)):
        words2 = pbw_words(p, 2)
        for gamma in ((1,), (2,), (1, 1)):
            w = weight_from_partition(gamma, p)
            v = lowest_weight_vector_concrete(gamma, p)
            norm = inner_chain(v, v)
            images = []
            for word in words2:
                state = v
                for g in reversed(word):
                    state = act_tensor(element(p, g), state)
                images.append(state)
            for i in range(len(words2)):
                ei = [element(p, g) for g in words2[i]]
                for j in range(i, len(words2)):
                    ej = [element(p, g) for g in words2[j]]
                    lhs = hermitian_form(ei, ej, w)
                    if lhs != inner_chain(images[i], images[j]) / norm:
                        ok = False
            for bound in (1, 2, 3):
                gm = gram_matrix(w, bound)
                res = inertia(gm)
                if res.n_neg != 0:
                    ok = False
                word_images = {}
                for word in gm.words:
                    state = v
                    for g in reversed(word):
                        state = act_tensor(element(p, g), state)
                    word_images[word] = state
                for vec in res.radical:
                    acc: dict = {}
                    for i, coeff in vec.items():
                        for key, val in word_images[gm.words[i]]:
                            s = acc.get(key, 0) + coeff * val
                            if s:
                                acc[key] = s
                            else:
                                acc.pop(key, None)
                    if acc:
                        ok = False
    _report(8, "module pairing equals tensor model; no negative inertia", ok)


def test_criterion_09_sl2_triples():
    rng = random.Random(109)
    ok = True
    done = 0
    while done < 50:
        p = ALL_PARAMS[done % 4]
        g = random_generator(rng, p, 2)
        if g.kind != "f":
            continue
        up, lo = index_words(g)
        if not seq_key(up) > seq_key(lo):
            continue
        done += 1
        e, h, f = sl2_triple(g.upper, g.lower, g.flavors, p)
        if not to_b0(bracket(h, e) - e.scaled(2)).is_zero():
            ok = False
        if not to_b0(bracket(h, f) + f.scaled(2)).is_zero():
            ok = False
        if not to_b0(bracket(e, f) - h).is_zero():
            ok = False
        for gamma in ((1,), (2, 1)):
            w = weight_from_partition(gamma, p)
            l1, l2, l3, l4 = g.flavors
            diff = w.h_I(l2, g.lower, l4) - w.h_I(l1, g.upper, l3)
            if expectation([h], w) != -diff:
                ok = False
            if diff < 0 or diff.denominator != 1:
                ok = False
    _report(9, "sl(2) relations and non-negative integral steps", ok)


def test_criterion_10_weight_splitting_and_norm_identity():
    ok = True
    p = AlgebraParams(2, 2)
    base = weight_from_partition((2, 1), p)
    fr = free_weight_from_af(base, 3)
    shifted = Weight(p, 2, {g: v + 3 * (g.kind == KIND_L) for g, v in fr.table.items()}, "free")
    for w in (fr, shifted):
        alpha, w_af, w_ti = split_weight(w)
        if not is_approximately_finite(w_af):
            ok = False
        for n in range(3):
            for seq in itertools.product(p.color_range(), repeat=n):
                for l1 in p.flavor_range():
                    for l2 in p.flavor_range():
                        if w.h_I(l1, seq, l2) != alpha + w_af.h_I(l1, seq, l2):
                            ok = False
                    if w.h_II(l1, seq) != w_af.h_II(l1, seq) + w_ti.h_II(l1, seq):
                        ok = False
                    if w.h_III(seq, l1) != w_af.h_III(seq, l1) + w_ti.h_III(seq, l1):
                        ok = False
                if w.h_IV(seq) != w_af.h_IV(seq) + w_ti.h_IV(seq):
                    ok = False
    if tail_parameters(weight_from_partition((2, 1), AlgebraParams(1, 1))) != (0, 2):
        ok = False
    if tail_parameters(Weight(p, mode="af")) != (0, 0):
        ok = False
    if tail_parameters(Weight(p, alpha=3, mode="free")) != (3, 0):
        ok = False
    if tail_parameters(shifted) != (2, 1):
        ok = False
    configs = []
    for pair in (((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1, 1)), ((2, 2), (2, 1)), ((1, 2), (1, 1))):
        for depth in (0, 1):
            for gamma in ((1,), (2,)):
                configs.append((AlgebraParams(2, 1), pair, depth, gamma))
    configs.append((AlgebraParams(2, 2), ((2,), (1,)), 1, (1, 1)))
    configs.append((AlgebraParams(2, 2), ((1, 1), (2,)), 0, (1, 1)))
    assert len(configs) >= 20
    for params, (up, lo), depth, gamma in configs:
        if not truncated_interior_norm_check(up, lo, depth, gamma, params):
            ok = False
    _report(10, "tail splitting exact; truncated norms match tensor model", ok)
