"""Defining representation, tensor powers, symmetrizers, action oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from chainalg import (
    AlgebraParams,
    Combination,
    act,
    act_tensor,
    bracket,
    chain,
    chain_state,
    element,
    equal_on_chains,
    gen_f,
    gen_l,
    gen_r,
    gen_s,
    grade,
    inner_chain,
    lowest_weight_vector_concrete,
    omega,
    tensor_state,
    young_project,
)
from chainalg.basis import enumerate_generators, in_b4
from chainalg.bracket import TriangularClass, classify
from chainalg.chains import (
    Chain,
    TensorState,
    _act_gen_chain,
    all_chains,
    check_partition,
)
from chainalg.checks import random_element, random_generator, suite_identities
from chainalg.core import KIND_F, KIND_L, KIND_R, Generator
from padded_sums import padded, reference_left_end_sum

P11 = AlgebraParams(1, 1)
P12 = AlgebraParams(1, 2)
P21 = AlgebraParams(2, 1)
P22 = AlgebraParams(2, 2)


def young_scalar(gamma) -> Fraction:
    """The scalar m with (projector)^2 = m * projector: d! / #standard tableaux."""
    gamma = check_partition(gamma)
    hooks = 1
    for i, part in enumerate(gamma):
        for j in range(part):
            arm = part - j - 1
            leg = sum(1 for ii in range(i + 1, len(gamma)) if gamma[ii] > j)
            hooks *= arm + leg + 1
    # hook length formula: #SYT = d! / prod(hooks), so m = prod(hooks)
    return Fraction(hooks)


def test_interior_action_sums_over_occurrences():
    psi = chain_state(P21, chain(1, (2, 2), 1))
    out = act(element(P21, gen_s((1,), (2,))), psi)
    assert out == Combination.from_items(
        P21, [(chain(1, (1, 2), 1), 1), (chain(1, (2, 1), 1), 1)]
    )


def test_length_counter_action():
    psi = chain_state(P21, chain(1, (1, 2), 1))
    out = act(element(P21, gen_s((), ())), psi)
    assert out == psi.scaled(3)


def test_left_end_action_on_empty_body():
    psi = chain_state(P22, chain(1, (), 1))
    out = act(element(P22, gen_l(2, 1, (1,), ())), psi)
    assert out == chain_state(P22, chain(2, (1,), 1))


def test_inserter_and_deleter_actions():
    psi = chain_state(P21, chain(1, (2,), 1))
    ins = act(element(P21, gen_s((1,), ())), psi)
    assert ins == Combination.from_items(
        P21, [(chain(1, (1, 2), 1), 1), (chain(1, (2, 1), 1), 1)]
    )
    dele = act(element(P21, gen_s((), (2,))), psi)
    assert dele == chain_state(P21, chain(1, (), 1))


def test_tensor_action_is_a_derivation():
    v = chain(1, (), 1)
    vv = tensor_state(P21, (v, v))
    assert act_tensor(element(P21, gen_s((), ())), vv) == vv.scaled(2)
    assert act_tensor(element(P21, gen_f(1, 1, 1, 1, (), ())), vv) == vv.scaled(2)
    zero = Combination.zero(P21)
    assert act_tensor(element(P21, gen_s((1,), ())), zero).is_zero()


def test_young_project_examples():
    v = chain(1, (), 1)
    vv = tensor_state(P21, (v, v))
    assert young_project(vv, (1, 1)).is_zero()
    assert young_project(vv, (2,)) == vv.scaled(2)
    single = tensor_state(P21, (v,))
    assert young_project(single, (1,)) == single


def test_young_project_rejects_size_mismatch():
    v = chain(1, (), 1)
    with pytest.raises(ValueError):
        young_project(tensor_state(P21, (v, v)), (1,))


def test_young_rejects_non_partitions():
    v = chain(1, (), 1)
    for gamma in ((1, 2), (0,)):
        with pytest.raises(ValueError):
            young_scalar(gamma)
        with pytest.raises(ValueError):
            young_project(tensor_state(P21, (v,) * sum(gamma)), gamma)


def test_young_projector_scalar_and_invariance():
    w = chain(1, (1,), 1)
    v = chain(1, (), 1)
    psi = tensor_state(P21, (v, w, v))
    gamma = (2, 1)
    proj = young_project(psi, gamma)
    m = young_scalar(gamma)
    assert m == 3
    assert young_project(proj, gamma) == proj.scaled(m)
    rng = random.Random(12)
    for _ in range(10):
        e = random_element(rng, P21)
        moved = act_tensor(e, proj)
        # the image of the projector is an invariant subspace
        assert young_project(moved, gamma) == moved.scaled(m)


# The group-enumeration projector that the block-wise _symmetrize replaces,
# kept as the reference: every permutation of the row (column) group at once.
def _permute_tuple(tup, perm):
    # perm maps destination slot -> source slot
    return tuple(tup[perm[i]] for i in range(len(tup)))


def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _group_permutations(blocks, d):
    """All slot permutations preserving each block (as dest -> source maps)."""
    perms = [list(range(d))]
    for block in blocks:
        new = []
        for base in perms:
            for img in itertools.permutations(block):
                p = list(base)
                for pos, src in zip(block, img):
                    p[pos] = base[src]
                new.append(p)
        perms = new
    return [tuple(p) for p in perms]


def canonical_tableau(gamma) -> list:
    """Row-major filling of the partition diagram with slots 0..d-1."""
    rows, k = [], 0
    for part in gamma:
        rows.append(list(range(k, k + part)))
        k += part
    return rows


def _reference_young_project(psi: TensorState, gamma) -> TensorState:
    """Row-symmetrize then column-antisymmetrize tensor slots (unnormalized)."""
    gamma = check_partition(gamma)
    d = sum(gamma)
    arities = {len(k) for k in psi.keys()}
    if arities and arities != {d}:
        raise ValueError(f"partition size {d} does not match tensor arity")
    rows = canonical_tableau(gamma)
    cols = []
    for j in range(gamma[0] if gamma else 0):
        col = [row[j] for row in rows if j < len(row)]
        cols.append(col)
    row_perms = _group_permutations(rows, d)
    col_perms = _group_permutations(cols, d)

    sym_items = []
    for tup, c in psi:
        for p in row_perms:
            sym_items.append((_permute_tuple(tup, p), c))
    sym = Combination.from_items(psi.params, sym_items)

    out_items = []
    for tup, c in sym:
        for p in col_perms:
            out_items.append((_permute_tuple(tup, p), c * _perm_sign(p)))
    return Combination.from_items(psi.params, out_items)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


@pytest.mark.parametrize("params", [P11, P22], ids=["1-1", "2-2"])
def test_young_project_matches_the_group_enumeration(params):
    # every partition of size <= 5: random Fraction tensors over a few chains
    # (so slots repeat), tensors of one repeated chain, and the zero state
    rng = random.Random(params.colors * 10 + params.flavors)
    pool = list(all_chains(params, 1))[:3]
    nonzero = 0
    for d in range(6):
        for gamma in _partitions(d):
            states = [Combination.zero(params), tensor_state(params, (pool[-1],) * d)]
            states += [
                Combination.from_items(params, [
                    (tuple(rng.choice(pool) for _ in range(d)),
                     Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 2**61 - 1))))
                    for _ in range(rng.randint(1, 4))
                ])
                for _ in range(4)
            ]
            for psi in states:
                got = young_project(psi, gamma)
                assert got == _reference_young_project(psi, gamma), (gamma, psi)
                nonzero += bool(got)
    assert nonzero > 30


def test_inner_chain_examples():
    v = tensor_state(P21, (chain(1, (), 1),))
    w = tensor_state(P21, (chain(1, (1,), 1),))
    assert inner_chain(v, v) == 1
    assert inner_chain(v, w) == 0
    assert inner_chain(v.scaled(2) + w, v) == 2
    with pytest.raises(ValueError):
        inner_chain(v, tensor_state(P21, (chain(1, (), 1), chain(1, (), 1))))


def test_equal_on_chains_identity_instance():
    lhs = element(P21, gen_s((1,), (1,)))
    rhs = element(
        P21,
        gen_s((1, 1), (1, 1)),
        gen_s((2, 1), (2, 1)),
        gen_l(1, 1, (1,), (1,)),
    )
    assert equal_on_chains(lhs, rhs, 5)
    assert equal_on_chains(lhs, lhs, 2)
    assert not equal_on_chains(
        element(P21, gen_s((1,), (1,))), element(P21, gen_s((2,), (2,))), 2
    )


def test_interior_expansions_act_identically():
    rng = random.Random(13)
    for _ in range(20):
        g = random_generator(rng, P22)
        while g.kind != "s":
            g = random_generator(rng, P22)
        e = element(P22, g)
        assert equal_on_chains(e, padded(g, P22, right=False), 4)
        assert equal_on_chains(e, padded(g, P22), 4)


def test_action_is_a_homomorphism():
    rng = random.Random(14)
    for _ in range(40):
        a = random_element(rng, P22, max_terms=2)
        b = random_element(rng, P22, max_terms=2)
        br = bracket(a, b)
        for c in all_chains(P22, 3):
            psi = chain_state(P22, c)
            assert act(br, psi) == act(a, act(b, psi)) - act(b, act(a, psi))


def test_contravariance_of_inner_product():
    rng = random.Random(15)
    chains_pool = list(all_chains(P22, 2))
    for _ in range(60):
        e = random_element(rng, P22, max_terms=2)
        a = tensor_state(P22, (rng.choice(chains_pool),))
        b = tensor_state(P22, (rng.choice(chains_pool),))
        lhs = inner_chain(act_tensor(e, a), b)
        rhs = inner_chain(a, act_tensor(omega(e), b))
        assert lhs == rhs
        a2 = tensor_state(P22, (rng.choice(chains_pool), rng.choice(chains_pool)))
        b2 = tensor_state(P22, (rng.choice(chains_pool), rng.choice(chains_pool)))
        assert inner_chain(act_tensor(e, a2), b2) == inner_chain(a2, act_tensor(omega(e), b2))


def test_length_counter_commutes_with_grade_zero():
    rng = random.Random(16)
    counter = element(P22, gen_s((), ()))
    for c in all_chains(P22, 3):
        psi = chain_state(P22, c)
        assert act(counter, psi) == psi.scaled(len(c.body) + 1)
    for _ in range(30):
        g = random_generator(rng, P22)
        if grade(g) != 0:
            continue
        e = element(P22, g)
        for c in all_chains(P22, 3):
            psi = chain_state(P22, c)
            assert act(counter, act(e, psi)) == act(e, act(counter, psi))


def test_concrete_lowest_weight_vectors():
    assert lowest_weight_vector_concrete((1,), P21) == tensor_state(
        P21, (chain(1, (), 1),)
    )
    v = chain(1, (), 1)
    assert lowest_weight_vector_concrete((2,), P21) == tensor_state(P21, (v, v)).scaled(2)
    got = lowest_weight_vector_concrete((1, 1), P22)
    u = chain(1, (), 2)
    expect = Combination.from_items(P22, [((v, u), 1), ((u, v), -1)])
    assert got == expect


def test_concrete_lowest_weight_vectors_are_annihilated_by_lowering():
    for params in (P21, P22):
        for gamma in ((1,), (2,), (1, 1)):
            vec = lowest_weight_vector_concrete(gamma, params)
            for g in enumerate_generators(params, 2):
                if not in_b4(g) or classify(g) is not TriangularClass.LOWERING:
                    continue
                assert act_tensor(element(params, g), vec).is_zero()


def test_concrete_lowest_weight_vector_diagonal_eigenvalues():
    from chainalg import weight_from_partition

    for params in (P21, P22):
        for gamma in ((1,), (2,), (1, 1)):
            vec = lowest_weight_vector_concrete(gamma, params)
            w = weight_from_partition(gamma, params)
            for g in enumerate_generators(params, 2):
                if not in_b4(g) or classify(g) is not TriangularClass.DIAGONAL:
                    continue
                out = act_tensor(element(params, g), vec)
                assert out == vec.scaled(w.diagonal_eigenvalue(g))


# ---------------------------------------------------------------------------
# act and act_tensor try only the terms the element's index returns for a
# chain; these tests compare them with the sum over every term of the rule as
# it was written on Chain objects


def _reference_act_gen_chain(g, c: Chain):
    """Yield (Chain, coeff) contributions of one generator on one chain."""
    body = c.body
    n = len(body)
    if g.kind == KIND_F:
        l1, l2, l3, l4 = g.flavors
        if c.left == l2 and body == g.lower and c.right == l4:
            yield Chain(l1, g.upper, l3), 1
    elif g.kind == KIND_L:
        l1, l2 = g.flavors
        k = len(g.lower)
        if c.left == l2 and body[:k] == g.lower:
            yield Chain(l1, g.upper + body[k:], c.right), 1
    elif g.kind == KIND_R:
        # written out, not derived through mirror_gen: the right-end identity
        # then checks this branch against the f branch, not a mirror copy
        l1, l2 = g.flavors
        k = len(g.lower)
        if c.right == l2 and (k == 0 or body[-k:] == g.lower):
            head = body[: n - k] if k else body
            yield Chain(c.left, head + g.upper, l1), 1
    else:
        lo, up = g.lower, g.upper
        if not lo and not up:
            # length counter
            yield c, n + 1
        elif not lo:
            # inserter: one copy of the upper word at every gap
            for cut in range(n + 1):
                yield Chain(c.left, body[:cut] + up + body[cut:], c.right), 1
        else:
            # match every occurrence of the lower word, substitute the upper
            k = len(lo)
            for start in range(n - k + 1):
                if body[start : start + k] == lo:
                    yield Chain(c.left, body[:start] + up + body[start + k :], c.right), 1


def _act_every_term(e, psi):
    return Combination.from_items(
        psi.params,
        (
            (out, coeff * w * mult)
            for c, w in psi
            for g, coeff in e
            for out, mult in _reference_act_gen_chain(g, c)
        ),
    )


def _act_tensor_every_term(e, psi):
    return Combination.from_items(
        psi.params,
        (
            (tup[:slot] + (out,) + tup[slot + 1 :], coeff * w * mult)
            for tup, w in psi
            for slot, c in enumerate(tup)
            for g, coeff in e
            for out, mult in _reference_act_gen_chain(g, c)
        ),
    )


def _edge_terms(params):
    top = params.flavors
    return [
        gen_s((), ()),  # length counter
        gen_s((1,), ()),  # inserters
        gen_s((1, 1), ()),
        gen_s((), (1,)),  # deleters
        gen_s((), (1, 1)),
        gen_s((1,), (1,)),  # three occurrences in the body 1,1,1
        gen_s((params.colors,), (1, 1)),  # two overlapping ones
        gen_l(1, top, (1,), (1,) * 5),  # lower word longer than every body
        gen_r(top, 1, (), (1,) * 5),
        gen_l(top, top, (), ()),
        gen_r(1, top, (1,), ()),
        gen_f(1, top, top, 1, (1,), (1,)),  # end flavors differ when lambda_f > 1
        gen_f(top, 1, 1, top, (), ()),
        gen_f(1, 1, 1, 1, (1,), (1, 1, 1)),
    ]


# pairwise coprime, so an element over several of them has a large lcm
_PRIME_DENOMINATORS = (10007, 65537, 2**31 - 1, 2**61 - 1)


def _assert_same_action(got, want):
    assert got == want
    assert all(type(v) is Fraction and v for v in got.terms.values())


@pytest.mark.parametrize("params", [P11, P12, P21, P22], ids=lambda p: f"{p.colors},{p.flavors}")
def test_indexed_action_matches_every_term(params):
    rng = random.Random(31 + 10 * params.colors + params.flavors)
    chains = list(all_chains(params, 4))
    edges = _edge_terms(params)
    everything = Combination.from_items(params, [(c, i + 1) for i, c in enumerate(chains)])
    signed = [(c, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7)))
              for c in rng.sample(chains, min(12, len(chains)))]
    fractional = Combination.from_items(params, signed + [(chains[-1], Fraction(3, 2**61 - 1))])
    zero = Combination.zero(params)
    for i in range(60):
        extra = [(rng.randint(-3, 3) or 1, g) for g in rng.sample(edges, rng.randint(1, 5))]
        e = random_element(rng, params, max_terms=4, max_seq=3) + element(params, *extra)
        if i % 2:
            e = Combination.from_items(
                params, [(g, c / rng.choice(_PRIME_DENOMINATORS)) for g, c in e]
            )
        for c in chains:
            psi = chain_state(params, c)
            _assert_same_action(act(e, psi), _act_every_term(e, psi))
        for psi in (everything, fractional, zero):
            _assert_same_action(act(e, psi), _act_every_term(e, psi))
        pairs = Combination.from_items(
            params, [((rng.choice(chains), rng.choice(chains)), n + 1) for n in range(8)]
        )
        signed_pairs = Combination.from_items(
            params,
            [((rng.choice(chains), rng.choice(chains)), rng.choice(signed)[1]) for _ in range(8)],
        )
        for psi in (pairs, signed_pairs, zero):
            _assert_same_action(act_tensor(e, psi), _act_tensor_every_term(e, psi))
    for psi in (everything, fractional):
        _assert_same_action(act(zero, psi), zero)
        assert act_tensor(zero, tensor_state(params, (chains[0], chains[-1]))) == zero


@pytest.mark.parametrize("params", [P11, P21, P12, P22], ids=lambda p: f"{p.colors},{p.flavors}")
def test_field_rule_matches_the_chain_rule(params):
    # same outputs, multiplicities and order as the rule written on Chain objects
    gens = list(enumerate_generators(params, 3)) + _edge_terms(params)
    gens += _long_lower_terms(params, 4)
    chains = list(all_chains(params, 4))
    yielded = 0
    for g in gens:
        for c in chains:
            got = list(_act_gen_chain(g, c.left, c.body, c.right))
            want = [((o.left, o.body, o.right), m) for o, m in _reference_act_gen_chain(g, c)]
            assert got == want, (g, c)
            yielded += len(got)
    assert yielded > len(chains)


def test_dropping_an_expansion_term_is_seen():
    for params in (P21, P22):
        for g in (gen_s((1,), (2,)), gen_s((2, 1), (1,)), gen_s((1,), ()), gen_s((), (2,))):
            sigma = element(params, g)
            expansion = padded(g, params, right=False)
            assert equal_on_chains(sigma, expansion, 4)
            for h, c in expansion:
                assert not equal_on_chains(sigma, expansion - element(params, (c, h)), 4)


def test_act_memo_is_keyed_by_identity():
    chains = list(all_chains(P22, 3))
    psi = Combination.from_items(P22, [(c, i + 1) for i, c in enumerate(chains)])
    e1 = element(P22, gen_s((1,), (1,)), (2, gen_l(1, 2, (2,), (1,))))
    e2 = element(P22, gen_s((2,), (1,)), (-1, gen_r(2, 1, (), (1,))))
    outs = [act(e, psi) for e in (e1, e2, e1)]
    assert outs == [_act_every_term(e, psi) for e in (e1, e2, e1)]
    assert outs[0] != outs[1]
    twin = Combination.from_items(P22, e1.items())
    assert twin is not e1
    assert act(twin, psi) == outs[0]
    # only the memo refers to each element after use, which keeps the next
    # one from reusing its address
    rng = random.Random(32)
    for _ in range(20):
        seed = rng.random()
        got = act(random_element(random.Random(seed), P22, max_terms=4), psi)
        assert got == _act_every_term(random_element(random.Random(seed), P22, max_terms=4), psi)
    with pytest.raises(ValueError):
        act(e1, chain_state(P21, chain(1, (1,), 1)))
    with pytest.raises(ValueError):
        act_tensor(e1, tensor_state(P21, (chain(1, (1,), 1),)))


def test_act_memo_tracks_coefficients_not_generators():
    # the same generators under different coefficients: neither the tables
    # nor the common denominator of one may serve the next
    chains = list(all_chains(P22, 3))
    psi = Combination.from_items(P22, [(c, Fraction(i + 1, 5)) for i, c in enumerate(chains)])
    gens = (gen_s((1,), (1,)), gen_l(1, 2, (2,), (1,)), gen_s((), ()))
    scales = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3), Fraction(1, 2))
    elements = [element(P22, *((q, g) for g in gens)) for q in scales]
    outs = [act(e, psi) for e in elements]
    assert outs == [_act_every_term(e, psi) for e in elements]
    pair = tensor_state(P22, chains[:2])
    for q, e, out in zip(scales, elements, outs):
        assert out == outs[0].scaled(q / scales[0]) and not out.is_zero()
        assert act_tensor(e, pair) == _act_tensor_every_term(e, pair)


def test_equal_on_chains_sees_a_tiny_coefficient():
    e = element(P22, gen_s((1,), (2,)), (Fraction(3, 7), gen_l(1, 2, (2,), (1,))))
    counter = element(P22, (Fraction(1, 2**61 - 1), gen_s((), ())))
    assert equal_on_chains(e, e, 3)
    assert not equal_on_chains(e, e + counter, 3)
    sigma = gen_s((1,), (2,))
    seventh = Fraction(1, 7)
    assert equal_on_chains(
        element(P22, (seventh, sigma)), padded(sigma, P22, right=False).scaled(seventh), 4
    )


def test_no_float_reaches_a_coefficient(monkeypatch):
    # int / int is a float: every coefficient the oracles and inertia hand
    # back must stay an exact int or Fraction
    from chainalg import chains, checks, verma
    from chainalg.verma import gram_matrix, inertia
    from chainalg.weights import weight_from_partition

    seen = {}

    def recording(name, fn):
        def wrapped(*args):
            out = fn(*args)
            values = out.terms.values() if isinstance(out, Combination) else [out]
            seen.setdefault(name, []).extend(values)
            return out

        return wrapped

    for module, name in (
        (chains, "act"),
        (checks, "act"),
        (checks, "act_tensor"),
        (verma, "act_tensor"),
        (verma, "hermitian_form"),
    ):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    assert checks.suite_identities(P11, max_len=4)[0]
    assert checks.suite_oracle(P11)[0]
    assert verma.truncated_interior_norm_check((1,), (1,), 2, (1,), P11)
    rng = random.Random(33)
    for _ in range(10):
        a, b = random_element(rng, P11), random_element(rng, P11)
        assert checks.commutator_of_actions_ok(a, b, 3)
    gm = gram_matrix(weight_from_partition((2,), P11), 3)
    seen["gram"] = [v for row in gm.entries for v in row]
    for m in (gm, [[0, 1, 0], [1, 0, 3], [0, 3, 0]], [[2, 1], [1, 2]], [[4, 2], [2, 1]]):
        radical = [v for vec in inertia(m).radical for v in vec.values()]
        assert radical or m is not gm
        seen.setdefault("radical", []).extend(radical)
    assert sorted(seen) == ["act", "act_tensor", "gram", "hermitian_form", "radical"]
    for name, values in seen.items():
        assert values and {type(v) for v in values} <= {int, Fraction}, name


# ---------------------------------------------------------------------------
# equal_on_chains asks act only about the chains some term of the difference
# reads; these tests compare it with acting by every term on every chain


def _equal_on_every_chain(a, b, max_len):
    diff = a - b
    return all(
        _act_every_term(diff, chain_state(a.params, c)).is_zero()
        for c in all_chains(a.params, max_len)
    )


def _long_lower_terms(params, max_len):
    top, long = params.flavors, (params.colors,) * (max_len + 1)
    return [
        gen_l(1, top, (1,), long),
        gen_r(top, 1, (), long),
        gen_s((1,), long),
        gen_f(1, top, top, 1, (1,), long),
        gen_f(top, 1, 1, top, (), (1,) * max_len),  # mismatched end flavors when lambda_f > 1
        gen_f(1, top, 1, top, (1,), ()),
    ]


@pytest.mark.parametrize("params", [P11, P21, P12, P22], ids=lambda p: f"{p.colors},{p.flavors}")
def test_equal_on_chains_matches_acting_on_every_chain(params):
    rng = random.Random(43 + 10 * params.colors + params.flavors)
    tiny = Fraction(1, 2**61 - 1)
    outcomes = []
    for _ in range(40):
        max_len = rng.randint(0, 4)
        gens = _edge_terms(params) + _long_lower_terms(params, max_len)
        extra = [(rng.randint(-3, 3) or 1, g) for g in rng.sample(gens, rng.randint(1, 4))]
        a = random_element(rng, params, max_terms=3, max_seq=3) + element(params, *extra)
        g = rng.choice(list(a.keys()) + gens)
        b = a + element(params, (tiny, g))  # differs from a on one term only
        expansion = padded(gen_s((1,), (params.colors,)), params, right=False)
        top = params.flavors
        lhs, rhs = reference_left_end_sum(params, 1, top, (1,), (params.colors,), max_len)
        for x, y in ((a, b), (b, a), (a, a.scaled(1 + tiny)), (expansion, b - a),
                     (lhs, rhs), (lhs + a, rhs + b), (lhs, rhs + element(params, (tiny, g)))):
            want = _equal_on_every_chain(x, y, max_len)
            assert equal_on_chains(x, y, max_len) == want
            outcomes.append(want)
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40


def test_equal_on_chains_skips_chains_no_term_reads(monkeypatch):
    from chainalg import chains

    lhs, rhs = reference_left_end_sum(P22, 1, 2, (1,), (2,), 5)
    assert len(list(all_chains(P22, 5))) == 252
    built, calls = [], []

    class CountingChain(chains.Chain):
        def __init__(self, *fields):
            built.append(fields)
            super().__init__(*fields)

    def counting(e, psi):
        calls.append(psi)
        return act(e, psi)

    monkeypatch.setattr(chains, "act", counting)
    monkeypatch.setattr(chains, "Chain", CountingChain)
    assert equal_on_chains(lhs, rhs, 5)
    # the probed chains only are built: the action's outputs all cancel
    assert 0 < len(calls) == len(built) < 252


def test_equal_on_chains_rejects_a_negative_length():
    e = element(P22, gen_s((1,), (2,)))
    for a, b in ((e, e), (e, e.scaled(2)), (e, padded(gen_s((1,), (2,)), P22, right=False))):
        with pytest.raises(ValueError, match="max_len"):
            equal_on_chains(a, b, -1)
    assert equal_on_chains(e, e + element(P22, gen_l(1, 1, (), (1,))), 0)
    with pytest.raises(ValueError, match="max_len"):
        suite_identities(P22, max_len=-1)


# ---------------------------------------------------------------------------
# the identity suite sees a wrong padding and a wrong end-operator action


def test_identity_suite_fails_on_mutants(monkeypatch):
    from chainalg import basis, chains

    def failing():
        return [p for p in (P11, P21, P12, P22) if not suite_identities(p, max_len=3)[0]]

    padding = basis.padding

    def transposed_r_closers(g, params, right=True):
        # the left padding of r(a,b) closes with f(m,m;b,a), not f(m,m;a,b)
        gens = padding(g, params, right)
        if g.kind != KIND_R or right:
            return gens
        return [
            Generator(KIND_F, h.upper, h.lower, h.flavors[1::-1] + h.flavors[:1:-1])
            if h.kind == KIND_F
            else h
            for h in gens
        ]

    assert failing() == []
    # whole_chain_sum reads padding from basis; with one flavor the mutant changes nothing
    monkeypatch.setattr(basis, "padding", transposed_r_closers)
    assert failing() == [P12, P22]
    monkeypatch.undo()

    rule = chains._act_gen_chain
    for kind in (KIND_R, KIND_L):

        def kept_end_flavor(g, left, body, right, kind=kind):
            # r keeps the chain's right flavor, l its left flavor
            for (lf, out, rf), m in rule(g, left, body, right):
                if g.kind == kind:
                    lf, rf = (left, rf) if kind == KIND_L else (lf, right)
                yield (lf, out, rf), m

        monkeypatch.setattr(chains, "_act_gen_chain", kept_end_flavor)
        assert not suite_identities(P12, max_len=3)[0], kind
        monkeypatch.undo()
