"""Weight tables, recursion closure, approximate finiteness, splitting."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from chainalg import (
    AlgebraParams,
    Weight,
    all_chains,
    arg_at,
    arg_index,
    is_approximately_finite,
    read_weight,
    split_weight,
    tail_parameters,
    weight_from_partition,
    write_weight,
)
from chainalg.basis import in_b4
from chainalg.chains import chain_sort_key
from chainalg.core import IndexRangeError, all_seqs, gen_l, gen_r, gen_s, seq_key
from chainalg.weights import DivergentSumError, check_partition, free_weight_from_af

P11 = AlgebraParams(1, 1)
P21 = AlgebraParams(2, 1)
P22 = AlgebraParams(2, 2)


def test_argument_enumeration_anchors():
    assert arg_at(1, P22) == (1, (), 1)
    f2 = P22.flavors * P22.flavors
    assert arg_at(f2 + 1, P22) == (1, (1,), 1)
    assert arg_at(3, P21) == (1, (2,), 1)
    assert arg_at(2, P22) == (1, (), 2)


def test_argument_enumeration_roundtrip():
    for params in (P11, P21, P22):
        for k in range(1, 80):
            assert arg_index(arg_at(k, params), params) == k
    # arg_at / arg_index are the position map of all_chains, which ascends in chain_sort_key
    for colors, flavors in itertools.product((1, 2, 3), repeat=2):
        params = AlgebraParams(colors, flavors)
        chains = list(itertools.islice(all_chains(params, 400), 400))
        keys = [chain_sort_key(c) for c in chains]
        assert len(chains) == 400 and all(a < b for a, b in zip(keys, keys[1:]))
        for k, c in enumerate(chains, start=1):
            assert arg_at(k, params) == (c.left, c.body, c.right)
            assert arg_index(arg_at(k, params), params) == k


def test_arg_index_rejects_out_of_range_indices():
    # (3, (), 1) would read as the position of (1, (1,), 1), and (0, (), 1) as -1
    for arg in ((3, (), 1), (0, (), 1), (1, (), 3), (1, (3,), 1), (1, (1, 0), 2)):
        with pytest.raises(IndexRangeError):
            arg_index(arg, P22)


def test_weight_from_partition_tables():
    w = weight_from_partition((2, 1), P21)
    assert w.h_I(1, (), 1) == 2
    assert w.h_I(1, (1,), 1) == 1
    assert w.h_I(1, (2,), 1) == 0
    assert weight_from_partition((), P21).hI_table == {}


def test_partition_validation():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((0,))


def test_derived_sums_examples():
    w = weight_from_partition((1,), P11)
    assert w.h_II(1, ()) == 1
    assert w.h_IV(()) == 1
    assert w.h_II(1, (1,)) == 0
    assert w.h_III((), 1) == 1
    assert w.h_IV((1,)) == 0


def test_interior_sum_counts_every_occurrence():
    w = Weight(P21, hI_table={(1, (1, 2, 1), 1): Fraction(1)}, mode="af")
    # three splits produce the empty interior word with multiplicity 4
    assert w.h_IV(()) == 4
    assert w.h_IV((1,)) == 2
    assert w.h_IV((2,)) == 1
    assert w.h_IV((1, 2)) == 1


def test_divergent_sum_signaled():
    w = Weight(P11, alpha=1, mode="af")
    with pytest.raises(DivergentSumError):
        w.h_II(1, ())


def test_recursions_match_derived_sums():
    for params in (P11, P21, P22):
        for gamma in ((1,), (2,), (2, 1)):
            af = weight_from_partition(gamma, params)
            fr = free_weight_from_af(af, 4)
            for n in range(3):
                for seq in itertools.product(params.color_range(), repeat=n):
                    for l in params.flavor_range():
                        assert af.h_II(l, seq) == fr.h_II(l, seq)
                        assert af.h_III(seq, l) == fr.h_III(seq, l)
                    assert af.h_IV(seq) == fr.h_IV(seq)


def test_approximately_finite_examples():
    assert is_approximately_finite(weight_from_partition((2, 1), P21))
    half = Weight(P11, hI_table={(1, (), 1): Fraction(1, 2)}, mode="af")
    assert not is_approximately_finite(half)
    shifted = Weight(P11, alpha=1, mode="free")
    assert not is_approximately_finite(shifted)
    increasing = Weight(
        P11, hI_table={(1, (), 1): 1, (1, (1,), 1): 2}, mode="af"
    )
    assert not is_approximately_finite(increasing)


def test_approximately_finite_free_mode_requires_sum_rules():
    af = weight_from_partition((2,), P21)
    good = free_weight_from_af(af, 3)
    assert is_approximately_finite(good)
    tables = dict(good.hII_table)
    tables[(1, (2,))] = tables.get((1, (2,)), Fraction(0)) + 1
    bad = Weight(
        P21,
        hI_table=af.hI_table,
        mode="free",
        hII_table=tables,
        hIII_table=good.hIII_table,
        hIV_table=good.hIV_table,
    )
    assert not is_approximately_finite(bad)


def test_tail_parameters():
    assert tail_parameters(weight_from_partition((2, 1), P11)) == (0, 2)
    assert tail_parameters(Weight(P11, mode="af")) == (0, 0)
    assert tail_parameters(Weight(P11, alpha=3, mode="free")) == (3, 0)


def test_split_weight_constant():
    w = Weight(P21, alpha=1, mode="free")
    alpha, w_af, w_ti = split_weight(w)
    assert alpha == 1
    assert not w_af.hI_table
    assert w_ti.h_I(1, (2,), 1) == 1
    assert w_ti.h_II(1, ()) == 0


def test_split_weight_af_input_has_zero_shift():
    base = weight_from_partition((2, 1), P21)
    fr = free_weight_from_af(base, 3)
    alpha, w_af, w_ti = split_weight(fr)
    assert alpha == 0
    assert w_af.hI_table == base.hI_table
    assert not (w_ti.hII_table or w_ti.hIII_table or w_ti.hIV_table)


def test_split_weight_reassembles():
    base = weight_from_partition((2, 1), P22)
    fr = free_weight_from_af(base, 3)
    w = Weight(
        P22,
        alpha=2,
        hI_table=base.hI_table,
        mode="free",
        hII_table={k: v + 1 for k, v in fr.hII_table.items()},
        hIII_table=fr.hIII_table,
        hIV_table=fr.hIV_table,
    )
    alpha, w_af, w_ti = split_weight(w)
    assert alpha == 2
    for n in range(3):
        for seq in itertools.product(P22.color_range(), repeat=n):
            for l1 in P22.flavor_range():
                for l2 in P22.flavor_range():
                    assert w.h_I(l1, seq, l2) == alpha + w_af.h_I(l1, seq, l2)
                assert w.h_II(l1, seq) == w_af.h_II(l1, seq) + w_ti.h_II(l1, seq)
                assert w.h_III(seq, l1) == w_af.h_III(seq, l1) + w_ti.h_III(seq, l1)
            assert w.h_IV(seq) == w_af.h_IV(seq) + w_ti.h_IV(seq)
    assert w_ti.h_I(2, (1, 2), 2) == 2


def test_partition_weight_monotone_along_enumeration():
    for params in (P21, P22):
        w = weight_from_partition((3, 2, 2, 1), params)
        vals = [w.h_I(*arg_at(k, params)) for k in range(1, 30)]
        for a, b in zip(vals, vals[1:]):
            assert a >= b and (a - b).denominator == 1
        # the end tables weakly decrease along their own word orders
        args2 = [
            (l, seq)
            for n in range(3)
            for seq in itertools.product(params.color_range(), repeat=n)
            for l in params.flavor_range()
        ]
        args2.sort(key=lambda a: seq_key(a[1] + (a[0],)))
        vals2 = [w.h_II(l, seq) for l, seq in args2]
        vals3 = [w.h_III(seq, l) for l, seq in args2]
        for seq_vals in (vals2, vals3):
            for a, b in zip(seq_vals, seq_vals[1:]):
                assert a >= b


def test_weight_file_roundtrip():
    base = weight_from_partition((2, 1), P22)
    fr = free_weight_from_af(base, 2)
    for w in (base, fr):
        text = write_weight(w)
        back = read_weight(text)
        assert back.params == w.params
        assert back.mode == w.mode
        assert back.alpha == w.alpha
        assert back.hI_table == w.hI_table
        assert back.hII_table == w.hII_table
        assert back.hIII_table == w.hIII_table
        assert back.hIV_table == w.hIV_table


def test_weight_file_rejects_bad_indices_and_duplicates():
    head = "lambda 2\nlambda_f 1\n"
    with pytest.raises(IndexRangeError):
        read_weight(head + "I 1 [7] 1 2\n")
    with pytest.raises(IndexRangeError):
        read_weight(head + "III [1] 3 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_weight(head + "I 1 [7] 3 2\nI 1 [7] 3 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_weight(head + "lambda 3\n")


def test_free_tables_reject_arguments_outside_b4():
    # l(1,1)[1|1], r(1,1)[|] and s[1|1] are not in b4: their values are derived
    cases = (
        ({"hII_table": {(1, (1,)): 5}}, "l(1,1)[1|1]"),
        ({"hIII_table": {((), 1): 7}}, "r(1,1)[|]"),
        ({"hIV_table": {(1,): 4}}, "s[1|1]"),
    )
    for tables, name in cases:
        with pytest.raises(ValueError, match="outside basis b4") as err:
            Weight(P21, mode="free", **tables)
        assert name in str(err.value)
    head = "lambda 2\nlambda_f 1\nmode free\n"
    for line in ("IV [1] 4\n", "III [] 1 7\n", "II 1 [2,1] 1\n"):
        with pytest.raises(ValueError, match="outside basis b4"):
            read_weight(head + line)
    # the same arguments stay usable as derived values, and b4 entries are stored
    w = read_weight(head + "II 1 [2] 3\nIII [2] 1 1\nIV [2] 1\n")
    assert w.h_II(1, (2,)) == 3 and w.h_III((2,), 1) == 1 and w.h_IV((2,)) == 1


def test_weight_file_errors():
    with pytest.raises(ValueError):
        read_weight("alpha 1\n")
    with pytest.raises(ValueError):
        read_weight("lambda 2\nlambda_f 1\nI 1 [1 1 1\n")
    with pytest.raises(ValueError):
        read_weight("lambda 2\nlambda_f 1\nbogus 3\n")


# ---------------------------------------------------------------------------
# free-mode golden: values recorded on tables that are not derived from af

FREE_GOLDEN_PARAMS = (P11, P21, AlgebraParams(1, 2), P22)


def _random_free_weight(rng, params):
    """Free weight with nonzero alpha and random tables on b4 arguments up to length 3."""

    def value():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    seqs = list(all_seqs(params, 3))
    fl = list(params.flavor_range())
    tI = {(rng.choice(fl), rng.choice(seqs), rng.choice(fl)): value() for _ in range(3)}
    tII, tIII, tIV = {}, {}, {}
    for seq in seqs:
        for l in fl:
            if in_b4(gen_l(l, l, seq, seq)) and rng.random() < 0.5:
                tII[(l, seq)] = value()
            if in_b4(gen_r(l, l, seq, seq)) and rng.random() < 0.5:
                tIII[(seq, l)] = value()
        if in_b4(gen_s(seq, seq)) and rng.random() < 0.5:
            tIV[seq] = value()
    return Weight(
        params,
        alpha=value(),
        hI_table=tI,
        mode="free",
        hII_table=tII,
        hIII_table=tIII,
        hIV_table=tIV,
    )


def _free_golden_lines():
    rng = random.Random(20261018)
    lines = []
    for params in FREE_GOLDEN_PARAMS:
        tag = f"{params.colors},{params.flavors}"
        for k in range(3):
            w = _random_free_weight(rng, params)
            for seq in all_seqs(params, 4):
                for l in params.flavor_range():
                    lines.append(f"{tag} {k} II {l} {seq} {w.h_II(l, seq)}")
                    lines.append(f"{tag} {k} III {seq} {l} {w.h_III(seq, l)}")
                lines.append(f"{tag} {k} IV {seq} {w.h_IV(seq)}")
            _alpha, _w_af, w_ti = split_weight(w)
            for name in ("hII_table", "hIII_table", "hIV_table"):
                lines.append(f"{tag} {k} shift {name} {sorted(getattr(w_ti, name).items())}")
            for seq in all_seqs(params, 3):
                lines.append(f"{tag} {k} shift IV {seq} {w_ti.h_IV(seq)}")
            lines.append(f"{tag} {k} af {is_approximately_finite(w)}")
            # the same tables with alpha 0, and an af-consistent weight before and
            # after one free entry is changed, reach the sum-rule comparison
            zero = Weight(
                params,
                alpha=0,
                hI_table=w.hI_table,
                mode="free",
                hII_table=w.hII_table,
                hIII_table=w.hIII_table,
                hIV_table=w.hIV_table,
            )
            lines.append(f"{tag} {k} af0 {is_approximately_finite(zero)}")
            good = free_weight_from_af(weight_from_partition((k + 2, 1), params), 3)
            lines.append(f"{tag} {k} good {is_approximately_finite(good)}")
            tIV = dict(good.hIV_table)
            seq = rng.choice(sorted(tIV, key=seq_key))
            tIV[seq] += 1
            bad = Weight(
                params,
                hI_table=good.hI_table,
                mode="free",
                hII_table=good.hII_table,
                hIII_table=good.hIII_table,
                hIV_table=tIV,
            )
            lines.append(f"{tag} {k} bad {seq} {is_approximately_finite(bad)}")
    return lines


def test_free_mode_values_golden():
    # SHA-256 of the lines, recorded before free mode evaluated through to_b4
    digest = hashlib.sha256("\n".join(_free_golden_lines()).encode()).hexdigest()
    assert digest == "b0cbe42d7efb00b80b70c0b850b2fa9bf5e7589d7f18c80ac2456996223f0a8a"


def _random_af_weight(rng, params):
    """af weight on a random table of up to five arguments of length <= 3."""
    seqs = list(all_seqs(params, 3))
    fl = list(params.flavor_range())
    table = {}
    for _ in range(rng.randint(1, 5)):
        arg = (rng.choice(fl), rng.choice(seqs), rng.choice(fl))
        table[arg] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return Weight(params, alpha=0, hI_table=table, mode="af")


def test_af_mode_values_golden():
    # h_II, h_III, h_IV up to length 4 of partition weights and seeded random
    # tables; the digest was recorded while the af sums matched prefixes,
    # suffixes and occurrences by hand
    rng = random.Random(20261019)
    lines = []
    for params in FREE_GOLDEN_PARAMS:
        tag = f"{params.colors},{params.flavors}"
        weights = [weight_from_partition(g, params) for g in ((1,), (2, 1), (3, 2, 2))]
        weights += [_random_af_weight(rng, params) for _ in range(2)]
        for k, w in enumerate(weights):
            for seq in all_seqs(params, 4):
                for l in params.flavor_range():
                    lines.append(f"{tag} {k} II {l} {seq} {w.h_II(l, seq)}")
                    lines.append(f"{tag} {k} III {seq} {l} {w.h_III(seq, l)}")
                lines.append(f"{tag} {k} IV {seq} {w.h_IV(seq)}")
        # a nonzero constant tail makes every derived sum diverge
        tail = Weight(params, alpha=1, hI_table=weights[-1].hI_table, mode="af")
        for probe in (lambda: tail.h_II(1, ()), lambda: tail.h_III((1,), 1), lambda: tail.h_IV(())):
            with pytest.raises(DivergentSumError):
                probe()
    assert len(lines) == 1440
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ad6cf71e6b473bcaeb28ed9962132e362024da6ae721ed1067638dd9eca52e2d"


def _weight_file_corpus():
    """Written af, free and partition weights, each followed by line and field mutations."""
    rng = random.Random(20261021)
    corpus = []
    for n in range(100):
        params = FREE_GOLDEN_PARAMS[n % 4]
        if n % 5 == 4:
            w = weight_from_partition((rng.randint(1, 3), 1), params)
        elif n % 2:
            w = _random_free_weight(rng, params)
        else:
            w = _random_af_weight(rng, params)
        base = write_weight(w).splitlines()
        corpus.append("\n".join(base) + "\n")
        for op in range(5):
            lines = list(base)
            i = rng.randrange(len(lines))
            if op % 3 == 0:
                del lines[i]
            elif op % 3 == 1:
                lines.insert(rng.randrange(len(lines) + 1), lines[i])
            else:
                fields = lines[i].split()
                a, b = rng.sample(range(len(fields)), 2)
                fields[a], fields[b] = fields[b], fields[a]
                lines[i] = " ".join(fields)
            corpus.append("\n".join(lines) + "\n")
    return corpus


def test_weight_file_boundary_golden():
    # SHA-256 of what each file reads back as, rewritten, or its error; recorded
    # before the reader and writer walked one table of line tags
    corpus = _weight_file_corpus()
    assert len(corpus) == 600
    lines = []
    for text in corpus:
        try:
            outcome = write_weight(read_weight(text))
        except ValueError as err:
            outcome = f"{type(err).__name__}: {err}"
        lines.append(f"{text!r} {outcome!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c4bfb053565922a8f8ac73d17493b19360fc506cb592a2a853596bd121d86509"


def test_weight_file_reads_plain_decimals_but_no_exponents():
    head = "lambda 1\nlambda_f 1\nmode free\n"
    w = read_weight(head + "alpha 0.5\nI 1 [1] 1 0.25\n")
    assert w.alpha == Fraction(1, 2)
    assert "I 1 [1] 1 1/4\n" in write_weight(w)
    # 1e100000000 would build a 100-million-digit integer before any check
    for line in ("I 1 [1] 1 1e1\n", "alpha 1e100000000\n"):
        with pytest.raises(ValueError, match="malformed weight-file line"):
            read_weight(head + line)
