"""Lowest-weight data: one table of diagonal eigenvalues and its closure.

A weight assigns a rational eigenvalue to every diagonal generator.  Its data
is a constant tail alpha and one finite table {diagonal generator: value}: a
whole-chain (kind f) generator's eigenvalue is alpha plus its table value, so
eventually-constant weights are closed form.  Every other eigenvalue is
computed on demand from the table, never stored: a Weight is plain data and
holds no cache.

Two modes:

* ``af``  the table holds whole-chain entries only; an end or interior
  eigenvalue is that table contracted with the generator's diagonal matrix
  elements on chains (``chains.matrix_element``), a finite sum when the tail
  alpha is zero; this is the weight of a Young-symmetrized tensor power of the
  defining representation when the table comes from a partition.
* ``free``  the table's end and interior entries are free finitely supported
  data on basis-b4 generators; any other diagonal generator equals its b4
  rewrite (``basis.to_b4``) in the algebra, so its eigenvalue is evaluated
  through that rewrite.  An entry outside b4 is rejected.

Weights build on chains: the whole-chain generator f(l1,l1;l2,l2)[I|I] reads
the value on the chain (l1, I, l2), the weight file lists those entries in
chains.chain_sort_key order, and a partition weight puts row k on the k-th
chain of all_chains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .basis import in_b4, to_b4_gen
from .chains import (
    Chain,
    all_chains,
    arg_index,
    chain_sort_key,
    check_partition,
    matrix_element,
    partition_chains,
)
from .core import (
    KIND_F,
    KIND_L,
    KIND_R,
    KIND_S,
    AlgebraParams,
    Generator,
    _as_fraction,
    _read_number,
    all_seqs,
    gen_f,
    gen_l,
    gen_r,
    gen_s,
    render_frac,
    render_seq,
)


class DivergentSumError(ValueError):
    """A derived-table sum has infinitely many nonzero summands."""


class Weight:
    """Tail alpha and {diagonal generator: nonzero value}; insert_letter keys on its identity."""

    def __init__(self, params: AlgebraParams, alpha=0, table: dict | None = None, mode: str = "af"):
        if mode not in ("af", "free"):
            raise ValueError(f"unknown weight mode {mode!r}")
        for g in table or ():
            _check_diagonal(g, params)
            if mode == "af" and g.kind != KIND_F:
                raise ValueError("af mode derives the end and interior tables")
            if mode == "free" and not in_b4(g):
                raise ValueError(
                    f"free-mode entry {g!r} is outside basis b4; "
                    "its eigenvalue follows from the b4 entries"
                )
        self.params = params
        self.alpha = _as_fraction(alpha)
        self.mode = mode
        self.table = {g: _as_fraction(v) for g, v in (table or {}).items() if v}

    def h_I(self, l1: int, seq, l2: int) -> Fraction:
        return self.diagonal_eigenvalue(_whole_chain(l1, seq, l2))

    def h_II(self, l: int, seq) -> Fraction:
        return self.diagonal_eigenvalue(gen_l(l, l, seq, seq))

    def h_III(self, seq, l: int) -> Fraction:
        return self.diagonal_eigenvalue(gen_r(l, l, seq, seq))

    def h_IV(self, seq) -> Fraction:
        return self.diagonal_eigenvalue(gen_s(seq, seq))

    def diagonal_eigenvalue(self, g: Generator) -> Fraction:
        """Eigenvalue of a diagonal generator on the lowest weight vector.

        A whole-chain generator reads alpha plus its table value.  af mode
        contracts the table with the generator's diagonal matrix elements on
        chains; free mode reads a basis-b4 generator from the table and
        evaluates any other one through its b4 rewrite, whose terms are all
        diagonal b4 generators.
        """
        _check_diagonal(g, self.params)
        if g.kind == KIND_F:
            return self.alpha + self.table.get(g, Fraction(0))
        if self.mode == "af":
            if self.alpha != 0:
                raise DivergentSumError("derived-table sums diverge for a nonzero constant tail")
            chains = ((Chain(*_chain_arg(f)), v) for f, v in self.table.items())
            return sum((v * matrix_element(g, c, c) for c, v in chains), Fraction(0))
        if in_b4(g):
            return self.table.get(g, Fraction(0))
        val = Fraction(0)
        for t, c in to_b4_gen(g, self.params):
            val += c * self.diagonal_eigenvalue(t)
        return val


def _check_diagonal(g: Generator, params: AlgebraParams) -> None:
    """Raise IndexRangeError unless g's indices fit params, ValueError unless g is diagonal."""
    g.validate(params)
    if g.upper != g.lower or g.flavors[0::2] != g.flavors[1::2]:
        raise ValueError(f"{g!r} is not diagonal")


def _whole_chain(l1: int, seq, l2: int) -> Generator:
    """The diagonal whole-chain generator whose eigenvalue is the value on chain (l1, seq, l2)."""
    return gen_f(l1, l1, l2, l2, seq, seq)


def _chain_arg(g: Generator) -> tuple:
    """(left flavor, body, right flavor) of the chain that whole-chain generator g reads."""
    return (g.flavors[0], g.upper, g.flavors[2])


def _af_part(w: Weight) -> Weight:
    """The af weight of w's whole-chain entries (tail 0)."""
    return Weight(w.params, table={g: v for g, v in w.table.items() if g.kind == KIND_F})


# ---------------------------------------------------------------------------
# partitions and their weights

def weight_from_partition(gamma, params: AlgebraParams) -> Weight:
    """The weight of the symmetrized tensor power attached to a partition."""
    rows = partition_chains(check_partition(gamma), params)
    return Weight(params, table={_whole_chain(c.left, c.body, c.right): part for c, part in rows})


def support_frontier(w: Weight) -> int:
    """Largest position in all_chains carrying a nonzero deviation (0 if none)."""
    fs = (g for g in w.table if g.kind == KIND_F)
    return max((arg_index(_chain_arg(g), w.params) for g in fs), default=0)


def is_approximately_finite(w: Weight) -> bool:
    """Integrality/monotonicity of the whole-chain table plus the sum rules."""
    if w.alpha != 0:
        return False
    # chains up to the tail length reach the one after the frontier
    chains = islice(all_chains(w.params, tail_parameters(w)[1]), support_frontier(w) + 1)
    values = [w.h_I(c.left, c.body, c.right) for c in chains]
    if any(v.denominator != 1 or v < 0 for v in values):
        return False
    if any(a < b for a, b in zip(values, values[1:])):
        return False
    if w.mode == "af":
        return True
    # free tables must reproduce the derived sums
    probe = _af_part(w)
    longest = max((len(g.upper) for g in w.table), default=0)
    return all(
        w.diagonal_eigenvalue(g) == probe.diagonal_eigenvalue(g)
        for g in _free_args(w.params, longest)
    )


def _free_args(params: AlgebraParams, max_len: int):
    """Diagonal end and interior generators in b4 with sequences up to max_len."""
    for seq in all_seqs(params, max_len):
        gens = [gen_s(seq, seq)]
        for l in params.flavor_range():
            gens += [gen_l(l, l, seq, seq), gen_r(l, l, seq, seq)]
        yield from filter(in_b4, gens)


def free_weight_from_af(af: Weight, max_len: int) -> Weight:
    """Free-mode copy whose end and interior entries are the derived sums up to max_len."""
    values = {g: af.diagonal_eigenvalue(g) for g in _free_args(af.params, max_len)}
    return Weight(af.params, 0, af.table | values, "free")


def tail_parameters(w: Weight) -> tuple:
    """(tail value, least N with the whole-chain table constant from length N on)."""
    longest = max((len(g.upper) for g in w.table if g.kind == KIND_F), default=-1)
    return (w.alpha, 1 + longest)


def split_weight(w: Weight) -> tuple:
    """Split off the constant tail: (alpha, finite-table part, shift part).

    The finite part is the af-mode weight of the whole-chain entries; the
    shift part keeps the constant whole-chain value alpha and the excess
    of the end/interior eigenvalues over the finite part's derived sums.
    """
    w_af = _af_part(w)
    # beyond the longest table sequence both weights vanish on the free arguments
    longest = max((len(g.upper) for g in w.table), default=0)
    shift = {
        g: w.diagonal_eigenvalue(g) - w_af.diagonal_eigenvalue(g)
        for g in _free_args(w.params, longest)
    }
    return (w.alpha, w_af, Weight(w.params, w.alpha, shift, "free"))


# ---------------------------------------------------------------------------
# weight files

def _parse_seq(text: str) -> tuple:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"malformed sequence {text!r}")
    inner = text[1:-1]
    return tuple(_read_number(p) for p in inner.split(",")) if inner else ()


_INT = (_read_number, str)
_SEQ = (_parse_seq, lambda seq: f"[{render_seq(seq)}]")
_VALUE = (lambda text: _read_number(text, Fraction), render_frac)
_WORD = (str, str)

# One row per line tag, in the order the tags are written: the reader and
# renderer of each field after the tag (the last field is the value, the ones
# before it the line's key).  A table row (I-IV) goes on with the kind of the
# diagonal generators its lines hold, the generator a key names, the key of a
# generator, and the order of the lines (for I, chain_sort_key).  The header
# tags come first.
_HEADER = ("lambda", "lambda_f", "alpha", "mode")
_LINES = {
    "lambda": ((_INT,),),
    "lambda_f": ((_INT,),),
    "alpha": ((_VALUE,),),
    "mode": ((_WORD,),),
    "I": ((_INT, _SEQ, _INT, _VALUE), KIND_F, _whole_chain, _chain_arg,
          lambda g: chain_sort_key(Chain(*_chain_arg(g)))),
    "II": ((_INT, _SEQ, _VALUE), KIND_L, lambda l, seq: gen_l(l, l, seq, seq),
           lambda g: (g.flavors[0], g.upper), lambda g: (g.flavors[0], len(g.upper), g.upper)),
    "III": ((_SEQ, _INT, _VALUE), KIND_R, lambda seq, l: gen_r(l, l, seq, seq),
            lambda g: (g.upper, g.flavors[0]), lambda g: (g.flavors[0], len(g.upper), g.upper)),
    "IV": ((_SEQ, _VALUE), KIND_S, lambda seq: gen_s(seq, seq),
           lambda g: (g.upper,), lambda g: (len(g.upper), g.upper)),
}


def write_weight(w: Weight) -> str:
    header = dict(zip(_HEADER, (w.params.colors, w.params.flavors, w.alpha, w.mode)))
    lines = []
    for tag, (fields, *table) in _LINES.items():
        if table:
            kind, _gen, key, order = table
            gens = sorted((g for g in w.table if g.kind == kind), key=order)
            rows = [key(g) + (w.table[g],) for g in gens]
        else:
            rows = [(header[tag],)]
        for values in rows:
            lines.append(" ".join([tag] + [out(v) for (_read, out), v in zip(fields, values)]))
    return "\n".join(lines) + "\n"


def read_weight(text: str) -> Weight:
    """Parse a weight file; a line key given twice is an error."""
    tables: dict = {tag: {} for tag in _LINES}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        tag = "lambda_f" if parts[0] == "lambda-f" else parts[0]
        fields = _LINES.get(tag, (None,))[0]
        try:
            if fields is None or len(parts) != 1 + len(fields):
                raise ValueError("unknown tag or wrong field count")
            values = tuple(read(p) for (read, _out), p in zip(fields, parts[1:]))
        except ValueError as exc:
            raise ValueError(f"malformed weight-file line {raw!r}") from exc
        key = values[:-1]
        if key in tables[tag]:
            raise ValueError(f"duplicate weight-file line {raw!r}")
        tables[tag][key] = values[-1]
    colors, flavors, alpha, mode = (tables[tag].get(()) for tag in _HEADER)
    if colors is None or flavors is None:
        raise ValueError("weight file must set lambda and lambda-f")
    mode = mode or "af"
    if mode == "af" and alpha:
        raise ValueError("an af-mode weight file needs alpha 0: its derived sums diverge")
    table = {}
    for tag, (_fields, *row) in _LINES.items():
        if row:
            _kind, gen, _key, _order = row
            table.update((gen(*key), v) for key, v in tables[tag].items())
    return Weight(AlgebraParams(colors, flavors), alpha or 0, table, mode)
