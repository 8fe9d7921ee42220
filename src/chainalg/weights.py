"""Lowest-weight data: four diagonal eigenvalue tables and their closure.

A weight assigns a rational eigenvalue to every diagonal generator, one
table per kind (whole-chain, left end, right end, interior).  The
whole-chain table is stored as a constant tail value alpha plus finitely
many deviations, so eventually-constant weights are closed form.  Every
other eigenvalue is computed on demand from the tables, never stored: a
Weight is plain data and holds no cache.

Two modes:

* ``af``  an end or interior eigenvalue is the whole-chain table
  contracted with the generator's diagonal matrix elements on chains
  (``chains.matrix_element``), a finite sum when the tail alpha is zero;
  this is the weight of a Young-symmetrized tensor power of the defining
  representation when the table comes from a partition.
* ``free``  the tables on basis-b4 diagonal arguments are free finitely
  supported data; any other diagonal generator equals its b4 rewrite
  (``basis.to_b4``) in the algebra, so its eigenvalue is evaluated
  through that rewrite.  A table entry outside b4 is rejected.

Weights build on chains: a whole-chain entry (l1, body, l2) is the value on
one chain, the weight file lists those entries in chains.chain_sort_key
order, and a partition weight puts row k on the k-th chain of all_chains.
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
    check_indices,
    gen_l,
    gen_r,
    gen_s,
    render_frac,
    render_seq,
)


class DivergentSumError(ValueError):
    """A derived-table sum has infinitely many nonzero summands."""


class Weight:
    """Lowest-weight tables over a fixed AlgebraParams; eigenvalues computed on demand."""

    def __init__(
        self,
        params: AlgebraParams,
        alpha=0,
        hI_table: dict | None = None,
        mode: str = "af",
        hII_table: dict | None = None,
        hIII_table: dict | None = None,
        hIV_table: dict | None = None,
    ):
        if mode not in ("af", "free"):
            raise ValueError(f"unknown weight mode {mode!r}")
        for l1, seq, l2 in hI_table or ():
            check_indices(params, seq, (l1, l2))
        free = {}  # diagonal generator -> stored eigenvalue
        free.update((gen_l(l, l, seq, seq), v) for (l, seq), v in (hII_table or {}).items())
        free.update((gen_r(l, l, seq, seq), v) for (seq, l), v in (hIII_table or {}).items())
        free.update((gen_s(seq, seq), v) for seq, v in (hIV_table or {}).items())
        for g in free:
            g.validate(params)
            if mode == "free" and not in_b4(g):
                raise ValueError(
                    f"free-mode entry {g!r} is outside basis b4; "
                    "its eigenvalue follows from the b4 entries"
                )
        self.params = params
        self.alpha = _as_fraction(alpha)
        self.hI_table = {
            (l1, tuple(seq), l2): _as_fraction(v)
            for (l1, seq, l2), v in (hI_table or {}).items()
            if v
        }
        self.mode = mode
        self._free = {g: _as_fraction(v) for g, v in free.items() if v}
        self.hII_table, self.hIII_table, self.hIV_table = _free_tables(self._free)
        if mode == "af" and self._free:
            raise ValueError("af mode derives the end and interior tables")

    # -- kind I ------------------------------------------------------------
    def h_I(self, l1: int, seq, l2: int) -> Fraction:
        return self.alpha + self.hI_table.get((l1, tuple(seq), l2), Fraction(0))

    # -- kinds II, III, IV -----------------------------------------------------
    def h_II(self, l: int, seq) -> Fraction:
        return self.diagonal_eigenvalue(gen_l(l, l, seq, seq))

    def h_III(self, seq, l: int) -> Fraction:
        return self.diagonal_eigenvalue(gen_r(l, l, seq, seq))

    def h_IV(self, seq) -> Fraction:
        return self.diagonal_eigenvalue(gen_s(seq, seq))

    def diagonal_eigenvalue(self, g: Generator) -> Fraction:
        """Eigenvalue of a diagonal generator on the lowest weight vector.

        Free mode reads a basis-b4 generator from its table and evaluates any
        other one through its b4 rewrite, whose terms are all diagonal b4
        generators; af mode contracts the whole-chain table with the
        generator's diagonal matrix elements on chains.
        """
        if g.upper != g.lower or g.flavors[0::2] != g.flavors[1::2]:
            raise ValueError(f"{g!r} is not diagonal")
        if g.kind == KIND_F:
            return self.h_I(g.flavors[0], g.upper, g.flavors[2])
        if self.mode == "af":
            if self.alpha != 0:
                raise DivergentSumError(
                    "derived-table sums diverge for a nonzero constant tail"
                )
            return sum(
                (v * matrix_element(g, Chain(*arg), Chain(*arg))
                 for arg, v in self.hI_table.items()),
                Fraction(0),
            )
        if in_b4(g):
            return self._free.get(g, Fraction(0))
        val = Fraction(0)
        for t, c in to_b4_gen(g, self.params):
            val += c * self.diagonal_eigenvalue(t)
        return val


# ---------------------------------------------------------------------------
# partitions and their weights

def weight_from_partition(gamma, params: AlgebraParams) -> Weight:
    """The weight of the symmetrized tensor power attached to a partition."""
    rows = partition_chains(check_partition(gamma), params)
    table = {(c.left, c.body, c.right): Fraction(part) for c, part in rows}
    return Weight(params, alpha=0, hI_table=table, mode="af")


def support_frontier(w: Weight) -> int:
    """Largest position in all_chains carrying a nonzero deviation (0 if none)."""
    return max((arg_index(arg, w.params) for arg in w.hI_table), default=0)


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
    probe = Weight(w.params, alpha=0, hI_table=w.hI_table, mode="af")
    return all(
        w.diagonal_eigenvalue(g) == probe.diagonal_eigenvalue(g)
        for g in _free_args(w.params, _table_len(w))
    )


def _free_args(params: AlgebraParams, max_len: int):
    """Diagonal end and interior generators in b4 with sequences up to max_len."""
    for seq in all_seqs(params, max_len):
        gens = [gen_s(seq, seq)]
        for l in params.flavor_range():
            gens += [gen_l(l, l, seq, seq), gen_r(l, l, seq, seq)]
        yield from filter(in_b4, gens)


def _table_len(w: Weight) -> int:
    """Length of the longest sequence in any table of w."""
    seqs = [s for (_l1, s, _l2) in w.hI_table] + [g.upper for g in w._free]
    return max(map(len, seqs), default=0)


def _free_tables(values: dict) -> tuple:
    """{diagonal generator: value} as the (hII, hIII, hIV) tables of Weight."""
    return (
        {(g.flavors[0], g.upper): v for g, v in values.items() if g.kind == KIND_L},
        {(g.upper, g.flavors[0]): v for g, v in values.items() if g.kind == KIND_R},
        {g.upper: v for g, v in values.items() if g.kind == KIND_S},
    )


def free_weight_from_af(af: Weight, max_len: int) -> Weight:
    """Free-mode copy whose free tables carry the derived sums up to max_len."""
    values = {g: af.diagonal_eigenvalue(g) for g in _free_args(af.params, max_len)}
    return Weight(af.params, 0, af.hI_table, "free", *_free_tables(values))


def tail_parameters(w: Weight) -> tuple:
    """(tail value, least N with the whole-chain table constant from length N on)."""
    if not w.hI_table:
        return (w.alpha, 0)
    return (w.alpha, 1 + max(len(s) for (_l1, s, _l2) in w.hI_table))


def split_weight(w: Weight) -> tuple:
    """Split off the constant tail: (alpha, finite-table part, shift part).

    The finite part is the af-mode weight of the deviation table; the
    shift part keeps the constant whole-chain value alpha and the excess
    of the end/interior tables over the finite part's derived sums.
    """
    w_af = Weight(w.params, alpha=0, hI_table=w.hI_table, mode="af")
    # beyond the longest table sequence both weights vanish on the free arguments
    shift = {
        g: w.diagonal_eigenvalue(g) - w_af.diagonal_eigenvalue(g)
        for g in _free_args(w.params, _table_len(w))
    }
    return (w.alpha, w_af, Weight(w.params, w.alpha, {}, "free", *_free_tables(shift)))


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
# before it make the key of the tag's table), and the order of a table's keys
# (for I, chain_sort_key).  The header tags come first.
_HEADER = ("lambda", "lambda_f", "alpha", "mode")
_LINES = {
    "lambda": ((_INT,), None),
    "lambda_f": ((_INT,), None),
    "alpha": ((_VALUE,), None),
    "mode": ((_WORD,), None),
    "I": ((_INT, _SEQ, _INT, _VALUE), lambda a: chain_sort_key(Chain(*a))),
    "II": ((_INT, _SEQ, _VALUE), lambda a: (a[0], len(a[1]), a[1])),
    "III": ((_SEQ, _INT, _VALUE), lambda a: (a[1], len(a[0]), a[0])),
    "IV": ((_SEQ, _VALUE), lambda s: (len(s), s)),
}


def write_weight(w: Weight) -> str:
    header = (w.params.colors, w.params.flavors, w.alpha, w.mode)
    tables = {tag: {(): v} for tag, v in zip(_HEADER, header)}
    tables.update(I=w.hI_table, II=w.hII_table, III=w.hIII_table, IV=w.hIV_table)
    lines = []
    for tag, (fields, order) in _LINES.items():
        for key in sorted(tables[tag], key=order):
            values = ((key,) if len(fields) == 2 else key) + (tables[tag][key],)
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
        fields, _order = _LINES.get(tag, (None, None))
        try:
            if fields is None or len(parts) != 1 + len(fields):
                raise ValueError("unknown tag or wrong field count")
            values = tuple(read(p) for (read, _out), p in zip(fields, parts[1:]))
        except ValueError as exc:
            raise ValueError(f"malformed weight-file line {raw!r}") from exc
        key = values[0] if len(values) == 2 else values[:-1]
        if key in tables[tag]:
            raise ValueError(f"duplicate weight-file line {raw!r}")
        tables[tag][key] = values[-1]
    colors, flavors, alpha, mode = (tables[tag].get(()) for tag in _HEADER)
    if colors is None or flavors is None:
        raise ValueError("weight file must set lambda and lambda-f")
    mode = mode or "af"
    if mode == "af" and alpha:
        raise ValueError("an af-mode weight file needs alpha 0: its derived sums diverge")
    params = AlgebraParams(colors, flavors)
    return Weight(params, alpha or 0, tables["I"], mode, tables["II"], tables["III"], tables["IV"])
