"""Lowest-weight data: four diagonal eigenvalue tables and their closure.

A weight assigns a rational eigenvalue to every diagonal generator, one
table per kind (whole-chain, left end, right end, interior).  The
whole-chain table is stored as a constant tail value alpha plus finitely
many deviations, so eventually-constant weights are closed form.

Two modes:

* ``af``  the end and interior tables are derived from the whole-chain
  table by the finite support sums (tail alpha must be zero); this is
  the weight of a Young-symmetrized tensor power of the defining
  representation when the table comes from a partition.
* ``free``  the tables on basis-b4 diagonal arguments are free finitely
  supported data; all other arguments are determined by recursion
  relations that strip leading or trailing 1-blocks.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    KIND_F,
    KIND_L,
    KIND_R,
    AlgebraParams,
    Generator,
    all_seqs,
    check_indices,
    render_frac,
    render_seq,
    run_length,
)


class DivergentSumError(ValueError):
    """A derived-table sum has infinitely many nonzero summands."""


def _frac(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError("weight values must be exact rationals")


# ---------------------------------------------------------------------------
# argument enumeration for partition weights

def seq_at(n: int, colors: int) -> tuple:
    """The n-th index sequence (0-based) in the sequence ordering."""
    if n == 0:
        return ()
    n -= 1
    m = 1
    while n >= colors**m:
        n -= colors**m
        m += 1
    digits = []
    for i in range(m):
        power = colors ** (m - 1 - i)
        digits.append(n // power + 1)
        n %= power
    return tuple(digits)


def seq_index(seq: tuple, colors: int) -> int:
    if not seq:
        return 0
    m = len(seq)
    base = sum(colors**l for l in range(m))  # all strictly shorter sequences
    rank = 0
    for i, e in enumerate(seq):
        rank += (e - 1) * colors ** (m - 1 - i)
    return base + rank


def arg_at(k: int, params: AlgebraParams) -> tuple:
    """The k-th whole-chain diagonal argument (left flavor, body, right flavor).

    Flavor pairs vary fastest (right flavor innermost), then the body
    runs through the sequence ordering.
    """
    if k < 1:
        raise ValueError("argument positions start at 1")
    f = params.flavors
    block, within = divmod(k - 1, f * f)
    l1, l2 = divmod(within, f)
    return (l1 + 1, seq_at(block, params.colors), l2 + 1)


def arg_index(arg: tuple, params: AlgebraParams) -> int:
    """Position of a whole-chain diagonal argument in the enumeration."""
    l1, seq, l2 = arg
    f = params.flavors
    return seq_index(tuple(seq), params.colors) * f * f + (l1 - 1) * f + (l2 - 1) + 1


# ---------------------------------------------------------------------------

def _ones(p: int) -> tuple:
    return (1,) * p


class Weight:
    """Lowest-weight data over a fixed AlgebraParams; immutable once built."""

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
        for l, seq in hII_table or ():
            check_indices(params, seq, (l,))
        for seq, l in hIII_table or ():
            check_indices(params, seq, (l,))
        for seq in hIV_table or ():
            check_indices(params, seq)
        self.params = params
        self.alpha = _frac(alpha)
        self.hI_table = {
            (l1, tuple(seq), l2): _frac(v)
            for (l1, seq, l2), v in (hI_table or {}).items()
            if v
        }
        self.mode = mode
        self.hII_table = {
            (l, tuple(seq)): _frac(v) for (l, seq), v in (hII_table or {}).items() if v
        }
        self.hIII_table = {
            (tuple(seq), l): _frac(v) for (seq, l), v in (hIII_table or {}).items() if v
        }
        self.hIV_table = {tuple(seq): _frac(v) for seq, v in (hIV_table or {}).items() if v}
        if mode == "af" and (self.hII_table or self.hIII_table or self.hIV_table):
            raise ValueError("af mode derives the end and interior tables")
        self._memo: dict = {}

    # -- kind I ------------------------------------------------------------
    def h_I(self, l1: int, seq, l2: int) -> Fraction:
        return self.alpha + self.hI_table.get((l1, tuple(seq), l2), Fraction(0))

    # -- derived sums (af mode) ---------------------------------------------
    def _require_finite(self):
        if self.alpha != 0:
            raise DivergentSumError(
                "derived-table sums diverge for a nonzero constant tail"
            )

    def _sum_II(self, l: int, seq: tuple) -> Fraction:
        self._require_finite()
        k = len(seq)
        total = Fraction(0)
        for (m1, s, _m2), v in self.hI_table.items():
            if m1 == l and s[:k] == seq:
                total += v
        return total

    def _sum_III(self, seq: tuple, l: int) -> Fraction:
        self._require_finite()
        k = len(seq)
        total = Fraction(0)
        for (_m1, s, m2), v in self.hI_table.items():
            if m2 == l and (k == 0 or s[len(s) - k :] == seq):
                total += v
        return total

    def _sum_IV(self, seq: tuple) -> Fraction:
        self._require_finite()
        k = len(seq)
        total = Fraction(0)
        for (_m1, s, _m2), v in self.hI_table.items():
            occ = sum(1 for a in range(len(s) - k + 1) if s[a : a + k] == seq)
            total += occ * v
        return total

    # -- kind II -------------------------------------------------------------
    def h_II(self, l: int, seq) -> Fraction:
        seq = tuple(seq)
        key = ("II", l, seq)
        if key in self._memo:
            return self._memo[key]
        if self.mode == "af":
            val = self._sum_II(l, seq)
        elif not seq or seq[-1] != 1:
            val = self.hII_table.get((l, seq), Fraction(0))
        else:
            n = run_length(seq, 1, True)
            base = seq[:-n]
            val = self.h_II(l, base)
            for p in range(n):
                pad = base + _ones(p)
                for j in range(2, self.params.colors + 1):
                    val -= self.h_II(l, pad + (j,))
                for m2 in self.params.flavor_range():
                    val -= self.h_I(l, pad, m2)
        self._memo[key] = val
        return val

    # -- kind III ------------------------------------------------------------
    def h_III(self, seq, l: int) -> Fraction:
        seq = tuple(seq)
        key = ("III", seq, l)
        if key in self._memo:
            return self._memo[key]
        val = self._h_III_raw(seq, l)
        self._memo[key] = val
        return val

    def _h_III_raw(self, seq: tuple, l: int) -> Fraction:
        if self.mode == "af":
            return self._sum_III(seq, l)
        if not seq:
            if l != 1:
                return self.hIII_table.get((seq, l), Fraction(0))
            return self._anchor_III()
        if seq[0] != 1:
            return self.hIII_table.get((seq, l), Fraction(0))
        n = run_length(seq, 1, False)
        rest = seq[n:]
        if rest or l != 1:
            val = self.h_III(rest, l)
            for p in range(n):
                pad = _ones(p) + rest
                for i in range(2, self.params.colors + 1):
                    val -= self.h_III((i,) + pad, l)
                for m1 in self.params.flavor_range():
                    val -= self.h_I(m1, pad, l)
            return val
        val = self._anchor_III()
        for p in range(n):
            pad = _ones(p)
            for i in range(2, self.params.colors + 1):
                val -= self.h_III((i,) + pad, 1)
            for m1 in self.params.flavor_range():
                val -= self.h_I(m1, pad, 1)
        return val

    def _anchor_III(self) -> Fraction:
        # value at the empty sequence with unit flavor, fixed by the left end
        val = Fraction(0)
        for m in self.params.flavor_range():
            val += self.h_II(m, ())
        for m in range(2, self.params.flavors + 1):
            val -= self.h_III((), m)
        return val

    # -- kind IV ---------------------------------------------------------------
    def h_IV(self, seq) -> Fraction:
        seq = tuple(seq)
        key = ("IV", seq)
        if key in self._memo:
            return self._memo[key]
        val = self._h_IV_raw(seq)
        self._memo[key] = val
        return val

    def _h_IV_raw(self, seq: tuple) -> Fraction:
        if self.mode == "af":
            return self._sum_IV(seq)
        if not seq or (seq[0] != 1 and seq[-1] != 1):
            return self.hIV_table.get(seq, Fraction(0))
        if seq[0] == 1:
            m = run_length(seq, 1, False)
            tail = seq[m:]
            if not tail or tail[-1] != 1:
                val = self.h_IV(tail)
                for p in range(m):
                    pad = _ones(p) + tail
                    for i in range(2, self.params.colors + 1):
                        val -= self.h_IV((i,) + pad)
                    for l in self.params.flavor_range():
                        val -= self.h_II(l, pad)
                return val
            n = run_length(tail, 1, True)
            core = tail[:-n]
            head = _ones(m) + core
            val = self.h_IV(head)
            for p in range(n):
                pad = head + _ones(p)
                for j in range(2, self.params.colors + 1):
                    val -= self.h_IV(pad + (j,))
                for l in self.params.flavor_range():
                    val -= self.h_III(pad, l)
            return val
        n = run_length(seq, 1, True)
        core = seq[:-n]
        val = self.h_IV(core)
        for p in range(n):
            pad = core + _ones(p)
            for j in range(2, self.params.colors + 1):
                val -= self.h_IV(pad + (j,))
            for l in self.params.flavor_range():
                val -= self.h_III(pad, l)
        return val

    def diagonal_eigenvalue(self, g: Generator) -> Fraction:
        """Eigenvalue of a diagonal generator on the lowest weight vector."""
        if g.upper != g.lower:
            raise ValueError(f"{g!r} is not diagonal")
        if g.kind == KIND_F:
            l1, l2, l3, l4 = g.flavors
            if l1 != l2 or l3 != l4:
                raise ValueError(f"{g!r} is not diagonal")
            return self.h_I(l1, g.upper, l3)
        if g.kind == KIND_L:
            l1, l2 = g.flavors
            if l1 != l2:
                raise ValueError(f"{g!r} is not diagonal")
            return self.h_II(l1, g.upper)
        if g.kind == KIND_R:
            l1, l2 = g.flavors
            if l1 != l2:
                raise ValueError(f"{g!r} is not diagonal")
            return self.h_III(g.upper, l1)
        return self.h_IV(g.upper)


# ---------------------------------------------------------------------------
# partitions and their weights

def check_partition(gamma) -> tuple:
    gamma = tuple(int(p) for p in gamma)
    if any(p <= 0 for p in gamma):
        raise ValueError("partition parts must be positive")
    if any(a < b for a, b in zip(gamma, gamma[1:])):
        raise ValueError("partition parts must be weakly decreasing")
    return gamma


def weight_from_partition(gamma, params: AlgebraParams) -> Weight:
    """The weight of the symmetrized tensor power attached to a partition."""
    gamma = check_partition(gamma)
    table = {}
    for k, part in enumerate(gamma, start=1):
        table[arg_at(k, params)] = Fraction(part)
    return Weight(params, alpha=0, hI_table=table, mode="af")


def support_frontier(w: Weight) -> int:
    """Largest enumeration position carrying a nonzero deviation (0 if none)."""
    if not w.hI_table:
        return 0
    return max(arg_index(arg, w.params) for arg in w.hI_table)


def is_approximately_finite(w: Weight) -> bool:
    """Integrality/monotonicity of the whole-chain table plus the sum rules."""
    if w.alpha != 0:
        return False
    frontier = support_frontier(w)
    values = [w.h_I(*arg_at(k, w.params)) for k in range(1, frontier + 2)]
    for v in values:
        if v.denominator != 1 or v < 0:
            return False
    for a, b in zip(values, values[1:]):
        if a < b:
            return False
    if w.mode == "af":
        return True
    # free tables must reproduce the derived sums
    probe = Weight(w.params, alpha=0, hI_table=w.hI_table, mode="af")
    max_len = max((len(s) for (_l1, s, _l2) in w.hI_table), default=0)
    max_len = max(
        max_len,
        max((len(s) for (_l, s) in w.hII_table), default=0),
        max((len(s) for (s, _l) in w.hIII_table), default=0),
        max((len(s) for s in w.hIV_table), default=0),
    )
    for l, seq in _free_args_II(w.params, max_len):
        if w.h_II(l, seq) != probe.h_II(l, seq):
            return False
    for seq, l in _free_args_III(w.params, max_len):
        if w.h_III(seq, l) != probe.h_III(seq, l):
            return False
    for seq in _free_args_IV(w.params, max_len):
        if w.h_IV(seq) != probe.h_IV(seq):
            return False
    return True


def _free_args_II(params: AlgebraParams, max_len: int):
    for seq in all_seqs(params, max_len):
        if seq and seq[-1] == 1:
            continue
        for l in params.flavor_range():
            yield (l, seq)


def _free_args_III(params: AlgebraParams, max_len: int):
    for seq in all_seqs(params, max_len):
        for l in params.flavor_range():
            if not seq and l == 1:
                continue
            if seq and seq[0] == 1:
                continue
            yield (seq, l)


def _free_args_IV(params: AlgebraParams, max_len: int):
    for seq in all_seqs(params, max_len):
        if seq and (seq[0] == 1 or seq[-1] == 1):
            continue
        yield seq


def free_weight_from_af(af: Weight, max_len: int) -> Weight:
    """Free-mode copy whose free tables carry the derived sums up to max_len."""
    params = af.params
    return Weight(
        params,
        alpha=0,
        hI_table=af.hI_table,
        mode="free",
        hII_table={(l, s): af.h_II(l, s) for l, s in _free_args_II(params, max_len)},
        hIII_table={(s, l): af.h_III(s, l) for s, l in _free_args_III(params, max_len)},
        hIV_table={s: af.h_IV(s) for s in _free_args_IV(params, max_len)},
    )


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
    params = w.params
    w_af = Weight(params, alpha=0, hI_table=w.hI_table, mode="af")
    max_len = max((len(s) for (_l1, s, _l2) in w.hI_table), default=0) + 1
    max_len = max(
        max_len,
        max((len(s) for (_l, s) in w.hII_table), default=0),
        max((len(s) for (s, _l) in w.hIII_table), default=0),
        max((len(s) for s in w.hIV_table), default=0),
    )
    tII = {}
    for l, seq in _free_args_II(params, max_len):
        d = w.h_II(l, seq) - w_af.h_II(l, seq)
        if d:
            tII[(l, seq)] = d
    tIII = {}
    for seq, l in _free_args_III(params, max_len):
        d = w.h_III(seq, l) - w_af.h_III(seq, l)
        if d:
            tIII[(seq, l)] = d
    tIV = {}
    for seq in _free_args_IV(params, max_len):
        d = w.h_IV(seq) - w_af.h_IV(seq)
        if d:
            tIV[seq] = d
    w_ti = Weight(
        params,
        alpha=w.alpha,
        hI_table={},
        mode="free",
        hII_table=tII,
        hIII_table=tIII,
        hIV_table=tIV,
    )
    return (w.alpha, w_af, w_ti)


# ---------------------------------------------------------------------------
# weight files

def _render_seq(seq) -> str:
    return f"[{render_seq(seq)}]"


def _parse_seq(text: str) -> tuple:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"malformed sequence {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(int(p) for p in inner.split(","))


def write_weight(w: Weight) -> str:
    lines = [
        f"lambda {w.params.colors}",
        f"lambda_f {w.params.flavors}",
        f"alpha {render_frac(w.alpha)}",
        f"mode {w.mode}",
    ]
    for (l1, seq, l2) in sorted(w.hI_table, key=lambda a: arg_index(a, w.params)):
        lines.append(f"I {l1} {_render_seq(seq)} {l2} {render_frac(w.hI_table[(l1, seq, l2)])}")
    for (l, seq) in sorted(w.hII_table, key=lambda a: (a[0], len(a[1]), a[1])):
        lines.append(f"II {l} {_render_seq(seq)} {render_frac(w.hII_table[(l, seq)])}")
    for (seq, l) in sorted(w.hIII_table, key=lambda a: (a[1], len(a[0]), a[0])):
        lines.append(f"III {_render_seq(seq)} {l} {render_frac(w.hIII_table[(seq, l)])}")
    for seq in sorted(w.hIV_table, key=lambda s: (len(s), s)):
        lines.append(f"IV {_render_seq(seq)} {render_frac(w.hIV_table[seq])}")
    return "\n".join(lines) + "\n"


def read_weight(text: str) -> Weight:
    """Parse a weight file; a line key given twice is an error."""
    header: dict = {}
    tI: dict = {}
    tII: dict = {}
    tIII: dict = {}
    tIV: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag in ("lambda", "lambda-f", "lambda_f"):
                table, key, value = header, tag.replace("-", "_"), int(parts[1])
            elif tag == "alpha":
                table, key, value = header, tag, Fraction(parts[1])
            elif tag == "mode":
                table, key, value = header, tag, parts[1]
            elif tag == "I":
                key = (int(parts[1]), _parse_seq(parts[2]), int(parts[3]))
                table, value = tI, Fraction(parts[4])
            elif tag == "II":
                table, key, value = tII, (int(parts[1]), _parse_seq(parts[2])), Fraction(parts[3])
            elif tag == "III":
                table, key, value = tIII, (_parse_seq(parts[1]), int(parts[2])), Fraction(parts[3])
            elif tag == "IV":
                table, key, value = tIV, _parse_seq(parts[1]), Fraction(parts[2])
            else:
                raise ValueError(f"unknown weight-file line {raw!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"malformed weight-file line {raw!r}") from exc
        if key in table:
            raise ValueError(f"duplicate weight-file line {raw!r}")
        table[key] = value
    if "lambda" not in header or "lambda_f" not in header:
        raise ValueError("weight file must set lambda and lambda-f")
    return Weight(
        AlgebraParams(header["lambda"], header["lambda_f"]),
        alpha=header.get("alpha", 0),
        hI_table=tI,
        mode=header.get("mode", "af"),
        hII_table=tII or None,
        hIII_table=tIII or None,
        hIV_table=tIV or None,
    )
