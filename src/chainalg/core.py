"""Generators and exact linear algebra for the open string algebra.

An algebra instance is fixed by two positive integers: the number of
adjoint parton colors (bounding every index-sequence entry) and the
number of fundamental flavors (bounding every flavor index).  A
generator is one of four operator kinds:

    f   flavors (a, b, c, d), replaces a whole chain,
    l   flavors (a, b), acts at the conjugate (left) end,
    r   flavors (a, b), acts at the fundamental (right) end,
    s   no flavors, acts on interior segments of adjoint partons.

Each generator carries an upper and a lower index sequence.  For kinds
f, l, r the sequences may be empty.  Kind s usually has nonempty
sequences, but the three extended forms s[I|], s[|J] and s[|] (inserter,
deleter and length counter) are first-class generators as well.

A Generator is a slotted frozen dataclass, hashed and compared by its fields.
Elements are finitely supported rational linear combinations of
generators; all arithmetic is exact (fractions.Fraction), never float.
Combination.map is the one linear extension of a rule on generators; the
bilinear bracket and the module action sum integer numerators over one
common denominator instead.  A Combination stores a coefficient as it is
under a new key and adds only when a key repeats.  congruence is the one
exact elimination: the signature and radical of a symmetric matrix given
as sparse rows, hence also the rank of a semidefinite one.
"""

from __future__ import annotations

import collections
import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

KIND_F = "f"
KIND_L = "l"
KIND_R = "r"
KIND_S = "s"
KINDS = (KIND_F, KIND_L, KIND_R, KIND_S)

# tie-break priority of the generator ordering: s > r > l > f
_KIND_RANK = {k: i for i, k in enumerate(KINDS)}

_N_FLAVORS = {KIND_F: 4, KIND_L: 2, KIND_R: 2, KIND_S: 0}

IntSeq = tuple  # tuple of ints, possibly empty


@dataclass(frozen=True)
class AlgebraParams:
    """Size parameters: adjoint colors and fundamental flavors, both >= 1."""

    colors: int
    flavors: int

    def __post_init__(self):
        if self.colors < 1 or self.flavors < 1:
            raise ValueError("colors and flavors must be positive")

    def color_range(self):
        return range(1, self.colors + 1)

    def flavor_range(self):
        return range(1, self.flavors + 1)


@dataclass(frozen=True, slots=True)
class Generator:
    """One basis operator: kind, upper/lower index sequences, flavor tuple."""

    kind: str
    upper: IntSeq
    lower: IntSeq
    flavors: tuple = ()

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if len(self.flavors) != _N_FLAVORS[self.kind]:
            raise ValueError(
                f"kind {self.kind!r} takes {_N_FLAVORS[self.kind]} flavor "
                f"indices, got {len(self.flavors)}"
            )

    def validate(self, params: AlgebraParams) -> None:
        check_indices(params, self.upper + self.lower, self.flavors)

    def __repr__(self):
        return render_generator(self)


class IndexRangeError(ValueError):
    """An integer index fell outside the bounds set by the parameters."""


class NumberTooLongError(ValueError):
    """A number had more digits than int() reads (sys.get_int_max_str_digits)."""


def check_indices(params: AlgebraParams, colors=(), flavors=()) -> None:
    """Raise IndexRangeError unless every color and flavor index is in range."""
    for i in colors:
        if not 1 <= i <= params.colors:
            raise IndexRangeError(
                f"color index {i} out of range 1..{params.colors} "
                f"(lambda={params.colors})"
            )
    for m in flavors:
        if not 1 <= m <= params.flavors:
            raise IndexRangeError(
                f"flavor index {m} out of range 1..{params.flavors} "
                f"(lambda_f={params.flavors})"
            )


def gen_f(l1, l2, l3, l4, upper, lower) -> Generator:
    return Generator(KIND_F, tuple(upper), tuple(lower), (l1, l2, l3, l4))


def gen_l(l1, l2, upper, lower) -> Generator:
    return Generator(KIND_L, tuple(upper), tuple(lower), (l1, l2))


def gen_r(l1, l2, upper, lower) -> Generator:
    return Generator(KIND_R, tuple(upper), tuple(lower), (l1, l2))


def gen_s(upper, lower) -> Generator:
    return Generator(KIND_S, tuple(upper), tuple(lower))


# ---------------------------------------------------------------------------
# orderings

def seq_key(seq: IntSeq):
    """Sort key for the sequence ordering: longer wins, then entrywise."""
    return (len(seq), seq)


def all_seqs(params: AlgebraParams, max_len: int):
    """Every color sequence of length <= max_len, ascending in the sequence ordering."""
    for n in range(max_len + 1):
        yield from itertools.product(params.color_range(), repeat=n)


def trailing_ones(seq: IntSeq) -> int:
    """Length of the block of 1 entries that ends the sequence."""
    return next((k for k, x in enumerate(reversed(seq)) if x != 1), len(seq))


def flavor_words(g: Generator) -> tuple:
    """(upper flavor word, lower flavor word) of a generator."""
    if g.kind == KIND_F:
        l1, l2, l3, l4 = g.flavors
        return (l1, l3), (l2, l4)
    if g.kind in (KIND_L, KIND_R):
        l1, l2 = g.flavors
        return (l1,), (l2,)
    return (), ()


def grade(g: Generator) -> int:
    """Degree in the integer grading: upper length minus lower length."""
    return len(g.upper) - len(g.lower)


def charge(*gens: Generator) -> tuple:
    """Additive charge of the given letters: sorted sparse ((slot, index), n).

    Upper minus lower count of color c ("c") and of the flavor at the left end
    ("l": f's first pair, l) and the right end ("r": f's second pair, r).
    """
    acc = collections.Counter()
    for g in gens:
        acc.update(("c", c) for c in g.upper)
        acc.subtract(("c", c) for c in g.lower)
        if g.kind in (KIND_F, KIND_L):
            acc["l", g.flavors[0]] += 1
            acc["l", g.flavors[1]] -= 1
        if g.kind in (KIND_F, KIND_R):
            acc["r", g.flavors[-2]] += 1
            acc["r", g.flavors[-1]] -= 1
    return tuple(sorted((k, n) for k, n in acc.items() if n))


def gen_key(g: Generator):
    """Total-order sort key for generators.

    Precedence: grade, total index size, lower sequence, upper sequence,
    kind (s > r > l > f), lower flavor word, upper flavor word.
    """
    up_fl, lo_fl = flavor_words(g)
    return (
        grade(g),
        len(g.upper) + len(g.lower),
        seq_key(g.lower),
        seq_key(g.upper),
        _KIND_RANK[g.kind],
        lo_fl,
        up_fl,
    )


# ---------------------------------------------------------------------------
# rational linear combinations

def _as_fraction(c) -> Fraction:
    if type(c) is Fraction:
        return c
    if isinstance(c, (int, Fraction)):  # bool and Fraction subclasses too
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


class Combination:
    """Finitely supported map key -> nonzero Fraction, tied to an AlgebraParams.

    Used for algebra elements (keys are Generators) and for representation
    states (keys are chains, chain tuples or letter words).  Instances are
    treated as immutable; arithmetic returns fresh objects and zero
    coefficients are never stored.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: AlgebraParams, terms: dict | None = None):
        self.params = params
        clean = {}
        if terms:
            for k, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[k] = c
        self.terms = clean

    @classmethod
    def zero(cls, params: AlgebraParams) -> "Combination":
        return cls(params)

    @classmethod
    def term(cls, params: AlgebraParams, key, coeff=1) -> "Combination":
        out, coeff = cls(params), _as_fraction(coeff)
        if coeff:
            out.terms = {key: coeff}
        return out

    @classmethod
    def from_items(cls, params: AlgebraParams, items: Iterable) -> "Combination":
        acc: dict = {}
        for k, c in items:
            c = _as_fraction(c)
            if c:
                if k in acc:
                    c += acc[k]
                    if not c:
                        del acc[k]
                        continue
                acc[k] = c
        out = cls(params)
        out.terms = acc
        return out

    def map(self, fn) -> "Combination":
        """Linear extension of fn over the terms: the sum of c * fn(k)."""
        return type(self).from_items(
            self.params, (t for k, c in self.terms.items() for t in fn(k).scaled(c))
        )

    def items(self):
        return self.terms.items()

    def get(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def keys(self):
        return self.terms.keys()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self) -> Iterator:
        return iter(self.terms.items())

    def _check(self, other: "Combination"):
        if self.params != other.params:
            raise ValueError("algebra parameter mismatch between operands")

    def __add__(self, other: "Combination") -> "Combination":
        self._check(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            if k in acc:
                c += acc[k]
                if not c:
                    del acc[k]
                    continue
            acc[k] = c
        out = type(self)(self.params)
        out.terms = acc
        return out

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-other)

    def __neg__(self) -> "Combination":
        out = type(self)(self.params)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def scaled(self, c) -> "Combination":
        c = _as_fraction(c)
        if c == 1:
            return self  # instances are immutable
        out = type(self)(self.params)
        if c:
            out.terms = {k: c * v for k, v in self.terms.items()}
        return out

    def __rmul__(self, c) -> "Combination":
        return self.scaled(c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Combination)
            and self.params == other.params
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside

    def __repr__(self):
        if not self.terms:
            return "0"
        if all(isinstance(k, Generator) for k in self.terms):
            return render_element(self)
        ordered = sorted(self.terms.items(), key=lambda kv: repr(kv[0]))
        return render_terms([(repr(k), c) for k, c in ordered])


Element = Combination  # keys: Generator


def element(params: AlgebraParams, *scaled_gens) -> Element:
    """Build an Element from (coeff, Generator) pairs or bare Generators."""
    pairs = ((1, t) if isinstance(t, Generator) else t for t in scaled_gens)
    return Combination.from_items(params, ((g, c) for c, g in pairs))


# ---------------------------------------------------------------------------
# involutions

def omega_fields(kind, upper, lower, flavors) -> tuple:
    """omega on generator fields; flavor pairs transposed: (a, b, c, d) -> (b, a, d, c)."""
    return kind, lower, upper, flavors[1::-1] + flavors[3:1:-1]


def omega_gen(g: Generator) -> Generator:
    """Swap upper and lower data: sequences exchanged, flavor pairs transposed."""
    return Generator(*omega_fields(g.kind, g.upper, g.lower, g.flavors))


def omega(e: Element) -> Element:
    """Antilinear anti-involution; identity on rational coefficients."""
    return Combination.from_items(e.params, ((omega_gen(g), c) for g, c in e))


_MIRROR_KIND = {KIND_F: KIND_F, KIND_L: KIND_R, KIND_R: KIND_L, KIND_S: KIND_S}


def mirror_fields(kind, upper, lower, flavors) -> tuple:
    """mirror_gen on the fields of a generator."""
    return _MIRROR_KIND[kind], upper[::-1], lower[::-1], flavors[2:] + flavors[:2]


def mirror_gen(g: Generator) -> Generator:
    """Image under chain reversal chain(a,b)[K] -> chain(b,a)[reversed K].

    Both sequences are reversed, l and r swap keeping their flavor pair,
    and f(a,b;c,d) becomes f(c,d;a,b).  Conjugating the action by chain
    reversal makes this an automorphism of the algebra:
    [mirror a, mirror b] = mirror [a, b].
    """
    return Generator(*mirror_fields(g.kind, g.upper, g.lower, g.flavors))


def mirror(e: Element) -> Element:
    """Linear extension of mirror_gen."""
    return Combination.from_items(e.params, ((mirror_gen(g), c) for g, c in e))


# ---------------------------------------------------------------------------
# exact congruence elimination over sparse rows

def _add_scaled(dst: dict, src: dict, f=1) -> None:
    """dst += f * src on sparse rows; entries that cancel are dropped."""
    for k, v in src.items():
        s = dst.get(k, 0) + f * v
        if s:
            dst[k] = s
        else:
            del dst[k]


def congruence(rows: dict) -> tuple:
    """(n_pos, n_neg, radical) of a symmetric matrix by exact congruence elimination.

    rows maps every index to its sparse row {j: a_ij} of nonzero exact
    rationals, a_ij == a_ji.  radical maps each index that is never a pivot
    to its sparse row of the transform; these rows span the radical.  The
    pivot is the first row with a nonzero diagonal, and row operations
    alone clear its column.  When every diagonal is zero, the first nonzero
    pair (i, j) gives x_i += x_j as a row and a column operation.  A step
    touches only the rows with a nonzero in its pivot column, so it never
    leaves a block of the nonzero pattern.
    """
    t = {i: {i: Fraction(1)} for i in rows}
    rows = {i: dict(r) for i, r in rows.items() if r}  # an empty row is radical already
    n_pos = n_neg = 0
    while rows:
        p = min((i for i, r in rows.items() if i in r), default=None)
        if p is None:
            i = min(rows)
            j = min(rows[i])
            ri, rj = rows[i], rows[j]
            _add_scaled(ri, rj)  # row operation; a_jj = 0, so ri[j] stays a_ij
            ri[i] += ri[j]  # column operation on the diagonal: a_ji + a_ij
            for r in rj.keys() - {i}:  # and on the other rows: a_ri += a_rj
                _add_scaled(rows[r], {i: rj[r]})
            _add_scaled(t[i], t[j])
            continue
        row, tp = rows.pop(p), t.pop(p)
        d = Fraction(row.pop(p))  # int / int would be a float
        if d > 0:
            n_pos += 1
        else:
            n_neg += 1
        for r, v in row.items():
            f = -v / d
            rr = rows[r]
            del rr[p]
            _add_scaled(rr, row, f)
            _add_scaled(t[r], tp, f)
            if not rr:
                del rows[r]
    return n_pos, n_neg, t


# ---------------------------------------------------------------------------
# text rendering (the CLI grammar emits and parses exactly this form)

def render_seq(seq: IntSeq) -> str:
    return ",".join(str(i) for i in seq)


def render_frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# The text after each atom's name: a flavor group with one comma pair per chain
# end ((a,b;c,d), (a,b) or none), then the index sequences in brackets.  The
# renderers fill these forms in and the CLI parser reads along them.
_ATOM_FORMS = {
    kind: ("(" + ";".join(["{},{}"] * (n // 2)) + ")" if n else "") + "[{}|{}]"
    for kind, n in _N_FLAVORS.items()
}
_ATOM_FORMS["chain"] = _ATOM_FORMS[KIND_L].replace("|{}", "")  # (left,right)[body]


def render_generator(g: Generator) -> str:
    form = _ATOM_FORMS[g.kind]
    return g.kind + form.format(*g.flavors, render_seq(g.upper), render_seq(g.lower))


def _read_number(text: str, kind=int, what="integer"):
    """kind(text) for kind int or Fraction, from ASCII text without '_' separators
    or exponent notation (1e9 builds 10**9); a zero denominator is a ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    if "e" in text.lower():
        raise ValueError(f"exponent notation in {text!r}")
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int()'s limit from 3.10.7; 0 is none
    if 0 < limit < len(text):  # a text no longer than the limit holds no longer digit run
        digits = max(map(len, re.findall("[0-9]+", text)), default=0)
        if digits > limit:
            raise NumberTooLongError(f"{what} of {digits} digits is too long")
    try:
        return kind(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:  # int()'s own text names no flag or field
        raise ValueError(f"invalid {what}: {text!r}") from None


def render_terms(pairs: list) -> str:
    """Render (text, coeff) pairs as a signed sum; '1*' is elided."""
    if not pairs:
        return "0"
    chunks = []
    for n, (text, c) in enumerate(pairs):
        mag = abs(c)
        body = text if mag == 1 else f"{render_frac(mag)}*{text}"
        if n == 0:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append((" + " if c > 0 else " - ") + body)
    return "".join(chunks)


def render_element(e: Element) -> str:
    """Canonical rendering: terms ascending in the generator ordering."""
    ordered = sorted(e.terms.items(), key=lambda kv: gen_key(kv[0]))
    return render_terms([(render_generator(g), c) for g, c in ordered])
