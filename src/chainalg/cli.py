"""Command-line surface: expression grammar, subcommands, file I/O.

Grammar (whitespace insignificant)::

    expr     := '0' | ['-'] term (('+'|'-') term)*
    term     := [rational '*'] atom
    rational := integer ['/' positive-integer]
    atom     := kind flavors '[' seq '|' seq ']' | 'chain' pair '[' seq ']'
    kind     := 'f' | 'l' | 'r' | 's'
    flavors  := '(' n ',' n ';' n ',' n ')' for f | pair for l, r | empty for s
    pair     := '(' n ',' n ')'
    seq      := empty | integer (',' integer)*

The reader works on the text at a position, one token ahead, and reads
each atom along its form in ``core._ATOM_FORMS``, which the renderers fill
in.  A sequence's integers are read with one match; only a match longer
than int()'s digit limit reads each through ``core._read_number``.
Integers are ASCII digits; any character but ASCII letters, digits,
whitespace and the grammar's symbols is a syntax error, and numbers in
flags, ``--gamma`` and weight files are ASCII as well.

Exit codes: 0 success, 1 check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import checks
from .basis import to_b0, to_b4
from .bracket import bracket, classify
from .chains import Chain, chain_sort_key, act, check_partition, render_chain
from .core import (
    _ATOM_FORMS,
    AlgebraParams,
    Combination,
    Element,
    Generator,
    IndexRangeError,
    NumberTooLongError,
    _read_number,
    check_indices,
    gen_key,
    render_element,
    render_frac,
    render_terms,
)
from .verma import gram_matrix, inertia, render_word
from .weights import read_weight, weight_from_partition, write_weight


class ExprSyntaxError(ValueError):
    def __init__(self, column: int, message: str):
        super().__init__(f"syntax error at column {column}: {message}")
        self.column = column


# the first character outside the grammar's alphabet; the next token after any
# whitespace (no group at the end of the input); the integers of a sequence
_BAD = re.compile(r"[^0-9A-Za-z()\[\]|,;*/+\-\s]", re.ASCII)
_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<sym>[()\[\]|,;*/+-]))?", re.ASCII
)
_SEQ = re.compile(r"[0-9]+(?:\s*,\s*[0-9]+)*", re.ASCII)


class Expression:
    """Parsed sum of scaled generator or chain atoms."""

    def __init__(self, params: AlgebraParams, terms: list):
        self.params = params
        self.terms = terms  # list of (Fraction, Generator | Chain)

    def as_element(self) -> Element:
        if any(isinstance(atom, Chain) for _c, atom in self.terms):
            raise ValueError("expected an algebra expression, found chain terms")
        return Combination.from_items(self.params, ((a, c) for c, a in self.terms))

    def as_chain_state(self) -> Combination:
        if any(isinstance(atom, Generator) for _c, atom in self.terms):
            raise ValueError("expected a chain expression, found generator terms")
        return Combination.from_items(self.params, ((a, c) for c, a in self.terms))


class _Reader:
    """Reads an expression from its text at a position, one token ahead."""

    def __init__(self, text: str, params: AlgebraParams):
        bad = _BAD.search(text)
        if bad:
            raise ExprSyntaxError(bad.start() + 1, f"unexpected character {bad.group()!r}")
        self.text, self.params, self.pos = text, params, 0
        self._next()

    def _next(self):
        """Take the token after pos as (kind, text, column); past the last one it is 'end'."""
        m = _TOKEN.match(self.text, self.pos)
        self.pos = m.end()
        kind = m.lastgroup
        self.tok = (kind, m[kind], m.start(kind) + 1) if kind else ("end", "", self.pos + 1)

    def _skip(self, sym: str) -> bool:
        """Take the symbol sym if it comes next."""
        if self.tok[:2] != ("sym", sym):
            return False
        self._next()
        return True

    def _expect_sym(self, sym: str):
        if not self._skip(sym):
            raise ExprSyntaxError(self.tok[2], f"expected {sym!r}")

    def _expect_int(self) -> int:
        kind, val, col = self.tok
        if kind != "int":
            raise ExprSyntaxError(col, "expected an integer")
        self._next()
        return self._number(val, col - 1)

    def _number(self, digits: str, at: int) -> int:
        """Read a digit run that starts, after any whitespace, at text offset at."""
        try:
            return _read_number(digits)
        except ValueError as err:  # only the digit limit rejects an ASCII digit run
            raise ExprSyntaxError(at + len(digits) - len(digits.lstrip()) + 1, str(err)) from None

    def parse(self) -> Expression:
        if self.text.strip() == "0":
            return Expression(self.params, [])  # the printed form of zero
        terms = [self._term(-1 if self._skip("-") else 1)]
        while self.tok[0] != "end":
            kind, val, col = self.tok
            if kind != "sym" or val not in "+-":
                raise ExprSyntaxError(col, "expected '+', '-' or end of input")
            self._next()
            terms.append(self._term(1 if val == "+" else -1))
        return Expression(self.params, terms)

    def _term(self, sign: int):
        coeff = Fraction(sign)
        if self.tok[0] == "int":
            num, den = self._expect_int(), 1
            if self._skip("/"):
                col = self.tok[2]
                den = self._expect_int()
                if den == 0:
                    raise ExprSyntaxError(col, "zero denominator")
            coeff *= Fraction(num, den)
            self._expect_sym("*")
        return (coeff, self._atom())

    def _seq(self) -> tuple:
        """Read the integers of a sequence with one match and one digit-limit test."""
        kind, _val, col = self.tok
        if kind != "int":
            return ()
        m = _SEQ.match(self.text, col - 1)
        items = m[0].split(",")
        out = map(int, items)  # ASCII digit runs: only int()'s digit limit can reject one
        if 0 < getattr(sys, "get_int_max_str_digits", int)() < len(m[0]):  # a run may exceed it
            out, at = [], m.start()
            for digits in items:
                out.append(self._number(digits, at))
                at += len(digits) + 1
        self.pos = m.end()
        self._next()
        if self._skip(","):  # the match took every integer after a comma, so this raises
            self._expect_int()
        return tuple(out)

    def _fields(self, form: str) -> list:
        """Read an atom form: a {} before its '[' is a flavor index, after it a sequence."""
        *pieces, closer = form.split("{}")
        fields = []
        for n, piece in enumerate(pieces):
            for sym in piece:
                self._expect_sym(sym)
            fields.append(self._seq() if "[" in "".join(pieces[: n + 1]) else self._expect_int())
        for sym in closer:
            self._expect_sym(sym)
        return fields

    def _atom(self):
        kind, val, col = self.tok
        if kind != "name":
            raise ExprSyntaxError(col, "expected a generator or chain atom")
        self._next()
        if val not in _ATOM_FORMS:
            raise ExprSyntaxError(col, f"unknown atom {val!r}")
        fields = self._fields(_ATOM_FORMS[val])
        if val == "chain":
            left, right, body = fields
            check_indices(self.params, body, (left, right))
            return Chain(left, body, right)
        *flavors, upper, lower = fields
        g = Generator(val, upper, lower, tuple(flavors))
        g.validate(self.params)
        return g


def parse(text: str, params: AlgebraParams) -> Expression:
    """Parse an expression; raises ExprSyntaxError or IndexRangeError."""
    return _Reader(text, params).parse()


def render_chain_state(state: Combination) -> str:
    ordered = sorted(state.terms.items(), key=lambda kv: chain_sort_key(kv[0]))
    return render_terms([(render_chain(c), v) for c, v in ordered])


# ---------------------------------------------------------------------------
# subcommands

def _parse_gamma(text: str) -> tuple:
    text = text.removeprefix("gamma=").strip()
    parts = text.split(",") if text else ()
    return check_partition(_read_number(p, what="--gamma part") for p in parts)


def _int(text: str) -> int:
    try:
        return _read_number(text)
    except NumberTooLongError as e:  # named by its digit count, not echoed
        raise argparse.ArgumentTypeError(str(e)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _non_negative_int(text: str) -> int:
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chainalg",
        description="exact computations in the open string algebra of matrix chains",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--lambda", dest="colors", type=_int, help="number of adjoint colors")
        p.add_argument(
            "--lambda-f", dest="flavors", type=_int, help="number of fundamental flavors"
        )

    p = sub.add_parser("bracket", help="Lie bracket of two expressions, canonical form")
    p.add_argument("left")
    p.add_argument("right")
    add_params(p)

    p = sub.add_parser("act", help="act an expression on a chain expression")
    p.add_argument("expr")
    p.add_argument("chain_expr")
    add_params(p)

    p = sub.add_parser("rewrite", help="rewrite an expression into a basis")
    p.add_argument("--basis", choices=("b0", "b4"), required=True)
    p.add_argument("expr")
    add_params(p)

    p = sub.add_parser("classify", help="triangular class of each generator term")
    p.add_argument("expr")
    add_params(p)

    p = sub.add_parser("weight", help="build the weight of a partition")
    p.add_argument("--gamma", required=True)
    p.add_argument("--out")
    add_params(p)

    p = sub.add_parser("gram", help="Gram matrix of module words within a size bound")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--weight", dest="weight_file")
    source.add_argument("--gamma")
    p.add_argument("--max-size", type=_non_negative_int, required=True)
    p.add_argument("--inertia", action="store_true")
    add_params(p)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=("jacobi", "identities", "independence", "oracle"),
        required=True,
    )
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--cases", type=_non_negative_int, default=50)
    p.add_argument("--max-len", type=_non_negative_int, default=4)
    add_params(p)
    return top


class _UsageError(ValueError):
    pass


def _require_params(args) -> AlgebraParams:
    if args.colors is None or args.flavors is None:
        raise _UsageError("--lambda and --lambda-f are required")
    if args.colors < 1 or args.flavors < 1:
        raise _UsageError("--lambda and --lambda-f must be positive")
    return AlgebraParams(args.colors, args.flavors)


def _open(path: str, mode: str = "r"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot open {path}: {exc.strerror}") from exc


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ExprSyntaxError, IndexRangeError, ValueError) as exc:
        print(f"chainalg: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("chainalg: input too large: Python recursion limit exceeded", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (head, less, ...) closed the stream
        return 0


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "bracket":
        params = _require_params(args)
        a = parse(args.left, params).as_element()
        b = parse(args.right, params).as_element()
        print(render_element(to_b0(bracket(a, b))))
        return 0
    if cmd == "act":
        params = _require_params(args)
        e = parse(args.expr, params).as_element()
        psi = parse(args.chain_expr, params).as_chain_state()
        print(render_chain_state(act(e, psi)))
        return 0
    if cmd == "rewrite":
        params = _require_params(args)
        e = parse(args.expr, params).as_element()
        out = to_b0(e) if args.basis == "b0" else to_b4(e)
        print(render_element(out))
        return 0
    if cmd == "classify":
        params = _require_params(args)
        e = parse(args.expr, params).as_element()
        for g in sorted(e.keys(), key=gen_key):
            print(f"{g!r}: {classify(g).value}")
        return 0
    if cmd == "weight":
        params = _require_params(args)
        w = weight_from_partition(_parse_gamma(args.gamma), params)
        text = write_weight(w)
        if args.out:
            with _open(args.out, "w") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0
    if cmd == "gram":
        if args.weight_file:
            with _open(args.weight_file) as fh:
                w = read_weight(fh.read())
            if (args.colors is not None and w.params.colors != args.colors) or (
                args.flavors is not None and w.params.flavors != args.flavors
            ):
                raise _UsageError("weight file parameters disagree with flags")
        elif args.gamma is not None:
            params = _require_params(args)
            w = weight_from_partition(_parse_gamma(args.gamma), params)
        else:
            raise _UsageError("gram needs --weight or --gamma")
        gm = gram_matrix(w, args.max_size)
        print(f"size {len(gm.words)}")
        for i, word in enumerate(gm.words):
            print(f"word {i}: {render_word(word)}")
        for i, row in enumerate(gm.entries):
            body = " ".join(render_frac(v) for v in row)
            print(f"row {i}: {body}")
        if args.inertia:
            res = inertia(gm)
            print(f"inertia: pos={res.n_pos} zero={res.n_zero} neg={res.n_neg}")
            print(f"radical dim {len(res.radical)}")
            zero, n = Fraction(0), len(gm.words)
            for i, vec in enumerate(res.radical):
                print(f"radical {i}: " + " ".join(render_frac(vec.get(j, zero)) for j in range(n)))
        return 0
    if cmd == "check":
        params = _require_params(args)
        # looked up at call time, so a rebound checks.suite_* is the one run
        suite = getattr(checks, f"suite_{args.suite}")
        ok, lines = suite(params, seed=args.seed, cases=args.cases, max_len=args.max_len)
        for line in lines:
            print(line)
        return 0 if ok else 1
    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
