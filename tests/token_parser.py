"""The token-list expression parser that cli's in-place reader replaced, kept
verbatim as the reference for the differential test in test_cli.py."""

import re
from fractions import Fraction

from chainalg.chains import Chain
from chainalg.cli import Expression, ExprSyntaxError
from chainalg.core import _ATOM_FORMS, AlgebraParams, Generator, _read_number, check_indices


_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<sym>[()\[\]|,;*/+-])|(?P<space>\s+)|(?P<bad>.)",
    re.ASCII | re.DOTALL,
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(m.start() + 1, f"unexpected character {m.group()!r}")
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group(), m.start() + 1))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, params: AlgebraParams):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect_sym(self, sym: str):
        kind, val, col = self._peek()
        if kind != "sym" or val != sym:
            raise ExprSyntaxError(col, f"expected {sym!r}")
        return self._advance()

    def _expect_int(self) -> int:
        kind, val, col = self._peek()
        if kind != "int":
            raise ExprSyntaxError(col, "expected an integer")
        self._advance()
        try:
            return _read_number(val)
        except ValueError as err:  # only the digit limit rejects an ASCII digit run
            raise ExprSyntaxError(col, str(err)) from None

    def _at_sym(self, sym: str) -> bool:
        kind, val, _ = self._peek()
        return kind == "sym" and val == sym

    def parse(self) -> Expression:
        if [tok[:2] for tok in self.tokens] == [("int", "0"), ("end", "")]:
            return Expression(self.params, [])  # the printed form of zero
        terms = []
        sign = 1
        if self._at_sym("-"):
            self._advance()
            sign = -1
        terms.append(self._term(sign))
        while True:
            kind, val, col = self._peek()
            if kind == "end":
                break
            if kind == "sym" and val in "+-":
                self._advance()
                terms.append(self._term(1 if val == "+" else -1))
            else:
                raise ExprSyntaxError(col, "expected '+', '-' or end of input")
        return Expression(self.params, terms)

    def _term(self, sign: int):
        coeff = Fraction(sign)
        kind, _val, _col = self._peek()
        if kind == "int":
            num = self._expect_int()
            den = 1
            if self._at_sym("/"):
                self._advance()
                den = self._expect_int()
                if den == 0:
                    raise ExprSyntaxError(self.tokens[self.pos - 1][2], "zero denominator")
            coeff *= Fraction(num, den)
            self._expect_sym("*")
        atom = self._atom()
        return (coeff, atom)

    def _seq(self) -> tuple:
        kind, _val, _col = self._peek()
        if kind != "int":
            return ()
        out = [self._expect_int()]
        while self._at_sym(","):
            self._advance()
            out.append(self._expect_int())
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
        kind, val, col = self._peek()
        if kind != "name":
            raise ExprSyntaxError(col, "expected a generator or chain atom")
        self._advance()
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
