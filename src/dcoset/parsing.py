"""Text format for polynomials and points.

Grammar (no implicit multiplication, whitespace ignored):

    poly   := sign? term (sign term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' nat)?
    coeff  := int ('/' nat)?
    var    := letter (letter | digit | '_')*
    sign   := '+' | '-'
    point  := sign? coeff (',' sign? coeff)*

Examples: ``x1*x4 + x2*x3``, ``3/2*a^2 - 1``, ``-d*w``.  Exponents must
be nonnegative: ``x^-1`` is rejected with a dedicated message, and so is a
term whose exponent in some variable exceeds :data:`MAX_EXPONENT`, such as
``x^256`` or ``x^200*x^56``, or whose total degree does, such as
``x^255*y``, before the term is built.  Errors carry 1-based positions.
The printer in :mod:`.polyring` emits text this parser accepts, so
reports round-trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .polyring import Polynomial, RingCtx

__all__ = ["ParseError", "parse_poly", "parse_polys", "parse_point"]


# Exact arithmetic slows quickly with the degree: on a 2-core CPython 3.11
# machine a one-variable radical-membership test takes 2.4 s with x^200 and
# 15 s with x^400, while the scenarios and documented examples stay at x^10
# or below.  The cap holds for each variable and for the term's degree.
MAX_EXPONENT = 255

# CPython's default limit on converting a decimal string to int; a longer
# literal is refused here, with its position, before int() refuses it
MAX_DIGITS = 4300


class ParseError(ValueError):
    """Input text does not match the polynomial grammar."""


_OPS = set("+-*/^")


def _tokenize(text: str):
    # tokens: (kind, value, 1-based position)
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(("int", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i + 1))
            i = j
            continue
        if ch in _OPS:
            out.append((ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"syntax error at position {i + 1}: unexpected character {ch!r}")
    out.append(("end", "", n + 1))
    return out


class _Parser:
    def __init__(self, text: str, ring: RingCtx):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        kind, value, pos = self.peek()
        what = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"syntax error at position {pos}: {message}, found {what}")

    def parse(self) -> Polynomial:
        result = self.ring.zero()
        sign = 1
        kind, _, _ = self.peek()
        if kind in ("+", "-"):
            sign = -1 if kind == "-" else 1
            self.advance()
        result = result + self.term() * sign
        while True:
            kind, _, _ = self.peek()
            if kind == "end":
                return result
            if kind not in ("+", "-"):
                self.fail("expected '+' or '-'")
            sign = -1 if kind == "-" else 1
            self.advance()
            result = result + self.term() * sign

    def term(self) -> Polynomial:
        kind, _, _ = self.peek()
        exps = [0] * self.ring.arity
        coeff = 1
        if kind == "int":
            coeff = self.coeff()
        elif kind == "name":
            self.factor(exps)
        else:
            self.fail("expected a coefficient or a variable")
        while self.peek()[0] == "*":
            self.advance()
            self.factor(exps)
        return self.ring.monomial(exps, coeff)

    def coeff(self) -> Fraction:
        kind, value, pos = self.peek()
        if kind != "int":
            self.fail("expected an integer")
        self.advance()
        num = _integer(value, pos)
        if self.peek()[0] == "/":
            self.advance()
            kind, dvalue, dpos = self.peek()
            if kind != "int":
                self.fail("expected a positive integer denominator")
            den = _integer(dvalue, dpos)
            if den == 0:
                raise ParseError(f"syntax error at position {dpos}: zero denominator")
            self.advance()
            return Fraction(num, den)
        return Fraction(num)

    def factor(self, exps: list) -> None:
        """Multiply the term's exponent vector by one `var ('^' nat)?`."""
        kind, name, pos = self.peek()
        if kind != "name":
            self.fail("expected a variable")
        if not self.ring.has_var(name):
            raise ParseError(
                f"unknown variable {name!r} at position {pos}; "
                f"ring variables are {', '.join(self.ring.vars)}"
            )
        self.advance()
        power = 1
        if self.peek()[0] == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind == "-":
                raise ParseError(f"negative exponent at position {pos}")
            if kind != "int":
                self.fail("expected a nonnegative integer exponent")
            self.advance()
            digits = value.lstrip("0") or "0"
            # longer than the cap's own digits: over the cap, however long
            if len(digits) > len(str(MAX_EXPONENT)):
                raise ParseError(
                    f"exponent {digits} at position {pos} exceeds the limit of {MAX_EXPONENT}"
                )
            power = int(digits)
        # the cap is on the term's exponent, so x^200*x^56 fails like x^256,
        # and on its degree, so x^255*y^255 fails too
        i = self.ring.index(name)
        exps[i] += power
        for what, value in (("exponent", exps[i]), ("term degree", sum(exps))):
            if value > MAX_EXPONENT:
                raise ParseError(
                    f"{what} {value} at position {pos} exceeds the limit of {MAX_EXPONENT}"
                )


def _integer(value: str, pos: int) -> int:
    """The value of a coefficient or denominator token."""
    digits = value.lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        raise ParseError(
            f"integer with {len(digits)} digits at position {pos} "
            f"exceeds the limit of {MAX_DIGITS} digits"
        )
    return int(digits)


def parse_poly(text: str, ring: RingCtx) -> Polynomial:
    """Parse one polynomial in the variables of ``ring``."""
    return _Parser(text, ring).parse()


def parse_polys(text: str, ring: RingCtx) -> tuple:
    """Parse a comma-separated polynomial list (the grammar has no commas,
    so splitting is unambiguous)."""
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise ParseError("expected at least one polynomial")
    return tuple(parse_poly(part, ring) for part in parts)


# one coordinate of a point, stripped: sign? coeff, in ASCII digits
_COORDINATE = re.compile(r"([+-]?)\s*([0-9]+)(?:\s*/\s*([0-9]+))?")


def parse_point(text: str, arity: int) -> tuple:
    """Parse comma-separated rational coordinates like ``0,3/2,-1``."""
    parts = text.split(",")
    if len(parts) != arity:
        raise ParseError(f"expected {arity} coordinates, got {len(parts)}")
    coords = []
    end = 0  # characters of text before the part
    for part in parts:
        body = part.strip()
        start = end + len(part) - len(part.lstrip()) + 1  # body's position
        end += len(part) + 1
        m = _COORDINATE.fullmatch(body)
        if m is None:
            raise ParseError(
                f"bad coordinate {body!r} at position {start}: "
                "expected an integer or a fraction such as -3/2"
            )
        value = Fraction(_integer(m[2], start + m.start(2)))
        if m[3] is not None:
            den = _integer(m[3], start + m.start(3))
            if den == 0:
                raise ParseError(f"syntax error at position {start + m.start(3)}: zero denominator")
            value /= den
        coords.append(-value if m[1] == "-" else value)
    return tuple(coords)
