"""Text grammar for polynomials.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := RATIONAL | VAR | '(' expr ')' | '-' factor

VAR is [A-Za-z_][A-Za-z0-9_]*.  RATIONAL is an integer literal with an
optional /denominator, e.g. 7 or -3/2 (the sign comes from the grammar,
the slash from the token).  Multiplication is always explicit.
Text of more than MAX_INPUT_CHARS characters raises PolyParseError, and
so does an integer literal of more than MAX_LITERAL_DIGITS digits,
nesting of parentheses and unary minus signs past MAX_DEPTH, a power
whose expansion would pass MAX_POWER_DEGREE, MAX_POWER_TERMS or
MAX_POWER_BITS, and a product whose expansion would pass MAX_POWER_DEGREE
or MAX_POWER_TERMS; each is refused before anything is expanded or multiplied.

The parser carries every subexpression as a term dict over the sorted
names of the text's variables, multiplies and raises to powers with the
term-dict helpers SparsePoly's own `*` and `**` use, and builds one
SparsePoly per text, at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, prod

from .poly import NEG_INF, SparsePoly, _mul_terms, _pow_terms

MAX_INPUT_CHARS = 65536
"""Longest polynomial, JSON or coefficient-list text read from outside.  The
largest corpus, test and benchmark input has 6001 characters; at the cap a
sum or square of x's parses in under a second on a 2-core host."""

MAX_DEPTH = 100
"""Deepest nesting of parentheses and unary minus signs that parses.  Each
level costs a few Python stack frames, so the cap keeps hostile input far
from the interpreter's recursion limit."""

MAX_POWER_DEGREE = 512
"""Largest total degree a power p^n or a product p * q may reach: twice
the Sturm degree cap.  Expanding (x + 1)^512 takes about half a second."""

MAX_POWER_TERMS = 2048
"""Largest term count a power or a product may reach.  For p^n it is
bounded by the smaller of the number of products of n of p's terms and
the box of exponents up to n times p's degree in each variable; for
p * q, by the smaller of the product of the term counts and the box of
exponents up to the sum of the two degrees in each variable."""

MAX_POWER_BITS = 16384
"""Largest n * b for a power p^n whose coefficients have numerators and
denominators of at most b bits (the size of c^n for a single term)."""

MAX_LITERAL_DIGITS = 4300
"""Most digits in one integer literal, of polynomial text or of a JSON
argument: Python's default limit on converting a decimal string to an
int.  A rational or decimal argument ("p/q", "1.5e-7") is refused, from
its text, when its numerator or denominator would have more digits; so
10^-4299 is the smallest power of ten a precision may take.  The same
limit holds for an int written as a string, so an output number past it
ends `rct` with exit 2 and one line naming this cap (`cli._message`)."""


def _brief(value) -> str:
    """repr(value) for an error message, cut to its first 40 characters
    and an ellipsis when longer, so a long input is not echoed whole."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "…"


def _literal_int(digits: str) -> int:
    """int(digits) for a decimal literal with an optional minus sign, or
    ValueError when it has more than MAX_LITERAL_DIGITS digits."""
    if len(digits.lstrip("-")) > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer literal {_brief(digits)} has more than "
                         f"{MAX_LITERAL_DIGITS} digits")
    return int(digits)


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<rat>(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)"
    r"|(?P<var>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "rat":
            num, den = m["num"], m["den"]
            try:
                num, den = _literal_int(num), den and _literal_int(den)
            except ValueError as exc:
                raise PolyParseError(str(exc), m.start()) from None
            if den == 0:
                raise PolyParseError("zero denominator", m.start())
            # an integer literal stays an int; only p/q makes a Fraction
            tokens.append(("rat", Fraction(num, den) if den else num, m.start()))
        else:
            tokens.append((kind, m[kind], m.start()))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _degree(t: dict):
    """Total degree of a term dict; NEG_INF when it is empty."""
    return max(map(sum, t), default=NEG_INF)


def _var_degrees(t: dict) -> list:
    """Degree in each variable of a non-empty term dict."""
    return [max(col) for col in zip(*t)]


def _check_power(p: dict, n: int, pos: int):
    """Refuse p^n before expanding it if the result passes a MAX_POWER_* cap."""
    if n < 2 or not p:
        return
    degree = n * _degree(p)
    if degree > MAX_POWER_DEGREE:
        raise PolyParseError(f"power of degree {degree} exceeds the cap "
                             f"{MAX_POWER_DEGREE}", pos)
    bits = n * max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for c in p.values())
    if bits > MAX_POWER_BITS:
        raise PolyParseError(f"power needs {bits}-bit coefficients, over the "
                             f"cap {MAX_POWER_BITS}", pos)
    t = len(p)
    if t == 1:  # a power of one term is one term
        return
    box = prod(n * k + 1 for k in _var_degrees(p))
    terms = min(comb(t + n - 1, t - 1), box)
    if terms > MAX_POWER_TERMS:
        raise PolyParseError(f"power may expand to {terms} terms, over the "
                             f"cap {MAX_POWER_TERMS}", pos)


def _check_product(p: dict, p_degree, q: dict, pos: int):
    """Refuse p * q before multiplying if the product passes
    MAX_POWER_DEGREE or MAX_POWER_TERMS; return the product's degree.

    The degree of a product is the sum of the factors' degrees, so the
    caller carries p's along a chain of factors and only q's terms are
    read.  The exponent box is read only when the product of the term
    counts passes the cap.  A zero factor has degree -inf and passes.
    """
    degree = p_degree + _degree(q)
    if degree > MAX_POWER_DEGREE:
        raise PolyParseError(f"product of degree {degree} exceeds the cap "
                             f"{MAX_POWER_DEGREE}", pos)
    terms = len(p) * len(q)
    if terms > MAX_POWER_TERMS:
        box = prod(a + b + 1 for a, b in zip(_var_degrees(p), _var_degrees(q)))
        terms = min(terms, box)
        if terms > MAX_POWER_TERMS:
            raise PolyParseError(f"product may expand to {terms} terms, over "
                                 f"the cap {MAX_POWER_TERMS}", pos)
    return degree


class _Parser:
    """Recursive descent over the tokens.  Every subexpression is a
    {exponent tuple: coefficient} dict over `vars`, the sorted names of
    the text's variables, which is the variable tuple the left-to-right
    chain of SparsePoly sums and products would end with; `parse` wraps
    the result in the one SparsePoly built per text.  A coefficient is an
    int until a p/q literal makes it a Fraction, so a text of integer
    coefficients multiplies ints throughout and meets Fraction only when
    SparsePoly coerces its terms."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.vars = tuple(sorted({val for kind, val, _ in self.tokens
                                  if kind == "var"}))
        self.units = {v: tuple(int(u == v) for u in self.vars)
                      for v in self.vars}
        self.origin = (0,) * len(self.vars)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", pos)

    def parse(self) -> SparsePoly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"trailing input {_brief(val)}", pos)
        return SparsePoly(self.vars, p)

    def expr(self) -> dict:
        """A signed sum of terms, added up in one dict."""
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        acc: dict = {}
        while True:
            for e, c in self.term().items():
                if sign < 0:
                    c = -c
                s = acc.get(e)
                if s is not None:
                    c += s
                if c:
                    acc[e] = c
                else:
                    del acc[e]
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return acc
            self.take()
            sign = 1 if val == "+" else -1

    def term(self) -> dict:
        p = self.factor()
        degree = _degree(p)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                q = self.factor()
                degree = _check_product(p, degree, q, pos)
                p = _mul_terms(p, q)
            else:
                return p

    def factor(self) -> dict:
        p = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "rat" or val.denominator != 1 or val < 0:
                raise PolyParseError("exponent must be a non-negative integer", pos)
            _check_power(p, int(val), pos)
            p = _pow_terms(p, int(val), len(self.vars))
        return p

    def atom(self) -> dict:
        kind, val, pos = self.take()
        if kind == "rat":
            return {self.origin: val} if val else {}
        if kind == "var":
            return {self.units[val]: 1}
        if kind == "op" and val in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise PolyParseError(f"nesting deeper than {MAX_DEPTH}", pos)
            if val == "(":
                p = self.expr()
                self.expect_op(")")
            else:
                p = {e: -c for e, c in self.factor().items()}
            self.depth -= 1
            return p
        raise PolyParseError("expected a rational, variable, or parenthesis", pos)


def parse_poly(text: str) -> SparsePoly:
    """Parse the polynomial grammar into a SparsePoly (exact coefficients)."""
    return _Parser(check_length(text)).parse()


def check_length(text: str) -> str:
    """text, or PolyParseError when it passes MAX_INPUT_CHARS."""
    if len(text) > MAX_INPUT_CHARS:
        raise PolyParseError(f"text over {MAX_INPUT_CHARS} characters", MAX_INPUT_CHARS)
    return text


# the shapes Fraction(text) reads: p, p/q, and decimals with an exponent,
# digits grouped by single underscores
_DIGITS = r"\d+(?:_\d+)*"
_FRACTION_TEXT = re.compile(
    rf"\s*[-+]?(?P<num>{_DIGITS})?(?:\s*/\s*(?P<den>{_DIGITS})"
    rf"|(?:\.(?P<dec>{_DIGITS})?)?(?:[eE](?P<exp>[-+]?{_DIGITS}))?)\s*\Z")


def _check_fraction_text(text: str) -> None:
    """ValueError naming MAX_LITERAL_DIGITS when Fraction(text) would have
    a numerator or denominator of more digits, before it is built: the
    mantissa's digits plus a positive exponent, or the decimal places
    minus a negative exponent and one more for the 1 of 10^k."""
    m = _FRACTION_TEXT.match(text)
    if not m:
        return  # not a literal: Fraction refuses it
    num, den, dec, exp = (m[k].replace("_", "") if m[k] else ""
                          for k in ("num", "den", "dec", "exp"))
    if len(exp) > MAX_LITERAL_DIGITS:  # its value is past the cap too
        digits = len(exp)
    else:
        e = int(exp or 0)
        digits = max(len(num) + len(dec) + max(e, 0),
                     len(den) if den else len(dec) + max(-e, 0) + 1)
    if digits > MAX_LITERAL_DIGITS:
        raise ValueError(f"literal {_brief(text)} has a numerator or "
                         f"denominator of more than {MAX_LITERAL_DIGITS} digits")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (optionally signed) into a Fraction; a literal
    past MAX_LITERAL_DIGITS is refused before it is built."""
    _check_fraction_text(text)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {_brief(text)}") from exc


def _json_rational(value, what: str) -> Fraction:
    """A JSON number or a decimal or p/q string as a Fraction: an int as
    it is, a float or a string read from its decimal text, so 0.1 is 1/10
    and not the double nearest it.  Anything else, a bool too, raises
    ValueError naming `what`, and a text past MAX_LITERAL_DIGITS the cap."""
    if type(value) is int:
        return Fraction(value)
    if type(value) in (float, str):
        _check_fraction_text(str(value))
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a {what}: {_brief(value)}")
