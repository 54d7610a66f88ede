"""Expression grammar: precedence, rationals, and the format round-trip."""

import random
from fractions import Fraction

import pytest

from rct.parse import (
    MAX_POWER_BITS,
    MAX_POWER_DEGREE,
    MAX_POWER_TERMS,
    PolyParseError,
    parse_poly,
    parse_rational,
)
from rct.poly import SparsePoly, format_poly


def test_basic_forms():
    x0, x1, x2 = (SparsePoly.variable(v) for v in ("x0", "x1", "x2"))
    assert parse_poly("x0^2 - 3/2*x1*x2") == x0 ** 2 - Fraction(3, 2) * x1 * x2
    x, a1, a2 = (SparsePoly.variable(v) for v in ("x", "a1", "a2"))
    assert parse_poly("x^2+a1*x+a2") == x ** 2 + a1 * x + a2
    assert parse_poly("(x-1)*(x+1)") == x ** 2 - 1


def test_precedence():
    x = SparsePoly.variable("x")
    assert parse_poly("2*x^3") == 2 * x ** 3
    assert parse_poly("-x^2") == -(x ** 2)
    assert parse_poly("2+3*4") == SparsePoly.constant(14)
    assert parse_poly("(2+3)*4") == SparsePoly.constant(20)
    assert parse_poly("2*(x+1)^2") == 2 * x ** 2 + 4 * x + 2


def test_rational_coefficients():
    assert parse_poly("1/2") == SparsePoly.constant(Fraction(1, 2))
    x = SparsePoly.variable("x")
    assert parse_poly("3/4*x - 5") == Fraction(3, 4) * x - 5
    # division is part of the rational literal, not an operator
    with pytest.raises(PolyParseError):
        parse_poly("x/2")
    assert parse_poly("x^6/2") == x ** 3
    # integer literals compute as ints, and the terms built are Fractions
    f = parse_poly("(2*x + 3)^5 - 7/3*x")
    assert f == (2 * x + 3) ** 5 - Fraction(7, 3) * x
    assert all(type(c) is Fraction for c in f.terms.values())


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(" 7 ") == Fraction(7)
    with pytest.raises((PolyParseError, ValueError)):
        parse_rational("x")


def test_syntax_error_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x^2 + * 3")
    assert "position" in str(err.value)
    with pytest.raises(PolyParseError):
        parse_poly("(x+1")
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError, match="zero denominator"):
        parse_poly("x + 3/0")


def _random_poly(rng, variables):
    terms = {}
    for _ in range(rng.randint(1, 7)):
        e = tuple(rng.randint(0, 5) for _ in variables)
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        if c:
            terms[e] = c
    return SparsePoly(variables, terms)


def test_format_parse_roundtrip_1000():
    # identity on canonical forms, per the determinism contract
    rng = random.Random(2024)
    pools = [("x",), ("x0", "x1"), ("x1", "x2", "x3"), ("a1", "a2", "a3")]
    for i in range(1000):
        p = _random_poly(rng, pools[i % len(pools)])
        text = format_poly(p)
        assert parse_poly(text) == p, text


def test_declare_on_first_use():
    p = parse_poly("alpha1*beta2")
    assert set(p.vars) == {"alpha1", "beta2"}


def test_power_caps_admit_boundary_and_refuse_past_it():
    x = SparsePoly.variable("x")
    assert parse_poly(f"x^{MAX_POWER_DEGREE}") == x ** MAX_POWER_DEGREE
    assert parse_poly(f"2^{MAX_POWER_BITS // 2}") == \
        SparsePoly.constant(2 ** (MAX_POWER_BITS // 2))
    assert len(parse_poly("(x + y + z + 1)^20").terms) == 1771 <= MAX_POWER_TERMS
    for text in (f"x^{MAX_POWER_DEGREE + 1}", "(x + 1)^100000",
                 f"((x + 1)^{MAX_POWER_DEGREE // 2})^3",
                 f"2^{MAX_POWER_BITS // 2 + 1}", "3^1000000000",
                 "(x + y + z + 1)^25"):  # 3276 terms
        with pytest.raises(PolyParseError, match="cap"):
            parse_poly(text)
    # exponents 0 and 1 and a zero base pass whatever their size
    text = "(x + y + z + w + 1)^1 * (x - x)^100000 + (x + 1)^0"
    assert parse_poly(text) == SparsePoly.constant(1)


def test_product_caps_admit_boundary_and_refuse_past_it():
    x = SparsePoly.variable("x")
    half = MAX_POWER_DEGREE // 2
    assert parse_poly(f"x^{half} * x^{half}") == x ** MAX_POWER_DEGREE
    assert parse_poly("*".join(["x"] * MAX_POWER_DEGREE)) == x ** MAX_POWER_DEGREE
    # 2^11 terms from eleven binomials in distinct variables
    binomials = [f"(x{i} + y{i})" for i in range(12)]
    assert len(parse_poly("*".join(binomials[:11])).terms) == MAX_POWER_TERMS
    # the exponent box, not 65 * 65, bounds the count of this product
    assert len(parse_poly("(x + 1)^64 * (x + 1)^64").terms) == 129
    for text in (f"x^{half} * x^{half + 1}",
                 "*".join(["x"] * (MAX_POWER_DEGREE + 1)),
                 "*".join(binomials),                    # 4096 terms
                 "*".join(["(x+1)^256"] * 4),
                 f"2 * (x^{half} * y) * x^{half}"):
        with pytest.raises(PolyParseError, match="cap"):
            parse_poly(text)
    with pytest.raises(PolyParseError) as err:
        parse_poly("x^300*x^300")
    assert err.value.pos == 5  # at the '*'
    # a zero factor passes whatever the other factors' size
    text = f"(x - x) * x^{MAX_POWER_DEGREE} * x^{MAX_POWER_DEGREE}"
    assert parse_poly(text) == SparsePoly.zero()


def _chain_sum(signed_terms):
    """Left-to-right SparsePoly sums of separately parsed terms."""
    (sign, text), *rest = signed_terms
    p = -parse_poly(text) if sign == "-" else parse_poly(text)
    for sign, text in rest:
        q = parse_poly(text)
        p = p + q if sign == "+" else p - q
    return p


def test_sum_matches_left_to_right_chain():
    rng = random.Random(2025)
    cases = []
    for _ in range(200):
        # roots-shaped: descending powers of x with integer coefficients
        deg = rng.randint(1, 24)
        terms = [("+", f"{rng.randint(1, 99)}*x^{k}" if k else
                  str(rng.randint(1, 99)))
                 for k in range(deg, -1, -1) if rng.random() < 0.7]
        cases.append([(rng.choice("+-"), t) for _, t in terms] or [("+", "x")])
    pool = ["x", "y", "7", "1/2", "x*y", "y*x", "3*x^2", "(x + 1)^2", "x0*x1",
            "(y - x)", "0", "(x - x)"]
    for _ in range(300):
        # cancelling terms and constants mixed with variables
        terms = [(rng.choice("+-"), rng.choice(pool))
                 for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            terms += [("-" if s == "+" else "+", t) for s, t in terms]
        cases.append(terms)
    for terms in cases:
        text = " ".join(f"{s} {t}" for s, t in terms).lstrip("+ ")
        got = parse_poly(text)
        want = _chain_sum(terms)
        assert got.vars == want.vars, text
        assert list(got.terms.items()) == list(want.terms.items()), text


def _random_expr(rng, names, depth=0):
    """(text, SparsePoly) for a random expression, the polynomial built
    with SparsePoly's own operators along the same tree."""
    r = rng.random()
    if depth >= 3 or r < 0.3:
        if rng.random() < 0.5:
            v = rng.choice(names)
            return v, SparsePoly.variable(v)
        c = Fraction(rng.randint(0, 9), rng.randint(1, 4))
        return str(c), SparsePoly.constant(c)
    a_text, a = _random_expr(rng, names, depth + 1)
    if r < 0.4:
        return f"-{a_text}", -a
    if r < 0.45:
        return f"({a_text} - {a_text})", a - a  # a zero, with a's variables
    if r < 0.55:
        n = rng.randint(0, 3)
        return f"({a_text})^{n}", a ** n
    b_text, b = _random_expr(rng, names, depth + 1)
    if r < 0.75:
        return f"{a_text}*{b_text}", a * b
    if rng.random() < 0.5:
        return f"({a_text} + {b_text})", a + b
    return f"({a_text} - {b_text})", a - b


def test_parse_matches_sparse_poly_operators():
    # one term dict per subexpression, over the text's sorted variables,
    # gives what the chain of SparsePoly operations gives
    rng = random.Random(19)
    zeros = 0
    for _ in range(2000):
        names = rng.sample(["x", "y", "z1", "a_2"], rng.randint(1, 3))
        text, want = _random_expr(rng, names)
        got = parse_poly(text)
        assert got.vars == want.vars, text
        assert got.terms == want.terms, text
        zeros += got.is_zero()
    assert zeros > 100


@pytest.mark.parametrize("text,pos,message", [
    ("x^513", 2, "power of degree 513 exceeds the cap 512"),
    ("((x + 1)^256)^3", 14, "power of degree 768 exceeds the cap 512"),
    ("2^8193", 2, "power needs 16386-bit coefficients, over the cap 16384"),
    ("3^1000000000", 2, "power needs 2000000000-bit coefficients, over the cap 16384"),
    ("(x + y + z + 1)^25", 16, "power may expand to 3276 terms, over the cap 2048"),
    ("x^256 * x^257", 5, "product of degree 513 exceeds the cap 512"),
    ("(x+1)^256*(x+1)^256*(x+1)", 19, "product of degree 513 exceeds the cap 512"),
    ("*".join(f"(x{i} + y{i})" for i in range(12)), 111,
     "product may expand to 4096 terms, over the cap 2048"),
    ("(" * 101 + "x" + ")" * 101, 100, "nesting deeper than 100"),
    ("-" * 102 + "x", 101, "nesting deeper than 100"),
    ("x^-2", 2, "exponent must be a non-negative integer"),
    ("x^(1/2)", 2, "exponent must be a non-negative integer"),
    ("x^1/2", 2, "exponent must be a non-negative integer"),
    ("x^y", 2, "exponent must be a non-negative integer"),
    ("x^1.5", 3, "unexpected character '.'"),
    ("(x^2 + 1)^2^2", 11, "trailing input '^'"),
    ("x^2 -", 5, "expected a rational, variable, or parenthesis"),
])
def test_hostile_text_message_and_position(text, pos, message):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} (at position {pos})"
