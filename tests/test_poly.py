"""Sparse polynomial arithmetic and exact division."""

import random
from fractions import Fraction

import pytest

from rct.poly import (
    SparsePoly,
    divide_exact,
    format_poly,
    poly_divmod,
)


def _random_poly(rng, variables, max_terms=6, max_exp=4, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        c = Fraction(rng.randint(-max_coeff, max_coeff),
                     rng.randint(1, max_coeff))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return SparsePoly(variables, terms)


def test_constructors():
    z = SparsePoly.zero(("x",))
    assert z.is_zero() and z.degree() is not None or True
    c = SparsePoly.constant(Fraction(3, 2))
    assert c.is_constant() and c.constant_value() == Fraction(3, 2)
    x = SparsePoly.variable("x")
    assert x.degree() == 1
    m = SparsePoly.monomial(("x", "y"), (2, 1), 5)
    assert m.degree() == 3 and m.leading_coeff() == 5


def test_zero_terms_dropped():
    p = SparsePoly(("x",), {(1,): Fraction(0), (0,): Fraction(2)})
    assert p.is_constant()
    q = SparsePoly.variable("x") - SparsePoly.variable("x")
    assert q.is_zero()


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a = _random_poly(rng, ("x", "y"))
        b = _random_poly(rng, ("y", "z"))
        c = _random_poly(rng, ("x", "z"))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == SparsePoly.zero()
        assert a * 1 == a and a * 0 == SparsePoly.zero()


def test_evaluation_is_ring_hom():
    rng = random.Random(12)
    for _ in range(100):
        a = _random_poly(rng, ("x", "y"))
        b = _random_poly(rng, ("x", "y"))
        pt = {"x": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
              "y": Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


def test_substitute_matches_evaluate():
    rng = random.Random(13)
    for _ in range(50):
        a = _random_poly(rng, ("x", "y"))
        g = _random_poly(rng, ("t",), max_terms=3, max_exp=2)
        pt = {"t": Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
              "y": Fraction(rng.randint(-3, 3))}
        composed = a.substitute({"x": g})
        direct = a.evaluate({"x": g.evaluate({"t": pt["t"]}), "y": pt["y"]})
        assert composed.evaluate(pt) == direct


def _termwise_substitute(f, mapping):
    """Reference: expand every term through every value, one at a time."""
    subs = {v: g if isinstance(g, SparsePoly) else SparsePoly.constant(g)
            for v, g in mapping.items()}
    out = SparsePoly.zero()
    for e, c in f.terms.items():
        term = SparsePoly.constant(c)
        for v, k in zip(f.vars, e):
            if k:
                term = term * (subs[v] ** k if v in subs
                               else SparsePoly.monomial((v,), (k,)))
        out = out + term
    return out


def test_substitute_matches_termwise():
    rng = random.Random(14)
    names = ("a", "b", "x", "y", "z")

    def value(kind):
        if kind == "scalar":
            return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        if kind == "zero":
            return rng.choice((0, Fraction(0), SparsePoly.zero(("t",))))
        vs = tuple(rng.sample(names + ("t",), rng.randint(1, 3)))
        return _random_poly(rng, vs, max_terms=3, max_exp=2, max_coeff=4)

    cases = [
        # scalar only, polynomial only, mixed, and every variable a scalar
        (("x", "y"), {"x": Fraction(2, 3), "y": -1}),
        (("y", "x"), {"x": SparsePoly.variable("t") + 1,
                      "y": SparsePoly.variable("x")}),
        (("x", "y", "z"), {"x": 3, "z": SparsePoly.variable("t") * 2}),
        (("x", "y", "z"), {"x": 1, "y": Fraction(-1, 2), "z": 5}),
        # zero values, an unmapped variable only, and an empty mapping
        (("x", "y"), {"x": 0, "y": SparsePoly.zero(("t",))}),
        (("x", "y"), {"z": 7}),
        (("x",), {}),
    ]
    for _ in range(300):
        vs = tuple(rng.sample(names, rng.randint(0, 4)))
        mapping = {v: value(rng.choice(("scalar", "scalar", "poly", "zero")))
                   for v in rng.sample(names, rng.randint(0, len(names)))}
        cases.append((vs, mapping))
    for vs, mapping in cases:
        for f in (_random_poly(rng, vs), SparsePoly.zero(vs)):
            got, want = f.substitute(mapping), _termwise_substitute(f, mapping)
            assert got.vars == want.vars, (f, mapping)
            assert got.terms == want.terms, (f, mapping)
    # terms that cancel once the scalars are folded in keep their variables
    f = SparsePoly(("w", "x", "y"), {(1, 1, 0): 1, (1, 0, 1): -1})
    got = f.substitute({"x": 2, "y": 2})
    assert got.is_zero() and got.vars == ("w",)
    assert got.vars == _termwise_substitute(f, {"x": 2, "y": 2}).vars
    every = _random_poly(rng, ("x", "y"))
    const = every.substitute({"x": Fraction(1, 2), "y": 3})
    assert const.vars == () and const.is_constant()
    assert const.constant_value() == every.evaluate({"x": Fraction(1, 2), "y": 3})


def test_degree_and_homogeneous():
    p = SparsePoly.monomial(("x", "y"), (2, 1)) + SparsePoly.monomial(("x", "y"), (0, 3))
    assert p.degree() == 3 and p.is_homogeneous()
    q = p + SparsePoly.variable("x")
    assert not q.is_homogeneous()
    assert SparsePoly.zero().is_homogeneous()


def test_leading_term_grlex():
    # graded order first, then lexicographic within a degree
    p = SparsePoly(("x", "y"), {(2, 0): Fraction(1), (1, 1): Fraction(5)})
    e, c = p.leading_term()
    assert e == (2, 0) and c == 1


def test_dense_roundtrip():
    p = SparsePoly.from_dense("x", [Fraction(1), Fraction(0), Fraction(-2)])
    assert p.dense_coeffs("x") == [Fraction(1), Fraction(0), Fraction(-2)]
    assert p.degree() == 2


def test_coeffs_in():
    p = (SparsePoly.variable("x") ** 2 * SparsePoly.variable("y")
         + SparsePoly.variable("y") ** 3)
    by_x = p.coeffs_in("x")
    assert sorted(by_x) == [0, 2]
    assert by_x[2] == SparsePoly.variable("y")


def _pow_by_squaring(p, n):
    # the general path of SparsePoly.__pow__
    result, base = SparsePoly.constant(1, p.vars), p
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def test_monomial_power_matches_squaring():
    rng = random.Random(15)
    bases = [SparsePoly.variable("x"), SparsePoly.constant(Fraction(-2, 3)),
             SparsePoly.constant(Fraction(5), ("x", "y")),
             SparsePoly.monomial(("a", "b", "c"), (0, 3, 1), Fraction(-7, 4))]
    for _ in range(20):
        e = tuple(rng.randint(0, 3) for _ in range(3))
        c = Fraction(rng.choice([-5, -1, 1, 2, 9]), rng.randint(1, 6))
        bases.append(SparsePoly.monomial(("x", "y", "z"), e, c))
    for p in bases:
        assert len(p.terms) == 1
        for n in (0, 1, 2, 3, 7, 12):
            got, want = p ** n, _pow_by_squaring(p, n)
            assert got.vars == want.vars and got.terms == want.terms, (p, n)


def test_derivative():
    x = SparsePoly.variable("x")
    p = x ** 3 - 2 * x
    assert p.derivative("x") == 3 * x ** 2 - 2
    rng = random.Random(14)
    for _ in range(50):
        a = _random_poly(rng, ("x", "y"))
        b = _random_poly(rng, ("x", "y"))
        lhs = (a * b).derivative("x")
        rhs = a.derivative("x") * b + a * b.derivative("x")
        assert lhs == rhs


def test_json_roundtrip():
    rng = random.Random(15)
    for _ in range(50):
        p = _random_poly(rng, ("x0", "x1", "a2"))
        assert SparsePoly.from_json_dict(p.to_json_dict()) == p


def test_json_coefficients_are_read_from_their_decimal_text():
    def poly(coeff):
        return SparsePoly.from_json_dict(
            {"vars": ["x"], "terms": [{"coeff": coeff, "exp": [1]}]})

    # a float is its decimal text, not the double nearest it; an int, even
    # one past the digit cap of a string round trip, is taken as it is
    assert poly(-0.1) == poly("-1/10")
    assert poly(-0.1).terms == {(1,): Fraction(-1, 10)}
    assert poly(2.5e-3) == poly("1/400")
    big = 10 ** 5000
    assert poly(big).terms == {(1,): big}
    for bad in (True, False, None, [1], "x", "1/0", float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not a rational coefficient"):
            poly(bad)


def test_divide_exact():
    rng = random.Random(16)
    for _ in range(100):
        a = _random_poly(rng, ("x", "y"), max_terms=4)
        b = _random_poly(rng, ("x", "y"), max_terms=4)
        if b.is_zero():
            continue
        q = divide_exact(a * b, b)
        assert q == a
    x = SparsePoly.variable("x")
    assert divide_exact(x ** 2 - 1, x - 1) == x + 1
    assert divide_exact(x ** 2 + 1, x - 1) is None


def test_poly_divmod():
    rng = random.Random(17)
    x = SparsePoly.variable("x")
    for _ in range(100):
        f = _random_poly(rng, ("x",), max_terms=5, max_exp=6)
        g = _random_poly(rng, ("x",), max_terms=3, max_exp=3)
        if g.is_zero():
            continue
        q, r = poly_divmod(f, g, "x")
        assert f == q * g + r
        assert r.is_zero() or r.degree_in("x") < g.degree_in("x")
    q, r = poly_divmod(x ** 2 - 1, x - 1, "x")
    assert q == x + 1 and r.is_zero()


def test_format_poly_stable():
    p = SparsePoly(("x", "y"), {(2, 0): Fraction(1), (0, 1): Fraction(-3, 2)})
    assert format_poly(p) == "x^2 - 3/2*y"
    assert format_poly(SparsePoly.zero()) == "0"


def test_pow():
    x = SparsePoly.variable("x")
    assert (x + 1) ** 0 == SparsePoly.constant(1)
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    with pytest.raises(ValueError):
        (x + 1) ** -1
