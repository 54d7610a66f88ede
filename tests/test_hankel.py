"""The packed-polynomial kernel and the Hankel elimination of rct.hankel."""

import random
from fractions import Fraction
from math import prod

import pytest

from rct import hankel
from rct.critical import _BITS
from rct.divisors import Divisor, _integer_coefficients, paper_family
from rct.hankel import divexact as _wp_divexact
from rct.hankel import mul as _wp_mul
from rct.parse import parse_poly
from rct.poly import SparsePoly


# ---- packed-exponent kernel ----


def _rand_wp(rng, nvars, nterms, max_exp=6, max_coeff=50, bits=_BITS):
    out = {}
    for _ in range(nterms):
        key = 0
        for i in range(nvars):
            key |= rng.randint(0, max_exp) << (bits * i)
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def _dict_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def test_wp_mul_small():
    rng = random.Random(51)
    for _ in range(40):
        a = _rand_wp(rng, 3, rng.randint(1, 10))
        b = _rand_wp(rng, 3, rng.randint(1, 10))
        assert _wp_mul(a, b) == _dict_mul(a, b)


def test_wp_mul_identity_and_zero():
    rng = random.Random(53)
    a = _rand_wp(rng, 3, 8)
    assert _wp_mul(a, {0: 1}) == a
    assert _wp_mul(a, {}) == {}


def _divexact_roundtrips(seed, max_exp, bits):
    rng = random.Random(seed)
    for _ in range(30):
        a = _rand_wp(rng, 3, rng.randint(1, 12), max_exp=max_exp, bits=bits)
        b = _rand_wp(rng, 3, rng.randint(1, 8), max_exp=max_exp, bits=bits)
        if not a or not b:
            continue
        prod = _wp_mul(a, b)
        assert _wp_divexact(prod, b, 3, bits) == a


def test_wp_divexact_roundtrip():
    _divexact_roundtrips(54, 5, _BITS)


def test_wp_divexact_wide_keys():
    # the key width is a parameter: at 11 bits a product exponent reaches 1000
    _divexact_roundtrips(56, 500, 11)


def test_wp_divexact_rejects_inexact():
    x_sq_plus_1 = {2: 1, 0: 1}
    x_minus_1 = {1: 1, 0: -1}
    with pytest.raises(ArithmeticError):
        _wp_divexact(x_sq_plus_1, x_minus_1, 1, _BITS)


def test_wp_divexact_large_roundtrip():
    rng = random.Random(55)
    a = _rand_wp(rng, 4, 300, max_exp=5, max_coeff=10 ** 6)
    b = _rand_wp(rng, 4, 40, max_exp=5, max_coeff=10 ** 6)
    prod = _wp_mul(a, b)
    assert _wp_divexact(prod, b, 4, _BITS) == a


# ---- leading minors past the symbolic chain's d <= 8 ----


def _hankel_leading_minors(coeffs):
    """Leading principal minors 1..d of (s_{r+c}), s_k the Newton sums of
    x^d + coeffs[0] x^(d-1) + ... + coeffs[d-1], by Fraction elimination."""
    d = len(coeffs)
    a = [Fraction(1)] + [Fraction(c) for c in coeffs]
    s = [Fraction(d)]
    for k in range(1, 2 * d - 1):
        t = -k * a[k] if k <= d else Fraction(0)
        s.append(t - sum(a[i] * s[k - i] for i in range(1, min(k, d + 1))))
    out = []
    for j in range(1, d + 1):
        m = [[s[r + c] for c in range(j)] for r in range(j)]
        det = Fraction(1)
        for k in range(j):
            piv = next((r for r in range(k, j) if m[r][k]), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det
            det *= m[k][k]
            for r in range(k + 1, j):
                f = m[r][k] / m[k][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
        out.append(det)
    return out


def _dense_form(rng, n, d):
    """x0^d plus every other monomial of degree d in x0..xn, small integers."""
    exps = [()]
    for _ in range(n):
        exps = [e + (k,) for e in exps for k in range(d + 1 - sum(e))]
    terms = {(d - sum(e),) + e: rng.randint(-3, 3) for e in exps}
    terms[(d,) + (0,) * n] = 1
    return SparsePoly(tuple(f"x{i}" for i in range(n + 1)), terms)


_CASES = {
    "dense-9": lambda rng: Divisor(_dense_form(rng, 2, 9)),
    "x0^10 - x1^10": lambda rng: Divisor(parse_poly("x0^10 - x1^10")),
    "family-10": lambda rng: paper_family(2, 5)[0],
    "family-11": lambda rng: paper_family(2, 5)[1],
    "x0^12 - x1^12": lambda rng: Divisor(parse_poly("x0^12 - x1^12")),
    "dense-12": lambda rng: Divisor(_dense_form(rng, 2, 12)),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_leading_minors_match_newton_hankel(monkeypatch, case):
    # H_j(v) is the j-th leading principal minor of the Newton-sum Hankel
    # matrix of the fiber x^d + p_1(v) x^(d-1) + ... + p_d(v); at x0^d -
    # x1^d the pivot D_{2,0}(p) vanishes identically, so the elimination
    # runs a second time with the eps variable
    rng = random.Random(sum(map(ord, case)))
    D = _CASES[case](rng)
    _, ps = _integer_coefficients(D)
    names = D.f.vars[1:]
    calls = []
    minors = hankel.minors
    monkeypatch.setattr(hankel, "minors",
                        lambda a, nvars, bits: calls.append(nvars)
                        or minors(a, nvars, bits))
    hs = hankel.leading_minors(ps, names)
    assert len(hs) == D.d - 1 and D.d >= 9
    assert calls == ([D.n, D.n + 1] if case.startswith("x0^") else [D.n])
    for _ in range(3):
        v = [rng.choice([-1, 1]) * rng.randint(1, 5) for _ in names]
        fiber = [sum(c * prod(x ** e for x, e in zip(v, exps))
                     for exps, c in p.items()) for p in ps]
        point = dict(zip(names, v))
        ref = _hankel_leading_minors(fiber)
        assert ref[0] == D.d
        assert [h.evaluate(point) for h in hs] == ref[1:], (case, v)
