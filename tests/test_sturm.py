"""Sturm chains: construction rule, interval counts, isolation."""

import math
import random
from fractions import Fraction

import pytest

from rct import sturm
from rct.parse import parse_poly
from rct.divisors import paper_family, scale_divisor
from rct.fan import default_demo, psi_demo
from rct.poly import SparsePoly, divide_exact, poly_divmod
from rct.sturm import (
    MAX_DEGREE,
    MAX_ISOLATION_WORK,
    EndpointRootError,
    _fujiwara_far,
    cauchy_root_bound,
    count_distinct_roots_in,
    count_distinct_roots_total,
    expand_endpoints_clear,
    isolate_roots_bisection,
    sturm_sequence,
)


def test_sequence_is_negated_euclid():
    # f0 = f, f1 = f', f_{i+1} = -(f_{i-1} mod f_i); plain remainders only
    f = parse_poly("x^5 - 3*x^3 + x - 1")
    polys = sturm_sequence(f, "x").as_sparse()
    assert polys[0] == f
    assert polys[1] == f.derivative("x")
    for i in range(2, len(polys)):
        _, r = poly_divmod(polys[i - 2], polys[i - 1], "x")
        assert polys[i] == -r
    assert polys[-1].degree_in("x") == 0  # squarefree input ends in a constant


def test_known_counts():
    assert count_distinct_roots_total(parse_poly("x^2 - 2")) == 2
    assert count_distinct_roots_total(parse_poly("x^2 + 1")) == 0
    assert count_distinct_roots_total(parse_poly("x^3 - x")) == 3
    assert count_distinct_roots_total(parse_poly("x^5 - 5*x^3 + 4*x")) == 5
    assert count_distinct_roots_total(parse_poly("x^4 + x^2 + 7")) == 0
    assert count_distinct_roots_total(parse_poly("x - 3")) == 1


def test_multiple_roots_counted_once():
    f = parse_poly("(x-1)^2 * (x+2)")
    assert count_distinct_roots_total(f) == 2
    g = parse_poly("(x^2-2)^3")
    assert count_distinct_roots_total(g) == 2


def test_open_interval_semantics():
    f = parse_poly("x^2 - 1")
    assert count_distinct_roots_in(f, -2, 2) == 2
    assert count_distinct_roots_in(f, 0, 2) == 1
    assert count_distinct_roots_in(f, Fraction(1, 2), Fraction(3, 2)) == 1
    # roots sitting on an endpoint are rejected, not silently dropped
    with pytest.raises(EndpointRootError):
        count_distinct_roots_in(f, 1, 2)
    with pytest.raises(EndpointRootError):
        count_distinct_roots_in(f, -1, 0)


def test_expand_endpoints_clear():
    f = parse_poly("x^2 - 1")
    a, b = expand_endpoints_clear(f, 1, 2, "x")
    assert a < 1 < 2 < b or (a < 1 and b >= 2)
    assert count_distinct_roots_in(f, a, b) >= 1


def test_random_integer_root_products():
    rng = random.Random(31)
    x = SparsePoly.variable("x")
    for _ in range(150):
        roots = rng.sample(range(-8, 9), rng.randint(1, 5))
        f = SparsePoly.constant(1)
        for r in roots:
            f = f * (x - r) ** rng.randint(1, 2)
        assert count_distinct_roots_total(f) == len(set(roots))
        lo = min(roots) - 1
        hi = max(roots) + 1
        assert count_distinct_roots_in(f, lo, hi) == len(set(roots))


def test_cauchy_bound_contains_roots():
    rng = random.Random(32)
    x = SparsePoly.variable("x")
    for _ in range(50):
        roots = rng.sample(range(-20, 21), rng.randint(1, 4))
        f = SparsePoly.constant(rng.randint(1, 5))
        for r in roots:
            f = f * (x - r)
        bound = cauchy_root_bound(f, "x")
        assert all(abs(r) < bound for r in roots)


def test_isolation_widths_and_disjointness():
    f = parse_poly("x^5 - 5*x^3 + 4*x")  # roots 0, +-1, +-2
    prec = Fraction(1, 10 ** 6)
    intervals = isolate_roots_bisection(f, prec)
    assert len(intervals) == 5
    for (a, b), (c, d) in zip(intervals, intervals[1:]):
        assert b < c  # strictly disjoint and sorted
    for a, b in intervals:
        assert b - a <= prec
        assert count_distinct_roots_in(f, *expand_endpoints_clear(f, a, b, "x")) >= 1
    mids = sorted(float((a + b) / 2) for a, b in intervals)
    for got, want in zip(mids, [-2, -1, 0, 1, 2]):
        assert abs(got - want) < 1e-6


def test_isolation_hits_rational_roots_exactly():
    f = parse_poly("(x - 1/2) * (x + 3)")
    intervals = isolate_roots_bisection(f, Fraction(1, 10 ** 12))
    pts = [(a, b) for a, b in intervals if a == b]
    # width-zero intervals are allowed when the midpoint lands on a root
    for a, b in intervals:
        assert b - a <= Fraction(1, 10 ** 12)
    assert len(intervals) == 2
    del pts


def test_isolation_matches_count_random():
    rng = random.Random(33)
    for _ in range(60):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(1, 6))] + [Fraction(1)]
        f = SparsePoly.from_dense("x", coeffs)
        n = count_distinct_roots_total(f)
        assert len(isolate_roots_bisection(f, Fraction(1, 1024))) == n


def test_constant_and_linear_edge_cases():
    assert count_distinct_roots_total(parse_poly("2*x + 3")) == 1
    intervals = isolate_roots_bisection(parse_poly("2*x + 3"), Fraction(1, 64))
    assert len(intervals) == 1
    a, b = intervals[0]
    assert a <= Fraction(-3, 2) <= b
    # constants carry no main variable and are rejected outright
    with pytest.raises(ValueError):
        count_distinct_roots_total(parse_poly("5"), "x")


def _euclid_chain(f, var="x"):
    # reference chain from poly_divmod: f, f', then negated remainders
    chain = [f, f.derivative(var)]
    while True:
        _, r = poly_divmod(chain[-2], chain[-1], var)
        if r.is_zero():
            return chain
        chain.append(-r)


def test_integer_chain_view_equals_euclid_random():
    rng = random.Random(34)
    x = SparsePoly.variable("x")
    fixed = [parse_poly("x^4 + 1"), parse_poly("-x^6 + 3*x^2 - 1/5"),
             parse_poly("(x - 1)^3 * (x + 2)^2"), parse_poly("-7/3*x^5 + x")]
    randoms = []
    for _ in range(60):
        f = SparsePoly.constant(Fraction(rng.choice([-5, -2, -1, 1, 3]),
                                         rng.randint(1, 6)))
        for _ in range(rng.randint(1, 3)):
            f = f * (x - Fraction(rng.randint(-6, 6), rng.randint(1, 4))) \
                ** rng.randint(1, 3)
        if rng.random() < 0.5:
            f = f * (x ** rng.choice([2, 4]) + rng.randint(1, 5))
        randoms.append(f)
    for f in fixed + randoms:
        seq = sturm_sequence(f, "x")
        assert list(seq.as_sparse()) == _euclid_chain(f), f
        for s, p, ints in zip(seq.scales, seq.polys, seq.chain):
            # each integer entry is primitive and a positive multiple
            assert s > 0 and math.gcd(*ints) == 1
            assert p == tuple(s * c for c in ints)
    # x^4 + 1: f' = 4x^3 divides f - 1, so the chain drops from degree 3 to 0
    assert [len(p) for p in sturm_sequence(fixed[0], "x").chain] == [5, 4, 1]


def test_drop_one_matches_neg_prem():
    # a = q b + r with q linear: r of degree below m - 1 makes the top
    # coefficients of the remainder cancel, r = 0 makes it vanish
    rng = random.Random(81)
    for trial in range(400):
        m = rng.randint(1, 7)
        b = [rng.randint(-9, 9) for _ in range(m)] + [rng.choice([-4, -1, 1, 3])]
        if trial % 3:
            a = [rng.randint(-50, 50) for _ in range(m + 1)] \
                + [rng.choice([-2, 1, 5])]
        else:
            q = [rng.randint(-5, 5), rng.choice([-3, 1, 2])]
            a = [0] * (m + 2)
            for i, qi in enumerate(q):
                for k, bk in enumerate(b):
                    a[i + k] += qi * bk
            for i in range(rng.randint(0, m - 1)):
                a[i] += rng.randint(-9, 9)
        r, mult = sturm._neg_prem(a, b)
        g, r = sturm._primitive(r)
        assert sturm._drop_one(a, b) == (g, r, mult), (a, b)


def test_chain_built_once_per_polynomial(monkeypatch):
    builds = []
    build = sturm._build_chain

    def counted(f, var):
        builds.append(var)
        return build(f, var)

    monkeypatch.setattr(sturm, "_build_chain", counted)
    f = parse_poly("(x - 1)*(x + 2)*(x^2 - 3)*(x^2 + 1)")
    assert count_distinct_roots_total(f) == 4
    assert count_distinct_roots_in(f, 0, 3) == 2
    assert len(isolate_roots_bisection(f, Fraction(1, 64))) == 4
    assert builds == ["x"]
    # two polynomials in turn: each switch builds the other's chain
    g = parse_poly("x^3 - 2")
    for _ in range(2):
        assert count_distinct_roots_total(g) == 1
        assert count_distinct_roots_total(f) == 4
    assert len(builds) == 5
    # one object over (x, y), univariate in x: var = "y" is refused, not
    # answered from the x chain, and the x chain stays the one kept
    h = SparsePoly(("x", "y"), {(2, 0): 1, (0, 0): -2})
    assert count_distinct_roots_total(h, "x") == 2
    with pytest.raises(ValueError, match="not univariate in y"):
        count_distinct_roots_total(h, "y")
    assert len(isolate_roots_bisection(h, Fraction(1, 64), "x")) == 2
    assert builds[5:] == ["x", "y"]


def _sqrt_in(a, b, n):
    # a <= sqrt(n) <= b for a positive integer n
    return (a <= 0 or a * a <= n) and b >= 0 and b * b >= n


def test_isolation_mixed_multiplicities():
    # even and odd multiplicities: single-root intervals refine on the
    # squarefree part, whose sign flips at every root of f
    f = parse_poly("(x - 1)^2 * (x + 2)^3 * (x^2 - 2)")
    prec = Fraction(1, 2 ** 30)
    intervals = isolate_roots_bisection(f, prec)
    assert len(intervals) == count_distinct_roots_total(f) == 4
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = intervals
    assert a0 <= -2 <= b0
    assert _sqrt_in(-b1, -a1, 2)
    assert a2 <= 1 <= b2
    assert _sqrt_in(a3, b3, 2)
    for (a, b), (c, _) in zip(intervals, intervals[1:]):
        assert b - a <= prec and b < c
    g = parse_poly("x^4 * (x - 1/3)^3 * (x + 5)")
    got = isolate_roots_bisection(g, prec)
    assert len(got) == 3
    for (a, b), r in zip(got, [-5, 0, Fraction(1, 3)]):
        assert a <= r <= b and b - a <= prec


# Isolating intervals at width 2^-20, frozen from the Fraction-Euclid
# implementation; the integer chain must reproduce them exactly.
LITERAL_INTERVALS = (
    ("-x^4 - 11/2*x^3 + 5/2*x^2 + 77/2*x + 63/2",
     [("-301989903/67108864", "-603979727/134217728"),
      ("-177553369/67108864", "-355106659/134217728"),
      ("-134217761/134217728", "-67108841/67108864"),
      ("355106659/134217728", "177553369/67108864")]),
    ("-x^4 - 5*x^3 + 6*x^2 + 30*x",
     [("-671088713/134217728", "-1342177271/268435456"),
      ("-328765013/134217728", "-657529871/268435456"),
      ("-31/268435456", "31/67108864"),
      ("657529809/268435456", "164382491/67108864")]),
    ("-3/2*x^3 + 9/2*x^2 + 6*x - 18",
     [("-33554443/16777216", "-16777215/8388608"),
      ("16777215/8388608", "33554443/16777216"),
      ("50331645/16777216", "25165829/8388608")]),
    ("-3/2*x^6 + 15/4*x^5 + 87/8*x^4 - 219/16*x^3 - 39/2*x^2 - 21/4*x",
     [("-8388611/4194304", "-134217713/67108864"),
      ("-16777243/33554432", "-33554423/67108864"),
      ("-7/8388608", "7/67108864"),
      ("16777215/8388608", "134217769/67108864"),
      ("234881017/67108864", "117440533/33554432")]),
    ("-3/4*x^7 + 3/2*x^6 + 141/16*x^5 - 357/16*x^4 - 237/16*x^3"
     " + 1149/16*x^2 - 105/2*x + 45/4",
     [("-1610613117/536870912", "-805306365/268435456"),
      ("-18757503/8388608", "-1200479805/536870912"),
      ("268435197/536870912", "2097153/4194304"),
      ("536870781/268435456", "1073741949/536870912"),
      ("1200479805/536870912", "18757503/8388608")]),
)


@pytest.mark.parametrize("text,want", LITERAL_INTERVALS)
def test_isolation_literal_intervals(text, want):
    got = isolate_roots_bisection(parse_poly(text), Fraction(1, 2 ** 20), "x")
    assert [(str(a), str(b)) for a, b in got] == list(want)


def test_degree_cap():
    # the cap fires on the sparse degree, before dense coefficients exist
    f = parse_poly(f"x^{MAX_DEGREE + 1} - 1")
    for query in (count_distinct_roots_total, sturm_sequence):
        with pytest.raises(ValueError, match="degree cap"):
            query(f, "x")
    with pytest.raises(ValueError, match="degree cap"):
        isolate_roots_bisection(f, Fraction(1, 2), "x")
    assert count_distinct_roots_total(parse_poly(f"x^{MAX_DEGREE} - 1")) == 2


@pytest.mark.parametrize("text,precision", [
    ("x^40 - 2", Fraction(1, 10 ** 1000)),
    ("x^8 - 2", Fraction(1, 10 ** 2000)),
    ("x^8 - 2", Fraction(1, 10 ** 4200)),
    ("x^256 - 3*x^2 + 1", Fraction(1, 2 ** 512)),
    ("x^256 - 3*x^2 + 1", Fraction(1, 2 ** 1024)),
    # a huge constant widens the Cauchy interval, so K grows with it
    ("x^8 - 10^4000", Fraction(1, 10 ** 12)),
])
def test_isolation_work_cap(text, precision):
    # uncapped, each of these runs for seconds to minutes
    with pytest.raises(ValueError, match="isolation cap"):
        isolate_roots_bisection(parse_poly(text), precision, "x")


def test_isolation_work_cap_boundary():
    # x^2 - 2: n = m = 2 and a Cauchy interval of width 6, so 2^-k takes
    # K = k + 3 halvings, and n m^2 K^3 reaches the cap at K = 5000
    assert MAX_ISOLATION_WORK == 8 * 5000 ** 3
    f = parse_poly("x^2 - 2")
    got = isolate_roots_bisection(f, Fraction(1, 2 ** 4997), "x")
    assert len(got) == 2 and all(b - a <= Fraction(1, 2 ** 4997) for a, b in got)
    with pytest.raises(ValueError, match="isolation cap"):
        isolate_roots_bisection(f, Fraction(1, 2 ** 4998), "x")
    # degree 256 at the CLI's default precision stays admitted
    f = parse_poly("x^256 - 3*x^2 + 1")
    assert len(isolate_roots_bisection(f, Fraction(1, 10 ** 12), "x")) == 4


def _oracle_isolate(f, precision, var):
    # The isolator before the dyadic grid walk, kept as an oracle: the
    # Fraction Euclid chain from poly_divmod, bisection from the Cauchy
    # bound with every point evaluated, Fraction midpoints while refining.
    f = SparsePoly.from_dense(var, f.dense_coeffs(var))
    chain = [p.dense_coeffs(var) for p in _euclid_chain(f, var)]
    sqf = divide_exact(f, SparsePoly.from_dense(var, chain[-1])).dense_coeffs(var)

    def value(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    seen = {}

    def changes(x):
        if x not in seen:
            signs = [v > 0 for v in (value(cs, x) for cs in chain) if v]
            seen[x] = sum(1 for u, v in zip(signs, signs[1:]) if u != v)
        return seen[x]

    lead = abs(chain[0][-1])
    bound = 1 + max(abs(c) for c in chain[0][:-1]) / lead
    out, stack = [], [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        n = changes(a) - changes(b)
        if n == 1:
            positive_at_a = value(sqf, a) > 0
            while b - a > precision:
                m = (a + b) / 2
                v = value(sqf, m)
                if v == 0:
                    a = b = m
                elif (v > 0) == positive_at_a:
                    a = m
                else:
                    b = m
            out.append((a, b))
        elif n > 1:
            m, k = (a + b) / 2, 3
            while value(sqf, m) == 0:
                m = a + (b - a) * Fraction(2 ** (k - 1) + 1, 2 ** k)
                k += 1
            stack += [(m, b), (a, m)]
    return sorted(out)


def _roots_shape(rng, n_lin, n_quad):
    # monic with rational roots p/q and quadratic factors, as in the
    # benchmark's roots workload: the Cauchy bound dwarfs the roots
    x = SparsePoly.variable("x")
    f, den = SparsePoly.constant(1), 1
    for _ in range(n_lin):
        q = rng.randint(1, 9)
        f, den = f * (q * x - rng.randint(-12 * q, 12 * q)), den * q
    for _ in range(n_quad):
        f = f * (x ** 2 + rng.randint(-9, 9) * x + rng.randint(-20, 20))
    return f / den


def _oracle_cases():
    rng = random.Random(35)
    cases = [("x", _roots_shape(rng, 8, 2)), ("x", _roots_shape(rng, 4, 3)),
             ("x", _roots_shape(rng, 7, 1)), ("x", _roots_shape(rng, 2, 4))]
    for text in ("(x + 13/4)*(x + 1/4)*(x - 1/8)*(x - 3/8)",  # dyadic grid roots
                 "(x - 1)*(x - 3)*(x - 15)",
                 "(x + 3/8)*(x - 3/8)*(x - 2)",
                 "x^3 - x", "x*(x^2 - 2)*(x - 1)^2",      # midpoint 0 is a root
                 "1000000*x^2 - 1", "x^4 - 1/10^12"):      # far < 1
        cases.append(("x", parse_poly(text)))
    # fan fibers of the scaled paper family: tiny roots, one of them 0
    for D, t, q in ((paper_family(2, 2)[0], Fraction(1, 10 ** 4), (1, 2)),
                    (paper_family(2, 1)[1], Fraction(1, 3000), (Fraction(3, 7), -1)),
                    (paper_family(2, 3)[0], Fraction(1, 50), (2, Fraction(1, 5)))):
        f = scale_divisor(D, t).f.substitute({"x1": q[0], "x2": q[1]})
        cases.append(("x0", f))
    # the first two and the last have Cauchy bounds far above far, so the
    # root-free descent is long on both sides; in the last two the root 0
    # shifts the first split, in the last to bound/4, past far
    for text in ("(x^2 + 10^60)*(x - 1)*(x + 2)",
                 "(3*x - 1)*(x^2 - 2)*(x^2 + 2^200)",
                 "x*(x - 1)*(x + 1)*(x - 1/2)",
                 "x*(x - 1)*(x + 1)*(x - 1/2)*(x^2 + 10^60)"):
        cases.append(("x", parse_poly(text)))
    return cases


@pytest.mark.parametrize("precision", [Fraction(1, 2 ** 20),
                                       Fraction(1, 10 ** 12),
                                       Fraction(1, 3), Fraction(10 ** 6)])
def test_isolation_matches_oracle(precision):
    cases = _oracle_cases()
    for _, f in cases[:4]:
        assert cauchy_root_bound(f, "x") > 1000 * _fujiwara_far(
            sturm_sequence(f, "x").chain[0])
    for var, f in cases:
        got = isolate_roots_bisection(f, precision, var)
        assert got == _oracle_isolate(f, precision, var), (f, precision)
    if precision == Fraction(1, 2 ** 20):
        hits = {a for var, f in cases[4:7]
                for a, b in isolate_roots_bisection(f, precision, var) if a == b}
        assert hits >= {Fraction(-13, 4), Fraction(-1, 4), Fraction(1, 8),
                        Fraction(3, 8), 1, 3, 15, Fraction(-3, 8)}


def test_fujiwara_far_bounds_every_root():
    rng = random.Random(36)
    x = SparsePoly.variable("x")
    for _ in range(200):
        # known roots: p/q from the linear factors, sqrt(c) from x^2 + c
        f, moduli2 = SparsePoly.constant(rng.choice([1, -3, 7, 1000])), []
        for _ in range(rng.randint(1, 4)):
            p, q = rng.randint(-10 ** 6, 10 ** 6), rng.choice([1, 7, 10 ** 5])
            f, moduli2 = f * (q * x - p), moduli2 + [Fraction(p, q) ** 2]
        for _ in range(rng.randint(0, 2)):
            c = Fraction(rng.randint(1, 10 ** 4), rng.choice([1, 10 ** 6]))
            f, moduli2 = f * (x ** 2 + c), moduli2 + [c]
        far = _fujiwara_far(sturm_sequence(f, "x").chain[0])
        assert far > 0 and far.numerator & (far.numerator - 1) == 0
        assert far.denominator & (far.denominator - 1) == 0
        assert all(m2 < far * far for m2 in moduli2), (f, far)
    assert _fujiwara_far([0, 0, 0, 5]) == 1  # 5 x^3: the only root is 0


def _bisect_node(sqf, P, Q, ua, ub, L, precision):
    """Plain Fraction bisection of a `_refine` node to width <= precision.
    sqf is descending and scaled by Q, so at y = Q x it sums to Q^m g(x)."""
    def sign(x):
        acc = 0
        for c in sqf:
            acc = acc * Q * x + c
        return (acc > 0) - (acc < 0)

    a, b = Fraction(P * ua, Q << L), Fraction(P * ub, Q << L)
    s_a = sign(a)
    while b - a > precision:
        m = (a + b) / 2
        s = sign(m)
        if s == 0:
            return m, m
        if s == s_a:
            a = m
        else:
            b = m
    return a, b


def _refine_nodes(monkeypatch, f, precision):
    """The argument tuples of every `_refine` call isolating f, with the
    cell check switched off so that every root goes through the tree."""
    nodes, refine, cells = [], sturm._refine, sturm._cells

    def record(*args):
        nodes.append(args)
        return refine(*args)

    monkeypatch.setattr(sturm, "_refine", record)
    monkeypatch.setattr(sturm, "_cells", lambda *args: None)
    isolate_roots_bisection(f, precision, "x")
    monkeypatch.setattr(sturm, "_refine", refine)
    monkeypatch.setattr(sturm, "_cells", cells)
    return nodes


def test_refine_matches_plain_bisection(monkeypatch):
    # quadratic interval refinement returns bisection's intervals on
    # every node, roots on grid points as [m, m] included
    rng = random.Random(19)
    cases = [_roots_shape(rng, rng.randint(1, 6), rng.randint(0, 3))
             for _ in range(70)]
    # roots on grid points of the Cauchy bound's dyadic tree
    cases += [parse_poly(text) for text in (
        "(x + 13/4)*(x + 1/4)*(x - 1/8)*(x - 3/8)", "(x - 1)*(x - 3)*(x - 15)",
        "(x + 3/8)*(x - 3/8)*(x - 2)", "x^3 - x", "(x^2 - 1/4)*(x - 7)")]
    nodes = []
    for f in cases:
        for precision in (Fraction(1, 2 ** 20), Fraction(1, 10 ** 12),
                          Fraction(1, 3), Fraction(1, 2 ** 40)):
            nodes += _refine_nodes(monkeypatch, f, precision)
    exact = 0
    for node in nodes:
        got = sturm._refine(*node)
        assert got == _bisect_node(*node), node[1:]
        exact += got[0] == got[1]
    assert len(nodes) > 1400 and exact >= 40


@pytest.mark.parametrize("text,precision,k,probes", [
    # near a simple root the secant converges quadratically: 16 probes
    # where bisection takes 202
    ("x^2 - 2", Fraction(1, 2 ** 200), 202, 16),
    # a complex pair 2^-38 beside the root makes the bracket look like a
    # cube at every scale above 2^-38, so the secant fails there: more
    # probes than bisection's 43, within the bound 3 k + 2
    ("(x - 1/3)*((x - 1/3 - 1/2^38)^2 + 1/2^100)", Fraction(1, 2 ** 40), 43, 47),
])
def test_refine_probe_count(monkeypatch, text, precision, k, probes):
    f = parse_poly(text)
    (node, *_) = _refine_nodes(monkeypatch, f, precision)
    _, P, Q, ua, ub, L, _ = node
    # k halvings take the node's width to the precision
    assert 2 ** (k - 1) < Fraction(P * (ub - ua), Q << L) / precision <= 2 ** k
    calls, value = [], sturm._value
    monkeypatch.setattr(sturm, "_value", lambda *a: calls.append(a) or value(*a))
    got = sturm._refine(*node)
    monkeypatch.setattr(sturm, "_value", value)
    assert got == _bisect_node(*node)
    assert len(calls) == probes <= 3 * k + 2


def _isolate_or_error(chain, precision):
    try:
        return sturm._isolate(chain, precision)
    except ValueError as err:
        return type(err), str(err)


# the texts of test_refine_matches_plain_bisection with roots on grid points
GRID_TEXTS = ("(x + 13/4)*(x + 1/4)*(x - 1/8)*(x - 3/8)", "(x - 1)*(x - 3)*(x - 15)",
              "(x + 3/8)*(x - 3/8)*(x - 2)", "x^3 - x", "(x^2 - 1/4)*(x - 7)")
CELL_PRECISIONS = (Fraction(10), Fraction(1, 3), Fraction(1, 2 ** 20),
                   Fraction(1, 10 ** 12), Fraction(1, 2 ** 60),
                   Fraction(1, 2 ** 200))


def _real_rooted(rng, degree):
    """A real-rooted product of rational and split quadratic factors."""
    x = SparsePoly.variable("x")
    f, m = SparsePoly.constant(1), 0
    while m < degree:
        if m + 2 <= degree and rng.random() < 0.4:
            b, c = rng.randint(-30, 30), rng.randint(-200, 200)
            if b * b > 4 * c:
                f, m = f * (x ** 2 + b * x + c), m + 2
        else:
            q = rng.choice([1, 2, 3, 7, 10, 64])
            f, m = f * (q * x - rng.randint(-40 * q, 40 * q)), m + 1
    return f


def _cell_cases():
    """Polynomials for the cell check against the tree."""
    rng = random.Random(24)
    cases = [_real_rooted(rng, rng.randint(1, 16)) for _ in range(40)]
    cases += [parse_poly("x") * _real_rooted(rng, rng.randint(1, 8))
              for _ in range(4)]
    cases += [parse_poly(text) for text in GRID_TEXTS]
    # 2^-30 apart: one cell holds both at every precision above 2^-30
    cases += [parse_poly(text) for text in (
        "(x - 1/3)*(x - 1/3 - 1/2^30)*(x + 2)", "(x^2 - 2)*(x^2 - 2 - 1/2^40)")]
    cases += [parse_poly(f"10^{e}") * _real_rooted(rng, 6) for e in (41, 45, 120)]
    cases += [parse_poly(text) for text in (
        "(x - 10^200)*(x + 10^200)*(x - 1)", "(10^50*x - 1)*(10^50*x + 3)*(x - 2)",
        # roots below 10^-400, so a cell is far wider than they spread
        "(10^400*x - 1)*(10^400*x + 3)")]
    wilkinson = SparsePoly.constant(1)
    for r in range(1, 31):
        wilkinson = wilkinson * parse_poly(f"x - {r}")
    return cases + [wilkinson]


def _cells_against_tree(monkeypatch, cases, precisions):
    """Isolate every case at every precision with the cell check and with
    the tree alone, and assert the same intervals or the same error.
    Returns the tries of the cell check and how many found cells."""
    took, cells = [], sturm._cells

    def record(*args):
        got = cells(*args)
        took.append(got is not None)
        return got

    for f in cases:
        chain = sturm_sequence(f, "x").chain
        for precision in precisions:
            monkeypatch.setattr(sturm, "_cells", record)
            got = _isolate_or_error(chain, precision)
            monkeypatch.setattr(sturm, "_cells", lambda *args: None)
            assert got == _isolate_or_error(chain, precision), (f, precision)
    monkeypatch.setattr(sturm, "_cells", cells)
    return len(took), sum(took)


def test_cells_equal_the_tree(monkeypatch):
    tries, found = _cells_against_tree(monkeypatch, _cell_cases(), CELL_PRECISIONS)
    # 92 of 301 tries find cells, mostly real-rooted inputs at 1/3 and 2^-20
    assert found >= 80


def test_cells_check_whatever_the_floats_say(monkeypatch):
    # estimates moved off their roots by up to three cells: the exact
    # signs either find the tree's cells or give the input to the tree
    rng, estimates = random.Random(25), sturm._estimates

    def misaimed(sqf, s, tol):
        ys = estimates(sqf, s, tol)
        cell = tol * sturm.CELL_TOLERANCE
        return ys and [y + cell * rng.choice((0, 0, 0.4, -0.6, 1.3, -2.9))
                       for y in ys]

    monkeypatch.setattr(sturm, "_estimates", misaimed)
    tries, found = _cells_against_tree(monkeypatch, _cell_cases()[:40],
                                       CELL_PRECISIONS[1:3])
    assert 5 <= found < tries


def test_estimates_fail_quietly():
    # coinciding starts (x^2 + 1 has no real spread), a coefficient past a
    # double's range and a complex pair end in None, never a float error
    assert sturm._estimates([1, 0, 1], 0, 1e-9) is None
    assert sturm._estimates([-(10 ** 400), 0, 1], 0, 1e-9) is None
    assert sturm._estimates([1, 1, 0, 1], 1, 1e-9) is None
    assert sturm._estimates([-1, 0, 1], 0, 1e-9) == [-1.0, 1.0]


def test_real_rooted_fibers_skip_the_refinement(monkeypatch):
    # every fan fiber has only real simple roots, each alone in its cell
    calls, refine = [], sturm._refine
    monkeypatch.setattr(sturm, "_refine", lambda *a: calls.append(a) or refine(*a))
    Z, D = default_demo()
    assert len(psi_demo(Z, D, Fraction(1, 10)).output.points) == 4
    got = isolate_roots_bisection(parse_poly("x^2 - 2"), Fraction(1, 2 ** 20))
    assert len(got) == 2 and calls == []
