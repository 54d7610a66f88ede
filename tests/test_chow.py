"""Cycle forms: construction, scaling expansion, suspension test, taffy."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from rct.chow import (
    MHForm,
    chow_of_linear,
    chow_of_points,
    det_action_check,
    eigenform_degree,
    group_var,
    is_suspension,
    mul_cycles,
    proportional,
    t_expand,
    taffy,
)
from rct.parse import MAX_POWER_TERMS
from rct.poly import SparsePoly, divide_exact


def u(i, j):
    return SparsePoly.variable(group_var(i, j))


def _cross(k):
    # (u^0 x u^1)_k in P^2, cyclic indices
    a, b = (k + 1) % 3, (k + 2) % 3
    return u(0, a) * u(1, b) - u(0, b) * u(1, a)


def test_point_form():
    F = chow_of_points([(1, 2)])
    assert F.form == u(0, 0) + 2 * u(0, 1)
    assert (F.N, F.r, F.d, F.m) == (1, 0, 1, 0)


def test_two_points_form():
    F = chow_of_points([(1, 0), (0, 1)])
    assert F.d == 2
    assert proportional(F, MHForm(1, 0, 2, 0, u(0, 0) * u(0, 1)))


def test_multiplicity_squares():
    F = chow_of_points([((1, 1), 2)])
    assert F.d == 2
    assert proportional(F, MHForm(1, 0, 2, 0, (u(0, 0) + u(0, 1)) ** 2))


def test_points_reject_zero_vector():
    with pytest.raises(ValueError):
        chow_of_points([(0, 0)])


def test_point_form_vanishing_locus():
    rng = random.Random(61)
    pts = [(Fraction(1), Fraction(2), Fraction(-1)),
           (Fraction(0), Fraction(1), Fraction(3))]
    F = chow_of_points(pts)
    for p in pts:
        for _ in range(25):
            # hyperplane through p: u orthogonal to p
            a = Fraction(rng.randint(-5, 5))
            b = Fraction(rng.randint(-5, 5))
            # solve a*p0 + b*p1 + c*p2 = 0 when p2 != 0
            c = -(a * p[0] + b * p[1]) / p[2]
            assert F.evaluate([(a, b, c)]) == 0
    misses = 0
    for _ in range(25):
        h = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if any(sum(hc * pc for hc, pc in zip(h, p)) != 0 for p in pts):
            if F.evaluate([h]) != 0:
                misses += 1
    assert misses > 0  # generic hyperplanes do not vanish


def test_line_suspension_cross_product_oracle():
    # line through (1:0:0) and (0:p0:p1)
    p0, p1 = Fraction(3), Fraction(5)
    F = chow_of_linear([(1, 0, 0), (0, p0, p1)])
    assert (F.N, F.r, F.d) == (2, 1, 1)
    want = p1 * _cross(1) - p0 * _cross(2)
    assert proportional(F, MHForm(2, 1, 1, 0, want))


def test_line_nonsuspension_oracle():
    F = chow_of_linear([(1, 1, 0), (0, 0, 1)])
    want = _cross(0) - _cross(1)
    assert proportional(F, MHForm(2, 1, 1, 0, want))


def test_hyperplane_as_cycle():
    # {x_N = 0} spanned by the first N unit vectors
    N = 3
    span = [tuple(1 if j == i else 0 for j in range(N + 1))
            for i in range(N)]
    F = chow_of_linear(span)
    assert F.d == 1 and F.r == N - 1


def test_linear_rejects_dependent_span():
    with pytest.raises(ValueError):
        chow_of_linear([(1, 2, 0), (2, 4, 0)])


def test_incidence_consistency_random_lines():
    rng = random.Random(62)
    for _ in range(10):
        p = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        q = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        try:
            F = chow_of_linear([p, q])
        except ValueError:
            continue
        for _ in range(20):
            # hyperplane pair through the same point of the line
            lam = Fraction(rng.randint(-3, 3))
            pt = tuple(a + lam * b for a, b in zip(p, q))
            hs = []
            for _ in range(2):
                while True:
                    h = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
                    idx = next((i for i, c in enumerate(pt) if c != 0), None)
                    if idx is None:
                        break
                    rest = sum(hc * pc for i, (hc, pc) in enumerate(zip(h, pt))
                               if i != idx)
                    h[idx] = -rest / pt[idx]
                    hs.append(tuple(h))
                    break
                if len(hs) == 2:
                    break
            if len(hs) == 2:
                assert F.evaluate(hs) == 0


def test_mul_cycles_is_point_union():
    a = chow_of_points([(1, 2)])
    b = chow_of_points([(3, -1)])
    ab = mul_cycles(a, b)
    assert ab.d == 2
    assert proportional(ab, chow_of_points([(1, 2), (3, -1)]))
    assert proportional(a * b, ab)


def test_mul_cycles_shape_mismatch():
    a = chow_of_points([(1, 2)])
    c = chow_of_linear([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        mul_cycles(a, c)


def test_t_expand_point():
    F = chow_of_points([(1, 2)])
    exp = t_expand(F)
    assert exp.L >= 1
    assert exp.coefficients[1] == u(0, 0)
    assert exp.coefficients[0] == 2 * u(0, 1)


def test_t_expand_suspension_single_bucket():
    F = chow_of_linear([(1, 0, 0), (0, 3, 5)])
    exp = t_expand(F)
    nz = [i for i, g in enumerate(exp.coefficients) if not g.is_zero()]
    assert nz == [1]


def test_t_expand_nonsuspension_buckets():
    F = chow_of_linear([(1, 1, 0), (0, 0, 1)])
    exp = t_expand(F)
    nz = [i for i, g in enumerate(exp.coefficients) if not g.is_zero()]
    assert nz == [0, 1]
    g0, g1 = exp.coefficients[0], exp.coefficients[1]
    want0 = _cross(0)
    want1 = -_cross(1)
    # both buckets carry the same projective scalar as F itself
    assert g0 * want1 == g1 * want0
    q = divide_exact(g0, want0)
    assert q is not None and q.is_constant()
    assert q.constant_value() != 0


def test_t_expand_degree_bound():
    rng = random.Random(63)
    for _ in range(20):
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
               for _ in range(rng.randint(1, 3))]
        if any(all(c == 0 for c in p) for p in pts):
            continue
        m = rng.randint(0, 2)
        F = chow_of_points(pts, m)
        exp = t_expand(F)
        top = max(i for i, g in enumerate(exp.coefficients)
                  if not g.is_zero())
        assert top <= (m + 1) * F.d


def _act(F, t):
    exp = t_expand(F)
    return MHForm(exp.N, exp.r, exp.d, exp.m, exp.recombine(t))


def test_monoid_action():
    rng = random.Random(64)
    F = chow_of_linear([(1, 1, 0), (0, 0, 1)])
    for _ in range(10):
        t = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        s = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        assert _act(_act(F, t), s) == _act(F, t * s)


def test_t_action_multiplicative_on_products():
    rng = random.Random(65)
    A = chow_of_points([(1, 2, 0)])
    B = chow_of_points([(0, 1, 1), (1, 0, 1)])
    for _ in range(10):
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        lhs = _act(mul_cycles(A, B), t)
        rhs = mul_cycles(_act(A, t), _act(B, t))
        assert lhs == rhs


def test_eigenform_degrees():
    susp = chow_of_linear([(1, 0, 0), (0, 3, 5)])
    assert eigenform_degree(susp) == 1
    non = chow_of_linear([(1, 1, 0), (0, 0, 1)])
    assert eigenform_degree(non) is None
    two = mul_cycles(susp, chow_of_linear([(1, 0, 0), (0, 1, -2)]))
    assert eigenform_degree(two) == 2


def test_is_suspension():
    susp = chow_of_linear([(1, 0, 0), (0, 3, 5)])
    assert is_suspension(susp)
    non = chow_of_linear([(1, 1, 0), (0, 0, 1)])
    assert not is_suspension(non)
    mixed = mul_cycles(susp, non)
    assert not is_suspension(mixed)


def test_suspension_proper_flag():
    # a point on the scaled block: eigen s = 0 < d contradicts properness
    F = chow_of_points([(0, 1)])
    assert eigenform_degree(F) == 0
    assert not is_suspension(F)
    with pytest.raises(ValueError):
        is_suspension(F, proper_intersection=True)


def test_taffy_worked_example():
    L = chow_of_linear([(1, 1, 0), (0, 0, 1)])
    H = taffy(L)
    assert H(1) == L
    end = H(0)
    assert is_suspension(end)
    x1_zero = chow_of_linear([(1, 0, 0), (0, 0, 1)])  # the line {x1 = 0}
    assert proportional(end, x1_zero)


def test_taffy_constant_on_suspensions():
    susp = chow_of_linear([(1, 0, 0), (0, 3, 5)])
    H = taffy(susp)
    for t in (0, 1, Fraction(1, 3), 2):
        assert H(t) == susp


def test_taffy_random_endpoints():
    rng = random.Random(66)
    done = 0
    while done < 40:
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
               for _ in range(rng.randint(1, 2))]
        if any(all(c == 0 for c in p) for p in pts):
            continue
        F = chow_of_points(pts)
        try:
            H = taffy(F)
        except ValueError:
            continue  # improper: cycle meets the base
        assert H(1) == F
        assert is_suspension(H(0))
        # pulling straight twice changes nothing
        assert taffy(H(0))(Fraction(1, 2)) == H(0)
        done += 1


def test_taffy_rejects_improper():
    # the point (0:1) lies on the base {u0_0 hyperplanes}: g_d = 0
    F = chow_of_points([(0, 1)])
    with pytest.raises(ValueError):
        taffy(F)


def test_taffy_rejects_m_nonzero():
    F = chow_of_points([(1, 2)], m=1)
    with pytest.raises(ValueError):
        taffy(F)


def test_det_action_identity_and_scalars():
    F = chow_of_points([(1, 2), (3, 1)])
    assert det_action_check(F, [[1]])
    assert det_action_check(F, [[Fraction(5, 3)]])
    L = chow_of_linear([(1, 1, 0), (0, 0, 1)])
    assert det_action_check(L, [[1, 0], [0, 1]])
    assert det_action_check(L, [[2, 1], [1, 1]])
    assert det_action_check(L, [[0, 1], [1, 0]])


def test_det_action_random():
    rng = random.Random(67)
    L = chow_of_linear([(1, 2, -1), (0, 1, 1)])
    for _ in range(20):
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(2)]
             for _ in range(2)]
        if A[0][0] * A[1][1] - A[0][1] * A[1][0] == 0:
            continue
        assert det_action_check(L, A)


def test_det_action_rejects_singular():
    L = chow_of_linear([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        det_action_check(L, [[1, 2], [2, 4]])


def test_mhform_validation():
    with pytest.raises(ValueError):
        MHForm(1, 0, 1, 0, u(0, 0) + u(0, 1) ** 2)  # uneven group degree
    with pytest.raises(ValueError):
        MHForm(1, 0, 1, 2, u(0, 0))  # m > N
    with pytest.raises(ValueError):
        MHForm(1, 0, 1, 0, SparsePoly.zero())


def test_mhform_json_roundtrip():
    F = chow_of_linear([(1, 1, 0), (0, 0, 1)], m=1)
    again = MHForm.from_json_dict(F.to_json_dict())
    assert again == F


# ---- the term-dict constructions against the SparsePoly ones they replace ----


def _cofactor_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _cofactor_det(minor)
        if j % 2:
            term = term * Fraction(-1)
        total = term if total is None else total + term
    return total


def _cofactor_chow(span):
    """Reference: the incidence determinant det[ u^i(p_k) ] expanded by
    cofactors over SparsePoly entries, with chow_of_linear's checks."""
    pts = [tuple(Fraction(c) for c in p) for p in span]
    if any(all(c == 0 for c in p) for p in pts):
        raise ValueError("projective point cannot be the zero vector")
    N, r = len(pts[0]) - 1, len(pts) - 1
    terms = comb(N + 1, r + 1) * factorial(r + 1)
    if terms > MAX_POWER_TERMS:
        raise ValueError(f"the linear cycle's form has {terms} terms, over "
                         f"the cap {MAX_POWER_TERMS}")
    allvars = tuple(group_var(i, j) for i in range(r + 1) for j in range(N + 1))
    mat = []
    for i in range(r + 1):
        row = []
        for p in pts:
            lin = SparsePoly.zero(allvars)
            for j, c in enumerate(p):
                if c != 0:
                    lin = lin + SparsePoly.variable(group_var(i, j)) * c
            row.append(lin)
        mat.append(row)
    det = _cofactor_det(mat)
    if det.is_zero():
        raise ValueError("spanning points are linearly dependent")
    return det


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))


def test_chow_of_linear_matches_the_cofactor_expansion():
    rng = random.Random(68)
    seen = set()
    for N in (1, 2, 3, 4, 11):
        for r in range(min(N, 3) + 1):
            for trial in range(6):
                span = [[_rational(rng) if rng.random() < 0.8 else 0
                         for _ in range(N + 1)] for _ in range(r + 1)]
                if r and trial == 0:  # a dependent span
                    span[-1] = [Fraction(-3, 2) * c for c in span[0]]
                if trial == 1:
                    span[0] = [0] * (N + 1)
                got = _outcome(chow_of_linear, span)
                want = _outcome(_cofactor_chow, span)
                if isinstance(want, str):
                    seen.add(want.split(" ")[0])
                    assert got == want, (span, got)
                else:
                    assert got.form.vars == want.vars, span
                    assert got.form.terms == want.terms, span
                    seen.add("form")
    assert seen == {"form", "spanning", "the", "projective"}
    # at N >= 10 the variables sort as strings: u0_10 before u0_2
    F = chow_of_linear([[1] * 12, list(range(12))])
    assert F.form.vars[:4] == ("u0_0", "u0_1", "u0_10", "u0_11")


def _substitute_check(F, A):
    """Reference: F(Au) by SparsePoly.substitute against det(A)^d F(u),
    with the determinant by Fraction elimination."""
    n = F.r + 1
    A = [[Fraction(c) for c in row] for row in A]
    m = [list(row) for row in A]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            q = m[i][col] / m[col][col]
            m[i] = [a - q * b for a, b in zip(m[i], m[col])]
    coords = sorted({int(v.split("_")[1]) for v in F.form.vars})
    mapping = {}
    for i in range(n):
        for j in coords:
            img = SparsePoly.zero()
            for k in range(n):
                if A[i][k]:
                    img = img + SparsePoly.variable(group_var(k, j)) * A[i][k]
            mapping[group_var(i, j)] = img
    return F.form.substitute(mapping) == F.form * det ** F.d


def _random_form(rng, N, r, d):
    """A multihomogeneous form with a few random rational terms."""
    vs = tuple(group_var(i, j) for i in range(r + 1) for j in range(N + 1))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * len(vs)
        for i in range(r + 1):
            for _ in range(d):
                e[i * (N + 1) + rng.randint(0, N)] += 1
        terms[tuple(e)] = _rational(rng) or Fraction(1)
    return MHForm(N, r, d, 0, SparsePoly(vs, terms))


def test_det_action_check_matches_substitute():
    rng = random.Random(69)
    verdicts = []
    for _ in range(60):
        N, r, d = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 3)
        kind = rng.choice(("random", "line", "points"))
        if kind == "line":
            r = min(r, N)
            span = [[_rational(rng) for _ in range(N + 1)] for _ in range(r + 1)]
            try:
                F = chow_of_linear(span)
            except ValueError:
                continue
        elif kind == "points":
            F = chow_of_points([[_rational(rng) or 1 for _ in range(N + 1)]
                                for _ in range(d)])
        else:
            F = _random_form(rng, N, r, d)
        n = F.r + 1
        mats = [[[_rational(rng) for _ in range(n)] for _ in range(n)],
                [[Fraction(5, 3) if i == k else 0 for k in range(n)]
                 for i in range(n)],
                [[1 if k == (i + 1) % n else 0 for k in range(n)]
                 for i in range(n)]]
        if n > 1:  # a singular matrix: two equal rows
            mats.append([mats[0][0]] * n)
        for A in mats:
            got = _outcome(det_action_check, F, A)
            assert got == _outcome(_substitute_check, F, A), (F, A)
            verdicts.append((kind, got))
    assert ("random", False) in verdicts and ("random", True) in verdicts
    assert ("line", True) in verdicts and ("points", True) in verdicts
    assert any(v == "matrix is singular" for _, v in verdicts)
    assert all(v is True for k, v in verdicts
               if k != "random" and v != "matrix is singular"), verdicts


def _bucket_sum(te, power):
    """Reference: sum_i g_i * power(i), by SparsePoly products and sums."""
    total = None
    for i, g in enumerate(te.coefficients):
        term = g * power(i)
        total = term if total is None else total + term
    return total


def test_taffy_path_matches_the_bucket_sum():
    rng = random.Random(70)
    forms = [chow_of_linear([(1, 1, 0), (0, 0, 1)]),
             chow_of_linear([(1, 2, -1, 3), (0, 1, 1, Fraction(1, 2))])]
    while len(forms) < 12:
        pts = [[_rational(rng) for _ in range(3)] for _ in range(rng.randint(1, 3))]
        if all(any(p) for p in pts):
            forms.append(chow_of_points(pts))
    paths = 0
    for F in forms:
        te = t_expand(F)
        for t in (Fraction(0), Fraction(1), Fraction(37, 100)):
            got, want = te.recombine(t), _bucket_sum(te, lambda i: t ** i)
            assert got.vars == want.vars and got.terms == want.terms
        try:
            H = taffy(F)
        except ValueError:
            continue  # improper: the cycle meets the base
        paths += 1
        assert H(1).form.terms == F.form.terms
        for t in (Fraction(0), Fraction(1), Fraction(37, 100)):
            got = H(t).form
            want = _bucket_sum(te, lambda i: t ** (te.d - i))
            assert got.vars == want.vars and got.terms == want.terms
    assert paths >= 6


def test_chow_line_and_det_check_build_no_polynomial_per_term(monkeypatch):
    # the Plücker minors and the integer check multiply term dicts; the
    # cofactor expansion and substitute made 58 SparsePoly products here
    calls = []
    mul = SparsePoly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(SparsePoly, "__mul__", counting)
    monkeypatch.setattr(SparsePoly, "__rmul__", counting)
    rng = random.Random(71)
    span = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(2)]
    F = chow_of_linear(span)
    assert det_action_check(F, [[Fraction(2, 3), 1], [-1, Fraction(1, 2)]])
    assert len(calls) <= 2
