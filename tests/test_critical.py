"""Symbolic Sturm chain, critical polynomials, and the chain cache."""

import gzip
import json
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import rct.critical as crit
from rct.critical import (
    RootVerdict,
    critical_polynomials,
    has_d_distinct_real_roots,
    in_S_n,
    verify_pair_chain,
)
from rct.critical import _BITS
from rct.hankel import divexact, minors, to_sparse
from rct.parse import parse_poly
from rct.poly import SparsePoly
from rct.sturm import _int_chain, count_distinct_roots_total, sturm_sequence


def _coeff_point(rng, d, span=6):
    return {f"a{i}": Fraction(rng.randint(-span, span), rng.randint(1, 3))
            for i in range(1, d + 1)}


def test_F2_is_the_quadratic_discriminant():
    cs = critical_polynomials(2)
    assert len(cs.F) == 1
    assert cs.F[0] == parse_poly("a1^2 - 4*a2")


def test_d3_values():
    cs = critical_polynomials(3)
    assert cs.F[0] == parse_poly("a1^2 - 3*a2")
    disc = parse_poly(
        "18*a1*a2*a3 - 4*a1^3*a3 + a1^2*a2^2 - 4*a2^3 - 27*a3^2")
    assert cs.F[1] == disc  # F_3 is exactly the classical discriminant


def test_F_d_vanishes_on_double_roots():
    rng = random.Random(41)
    x = SparsePoly.variable("x")
    for d in (3, 4, 5):
        cs = critical_polynomials(d)
        for _ in range(8):
            f = (x - Fraction(rng.randint(-4, 4), rng.randint(1, 3))) ** 2
            for _ in range(d - 2):
                f = f * (x - Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            dense = f.dense_coeffs("x")
            pt = {f"a{i}": dense[d - i] for i in range(1, d + 1)}
            assert cs.F[d - 2].evaluate(pt) == 0


def test_critical_polynomials_are_graded():
    # a_l has weight l: every term of F_j has weight j(j - 1)
    for d in range(2, 7):
        cs = critical_polynomials(d)
        assert len(cs.F) == d - 1
        for j in range(2, d + 1):
            F = cs.F[j - 2]
            weights = [int(v[1:]) for v in F.vars]
            assert {sum(map(operator.mul, weights, e)) for e in F.terms} \
                == {j * (j - 1)}
            assert all(c.denominator == 1 for c in F.terms.values())


def test_chain_shape():
    for d in range(2, 7):
        prs = crit._get_chain(d).prs
        assert len(prs) == d + 1
        assert [len(xp) - 1 for xp in prs] == list(range(d, -1, -1))


def test_pair_offsets_alternate():
    for d in range(2, 7):
        offsets = verify_pair_chain(d)
        assert offsets == [0 if i % 2 == 0 else 2 for i in range(d)]


def test_pair_checker_reads_one_ladder_per_entry(monkeypatch):
    # hand-built packed entries, a1 = key 1 and a2 = key 1 << 8: the pair
    # check reads weight(key) - i over every key of R_j[i] as one ladder
    a1, a2 = 1, 1 << crit._BITS
    R0 = [{a2: 1}, {a1: 1}, {0: 1}]            # x^2 + a1 x + a2
    R1 = [{a1: 1}, {0: 2}]                      # 2x + a1
    R2 = [{2 * a1: 1, a2: -4}]                  # a1^2 - 4 a2
    # the checker memoizes the F_j it reads off these chains
    monkeypatch.setattr(crit, "_set_cache", {})

    def offsets(*prs):
        monkeypatch.setattr(crit, "_get_chain",
                            lambda d: crit._Chain(d, list(prs)))
        return verify_pair_chain(len(prs) - 1)

    assert offsets(R0, R1, R2) == [0, 2]
    # an off-ladder key in one coefficient, and an entry with no key
    with pytest.raises(AssertionError):
        offsets(R0, [{a1: 1, a2: 1}, {0: 2}], R2)
    with pytest.raises(AssertionError):
        offsets(R0, R1, [{}])
    # the weight of c_3 = -9 lc(R_2)^-2 follows lc(R_2): R_2 times a1
    # moves its ladder from 2 to 3 and c_3's weight from -4 to -6
    prs = [[dict(c) for c in xp] for xp in crit._Chain(3).prs]
    assert offsets(*prs) == [0, 2, 0]
    prs[2] = [{k + 1: v for k, v in c.items()} for c in prs[2]]
    assert offsets(*prs) == [0, 3, -3]


def _chain_at(prs, pt):
    """c_j * R_j at the point pt, each an ascending coefficient list, for
    the packed chain prs; a test-local reference built from the packed R_j
    and `_multiplier`.  ZeroDivisionError where a factor lc(R_i)^-2 of c_j
    vanishes."""
    d = len(prs) - 1
    names = tuple(f"a{i}" for i in range(1, d + 1))
    vals = [[to_sparse(c, names, _BITS).evaluate(pt) for c in xp]
            for xp in prs]
    out = []
    for j, row in enumerate(vals):
        c, expo = crit._multiplier(d, j)
        for i, e in expo.items():
            c *= vals[i][-1] ** e
        out.append([c * r for r in row])
    return out


def test_specialization_matches_direct_chain():
    # the symbolic chain evaluated at a generic point is the Sturm chain
    # of the specialized polynomial, entry by entry
    rng = random.Random(42)
    for d in range(2, 6):
        prs = crit._get_chain(d).prs
        done = 0
        while done < 8:
            pt = _coeff_point(rng, d)
            dense = [pt[f"a{i}"] for i in range(d, 0, -1)] + [Fraction(1)]
            f = SparsePoly.from_dense("x", dense)
            direct = sturm_sequence(f, "x")
            if len(direct.polys) != d + 1:
                continue  # non-generic point: chain degenerates
            for j, sym in enumerate(_chain_at(prs, pt)):
                assert sym == list(direct.polys[j]), (d, j)
            done += 1


def _sign(x):
    return (x > 0) - (x < 0)


def test_F_sign_is_leading_sign():
    # lc(f_j) is F_j times a positive rational times a square, so at every
    # point where the chain specializes both carry the same sign
    rng = random.Random(43)
    for d in range(2, 7):
        cs, prs = critical_polynomials(d), crit._get_chain(d).prs
        done = 0
        while done < 6:
            pt = _coeff_point(rng, d)
            try:
                leads = [f[-1] for f in _chain_at(prs, pt)[2:]]
            except ZeroDivisionError:
                continue  # an earlier leading coefficient vanishes here
            if 0 in leads:
                continue
            for j, lc in enumerate(leads, 2):
                assert _sign(lc) == _sign(cs.F[j - 2].evaluate(pt)), (d, j)
            done += 1


def test_verdicts_on_known_polynomials():
    assert has_d_distinct_real_roots([0, -1]) is RootVerdict.TRUE    # x^2 - 1
    assert has_d_distinct_real_roots([0, 1]) is RootVerdict.FALSE    # x^2 + 1
    assert has_d_distinct_real_roots([0, 0]) is RootVerdict.DEGENERATE  # x^2
    assert has_d_distinct_real_roots([0, -1, 0]) is RootVerdict.TRUE  # x^3 - x
    assert has_d_distinct_real_roots([0, 1, 0]) is RootVerdict.FALSE  # x^3 + x
    assert has_d_distinct_real_roots([0, 0, 0]) is RootVerdict.DEGENERATE


def test_in_S_n_is_exact_on_degenerate_points():
    # (x-1)^2 (x+2): the F-route degenerates, the Sturm fallback decides
    f = parse_poly("(x-1)^2 * (x+2)")
    dense = f.dense_coeffs("x")
    coeffs = [dense[2], dense[1], dense[0]]
    assert has_d_distinct_real_roots(coeffs) is RootVerdict.DEGENERATE
    assert in_S_n(coeffs) is False
    # x(x-1)(x+1) scaled so a coefficient vanishes but roots stay distinct
    assert in_S_n([0, -1, 0]) is True


def test_in_S_n_matches_sturm_random():
    rng = random.Random(44)
    for d in range(2, 6):
        for _ in range(120):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
            f = SparsePoly.from_dense(
                "x", list(reversed([Fraction(1)] + coeffs)))
            want = count_distinct_roots_total(f, "x") == d
            assert in_S_n(coeffs) is want, coeffs


def _oracle_verdict(p0):
    # the full primitive PRS: degrees d, d - 1, ..., 0, then the signs of
    # its leading coefficients
    chain = _int_chain(p0)[0]
    if [len(p) for p in chain] != list(range(len(p0), 0, -1)):
        return RootVerdict.DEGENERATE, len(chain[-1]) > 1
    return (RootVerdict.TRUE if all(p[-1] > 0 for p in chain)
            else RootVerdict.FALSE), False


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _seeded_point(rng, d):
    """Integer p0 of degree d (ascending): sparse random coefficients, or a
    product of real linear factors, some repeated, and complex pairs."""
    if rng.random() < 0.4:
        return [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(d)] \
            + [rng.randint(1, 3)]
    p0, roots = [rng.choice((1, 1, 2, -1))], []
    while len(p0) <= d:
        if len(p0) < d and rng.random() < 0.25:
            b = rng.randint(-3, 3)
            p0 = _poly_mul(p0, [b * b // 4 + rng.randint(1, 4), b, 1])
            continue
        r = rng.choice(roots) if roots and rng.random() < 0.3 \
            else rng.randint(-6, 6)
        roots.append(r)
        p0 = _poly_mul(p0, [-r, 1])
    return p0


def _wide_point(rng, d):
    """Integer p0 of degree d with 20-bit coefficients and a leading
    coefficient in 1..50: dense random, or a product of rational linear
    factors, with or without repeats and complex pairs."""
    lead = rng.randint(1, 50)
    if rng.random() < 0.3:
        return [rng.choice((0, rng.randint(-(1 << 20), 1 << 20)))
                for _ in range(d)] + [lead]
    p0, roots = [lead], []
    repeats, pairs = rng.choice((0, 0, 1 / 3)), rng.choice((0, 0.2))
    while len(p0) <= d:
        if len(p0) < d and rng.random() < pairs:
            b = rng.randint(-30, 30)
            p0 = _poly_mul(p0, [b * b // 4 + rng.randint(1, 40), b, 1])
            continue
        r = rng.choice(roots) if roots and rng.random() < repeats \
            else (rng.randint(-200, 200), rng.randint(1, 7))
        roots.append(r)
        p0 = _poly_mul(p0, [-r[0], r[1]])
    return p0


def test_point_verdict_matches_full_chain():
    # the walk that keeps two PRS entries reads what the full primitive
    # chain reads, on degrees 1..12 with repeated roots, complex pairs,
    # zero coefficients and degree drops of squarefree points, and on
    # degrees up to 32 with 20-bit and non-monic coefficients
    rng = random.Random(18)
    seen = set()
    for d in range(1, 13):
        for _ in range(80):
            p0 = _seeded_point(rng, d)
            want, repeated = _oracle_verdict(p0)
            assert crit._point_verdict(p0) is want, p0
            seen.add((want, repeated))
    assert seen == {(RootVerdict.TRUE, False), (RootVerdict.FALSE, False),
                    (RootVerdict.DEGENERATE, False),
                    (RootVerdict.DEGENERATE, True)}
    rng = random.Random(20)
    seen = set()
    for d in range(1, 33):
        for _ in range(8):
            p0 = _wide_point(rng, d)
            want, repeated = _oracle_verdict(p0)
            assert crit._point_verdict(p0) is want, p0
            seen.add((want, repeated, d > 16))
    assert seen >= {(v, False, True) for v in RootVerdict} \
        | {(RootVerdict.DEGENERATE, True, True)}


def test_point_verdict_divides_by_the_dividend():
    # a split point keeps its PRS small: 0.1-0.2 ms for this d = 16 point
    # (roots -15/2, -13/2, ..., 15/2) on the primitive walk.  The bound
    # catches a walk whose entries grow: dividing each remainder by the lc
    # of the dividend one step back, exact too, takes about 2 s here
    p0 = [1]
    for r in range(-8, 8):
        p0 = _poly_mul(p0, [-(2 * r + 1), 2])
    start = time.perf_counter()
    assert crit._point_verdict(p0) is RootVerdict.TRUE
    assert time.perf_counter() - start < 0.5


def test_degree_bounds_enforced():
    with pytest.raises(ValueError):
        critical_polynomials(1)
    with pytest.raises(ValueError):
        critical_polynomials(9)
    with pytest.raises(ValueError):
        verify_pair_chain(1)
    with pytest.raises(ValueError):
        has_d_distinct_real_roots([1])
    # past the Sturm degree cap point queries are refused before any chain
    for query in (has_d_distinct_real_roots, in_S_n):
        with pytest.raises(ValueError, match="d <= 256"):
            query([1] * 257)


def _sign(x):
    return (x > 0) - (x < 0)


def _det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def _hankel_minor_signs(coeffs):
    """Signs of the leading principal minors 2..d of (p_{i+j}), with the
    Newton sums taken as traces of powers of the companion matrix."""
    d = len(coeffs)
    C = [[Fraction(int(i == j + 1)) for j in range(d)] for i in range(d)]
    for i in range(d):
        C[i][d - 1] = -coeffs[d - 1 - i]
    P = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    p = []
    for _ in range(2 * d - 1):
        p.append(sum(P[i][i] for i in range(d)))
        P = [[sum(P[i][k] * C[k][j] for k in range(d)) for j in range(d)]
             for i in range(d)]
    return [_sign(_det([p[i:i + j] for i in range(j)]))
            for j in range(2, d + 1)]


def _monic_from_roots(roots):
    c = [Fraction(1)]
    for r in roots:
        c = [a - r * b for a, b in zip(c + [0], [0] + c)]
    return c[1:]


def test_critical_polynomials_track_point_verdicts():
    # the point route reads Hankel minors, not the symbolic F_j; both must
    # carry the same sign at every index, including at repeated roots
    rng = random.Random(45)
    seen = set()
    for d in range(2, 9):
        cs = critical_polynomials(d)
        for trial in range(12 if d <= 6 else 4):
            kind = trial % 4
            if kind == 0:
                coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(d)]
            elif kind == 1:
                coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(d)]
            else:
                roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(d)]
                if kind == 3:
                    roots[-1] = roots[0]
                coeffs = _monic_from_roots(roots)
            pt = {f"a{i}": c for i, c in enumerate(coeffs, start=1)}
            signs = [_sign(F.evaluate(pt)) for F in cs.F]
            assert signs == _hankel_minor_signs(coeffs), (d, coeffs)
            if 0 in signs:
                want = RootVerdict.DEGENERATE
            elif -1 in signs:
                want = RootVerdict.FALSE
            else:
                want = RootVerdict.TRUE
            assert has_d_distinct_real_roots(coeffs) is want, (d, coeffs)
            seen.add(want)
    assert seen == set(RootVerdict)


def test_point_verdicts_past_the_symbolic_chain():
    # d = 9..14: the verdict read off the integer Sturm chain against the
    # independently computed Hankel minors, with the direct count as in_S_n
    rng = random.Random(46)
    seen = set()
    for d in range(9, 15):
        for kind in ("split", "nonsplit", "repeated"):
            if kind == "nonsplit":
                coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 2))
                          for _ in range(d)]
            else:
                roots = rng.sample(range(-9, 10), d)
                if kind == "repeated":
                    roots[-1] = roots[0]
                coeffs = _monic_from_roots([Fraction(r, 2) for r in roots])
            signs = _hankel_minor_signs(coeffs)
            if 0 in signs:
                want = RootVerdict.DEGENERATE
            elif -1 in signs:
                want = RootVerdict.FALSE
            else:
                want = RootVerdict.TRUE
            assert has_d_distinct_real_roots(coeffs) is want, (d, coeffs)
            poly = SparsePoly.from_dense("x", coeffs[::-1] + [Fraction(1)])
            assert in_S_n(coeffs) == (count_distinct_roots_total(poly) == d)
            assert in_S_n(coeffs) == (kind == "split")
            seen.add(want)
    assert seen == set(RootVerdict)


# ---- Hankel construction against the reduced PRS ----


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


def _wp_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _prem_step(a, b):
    """Pseudo-remainder of a by b (ascending, degrees n and n - 1): the n - 1
    low coefficients of q0^2*a - (p0*q0*x + (p1*q0 - p0*q1))*b."""
    n = len(a) - 1
    q0, p0, p1 = b[n - 1], a[n], a[n - 1]
    q1 = b[n - 2] if n >= 2 else {}
    q0q0 = _dict_mul(q0, q0)
    u = _dict_mul(p0, q0)
    v = _wp_sub(_dict_mul(p1, q0), _dict_mul(p0, q1))
    out = []
    for k in range(n - 1):
        t = _dict_mul(q0q0, a[k])
        if k >= 1:
            t = _wp_sub(t, _dict_mul(u, b[k - 1]))
        out.append(_wp_sub(t, _dict_mul(v, b[k])))
    while out and not out[-1]:
        out.pop()
    return out


def _reduced_prs(d):
    """The reduced PRS R_{i+1} = prem(R_{i-1}, R_i) / lc(R_{i-1})^2 from f
    and f', with the strict-Euclid multiplier of every entry."""
    f = [{1 << (_BITS * (d - k - 1)): 1} for k in range(d)] + [{0: 1}]
    prs = [f, [{key: v * (k + 1) for key, v in f[k + 1].items()}
               for k in range(d)]]
    signs, scalars, expos = [1, 1], [Fraction(1), Fraction(1)], [{}, {}]
    while len(prs[-1]) > 1:
        i = len(prs) - 1
        A, B = prs[-2], prs[-1]
        R = _prem_step(A, B)
        if i >= 2:
            R = [divexact(divexact(c, A[-1], d, _BITS), A[-1], d, _BITS)
                 if c else {}
                 for c in R]
        assert len(R) == len(B) - 1
        prs.append(R)
        scalar, expo = scalars[i - 1], dict(expos[i - 1])
        if i >= 2:
            if A[-1].keys() == {0}:
                scalar *= Fraction(A[-1][0]) ** 2
            else:
                expo[i - 1] = expo.get(i - 1, 0) + 2
        if B[-1].keys() == {0}:
            scalar /= Fraction(B[-1][0]) ** 2
        else:
            expo[i] = expo.get(i, 0) - 2
        signs.append(-signs[i - 1])
        scalars.append(scalar)
        expos.append({k: e for k, e in expo.items() if e})
    return prs, signs, scalars, expos


def test_hankel_chain_equals_reduced_prs():
    import rct.critical as crit

    for d in range(2, 8):
        ch = crit._Chain(d)
        prs, signs, scalars, expos = _reduced_prs(d)
        assert ch.prs == prs, d
        for j in range(d + 1):
            assert crit._multiplier(d, j) == (signs[j] * scalars[j], expos[j]), \
                (d, j)


def _generic(d, a1=True):
    """a = [1, a_1, ..., a_d] packed as the chain packs them; a_1 = 0 when
    a1 is False."""
    a = [{0: 1}] + [{1 << (_BITS * l): 1} for l in range(d)]
    if not a1:
        a[1] = {}
    return a


def test_lifted_chain_equals_generic_elimination():
    # the elimination over generic a_1..a_d is the lift's test oracle
    for d in range(2, 8):
        assert crit._Chain(d).prs == crit._hankel_chain(_generic(d), d), d


def test_cayley_operator_identities():
    # Omega kills the Hankel pivots (seminvariants) and acts on every R_j
    # as d/dx, coefficientwise (shift covariance): the two facts the lift
    # rests on, checked on the generic elimination
    for d in range(2, 7):
        for j, row in enumerate(minors(_generic(d), d, _BITS)):
            assert crit._omega(row[0], d) == {}, (d, j)
        for j, xp in enumerate(crit._hankel_chain(_generic(d), d)):
            for m, c in enumerate(xp):
                above = xp[m + 1] if m + 1 < len(xp) else {}
                assert crit._omega(c, d) == \
                    {k: (m + 1) * v for k, v in above.items()}, (d, j, m)


def test_lift_raises_on_a_corrupted_depressed_entry():
    d = 5
    dep = crit._hankel_chain(_generic(d, a1=False), d)
    assert crit._lift(dep, d) == crit._Chain(d).prs
    key = next(iter(dep[3][0]))
    dep[3][0][key] += 1
    with pytest.raises(ArithmeticError, match="inexact"):
        crit._lift(dep, d)


def test_cold_d8_chain_builds_in_seconds():
    # the elimination over generic a took about 25 s at d = 8
    t0 = time.perf_counter()
    ch = crit._Chain(8)
    assert time.perf_counter() - t0 < 8
    assert crit._verify_chain(ch)


def _fresh(code: str) -> str:
    """stdout of `python -c code` in a fresh interpreter that imports rct
    from this checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


_LOADED = "\nprint(sorted(m for m in sys.modules if m.startswith('rct')))"


def test_import_leaves_numpy_out():
    _fresh("import rct, sys; from rct import *; "
           "assert 'numpy' not in sys.modules")


def test_import_rct_loads_no_submodule():
    assert _fresh("import rct, sys" + _LOADED) == "['rct']\n"


def test_a_command_loads_only_its_modules():
    def loaded(*argv):
        return _fresh("import contextlib, io, sys, rct.cli\n"
                      "with contextlib.redirect_stdout(io.StringIO()):\n"
                      f"    rct.cli.main({list(argv)!r})" + _LOADED)

    assert loaded("sturm", "count", "x^2 - 2") == \
        "['rct', 'rct.cli', 'rct.parse', 'rct.poly', 'rct.sturm']\n"
    out = loaded("critical", "gen", "--d", "4")
    assert "rct.critical" in out
    for name in ("rct.chow", "rct.fan", "rct.divisors"):
        assert name not in out, out
    # point verdicts live in sturm, so the divisor and fan commands never
    # load the symbolic chain's module
    for argv in (("div", "in-e", "--poly", "x0^2 - x1^2 - x2^2"),
                 ("div", "in-div2", "--poly", "x0^2 - 1/9*x1^2", "--n", "1"),
                 ("fan", "demo", "--limit", "1/10,1/100")):
        out = loaded(*argv)
        assert "rct.divisors" in out and "rct.critical" not in out, (argv, out)


def test_lazy_package_resolves_every_public_name():
    _fresh("import rct, importlib\n"
           "names = [n for n in rct.__all__ if n != '__version__']\n"
           "for n in names:\n"
           "    home = importlib.import_module('rct.' + rct._HOME[n])\n"
           "    assert getattr(rct, n) is getattr(home, n), n\n"
           "assert set(rct.__all__) <= set(dir(rct))\n"
           "ns = {}\n"
           "exec('from rct import *', ns)\n"
           "assert set(rct.__all__) <= set(ns)")
    # README cites limits such as rct.parse.MAX_INPUT_CHARS
    assert _fresh("import rct; print(rct.parse.MAX_INPUT_CHARS)") == "65536\n"


def test_importing_a_submodule_binds_its_names():
    _fresh("import rct, rct.sturm\n"
           "for n in rct._PUBLIC['sturm']:\n"
           "    assert n in vars(rct) and getattr(rct, n) is "
           "getattr(rct.sturm, n), n\n"
           "assert 'SparsePoly' in vars(rct)  # sturm imports poly\n"
           "assert 'in_E' not in vars(rct)")


# ---- chain disk cache ----


def test_chain_cache_roundtrip(tmp_path, monkeypatch):
    import rct.critical as crit

    monkeypatch.setenv("RCT_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(crit, "_DISK_CACHE_MIN_D", 3)
    ch = crit._get_chain(3)
    files = list(tmp_path.glob("chain-*-d3.json.gz"))
    assert len(files) == 1
    loaded = crit._load_cached_chain(3)
    assert loaded is not None
    assert loaded.prs == ch.prs
    # corruption is detected and discarded, never trusted
    files[0].write_bytes(b"not gzip json")
    assert crit._load_cached_chain(3) is None


def test_critical_polynomials_hold_no_chain_that_has_a_file(tmp_path,
                                                            monkeypatch):
    # the F_j are kept, packed, and no chain: a later reader loads the
    # chain from its file rather than build it
    import rct.critical as crit

    monkeypatch.setenv("RCT_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(crit, "_DISK_CACHE_MIN_D", 3)
    monkeypatch.setattr(crit, "_set_cache", {})
    builds, build = [], crit._hankel_chain

    def counted(a, nvars):
        if nvars:              # nvars = 0 is the load check's point
            builds.append(nvars)
        return build(a, nvars)

    monkeypatch.setattr(crit, "_hankel_chain", counted)
    cs = crit.critical_polynomials(4)
    assert builds == [4]
    assert cs.F[0] == parse_poly("3*a1^2 - 8*a2")
    assert crit.verify_pair_chain(4) == crit.verify_pair_chain(4)
    assert builds == [4]
    # a chain whose file could not be written is built again
    monkeypatch.setattr(crit, "_store_cached_chain", lambda ch: False)
    crit.critical_polynomials(5)
    crit.verify_pair_chain(5)
    assert builds == [4, 5, 5]


def test_cache_verification_rejects_wrong_chain(tmp_path, monkeypatch):
    # a structurally valid file whose polynomials were tampered with
    import rct.critical as crit

    monkeypatch.setenv("RCT_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(crit, "_DISK_CACHE_MIN_D", 3)
    ch = crit._get_chain(3)
    tampered = crit._Chain(
        3,
        [[{k: v + (1 if i == 2 and j == 0 else 0)
           for k, v in wp.items()} or wp for j, wp in enumerate(entry)]
         for i, entry in enumerate(ch.prs)])
    crit._store_cached_chain(tampered)
    assert crit._load_cached_chain(3) is None


def test_verify_chain_accepts_built_and_rejects_perturbed():
    # every entry is checked against the Sturm chain of a specialization,
    # so one changed integer coefficient anywhere is caught: the constant,
    # a middle one and the leading one, which also enters the multipliers
    # of later entries with exponent -2
    import rct.critical as crit

    for d in range(2, 8):
        ch = crit._get_chain(d)
        assert crit._verify_chain(ch), d
        for i in range(d + 1):
            for m in sorted({0, (d - i) // 2, d - i}):
                prs = [[dict(wp) for wp in entry] for entry in ch.prs]
                key = next(iter(prs[i][m]))
                prs[i][m][key] += 1
                bad = crit._Chain(d, prs)
                assert not crit._verify_chain(bad), (d, i, m)


def test_verify_chain_refuses_keys_off_the_half_tables():
    # keys are weighed and evaluated by halves; a key whose high or low
    # half alone passes the top weight d(d - 1), one that moves an
    # exponent between the halves, a negative key and one past a_d are
    # refused, not raised on
    import rct.critical as crit

    a = {l: 1 << (crit._BITS * (l - 1)) for l in range(1, 9)}  # a_l's key
    for d, bad_keys in ((3, (-1, 1 << 24, 255 * a[1])),
                        (6, (255 * a[5], 255 * a[2] + a[6], a[4] + a[5])),
                        (8, (255 * a[8], 200 * a[1] + 200 * a[6],
                             a[4] + a[5], 1 << 64))):
        ch = crit._get_chain(d)
        assert crit._verify_chain(ch), d
        for key in bad_keys:
            prs = [[dict(c) for c in xp] for xp in ch.prs]
            prs[2][0][key] = 1
            assert not crit._verify_chain(crit._Chain(d, prs)), (d, key)


def _read_record(crit, d):
    with gzip.open(crit._chain_cache_path(d), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _write_record(crit, d, record):
    path = crit._chain_cache_path(d)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(record, fh)


def test_cache_record_is_prs_only_and_legacy_keys_still_load(tmp_path, monkeypatch):
    # a record holds format, bits, d and prs; one that still carries the
    # multiplier lists of format 1 loads too, and they are never read
    import rct.critical as crit

    monkeypatch.setenv("RCT_CACHE_DIR", str(tmp_path))
    ch = crit._Chain(4)
    crit._store_cached_chain(ch)
    record = _read_record(crit, 4)
    assert sorted(record) == ["bits", "d", "format", "prs"]
    loaded = crit._load_cached_chain(4)
    assert loaded is not None and loaded.prs == ch.prs
    assert sorted(vars(loaded)) == ["d", "prs"]

    _, signs, scalars, expos = _reduced_prs(4)
    record.update(signs=signs, scalars=[str(s) for s in scalars],
                  expos=[{str(k): e for k, e in ex.items()} for ex in expos])
    _write_record(crit, 4, record)
    loaded = crit._load_cached_chain(4)
    assert loaded is not None and loaded.prs == ch.prs
    # the legacy lists are not trusted either: wrong ones change nothing
    record.update(signs=[7] * 5, scalars=["0"] * 5, expos=[{}] * 5)
    _write_record(crit, 4, record)
    assert crit._load_cached_chain(4) is not None


def test_cache_rejects_malformed_records(tmp_path, monkeypatch):
    import rct.critical as crit

    monkeypatch.setenv("RCT_CACHE_DIR", str(tmp_path))
    good = {"format": 1, "bits": crit._BITS, "d": 3}
    for record in ([], dict(good), dict(good, prs=[[1]]),
                   dict(good, prs=[[{"x": 1}]]), dict(good, d=4, prs=[])):
        _write_record(crit, 3, record)
        assert crit._load_cached_chain(3) is None, record
    # keys outside 0 <= k < 2^(8d): a negative one, and one with a field
    # past a_d, each added to a correct chain
    crit._store_cached_chain(crit._Chain(3))
    built = _read_record(crit, 3)
    for key in (-1, 1 << (crit._BITS * 3)):
        record = json.loads(json.dumps(built))
        record["prs"][2][0][str(key)] = 1
        _write_record(crit, 3, record)
        assert crit._load_cached_chain(3) is None, key


def test_cache_check_refuses_a_renamed_monomial(tmp_path, monkeypatch):
    # a2^2 * a7 and a1 * a5^2 have the same weight 11, and at the fixed
    # trial points of earlier versions also the same value; renaming the
    # one to the other in the constant coefficient of R_3 at d = 8 gives a
    # wrong chain that passes the weight test and must fail at the point
    a = {l: 1 << (crit._BITS * (l - 1)) for l in range(1, 9)}  # a_l's key
    prs = [[dict(c) for c in xp] for xp in crit._get_chain(8).prs]
    prs[3][0][a[1] + 2 * a[5]] = prs[3][0].pop(2 * a[2] + a[7])
    bad = crit._Chain(8, prs)
    assert not crit._verify_chain(bad)
    monkeypatch.setenv("RCT_CACHE_DIR", str(tmp_path))
    crit._store_cached_chain(bad)
    assert crit._load_cached_chain(8) is None
