"""Acceptance checklist: ten end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
on passing runs too.  Every criterion asserts, so the suite stays red
until all ten hold at their stated tolerances and time budgets.
"""

import random
import time
from fractions import Fraction

from rct.chow import (
    chow_of_linear,
    chow_of_points,
    det_action_check,
    eigenform_degree,
    is_suspension,
    mul_cycles,
    proportional,
    taffy,
)
from rct.critical import (
    RootVerdict,
    critical_polynomials,
    has_d_distinct_real_roots,
    verify_pair_chain,
)
from rct.divisors import (
    Divisor,
    circle_grid,
    in_E,
    in_div_double_prime,
    paper_family,
    positivity_margin,
)
from rct.fan import default_demo, psi_demo
from rct.parse import parse_poly
from rct.poly import SparsePoly, divide_exact
from rct.sturm import count_distinct_roots_total, isolate_roots_bisection


def _fiber_poly(D, direction):
    """D's fiber along a direction, substituted as a SparsePoly in x0."""
    return D.f.substitute({f"x{i + 1}": Fraction(c)
                           for i, c in enumerate(direction)})


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_sturm_agrees_with_bisection():
    rng = random.Random(1001)
    t0 = time.monotonic()
    for _ in range(1000):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([c for c in range(-9, 10) if c])))
        f = SparsePoly.from_dense("x", coeffs)
        n_sturm = count_distinct_roots_total(f, "x")
        n_bisect = len(isolate_roots_bisection(f, Fraction(1, 1024), "x"))
        assert n_sturm == n_bisect, (coeffs, n_sturm, n_bisect)
    elapsed = time.monotonic() - t0
    _verdict(1, elapsed < 30.0,
             f"1000 random polynomials of degree <= 8, counts identical, "
             f"{elapsed:.1f}s (budget 30s)")


def test_criterion_02_critical_predicate_matches_sturm():
    t0 = time.monotonic()
    q = divide_exact(critical_polynomials(2).F[0], parse_poly("a1^2 - 4*a2"))
    assert q is not None and q.is_constant() and q.constant_value() > 0
    rng = random.Random(1002)
    disagreements = 0
    for d in range(3, 7):
        done = 0
        while done < 1000:
            coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
                      for _ in range(d)]
            verdict = has_d_distinct_real_roots(coeffs)
            if verdict is RootVerdict.DEGENERATE:
                continue
            dense = list(reversed(coeffs)) + [Fraction(1)]
            f = SparsePoly.from_dense("x", dense)
            split = count_distinct_roots_total(f, "x") == d
            if (verdict is RootVerdict.TRUE) != split:
                disagreements += 1
            done += 1
    elapsed = time.monotonic() - t0
    _verdict(2, disagreements == 0 and elapsed < 120.0,
             f"F_2 is a positive multiple of a1^2 - 4*a2; 1000 non-degenerate "
             f"samples per d = 3..6, {disagreements} disagreements, "
             f"{elapsed:.1f}s (budget 120s)")


def test_criterion_03_pair_conditions_up_to_8():
    results = {}
    for d in range(2, 9):
        offsets = verify_pair_chain(d)
        assert len(offsets) == d
        assert offsets == [0 if i % 2 == 0 else 2 for i in range(d)]
        results[d] = offsets
    _verdict(3, True,
             f"both pair conditions hold exactly for d = 2..8, offsets "
             f"alternate 0/2 (d=8: {results[8]})")


def _suspension_line(rng, base_dim):
    while True:
        p = tuple(Fraction(rng.randint(-9, 9)) for _ in range(base_dim + 1))
        if any(p):
            vertex = (1,) + (0,) * (base_dim + 1)
            return chow_of_linear([vertex, (0,) + p])


def _plain_line(rng, base_dim):
    # tails independent (misses the vertex), some head nonzero (off the base)
    while True:
        p = tuple(rng.randint(-9, 9) for _ in range(base_dim + 2))
        q = tuple(rng.randint(-9, 9) for _ in range(base_dim + 2))
        if p[0] == 0 and q[0] == 0:
            continue
        if base_dim == 1:
            indep = p[1] * q[2] - p[2] * q[1] != 0
        else:
            cross = (p[2] * q[3] - p[3] * q[2],
                     p[3] * q[1] - p[1] * q[3],
                     p[1] * q[2] - p[2] * q[1])
            indep = any(cross)
        if not indep:
            continue
        return chow_of_linear([p, q])


def test_criterion_04_eigenform_degrees():
    rng = random.Random(1004)
    t0 = time.monotonic()
    for i in range(100):
        F = _suspension_line(rng, 1 + i % 2)
        assert eigenform_degree(F) == F.d == 1
        assert is_suspension(F)
    for i in range(100):
        F = _plain_line(rng, 1 + i % 2)
        assert eigenform_degree(F) is None
        assert not is_suspension(F)
    for _ in range(30):
        A = _suspension_line(rng, 1)
        B = _suspension_line(rng, 1)
        assert eigenform_degree(mul_cycles(A, B)) == 2
    elapsed = time.monotonic() - t0
    _verdict(4, elapsed < 10.0,
             f"100 suspension lines have eigen degree d, 100 generic lines "
             f"none, products add degrees, {elapsed:.1f}s (budget 10s)")


def test_criterion_05_taffy_endpoints():
    rng = random.Random(1005)
    checked = 0
    while checked < 100:
        if checked % 3 == 2:
            try:
                F = _plain_line(rng, 1)
                H = taffy(F)
            except ValueError:
                continue
        else:
            n = 1 + checked % 2
            pts = []
            for _ in range(rng.randint(1, 3)):
                head = rng.choice([c for c in range(-5, 6) if c])
                pts.append((head,) + tuple(rng.randint(-5, 5)
                                           for _ in range(n)))
            F = chow_of_points(pts)
            H = taffy(F)
        assert H(1) == F
        assert is_suspension(H(0))
        checked += 1
    # the worked example: the taffy limit of the skew line is the
    # suspension line {x1 = 0}, projectively exactly
    L = chow_of_linear([(1, 1, 0), (0, 0, 1)])
    end = taffy(L)(0)
    assert proportional(end, chow_of_linear([(1, 0, 0), (0, 0, 1)]))
    _verdict(5, True,
             "100 admissible forms: path(1) == F and path(0) is a "
             "suspension; skew-line limit equals the x1 = 0 line exactly")


def test_criterion_06_det_action():
    rng = random.Random(1006)
    t0 = time.monotonic()
    for i in range(100):
        if i % 2 == 0:
            pts = []
            for _ in range(rng.randint(1, 3)):
                p = (rng.randint(-6, 6), rng.randint(-6, 6))
                if not any(p):
                    p = (1, 1)
                pts.append(p)
            F = chow_of_points(pts)
            while True:
                a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                if a != 0:
                    break
            A = [[a]]
        else:
            F = _plain_line(rng, 1)
            while True:
                A = [[Fraction(rng.randint(-4, 4)) for _ in range(2)]
                     for _ in range(2)]
                if A[0][0] * A[1][1] - A[0][1] * A[1][0] != 0:
                    break
        assert F.d <= 3
        assert det_action_check(F, A)
    elapsed = time.monotonic() - t0
    _verdict(6, True,
             f"F(Au) = det(A)^d F(u) exactly on 100 random pairs with "
             f"d <= 3, {elapsed:.1f}s")


def test_criterion_07_family_membership():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        for k in (1, 2):
            for D in paper_family(n, k):
                rep = in_E(D)
                if n == 1:
                    assert rep.verdict == "member" and rep.mode == "exact"
                else:
                    assert rep.verdict == "evidence_only"
                    assert rep.data["samples_all_certified"] is True
        # the round counterexample is refuted exactly, with a witness
        allvars = " + ".join(f"x{i}^2" for i in range(n + 1))
        bad = Divisor(parse_poly(allvars))
        rep = in_E(bad)
        assert rep.verdict == "non_member" and rep.mode == "exact"
        assert rep.witness is not None
        fib = _fiber_poly(bad, rep.witness)
        assert count_distinct_roots_total(fib, "x0") < bad.d
    elapsed = time.monotonic() - t0
    _verdict(7, elapsed < 60.0,
             f"both family members pass for (n,k) in {{1,2,3}}x{{1,2}}; "
             f"x0^2 + ... + xn^2 refuted with an exact witness, "
             f"{elapsed:.1f}s (budget 60s)")


def test_criterion_08_perturbation_margin():
    H = parse_poly("x1^2 + x2^2")
    delta = Fraction(1)
    eps = positivity_margin(H, delta)
    assert eps == Fraction(1, 6)
    rng = random.Random(1008)
    grid = circle_grid(200)
    monomials = [parse_poly(s) for s in ("x1^2", "x1*x2", "x2^2")]
    for _ in range(100):
        bumped = H
        for mono in monomials:
            c = Fraction(rng.randint(-999, 999), 1000) * eps
            bumped = bumped + mono * c
        for v in grid:
            val = bumped.evaluate({"x1": Fraction(v[0]),
                                   "x2": Fraction(v[1])})
            assert val > 0
    _verdict(8, True,
             "epsilon = 1/6 pinned; 100 perturbations below epsilon keep "
             "the form positive on the whole sample grid")


def test_criterion_09_div_double_prime_hand_cases():
    rep = in_div_double_prime(Divisor(parse_poly("x0^2 - x1^2")))
    assert rep.verdict == "non_member" and rep.mode == "exact"
    assert rep.witness == (Fraction(1),)
    rep = in_div_double_prime(Divisor(parse_poly("x0^2 - 1/9*x1^2")))
    assert rep.verdict == "member" and rep.mode == "exact"
    _verdict(9, True,
             "g(t) = 1 - t^2 rejected at t = 1; g(t) = 1 - t^2/9 accepted; "
             "both decided exactly")


def test_criterion_10_fan_limit():
    t0 = time.monotonic()
    Z, D = default_demo()
    gate = in_div_double_prime(D)
    assert gate.ok()
    ts = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]
    residuals = []
    for t in ts:
        res = psi_demo(Z, D, t, check_divisor=False)
        assert res.output.degree() == D.d * Z.degree()
        residuals.append(res.residual)
    assert residuals[0] > residuals[1] > residuals[2] > 0
    assert residuals[-1] < 1e-2
    elapsed = time.monotonic() - t0
    _verdict(10, elapsed < 10.0,
             f"residuals {['%.2e' % r for r in residuals]} strictly "
             f"decreasing, final < 1e-2, degree d*deg(Z) at every t, "
             f"{elapsed:.1f}s (budget 10s)")
