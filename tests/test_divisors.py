"""Divisor classes: Div', E, Div'' and their certificates."""

import hashlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from rct.divisors import (
    DEFAULT_GRID_N3,
    MAX_GRID,
    Divisor,
    _FiberChecker,
    _certify_grid,
    _g_of_t,
    _integer_coefficients,
    _line_pivots,
    circle_grid,
    default_grid,
    e_certificate_forms,
    in_E,
    in_div_double_prime,
    in_div_prime,
    paper_family,
    positivity_margin,
    sampled_sphere_min,
    scale_divisor,
    sphere_grid,
)
import rct.critical as critical
import rct.divisors as divisors_mod
from rct.critical import RootVerdict, critical_polynomials
from rct.parse import parse_poly
from rct.sturm import (
    MAX_DEGREE,
    _changes_at_infinity,
    _int_chain,
    count_distinct_roots_total,
)
from rct.poly import SparsePoly, format_poly, poly_divmod


def _fiber_poly(D, direction):
    """D's fiber along a direction, substituted as a SparsePoly in x0."""
    return D.f.substitute({f"x{i + 1}": Fraction(c)
                           for i, c in enumerate(direction)})


def P(s):
    return parse_poly(s)


def test_divisor_shape():
    D = Divisor(P("x0^2 - 9*x1^2"))
    assert (D.n, D.d) == (1, 2)
    assert D.normalized
    ps = D.x0_coefficients()
    assert set(ps) == {0, 2}
    assert ps[0].constant_value() == 1
    assert ps[2] == P("-9*x1^2").with_vars(("x1",))


def test_divisor_embeds_into_larger_n():
    D = Divisor(P("x0^3 - x1^3"), n=3)
    assert D.n == 3
    assert D.f.vars == ("x0", "x1", "x2", "x3")


def test_divisor_rejects_bad_input():
    with pytest.raises(ValueError):
        Divisor(P("x0^2 - x1"))          # not homogeneous
    with pytest.raises(ValueError):
        Divisor(P("x0 + y0"))            # foreign variable
    with pytest.raises(ValueError):
        Divisor(P("x0*x2"), n=1)         # variable beyond stated n
    with pytest.raises(ValueError):
        Divisor(SparsePoly.zero(("x0",)))


def test_divisor_json_roundtrip():
    D = paper_family(2, 2)[0]
    again = Divisor.from_json_dict(D.to_json_dict())
    assert again == D and again.normalized == D.normalized


def test_div_prime():
    ok, norm = in_div_prime(Divisor(P("2*x0^2 - x1^2")))
    assert ok and norm.normalized
    assert norm.f == P("x0^2 - 1/2*x1^2").with_vars(("x0", "x1"))
    ok, norm = in_div_prime(Divisor(P("x0*x1")))
    assert not ok and norm is None


def test_scale_divisor_values():
    D = Divisor(P("x0^2 - 9*x1^2"))
    Dt = scale_divisor(D, Fraction(1, 3))
    assert Dt.f == P("x0^2 - x1^2").with_vars(("x0", "x1"))
    assert scale_divisor(D, 0).f == P("x0^2").with_vars(("x0", "x1"))
    assert scale_divisor(D, 1) == D


def test_scale_divisor_group_law():
    rng = random.Random(71)
    D = paper_family(2, 2)[0]
    for _ in range(15):
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert scale_divisor(scale_divisor(D, t), s) == scale_divisor(D, t * s)


def test_scale_divisor_needs_normalized():
    with pytest.raises(ValueError):
        scale_divisor(Divisor(P("2*x0^2 - x1^2")), Fraction(1, 2))


def test_paper_family_hand_expansions():
    G, Gp = paper_family(1, 1)
    assert G.f == P("x0^2 - x1^2").with_vars(("x0", "x1"))
    assert Gp.f == P("x0^3 - x0*x1^2").with_vars(("x0", "x1"))
    G2, Gp2 = paper_family(2, 2)
    S = P("x1^2 + x2^2")
    want = (P("x0^2") - S) * (P("x0^2") - 2 * S)
    assert G2.f == want.with_vars(("x0", "x1", "x2"))
    assert (G2.d, Gp2.d) == (4, 5)
    with pytest.raises(ValueError):
        paper_family(0, 1)


@pytest.mark.parametrize("n,digest", [(4, "a499f32a4def6808"),
                                      (16, "ccc7e1d514c5048f")])
def test_default_grid_digest(n, digest):
    # the n >= 4 grids are the stream random.Random(0).randint(-999, 999)
    # would draw; the digests were taken from that stream
    grid = default_grid(n)
    assert len(grid) == n + DEFAULT_GRID_N3
    assert hashlib.sha256(repr(grid).encode()).hexdigest()[:16] == digest


def test_grids_are_deterministic_and_nonzero():
    a = circle_grid(50)
    assert a == circle_grid(50)
    assert a[:2] == [(1, 0), (0, 1)]
    assert all(isinstance(c, int) for v in a for c in v)
    assert all(any(v) for v in a)
    b = sphere_grid(200)
    assert b == sphere_grid(200)
    assert b[:3] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert all(any(v) for v in b)
    import math
    for v in b:
        assert math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1
    c = default_grid(4, 30)
    assert c == default_grid(4, 30)
    # each call returns a fresh list: mutating one leaves the next intact
    want = list(c)
    c[0] = (7, 7, 7, 7)
    c.clear()
    assert default_grid(4, 30) == want
    assert default_grid(1) == [(1,)]
    assert len(default_grid(2, 1)) == 3  # the two axes plus one sample
    for n in (1, 2, 3, 4):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="at least 1"):
                default_grid(n, bad)


def _count_fiber_chains(monkeypatch) -> dict:
    """Count, in calls["chain"], the full chains in_E builds on the fibers
    `_FiberChecker.fiber` returns, leaving out the Sturm chains of the
    n = 2 certificate's pivots M_j (`_circle_certified`)."""
    calls, fibers = {"chain": 0}, {}
    fiber, chain = _FiberChecker.fiber, divisors_mod._int_chain

    def recorded(self, direction):
        out = fiber(self, direction)
        fibers[id(out)] = out      # held, so that no id is reused
        return out

    def counted(p0):
        calls["chain"] += id(p0) in fibers
        return chain(p0)

    monkeypatch.setattr(_FiberChecker, "fiber", recorded)
    monkeypatch.setattr(divisors_mod, "_int_chain", counted)
    return calls


def test_in_e_members_build_no_chain(monkeypatch):
    # a member walks each direction's PRS and keeps no chain; only a
    # refuting direction builds the full chain for its certificate
    calls = _count_fiber_chains(monkeypatch)
    for n, grid in ((2, 200), (3, 300)):
        rep = in_E(paper_family(n, 2)[1], grid)
        assert rep.verdict == "evidence_only", n
        assert calls["chain"] == 0, n
    in_E(Divisor(P("x0^2 + x1^2 + x2^2")), 50)
    assert calls["chain"] == 1


def test_primitive_fiber_is_the_substituted_fiber():
    # along a rational direction, the integer kernel gives the primitive
    # integer form of the substituted fiber, sign and all
    rng = random.Random(23)
    divisors = [paper_family(2, 2)[0], paper_family(3, 1)[1],
                Divisor(P("x0^3 - 2/3*x0*x1^2 + 5/7*x1*x2^2 - 1/4*x2^3")),
                Divisor(P("x0^2 - 1/9*x1^2"))]
    for D in divisors:
        checker = _FiberChecker(D)
        for _ in range(20):
            w = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                 for _ in range(D.n)]
            fib = _fiber_poly(D, w)
            if fib.is_zero():
                continue
            cs = fib.dense_coeffs("x0")
            den = lcm(*(c.denominator for c in cs))
            ints = [int(c * den) for c in cs]
            g = gcd(*ints)
            assert checker.primitive_fiber(w) == [c // g for c in ints], (D, w)


def test_in_e_line_case_exact():
    rep = in_E(Divisor(P("x0^2 - 9*x1^2")))
    assert rep.verdict == "member" and rep.mode == "exact"
    rep = in_E(Divisor(P("x0^2 + x1^2")))
    assert rep.verdict == "non_member" and rep.mode == "exact"
    assert rep.witness == (Fraction(1),)


def test_in_e_plane_case():
    rep = in_E(paper_family(2, 1)[0], grid_size=300)
    assert rep.verdict == "evidence_only" and rep.mode == "sampled"
    assert rep.data["grid_size"] == 302
    rep = in_E(Divisor(P("x0^2 + x1^2 + x2^2")), grid_size=300)
    assert rep.verdict == "non_member" and rep.mode == "exact"
    assert rep.witness is not None
    # the witness direction really does fail: fiber has no real roots
    fib = _fiber_poly(Divisor(P("x0^2 + x1^2 + x2^2")), rep.witness)
    assert count_distinct_roots_total(fib, "x0") == 0


def test_in_e_vertex_on_divisor():
    rep = in_E(Divisor(P("x0*x1^2 + x1^3")))
    assert rep.verdict == "non_member" and rep.mode == "exact"


def _euclid_length(f, var):
    """Entries of the Euclid chain f, f', -(f mod f'), ... from poly_divmod."""
    chain = [f, f.derivative(var)]
    while True:
        _, r = poly_divmod(chain[-2], chain[-1], var)
        if r.is_zero():
            return len(chain)
        chain.append(-r)


def test_in_e_certificates_match_sturm(monkeypatch):
    # in_E over a one-direction grid: a member sample has d distinct real
    # roots, and a refuting certificate holds the route of the full chain
    # and its count, the count of the substituted fiber, below d
    rng = random.Random(72)
    divisors = [
        paper_family(2, 1)[0],
        paper_family(2, 2)[0],
        Divisor(P("x0^2 + x1^2 + x2^2"), n=2),
        Divisor(P("x0^3 - x0*x1^2 - 1/7*x2^3"), n=2),
        Divisor(P("(x0 - x1)^2*(x0 + x2)"), n=2),
    ]
    routes = set()
    for D in divisors:
        for _ in range(40):
            v = (rng.randint(-20, 20), rng.randint(-20, 20))
            if not any(v):
                continue
            monkeypatch.setattr(divisors_mod, "_grid", lambda n, count: (v,))
            rep = in_E(D)
            fib = _fiber_poly(D, v)
            count = count_distinct_roots_total(fib, "x0")
            if rep.verdict == "evidence_only":
                assert count == D.d
                routes.add("member")
                continue
            assert rep.verdict == "non_member" and rep.witness == v
            cert = rep.data["certificate"]
            assert cert["direction"] == [str(c) for c in v]
            # a chain short of d + 1 entries is degenerate
            full = _euclid_length(fib, "x0") == D.d + 1
            assert cert["route"] == ("critical" if full else "critical-degenerate")
            assert cert["sturm_count"] == count < D.d
            routes.add(cert["route"])
    assert routes == {"member", "critical", "critical-degenerate"}


@pytest.mark.parametrize("text, visited", [
    ("x0^2 + x1^2 + x2^2", 1),     # refuted at the first direction, (1, 0)
    ("x0^2 - x1^2 + x2^2", 2),     # and at the second, (0, 1)
])
def test_in_e_walks_each_direction_once(monkeypatch, text, visited):
    # one point verdict per visited direction, and one full chain on a
    # fiber, for the refuting direction's certificate
    calls = _count_fiber_chains(monkeypatch)
    calls["verdict"] = 0
    verdict = divisors_mod._point_verdict

    def counted(p0):
        calls["verdict"] += 1
        return verdict(p0)

    monkeypatch.setattr(divisors_mod, "_point_verdict", counted)
    rep = in_E(Divisor(P(text)), grid_size=300)
    assert rep.verdict == "non_member"
    assert calls == {"verdict": visited, "chain": 1}


def _walked_report(D, grid_size):
    """(verdict, mode, witness, data) of in_E's walk over every grid
    direction, one point verdict each, with no n = 2 certificate."""
    D = in_div_prime(D)[1]
    checker = _FiberChecker(D)
    grid = default_grid(2, grid_size)
    for v in grid:
        p0 = checker.fiber(v)
        verdict = critical._point_verdict(p0)
        if verdict is RootVerdict.TRUE:
            continue
        v_neg, v_pos = _changes_at_infinity(_int_chain(p0)[0])
        route = "critical" if verdict is RootVerdict.FALSE \
            else "critical-degenerate"
        return ("non_member", "exact", tuple(Fraction(c) for c in v),
                {"certificate": {"direction": [str(c) for c in v],
                                 "route": route, "sturm_count": v_neg - v_pos},
                 "grid_size": len(grid)})
    return ("evidence_only", "sampled", None,
            {"grid_size": len(grid), "samples_all_certified": True})


def _seeded_plane_divisors(rng, d):
    """n = 2 divisors of degree d >= 2: a paper-family member scaled by
    1/3, products of distinct factors x0 - (a x1 + b x2), each two of which
    meet along a direction that may fall between grid samples, and dense
    ones."""
    k, odd = divmod(d, 2)
    out = [scale_divisor(paper_family(2, k)[odd], Fraction(1, 3))]
    for _ in range(6):
        slopes = set()
        while len(slopes) < d:
            slopes.add((Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        f = SparsePoly.constant(1, ("x0", "x1", "x2"))
        for a, b in sorted(slopes):
            f = f * SparsePoly(("x0", "x1", "x2"),
                               {(1, 0, 0): Fraction(1), (0, 1, 0): -a,
                                (0, 0, 1): -b})
        out.append(Divisor(f, 2))
    for _ in range(2):
        terms = {(i, j, d - i - j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for i in range(d) for j in range(d + 1 - i)}
        terms[(d, 0, 0)] = Fraction(1)
        out.append(Divisor(SparsePoly(("x0", "x1", "x2"), terms), 2))
    return out


def test_in_e_certificate_agrees_with_the_walk(monkeypatch):
    # on grids on both sides of 2^d, in_E's report is the walk's, field
    # for field: a certified grid is one the walk passes, and a failed
    # proof leaves the walk's answer as it is
    tried = []
    certified = divisors_mod._circle_certified

    def recorded(forms):
        tried.append(certified(forms))
        return tried[-1]

    monkeypatch.setattr(divisors_mod, "_circle_certified", recorded)
    rng = random.Random(41)
    outcomes = set()
    for d in range(2, 8):
        for grid_size in (2 ** d - 3, 2 ** d - 2, 3 * 2 ** d):
            for D in _seeded_plane_divisors(rng, d):
                del tried[:]
                rep = in_E(D, grid_size)
                want = _walked_report(D, grid_size)
                assert (rep.verdict, rep.mode, rep.witness, rep.data) == want, \
                    (D, grid_size)
                assert len(tried) <= 1 and (not tried or
                                            _certify_grid(d, grid_size + 2))
                outcomes.add((tuple(tried), rep.verdict))
    # certified members, grids passed after a failed proof, refutations
    # after one, and refutations at the first direction, which try none
    assert outcomes == {((True,), "evidence_only"),
                        ((False,), "evidence_only"),
                        ((False,), "non_member"), ((), "non_member"),
                        ((), "evidence_only")}


@pytest.mark.parametrize("k, grid_size", [(1, 2), (2, 14), (3, 300)])
def test_in_e_certified_member_walks_one_direction(monkeypatch, k, grid_size):
    # with at least 2^d directions, a member's grid is proved in one step
    # after its first direction's verdict
    calls = []
    verdict = divisors_mod._point_verdict
    monkeypatch.setattr(divisors_mod, "_point_verdict",
                        lambda p0: calls.append(p0) or verdict(p0))
    D = paper_family(2, k)[0]
    assert _certify_grid(D.d, grid_size + 2)
    rep = in_E(D, grid_size)
    assert rep.verdict == "evidence_only"
    assert rep.data == {"grid_size": grid_size + 2,
                        "samples_all_certified": True}
    assert len(calls) == 1


def test_line_pivots_are_the_forms_on_a_line():
    # M_j is H_j(1, y) times Q^{j(j-1)}; where a pivot D_{k,0}, k <= d - 2,
    # vanishes identically the elimination stops
    rng = random.Random(43)
    cases = [paper_family(2, 1)[0], paper_family(2, 2)[1],
             Divisor(P("x0^4 - x1^4 + x2^4")), Divisor(P("x0^3 - x2^3"))]
    for d in range(2, 7):
        cases += _seeded_plane_divisors(rng, d)[:3]
    stopped = 0
    for D in cases:
        Q, forms = _integer_coefficients(D)
        hs = [h.substitute({"x1": Fraction(1)}) for h in e_certificate_forms(D)]
        try:
            pivots = _line_pivots(forms)
        except ZeroDivisionError:
            stopped += 1
            assert any(h.is_zero() for h in hs[:-2]), D
            continue
        for j, (M, h) in enumerate(zip(pivots, hs), 2):
            want = [] if h.is_zero() else [
                c * Q ** (j * (j - 1)) for c in h.dense_coeffs("x2")]
            assert [Fraction(c) for c in M] == want or M == [0] and not want, \
                (D, j)
    assert 0 < stopped < len(cases)


def test_certificate_degree_fits_sturm():
    # no grid reaches 2^17 directions, so the certificate runs at d <= 16,
    # where deg M_j <= 16 * 15 fits the Sturm degree cap
    assert 2 ** 17 > MAX_GRID + 2
    assert not _certify_grid(17, MAX_GRID + 2) and _certify_grid(16, MAX_GRID)
    assert 16 * 15 <= MAX_DEGREE


def test_in_e_has_no_degree_cap():
    # d = 10 lies beyond the symbolic chain's d <= 8; fibers need no chain
    D = paper_family(1, 5)[0]
    assert D.d == 10
    rep = in_E(D)
    assert (rep.verdict, rep.mode) == ("member", "exact")
    assert rep.data["certificate"]["route"] == "critical"


def test_e_certificate_forms_hand_value():
    hs = e_certificate_forms(Divisor(P("x0^2 - 9*x1^2")))
    assert len(hs) == 1
    assert hs[0] == P("36*x1^2").with_vars(("x1",))
    hs = e_certificate_forms(paper_family(2, 1)[0])
    assert hs[0] == P("4*x1^2 + 4*x2^2").with_vars(("x1", "x2"))


def test_e_certificate_forms_guards():
    with pytest.raises(ValueError):
        e_certificate_forms(Divisor(P("x0*x1")))       # through the vertex
    with pytest.raises(ValueError):
        e_certificate_forms(Divisor(P("x0 + x1")))     # degree 1


def _chain_route_forms(D):
    """content(D_{j,0}) * F_j(p_1..p_d) through the symbolic chain, d <= 8."""
    D = in_div_prime(D)[1]
    xs = D.f.vars[1:]
    ps = D.x0_coefficients()
    sub = {f"a{i}": ps.get(i, SparsePoly.zero(xs)).with_vars(xs)
           for i in range(1, D.d + 1)}
    prs, F = critical._get_chain(D.d).prs, critical_polynomials(D.d).F
    # lc(R_j) = +-D_{j,0}, whose content is 1 for d - j even and 2 for odd
    content = [gcd(*prs[j][-1].values()) for j in range(2, D.d + 1)]
    assert content == [1 + (D.d - j) % 2 for j in range(2, D.d + 1)]
    return [F[j - 2].substitute(sub).with_vars(xs) * content[j - 2]
            for j in range(2, D.d + 1)]


def test_e_certificate_forms_match_the_chain_route():
    rng = random.Random(29)
    cases = [P("x0^2 - 9*x1^2"), P("2*x0^3 - 1/3*x0*x1^2 + 1/5*x1^3 - x2^3"),
             P("x0^4 - 1/2*x0^2*x1^2 - x0^2*x1*x2 + 1/7*x2^4"),
             # a pivot D_{2,0}(p) vanishes identically at these
             P("x0^4 - x1^4"), P("x0^5 - x1^5 - x2^5"), P("x0^6 + x1^6"),
             P("x0^4 + 4*x0^3*x1 + 6*x0^2*x1^2 + x0*x1^3 + x0*x2^3 + x1*x2^3")]
    cases = [Divisor(f) for f in cases] + [paper_family(3, 1)[1],
                                           paper_family(1, 3)[0]]
    for d in range(2, 7):
        terms = {(i, j, d - i - j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for i in range(d) for j in range(d + 1 - i)}
        terms[(d, 0, 0)] = Fraction(rng.randint(1, 3))
        cases.append(Divisor(SparsePoly(("x0", "x1", "x2"), terms)))
    for D in cases:
        assert e_certificate_forms(D) == _chain_route_forms(D), D


def test_e_certificates_positive_iff_member():
    # positivity of every H_j on the grid tracks the fiber verdicts
    D = paper_family(2, 2)[0]
    hs = e_certificate_forms(D)
    for v in circle_grid(60):
        point = {"x1": Fraction(v[0]), "x2": Fraction(v[1])}
        assert all(h.evaluate(point) > 0 for h in hs)
    bad = Divisor(P("x0^2 + x1^2 + x2^2"))
    h2 = e_certificate_forms(bad)[0]
    assert h2.evaluate({"x1": 1, "x2": 0}) < 0
    # past the symbolic chain's d <= 8, and off E: wherever the fiber's
    # integer Sturm chain is full, sign H_j(v) is the sign of its j-th
    # leading coefficient
    rng = random.Random(31)
    terms = {(i, j, 3 - i - j): Fraction(rng.randint(-5, 5))
             for i in range(3) for j in range(4 - i)}
    terms[(3, 0, 0)] = Fraction(1)
    off = Divisor(SparsePoly(("x0", "x1", "x2"), terms))
    signs = set()
    for D in (paper_family(2, 5)[0], off):
        hs = e_certificate_forms(D)
        checker = _FiberChecker(D)
        full = 0
        for v in circle_grid(24):
            chain = _int_chain(checker.fiber(v))[0]
            if len(chain) != D.d + 1:
                continue
            full += 1
            point = {"x1": Fraction(v[0]), "x2": Fraction(v[1])}
            for j, h in enumerate(hs, 2):
                value, lc = h.evaluate(point), chain[j][-1]
                assert (value > 0) - (value < 0) == (lc > 0) - (lc < 0)
                signs.add(value > 0)
        assert full > 20
    assert signs == {True, False}


def test_e_certificate_forms_build_no_chain(tmp_path, monkeypatch):
    # the forms come from one elimination over Z[x1, x2]: no symbolic
    # chain is built, loaded or written, and d is not capped at 8
    def no_chain(d):
        raise AssertionError(f"chain for d = {d} requested")

    monkeypatch.setenv("RCT_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(critical, "_get_chain", no_chain)
    monkeypatch.setattr(critical, "_set_cache", {})
    for k in (4, 5):
        D = paper_family(2, k)[0]
        hs = e_certificate_forms(D)
        assert len(hs) == D.d - 1 and hs[-1].degree() == D.d * (D.d - 1)
    assert critical._set_cache == {}
    assert list(tmp_path.iterdir()) == []


def test_sampled_sphere_min():
    H = P("36*x1^2").with_vars(("x1",))
    assert sampled_sphere_min(H, [(1,), (-3,)]) == 36
    H2 = P("4*x1^2 + 4*x2^2").with_vars(("x1", "x2"))
    assert sampled_sphere_min(H2, circle_grid(40)) == 4
    with pytest.raises(ValueError):
        sampled_sphere_min(P("x1^3").with_vars(("x1",)), [(1,)])


def test_positivity_margin_pinned():
    H = P("x1^2 + x2^2")
    assert positivity_margin(H, 1) == Fraction(1, 6)
    assert positivity_margin(H, Fraction(1, 2)) == Fraction(1, 12)
    with pytest.raises(ValueError):
        positivity_margin(H, 0)
    with pytest.raises(ValueError):
        positivity_margin(P("x1^2 + x2"), 1)


def test_margin_survives_perturbation():
    rng = random.Random(73)
    H = P("x1^2 + x2^2")
    delta = Fraction(1)
    eps = positivity_margin(H, delta)
    grid = circle_grid(80)
    for _ in range(20):
        bumped = H
        for v in ("x1", "x2"):
            c = Fraction(rng.randint(-999, 999), 1000) * eps
            bumped = bumped + P(f"{v}^2") * c
        c = Fraction(rng.randint(-999, 999), 1000) * eps
        bumped = bumped + P("x1*x2") * c
        for v in grid:
            point = {"x1": Fraction(v[0]), "x2": Fraction(v[1])}
            norm2 = point["x1"] ** 2 + point["x2"] ** 2
            assert bumped.evaluate(point) / norm2 > delta / 2


def test_g_of_t_values():
    g = _g_of_t(Divisor(P("x0^2 - x1^2")))
    assert format_poly(g) == "-t^2 + 1"
    g = _g_of_t(Divisor(P("x0^2 - 1/9*x1^2")))
    assert format_poly(g) == "-1/9*t^2 + 1"
    g = _g_of_t(paper_family(2, 2)[0])
    assert g.evaluate({"t": 1}) == 0


def test_div_double_prime_hand_examples():
    rep = in_div_double_prime(Divisor(P("x0^2 - x1^2")))
    assert rep.verdict == "non_member" and rep.mode == "exact"
    assert rep.witness == (Fraction(1),)
    rep = in_div_double_prime(Divisor(P("x0^2 - 1/9*x1^2")))
    assert rep.verdict == "member" and rep.mode == "exact"
    assert rep.ok()


def test_div_double_prime_inherits_e_strength():
    D = scale_divisor(paper_family(2, 1)[0], Fraction(1, 3))
    rep = in_div_double_prime(D, grid_size=200)
    assert rep.verdict == "evidence_only" and rep.mode == "sampled"
    rep = in_div_double_prime(Divisor(P("x0^2 + x1^2")))
    assert rep.verdict == "non_member"
    assert rep.data["reason"] == "fails E-membership"


def test_div_double_prime_family_k2_degenerates():
    # (x0^2-S)(x0^2-2S) meets the probe line exactly at t = 1
    rep = in_div_double_prime(paper_family(2, 2)[0], grid_size=150)
    assert rep.verdict == "non_member" and rep.mode == "exact"
    assert rep.witness == (Fraction(1),)
    # scaling into the unit ball interior repairs it
    pulled = scale_divisor(paper_family(2, 2)[0], Fraction(1, 3))
    rep = in_div_double_prime(pulled, grid_size=150)
    assert rep.ok()


def test_report_json_verbose_filter():
    rep = in_E(paper_family(2, 1)[0], grid_size=120)
    slim = rep.to_json_dict()
    full = rep.to_json_dict(verbose=True)
    assert "samples_all_certified" not in slim
    assert full["samples_all_certified"] is True
    assert slim["set"] == "E" and slim["verdict"] == "evidence_only"
