"""The magic-fan demo: exact fibers, pushforward, limit behavior."""

import hashlib
import json
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from rct.divisors import Divisor, paper_family, scale_divisor
from rct.fan import (
    FiberError,
    ZeroCycle,
    _chordal,
    _unit,
    cycle_distance,
    default_demo,
    limit_check,
    psi_demo,
)
from rct.parse import parse_poly


def test_zero_cycle_normalizes():
    Z = ZeroCycle([(2, 4), (1, 2), (3, -6)])
    # (2:4) and (1:2) are the same point; (3:-6) is a different one
    assert Z.degree() == 3
    assert len(Z.points) == 2
    assert Z.points[0] == ((Fraction(1), Fraction(2)), 2)
    assert Z.points[1] == ((Fraction(1), Fraction(-2)), 1)


def test_zero_cycle_explicit_multiplicity():
    Z = ZeroCycle([((1, 5), 3)])
    assert Z.degree() == 3
    assert Z.scaled(2).degree() == 6
    assert Z.scaled(2).points[0][1] == 6


def test_zero_cycle_rejections():
    with pytest.raises(ValueError):
        ZeroCycle([])
    with pytest.raises(ValueError):
        ZeroCycle([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        ZeroCycle([((1, 2), 0)])
    with pytest.raises(ValueError):
        ZeroCycle([(0, 0)])


def test_zero_cycle_coordinates_stay_exact():
    # integer and Fraction coordinates normalize exactly, at any size
    Z = ZeroCycle([(3, 6), (Fraction(10) ** 400, 1)])
    assert Z.points == (((1, 2), 1), ((1, Fraction(1, 10 ** 400)), 1))
    assert all(type(c) is Fraction for q, _ in Z.points for c in q)
    # floats keep the float rule: the pivot is the first coordinate of at
    # least 1e-9 times the largest modulus
    W = ZeroCycle([(1e-10, 1.0), (2e-9, 1.0)])
    assert W.points[0][0] == (1e-10, 1.0)
    assert W.points[1][0] == (1.0, 1.0 / 2e-9)
    # only exact cycles are certified
    _, D = default_demo()
    with pytest.raises(ValueError, match="exact"):
        psi_demo(ZeroCycle([(1.0, 0.3)]), D, Fraction(1, 2))


def test_zero_cycle_json_roundtrip():
    Z = ZeroCycle([((Fraction(1), Fraction(2, 3)), 2), ((0, 1), 1)])
    again = ZeroCycle.from_json_dict(Z.to_json_dict())
    assert again == Z
    # float coordinates survive too
    W = ZeroCycle([(1.0, 0.25)])
    again = ZeroCycle.from_json_dict(json.loads(json.dumps(W.to_json_dict())))
    assert again.points[0][0][1] == pytest.approx(0.25)


def test_cycle_distance_basics():
    A = ZeroCycle([(1, 2), (1, -1)])
    assert cycle_distance(A, A) == 0.0
    # antipodal lifts are the same projective point
    B = ZeroCycle([(-1, -2), (1, -1)])
    assert cycle_distance(A, B) == 0.0
    C = ZeroCycle([(1, 2), (1, -1), (0, 1)])
    with pytest.raises(ValueError):
        cycle_distance(A, C)


def test_cycle_distance_tracks_perturbation():
    A = ZeroCycle([(1, 2), (1, -1)])
    B = ZeroCycle([(1, 2.01), (1, -1)])
    d = cycle_distance(A, B)
    assert 0 < d < 0.01
    # multiplicities expand into repeated assignment slots
    A2 = ZeroCycle([((1, 2), 2)])
    B2 = ZeroCycle([(1, 2.01), (1, 1.99)])
    assert cycle_distance(A2, B2) < 0.01


def _all_pairs_greedy(A, B):
    """Reference: the greedy over every copy of every point."""
    pa = [_unit(c) for c, m in A.points for _ in range(m)]
    pb = [_unit(c) for c, m in B.points for _ in range(m)]
    if len(pa) != len(pb):
        raise ValueError(f"degree mismatch: {len(pa)} vs {len(pb)}")
    pairs = sorted((_chordal(u, v), i, j)
                   for i, u in enumerate(pa) for j, v in enumerate(pb))
    used_a, used_b = set(), set()
    worst = 0.0
    for dist, i, j in pairs:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        worst = max(worst, dist)
        if len(used_a) == len(pa):
            break
    return worst


def test_cycle_distance_matches_all_pairs_greedy():
    rng = random.Random(21)

    def cycle(ambient, degree, coords):
        pts = []
        while degree:
            m = rng.randint(1, min(3, degree))
            pts.append((tuple(rng.choice(coords) for _ in range(ambient + 1)), m))
            degree -= m
            if not any(pts[-1][0]):
                degree += pts.pop()[1]
        return ZeroCycle(pts)

    cases = []
    for _ in range(150):
        ambient, degree = rng.choice((1, 2)), rng.randint(1, 9)
        # small symmetric coordinate sets give exact float ties; the odd
        # value breaks the symmetry, so which tied partner wins matters
        coords = rng.choice(((-1, 0, 1, 5), (-2, -1, 1, 2, 7),
                             tuple(range(-9, 10))))
        cases.append((cycle(ambient, degree, coords),
                      cycle(ambient, degree, coords)))
    # (1:0) lies at one distance from (10:1) and (10:-1); the greedy gives
    # it the first of them, which leaves (1:5) the far one
    for m in (1, 2):
        cases.append((ZeroCycle([((1, 0), m), ((1, 5), 1)]),
                      ZeroCycle([((10, 1), m), ((10, -1), 1)])))
    cases.append((ZeroCycle([((1, 0), 3), ((0, 1), 1)]),
                  ZeroCycle([((1, 1), 2), ((1, -1), 2)])))
    Z, D = default_demo()
    res = psi_demo(Z, D, Fraction(1, 5))
    cases.append((res.output, Z.scaled(D.d)))
    Z3 = ZeroCycle([((1, 2), 2), ((-3, 5), 1), ((7, 1), 3)])
    D3 = scale_divisor(paper_family(2, 3)[0], Fraction(1, 3))
    res = psi_demo(Z3, D3, Fraction(1, 20), check_divisor=False)
    cases.append((res.output, Z3.scaled(D3.d)))
    for A, B in cases:
        assert cycle_distance(A, B) == _all_pairs_greedy(A, B), (A, B)
        assert cycle_distance(B, A) == _all_pairs_greedy(B, A), (A, B)
    with pytest.raises(ValueError, match="degree mismatch"):
        cycle_distance(ZeroCycle([((1, 2), 2)]), ZeroCycle([((1, 2), 3)]))


def test_default_demo_shapes():
    Z, D = default_demo()
    assert Z.degree() == 2 and Z.ambient == 1
    assert (D.n, D.d) == (2, 2)
    assert D.normalized
    want = parse_poly("x0^2 - 1/9*x1^2 - 1/9*x2^2")
    assert D.f == want.with_vars(("x0", "x1", "x2"))


def test_psi_demo_against_numpy_roots():
    # independent numeric oracle for every fiber
    Z, D = default_demo()
    t = Fraction(1, 2)
    res = psi_demo(Z, D, t)
    assert res.output.degree() == D.d * Z.degree()
    expected_pts = []
    D_t = scale_divisor(D, t)
    for (q, mult) in Z.points:
        g = D_t.f.substitute({"x1": q[0], "x2": q[1]})
        coeffs = [float(c) for c in reversed(g.dense_coeffs("x0"))]
        for s in np.roots(coeffs):
            assert abs(s.imag) < 1e-12
            expected_pts.append(((float(q[0]) - s.real, float(q[1])), mult))
    expected = ZeroCycle(expected_pts, Z.ambient)
    assert cycle_distance(res.output, expected) < 1e-9


def test_psi_demo_closed_form_roots():
    # fiber over (1 : q1 : q2) solves s^2 = (t/3)^2 (q1^2 + q2^2)
    Z, D = default_demo()
    t = Fraction(1, 10)
    res = psi_demo(Z, D, t)
    pts = []
    for (q, _) in Z.points:
        r = float(t) / 3 * math.sqrt(float(q[0]) ** 2 + float(q[1]) ** 2)
        pts.append((float(q[0]) - r, float(q[1])))
        pts.append((float(q[0]) + r, float(q[1])))
    assert cycle_distance(res.output, ZeroCycle(pts, 1)) < 1e-9


def test_psi_demo_residual_decay():
    Z, D = default_demo()
    rs = limit_check(Z, D, [Fraction(1, 10), Fraction(1, 100),
                            Fraction(1, 1000)])
    assert rs[0] > rs[1] > rs[2] > 0
    assert rs[-1] < 1e-2
    assert abs(rs[0] - 0.0303) < 5e-4
    # O(t) decay: consecutive log-log slopes stay near 1
    for a, b in zip(rs, rs[1:]):
        slope = math.log10(a / b)
        assert 0.9 < slope < 1.1


def test_psi_demo_input_validation():
    Z, D = default_demo()
    with pytest.raises(ValueError):
        psi_demo(Z, D, 0)
    with pytest.raises(ValueError):
        psi_demo(Z, D, 2)
    with pytest.raises(ValueError):
        psi_demo(ZeroCycle([(1, 2, 3)]), D, Fraction(1, 2))
    bad = Divisor(parse_poly("x0^2 + x1^2 + x2^2"))
    with pytest.raises(ValueError):
        psi_demo(Z, bad, Fraction(1, 2))  # not in Div''


def test_psi_demo_fiber_error():
    Z, _ = default_demo()
    bad = Divisor(parse_poly("x0^2 + 1/9*x1^2 + 1/9*x2^2"))
    with pytest.raises(FiberError) as err:
        psi_demo(Z, bad, Fraction(1, 2), check_divisor=False)
    assert err.value.count == 0 and err.value.d == 2


def test_psi_demo_projection_center_guard():
    # the fiber point (1 : 1 : 0) sits exactly at the projection center
    Z = ZeroCycle([(Fraction(1), Fraction(0))])
    bad = Divisor(parse_poly("x0^2 - x1^2"), n=2)
    with pytest.raises(AssertionError):
        psi_demo(Z, bad, 1, check_divisor=False)


def test_psi_demo_deterministic():
    Z, D = default_demo()
    base = psi_demo(Z, D, Fraction(1, 7)).to_json_dict(verbose=True)
    again = psi_demo(Z, D, Fraction(1, 7)).to_json_dict(verbose=True)
    assert json.dumps(base, sort_keys=True) == json.dumps(again,
                                                          sort_keys=True)


def test_psi_demo_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError(f"psi_demo started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    Z, D = default_demo()
    result = psi_demo(Z, D, Fraction(1, 7))
    assert len(result.certificates) == len(Z.points)


def test_psi_demo_json_pinned():
    # recorded before cycle_distance matched distinct points in bulk and
    # before each fiber built one Sturm chain for its count and its roots
    Z, D = default_demo()
    got = psi_demo(Z, D, Fraction(1, 7)).to_json_dict(verbose=True)
    assert json.dumps(got, sort_keys=True) == (
        '{"certificates": [{"intervals": [["-25815118788629/242442313924608", '
        '"-12907559394203/121221156962304"], ["12907559394203/121221156962304", '
        '"25815118788629/242442313924608"]], "q": ["1", "2"], "sturm_count": 2}, '
        '{"intervals": [["-226762703999/3367254360064", '
        '"-32653829375413/484884627849216"], ["32653829375413/484884627849216", '
        '"226762703999/3367254360064"]], "q": ["1", "-1"], "sturm_count": 2}], '
        '"output": {"ambient": 1, "points": [{"coords": ["1.0", '
        '"1.8075347361120526"], "mult": 1}, {"coords": ["1.0", '
        '"2.238336823521163"], "mult": 1}, {"coords": ["1.0", '
        '"-0.9369055015723253"], "mult": 1}, {"coords": ["1.0", '
        '"-1.072206115739687"], "mult": 1}]}, "residual": 0.043487667719544876, '
        '"t": "1/7"}')
    # a k = 3 (d = 6) cycle with multiplicity 2
    Z3 = ZeroCycle([((Fraction(1), Fraction(2)), 2),
                    ((Fraction(-3), Fraction(5)), 1),
                    ((Fraction(7), Fraction(1)), 2)])
    D3 = scale_divisor(paper_family(2, 3)[0], Fraction(1, 3))
    got = psi_demo(Z3, D3, Fraction(1, 50),
                   check_divisor=False).to_json_dict(verbose=True)
    assert got["residual"] == 0.010381146209225093
    assert [c["sturm_count"] for c in got["certificates"]] == [6, 6, 6]
    assert got["certificates"][0]["intervals"][:2] == [
        ["-21291951116951/824633720832000", "-106459755581/4123168604160"],
        ["-8692402644359/412316860416000", "-5794935095989/274877906944000"]]
    digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "85dfa58bab0d9e04bc63da570e693778d896801c1c73d85640071580f2ee1bc8"


def test_psi_demo_certificates():
    Z, D = default_demo()
    res = psi_demo(Z, D, Fraction(1, 3))
    assert len(res.certificates) == len(Z.points)
    for cert in res.certificates:
        assert cert["sturm_count"] == D.d
        assert len(cert["intervals"]) == D.d
    slim = res.to_json_dict()
    assert "certificates" not in slim
    assert "certificates" in res.to_json_dict(verbose=True)


def test_limit_check_validation():
    Z, D = default_demo()
    with pytest.raises(ValueError):
        limit_check(Z, D, [])
    with pytest.raises(ValueError):
        limit_check(Z, D, [Fraction(1, 10), Fraction(1, 10)])
    with pytest.raises(ValueError):
        limit_check(Z, D, [Fraction(1, 100), Fraction(1, 10)])
    with pytest.raises(ValueError):
        limit_check(Z, D, [Fraction(1, 10), 0])


def test_quartic_family_demo():
    # degree-4 divisor: pulled-in k = 2 family member, 8 output points
    S = parse_poly("x1^2 + x2^2")
    f = (parse_poly("x0^2") - S * Fraction(1, 9)) \
        * (parse_poly("x0^2") - S * Fraction(2, 9))
    D = Divisor(f)
    Z = ZeroCycle([(1, 2), (1, -1), (2, 1)])
    res = psi_demo(Z, D, Fraction(1, 4))
    assert res.output.degree() == 12
    assert res.residual < 0.2
    rs = limit_check(Z, D, [Fraction(1, 10), Fraction(1, 100)])
    assert rs[0] > rs[1]
