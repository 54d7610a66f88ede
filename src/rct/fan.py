"""Fiberwise divisor map on suspended 0-cycles, and its t -> 0 limit.

A 0-cycle Z in P^{n+1} is suspended from the vertex x_inf = (1:0:...:0):
each point q gives the line (s : q) in P^{n+2}.  Restricting the scaled
divisor f_t to that line yields a monic degree-d polynomial in s whose
d real roots are certified exactly before any numerics: Sturm isolation
returns one interval per distinct real root, so the fiber's interval
count is its Sturm count, and it must equal d.
Each root point is pushed through the projection centered at
x_11 = (1:1:0:...:0),

    pi_1(x_0 : ... : x_{n+2}) = (x_1 - x_0 : x_2 : ... : x_{n+2}),

which is the identity on the hyperplane {x_0 = 0} carrying Z, so the
limit divisor map at t = 0 is multiplication by d on the nose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .divisors import Divisor, in_div_double_prime, scale_divisor, xvar
from .parse import _brief
from .poly import Rational, SparsePoly, as_rational
from .sturm import isolate_roots_bisection

__all__ = [
    "ZeroCycle",
    "FanResult",
    "FiberError",
    "psi_demo",
    "limit_check",
    "cycle_distance",
    "default_demo",
    "BISECTION_WIDTH",
]

BISECTION_WIDTH = Fraction(1, 10 ** 12)


class FiberError(ValueError):
    """A fiber line met the divisor in fewer than d distinct real points."""

    def __init__(self, point, count: int, d: int):
        self.point = tuple(point)
        self.count = count
        self.d = d
        super().__init__(
            f"line over {point} carries {count} distinct real roots, "
            f"expected {d}: divisor is not in E along this line")


def _normalize_coords(coords):
    """Scale so the first coordinate of modulus at least 1e-9 times the
    largest becomes 1.  Magnitudes compare exactly, and exact coordinates
    stay exact."""
    mags = [abs(c) for c in coords]
    biggest = max(mags, default=0)
    if not biggest:
        raise ValueError("zero coordinate vector")
    floor = biggest * Fraction(1, 10 ** 9)
    pivot = next(c for c, m in zip(coords, mags) if m >= floor)
    if isinstance(pivot, int):
        pivot = Fraction(pivot)
    return tuple(c / pivot for c in coords)


class ZeroCycle:
    """Formal sum of points with positive integer multiplicities."""

    __slots__ = ("points", "ambient")

    def __init__(self, points: Sequence, ambient: Optional[int] = None):
        merged = {}
        order = []
        for entry in points:
            if len(entry) == 2 and isinstance(entry[1], int) \
                    and isinstance(entry[0], (tuple, list)):
                coords, mult = tuple(entry[0]), entry[1]
            else:
                coords, mult = tuple(entry), 1
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if ambient is None:
                ambient = len(coords) - 1
            elif len(coords) != ambient + 1:
                raise ValueError("inconsistent coordinate lengths")
            key = _normalize_coords(coords)
            if key in merged:
                merged[key] += mult
            else:
                merged[key] = mult
                order.append(key)
        if not order:
            raise ValueError("empty cycle")
        self.points = tuple((k, merged[k]) for k in order)
        self.ambient = ambient

    def degree(self) -> int:
        return sum(m for _, m in self.points)

    def scaled(self, k: int) -> "ZeroCycle":
        """The cycle k*Z."""
        return ZeroCycle([(c, m * k) for c, m in self.points], self.ambient)

    def __eq__(self, other):
        return isinstance(other, ZeroCycle) and self.points == other.points

    def __repr__(self):
        pts = ", ".join(f"{m}*({':'.join(str(c) for c in coords)})"
                        for coords, m in self.points)
        return f"ZeroCycle[{pts}]"

    def to_json_dict(self) -> dict:
        return {"ambient": self.ambient,
                "points": [{"coords": [str(c) for c in coords], "mult": m}
                           for coords, m in self.points]}

    @staticmethod
    def from_json_dict(data: dict) -> "ZeroCycle":
        """Inverse of to_json_dict; a wrong shape raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("points"), list):
            raise ValueError('a cycle needs a "points" list')
        ambient = data.get("ambient")
        if ambient is not None and type(ambient) is not int:
            raise ValueError('the cycle\'s "ambient" must be an integer')
        pts = []
        for entry in data["points"]:
            if not isinstance(entry, dict) \
                    or not isinstance(entry.get("coords"), list) \
                    or type(entry.get("mult", 1)) is not int:
                raise ValueError('each point needs a "coords" list and an '
                                 'integer "mult"')
            coords = tuple(_coord_in(c) for c in entry["coords"])
            pts.append((coords, entry.get("mult", 1)))
        return ZeroCycle(pts, ambient)


def _coord_in(text):
    """An exact coordinate from a JSON number or a decimal or p/q string."""
    if type(text) in (int, float, str):
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a coordinate: {_brief(text)}")


@dataclass
class FanResult:
    """One divisor-map evaluation with its per-line certificates."""

    output: ZeroCycle
    t: Fraction
    residual: float
    certificates: list = field(default_factory=list)

    def to_json_dict(self, verbose: bool = False) -> dict:
        out = {"t": str(self.t), "residual": self.residual,
               "output": self.output.to_json_dict()}
        if verbose:
            out["certificates"] = self.certificates
        return out


def _unit(coords) -> tuple:
    norm = math.sqrt(sum(float(c) * float(c) for c in coords))
    return tuple(float(c) / norm for c in coords)


def _chordal(u, v) -> float:
    # projective points are unsigned; compare both lifts.  Both sums run
    # left to right from 0 on every Python version; that is how sum() adds
    # floats up to 3.11 (3.12 compensates), and sqrt is monotone, so there
    # this is min(sqrt(sum(...)), sqrt(sum(...))) to the bit
    s1 = s2 = 0
    for a, b in zip(u, v):
        s1 += (a - b) ** 2
        s2 += (a + b) ** 2
    return math.sqrt(min(s1, s2))


def cycle_distance(A: ZeroCycle, B: ZeroCycle) -> float:
    """Matching distance: greedy minimal assignment, largest pair wins.

    The greedy runs over distinct points with their multiplicities.  Pairs
    (distance, i, j) of distinct points are visited in sorted order, and
    each matches min(left_a[i], left_b[j]) copies at once.  This is the
    value of the greedy over every copy of every point: copies of one point
    sit at equal distances with adjacent indices, so each copy there takes
    the first free copy of the lowest-index tied point, as the bulk min does.
    """
    if A.degree() != B.degree():
        raise ValueError(f"degree mismatch: {A.degree()} vs {B.degree()}")
    pa = [_unit(c) for c, _ in A.points]
    pb = [_unit(c) for c, _ in B.points]
    left_a = [m for _, m in A.points]
    left_b = [m for _, m in B.points]
    pairs = sorted((_chordal(u, v), i, j)
                   for i, u in enumerate(pa) for j, v in enumerate(pb))
    todo = A.degree()
    worst = 0.0
    for dist, i, j in pairs:
        k = min(left_a[i], left_b[j])
        if not k:
            continue
        left_a[i] -= k
        left_b[j] -= k
        worst = max(worst, dist)
        todo -= k
        if not todo:
            break
    return worst


def _line_fiber(D_t: Divisor, q, d: int):
    """Roots of the scaled divisor along the line (s : q), certified.

    One Sturm chain serves both the count and the roots: the isolating
    intervals number exactly the distinct real roots, so their count is
    the Sturm count recorded as `sturm_count`.
    """
    point = {xvar(i + 1): as_rational(c) for i, c in enumerate(q)}
    g = D_t.f.substitute(point)
    intervals = isolate_roots_bisection(g, BISECTION_WIDTH, xvar(0))
    count = len(intervals)
    if count != d:
        raise FiberError(q, count, d)
    roots = [(lo + hi) / 2 for lo, hi in intervals]
    cert = {"q": [str(c) for c in q],
            "sturm_count": count,
            "intervals": [[str(lo), str(hi)] for lo, hi in intervals]}
    return roots, cert


def psi_demo(Z: ZeroCycle, D: Divisor, t: Rational,
             check_divisor: bool = True) -> FanResult:
    """Intersect the suspension of Z with the scaled divisor tD and push
    forward through pi_1.

    Z lives in P^{n+1} and D is a normalized divisor in x_0..x_{n+2};
    every line (s : q) then carries a monic degree-d polynomial in s.
    Each fiber passes an exact Sturm gate: its isolating intervals must
    number d.  Z's coordinates must be exact (int or Fraction), so each
    certificate is for the line over Z's own point; floats enter only at
    the final midpoint extraction.
    """
    if not all(isinstance(c, (int, Fraction)) for q, _ in Z.points for c in q):
        raise ValueError("psi_demo needs exact cycle coordinates "
                         "(int or Fraction), not floats")
    t = as_rational(t)
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    if Z.ambient != D.n - 1:
        raise ValueError(f"cycle in P^{Z.ambient} does not suspend into "
                         f"the divisor's P^{D.n}")
    if check_divisor:
        rep = in_div_double_prime(D)
        if rep.verdict == "non_member":
            raise ValueError(f"divisor rejected: {rep.data.get('reason')}")
    D_t = scale_divisor(D, t)
    d = D.d

    out_points = []
    certs = []
    for coords, mult in Z.points:
        q = [as_rational(c) for c in coords]
        roots, cert = _line_fiber(D_t, q, d)
        for s in roots:
            x = (s,) + tuple(q)  # the fiber point (s : q) in P^{n+2}
            assert any(c != 0 for c in x[2:]) or x[0] != x[1], \
                "fiber point collides with the projection center"
            image = (q[0] - s,) + tuple(q[1:])
            out_points.append((tuple(float(c) for c in image), mult))
        certs.append(cert)
    output = ZeroCycle(out_points, Z.ambient)
    assert output.degree() == d * Z.degree()
    residual = cycle_distance(output, Z.scaled(d))
    return FanResult(output, t, residual, certs)


def limit_check(Z: ZeroCycle, D: Divisor, t_sequence: Sequence) -> list:
    """Residuals of psi_demo against d*Z along a decreasing t sequence."""
    ts = [as_rational(t) for t in t_sequence]
    if not ts:
        raise ValueError("need a nonempty t sequence")
    if any(t <= 0 for t in ts) or any(a <= b for a, b in zip(ts, ts[1:])):
        raise ValueError("need a strictly decreasing positive t sequence")
    rep = in_div_double_prime(D)
    if rep.verdict == "non_member":
        raise ValueError(f"divisor rejected: {rep.data.get('reason')}")
    return [psi_demo(Z, D, t, check_divisor=False).residual for t in ts]


def default_demo():
    """Two rational points in P^1 against x_0^2 - (1/9)(x_1^2 + x_2^2).

    The divisor is the k = 1 product-family member flowed to t = 1/3,
    which moves its g(t) roots out to |t| = 3 and lands it in Div''.
    """
    from .divisors import paper_family

    Z = ZeroCycle([((Fraction(1), Fraction(2)), 1),
                   ((Fraction(1), Fraction(-1)), 1)])
    G, _ = paper_family(2, 1)
    D = scale_divisor(G, Fraction(1, 3))
    return Z, D
