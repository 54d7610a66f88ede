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

The fibers stay integers.  f_t along q is f along t q, since the
coefficient p_i of x_0^(d-i) is homogeneous of degree i, so
t^i p_i(q) = p_i(t q).  `divisors._FiberChecker`, the kernel `in_E`
samples with, compiles f's integer forms once per call and reads each
fiber along t q as a primitive integer polynomial, the one Sturm
isolation would build from the rational fiber, so the chain and the
intervals are the same.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .divisors import Divisor, _FiberChecker, in_div_double_prime, scale_divisor
from .parse import _json_rational
from .poly import Rational, as_rational
from .sturm import _int_chain, _isolate

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


_PIVOT_FLOOR = Fraction(1, 10 ** 9)


def _normalize_coords(coords, pivot_floor=_PIVOT_FLOOR):
    """Scale so the first coordinate of modulus at least pivot_floor
    (1e-9) times the largest becomes 1.  Magnitudes compare exactly, and
    exact coordinates stay exact.  Float coordinates may pass the float
    of _PIVOT_FLOOR, which gives the same floor as the Fraction does."""
    mags = [abs(c) for c in coords]
    biggest = max(mags, default=0)
    if not biggest:
        raise ValueError("zero coordinate vector")
    floor = biggest * pivot_floor
    for pivot, m in zip(coords, mags):
        if m >= floor:
            break
    if isinstance(pivot, int):
        pivot = Fraction(pivot)
    return tuple([c / pivot for c in coords])


class ZeroCycle:
    """Formal sum of points with positive integer multiplicities."""

    __slots__ = ("points", "ambient")

    def __init__(self, points: Sequence, ambient: Optional[int] = None):
        keyed = []
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
            keyed.append((_normalize_coords(coords), mult))
        self._merge(keyed, ambient)

    @classmethod
    def _from_normalized(cls, points, ambient: int) -> "ZeroCycle":
        """The cycle of (normalized coordinates, multiplicity) pairs, as
        __init__ builds it from their normalized coordinates."""
        out = cls.__new__(cls)
        out._merge(points, ambient)
        return out

    def _merge(self, points, ambient):
        # equal keys add their multiplicities, in first-seen order
        merged = {}
        for key, mult in points:
            merged[key] = merged.get(key, 0) + mult
        if not merged:
            raise ValueError("empty cycle")
        self.points = tuple(merged.items())
        self.ambient = ambient

    def degree(self) -> int:
        return sum(m for _, m in self.points)

    def scaled(self, k: int) -> "ZeroCycle":
        """The cycle k*Z, on Z's normalized points as they are."""
        if k < 1:
            raise ValueError("multiplicities must be positive")
        return ZeroCycle._from_normalized(
            [(c, m * k) for c, m in self.points], self.ambient)

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
            coords = tuple(_json_rational(c, "coordinate")
                           for c in entry["coords"])
            pts.append((coords, entry.get("mult", 1)))
        return ZeroCycle(pts, ambient)


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
    fs = [float(c) for c in coords]
    norm = math.sqrt(sum(f * f for f in fs))
    return tuple(f / norm for f in fs)


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

    The greedy runs over distinct points with their multiplicities.  It
    takes the pairs (distance, i, j) of distinct points in sorted order
    (the tuples are distinct, so the order is the sort's), and each
    matches min(left_a[i], left_b[j]) copies at once.  This is the value
    of the greedy over every copy of every point: copies of one point sit
    at equal distances with adjacent indices, so each copy there takes
    the first free copy of the lowest-index tied point, as the bulk min
    does.

    The greedy usually ends after a few pairs per point, so pairs are
    computed only as the walk reaches them.  B's points are sorted by
    |v_0|, and each point u of A walks that order outward from |u_0|, one
    frontier each way.  A frontier waits in the heap beside the computed
    pairs as (key, -1, i, k, step), keyed by a lower bound of every pair
    it has still to compute.  Popped, it computes the pair at position k
    of the order and steps on past the points of B that are used up; a
    used-up point of A drops its frontiers.  As -1 sorts before every i,
    a frontier pops before any pair of equal value, so when a pair pops,
    every pair not yet computed is strictly larger, and pairs pop in the
    sort's order: the residual is the all-pairs greedy's to the bit.

    The key bounds the float `_chordal`, not only the real distance.  Let
    e = |fl(|u_0| - |v_0|)|.  Rounding is monotone and odd, so of the two
    lifts' first differences fl(u_0 - v_0) and fl(u_0 + v_0), one has
    modulus e and the other at least e.  Each sum in `_chordal` adds
    non-negative floats to its first square, which rounding never lowers,
    so both are at least fl(x ** 2) for some |x| >= e.  pow() need not
    round correctly, but within one ulp fl(x ** 2) >= e^2 (1 - 2^-52) -
    2^-1074; the absolute term is gradual underflow, where squares lose
    their digits (sqrt(1e-170 ** 2) is 0.0).  For e >= 2^-500 the
    absolute term is below 2^-74 e^2, and with sqrt correctly rounded
    `_chordal` >= e (1 - 2^-51), above the key fl(fl(e (1 - 2^-40)) -
    2^-500).  For e < 2^-500 the key is at most 0.  The key never
    decreases as e grows, and e grows along each walk, so a frontier's
    key bounds every pair past it.
    """
    if A.ambient != B.ambient:
        raise ValueError(f"ambient mismatch: P^{A.ambient} vs P^{B.ambient}")
    if A.degree() != B.degree():
        raise ValueError(f"degree mismatch: {A.degree()} vs {B.degree()}")
    pa = [_unit(c) for c, _ in A.points]
    pb = [_unit(c) for c, _ in B.points]
    left_a = [m for _, m in A.points]
    left_b = [m for _, m in B.points]
    order = sorted(range(len(pb)), key=lambda j: abs(pb[j][0]))
    firsts = [abs(pb[j][0]) for j in order]
    ends = len(order)
    a0s = [abs(u[0]) for u in pa]
    shrink, slack = 1 - 2.0 ** -40, 2.0 ** -500
    heap = []
    for i, a0 in enumerate(a0s):
        mid = bisect_left(firsts, a0)
        for k, step in ((mid - 1, -1), (mid, 1)):
            if 0 <= k < ends:
                heap.append((abs(a0 - firsts[k]) * shrink - slack, -1, i, k, step))
    heapq.heapify(heap)
    todo = A.degree()
    worst = 0.0
    while todo:
        entry = heapq.heappop(heap)
        if entry[1] < 0:
            _, _, i, k, step = entry
            if not left_a[i]:
                continue
            j = order[k]
            if left_b[j]:
                heapq.heappush(heap, (_chordal(pa[i], pb[j]), i, j))
            k += step
            while 0 <= k < ends and not left_b[order[k]]:
                k += step
            if 0 <= k < ends:
                key = abs(a0s[i] - firsts[k]) * shrink - slack
                heapq.heappush(heap, (key, -1, i, k, step))
            continue
        dist, i, j = entry
        take = min(left_a[i], left_b[j])
        if not take:
            continue
        left_a[i] -= take
        left_b[j] -= take
        worst = max(worst, dist)
        todo -= take
    return worst


def psi_demo(Z: ZeroCycle, D: Divisor, t: Rational,
             check_divisor: bool = True) -> FanResult:
    """Intersect the suspension of Z with the scaled divisor tD and push
    forward through pi_1.

    Z lives in P^{n+1} and D is a normalized divisor in x_0..x_{n+2};
    every line (s : q) then carries a monic degree-d polynomial in s.
    Each fiber passes an exact Sturm gate: its isolating intervals must
    number d.  Z's coordinates must be exact (int or Fraction), so each
    certificate is for the line over Z's own point.  The fiber along q is
    read as f's along t q from D's integer forms, compiled once per call
    (see the module docstring), and isolated on its integer Sturm chain
    to width BISECTION_WIDTH, as `isolate_roots_bisection` would.  A fiber
    of a divisor in E has only real simple roots, so isolation checks the
    cells of the tree's last level that float root estimates name and
    skips the tree and its refinement; the intervals are the tree's (see
    `sturm._isolate`).  Floats decide nothing before the end: the first
    output coordinate q_0 - (lo + hi)/2 of a root in [lo, hi] is one
    correctly rounded division of integers, the float of that Fraction.
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
    if not D.normalized:
        raise ValueError("psi_demo needs a normalized divisor: in_div_prime "
                         "(rct div normalize) gives one")
    checker = _FiberChecker(D)
    d = D.d

    out_points = []
    certs = []
    pivot_floor = float(_PIVOT_FLOOR)
    for coords, mult in Z.points:
        q = [as_rational(c) for c in coords]
        p0 = checker.primitive_fiber([t * c for c in q])
        intervals = _isolate(_int_chain(p0)[0], BISECTION_WIDTH)
        if len(intervals) != d:
            raise FiberError(q, len(intervals), d)
        certs.append({"q": [str(c) for c in q],
                      "sturm_count": d,
                      "intervals": [[str(lo), str(hi)] for lo, hi in intervals]})
        rest = tuple(float(c) for c in q[1:])
        n0, d0 = q[0].numerator, q[0].denominator
        for lo, hi in intervals:
            a, b, c, e = lo.numerator, lo.denominator, hi.numerator, hi.denominator
            # q_0 - (a/b + c/e)/2 over 2 d0 b e; zero at the projection
            # center (s : q) = (1 : 1 : 0 : ... : 0)
            num = 2 * n0 * b * e - d0 * (a * e + c * b)
            assert num or any(q[1:]), \
                "fiber point collides with the projection center"
            point = (num / (2 * d0 * b * e),) + rest
            out_points.append((_normalize_coords(point, pivot_floor), mult))
    output = ZeroCycle._from_normalized(out_points, Z.ambient)
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
