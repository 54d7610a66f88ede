"""Divisor spaces over the x_0 vertex and their membership certificates.

A divisor here is a nonzero homogeneous form f of degree d in x_0..x_n.
Div' consists of divisors not passing through (1:0:...:0), normalized so
the x_0^d coefficient is 1.  E consists of normalized divisors whose
restriction to every real line through the vertex, the monic univariate
polynomial f(x_0, x) for x != 0, has d distinct real roots.  Div''
additionally requires f_t(1,1,0,...,0) != 0 for all t in (0,1].

E-membership is decided through the critical forms: writing
p_i(x_1..x_n) for the coefficient of x_0^{d-i}, the Hankel minor
H_j = D_{j,0}(p_1,...,p_d) is homogeneous, and membership is equivalent
to every H_j being positive away from the origin.  For n = 1 that is a
finite exact check.  For n >= 2 positive verdicts are evidence over a
deterministic direction grid, while refutations are exact: a witness
direction is certified by a Sturm count below d.  For n = 2 a grid of at
least 2^d directions is first offered to that finite check on the circle,
which, when it holds, answers for every direction at once (`in_E`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import hankel
from .parse import MAX_POWER_TERMS
from .poly import Rational, SparsePoly, _as_integers, as_rational, format_poly
from .sturm import (
    MAX_DEGREE,
    RootVerdict,
    _int_chain,
    _point_verdict,
    _primitive,
    _real_root_count,
    count_distinct_roots_in,
)

__all__ = [
    "Divisor",
    "MembershipReport",
    "in_div_prime",
    "scale_divisor",
    "paper_family",
    "in_E",
    "e_certificate_forms",
    "sampled_sphere_min",
    "positivity_margin",
    "in_div_double_prime",
    "circle_grid",
    "sphere_grid",
    "default_grid",
    "DEFAULT_GRID_N2",
    "DEFAULT_GRID_N3",
    "MAX_GRID",
    "MAX_N",
]

DEFAULT_GRID_N2 = 2000
DEFAULT_GRID_N3 = 20000

MAX_GRID = 100000
"""Largest direction-grid count: five times the n >= 3 default.  A larger
count raises ValueError before the grid is built.  At the cap a degree-2
in_E member check takes 1.0-1.6 s at n = 2..4 and 3.5 s at n = 16 (2 s
once its grid is memoized) on a 2-core host."""

MAX_N = 16
"""Largest ambient index n of a divisor in x_0..x_n.  A larger n raises
ValueError before the polynomial is widened to n + 1 variables."""


def xvar(i: int) -> str:
    return f"x{i}"


class Divisor:
    """Nonzero homogeneous form of degree d in x_0..x_n."""

    __slots__ = ("n", "d", "f", "normalized")

    def __init__(self, f: SparsePoly, n: Optional[int] = None):
        if f.is_zero():
            raise ValueError("the zero polynomial is not a divisor")
        if not f.is_homogeneous():
            raise ValueError("divisor polynomial must be homogeneous")
        seen = -1
        for v in f.vars:
            if not (v.startswith("x") and v[1:].isdigit()):
                raise ValueError(f"divisor variables are x0..xn, got {v!r}")
            seen = max(seen, int(v[1:]))
        if n is None:
            n = max(seen, 1)
        elif seen > n:
            raise ValueError(f"variable x{seen} exceeds stated n={n}")
        if n > MAX_N:
            raise ValueError(f"divisors support n <= {MAX_N}, got n = {n}")
        d = f.degree()
        if d < 1:
            raise ValueError(f"a divisor needs degree at least 1, got {d}")
        if d > MAX_DEGREE:
            raise ValueError(f"divisors support degree <= {MAX_DEGREE}, got {d}")
        allvars = tuple(xvar(i) for i in range(n + 1))
        self.f = f.with_vars(allvars)
        self.n = n
        self.d = d
        self.normalized = self._x0_coeff_top() == 1

    def _x0_coeff_top(self) -> Fraction:
        lead = tuple(self.d if i == 0 else 0 for i in range(self.n + 1))
        return self.f.terms.get(lead, Fraction(0))

    def x0_coefficients(self) -> dict:
        """Map i -> p_i, the coefficient of x_0^{d-i} in x_1..x_n."""
        out = {}
        for power, poly in self.f.coeffs_in(xvar(0)).items():
            out[self.d - power] = poly
        return out

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.n == other.n \
            and self.f == other.f

    def __hash__(self):
        return hash((self.n, self.f))

    def __repr__(self):
        return f"Divisor(n={self.n}, d={self.d}, {format_poly(self.f)})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "normalized": self.normalized,
                "f": self.f.to_json_dict()}

    @staticmethod
    def from_json_dict(data: dict) -> "Divisor":
        """Inverse of to_json_dict; a wrong shape raises ValueError."""
        if not isinstance(data, dict) or "f" not in data \
                or type(data.get("n")) is not int:
            raise ValueError('a divisor needs a polynomial "f" and an integer "n"')
        return Divisor(SparsePoly.from_json_dict(data["f"]), data["n"])


@dataclass
class MembershipReport:
    """Verdict for one of the divisor sets, with its certificate."""

    set_name: str                 # DivPrime | E | DivDoublePrime
    verdict: str                  # member | non_member | evidence_only
    mode: str                     # exact | sampled
    witness: Optional[object] = None
    data: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return self.verdict in ("member", "evidence_only")

    def to_json_dict(self, verbose: bool = False) -> dict:
        out = {"set": self.set_name, "verdict": self.verdict,
               "mode": self.mode}
        if self.witness is not None:
            out["witness"] = [str(c) for c in self.witness]
        for k, v in self.data.items():
            if not verbose and k.startswith("samples_"):
                continue
            out[k] = v
        return out


def in_div_prime(D: Divisor):
    """Membership in Div': the vertex (1:0:...:0) is off the divisor.

    Returns (flag, normalized divisor or None).
    """
    top = D._x0_coeff_top()
    if top == 0:
        return False, None
    if top == 1:
        return True, D
    return True, Divisor(D.f * (Fraction(1) / top), D.n)


def scale_divisor(D: Divisor, t: Rational) -> Divisor:
    """The flow f_t: the x_0^{i_0} coefficient picks up t^{d-i_0}.

    f_1 = f, f_0 = x_0^d, and (f_t)_s = f_{ts}.
    """
    if not D.normalized:
        raise ValueError("scale_divisor needs a normalized divisor")
    t = as_rational(t)
    terms = {}
    for exps, coeff in D.f.terms.items():
        w = D.d - exps[0]
        if t == 0:
            if w == 0:
                terms[exps] = coeff
        else:
            terms[exps] = coeff * t ** w
    return Divisor(SparsePoly(D.f.vars, terms), D.n)


def paper_family(n: int, k: int):
    """The product family: G = prod_{i=1..k} (x_0^2 - i(x_1^2+...+x_n^2)).

    Returns (G, x_0*G), of degrees 2k and 2k+1.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if n > MAX_N:
        raise ValueError(f"divisors support n <= {MAX_N}, got n = {n}")
    if 2 * k + 1 > MAX_DEGREE:
        raise ValueError(f"the family has degree 2k+1 <= {MAX_DEGREE}, "
                         f"so k <= {(MAX_DEGREE - 1) // 2}, got k = {k}")
    # G has a term for every monomial of degree k in x_0^2, ..., x_n^2
    terms = math.comb(n + k, n)
    if terms > MAX_POWER_TERMS:
        raise ValueError(f"the family has C(n+k, n) = {terms} terms, over "
                         f"the cap {MAX_POWER_TERMS}")
    allvars = tuple(xvar(i) for i in range(n + 1))
    x0sq = SparsePoly.monomial(allvars,
                               tuple(2 if i == 0 else 0 for i in range(n + 1)))
    S = SparsePoly.zero(allvars)
    for i in range(1, n + 1):
        S = S + SparsePoly.monomial(
            allvars, tuple(2 if j == i else 0 for j in range(n + 1)))
    G = SparsePoly.constant(1, allvars)
    for i in range(1, k + 1):
        G = G * (x0sq - S * i)
    x0 = SparsePoly.monomial(allvars,
                             tuple(1 if i == 0 else 0 for i in range(n + 1)))
    return Divisor(G, n), Divisor(x0 * G, n)


def circle_grid(count: int) -> list:
    """Integer directions (q^2-p^2, 2pq) sweeping the half circle."""
    out = [(1, 0), (0, 1)]
    for j in range(count):
        g = math.gcd(2 * j - count, count)  # p/q = (2j - count)/count
        p, q = (2 * j - count) // g, count // g
        v = (q * q - p * p, 2 * p * q)
        if v != (0, 0):
            out.append(v)
    return out


_SPHERE_SCALE = 1000


def sphere_grid(count: int) -> list:
    """Deterministic integer directions near the Fibonacci sphere lattice.

    Entries stay below `_SPHERE_SCALE` so downstream exact evaluation
    works on small integers.
    """
    out = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    golden = (1 + math.sqrt(5)) / 2
    for j in range(count):
        z = 1 - (2 * j + 1) / count
        rho = math.sqrt(max(0.0, 1 - z * z))
        theta = 2 * math.pi * j / golden
        v = (round(_SPHERE_SCALE * rho * math.cos(theta)),
             round(_SPHERE_SCALE * rho * math.sin(theta)),
             round(_SPHERE_SCALE * z))
        if v != (0, 0, 0):
            g = math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2]))
            out.append((v[0] // g, v[1] // g, v[2] // g))
    return out


def default_grid(n: int, count: Optional[int] = None) -> list:
    """Direction grid for R^n minus the origin; deterministic for all n.

    count defaults to DEFAULT_GRID_N2 for n = 2 and DEFAULT_GRID_N3 above;
    a count below 1 or above MAX_GRID raises ValueError.  Each call returns
    a fresh list, copied from `_grid`.
    """
    return list(_grid(n, count))


_COORDINATES = tuple(range(-999, 1000))


@lru_cache(maxsize=8)
def _grid(n: int, count: Optional[int]) -> tuple:
    """`default_grid` as a tuple, memoized for the last 8 (n, count) keys,
    which `in_E` iterates.  For n >= 4 the directions are drawn from
    random.Random(0) as the stream rng.randint(-999, 999) would, but as
    indices into `_COORDINATES`, so every direction shares its int
    objects.  A grid of MAX_GRID directions holds about 13 MB at n = 2,
    15 MB at n = 3 and 18 MB at n = 16 (tracemalloc), so the memo's worst
    case, 8 such grids at n = 16, holds about 141 MB."""
    if count is None:
        count = DEFAULT_GRID_N2 if n == 2 else DEFAULT_GRID_N3
    elif count < 1:
        raise ValueError(f"grid count must be at least 1, got {count}")
    elif count > MAX_GRID:
        raise ValueError(f"grid count must be at most {MAX_GRID}, got {count}")
    if n == 1:
        return ((1,),)
    if n == 2:
        return tuple(circle_grid(count))
    if n == 3:
        return tuple(sphere_grid(count))
    rng = random.Random(0)
    out = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    for _ in range(count):
        v = tuple(rng.choice(_COORDINATES) for _ in range(n))
        if any(v):
            out.append(v)
    return tuple(out)


def _integer_coefficients(D: Divisor):
    """Q > 0, the lcm of the denominators, and Q^i p_i as {exponents: int}."""
    xs, ps = D.f.vars[1:], D.x0_coefficients()
    ps = [ps.get(i, SparsePoly.zero(xs)).with_vars(xs).terms
          for i in range(1, D.d + 1)]
    Q = math.lcm(*(c.denominator for p in ps for c in p.values()))
    return Q, [{e: int(c * Q ** i) for e, c in p.items()}
               for i, p in enumerate(ps, 1)]


class _FiberChecker:
    """Per-divisor fiber kernel: integer p_i, evaluated in plain ints.

    The direction grid is integral, so after clearing the coefficient
    denominators once (sign-safe: scaling a_i by Q^i with Q > 0 scales the
    roots by Q) every sample runs in plain int arithmetic.  A term of p_i
    is compiled to c Q^i and the indices of its powers x_v^e in one table
    of powers per direction.  `in_E` reads each direction's `fiber` once
    and, for n = 2, the integer forms Q^i p_i (`forms`), and `fan.psi_demo`
    reads its fibers along rational directions from `primitive_fiber`.  D
    must be normalized.
    """

    def __init__(self, D: Divisor):
        self.Q, ps = _integer_coefficients(D)
        self.forms = ps
        self.x_maxexp = [max((e[v] for p in ps for e in p), default=0)
                         for v in range(D.n)]
        offset = [0]
        for m in self.x_maxexp:
            offset.append(offset[-1] + m + 1)
        self.terms = [[(c, tuple(offset[v] + e for v, e in enumerate(exps) if e))
                       for exps, c in p.items()]
                      for p in ps]

    def fiber(self, direction) -> list:
        """The monic fiber along an integer direction as ascending integers
        a_d, ..., a_1, 1, the a_i proportional to its coefficients
        (weight i)."""
        pw = []
        for v, m in zip(direction, self.x_maxexp):
            v, t = int(v), 1
            pw.append(t)
            for _ in range(m):
                t *= v
                pw.append(t)
        out = [1]
        for terms in self.terms:
            s = 0
            for c, idx in terms:
                for k in idx:
                    c *= pw[k]
                s += c
            out.append(s)
        return out[::-1]

    def primitive_fiber(self, direction) -> list:
        """f(s, w) along a rational direction w as primitive integers in s,
        ascending, with a positive leading coefficient.

        With l the lcm of w's denominators, `fiber`(l w) has a_i =
        (Q l)^i p_i(w), so its s^m entry times (Q l)^m is (Q l)^d p_(d-m)(w):
        the s^m coefficient of (Q l)^d f(s, w)."""
        lam, ints = _as_integers(direction)
        ql, w, out = self.Q * lam, 1, []
        for c in self.fiber(ints):
            out.append(c * w)
            w *= ql
        return _primitive(out)[1]


def _line_pivots(forms: Sequence[dict]) -> list:
    """M_2..M_d, ascending integer coefficients in y, for n = 2: the Hankel
    pivots D_{j,0} of the fiber along (1, y), with forms the integer
    Q^i p_i of `_integer_coefficients`.  M_j = Q^{j(j-1)} H_j(1, y), H_j
    the forms of `e_certificate_forms`, from one elimination over Z[y].
    ZeroDivisionError when a pivot D_{k,0}, k <= d - 2, is 0 in Z[y]."""
    d = len(forms)
    bits = (2 * d * (d - 1)).bit_length()
    # p_i is homogeneous of degree i, so its x2 exponent keys a term
    a = [{0: 1}] + [{e[1]: c for e, c in p.items()} for p in forms]
    pivots = [row[0] for row in hankel.minors(a, 1, bits)[2:]]
    return [[M.get(k, 0) for k in range(max(M, default=0) + 1)] for M in pivots]


def _circle_certified(forms: Sequence[dict]) -> bool:
    """True when every Hankel pivot H_j of the n = 2 forms is positive on
    R^2 minus the origin, so that the fiber along every direction has d
    distinct real roots; False when that proof fails, which refutes
    nothing.  H_j is homogeneous of even degree j(j-1), so it is positive
    there exactly when M_j = H_j(1, y) up to a positive factor has that
    degree, M_j(0) > 0 and M_j has no real root: one Sturm count each."""
    try:
        pivots = _line_pivots(forms)
    except ZeroDivisionError:
        return False
    for j, M in enumerate(pivots, 2):
        if len(M) != j * (j - 1) + 1 or M[0] <= 0:
            return False
        if _real_root_count(_int_chain(M)[0]):
            return False
    return True


def _certify_grid(d: int, directions: int) -> bool:
    """Whether an n = 2 grid of that many directions is worth a
    `_circle_certified` try: the certificate's cost roughly doubles with
    each degree, while the walk's grows with the grid (see `in_E`)."""
    return directions >= 2 ** d


def in_E(D: Divisor, grid_size: Optional[int] = None) -> MembershipReport:
    """Membership in E: every real line through the vertex meets the
    divisor in d distinct real points.

    Each grid direction's fiber gets one point verdict, and the first
    direction whose verdict is not TRUE refutes: by Hermite and
    Sylvester (see `sturm`) its fiber has fewer than d distinct real
    roots.  Its certificate holds the route and that count, read off the
    fiber's full Sturm chain, the only one built.  n = 1 has the single
    direction 1 and is decided exactly; for n >= 2 a positive answer is
    evidence over the deterministic grid, every sample individually
    certified, and a negative answer is exact.

    For n = 2 one certificate can stand for the whole grid: when every
    Hankel pivot H_j is positive on R^2 minus the origin, every direction's
    verdict is TRUE (`_circle_certified`, one elimination over Z[y] and
    one Sturm count per j).  It is tried once the first direction's
    verdict is TRUE, so a divisor refuted there pays nothing, and only
    when the grid has at least 2^d directions (`_certify_grid`).  Per
    call on the scaled paper family, in process on a 2-core host, against
    one direction of the walk:

        d                 2     4     6     8     10    12    14     16
        certificate ms    0.04  0.30  1.2   5.6   26    146   1285   6260
        walk step µs      8.6   18    34    32    55    111   149    166
        break-even grid   5     17    36    173   477   1314  8640   37786

    2^d is above the break-even grid from d = 5 on, and below it by at
    most 0.1 ms at d <= 4; as MAX_GRID < 2^17, d <= 16 and deg M_j <= 240.
    When the proof fails (a pivot vanishes identically, has the wrong
    degree or a real root), the walk goes on from the second direction
    and its answer is the one it gives without the certificate.  So a
    divisor that passes the grid but fails the proof pays both, at most
    about twice the walk's time at the 2^d rule on the paper family.
    That bound holds only there, where every pivot is a power of
    1 + y^2.  On perturbed members, with factors x0^2 - i (x1^2 + x2^2)
    + (r/97) x1 x2, at a grid of 2^d + 2 directions, in_E took 0.06,
    0.86 and 9.25 s at d = 8, 10 and 12 against 0.01, 0.12 and 0.94 s
    for the walk alone: there 2^d directions can cost 6-10 times the
    walk.
    """
    ok, norm = in_div_prime(D)
    if not ok:
        return MembershipReport("E", "non_member", "exact",
                                data={"reason": "divisor passes through the vertex"})
    D = norm
    checker = _FiberChecker(D)
    grid = _grid(D.n, grid_size)
    for i, direction in enumerate(grid):
        p0 = checker.fiber(direction)
        v = _point_verdict(p0)
        if v is RootVerdict.TRUE:
            if i == 0 and D.n == 2 and _certify_grid(D.d, len(grid)) \
                    and _circle_certified(checker.forms):
                break
            continue
        data: dict = {"certificate": {
            "direction": [str(c) for c in direction],
            "route": "critical" if v is RootVerdict.FALSE
            else "critical-degenerate",
            "sturm_count": _real_root_count(_int_chain(p0)[0])}}
        if D.n > 1:
            data["grid_size"] = len(grid)
        return MembershipReport(
            "E", "non_member", "exact",
            witness=tuple(as_rational(c) for c in direction), data=data)
    if D.n == 1:
        return MembershipReport("E", "member", "exact", data={"certificate": {
            "direction": ["1"], "route": "critical"}})
    return MembershipReport("E", "evidence_only", "sampled",
                            data={"grid_size": len(grid),
                                  "samples_all_certified": True})


def e_certificate_forms(D: Divisor) -> list:
    """The critical forms H_j = D_{j,0}(p_1..p_d), j = 2..d.

    The j-th leading principal Hankel minor of the Newton sums at the
    coefficient forms p_i of x_0^{d-i}: F_j(p) times the content of the
    generic D_{j,0}, 1 for d - j even and 2 for odd (checked for d <= 8).
    D is in E when every H_j is positive on R^n minus the origin.  One
    elimination over Z[x_1..x_n] at the integer forms Q^i p_i gives
    Q^{j(j-1)} H_j: no symbolic chain and no cap at d = 8.  On the product
    family on a 2-core host, (n, d) = (1, 7), (2, 10), (2, 16), (3, 10)
    take 0.8 ms, 15 ms, 380 ms, 1.4 s.
    """
    ok, D = in_div_prime(D)
    if not ok or D.d < 2:
        raise ValueError("need degree >= 2 and a divisor off the vertex")
    Q, ps = _integer_coefficients(D)
    return [H * Fraction(1, Q ** (j * (j - 1)))
            for j, H in enumerate(hankel.leading_minors(ps, D.f.vars[1:]), 2)]


def sampled_sphere_min(H: SparsePoly, directions: Sequence) -> Fraction:
    """Exact minimum of H(x)/|x|^k over a direction grid (k = deg H, even)."""
    k = H.degree()
    if k < 0:
        raise ValueError("zero polynomial")
    if k % 2:
        raise ValueError("odd-degree forms cannot be positive on directions")
    best = None
    for direction in directions:
        vals = [as_rational(c) for c in direction]
        point = {v: c for v, c in zip(H.vars, vals)}
        norm2 = sum(c * c for c in vals)
        val = H.evaluate(point) / norm2 ** (k // 2)
        if best is None or val < best:
            best = val
    return best


def positivity_margin(H: SparsePoly, delta: Rational) -> Fraction:
    """The perturbation radius eps = delta / (2M), M = C(n+k-1, k).

    Any change of each coefficient by less than eps moves sphere values
    by less than delta/2, so positivity with margin delta survives.
    """
    delta = as_rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if H.is_zero() or not H.is_homogeneous():
        raise ValueError("need a nonzero homogeneous form")
    n = len(H.vars)
    k = H.degree()
    M = math.comb(n + k - 1, k)
    return delta / (2 * M)


def _g_of_t(D: Divisor) -> SparsePoly:
    """g(t) = f_t(1, 1, 0, ..., 0) as a polynomial in t.

    f_t scales the x_0^{i_0} coefficient by t^{d-i_0}, and at
    (1, 1, 0, ..., 0) only the terms c x_0^{i_0} x_1^{d-i_0} survive, so
    g is the sum of c t^{d-i_0} over them."""
    cs = [0] * (D.d + 1)
    for exps, c in D.f.terms.items():
        if not any(exps[2:]):
            cs[D.d - exps[0]] = c
    return SparsePoly.from_dense("t", cs)


def in_div_double_prime(D: Divisor,
                        grid_size: Optional[int] = None) -> MembershipReport:
    """Membership in Div'': E-membership plus f_t(1,1,0,...,0) != 0 on (0,1].

    The g(t) step is always exact (Sturm); the overall verdict inherits
    the E verdict's strength.
    """
    ok, norm = in_div_prime(D)
    if not ok:
        return MembershipReport("DivDoublePrime", "non_member", "exact",
                                data={"reason": "divisor passes through the vertex"})
    D = norm
    e_report = in_E(D, grid_size)
    g = _g_of_t(D)
    data = {"g": format_poly(g), "g_exact": True,
            "e_verdict": e_report.verdict}
    g1 = g.evaluate({"t": 1})
    if g1 == 0:
        data["reason"] = "f_t degenerates at t = 1"
        return MembershipReport("DivDoublePrime", "non_member", "exact",
                                witness=(Fraction(1),), data=data)
    roots_inside = 0 if g.is_constant() else \
        count_distinct_roots_in(g, Fraction(0), Fraction(1), "t")
    if roots_inside:
        data["reason"] = f"g(t) has {roots_inside} root(s) in (0,1)"
        return MembershipReport("DivDoublePrime", "non_member", "exact",
                                data=data)
    if e_report.verdict == "non_member":
        data["reason"] = "fails E-membership"
        return MembershipReport("DivDoublePrime", "non_member",
                                e_report.mode, witness=e_report.witness,
                                data=data)
    verdict = "member" if e_report.verdict == "member" else "evidence_only"
    return MembershipReport("DivDoublePrime", verdict, e_report.mode,
                            data=data)
