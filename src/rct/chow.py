"""Chow forms of projective cycles and the taffy homotopy.

A cycle of dimension r and degree d in P^N is represented by its Chow form:
a polynomial in r+1 groups of dual variables u<i>_<j> (group i, coordinate
j = 0..N), homogeneous of degree d in each group, determined by the cycle
up to a nonzero scalar.  Construction is supported for 0-cycles, linear
cycles, and products; anything else may be supplied as data and is taken
at face value.

The scaling action ^tF substitutes u<i>_j -> t*u<i>_j for the first m+1
coordinates of every group.  Collecting powers of t gives the t-expansion;
a form with a single nonzero coefficient is a t-eigenform, and eigenweight
(m+1)*d characterizes suspension forms.  The taffy homotopy reverses the
expansion coefficients, H(t) = g_d + g_{d-1} t + ... + g_0 t^d, sliding
any form with g_d != 0 onto a suspension form at t = 0.

The module computes on term dicts, the {exponent tuple: coefficient}
dicts of SparsePoly, and builds a SparsePoly only for the value it
returns.  A linear cycle's form is its vector of Plücker coordinates,
the maximal minors of its spanning points (Gelfand, Kapranov and
Zelevinsky, ch. 3), taken in integers.  The check F(Au) = det(A)^d F(u)
clears the denominators of A and F first and expands in integers.  A
0-cycle's form, F(Au) and the taffy path H(t) are each one pass over
term dicts.  Input is priced before anything is expanded: the degree
against MAX_POWER_DEGREE, the terms against MAX_POWER_TERMS and the
coefficient bits against MAX_POWER_BITS, as the parser prices p^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, prod
from typing import Iterable, Sequence

from .parse import MAX_POWER_BITS, MAX_POWER_DEGREE, MAX_POWER_TERMS
from .poly import (Rational, SparsePoly, _as_integers, _mul_terms,
                   _pow_terms, _substitute_terms, as_rational)

__all__ = [
    "MHForm",
    "TExpansion",
    "TaffyPath",
    "chow_of_points",
    "chow_of_linear",
    "mul_cycles",
    "t_expand",
    "eigenform_degree",
    "is_suspension",
    "taffy",
    "det_action_check",
    "proportional",
]


def group_var(i: int, j: int) -> str:
    return f"u{i}_{j}"


def _var_group_coord(name: str) -> tuple:
    # u<i>_<j>
    if not name.startswith("u") or "_" not in name:
        raise ValueError(f"not a Chow variable: {name!r}")
    i, j = name[1:].split("_", 1)
    return int(i), int(j)


@dataclass(frozen=True)
class MHForm:
    """Multihomogeneous form of degree d in each of r+1 groups.

    m is the split index: coordinates 0..m of every group form the block
    scaled by the ^t action.
    """

    N: int
    r: int
    d: int
    m: int
    form: SparsePoly

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree must be at least 1")
        if self.d > MAX_POWER_DEGREE:
            raise ValueError(f"degree {self.d} exceeds the cap {MAX_POWER_DEGREE}")
        if not 0 <= self.m <= self.N:
            raise ValueError("split index m must satisfy 0 <= m <= N")
        if self.form.is_zero():
            raise ValueError("zero polynomial is not a Chow form")
        groups = [_var_group_coord(v) for v in self.form.vars]
        for i, j in groups:
            if not (0 <= i <= self.r and 0 <= j <= self.N):
                raise ValueError(f"variable u{i}_{j} outside shape "
                                 f"(r={self.r}, N={self.N})")
        # a group without variables has degree 0; checked first, this also
        # bounds the per-term list below by the variable count
        covered = len({i for i, _ in groups})
        if covered != self.r + 1:
            raise ValueError(f"form has variables in {covered} of the "
                             f"{self.r + 1} variable groups")
        for exps in self.form.terms:
            per_group = [0] * (self.r + 1)
            for (i, _), e in zip(groups, exps):
                per_group[i] += e
            if any(g != self.d for g in per_group):
                raise ValueError(
                    "form is not homogeneous of the stated degree in "
                    "every variable group")

    def evaluate(self, hyperplanes: Sequence[Sequence[Rational]]) -> Fraction:
        """Value at u^i = hyperplanes[i]; zero means common incidence."""
        if len(hyperplanes) != self.r + 1:
            raise ValueError(f"need {self.r + 1} hyperplanes")
        point = {}
        for i, h in enumerate(hyperplanes):
            if len(h) != self.N + 1:
                raise ValueError(f"hyperplane {i} needs {self.N + 1} coefficients")
            for j, c in enumerate(h):
                point[group_var(i, j)] = as_rational(c)
        return self.form.evaluate(point)

    def __mul__(self, other: "MHForm") -> "MHForm":
        return mul_cycles(self, other)

    def to_json_dict(self) -> dict:
        return {"N": self.N, "r": self.r, "d": self.d, "m": self.m,
                "form": self.form.to_json_dict()}

    @staticmethod
    def from_json_dict(data: dict) -> "MHForm":
        """Inverse of to_json_dict; a wrong shape raises ValueError."""
        if not isinstance(data, dict) or "form" not in data \
                or any(type(data.get(k)) is not int for k in "Nrdm"):
            raise ValueError('a cycle form needs integers "N", "r", "d", "m" '
                             'and a polynomial "form"')
        return MHForm(data["N"], data["r"], data["d"], data["m"],
                      SparsePoly.from_json_dict(data["form"]))


def _as_point(coords: Sequence[Rational]) -> tuple:
    pt = tuple(as_rational(c) for c in coords)
    if all(c == 0 for c in pt):
        raise ValueError("projective point cannot be the zero vector")
    return pt


def chow_of_points(points: Iterable, m: int = 0) -> MHForm:
    """Chow form of a 0-cycle: the product of incidence linear forms.

    Each entry is either a coordinate sequence or a (coordinates,
    multiplicity) pair.  Before anything is expanded, the total
    multiplicity must be at most MAX_POWER_DEGREE, the form may have at
    most MAX_POWER_TERMS terms, and the sum over the points of the
    multiplicity times the bits of the point's largest numerator or
    denominator must be at most MAX_POWER_BITS.
    """
    factors = []
    N = None
    for entry in points:
        if (isinstance(entry, (tuple, list)) and len(entry) == 2
                and isinstance(entry[0], (tuple, list))
                and isinstance(entry[1], int)):
            coords, mult = entry
        else:
            coords, mult = entry, 1
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        pt = _as_point(coords)
        if N is None:
            N = len(pt) - 1
        elif len(pt) - 1 != N:
            raise ValueError("all points must share one ambient space")
        factors.append((pt, mult))
    if N is None:
        raise ValueError("need at least one point")
    degree = sum(mult for _, mult in factors)
    if degree > MAX_POWER_DEGREE:
        raise ValueError(f"the cycle has degree {degree}, over the cap "
                         f"{MAX_POWER_DEGREE}")
    # the smaller of the product of the powers' term counts and the number
    # of monomials of this degree in the coordinates used
    powers = prod(comb(sum(1 for c in pt if c) + k - 1, k) for pt, k in factors)
    support = sum(1 for cs in zip(*(pt for pt, _ in factors)) if any(cs))
    terms = min(powers, comb(support + degree - 1, degree))
    if terms > MAX_POWER_TERMS:
        raise ValueError(f"the cycle form may have {terms} terms, over the "
                         f"cap {MAX_POWER_TERMS}")
    # a point's linear form to the power mult has coefficients of about
    # mult times its coordinates' bits
    bits = sum(mult * max(max(c.numerator.bit_length(), c.denominator.bit_length())
                          for c in pt) for pt, mult in factors)
    if bits > MAX_POWER_BITS:
        raise ValueError(f"the cycle form needs {bits}-bit coefficients, over "
                         f"the cap {MAX_POWER_BITS}")
    vs = tuple(group_var(0, j) for j in range(N + 1))
    form = {(0,) * (N + 1): 1}
    for pt, mult in factors:
        lin = {tuple(1 if k == j else 0 for k in range(N + 1)): c
               for j, c in enumerate(pt) if c != 0}
        form = _mul_terms(form, _pow_terms(lin, mult, N + 1))
    return MHForm(N, 0, degree, m, SparsePoly(vs, form))


def _int_det(rows: list) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * p - m[i][k] * m[k][j]) // prev
        prev = p
    return sign * m[-1][-1]


def chow_of_linear(span: Sequence[Sequence[Rational]], m: int = 0) -> MHForm:
    """Chow form of the linear cycle spanned by r+1 independent points.

    The incidence determinant det[ u^i(p_k) ] vanishes exactly when all
    r+1 hyperplanes meet the span in a common point.  It is the Plücker
    vector of the span (Cauchy-Binet): for distinct coordinates
    j_0..j_r, the coefficient of u0_{j_0}*...*ur_{j_r} is the minor
    det[ p_k[j_i] ], the sign of the sorting permutation times the minor
    on the sorted coordinates.  The minors are taken on the points
    scaled to integers; each is divided by the scalings once.
    """
    pts = [_as_point(p) for p in span]
    if not pts:
        raise ValueError("need at least one spanning point")
    N = len(pts[0]) - 1
    if any(len(p) != N + 1 for p in pts):
        raise ValueError("all points must share one ambient space")
    r = len(pts) - 1
    if r > N:
        raise ValueError("too many spanning points for the ambient space")
    # the incidence determinant has a term for every injective choice of
    # one coordinate per group
    terms = comb(N + 1, r + 1) * factorial(r + 1)
    if terms > MAX_POWER_TERMS:
        raise ValueError(f"the linear cycle's form has {terms} terms, over "
                         f"the cap {MAX_POWER_TERMS}")
    vs = tuple(sorted(group_var(i, j) for i in range(r + 1) for j in range(N + 1)))
    pos = {v: n for n, v in enumerate(vs)}
    slot = [[pos[group_var(i, j)] for j in range(N + 1)] for i in range(r + 1)]
    scales, ints = zip(*map(_as_integers, pts))
    scale = prod(scales)
    cols = list(zip(*ints))  # coordinate j of every point: a row of a minor
    perms = [(sigma, (-1) ** sum(a > b for a, b in combinations(sigma, 2)))
             for sigma in permutations(range(r + 1))]
    out = {}
    for js in combinations(range(N + 1), r + 1):
        minor = _int_det([cols[j] for j in js])
        if not minor:
            continue
        c = Fraction(minor, scale)
        for sigma, sign in perms:
            e = [0] * len(vs)
            for i, k in enumerate(sigma):
                e[slot[i][js[k]]] = 1
            out[tuple(e)] = c if sign > 0 else -c
    if not out:
        raise ValueError("spanning points are linearly dependent")
    return MHForm(N, r, 1, m, SparsePoly(vs, out))


def mul_cycles(F: MHForm, G: MHForm) -> MHForm:
    """Chow form of a cycle sum: degrees add, shapes must match."""
    if (F.N, F.r, F.m) != (G.N, G.r, G.m):
        raise ValueError("cycle shapes differ (N, r, m must match)")
    return MHForm(F.N, F.r, F.d + G.d, F.m, F.form * G.form)


@dataclass(frozen=True)
class TExpansion:
    """Coefficients of ^tF by powers of t: ^tF = sum g_i t^i."""

    N: int
    r: int
    d: int
    m: int
    coefficients: tuple

    @property
    def L(self) -> int:
        return len(self.coefficients) - 1

    def nonzero_indices(self) -> list:
        return [i for i, g in enumerate(self.coefficients) if not g.is_zero()]

    def recombine(self, t: Rational) -> SparsePoly:
        t = as_rational(t)
        return self._weighted([t ** i for i in range(self.L + 1)])

    def _weighted(self, weights: Sequence[Fraction]) -> SparsePoly:
        """sum_i weights[i] * g_i, built as one term dict: every term of F
        lies in exactly one g_i."""
        terms = {}
        for g, w in zip(self.coefficients, weights):
            for e, c in g.terms.items():
                terms[e] = c * w
        return SparsePoly(self.coefficients[0].vars, terms)


def t_expand(F: MHForm) -> TExpansion:
    """Split ^tF by powers of t, exactly.

    The t-power of a term is its total exponent over the scaled block
    (coordinates 0..m of every group).  The top power is bounded by
    (m+1)*d for every form this module constructs.
    """
    groups = [_var_group_coord(v) for v in F.form.vars]
    scaled = [j <= F.m for _, j in groups]
    buckets: dict = {}
    for exps, coeff in F.form.terms.items():
        w = sum(e for e, s in zip(exps, scaled) if s)
        buckets.setdefault(w, {})[exps] = coeff
    top = max(buckets)
    bound = (F.m + 1) * F.d
    if top > bound:
        raise ValueError(
            f"t-degree {top} exceeds the cycle bound {bound}; "
            "input is not the Chow form of a cycle with this split index")
    coeffs = tuple(SparsePoly(F.form.vars, buckets.get(i, {}))
                   for i in range(top + 1))
    return TExpansion(F.N, F.r, F.d, F.m, coeffs)


def eigenform_degree(F: MHForm):
    """The s with ^tF = t^s F, or None when no such s exists."""
    te = t_expand(F)
    nz = te.nonzero_indices()
    if len(nz) != 1:
        return None
    s = nz[0]
    assert te.coefficients[s] == F.form, "single bucket must reproduce F"
    return s


def is_suspension(F: MHForm, proper_intersection: bool = False) -> bool:
    """True iff ^tF = t^((m+1)d) F.

    With proper_intersection set, an eigenform of weight below (m+1)*d is
    rejected as inconsistent input rather than merely non-suspension.
    """
    s = eigenform_degree(F)
    want = (F.m + 1) * F.d
    if proper_intersection and s is not None and s < want:
        raise ValueError(
            f"eigenweight {s} below the proper-intersection bound {want}; "
            "input is inconsistent")
    return s == want


@dataclass(frozen=True)
class TaffyPath:
    """The homotopy H(t) = g_d + g_{d-1} t + ... + g_0 t^d (m = 0)."""

    expansion: TExpansion

    def __call__(self, t: Rational) -> MHForm:
        te = self.expansion
        t = as_rational(t)
        form = te._weighted([t ** (te.d - i) for i in range(te.L + 1)])
        return MHForm(te.N, te.r, te.d, te.m, form)


def taffy(F: MHForm) -> TaffyPath:
    """Deformation of F onto the suspension form g_d at t = 0.

    Requires m = 0 and g_d != 0 (the cycle meets the base properly).
    H(1) = F; H(0) = g_d is always a suspension form.
    """
    if F.m != 0:
        raise ValueError("taffy is defined for split index m = 0")
    te = t_expand(F)
    if te.L < F.d or te.coefficients[F.d].is_zero():
        raise ValueError(
            "top coefficient g_d vanishes: improper intersection with "
            "the base point")
    return TaffyPath(te)


def det_action_check(F: MHForm, A: Sequence[Sequence[Rational]]) -> bool:
    """Verify F(Au) = det(A)^d F(u) exactly.

    A mixes the r+1 variable groups: (Au)^i = sum_k A[i][k] u^k.  The
    check runs in integers.  With L the lcm of A's denominators and c
    that of F's coefficients, it compares c*F((L*A)u) with
    det(L*A)^d * c*F(u).  F has degree d in each of its r+1 groups, so
    both sides are the original ones times L^((r+1)d) * c.  Before
    anything is expanded, (r+1) * d times the bits of L*A's largest
    entry must be at most MAX_POWER_BITS, and F(Au) may have at most
    MAX_POWER_TERMS terms.
    """
    n = F.r + 1
    if len(A) != n or any(len(row) != n for row in A):
        raise ValueError(f"matrix must be {n}x{n}")
    L, flat = _as_integers([as_rational(c) for row in A for c in row])
    B = [flat[i * n:(i + 1) * n] for i in range(n)]
    det = _int_det(B)
    if det == 0:
        raise ValueError("matrix is singular")
    bits = n * F.d * max(c.bit_length() for c in flat)
    if bits > MAX_POWER_BITS:
        raise ValueError(f"F(Au) needs {bits}-bit coefficients, over the "
                         f"cap {MAX_POWER_BITS}")
    # a term of degree E_j in coordinate j spreads over the r + 1 groups,
    # into at most C(E_j + r, r) monomials per coordinate; F(Au) also has
    # at most C(d + N, N) monomials per group
    groups = [_var_group_coord(v) for v in F.form.vars]
    expanded = 0
    for e in F.form.terms:
        per_coord: dict = {}
        for (_, j), k in zip(groups, e):
            per_coord[j] = per_coord.get(j, 0) + k
        expanded += prod(comb(k + F.r, F.r) for k in per_coord.values())
    terms = min(expanded, comb(F.d + F.N, F.N) ** n)
    if terms > MAX_POWER_TERMS:
        raise ValueError(f"F(Au) may have {terms} terms, over the cap "
                         f"{MAX_POWER_TERMS}")
    # u<i>_j goes to sum_k B[i][k] u<k>_j, over F's variables and the
    # ones its coordinates add in the other groups
    vs = F.form.vars
    vs += tuple(sorted({group_var(k, j) for _, j in groups for k in range(n)}
                       - set(vs)))
    pos = {v: i for i, v in enumerate(vs)}
    images = []
    for slot, (i, j) in enumerate(groups):
        image = {}
        for k, b in enumerate(B[i]):
            if b:
                e = [0] * len(vs)
                e[pos[group_var(k, j)]] = 1
                image[tuple(e)] = b
        images.append((slot, image))
    G = dict(zip(F.form.terms, _as_integers(list(F.form.terms.values()))[1]))
    lhs = _substitute_terms(G, [], images, len(vs))
    scale, pad = det ** F.d, (0,) * (len(vs) - len(F.form.vars))
    return lhs == {e + pad: scale * k for e, k in G.items()}


def proportional(F: MHForm, G: MHForm) -> bool:
    """Projective equality: equal up to a nonzero rational scalar."""
    if (F.N, F.r, F.d) != (G.N, G.r, G.d):
        return False
    a = F.form.leading_coeff()
    b = G.form.leading_coeff()
    return F.form * b == G.form * a
