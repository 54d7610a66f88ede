"""Sturm sequences and exact real-root counting for rational polynomials.

The chain is Euclid's: f0 = f, f1 = f', and each later entry is the
negated remainder of the two before it.  It is built over the integers
as a primitive pseudo-remainder sequence: denominators are cleared once,
each pseudo-remainder lc^k * f_{i-1} mod f_i is negated (and negated
once more when the multiplier lc^k is negative), and every entry is
divided by its positive content.  Each integer entry is then a positive
multiple of the Euclid entry, so both chains have the same signs
everywhere.  The chain records each multiple exactly, as the content and
the |lc|^k divided out at its step, and `SturmSeq.polys` rebuilds the
Euclid chain from them on demand.  A step whose degree drops by one, the
generic case, is one pass: each remainder coefficient is a sum of three
products, and one gcd call over them gives the content (`_drop_one`).

Point verdicts read signs off the same sequence without counting.  Let
p_k be the Newton sums of f (the power sums of its roots) and D_{j,0}
the j-th leading principal minor of the Hankel matrix (p_{r+s}).  By the
subresultant structure theorem (Basu-Pollack-Roy, Algorithms in Real
Algebraic Geometry, ch. 9) the primitive PRS of f and f' has the degrees
d, d - 1, ..., 0 exactly when every pivot D_{j,0} is nonzero, and then
the sign of the leading coefficient of its entry j is the sign of
D_{j,0}, that is of the critical polynomial F_j of `rct.critical`.  So
`_point_verdict` walks the PRS with the step `_drop_one`, keeping only
its last two entries, and returns DEGENERATE at the first step whose
degree drops by more than one, else TRUE when every leading coefficient
is positive.  By Hermite's theorem the Hankel form (p_{r+s}) has rank
the number of distinct roots and signature the number of distinct real
roots, so f has d distinct real roots exactly when that form is
positive definite, which by Sylvester's criterion means every
D_{j,0} > 0: the verdict TRUE, exact at degenerate points too, with no
root count.

Sign changes are counted after deleting zeros; the difference of the
counts at two non-root endpoints is the number of distinct real roots
between them, multiplicities ignored.  Every query reads the integer
chain, and every value and sign comes from one Horner kernel, `_value`.
The last chain built is kept, keyed by the polynomial object and the
variable, so counting and isolating one polynomial builds its chain once.

Isolation bisects from the Cauchy bound P/Q and splits until every
interval holds one root.  Every tree point is an integer u at a level L,
meaning x = P u / (Q 2^L): midpoints and shifted split points are integer
sums and shifts, and the chain's coefficients are scaled by powers of Q
once per isolation, so a sign at a node is the kernel run at P u with
shift L.  A Fujiwara bound, rounded up to a power of two `far`, lies
above the modulus of every complex root, so at a point x with |x| >= far
the sign changes equal those at the infinity on x's side, and one
integer comparison tells whether a node lies there: a split point
beyond far is counted without evaluating anything, so the root-free
descent from the Cauchy bound costs a shift and a comparison per level.
Each node carries the sign of the squarefree part f / gcd(f, f') at its
left end, and the split point's sign is known before the chain is asked:
a two-root node whose left end and split point differ in sign holds one
root on each side, and the chain is not evaluated there.  An interval
holding a single root is refined on the values of the squarefree part
alone, by quadratic interval refinement on the integer index of the
dyadic grid its bisection would end on: each step probes the grid point
nearest the secant and its neighbour, and falls back to one bisection
step when they miss the root (see `_refine`).  Fractions are built only
for the intervals returned.  The tree visits the same points as plain
Fraction bisection, and any bracketing search on that grid ends in the
same cell, so the intervals are the same.

Cheaper exact evidence stands in for the search wherever floats can aim
it.  A node's final grid is the dyadic grid its descent would end on;
if each of its n roots lies strictly inside its own cell there, the tree
returns exactly those cells (see `_isolate`).  `_cells` names n cells
from float aims and proves them with exact signs of the squarefree part
at their ends, counted against the node's Sturm count.  It is asked at
the root and at both halves of a shifted split of a polynomial whose
roots are all real, aimed by the Aberth-Ehrlich iteration, and at every
single-root node, aimed by a bracketed float Newton pass (`_aims`).  The
floats only aim: a node the signs do not prove runs the tree, and a
single root they do not prove is refined.

Isolation runs on the integer chain alone (`_isolate`), so a caller
holding integer coefficients, such as `fan.psi_demo`, isolates without
a SparsePoly.

Queries accept degrees up to MAX_DEGREE, and isolation refuses a
precision whose refinement, or a pair of roots whose separation, would
cost more than MAX_ISOLATION_WORK.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, sqrt
from typing import Iterable, Sequence

from .poly import NEG_INF, SparsePoly, _as_integers, as_rational

SignSeq = list  # of -1/0/+1

MAX_DEGREE = 256
"""Largest degree a Sturm query accepts.  Larger input raises ValueError
before any dense coefficient list is built: the chain costs about the
fourth power of the degree, seconds at 256 and close to a minute at 512."""


MAX_ISOLATION_WORK = 10 ** 12
"""Largest n m^2 K^3 an isolation accepts, for n real roots of a degree-m
polynomial and K halvings from the Cauchy interval to the precision.
Each root costs at most 3 K + 2 probes (see `_refine`), each a Horner
pass of m products of numbers of up to m K bits by K bits, so n m^2 K^3
bounds the refinement's bit work up to a constant; a root whose float
aim names its cell (`_aims`) costs two to four of those probes and the
float pass instead.  Bisection, one probe per halving, took 0.25-1.4 ps
per unit on a 2-core host, so an admitted refinement takes at most about
three times 1.5 s.  Refinement rarely comes near that bound.  On the
cases of the cap test, x^2 - 2 at 2^-4997 (K = 5000), whose cells no
double resolves, is refined in 1.3 ms where bisection took 0.22-0.32 s,
and x^256 - 3 x^2 + 1 at 10^-12 takes 2.4 ms with every root aimed
(10.5 ms refined, bisection 40-55 ms).  A cubic whose root has a complex
pair 2^-4700 beside it, refined to 2^-4700 near the cap, takes 1.2 K
probes and 1.5-1.8 s (bisection 1.2-1.3 s).
Larger input raises ValueError before the first refinement.  A large
coefficient ratio widens the Cauchy interval and so counts through K.
Roots closer than the precision are separated by tree levels past K,
each a sign of every chain entry at that level: the split loop raises
ValueError at the first node whose level L makes n m^2 L^3 exceed the cap."""


CELL_SWEEPS = 30
"""Most Aberth sweeps `_estimates` runs before it gives the polynomial to
the tree, and most Newton steps `_aims` takes for one node.  Over 1893
attempts on real-rooted products of degree 1-30 at precisions 8 to
2^-45, 1794 converged within 10 sweeps, 1855 within 30, 9 later and 29
not in 200.  A failed attempt pays every sweep, m^2 float Horner steps
each; a Newton step costs m."""

CELL_TOLERANCE = 16
"""The estimates stop once every correction of a sweep is below the cell
width over CELL_TOLERANCE, so each lies in its root's cell or beside it
on the nearer side, where `_cells` looks second."""

CELL_RESOLUTION = 46
"""The Aberth estimates are not run when the tolerance, the cell width
over CELL_TOLERANCE, is at most far 2^-CELL_RESOLUTION, for far the
Fujiwara bound: a double near far resolves 2^-52 far, and finer aims stop
converging.  Over 63 real-rooted inputs at every tolerance from far
2^-34 to far 2^-73, none failed to converge down to 2^-42; 5 failed at
2^-46, 10 at 2^-50, 30 at 2^-54 and most past 2^-56.  Over the inputs of
tolerances 2^-36 to 2^-55, isolation took 0.84-1.04 times the tree
alone for every limit from 2^-42 to 2^-52, within the host's noise, so
the limit guards against wasted sweeps more than it tunes: at 46,
x^2 - 2 takes the root's cells at 2^-20 but runs the tree at 10^-12.
There the split at 0 is decided by parity and each root's Newton aim,
whose guard is the root's own resolution, names its cell."""


class EndpointRootError(ValueError):
    """Raised when a counting endpoint is itself a root."""


def _main_var(f: SparsePoly, var: str = None) -> str:
    if var is not None:
        return var
    cands = [v for v in f.vars if f.degree_in(v) not in (0, NEG_INF)]
    if not cands:
        raise ValueError("need a non-constant polynomial")
    if len(cands) > 1:
        raise ValueError(f"main variable is ambiguous for {f}; pass var=")
    return cands[0]


def _dense(f: SparsePoly, var: str) -> list:
    if var in f.vars and f.degree_in(var) > MAX_DEGREE:
        raise ValueError(f"degree {f.degree_in(var)} exceeds the Sturm "
                         f"degree cap {MAX_DEGREE}")
    coeffs = f.dense_coeffs(var)
    if len(coeffs) < 2:
        raise ValueError("need a non-constant polynomial")
    return coeffs


def _primitive(cs: Sequence[int]):
    """(g, cs / g) with g the positive content of cs."""
    g = gcd(*cs)
    return g, (list(cs) if g == 1 else [c // g for c in cs])


def _int_dense(f: SparsePoly, var: str):
    """Primitive integer coefficients of f (ascending) and (g, den) with
    f = g/den * them, g and den positive."""
    den, ints = _as_integers(_dense(f, var))
    g, ints = _primitive(ints)
    return ints, (g, den)


def _neg_prem(a: Sequence[int], b: Sequence[int]):
    """(r, |l|^k) with r = -sign(l^k) * prem(a, b), l = lc(b), k = deg a - deg b + 1.

    Since l^k * a = q * b + prem(a, b), r is |l|^k times the negated
    Euclid remainder -(a mod b).  Trailing zeros are stripped.
    """
    lb, nb = b[-1], len(b) - 1
    k = len(a) - nb
    r = list(a)
    for e in range(k - 1, -1, -1):
        c = r.pop()
        if lb != 1:
            r = [lb * x for x in r]
        if c:
            for i in range(nb):
                r[i + e] -= c * b[i]
    mult = lb ** k
    if mult > 0:
        r = [-x for x in r]
    while r and r[-1] == 0:
        r.pop()
    return r, abs(mult)


def _scaled(cs: Sequence[int], q: int) -> list:
    """Descending coefficients c_i q^(m-i) of the ascending cs of degree m."""
    out, w = [], 1
    for c in reversed(cs):
        out.append(c * w)
        w *= q
    return out


def _value(scaled: Sequence[int], t: int, e: int) -> int:
    """(q 2^e)^m g(t / (q 2^e)), from the `_scaled` coefficients of g by q.

    For g = sum g_i x^i of degree m this is the sum of g_i t^i (q 2^e)^(m-i):
    Horner runs in t, and the powers of 2^e are shifts.  It has the sign
    of g at t / (q 2^e), and at one e its ratios are those of g's values.
    Every value and sign of this module comes from here.
    """
    acc = sh = 0
    for c in scaled:
        acc = acc * t + (c << sh)
        sh += e
    return acc


def _sign(scaled: Sequence[int], t: int, e: int) -> int:
    """Sign of g at t / (q 2^e): the sign of `_value`."""
    v = _value(scaled, t, e)
    return (v > 0) - (v < 0)


def _changes(chain: Sequence[Sequence[int]], t: int, e: int) -> int:
    """Sign changes of the `_scaled` chain at t / (q 2^e)."""
    return sign_changes([_sign(g, t, e) for g in chain])


def _signs_at(polys: Sequence[Sequence[int]], x: Fraction) -> SignSeq:
    """Signs of integer polynomials at x."""
    return [_sign(_scaled(g, x.denominator), x.numerator, 0) for g in polys]


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list:
    """a / b for integer polynomials where b divides a with an integer quotient."""
    r = list(a)
    lb, nb = b[-1], len(b) - 1
    q = [0] * (len(a) - nb)
    for e in range(len(q) - 1, -1, -1):
        c = r.pop() // lb
        q[e] = c
        if c:
            for i in range(nb):
                r[i + e] -= c * b[i]
    return q


@dataclass(frozen=True)
class SturmSeq:
    """Euclidean sign chain of one polynomial, held over the integers.

    chain[i] is a primitive integer polynomial (ascending coefficients)
    and a positive multiple of the Euclid entry polys[i]: polys[0] is the
    input, polys[1] its derivative, each later entry the negated Euclid
    remainder of the two before it, and the chain stops at the last
    nonzero remainder (a gcd of f and f' up to scalar).

    steps[i] = (num, den) records the multiple: polys[i] = scales[i] *
    chain[i] with scales[0] = num/den, scales[1] = scales[0] * num/den and
    scales[i] = scales[i - 2] * num/den.  Only the Euclid view reads it.
    """

    var: str
    chain: tuple
    steps: tuple

    def __len__(self):
        return len(self.chain)

    @property
    def scales(self) -> tuple:
        out = []
        for i, (num, den) in enumerate(self.steps):
            base = out[i - 2] if i >= 2 else out[0] if i else 1
            out.append(base * Fraction(num, den))
        return tuple(out)

    @cached_property
    def polys(self) -> tuple:
        return tuple(tuple(s * c for c in p)
                     for s, p in zip(self.scales, self.chain))

    def as_sparse(self) -> tuple:
        return tuple(SparsePoly.from_dense(self.var, p) for p in self.polys)

    def signs_at(self, x: Fraction) -> SignSeq:
        return _signs_at(self.chain, x)


def _squarefree(chain: Sequence[Sequence[int]]) -> list:
    """chain[0] / gcd(chain[0], chain[0]') from its integer Sturm chain."""
    g = chain[-1]
    return list(chain[0]) if len(g) == 1 else _exact_quotient(chain[0], g)


# the most recent chain as (f, var, chain); SparsePoly is immutable, so a
# later call on the same object and variable may return it as it is
_last_chain = (None, None, None)


def sturm_sequence(f: SparsePoly, var: str = None) -> SturmSeq:
    """Build the Sturm chain of a non-constant rational polynomial.

    The last chain built is kept, so count, count-in and isolate on one
    polynomial object build it once.
    """
    global _last_chain
    var = _main_var(f, var)
    last_f, last_var, seq = _last_chain
    if last_f is not f or last_var != var:
        seq = _build_chain(f, var)
        _last_chain = (f, var, seq)
    return seq


def _build_chain(f: SparsePoly, var: str) -> SturmSeq:
    ints, step0 = _int_dense(f, var)
    chain, steps = _int_chain(ints)
    steps[0] = step0
    return SturmSeq(var=var, chain=tuple(tuple(p) for p in chain),
                    steps=tuple(steps))


def _int_chain(p0: Sequence[int]):
    """(chain, steps) for the non-constant integer polynomial p0 (ascending):
    p0, then primitive entries, with steps[0] = (1, 1)."""
    g1, p1 = _primitive([k * c for k, c in enumerate(p0)][1:])
    chain, steps = [p0, p1], [(1, 1), (g1, 1)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        if len(a) == len(b) + 1:
            g, r, mult = _drop_one(a, b)
        else:
            r, mult = _neg_prem(a, b)
            g, r = _primitive(r)
        if not r:
            break
        chain.append(r)
        steps.append((g, mult))
    return chain, steps


def _drop_one(a: Sequence[int], b: Sequence[int]):
    """(g, r / g, lb^2) for (r, lb^2) = `_neg_prem`(a, b) and g the content
    of r (0 if r = 0), in one pass, for deg a = deg b + 1 = m + 1.

    lb^2 a = (u x + t0) b + prem with lb = lc(b), t1 = lc(a), u = lb t1
    and t0 = lb a_m - t1 b_(m-1), so r_i = u b_(i-1) + t0 b_i - lb^2 a_i.
    """
    lb, t1 = b[-1], a[-1]
    t0, u, mult = lb * a[-2] - t1 * b[-2], lb * t1, lb * lb
    r, x = [], 0
    for y, z in zip(b, a):
        r.append(u * x + t0 * y - mult * z)
        x = y
    r.pop()  # the x^m entry, zero by construction
    while r and r[-1] == 0:
        r.pop()
    g = gcd(*r)
    if g > 1:
        r = [c // g for c in r]
    return g, r, mult


class RootVerdict(Enum):
    TRUE = "true"
    FALSE = "false"
    DEGENERATE = "degenerate"


def _point_verdict(p0: Sequence[int]) -> RootVerdict:
    """Verdict for the integer polynomial p0 (ascending, degree >= 1)
    having deg p0 distinct real roots (module docstring).

    Walks the primitive PRS of p0 and p0' with the step of `_int_chain`,
    `_drop_one`, keeping only its last two entries: DEGENERATE at the
    first remainder whose degree drops by more than one (a zero remainder
    included), else TRUE when every leading coefficient is positive, else
    FALSE.
    """
    a, b = p0, _primitive([k * c for k, c in enumerate(p0)][1:])[1]
    positive = a[-1] > 0 and b[-1] > 0
    while len(b) > 1:
        r = _drop_one(a, b)[1]
        if len(r) != len(b) - 1:
            return RootVerdict.DEGENERATE
        positive = positive and r[-1] > 0
        a, b = b, r
    return RootVerdict.TRUE if positive else RootVerdict.FALSE


def sign_changes(signs: Iterable[int]) -> int:
    """Sign changes after deleting zeros."""
    cleaned = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def _changes_at_infinity(chain: Sequence[Sequence[int]]) -> tuple:
    """Sign changes of an integer chain at -infinity and at +infinity."""
    pos = [1 if p[-1] > 0 else -1 for p in chain]
    neg = [s if len(p) % 2 else -s for s, p in zip(pos, chain)]
    return sign_changes(neg), sign_changes(pos)


def _real_root_count(chain: Sequence[Sequence[int]]) -> int:
    """Distinct real roots of chain[0], from its integer Sturm chain."""
    v_neg, v_pos = _changes_at_infinity(chain)
    return v_neg - v_pos


def cauchy_root_bound(f: SparsePoly, var: str = None) -> Fraction:
    """1 + max |c_i| / |c_lead|; every real root lies strictly inside."""
    return _cauchy_bound(_dense(f, _main_var(f, var)))


def _cauchy_bound(cs: Sequence) -> Fraction:
    return 1 + Fraction(max(abs(c) for c in cs[:-1])) / abs(cs[-1])


def expand_endpoints_clear(f: SparsePoly, a, b, var: str = None):
    """Widen (a, b) outward in root-bound steps until neither end is a root.

    The returned interval contains the original one; widening can pick up
    additional roots, which is inherent to moving endpoints outward.
    """
    var = _main_var(f, var)
    a, b = as_rational(a), as_rational(b)
    step = cauchy_root_bound(f, var)
    ints = _int_dense(f, var)[0]
    while _signs_at((ints,), a)[0] == 0:
        a -= step
    while _signs_at((ints,), b)[0] == 0:
        b += step
    return a, b


def count_distinct_roots_in(f: SparsePoly, a, b, var: str = None) -> int:
    """Distinct real roots in the open interval (a, b); endpoints must not be roots."""
    var = _main_var(f, var)
    a, b = as_rational(a), as_rational(b)
    if a >= b:
        raise ValueError(f"empty interval: ({a}, {b})")
    seq = sturm_sequence(f, var)
    sa, sb = seq.signs_at(a), seq.signs_at(b)
    if sa[0] == 0:
        raise EndpointRootError(f"left endpoint {a} is a root; nudge endpoints first")
    if sb[0] == 0:
        raise EndpointRootError(f"right endpoint {b} is a root; nudge endpoints first")
    return sign_changes(sa) - sign_changes(sb)


def count_distinct_roots_total(f: SparsePoly, var: str = None) -> int:
    """Distinct real roots over the whole line, from the signs at both infinities."""
    return _real_root_count(sturm_sequence(f, var).chain)


def _fujiwara_far(cs: Sequence[int]) -> Fraction:
    """A power of two 2^(E+1) above the modulus of every complex root of
    the integer polynomial cs (ascending).

    Fujiwara: |r| <= 2 max_i |c_{n-i} / c_n|^(1/i).  Since
    |c_{n-i} / c_n| < 2^(bitlen c_{n-i} - bitlen c_n + 1), taking E as the
    largest ceil((bitlen c_{n-i} - bitlen c_n + 1) / i) makes the bound
    strict.  A monomial c x^n has only the root 0 and gets far = 1.
    """
    top = cs[-1].bit_length()
    e = max((-((top - c.bit_length() - 1) // i)
             for i, c in enumerate(reversed(cs[:-1]), 1) if c), default=-1)
    return Fraction(2) ** (e + 1)


def _halvings(P: int, Q: int, w: int, L: int, precision: Fraction) -> int:
    """The fewest halvings that bring the width P w / (Q 2^L) to at most
    precision: the bit length of the width over the precision, rounded
    up, less one."""
    num = P * w * precision.denominator
    den = (Q * precision.numerator) << L
    return (-(-num // den) - 1).bit_length()


def _refine(sqf: Sequence[int], P: int, Q: int, ua: int, ub: int, L: int,
            precision: Fraction):
    """Narrow the tree node (ua, ub, L) to width <= precision.  It holds
    exactly one root of the squarefree sqf (`_scaled` by Q), whose sign
    therefore differs at its ends.  A probe that is the root gives [m, m].

    The search runs on the node's level-(L + k) grid
    u_j = ua 2^k + j (ub - ua), where k is the fewest halvings that bring
    the width to <= precision, and keeps a bracket (lo, hi) of grid
    indices with the values of sqf at both ends, by quadratic interval
    refinement (Abbott 2006; Kerber and Sagraloff 2011).  A step cuts the
    bracket into N parts at grid points, N a power of two clipped to the
    width, and probes the cut point nearest the secant's root, then its
    neighbour towards the root.  When the two catch the root, the bracket
    shrinks to their part and N squares.  Otherwise N takes its square
    root, down to 4, the bracket shrinks to the side beyond the
    neighbour, and a bisection step runs if that side is more than half
    the bracket.  Near a simple root the secant is right to second order,
    so the steps needed fall from k to about log2 k; a failing step costs
    at most 3 probes and halves the bracket, so no node takes more than
    3 k + 2 probes.  The secant is aimed with the top bits of the values,
    32 more than the cell count has: any aim gives the same interval, a
    good one only fewer probes.

    Each root lies in exactly one cell of the grid, and a bracketing
    search probes a root that sits on a grid point before the bracket
    reaches width 1, so the intervals are the ones plain bisection on the
    same grid returns.
    """
    w = ub - ua
    k = _halvings(P, Q, w, L, precision)
    if k == 0:
        return Fraction(P * ua, Q << L), Fraction(P * ub, Q << L)
    base, level = ua << k, L + k

    def value(j: int) -> int:
        return _value(sqf, P * (base + j * w), level)

    def point(j: int) -> Fraction:
        return Fraction(P * (base + j * w), Q << level)

    lo, hi, n = 0, 1 << k, 4
    v_lo, v_hi = value(lo), value(hi)
    up = v_lo > 0  # the sign on lo's side of the root
    while hi - lo > 1:
        width = hi - lo
        cells = min(n, width)
        # the secant's root, rounded to a cut point lo + i width / cells
        # strictly inside; 32 bits past the cell count aim the probe
        a, b = v_lo, v_lo - v_hi
        drop = b.bit_length() - cells.bit_length() - 32
        if drop > 0:
            a, b = a >> drop, b >> drop
        if b < 0:
            a, b = -a, -b
        i = min(max((2 * cells * a + b) // (2 * b), 1), cells - 1)
        j = lo + i * width // cells
        v = value(j)
        if v == 0:
            return point(j), point(j)
        right = (v > 0) == up
        near = lo + (i + 1 if right else i - 1) * width // cells
        u = v_hi if near == hi else v_lo if near == lo else value(near)
        if u == 0:
            return point(near), point(near)
        if (u > 0) != (v > 0):
            if right:
                lo, v_lo, hi, v_hi = j, v, near, u
            else:
                lo, v_lo, hi, v_hi = near, u, j, v
            n *= n
            continue
        # the root lies beyond near; bisect what is left if it is more
        # than half the bracket
        n = max(isqrt(n), 4)
        if right:
            lo, v_lo = near, u
        else:
            hi, v_hi = near, u
        if 2 * (hi - lo) > width:
            mid = (lo + hi) >> 1
            v = value(mid)
            if v == 0:
                return point(mid), point(mid)
            if (v > 0) == up:
                lo, v_lo = mid, v
            else:
                hi, v_hi = mid, v
    return point(lo), point(hi)


def _estimates(sqf: Sequence[int], s: int, tol: float):
    """Float estimates y of the roots x = 2^s y of the real-rooted
    squarefree integer polynomial sqf (ascending), by the real
    Aberth-Ehrlich iteration (Aberth 1973), or None.

    With far = 2^s above every root's modulus, the monic polynomial p in
    y has its m roots in (-1, 1), so its coefficients are at most
    binomial coefficients and none overflows.  The estimates start evenly
    spaced with the mean and variance of the roots, read from the two top
    coefficients, and are updated in place, y -= N / (1 - N S) with
    N = p(y) / p'(y) and S the sum of 1 / (y - y') over the estimates
    y' other than y, added left to right in a plain loop (as sum() adds
    floats up to 3.11), until every correction of a sweep is below tol
    or CELL_SWEEPS sweeps have run.  A zero division or an overflow gives
    None; a NaN or infinite estimate makes a NaN correction, which never
    passes the test, so converged estimates are finite.
    """
    m = len(sqf) - 1
    lead = sqf[-1]
    try:
        coeffs = [c / (lead << (s * (m - i))) if s >= 0
                  else (c << (-s * (m - i))) / lead
                  for i, c in enumerate(sqf[:-1])][::-1]
        # m points evenly spaced with the mean and variance of the roots
        mean = -coeffs[0] / m
        if m == 1:
            ys = [mean]
        else:
            var = (coeffs[0] ** 2 - 2 * coeffs[1]) / m - mean * mean
            step = sqrt(max(var, 0.0) * 3 / (m * m - 1))
            ys = [mean + step * (2 * i + 1 - m) for i in range(m)]
        for _ in range(CELL_SWEEPS):
            done = True
            for i, y in enumerate(ys):
                p, dp = 1.0, 0.0
                for c in coeffs:
                    dp = dp * y + p
                    p = p * y + c
                n = p / dp
                S = 0.0
                for z in ys:
                    if z != y:
                        S += 1 / (y - z)
                w = n / (1 - n * S)
                ys[i] = y - w
                if done and not abs(w) < tol:
                    done = False
            if done:
                break
        else:
            return None
    except (ZeroDivisionError, OverflowError):
        return None
    return ys


def _aims(sqf: Sequence[int], s: int, PF: int, QF: int, nodes) -> list:
    """A float aim y, x = 2^s y, at the root of the squarefree integer
    polynomial sqf (ascending) in each single-root node (ua, ub, L, k, sa)
    of the tree, or None where none is formed.

    The node is the interval between x = P u / (Q 2^L) at u = ua and
    u = ub, with PF / QF = P / (Q 2^s), sqf has the sign sa at its left
    end, and its cells are those of its level-(L + k) grid.  Newton's
    iteration in y, on the monic polynomial that `_estimates` iterates
    on, starts at the midpoint of the node clipped to (-1, 1), keeps the
    bracket that the float signs tell, and takes the bracket's midpoint
    instead of a step that leaves the bracket or is more than half the
    step before it (as rtsafe does, Press et al. 2007, 9.4): far from a
    root of high degree, Newton creeps, and on the 448 single-root nodes
    of the seed-1 `roots` ops the plain iteration took 11 steps on
    average and up to 109, the guarded one 7.6 and at most 18.  It stops
    when a step is below the cell width over CELL_TOLERANCE, and gives
    None after CELL_SWEEPS steps.
    A cell no wider than a double resolves in the node, 2^-52 times its
    largest modulus, and a float overflow or zero division give None; a
    NaN never passes the step test.
    """
    m = len(sqf) - 1
    lead = sqf[-1]
    out = []
    try:
        coeffs = [c / (lead << (s * (m - i))) if s >= 0
                  else (c << (-s * (m - i))) / lead
                  for i, c in enumerate(sqf[:-1])][::-1]
    except OverflowError:
        return [None] * len(nodes)
    for ua, ub, L, k, sa in nodes:
        y = None
        try:
            # the node's ends in units of far, clipped to (-1, 1) before
            # they become floats
            den, ta, tb = QF << L, PF * ua, PF * ub
            lo = -1.0 if ta <= -den else ta / den
            hi = 1.0 if tb >= den else tb / den
            cell = (tb - ta) / (den << k)
            up = (sa > 0) == (lead > 0)  # p > 0 on lo's side of the root
            if cell > 2.0 ** -52 * max(-lo, hi):
                tol, z, last = cell / CELL_TOLERANCE, (lo + hi) / 2, hi - lo
                for _ in range(CELL_SWEEPS):
                    p, dp = 1.0, 0.0
                    for c in coeffs:
                        dp = dp * z + p
                        p = p * z + c
                    if (p > 0) == up:
                        lo = z
                    else:
                        hi = z
                    step = z - p / dp
                    if not lo < step < hi or 2 * abs(step - z) > last:
                        step = (lo + hi) / 2
                    last = abs(step - z)
                    if last < tol:
                        y = step
                        break
                    z = step
        except (ZeroDivisionError, OverflowError):
            pass
        out.append(y)
    return out


def _cells(sqf: Sequence[int], P: int, Q: int, far: Fraction,
           ua: int, ub: int, L: int, k: int, n: int, ys: Sequence[float]):
    """The intervals the tree returns for its node (ua, ub, L) holding n
    roots of the squarefree sqf (descending, `_scaled` by Q), when each of
    them lies strictly inside its own cell of the node's level-(L + k)
    grid u_j = ua 2^k + j (ub - ua), j = 0 .. 2^k; otherwise None.

    The float aims ys, x = far y, name the cells: those that fall in the
    node must number n, one per cell.  Exact signs of sqf at the cell
    ends decide: a cell whose ends have nonzero signs of opposite sign
    holds an odd number of roots, so n such cells, all distinct, hold
    exactly one root each with none on a grid point.  A cell without a
    sign change is retried once on the aim's nearer neighbour.  See
    `_isolate` for why the tree returns exactly these cells.
    """
    FN, FD = far.numerator, far.denominator
    w, level, size = ub - ua, L + k, 1 << k
    base = ua << k
    # one cell is hn / hd in units of far, and the node starts at
    # PF ua / hd, so y = a / b lies in cell floor((a hd - PF base b) / (b hn));
    # twice its offset there against one cell tells the nearer neighbour
    PF = P * FD
    hn, hd, start = PF * w, (Q * FN) << level, PF * base
    cells = []
    for y in sorted(ys):
        a, b = y.as_integer_ratio()
        bh = b * hn
        j, off = divmod(a * hd - start * b, bh)
        if 0 <= j < size:
            cells.append((j, -1 if 2 * off < bh else 1))
    if len({j for j, _ in cells}) != n or len(cells) != n:
        return None
    signs = {}

    def sign(j: int) -> int:
        if j not in signs:
            signs[j] = _sign(sqf, P * (base + j * w), level)
        return signs[j]

    found = []
    for j, side in cells:
        for cell in (j, j + side):
            if not 0 <= cell < size:
                continue
            lo, hi = sign(cell), sign(cell + 1)
            if not lo or not hi:
                return None
            if lo != hi:
                found.append(cell)
                break
        else:
            return None
    if len(set(found)) < n:
        return None
    den = Q << level
    return [(Fraction(P * (base + j * w), den),
             Fraction(P * (base + (j + 1) * w), den)) for j in sorted(found)]


def isolate_roots_bisection(f: SparsePoly, precision, var: str = None) -> list:
    """Disjoint rational intervals, one per distinct real root, width <= precision.

    Counting is exact at every stage, so the number of returned intervals
    always equals the total distinct-root count.  A rational root hit
    exactly is returned as a width-zero interval [r, r].
    """
    var = _main_var(f, var)
    precision = as_rational(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    return _isolate(sturm_sequence(f, var).chain, precision)


def _isolate(chain: Sequence[Sequence[int]], precision: Fraction,
             shortcuts: bool = True) -> list:
    """`isolate_roots_bisection` on the integer Sturm chain of its
    polynomial (`_int_chain`), for a Fraction precision > 0.  With
    shortcuts false, no cheaper evidence stands in for the tree: every
    split signs the chain and every root is refined, the reference the
    tests compare against.

    What the tree returns below a node is known beforehand in one case.
    Let (ua, ub, L) be a node holding n roots, w = ub - ua, and k the
    halvings that bring its width to the precision, so that its final
    grid is u_j = ua 2^k + j w at level L + k.  Suppose each of the n
    roots lies strictly inside its own cell of that grid.  The node's
    descendants at depth l < k are the aligned runs of 2^(k-l) cells,
    their midpoints are grid points and so no roots, no split below the
    node is shifted, and a descendant holding one root at depth l has
    k - l halvings left, so `_refine` searches the same grid and ends in
    the root's cell: the intervals are exactly those cells.  `_cells`
    proves the premise.  Take n distinct cells whose ends carry nonzero
    signs of the squarefree part, of opposite sign.  Each holds an odd
    number of the node's roots; the cells are disjoint and the roots
    number n, so each holds exactly one and none lies on a grid point.
    The splits skipped this way are at levels up to L + k, so a node is
    given to `_cells` only when no split there would pass the isolation
    cap; the errors are the tree's.

    The check is asked at three places.  At the root (n = r, k = K) and at
    both halves of a shifted split, when every root is real (r = deg sqf)
    and the Aberth estimates of all of them converged; the root is
    skipped when 0 is a root, since 0 is its first split point and the
    tree shifts it.  And at every single-root node, aimed by `_aims`.
    A second shortcut needs no floats: a node with n = 2 whose left end
    and split point carry different signs of the squarefree part holds
    an odd number of roots on the left, so one on each side, and the
    split's count is read off without signing the chain.  In every other
    case, and whenever a check fails, the tree runs as before, so the
    choice reads only the input.  In process on a 2-core host, each set
    timed best of 5 or 7, the shortcuts against the tree alone:

        3072 fibers of the seed-1 `flow` psi pool, 10^-12   229 ms   642 ms
        176 seed-1 `roots` polynomials, 2^-20              100 ms   215 ms
        (x-1)(x-2)...(x-30) at 2^-20, a failed root try     14 ms    11 ms
        (x-1)(x-3)(x-15) at 2^-20, roots on the grid      0.15 ms  0.08 ms
        x^2 - 2 at 10^-12                                 0.06 ms  0.07 ms
        x^256 - 3 x^2 + 1 at 10^-12                        2.4 ms   10 ms

    On the `roots` set, 13,792 chain signs at split points and no
    refinement probe against 26,312 and 10,781 before any of these
    shortcuts but the root's cells: parity decides 22% of the splits
    that would sign the chain (39% of those with two roots), the halves
    of the shifted split at 0 take their cells in 23 real-rooted inputs,
    and all 448 single-root nodes are aimed into their cells.
    """
    # a tree node (ua, ub, L) is the interval between x = P u / (Q 2^L)
    # for u = ua and u = ub, with P / Q the Cauchy bound
    bound = _cauchy_bound(chain[0])
    P, Q = bound.numerator, bound.denominator
    v_neg, v_pos = _changes_at_infinity(chain)
    roots, m = v_neg - v_pos, len(chain[0]) - 1
    # the halvings from the width 2 P / Q to at most the precision
    K = _halvings(P, Q, 2, 0, precision)
    if roots * m * m * K ** 3 > MAX_ISOLATION_WORK:
        raise ValueError(f"isolating {roots} roots of degree {m} takes {K} "
                         f"halvings each: n*m^2*K^3 exceeds the isolation "
                         f"cap {MAX_ISOLATION_WORK:.0e}")

    sqf = _squarefree(chain)
    far = _fujiwara_far(chain[0])
    FN, FD = far.numerator, far.denominator
    s = FN.bit_length() - FD.bit_length()  # far = 2^s
    PF, QF = P * FD, Q * FN
    # estimates of every root when all are real, for the cell checks of
    # the root and of the halves of a shifted split
    ys = None
    if shortcuts and roots == len(sqf) - 1 and K:
        # one level-K cell is hn / hd in units of far; a cell wider than
        # far aims to far / CELL_TOLERANCE, so the tolerance stays finite
        hn, hd = PF << 1, QF << K
        if hn << CELL_RESOLUTION > hd * CELL_TOLERANCE:
            ys = _estimates(sqf, s, min(hn, hd) / (hd * CELL_TOLERANCE))
    scaled = _scaled(sqf, Q)
    if ys is not None and chain[0][0]:
        cells = _cells(scaled, P, Q, far, -1, 1, 0, K, roots, ys)
        if cells is not None:
            return cells
    # no root reaches far, so beyond it the counts and the signs of sqf
    # are those at infinity; with far = FN / FD, x is at or beyond far iff
    # P FD |u| >= Q FN 2^L
    chain = [_scaled(g, Q) for g in chain]
    s_pos = 1 if scaled[0] > 0 else -1
    s_neg = s_pos if len(scaled) % 2 else -s_pos

    def too_deep(level: int) -> bool:
        """A node past level K separates roots closer than the precision;
        its descent is priced like a refinement to its level."""
        return level > K and roots * m * m * level ** 3 > MAX_ISOLATION_WORK

    def beyond(u: int, L: int) -> int:
        """+1 at or above far, -1 at or below -far, else 0."""
        t, lim = PF * u, QF << L
        return (t >= lim) - (t <= -lim)

    def changes(u: int, L: int) -> int:
        side = beyond(u, L)
        if side:
            return v_pos if side > 0 else v_neg
        return _changes(chain, P * u, L)

    def sqf_sign(u: int, L: int) -> int:
        side = beyond(u, L)
        if side:
            return s_pos if side > 0 else s_neg
        return _sign(scaled, P * u, L)

    def half_cells(ua: int, ub: int, L: int, va: int, vb: int):
        """`_cells` of a node with two roots or more, on the estimates."""
        k = _halvings(P, Q, ub - ua, L, precision)
        if va - vb < 2 or too_deep(L + k):
            return None
        return _cells(scaled, P, Q, far, ua, ub, L, k, va - vb, ys)

    # a node is (ua, ub, L, va, vb, sa): the sign changes of the chain at
    # both ends and the sign of sqf at the left end
    out, singles = [], []
    # the root's width 2 leaves a spare factor 2 in every u below it
    stack = [(-1, 1, 0, changes(-1, 0), changes(1, 0), sqf_sign(-1, 0))]
    while stack:
        ua, ub, L, va, vb, sa = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            singles.append((ua, ub, L, sa))
            continue
        # split at the midpoint, shifted to a + (b - a) (2^(k-1) + 1) / 2^k
        # for k = 3, 4, ... while it is a root
        w, k, frac = ub - ua, 1, 1
        while True:
            um = (ua << k) + w * frac
            sm = sqf_sign(um, L + k)
            if sm:
                break
            k = 3 if k == 1 else k + 1
            frac = (1 << (k - 1)) + 1
        if too_deep(L + k):
            raise ValueError(f"separating {roots} roots of degree {m} takes "
                             f"{L + k} or more halvings: n*m^2*L^3 exceeds "
                             f"the isolation cap {MAX_ISOLATION_WORK:.0e}")
        # two roots, and sqf changes sign between a and the split point:
        # one root lies on each side
        if shortcuts and n == 2 and sm != sa:
            vm = va - 1
        else:
            vm = changes(um, L + k)
        for half in ((um, ub << k, L + k, vm, vb, sm),
                     (ua << k, um, L + k, va, vm, sa)):
            # the halves of a shifted split are no nodes of the root's
            # grid, but each may hold its roots in cells of its own grid
            cells = k > 1 and ys is not None and half_cells(*half[:5])
            if cells:
                out += cells
            else:
                stack.append(half)
    # each single-root node takes the cell its aim names, if the signs
    # prove it, or is refined
    nodes = [(ua, ub, L, _halvings(P, Q, ub - ua, L, precision), sa)
             for ua, ub, L, sa in singles]
    aims = _aims(sqf, s, PF, QF, nodes) if shortcuts else [None] * len(nodes)
    for (ua, ub, L, k, _), y in zip(nodes, aims):
        cells = y is not None and _cells(scaled, P, Q, far, ua, ub, L, k, 1, [y])
        out += cells or [_refine(scaled, P, Q, ua, ub, L, precision)]
    out.sort()
    return out
