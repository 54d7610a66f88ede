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
products, and the content is gathered on the way (`_drop_one`).

Sign changes are counted after deleting zeros; the difference of the
counts at two non-root endpoints is the number of distinct real roots
between them, multiplicities ignored.  Every query reads the integer
chain, and every sign comes from one Horner kernel, `_sign`.  The last
chain built is kept, keyed by the polynomial object and the variable, so
counting and isolating one polynomial builds its chain once.

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
An interval holding a single root is refined on the sign of the
squarefree part f / gcd(f, f') alone, walking the integer index of the
dyadic grid its bisection ends on (see `_refine`); Fractions are built
only for the intervals returned.  The tree and the walk visit the same points as
plain Fraction bisection, so the intervals are the same.

Queries accept degrees up to MAX_DEGREE, and isolation refuses a
precision whose refinement would cost more than MAX_ISOLATION_WORK.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import NEG_INF, SparsePoly, as_rational

SignSeq = list  # of -1/0/+1

MAX_DEGREE = 256
"""Largest degree a Sturm query accepts.  Larger input raises ValueError
before any dense coefficient list is built: the chain costs about the
fourth power of the degree, seconds at 256 and close to a minute at 512."""


MAX_ISOLATION_WORK = 10 ** 12
"""Largest n m^2 K^3 an isolation accepts, for n real roots of a degree-m
polynomial and K halvings from the Cauchy interval to the precision.
Each root is refined by at most K signs, each a Horner pass of m
products of numbers of up to m K bits by K bits, so n m^2 K^3 bounds
the refinement's bit work up to a constant: 0.25-1.4 ps per unit on a
2-core host, so an admitted refinement takes at most about 1.5 s.
Larger input raises ValueError before the first refinement.  A large
coefficient ratio widens the Cauchy interval and so counts through K."""


class EndpointRootError(ValueError):
    """Raised when a counting endpoint is itself a root."""


def _main_var(f: SparsePoly, var: str = None) -> str:
    if var is not None:
        return var
    cands = [v for v in f.vars if f.degree_in(v) not in (0, NEG_INF)]
    if len(cands) != 1:
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
    cs = _dense(f, var)
    den = lcm(*(c.denominator for c in cs))
    g, ints = _primitive([c.numerator * (den // c.denominator) for c in cs])
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


def _sign(scaled: Sequence[int], t: int, e: int) -> int:
    """Sign of g at t / (q 2^e), from the `_scaled` coefficients of g by q.

    For g = sum g_i x^i of degree m, the sum of g_i t^i (q 2^e)^(m-i) is
    (q 2^e)^m g(t / (q 2^e)), so it has the sign of g there; Horner runs in
    t, and the powers of 2^e are shifts.  Every sign query of this module
    goes through here.
    """
    acc = sh = 0
    for c in scaled:
        acc = acc * t + (c << sh)
        sh += e
    return (acc > 0) - (acc < 0)


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

    def squarefree_part(self) -> list:
        """f / gcd(f, f') as a primitive integer polynomial, up to sign."""
        g = self.chain[-1]
        return list(self.chain[0]) if len(g) == 1 else _exact_quotient(self.chain[0], g)


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
    r, g, x = [], 0, 0
    for y, z in zip(b, a):
        c = u * x + t0 * y - mult * z
        r.append(c)
        g = gcd(g, c)
        x = y
    r.pop()  # the x^m entry, zero by construction
    while r and r[-1] == 0:
        r.pop()
    if g > 1:
        r = [c // g for c in r]
    return g, r, mult


def sign_changes(signs: Iterable[int]) -> int:
    """Sign changes after deleting zeros."""
    cleaned = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def _changes_at_infinity(chain: Sequence[Sequence[int]]) -> tuple:
    """Sign changes of an integer chain at -infinity and at +infinity."""
    pos = [1 if p[-1] > 0 else -1 for p in chain]
    neg = [s if len(p) % 2 else -s for s, p in zip(pos, chain)]
    return sign_changes(neg), sign_changes(pos)


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
    v_neg, v_pos = _changes_at_infinity(sturm_sequence(f, var).chain)
    return v_neg - v_pos


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


def _refine(sqf: Sequence[int], P: int, Q: int, ua: int, ub: int, L: int,
            precision: Fraction):
    """Bisect the tree node (ua, ub, L) to width <= precision.  It holds
    exactly one root of the squarefree sqf (`_scaled` by Q), whose sign
    therefore differs at its ends.  A midpoint that is the root gives [m, m].

    Every midpoint of that bisection lies on the node's level-(L + K)
    grid u_j = ua 2^K + j (ub - ua), where K is the fewest halvings that
    bring the width to <= precision, so the walk runs on the index j
    alone and visits the points plain Fraction bisection would.
    """
    w = ub - ua
    # the width P w / (Q 2^L) over the precision, rounded up
    num = P * w * precision.denominator
    den = (Q * precision.numerator) << L
    k = (-(-num // den) - 1).bit_length()
    if k == 0:
        return Fraction(P * ua, Q << L), Fraction(P * ub, Q << L)
    base, level = ua << k, L + k

    def sign(j: int) -> int:
        return _sign(sqf, P * (base + j * w), level)

    lo, hi, s_lo = 0, 1 << k, sign(0)
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        s_mid = sign(mid)
        if s_mid == 0:
            m = Fraction(P * (base + mid * w), Q << level)
            return m, m
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return (Fraction(P * (base + lo * w), Q << level),
            Fraction(P * (base + hi * w), Q << level))


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
    seq = sturm_sequence(f, var)
    # a tree node (ua, ub, L) is the interval between x = P u / (Q 2^L)
    # for u = ua and u = ub, with P / Q the Cauchy bound
    bound = _cauchy_bound(seq.chain[0])
    P, Q = bound.numerator, bound.denominator
    v_neg, v_pos = _changes_at_infinity(seq.chain)
    roots, m = v_neg - v_pos, len(seq.chain[0]) - 1
    # the halvings from the width 2 P / Q to at most the precision
    K = (-(-2 * P * precision.denominator // (Q * precision.numerator))
         - 1).bit_length()
    if roots * m * m * K ** 3 > MAX_ISOLATION_WORK:
        raise ValueError(f"isolating {roots} roots of degree {m} takes {K} "
                         f"halvings each: n*m^2*K^3 exceeds the isolation "
                         f"cap {MAX_ISOLATION_WORK:.0e}")
    chain = [_scaled(g, Q) for g in seq.chain]
    sqf = _scaled(seq.squarefree_part(), Q)

    # no root reaches far, so beyond it the counts are those at infinity;
    # with far = FN / FD, x is at or beyond far iff P FD |u| >= Q FN 2^L
    far = _fujiwara_far(seq.chain[0])
    PF, QF = P * far.denominator, Q * far.numerator

    def beyond(u: int, L: int) -> int:
        """+1 at or above far, -1 at or below -far, else 0."""
        t, lim = PF * u, QF << L
        return (t >= lim) - (t <= -lim)

    def changes(u: int, L: int) -> int:
        side = beyond(u, L)
        if side:
            return v_pos if side > 0 else v_neg
        t = P * u
        return sign_changes([_sign(g, t, L) for g in chain])

    out = []
    # the root's width 2 leaves a spare factor 2 in every u below it
    stack = [(-1, 1, 0, changes(-1, 0), changes(1, 0))]
    while stack:
        ua, ub, L, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append(_refine(sqf, P, Q, ua, ub, L, precision))
            continue
        # split at the midpoint, shifted to a + (b - a) (2^(k-1) + 1) / 2^k
        # for k = 3, 4, ... while it is a root
        w, k, frac = ub - ua, 1, 1
        while True:
            um = (ua << k) + w * frac
            if beyond(um, L + k) or _sign(sqf, P * um, L + k):
                break
            k = 3 if k == 1 else k + 1
            frac = (1 << (k - 1)) + 1
        vm = changes(um, L + k)
        stack.append((um, ub << k, L + k, vm, vb))
        stack.append((ua << k, um, L + k, va, vm))
    out.sort()
    return out
