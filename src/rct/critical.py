"""Symbolic Sturm sequences over the coefficient field and the
critical polynomials they produce.

For the generic monic polynomial

    f = x^d + a1*x^(d-1) + ... + ad

the Euclidean Sturm chain f_0 = f, f_1 = f', ..., f_d lives over the
rational-function field in a1..ad.  It is kept as an integer chain R_0,
R_1, ..., R_d in Z[a1..ad][x], R_j of degree d - j, with f_j = c_j * R_j.
The strict Euclid recursion f_{j+1} = -(f_{j-1} mod f_j) gives
c_{j+1} = -c_{j-1} * lc(R_{j-1})^2 / lc(R_j)^2 with c_0 = c_1 = 1, whose
closed form is

    c_j = (-1)^(j(j-1)/2) * prod_{i<j} lc(R_i)^(2 * (-1)^(j-i)),

where lc(R_0) = 1 and lc(R_1) = d are constants.  So the multipliers are
code, not data: the chain record is the R_j alone.

The R_j are Hankel data.  Let p_0..p_{2d-2} be the Newton sums of f (the
power sums of its roots, integer polynomials in the a_l by Newton's
identities) and D_{j,m} the j x j minor of the Hankel matrix (p_{r+s})
on rows 0..j-1 and columns 0..j-2, j-1+m, so D_{j,0} is the j-th leading
principal minor.  Then, with a_0 = 1,

    R_j = (-1)^(j(j-1)/2) * sum_i x^(d-j-i) * sum_{l<=i} a_l * D_{j,i-l},

the subresultant chain of f and f' written in Hankel minors
(Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, ch. 9).
R_0 = f and R_1 = f' by Newton's identities, and for d <= 8 the R_j
equal, entry for entry, the reduced pseudo-remainder sequence
R_{j+1} = prem(R_{j-1}, R_j) / lc(R_{j-1})^2.  One fraction-free
(Bareiss) elimination of the symmetric d x d matrix (p_{r+s}) yields
every D_{j,m}: after j - 1 steps, row j - 1 holds D_{j,m} at column
j - 1 + m.  The Schur complements stay symmetric, so only entries on or
above the diagonal are computed.

The elimination runs once, at a_1 = 0, over d - 1 variables, and the
chain is lifted back to generic a_1 by the Cayley operator

    Omega = sum_l (d - l + 1) * a_(l-1) * d/da_l,    a_0 = 1,

the derivative of the coefficients of f(x + e) in e at e = 0
(Cayley and Sylvester; Olver, Classical Invariant Theory).  Two
identities carry the lift.  The pivots D_{j,0} depend only on the
differences of the roots, so they are seminvariants: Omega D_{j,0} = 0.
The R_j are shift covariants, R_j of f(x + e) being R_j(x + e), so Omega
acts on them as d/dx: Omega C_m = (m + 1) C_(m+1) for the coefficient
C_m of x^m in R_j (the first identity is its case m = d - j).  As
Omega = d * d/da_1 + (terms free of d/da_1), the second identity gives
the a_1-expansion of C_m from C_(m+1) and the value of C_m at a_1 = 0,
top coefficient first (`_lift`).  At d = 8 the build takes about 0.7 s
on a 2-core host, of which the lift takes 0.04 s; the elimination over
generic a_1..a_8 takes about 25 s.

The sign (-1)^(j(j-1)/2) is also the sign of c_j: the strict Euclid
chain negates every remainder, so the signs run +1, +1, -1, -1, +1, +1,
...  The rest of c_j is a positive rational times even powers of leading
coefficients, so f_j is a positive multiple of the Hankel sum wherever
it is defined, and lc(f_j) has the sign of D_{j,0}.

The sign data of the chain is carried entirely by the signed primitive
leading coefficients F_2..F_d: f has d distinct real roots exactly when
every F_j is positive at the coefficient point, and a vanishing F_j
marks a degenerate point where the generic chain does not specialize.

Point verdicts (`has_d_distinct_real_roots`, `in_S_n`) build no
symbolic chain: they read the same signs off the primitive remainder
sequence of the point itself (`sturm._point_verdict`), and accept d up
to `sturm.MAX_DEGREE`.

The elimination and the packed polynomials it runs on live in
`hankel`.  The chain, its cache file name and its stored keys use
`_BITS` = 8 bits per variable field, enough up to d = 8 (2d(d-1) = 112).

The chain is the packed R_j (`_Chain.prs`), loaded from its cache file
or built on each request and not kept in memory (`_get_chain`).  Its
grading is read off the packed keys by `_weight`: the coefficient of
x^m in R_j has weight j(j - 1) + d - j - m.  The substitutable-pair
check (`verify_pair_chain`), the homogeneity of each F_j and the check
of a cached chain all use it.  A cached chain is also evaluated at a
random integer point and compared with the Hankel formula run on the
constants of that point (`_verify_chain`).
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction
from math import gcd, prod
from operator import getitem, mul
from typing import Sequence

from . import hankel
from .poly import _as_integers, _format_terms, _grlex_key, as_rational
from .sturm import MAX_DEGREE, RootVerdict, _point_verdict

_BITS = 8

D_MAX_DEFAULT = 8
"""Largest d of the symbolic chain, set by build time: a cold build takes
about 0.03 s at d = 7 and 0.7 s at d = 8 on a 2-core host, and at d = 9
the elimination at a_1 = 0 alone takes about 18 s."""


def _avars(d: int) -> tuple:
    return tuple(f"a{j}" for j in range(1, d + 1))


def _hankel_chain(a: Sequence[dict], nvars: int) -> list:
    """R_0..R_d of x^d + a_1 x^(d-1) + ... + a_d as ascending coefficient
    lists, a = [{0: 1}, a_1, ..., a_d] packed as for `hankel.minors`."""
    prs = []
    for j, D in enumerate(hankel.minors(a, nvars, _BITS)):
        sign = -1 if j % 4 in (2, 3) else 1      # (-1)^(j(j-1)/2)
        coeffs = []
        for i in range(len(a) - j):
            c: dict = {}
            for l in range(i + 1):
                c = hankel.sub(c, hankel.mul(a[l], D[i - l]))
            coeffs.append(hankel.scale(c, -sign))
        prs.append(coeffs[::-1])
    return prs


def _multiplier(d: int, j: int) -> tuple:
    """c_j as (scalar, {i: e}) with c_j = scalar * prod_i lc(R_i)^e.

    The closed form of the module docstring, with the constants
    lc(R_0) = 1 and lc(R_1) = d folded into the scalar.
    """
    if j < 2:
        return Fraction(1), {}
    sign = -1 if j % 4 in (2, 3) else 1      # (-1)^(j(j-1)/2)
    return (sign * Fraction(d) ** (2 if j % 2 else -2),
            {i: 2 if (j - i) % 2 == 0 else -2 for i in range(2, j)})


_FIELD_WEIGHTS = tuple(range(1, D_MAX_DEFAULT + 1))


def _weight(key: int, d: int) -> int:
    """Weight sum_l l * e_l of the packed monomial prod a_l^e_l, for
    0 <= key < 2^(_BITS * d) and d <= D_MAX_DEFAULT."""
    return sum(map(mul, key.to_bytes(d, "little"), _FIELD_WEIGHTS))


class _Chain:
    """The integer Hankel chain R_0..R_d for one d."""

    def __init__(self, d: int, prs=None):
        if d < 2:
            raise ValueError("need d >= 2")
        self.d = d
        if prs is None:
            # the chain at a_1 = 0, lifted back to generic a_1
            a = [{0: 1}, {}] + [{1 << (_BITS * l): 1} for l in range(1, d)]
            prs = _lift(_hankel_chain(a, d), d)
        self.prs = prs


def _omega(p: dict, d: int) -> dict:
    """The Cayley operator sum_l (d - l + 1) a_(l-1) d/da_l, a_0 = 1, on a
    packed polynomial: d/da_l, then times a_(l-1), moves a key's unit from
    field l - 1 to field l - 2 and multiplies its value by the exponent."""
    out: dict = {}
    get = out.get
    for key, v in p.items():
        for l, e in enumerate(key.to_bytes(d, "little"), 1):
            if e:
                k = key - (1 << (_BITS * (l - 1)))
                if l > 1:
                    k += 1 << (_BITS * (l - 2))
                s = get(k, 0) + (d - l + 1) * e * v
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def _lift(dep: list, d: int) -> list:
    """The chain R_0..R_d from its values dep at a_1 = 0.

    Each coefficient of x^m in R_j is rebuilt as C_m = sum_k a_1^k E_k,
    top coefficient first, from Omega C_m = (m + 1) C_(m+1) (module
    docstring).  Split as Omega = d d/da_1 + (d - 1) a_1 d/da_2 + Omega_3
    and read at a_1^k, that is

        d (k + 1) E_(k+1) = (m + 1) [a_1^k] C_(m+1) - (d - 1) d/da_2 E_(k-1)
                            - Omega_3 E_k,

    with E_0 = C_m at a_1 = 0, C_(d-j+1) = 0 and k + 1 up to the weight
    of C_m.  E_k is free of a_1, so `_omega` E_k is Omega_3 E_k plus
    (d - 1) a_1 d/da_2 E_k, the terms with a_1, which step k + 1 reads.
    Each division is exact on a true chain and raises ArithmeticError
    otherwise.
    """
    prs = []
    for j, xp in enumerate(dep):
        coeffs = []
        above: list = []                    # the E_k of C_(m+1)
        for m in range(d - j, -1, -1):
            layers = [xp[m]]
            carry: dict = {}                # d/da_2 term of E_(k-1)
            for k in range(j * (j - 1) + d - j - m):
                acc = hankel.scale(above[k], m + 1) if k < len(above) else {}
                rest: dict = {}
                for key, v in _omega(layers[k], d).items():
                    if key & 1:             # a_1, whose key is 1
                        rest[key - 1] = v
                    else:
                        acc[key] = acc.get(key, 0) - v
                for key, v in carry.items():
                    acc[key] = acc.get(key, 0) - v
                carry = rest
                n = d * (k + 1)
                layer = {}
                for key, v in acc.items():
                    q, r = divmod(v, n)
                    if r:
                        raise ArithmeticError(
                            f"lift of R_{j}: inexact division by {n}")
                    if q:
                        layer[key] = q
                layers.append(layer)
            coeffs.append({key + k: v for k, layer in enumerate(layers)
                           for key, v in layer.items()})
            above = layers
        prs.append(coeffs[::-1])
    return prs


def _verify_chain(ch) -> bool:
    """Check a loaded chain against the Hankel formula at a random point.

    Every key must lie in 0 <= k < 2^(_BITS * d) and have the weight of
    its place, j(j - 1) + d - j - m for the coefficient of x^m in R_j
    (the grading of the module docstring).  Then one integer point n with
    entries in [1, 2^32) is drawn, again while a Bareiss pivot vanishes
    there, and every stored coefficient evaluated at a = n must equal the
    one `_hankel_chain` assembles from the constants a_l = n_l.  A wrong
    coefficient differs from the right one by a nonzero polynomial of
    total degree at most its weight, at most d(d - 1), so a wrong chain
    passes with probability at most d(d - 1) / (2^32 - 1) (Schwartz-Zippel).
    Redrawing, which happens with probability below 2 * 10^-8 at d = 8,
    raises that bound by a factor below 1 + 2 * 10^-8.

    A key's weight and its monomial at n are the sums and products of
    those of its low four fields (a_1..a_4) and its high four (a_5..a_8),
    and the keys share few halves (660 low and 503 high at d = 8), so each
    half is weighed and evaluated once (`_Halves`).
    """
    d = ch.d
    if len(ch.prs) != d + 1:
        return False
    if any(len(xp) != d + 1 - i for i, xp in enumerate(ch.prs)):
        return False
    rng = random.SystemRandom()
    while True:
        n = [rng.randrange(1, 1 << 32) for _ in range(d)]
        try:
            ref = _hankel_chain([{0: 1}] + [{0: v} for v in n], 0)
        except ZeroDivisionError:  # a Bareiss pivot vanishes at n
            continue
        break
    top = d * (d - 1)
    limit = 1 << (_BITS * d)
    npow = [[v ** e for e in range(top // w + 1)] for w, v in enumerate(n, 1)]
    low, high = _Halves(0, npow, top), _Halves(_HALF, npow, top)
    shift = _BITS * _HALF
    mask = (1 << shift) - 1
    for j, (xp, ref_xp) in enumerate(zip(ch.prs, ref)):
        for m, (c, r) in enumerate(zip(xp, ref_xp)):
            weight = j * (j - 1) + d - j - m
            total = 0
            for k, v in c.items():
                if not 0 <= k < limit:
                    return False
                wl, pl = low[k & mask]
                wh, ph = high[k >> shift]
                if wl + wh != weight:
                    return False
                total += v * pl * ph
            if total != r.get(0, 0):
                return False
    return True


_HALF = 4  # fields per key half: D_MAX_DEFAULT / 2


class _Halves(dict):
    """Memo of (weight, monomial at the point) for the four fields of a
    key half, the exponents of a_(first+1)..a_(first+4), of which those
    past a_d are 0 by the range test.  The monomial is 0 when the weight
    passes top, so that no exponent runs off its power table (such a key
    fails its weight test anyway)."""

    def __init__(self, first: int, npow: list, top: int):
        super().__init__()
        self.weights = _FIELD_WEIGHTS[first:]
        self.npow = npow[first:]
        self.top = top

    def __missing__(self, half: int) -> tuple:
        es = half.to_bytes(_HALF, "little")
        weight = sum(map(mul, es, self.weights))
        value = 0 if weight > self.top else prod(map(getitem, self.npow, es))
        self[half] = weight, value
        return weight, value


_CACHE_FORMAT = 1


def _chain_cache_path(d: int):
    import os

    base = os.environ.get("RCT_CACHE_DIR")
    if not base:
        root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache")
        base = os.path.join(root, "rct")
    return os.path.join(base, f"chain-v{_CACHE_FORMAT}-b{_BITS}-d{d}.json.gz")


def _load_cached_chain(d: int):
    import gzip
    import json
    import os

    path = _chain_cache_path(d)
    if not os.path.exists(path):
        return None
    try:
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("format") != _CACHE_FORMAT or data.get("bits") != _BITS \
                or data.get("d") != d:
            return None
        ch = _Chain(d, [[{int(k): int(v) for k, v in c.items()} for c in xp]
                        for xp in data["prs"]])
        return ch if _verify_chain(ch) else None
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError):
        return None


def _store_cached_chain(ch) -> bool:
    """Write the chain's cache file; False when the write failed."""
    import gzip
    import json
    import os
    import tempfile

    path = _chain_cache_path(ch.d)
    data = {"format": _CACHE_FORMAT, "bits": _BITS, "d": ch.d,
            "prs": [[{str(k): v for k, v in c.items()} for c in xp]
                    for xp in ch.prs]}
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as raw:
                with gzip.open(raw, "wt", encoding="utf-8") as fh:
                    json.dump(data, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        return False
    return True


class CriticalSet:
    """The critical polynomials of the symbolic chain for one d.

    F[k] is the critical polynomial F_{k+2} for k = 0..d-2: a primitive
    integer substitutable-homogeneous polynomial whose sign at any
    non-degenerate coefficient point equals the sign of the leading
    coefficient of the chain entry f_{k+2}.  Exactly, lc(f_j) is F_j times
    a positive rational times the square of a quotient of leading
    coefficients of earlier entries, so neither extra factor carries sign
    information.  (The positive rational need not be a square: at d = 3 it
    is 2/9 for F_2.)

    The F_j are kept as the packed integer forms the chain stores, and
    `F` turns them into `SparsePoly` on its first read and keeps them.
    Over d = 3..8 the packed forms hold 1.2 MB and the `SparsePoly` 2.0 MB
    more (tracemalloc), which a caller that never reads F does not pay.
    """

    __slots__ = ("d", "_packed", "_F")

    def __init__(self, d: int, packed):
        self.d = d
        self._packed = tuple(packed)
        self._F = None

    @property
    def F(self) -> tuple:
        if self._F is None:
            self._F = tuple(hankel.to_sparse(p, _avars(self.d), _BITS)
                            for p in self._packed)
        return self._F

    def _text(self, k: int) -> str:
        """`format_poly(self.F[k])`, read off the packed form: a key's
        bytes are its exponents (`_BITS` = 8)."""
        d = self.d
        terms = sorted(((key.to_bytes(d, "little"), v)
                        for key, v in self._packed[k].items()),
                       key=lambda t: _grlex_key(t[0]), reverse=True)
        return _format_terms(_avars(d), terms)


_phase_lock = threading.Lock()
_set_cache: dict = {}


_DISK_CACHE_MIN_D = 7


def _get_chain(d: int) -> _Chain:
    """The chain for d: from its cache file (d >= `_DISK_CACHE_MIN_D`),
    else built and, at those d, written.  No chain is kept in memory: a
    second request loads it again (about 20 ms at d = 8), or builds it
    again below that d or when the file could not be written."""
    with _phase_lock:
        disk = d >= _DISK_CACHE_MIN_D
        chain = _load_cached_chain(d) if disk else None
        if chain is None:
            chain = _Chain(d)
            if disk:
                _store_cached_chain(chain)
        return chain


def _check_chain_degree(d: int):
    """Refuse d before any chain is built or loaded."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if d > D_MAX_DEFAULT:
        raise ValueError(f"the symbolic chain supports d <= {D_MAX_DEFAULT}"
                         f" (over 18 s to build at d = 9), got d = {d}")


def verify_pair_chain(d: int) -> list:
    """Check the pair conditions on every consecutive chain pair; returns offsets.

    Entry j is f_j = c_j * R_j.  Condition 1: weight(R_j[i]) - i, R_j[i]
    the coefficient of x^(d - j - i), is one value, the entry's ladder,
    over every key of every coefficient.  So the ladder is also the weight
    of lc(R_j), and the weight of c_j is the sum of e * ladder_i over its
    factors lc(R_i)^e.  Condition 2 then holds with offset base_{j+1} -
    base_j, where base_j is the ladder plus the weight of c_j.

    The F_j are read off the same chain and memoized, so a later
    `critical_polynomials(d)` fetches no chain.
    """
    _check_chain_degree(d)
    chain = _get_chain(d)
    ladders = []
    for j, xp in enumerate(chain.prs):
        ladder = {_weight(k, d) - i for i, c in enumerate(reversed(xp))
                  for k in c}
        if len(ladder) != 1:
            raise AssertionError(f"entry {j}: weight(R_{j}[i]) - i is not "
                                 "one value over its keys")
        ladders.append(ladder.pop())
    bases = [w + sum(e * ladders[i] for i, e in _multiplier(d, j)[1].items())
             for j, w in enumerate(ladders)]
    if d not in _set_cache:
        _keep_set(chain)
    return [b - a for a, b in zip(bases, bases[1:])]


def critical_polynomials(d: int) -> CriticalSet:
    """Critical polynomials F_2..F_d of the generic degree-d polynomial.

    Memoized per process; safe under concurrent readers.  Only the F_j
    are kept, not the chain they are read from (`_get_chain`).
    """
    _check_chain_degree(d)
    cs = _set_cache.get(d)
    return cs if cs is not None else _keep_set(_get_chain(d))


def _keep_set(chain: _Chain) -> CriticalSet:
    """The F_j read off the chain's leading coefficients, kept in
    `_set_cache` unless a concurrent reader kept its own first."""
    d = chain.d
    F = []
    for j in range(2, d + 1):
        lead = chain.prs[j][-1]
        g = gcd(*lead.values()) * (1 if _multiplier(d, j)[0] > 0 else -1)
        if len({_weight(k, d) for k in lead}) != 1:
            raise ValueError(f"F_{j} is not substitutable homogeneous")
        F.append({k: v // g for k, v in lead.items()})
    with _phase_lock:
        return _set_cache.setdefault(d, CriticalSet(d, F))


def _point_poly(coeffs: Sequence) -> list:
    """x^d + a1 x^(d-1) + ... + ad at rational a_i as ascending integers,
    the denominators cleared by their lcm q > 0 (so lc = q > 0)."""
    coeffs = [as_rational(c) for c in coeffs]
    if not 2 <= len(coeffs) <= MAX_DEGREE:
        raise ValueError(f"point queries need 2 <= d <= {MAX_DEGREE} (the "
                         f"Sturm degree cap), got d = {len(coeffs)}")
    q, ints = _as_integers(coeffs[::-1])
    return ints + [q]


def has_d_distinct_real_roots(coeffs: Sequence) -> RootVerdict:
    """Verdict for x^d + a1 x^(d-1) + ... + ad having d distinct real roots.

    coeffs is (a1, ..., ad), 2 <= d <= MAX_DEGREE.  Degenerate means some
    F_j vanishes at the point, where the generic chain does not specialize;
    the point then has no d distinct real roots, as `in_S_n` answers.
    """
    return _point_verdict(_point_poly(coeffs))


def in_S_n(coeffs: Sequence) -> bool:
    """Exact membership: does the monic polynomial split into d distinct real
    roots?  True exactly when the point verdict is TRUE (Hermite and
    Sylvester, see `rct.sturm`), degenerate points included."""
    return _point_verdict(_point_poly(coeffs)) is RootVerdict.TRUE
