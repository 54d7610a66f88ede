"""Symbolic Sturm sequences over the coefficient field and the
critical polynomials they produce.

For the generic monic polynomial

    f = x^d + a1*x^(d-1) + ... + ad

the Euclidean Sturm chain lives over the rational-function field in
a1..ad.  Carried out naively the coefficients blow up, so the chain is
computed in two coupled pieces:

  * an integer polynomial remainder sequence R_0, R_1, ..., R_d in
    Z[a1..ad] with the classical exact content divisions (degree drops
    of one at every step, which the generic chain always has), and
  * an exact multiplier c_j in Q(a1..ad) with  f_j = c_j * R_j,
    maintained as a signed product of powers of the R_i leading
    coefficients.

Every Euclidean step with a degree drop of one has the closed-form
remainder

    r_{i-2} = (p_i q0^2 - p0 q0 q_i - p1 q0 q_{i-1} + p0 q1 q_{i-1}) / q0^2,

and the pseudo-remainder below is computed literally from that
numerator, so the step identity holds by construction; the multiplier
bookkeeping is checked separately by exact specialization.

The sign data of the chain is carried entirely by the signed primitive
leading coefficients F_2..F_d (each equal to lc(f_j) times a positive
square): f has d distinct real roots exactly when every F_j is positive
at the coefficient point, and a vanishing F_j marks a degenerate point
where the generic chain does not specialize.

Point verdicts never build the chain.  They read the leading principal
minors of the Hankel matrix of Newton sums (Hermite's quadratic form),
whose signs equal those of the F_j, so they work at every degree.

Internally the a-monomials are packed into single integers, 8 bits per
variable, so monomial products are integer additions.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .poly import (
    SHD_ANY,
    ShdValue,
    SparsePoly,
    as_rational,
    is_substitutable_homogeneous,
)
from .sturm import count_distinct_roots_total, sturm_sequence

# 8 bits per exponent field keeps a d=8 key inside one machine word; chain
# polynomials never reach per-variable exponent 256
_BITS = 8
_MASK = (1 << _BITS) - 1

D_MAX_DEFAULT = 64 // _BITS
"""Largest d of the symbolic chain: its packed keys must fit 64 bits."""

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional speedup
    _np = None

_NP_MIN_PAIRS = 1 << 14
_NP_CHUNK = 1 << 21


def _avars(d: int) -> tuple:
    return tuple(f"a{j}" for j in range(1, d + 1))


def _unpack(key: int, d: int) -> tuple:
    return tuple((key >> (_BITS * j)) & _MASK for j in range(d))


def _wp_to_sparse(p: Mapping[int, int], d: int) -> SparsePoly:
    return SparsePoly(_avars(d), {_unpack(k, d): Fraction(v) for k, v in p.items()})


def _wp_shd(key: int, d: int) -> int:
    return sum((j + 1) * ((key >> (_BITS * j)) & _MASK) for j in range(d))


def _wp_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if _np is not None and len(a) * len(b) >= _NP_MIN_PAIRS:
        ma = max(map(abs, a.values()))
        mb = max(map(abs, b.values()))
        # every output coefficient is a sum of at most len(a) products, so
        # this bound keeps the int64 accumulation exact
        if ma * mb * len(a) < 1 << 62:
            return _wp_mul_np(a, b)
        out = _wp_mul_np_split(a, b, ma, mb)
        if out is not None:
            return out
    out: dict = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _np_chunk_reduce(kk, vv_list):
    order = kk.argsort()
    kk = kk[order]
    starts = _np.flatnonzero(_np.concatenate(([True], kk[1:] != kk[:-1])))
    return kk[starts], [_np.add.reduceat(v[order], starts) for v in vv_list]


def _wp_mul_np(a: dict, b: dict) -> dict:
    """int64 kernel: outer products grouped by sorted packed key.

    Caller guarantees the coefficient bound; key sums cannot carry across
    the 8-bit exponent fields because chain degrees stay tiny.  Chunks are
    compressed individually, then merged in one final grouped reduction so
    the only per-term Python work is the closing dict construction.
    """
    ka = _np.fromiter(a.keys(), dtype=_np.uint64, count=len(a))
    va = _np.fromiter(a.values(), dtype=_np.int64, count=len(a))
    kb = _np.fromiter(b.keys(), dtype=_np.uint64, count=len(b))
    vb = _np.fromiter(b.values(), dtype=_np.int64, count=len(b))
    rows = max(1, _NP_CHUNK // len(b))
    kparts = []
    vparts = []
    for lo in range(0, len(a), rows):
        kk = (ka[lo:lo + rows, None] + kb[None, :]).ravel()
        vv = (va[lo:lo + rows, None] * vb[None, :]).ravel()
        kk, (vv,) = _np_chunk_reduce(kk, [vv])
        kparts.append(kk)
        vparts.append(vv)
    if len(kparts) > 1:
        kk, (vv,) = _np_chunk_reduce(
            _np.concatenate(kparts), [_np.concatenate(vparts)])
    else:
        kk, vv = kparts[0], vparts[0]
    live = vv != 0
    return dict(zip(kk[live].tolist(), vv[live].tolist()))


def _wp_mul_np_split(a: dict, b: dict, ma: int, mb: int) -> dict | None:
    """Like _wp_mul_np but splits coefficients c = hi*2^s + lo so the four
    part products stay below int64 even when a single product would not.

    Returns None when no split width is safe (astronomical coefficients);
    the caller then falls back to the exact dict path.
    """
    mu = min(len(a), len(b))
    s = (62 - mu.bit_length()) // 2
    if s < 1:
        return None
    half = 1 << s
    # part magnitudes: lo < 2^s, |hi| <= m >> s (+1 for the negative case)
    ahi = (ma >> s) + 1
    bhi = (mb >> s) + 1
    if max(ahi * bhi, ahi * half, half * bhi) * mu >= 1 << 62:
        return None
    ka = _np.fromiter(a.keys(), dtype=_np.uint64, count=len(a))
    kb = _np.fromiter(b.keys(), dtype=_np.uint64, count=len(b))
    mask = half - 1
    # v == (v >> s)*2^s + (v & mask) exactly, negatives included
    alo = _np.fromiter((v & mask for v in a.values()),
                       dtype=_np.int64, count=len(a))
    ahi_a = _np.fromiter((v >> s for v in a.values()),
                         dtype=_np.int64, count=len(a))
    blo = _np.fromiter((v & mask for v in b.values()),
                       dtype=_np.int64, count=len(b))
    bhi_a = _np.fromiter((v >> s for v in b.values()),
                         dtype=_np.int64, count=len(b))
    rows = max(1, _NP_CHUNK // len(b))
    kparts = []
    vparts: list = []
    for lo_i in range(0, len(a), rows):
        sl = slice(lo_i, lo_i + rows)
        kk = (ka[sl, None] + kb[None, :]).ravel()
        vv = [(xa[sl][:, None] * xb[None, :]).ravel()
              for xa, xb in ((ahi_a, bhi_a), (ahi_a, blo),
                             (alo, bhi_a), (alo, blo))]
        kk, vv = _np_chunk_reduce(kk, vv)
        kparts.append(kk)
        vparts.append(vv)
    if len(kparts) > 1:
        kk, (hh, hl, lh, ll) = _np_chunk_reduce(
            _np.concatenate(kparts),
            [_np.concatenate([v[i] for v in vparts]) for i in range(4)])
    else:
        kk, (hh, hl, lh, ll) = kparts[0], vparts[0]
    out: dict = {}
    s2 = 2 * s
    for k, h2, m1, m2, l2 in zip(kk.tolist(), hh.tolist(), hl.tolist(),
                                 lh.tolist(), ll.tolist()):
        c = (h2 << s2) + ((m1 + m2) << s) + l2
        if c:
            out[k] = c
    return out


def _wp_scale(a: dict, c: int) -> dict:
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def _wp_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _wp_content(a: dict) -> int:
    g = 0
    for v in a.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _wp_divexact_int(a: dict, c: int) -> dict:
    out = {}
    for k, v in a.items():
        q, r = divmod(v, c)
        if r:
            raise ArithmeticError("integer content division not exact")
        out[k] = q
    return out


def _wp_divexact(p: dict, d_poly: dict, nvars: int) -> dict:
    """Exact division of packed polynomials; raises when not divisible.

    Keys at or above a moving threshold are divided with an ordinary heap
    loop; each round's quotient block is then expanded against the divisor
    in one aggregated multiply and only the below-threshold part of that
    product is subtracted from the remainder.  Quotient terms always appear
    in strictly descending key order, exactly as in the serial algorithm.
    """
    import heapq

    if not d_poly:
        raise ZeroDivisionError("exact division by zero polynomial")
    if not p:
        return {}
    dlead = max(d_poly)
    dfields = _unpack(dlead, nvars)
    dc = d_poly[dlead]
    dtail_desc = sorted(
        ((k, v) for k, v in d_poly.items() if k != dlead), reverse=True)
    rem = dict(p)
    quot: dict = {}
    block = 8192
    while rem:
        if len(rem) <= block or _np is None:
            kth = -1            # one full heap round
        else:
            keys = _np.fromiter(rem.keys(), dtype=_np.uint64, count=len(rem))
            kth = int(_np.partition(keys, len(keys) - block)[len(keys) - block])
        top = {k: v for k, v in rem.items() if k >= kth} if kth >= 0 else rem
        if kth >= 0:
            for k in top:
                del rem[k]
        else:
            rem = {}
        heap = [-k for k in top]
        heapq.heapify(heap)
        pending: dict = {}
        while heap:
            t = -heapq.heappop(heap)
            v = top.pop(t, None)
            if v is None:
                continue
            tf = _unpack(t, nvars)
            if any(tf[i] < dfields[i] for i in range(nvars)):
                raise ArithmeticError(
                    "polynomial division not exact (monomial)")
            c, r = divmod(v, dc)
            if r:
                raise ArithmeticError(
                    "polynomial division not exact (coefficient)")
            q = t - dlead
            quot[q] = c
            pending[q] = c
            # apply tail hits that stay inside this round's key range
            for tk, tv in dtail_desc:
                nk = q + tk
                if nk < kth:
                    break
                s = top.get(nk, 0) - c * tv
                if s:
                    if nk not in top:
                        heapq.heappush(heap, -nk)
                    top[nk] = s
                else:
                    top.pop(nk, None)
        if kth >= 0 and pending:
            # everything below the threshold in one aggregated product
            prod = _wp_mul(pending, d_poly)
            for k, v in prod.items():
                if k >= kth:
                    continue
                s = rem.get(k, 0) - v
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
    return quot


def _xp_deg(xp: list) -> int:
    return len(xp) - 1


def _xp_trim(xp: list) -> list:
    while xp and not xp[-1]:
        xp.pop()
    return xp


def _prem_step(a: list, b: list, nvars: int) -> list:
    """Pseudo-remainder of a by b for a degree drop of exactly one.

    Coefficients ascending; a has degree n, b degree n-1.  Returns the
    n-1 low coefficients of  q0^2*a - (p0*q0*x + (p1*q0 - p0*q1))*b,
    which is the closed-form first remainder numerator at every index.
    """
    n = _xp_deg(a)
    assert _xp_deg(b) == n - 1, "degree drop must be exactly one"
    q0 = b[n - 1]
    p0 = a[n]
    p1 = a[n - 1]
    q1 = b[n - 2] if n >= 2 else {}
    q0q0 = _wp_mul(q0, q0)
    u = _wp_mul(p0, q0)          # multiplies b[k-1] (the x-shifted part)
    v = _wp_sub(_wp_mul(p1, q0), _wp_mul(p0, q1))
    out = []
    for k in range(n - 1):
        t = _wp_mul(q0q0, a[k])
        if k >= 1:
            t = _wp_sub(t, _wp_mul(u, b[k - 1]))
        t = _wp_sub(t, _wp_mul(v, b[k]))
        out.append(t)
    return _xp_trim(out)


class _Chain:
    """Integer remainder sequence plus strict-Euclid multipliers for one d."""

    def __init__(self, d: int):
        if d < 2:
            raise ValueError("need d >= 2")
        self.d = d
        nv = d

        # f ascending: coeff of x^k is a_{d-k}; lead 1
        f = [{1 << (_BITS * (d - k - 1)): 1} for k in range(d)] + [{0: 1}]
        fp = [_wp_scale(f[k + 1], k + 1) for k in range(d)]
        prs = [f, _xp_trim(fp)]

        # c_j = sign_j * scalar_j * prod lc(R_i)^expo_j[i]; constants folded
        signs = [1, 1]
        scalars = [Fraction(1), Fraction(1)]
        expos = [{}, {}]

        while _xp_deg(prs[-1]) > 0:
            i = len(prs) - 1
            A, B = prs[-2], prs[-1]
            if _xp_deg(A) - _xp_deg(B) != 1:
                raise AssertionError(
                    "generic chain lost a degree; cannot happen for symbolic input")
            R = _prem_step(A, B, nv)
            if not R:
                raise AssertionError("generic chain terminated early")
            if i >= 2:
                # divide by lc(A)^2 in two passes; quotients against the
                # un-squared divisor are far cheaper on sparse graded input
                lcA = A[-1]
                R = _xp_trim([
                    _wp_divexact(_wp_divexact(c, lcA, nv), lcA, nv) if c else {}
                    for c in R])
            if _xp_deg(R) != _xp_deg(B) - 1:
                raise AssertionError("generic chain lost a degree after division")
            prs.append(R)

            # f_{i+1} = -f_{i-1} mod f_i = -c_{i-1} * divisor_i / lc(R_i)^2 * R_{i+1}
            sign = -signs[i - 1]
            scalar = scalars[i - 1]
            expo = dict(expos[i - 1])
            if i >= 2:
                lcA2 = A[-1]
                if len(lcA2) == 1 and 0 in lcA2:
                    scalar = scalar * Fraction(lcA2[0]) ** 2
                else:
                    expo[i - 1] = expo.get(i - 1, 0) + 2
            lcB = B[-1]
            if len(lcB) == 1 and 0 in lcB:
                scalar = scalar / Fraction(lcB[0]) ** 2
            else:
                expo[i] = expo.get(i, 0) - 2
            expo = {k: e for k, e in expo.items() if e}
            signs.append(sign)
            scalars.append(scalar)
            expos.append(expo)

        if len(prs) != d + 1:
            raise AssertionError(f"chain length {len(prs)}, expected {d + 1}")
        for expo in expos:
            assert all(e % 2 == 0 for e in expo.values()), "multiplier not a square"

        self.prs = prs
        self.signs = signs
        self.scalars = scalars
        self.expos = expos
        self.lc_sparse = {}
        for i, xp in enumerate(prs):
            if i >= 2:
                self.lc_sparse[i] = _wp_to_sparse(xp[-1], d)

    @classmethod
    def _from_parts(cls, d, prs, signs, scalars, expos):
        ch = object.__new__(cls)
        ch.d = d
        ch.prs = prs
        ch.signs = signs
        ch.scalars = scalars
        ch.expos = expos
        ch.lc_sparse = {i: _wp_to_sparse(xp[-1], d)
                        for i, xp in enumerate(prs) if i >= 2}
        return ch


def _wp_eval(p: dict, vals: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for k, v in p.items():
        term = Fraction(v)
        j = 0
        while k:
            e = k & _MASK
            if e:
                term *= vals[j] ** e
            k >>= _BITS
            j += 1
        total += term
    return total


def _verify_chain(ch) -> bool:
    """Exact specialization check of a chain against direct Euclid."""
    d = ch.d
    if len(ch.prs) != d + 1 or len(ch.signs) != d + 1:
        return False
    if any(_xp_deg(xp) != d - i for i, xp in enumerate(ch.prs)):
        return False
    for trial in range(5):
        vals = [Fraction(j + 2 + trial, 1 + (j + trial) % 3)
                for j in range(d)]
        coeffs = [vals[d - 1 - k] for k in range(d)] + [Fraction(1)]
        ref = sturm_sequence(SparsePoly.from_dense("x", coeffs), "x").polys
        if [len(p) for p in ref] != list(range(d + 1, 0, -1)):
            continue  # chain degrees not d, d-1, ..., 0: non-generic point
        for i in range(d + 1):
            mult = Fraction(ch.signs[i]) * ch.scalars[i]
            for k, e in ch.expos[i].items():
                mult *= _wp_eval(ch.prs[k][-1], vals) ** e
            got = [_wp_eval(c, vals) * mult for c in ch.prs[i]]
            if tuple(got) != ref[i]:
                return False
        return True
    return False


_CACHE_FORMAT = 1


def _chain_cache_path(d: int):
    import os

    if os.environ.get("RCT_NO_CACHE"):
        return None
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
    if path is None or not os.path.exists(path):
        return None
    try:
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("format") != _CACHE_FORMAT or data.get("bits") != _BITS \
                or data.get("d") != d:
            return None
        prs = [[{int(k): int(v) for k, v in c.items()} for c in xp]
               for xp in data["prs"]]
        ch = _Chain._from_parts(
            d, prs, [int(s) for s in data["signs"]],
            [Fraction(s) for s in data["scalars"]],
            [{int(k): int(e) for k, e in ex.items()} for ex in data["expos"]])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return ch if _verify_chain(ch) else None


def _store_cached_chain(ch) -> None:
    import gzip
    import json
    import os
    import tempfile

    path = _chain_cache_path(ch.d)
    if path is None:
        return
    data = {
        "format": _CACHE_FORMAT, "bits": _BITS, "d": ch.d,
        "signs": ch.signs,
        "scalars": [str(s) for s in ch.scalars],
        "expos": [{str(k): e for k, e in ex.items()} for ex in ch.expos],
        "prs": [[{str(k): v for k, v in c.items()} for c in xp]
                for xp in ch.prs],
    }
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
        pass


class RootVerdict(Enum):
    TRUE = "true"
    FALSE = "false"
    DEGENERATE = "degenerate"


class SubstRationalFn:
    """Quotient of substitutable-homogeneous polynomials, kept factored.

    Value = scalar * prod(poly_k ^ exp_k) with integer exponents of either
    sign.  num and den expand the positive and negative parts on demand;
    shd and point evaluation never force the expansion.
    """

    __slots__ = ("scalar", "factors", "_num", "_den")

    def __init__(self, scalar: Fraction, factors: Sequence = ()):
        self.scalar = Fraction(scalar)
        kept = []
        for p, e in factors:
            if e == 0:
                continue
            if not isinstance(p, SparsePoly):
                raise TypeError("factors must be SparsePoly")
            v = is_substitutable_homogeneous(p)
            if not v.is_homogeneous():
                raise ValueError("factor is not substitutable homogeneous")
            if p.is_zero():
                if e < 0:
                    raise ZeroDivisionError("zero factor with negative exponent")
                self.scalar = Fraction(0)
                kept = []
                break
            kept.append((p, int(e)))
        self.factors = tuple(kept)
        self._num = None
        self._den = None

    def is_zero(self) -> bool:
        return self.scalar == 0

    @property
    def shd_value(self) -> ShdValue:
        if self.is_zero():
            return SHD_ANY
        total = 0
        for p, e in self.factors:
            v = is_substitutable_homogeneous(p)
            total += e * v.value
        return ShdValue("value", total)

    @property
    def num(self) -> SparsePoly:
        if self._num is None:
            self._expand()
        return self._num

    @property
    def den(self) -> SparsePoly:
        if self._den is None:
            self._expand()
        return self._den

    def _expand(self):
        num = SparsePoly.constant(Fraction(self.scalar.numerator))
        den = SparsePoly.constant(Fraction(self.scalar.denominator))
        for p, e in self.factors:
            if e > 0:
                num = num * p ** e
            else:
                den = den * p ** (-e)
        self._num = num
        self._den = den

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        val = self.scalar
        if val == 0:
            return Fraction(0)
        for p, e in self.factors:
            base = p.evaluate(point)
            if base == 0:
                if e < 0:
                    raise ZeroDivisionError("denominator factor vanishes at point")
                return Fraction(0)
            val *= base ** e
        return val

    def __mul__(self, other):
        if isinstance(other, SubstRationalFn):
            return SubstRationalFn(self.scalar * other.scalar,
                                   self.factors + other.factors)
        return SubstRationalFn(self.scalar * as_rational(other), self.factors)

    def __repr__(self):
        if self.is_zero():
            return "SubstRationalFn(0)"
        fac = " * ".join(f"({p})^{e}" for p, e in self.factors)
        return f"SubstRationalFn({self.scalar}{' * ' + fac if fac else ''})"


class SymbolicSturmPoly:
    """One chain entry: univariate in x with SubstRationalFn coefficients.

    coeffs[i] multiplies x^(degree - i), so coeffs[0] is the leading one,
    matching the p_0..p_d indexing of the pair conditions.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Sequence[SubstRationalFn]):
        if len(coeffs) != degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        self.degree = degree
        self.coeffs = tuple(coeffs)

    def evaluate_coeffs(self, point: Mapping[str, Fraction]) -> list:
        """Ascending dense coefficient list of the specialized polynomial."""
        vals = [c.evaluate(point) for c in self.coeffs]
        return list(reversed(vals))

    def to_sparse(self, var: str = "x") -> SparsePoly:
        """Expanded form over Q(a) is only possible when denominators clear;
        here each coefficient is returned as num/den pair via SubstRationalFn,
        so this helper builds the polynomial with expanded num coefficients
        over the common denominator.  Intended for small d."""
        out = SparsePoly.zero((var,))
        xv = SparsePoly.variable(var)
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            term = c.num * xv ** (self.degree - i)
            den = c.den
            if not den.is_constant():
                raise ValueError("coefficient has a polynomial denominator; "
                                 "use evaluate_coeffs or the factored form")
            out = out + term * (Fraction(1) / den.constant_value())
        return out


class SubstitutablePair:
    """Verified pair (A, B) with the two weighted-degree conditions."""

    __slots__ = ("a", "b", "offset")

    def __init__(self, a: SymbolicSturmPoly, b: SymbolicSturmPoly, offset: int):
        self.a = a
        self.b = b
        self.offset = offset


def check_substitutable_pair(a: SymbolicSturmPoly, b: SymbolicSturmPoly):
    """Verify both pair conditions, returning the constant offset.

    Condition 1: shd(p_i) = i + shd(p_0) for the coefficients of each poly.
    Condition 2: shd(q_i) - shd(p_i) is one constant c for i = 0..deg(b).
    Zero coefficients satisfy any weighted degree and are skipped.
    """
    if b.degree != a.degree - 1:
        raise ValueError("pair requires degrees (m, m-1)")

    def base_and_ladder(poly: SymbolicSturmPoly):
        base = None
        for i, c in enumerate(poly.coeffs):
            v = c.shd_value
            if v.kind == "any":
                continue
            if base is None:
                base = v.value - i
            elif v.value - i != base:
                raise AssertionError("coefficient ladder violates shd(p_i) = i + shd(p_0)")
        return base

    base_a = base_and_ladder(a)
    base_b = base_and_ladder(b)
    if base_a is None or base_b is None:
        raise ValueError("zero polynomial in pair")
    offset = base_b - base_a
    for i in range(b.degree + 1):
        va = a.coeffs[i].shd_value
        vb = b.coeffs[i].shd_value
        if va.kind == "any" or vb.kind == "any":
            continue
        if vb.value - va.value != offset:
            raise AssertionError("pair offset is not constant across coefficients")
    return offset


class CriticalSet:
    """Signed primitive leading data of the symbolic chain for one d.

    F[k] is the critical polynomial F_{k+2} for k = 0..d-2: a primitive
    integer substitutable-homogeneous polynomial whose sign at any
    non-degenerate coefficient point equals the sign of the leading
    coefficient of the chain entry f_{k+2}.

    The exact relation is  lc(f_j) = F_j * w_scale2[j] * w_factor[j]^2
    with w_scale2[j] a positive rational and w_factor[j] a quotient of
    leading coefficients; the square and the positive scalar carry no
    sign information.  (A plain polynomial w with lc = F/w^2 does not
    exist in general: contents like the 2 in d = 3 are not squares.)
    """

    __slots__ = ("d", "F", "w_scale2", "w_factor", "_chain")

    def __init__(self, d: int, F, w_scale2, w_factor, chain):
        self.d = d
        self.F = tuple(F)
        self.w_scale2 = tuple(w_scale2)
        self.w_factor = tuple(w_factor)
        self._chain = chain

    def f_poly(self, j: int) -> SparsePoly:
        """F_j for j in 2..d."""
        return self.F[j - 2]

    def lead_coeff(self, j: int) -> SubstRationalFn:
        """Exact leading coefficient of the chain entry f_j, factored."""
        return _lead_coeff_fn(self._chain, j)


_phase_lock = threading.Lock()
_chain_cache: dict = {}
_set_cache: dict = {}
_symbolic_cache: dict = {}


_DISK_CACHE_MIN_D = 7


def _get_chain(d: int) -> _Chain:
    chain = _chain_cache.get(d)
    if chain is None:
        with _phase_lock:
            chain = _chain_cache.get(d)
            if chain is None:
                if d >= _DISK_CACHE_MIN_D:
                    chain = _load_cached_chain(d)
                if chain is None:
                    chain = _Chain(d)
                    if d >= _DISK_CACHE_MIN_D:
                        _store_cached_chain(chain)
                _chain_cache[d] = chain
    return chain


def _multiplier_factors(chain: _Chain, j: int) -> list:
    out = []
    for i, e in sorted(chain.expos[j].items()):
        out.append((chain.lc_sparse[i], e))
    return out


def _lead_coeff_fn(chain: _Chain, j: int) -> SubstRationalFn:
    lead = _wp_to_sparse(chain.prs[j][-1], chain.d)
    scalar = chain.signs[j] * chain.scalars[j]
    return SubstRationalFn(scalar, _multiplier_factors(chain, j) + [(lead, 1)])


def _check_chain_degree(d: int):
    """Refuse d before any chain is built or loaded: a key packs one
    _BITS-bit field per variable into a 64-bit machine word."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if d > D_MAX_DEFAULT:
        raise ValueError(f"d = {d} needs {d * _BITS}-bit packed monomial keys;"
                         f" the symbolic chain supports d <= {D_MAX_DEFAULT}")


def symbolic_sturm(d: int) -> list:
    """Full symbolic Sturm chain of the generic monic degree-d polynomial.

    Entry j has degree d - j; its coefficients are exact rational
    functions of a1..ad in factored form.  The chain always has length
    d + 1: a lost degree cannot happen for symbolic coefficients.
    """
    _check_chain_degree(d)
    cached = _symbolic_cache.get(d)
    if cached is not None:
        return cached
    chain = _get_chain(d)
    out = []
    for j, xp in enumerate(chain.prs):
        scalar = chain.signs[j] * chain.scalars[j]
        base_factors = _multiplier_factors(chain, j)
        deg = _xp_deg(xp)
        coeffs = []
        for k in range(deg, -1, -1):
            wp = xp[k]
            if not wp:
                coeffs.append(SubstRationalFn(Fraction(0)))
            else:
                core = _wp_to_sparse(wp, chain.d)
                coeffs.append(SubstRationalFn(scalar, base_factors + [(core, 1)]))
        out.append(SymbolicSturmPoly(deg, coeffs))
    with _phase_lock:
        _symbolic_cache.setdefault(d, out)
    return out


def verify_pair_chain(d: int) -> list:
    """Check both pair conditions on every consecutive chain pair; returns offsets."""
    seq = symbolic_sturm(d)
    offsets = []
    for a, b in zip(seq, seq[1:]):
        offsets.append(check_substitutable_pair(a, b))
    return offsets


def critical_polynomials(d: int) -> CriticalSet:
    """Critical polynomials F_2..F_d of the generic degree-d polynomial.

    Memoized per process; safe under concurrent readers.
    """
    _check_chain_degree(d)
    cs = _set_cache.get(d)
    if cs is not None:
        return cs
    chain = _get_chain(d)
    F = []
    w_scale2 = []
    w_factor = []
    for j in range(2, d + 1):
        lead = chain.prs[j][-1]
        cont = _wp_content(lead)
        prim = _wp_to_sparse(_wp_divexact_int(lead, cont), chain.d)
        sigma = chain.signs[j] * (1 if chain.scalars[j] > 0 else -1)
        F_j = prim * sigma
        v = is_substitutable_homogeneous(F_j)
        assert v.is_homogeneous(), "critical polynomial must be substitutable homogeneous"
        F.append(F_j)
        w_scale2.append(abs(chain.scalars[j]) * cont)
        half = [(chain.lc_sparse[i], e // 2) for i, e in sorted(chain.expos[j].items())]
        w_factor.append(SubstRationalFn(Fraction(1), half))
    cs = CriticalSet(d, F, w_scale2, w_factor, chain)
    with _phase_lock:
        _set_cache.setdefault(d, cs)
    return _set_cache[d]


def _hankel_verdict(b: Sequence[int]) -> RootVerdict:
    """Verdict for x^d + b1 x^(d-1) + ... + bd with integer coefficients.

    The k-th leading principal minor of the Hankel matrix (p_{i+j}) of
    Newton sums is the sum over k-subsets of the roots of their squared
    Vandermonde products; for k >= 2 its sign is the sign of F_k.  Bareiss
    fraction-free elimination without pivoting produces these minors as
    its successive pivots, so the first zero pivot is a degenerate point.
    """
    d = len(b)
    p = [d]
    for k in range(1, 2 * d - 1):
        s = k * b[k - 1] if k <= d else 0
        for i in range(1, min(k, d + 1)):
            s += b[i - 1] * p[k - i]
        p.append(-s)
    m = [p[i:i + d] for i in range(d)]
    verdict = RootVerdict.TRUE
    prev = 1
    for k in range(d):
        piv = m[k][k]
        if piv == 0:
            return RootVerdict.DEGENERATE
        if piv < 0:
            verdict = RootVerdict.FALSE
        for row in m[k + 1:]:
            rk = row[k]
            for j in range(k + 1, d):
                row[j] = (row[j] * piv - rk * m[k][j]) // prev
        prev = piv
    return verdict


def has_d_distinct_real_roots(coeffs: Sequence) -> RootVerdict:
    """Verdict for x^d + a1 x^(d-1) + ... + ad having d distinct real roots.

    coeffs is (a1, ..., ad), any d >= 2.  Degenerate means some F_j
    vanishes at the point, where the generic chain does not specialize
    and the caller should fall back to a direct Sturm count.
    """
    coeffs = [as_rational(c) for c in coeffs]
    if len(coeffs) < 2:
        raise ValueError("need d >= 2")
    # a_i -> a_i q^i scales the roots by q > 0 and the j-th minor by
    # q^(j(j-1)), so every sign survives
    q = lcm(*(c.denominator for c in coeffs))
    return _hankel_verdict([int(c * q ** i) for i, c in enumerate(coeffs, 1)])


def in_S_n(coeffs: Sequence) -> bool:
    """Exact membership: does the monic polynomial split into d distinct real roots?

    Uses the critical predicate and falls back to a direct Sturm count at
    degenerate points, so the answer is always exact.
    """
    coeffs = [as_rational(c) for c in coeffs]
    verdict = has_d_distinct_real_roots(coeffs)
    if verdict is RootVerdict.TRUE:
        return True
    if verdict is RootVerdict.FALSE:
        return False
    d = len(coeffs)
    dense = [Fraction(1)] + coeffs  # descending
    poly = SparsePoly.from_dense("x", list(reversed(dense)))
    return count_distinct_roots_total(poly) == d
