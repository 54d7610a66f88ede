"""Packed integer polynomials and the Hankel elimination.

A packed polynomial is a dict {key: int}.  A key holds a monomial's
exponents in bit fields of a width the caller picks, variable v at bit
bits * v, so monomial products are integer additions.

`minors(a, nvars, bits)` is the fraction-free (Bareiss) elimination of
the Hankel matrix (p_{r+s}) of the Newton sums of x^d + a_1 x^(d-1) +
... + a_d, over packed a_l: the variables a_l for the symbolic chain
(`critical`), a divisor's coefficient forms (`leading_minors`), or
constants.  With a_l of weight l, p_k and the minor D_{j,m} (rows
0..j-1, columns 0..j-2, j-1+m) are weighted homogeneous of weights k and
j(j-1) + m, and a Bareiss numerator, a product of two minors, has weight
at most 2d(d-1).  No exponent exceeds the weight, so
(2d(d-1)).bit_length() bits keep key additions from carrying.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import SparsePoly


def _unpack(key: int, nvars: int, bits: int) -> tuple:
    mask = (1 << bits) - 1
    return tuple((key >> (bits * j)) & mask for j in range(nvars))


def to_sparse(p: Mapping[int, int], names: tuple, bits: int) -> SparsePoly:
    return SparsePoly(names, {_unpack(k, len(names), bits): Fraction(v)
                              for k, v in p.items()})


def mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
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


def scale(a: dict, c: int) -> dict:
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def divexact(p: dict, d_poly: dict, nvars: int, bits: int) -> dict:
    """Exact division of packed polynomials; raises when not divisible.

    A heap yields the remainder's keys in descending order; each largest
    key must be a monomial multiple of the divisor's leading key, and its
    coefficient an integer multiple of the leading coefficient.
    """
    if not d_poly:
        raise ZeroDivisionError("exact division by zero polynomial")
    dlead = max(d_poly)
    mask = (1 << bits) - 1
    dfields = [(bits * i, f) for i, f in enumerate(_unpack(dlead, nvars, bits)) if f]
    dc = d_poly[dlead]
    dtail = [(k, v) for k, v in d_poly.items() if k != dlead]
    rem = dict(p)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quot: dict = {}
    while heap:
        t = -heapq.heappop(heap)
        v = rem.pop(t, None)
        if v is None:
            continue
        if any((t >> s) & mask < f for s, f in dfields):
            raise ArithmeticError("polynomial division not exact (monomial)")
        c, r = divmod(v, dc)
        if r:
            raise ArithmeticError("polynomial division not exact (coefficient)")
        q = t - dlead
        quot[q] = c
        for tk, tv in dtail:
            nk = q + tk
            s = rem.get(nk, 0) - c * tv
            if s:
                if nk not in rem:
                    heapq.heappush(heap, -nk)
                rem[nk] = s
            else:
                rem.pop(nk, None)
    return quot


def minors(a: Sequence[dict], nvars: int, bits: int) -> list:
    """minors[j][m] = D_{j,m}, j = 0..d, of x^d + a_1 x^(d-1) + ... + a_d,
    a = [{0: 1}, a_1, ..., a_d] packed in nvars fields of the given width.
    ZeroDivisionError when a pivot D_{k,0}, k <= d - 2, is zero."""
    d = len(a) - 1
    # Newton's identities: p_k = -k a_k - sum_{0<i<k} a_i p_{k-i}
    p = [{0: d}]
    for k in range(1, 2 * d - 1):
        s = scale(a[k], -k) if k <= d else {}
        for i in range(1, min(k, d + 1)):
            s = sub(s, mul(a[i], p[k - i]))
        p.append(s)
    # rows[r][c - r] is entry (r, c) of the Bareiss matrix, c >= r; entry
    # (r, k) below the pivot row is read from (k, r) by symmetry
    rows = [p[2 * r:r + d] for r in range(d)]
    prev = {0: 1}
    for k in range(d - 1):
        top = rows[k]
        piv = top[0]
        for r in range(k + 1, d):
            low = top[r - k]
            rows[r] = [divexact(sub(mul(x, piv), mul(low, top[c - k])),
                                prev, nvars, bits)
                       for c, x in enumerate(rows[r], r)]
        prev = piv
    # D_0 is the empty minor, 1 at m = 0
    return [[{0: 1}] + [{}] * d] + rows


def leading_minors(ps: Sequence[Mapping[tuple, int]], names: tuple) -> list:
    """D_{2,0}..D_{d,0} of x^d + p_1 x^(d-1) + ... + p_d as SparsePoly in
    names, each p_l an integer form {exponent tuple: int} of degree l, so
    that no exponent exceeds the weight that sets the field width.

    When a pivot D_{k,0}(p) is 0, eps^l e_l is added to p_l, eps a new
    variable and prod_k (X - k) = sum_l e_l X^(d-l).  At names = 0 the
    roots k eps are distinct, so no pivot is 0; the keys below eps's
    field, eps = 0, give D_{j,0}(p).
    """
    d, n = len(ps), len(names)
    bits = (2 * d * (d - 1)).bit_length()
    a = [{0: 1}] + [{sum(e << (bits * v) for v, e in enumerate(exps)): c
                     for exps, c in p.items()} for p in ps]
    try:
        pivots = [row[0] for row in minors(a, n, bits)]
    except ZeroDivisionError:
        eps, e = 1 << (bits * n), [1]
        for k in range(1, d + 1):
            e = [c - k * s for c, s in zip(e + [0], [0] + e)]
        a = a[:1] + [{**a[l], eps * l: e[l]} for l in range(1, d + 1)]
        pivots = [{k: v for k, v in row[0].items() if k < eps}
                  for row in minors(a, n + 1, bits)]
    return [to_sparse(pivots[j], names, bits) for j in range(2, d + 1)]
