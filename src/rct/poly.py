"""Sparse multivariate polynomial arithmetic over exact rationals.

Coefficients are `fractions.Fraction` throughout: exact, auto-reduced,
positive denominator, totally ordered like the reals.  Polynomials are
immutable after construction; every operation returns a new object.

Terms are keyed by exponent tuples aligned with `vars`.  The canonical
term order used for leading terms and serialization is graded lex:
higher total degree first, ties broken lexicographically on the
exponent vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from typing import Mapping, Sequence, Union

Rational = Fraction

NEG_INF = -inf  # degree of the zero polynomial

Scalar = Union[Fraction, int]


def as_rational(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction, rejecting floats (not exact)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _as_integers(values: Sequence[Fraction]) -> tuple:
    """(L, the values times L) for Fractions, L the lcm of their
    denominators."""
    L = lcm(*(c.denominator for c in values))
    return L, [c.numerator * (L // c.denominator) for c in values]


def _grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


class SparsePoly:
    """Immutable sparse polynomial with Fraction coefficients.

    vars:  tuple of variable names, fixed order.
    terms: dict mapping exponent tuples (len == len(vars)) to nonzero
           Fraction coefficients.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names: {vs}")
        clean: dict = {}
        nv = len(vs)
        for exp, coeff in terms.items():
            e = tuple(exp)
            if len(e) != nv:
                raise ValueError(f"exponent {e} does not match variables {vs}")
            if any((not isinstance(k, int)) or k < 0 for k in e):
                raise ValueError(f"exponents must be non-negative integers: {e}")
            c = as_rational(coeff)
            if c != 0:
                prev = clean.get(e)
                if prev is None:
                    clean[e] = c
                else:
                    s = prev + c
                    if s == 0:
                        del clean[e]
                    else:
                        clean[e] = s
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, value: Scalar, variables: Sequence[str] = ()) -> "SparsePoly":
        c = as_rational(value)
        if c == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, name: str) -> "SparsePoly":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Sequence[int],
                 coeff: Scalar = 1) -> "SparsePoly":
        return cls(variables, {tuple(exponents): coeff})

    # ---- variable alignment ----

    def _remap(self, new_vars: tuple) -> dict:
        """Re-express terms over a superset of variables (name-sorted union)."""
        if new_vars == self.vars:
            return dict(self.terms)
        pos = {v: i for i, v in enumerate(new_vars)}
        idx = [pos[v] for v in self.vars]
        n = len(new_vars)
        out = {}
        for exp, c in self.terms.items():
            e = [0] * n
            for i, k in zip(idx, exp):
                e[i] = k
            out[tuple(e)] = c
        return out

    def with_vars(self, variables: Sequence[str]) -> "SparsePoly":
        """Return the same polynomial over a wider variable tuple."""
        vs = tuple(variables)
        missing = set(self.vars) - set(vs)
        if missing:
            raise ValueError(f"target variables missing {sorted(missing)}")
        return SparsePoly(vs, self._remap(vs))

    @staticmethod
    def _aligned(a: "SparsePoly", b: "SparsePoly"):
        if a.vars == b.vars:
            return a.vars, a.terms, b.terms
        union = tuple(sorted(set(a.vars) | set(b.vars)))
        return union, a._remap(union), b._remap(union)

    # ---- arithmetic ----

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other, self.vars)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        vs, ta, tb = self._aligned(self, other)
        out = dict(ta)
        for e, c in tb.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return SparsePoly(vs, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other, self.vars)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SparsePoly":
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            c = as_rational(other)
            if c == 0:
                return SparsePoly.zero(self.vars)
            return SparsePoly(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        vs, ta, tb = self._aligned(self, other)
        return SparsePoly(vs, _mul_terms(ta, tb))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SparsePoly":
        c = as_rational(other)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (Fraction(1) / c)

    def __pow__(self, n: int) -> "SparsePoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        return SparsePoly(self.vars, _pow_terms(self.terms, n, len(self.vars)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other, self.vars)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        _, ta, tb = self._aligned(self, other)
        return ta == tb

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            used = self._reduced()
            h = hash((used.vars, frozenset(used.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def _reduced(self) -> "SparsePoly":
        """Drop variables that appear in no term (canonical content view)."""
        if not self.terms:
            return SparsePoly((), {}) if self.vars else self
        keep = [i for i, _ in enumerate(self.vars)
                if any(e[i] for e in self.terms)]
        if len(keep) == len(self.vars):
            return self
        vs = tuple(self.vars[i] for i in keep)
        return SparsePoly(vs, {tuple(e[i] for i in keep): c
                               for e, c in self.terms.items()})

    # ---- inspection ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str):
        if not self.terms:
            return NEG_INF
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        """True when all terms share one total degree (zero counts as yes)."""
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_term(self):
        """(exponent, coeff) maximal in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def leading_coeff(self) -> Fraction:
        return self.leading_term()[1]

    def sorted_terms(self):
        """Terms in descending graded lex order (canonical serialization order)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]),
                      reverse=True)

    # ---- evaluation and substitution ----

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        vals = []
        for v in self.vars:
            if v not in point:
                raise KeyError(f"no value for variable {v}")
            vals.append(as_rational(point[v]))
        total = Fraction(0)
        for e, c in self.terms.items():
            m = c
            for x, k in zip(vals, e):
                if k:
                    m *= x ** k
            total += m
        return total

    def substitute(self, mapping: Mapping[str, Union["SparsePoly", Scalar]]) -> "SparsePoly":
        """Substitute polynomials or scalars for variables; unmapped vars stay.

        Scalar values are folded into the coefficients first, with one x**k
        per variable and exponent, and terms that then share their remaining
        exponents are merged.  Only those folded terms are expanded through
        the polynomial values.  The result's variables are the sorted union
        of the unmapped variables that occur and of the variables of the
        polynomial values substituted for variables that occur.
        """
        scalar_of, image_of = {}, {}
        for name, val in mapping.items():
            if isinstance(val, SparsePoly):
                image_of[name] = val
            else:
                scalar_of[name] = as_rational(val)
        scalars = [(i, v, scalar_of[v]) for i, v in enumerate(self.vars)
                   if v in scalar_of]
        keep = [i for i, v in enumerate(self.vars) if v not in scalar_of]
        powers: dict = {}  # (variable, exponent) -> its scalar ** exponent
        folded: dict = {}
        for e, c in self.terms.items():
            for i, v, x in scalars:
                k = e[i]
                if k:
                    xk = powers.get((v, k))
                    if xk is None:
                        xk = powers[v, k] = x ** k
                    c *= xk
            key = tuple(e[i] for i in keep)
            folded[key] = folded.get(key, 0) + c

        used = [(slot, self.vars[i]) for slot, i in enumerate(keep)
                if any(key[slot] for key in folded)]
        names = set()
        for _, v in used:
            names.update(image_of[v].vars if v in image_of else (v,))
        vs = tuple(sorted(names))
        plain = [(slot, vs.index(v)) for slot, v in used if v not in image_of]
        images = [(slot, image_of[v]._remap(vs)) for slot, v in used
                  if v in image_of]
        return SparsePoly(vs, _substitute_terms(folded, plain, images, len(vs)))

    def coeffs_in(self, var: str) -> dict:
        """Coefficient polynomials keyed by the power of `var`.

        The returned polynomials keep the remaining variables.
        """
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            re = e[:i] + e[i + 1:]
            buckets.setdefault(k, {})[re] = c
        return {k: SparsePoly(rest, t) for k, t in buckets.items()}

    def dense_coeffs(self, var: str) -> list:
        """Ascending coefficient list; requires the poly univariate in `var`."""
        for v in self.vars:
            if v != var and self.degree_in(v) not in (0, NEG_INF):
                raise ValueError(f"not univariate in {var}: {v} appears")
        if var not in self.vars:
            if not self.is_constant():
                raise ValueError(f"{var} is not a variable of this polynomial")
            return [self.constant_value()] if self.terms else []
        i = self.vars.index(var)
        d = self.degree_in(var)
        if d is NEG_INF:
            return []
        out = [Fraction(0)] * (int(d) + 1)
        for e, c in self.terms.items():
            out[e[i]] += c
        while out and out[-1] == 0:
            out.pop()
        return out

    @classmethod
    def from_dense(cls, var: str, coeffs: Sequence[Scalar]) -> "SparsePoly":
        return cls((var,), {(k,): c for k, c in enumerate(coeffs)})

    def derivative(self, var: str) -> "SparsePoly":
        if var not in self.vars:
            return SparsePoly.zero(self.vars)
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                ne = e[:i] + (k - 1,) + e[i + 1:]
                out[ne] = out.get(ne, 0) + c * k
        return SparsePoly(self.vars, out)

    # ---- serialization ----

    def to_json_dict(self) -> dict:
        terms = [{"coeff": _format_rational(c), "exp": list(e)}
                 for e, c in self.sorted_terms()]
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SparsePoly":
        """Inverse of to_json_dict; a wrong shape raises ValueError, and so
        does a coefficient past parse.MAX_LITERAL_DIGITS.  A coefficient is
        an int, or a float or string read from its decimal text, so 0.1 is
        1/10; a bool is refused."""
        from .parse import _json_rational  # parse imports poly

        if not isinstance(data, Mapping) or not isinstance(data.get("vars"), list) \
                or not isinstance(data.get("terms"), list):
            raise ValueError('a polynomial needs a "vars" list and a "terms" list')
        if not all(isinstance(v, str) for v in data["vars"]):
            raise ValueError("polynomial variables must be strings")
        vs = tuple(data["vars"])
        terms = {}
        for t in data["terms"]:
            if not isinstance(t, Mapping) or "coeff" not in t \
                    or not isinstance(t.get("exp"), list) \
                    or len(t["exp"]) != len(vs) \
                    or not all(type(k) is int for k in t["exp"]):
                raise ValueError('each term needs a "coeff" and an "exp" list '
                                 f'of {len(vs)} integers')
            e = tuple(t["exp"])
            terms[e] = terms.get(e, 0) + _json_rational(t["coeff"],
                                                        "rational coefficient")
        return cls(vs, terms)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"SparsePoly({format_poly(self)!r})"


def _mul_terms(ta: Mapping[tuple, Fraction], tb: Mapping[tuple, Fraction]) -> dict:
    """The product of two term dicts over one variable tuple, without the
    zero terms; the shorter one drives the outer loop."""
    out: dict = {}
    if len(ta) > len(tb):
        ta, tb = tb, ta
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _pow_terms(t: Mapping[tuple, Fraction], n: int, nvars: int) -> dict:
    """The n-th power of a term dict over nvars variables, n >= 0, by
    repeated squaring with `_mul_terms`; a single term c x^e gives
    c^n x^(n e) at once.  Integer coefficients stay integers."""
    if len(t) == 1:
        (exp, c), = t.items()
        return {tuple(n * k for k in exp): c ** n}
    result, base = {(0,) * nvars: 1}, t
    while n:
        if n & 1:
            result = _mul_terms(result, base)
        if n > 1:
            base = _mul_terms(base, base)
        n >>= 1
    return result


def _substitute_terms(terms: Mapping[tuple, Fraction], plain: Sequence,
                      images: Sequence, nvars: int) -> dict:
    """The term dict over nvars variables of sum c * prod x^key, with each
    variable either kept or replaced by a term dict.

    `terms` maps keys, exponent tuples over some slots, to coefficients;
    a pair (slot, n) of `plain` puts a key's exponent at slot at position
    n of the result's exponents, and a pair (slot, g) of `images`
    multiplies the term by g ** (the exponent at slot), g a term dict over
    the result's variables.  Each power of an image is taken once; zero
    coefficients are dropped, and integers stay integers.
    """
    powers: dict = {}  # (slot, exponent) -> image ** exponent
    out: dict = {}
    for key, c in terms.items():
        if not c:
            continue
        mono = [0] * nvars
        for slot, n in plain:
            mono[n] = key[slot]
        term = {tuple(mono): c}
        for slot, g in images:
            k = key[slot]
            if k:
                gk = powers.get((slot, k))
                if gk is None:
                    gk = powers[slot, k] = _pow_terms(g, k, nvars)
                term = _mul_terms(term, gk)
        for e, t in term.items():
            s = out.get(e, 0) + t
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _format_rational(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_poly(p: SparsePoly) -> str:
    """Canonical text form: graded lex descending, explicit * and ^."""
    return _format_terms(p.vars, p.sorted_terms())


def _format_terms(names: Sequence[str], terms) -> str:
    """The text of `format_poly` for (exponents, coefficient) pairs in
    the order given, the coefficients nonzero Fractions or ints."""
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        factors = []
        for v, k in zip(names, e):
            if k == 1:
                factors.append(v)
            elif k > 1:
                factors.append(f"{v}^{k}")
        mag = abs(c)
        if not factors:
            body = _format_rational(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_rational(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---- division ----


class DivisionByZeroPolynomial(ZeroDivisionError):
    pass


def divide_exact(p: SparsePoly, q: SparsePoly):
    """Exact multivariate quotient p/q, or None when q does not divide p."""
    if q.is_zero():
        raise DivisionByZeroPolynomial("exact division by zero polynomial")
    vs, tp, tq = SparsePoly._aligned(p, q)
    rem = dict(tp)
    qe = max(tq, key=_grlex_key)
    qc = tq[qe]
    quot: dict = {}
    while rem:
        re = max(rem, key=_grlex_key)
        de = tuple(a - b for a, b in zip(re, qe))
        if any(k < 0 for k in de):
            return None
        c = rem[re] / qc
        quot[de] = c
        for e2, c2 in tq.items():
            ne = tuple(a + b for a, b in zip(de, e2))
            s = rem.get(ne, 0) - c * c2
            if s == 0:
                rem.pop(ne, None)
            else:
                rem[ne] = s
    return SparsePoly(vs, quot)


def poly_divmod(f: SparsePoly, g: SparsePoly, var: str = None):
    """Quotient and remainder of univariate division: f = q*g + r, deg r < deg g.

    Both inputs are read as polynomials in one main variable.  Coefficients
    may involve other variables, in which case each elimination step must
    divide exactly in the coefficient ring (always true when the divisor's
    leading coefficient is a nonzero rational).
    """
    if g.is_zero():
        raise DivisionByZeroPolynomial("polynomial division by zero")
    if var is None:
        cands = sorted({v for v in f.vars if f.degree_in(v) not in (0, NEG_INF)}
                       | {v for v in g.vars if g.degree_in(v) not in (0, NEG_INF)})
        if len(cands) > 1:
            raise ValueError(f"main variable is ambiguous ({cands}); pass var=")
        var = cands[0] if cands else (f.vars[0] if f.vars else g.vars[0] if g.vars else "x")

    fc = f.coeffs_in(var) if var in f.vars else {0: f}
    gc = g.coeffs_in(var) if var in g.vars else {0: g}
    dg = max(gc)
    lead = gc[dg]
    lead_const = lead.is_constant()

    rem = dict(fc)
    quot: dict = {}

    def deg(d):
        return max((k for k, p in d.items() if not p.is_zero()), default=-1)

    df = deg(rem)
    while df >= dg:
        top = rem.get(df)
        if top is None or top.is_zero():
            rem.pop(df, None)
            df = deg(rem)
            continue
        if lead_const:
            q = top * (Fraction(1) / lead.constant_value())
        else:
            q = divide_exact(top, lead)
            if q is None:
                raise ValueError("division step is not exact over the coefficient "
                                 "ring; leading coefficient must divide")
        k = df - dg
        quot[k] = quot.get(k, SparsePoly.zero()) + q
        for i, gi in gc.items():
            rem[i + k] = rem.get(i + k, SparsePoly.zero()) - q * gi
        rem.pop(df, None)
        df = deg(rem)

    def assemble(coeffs: dict) -> SparsePoly:
        out = SparsePoly.zero((var,))
        xv = SparsePoly.variable(var)
        for k, p in coeffs.items():
            if not p.is_zero():
                out = out + p * xv ** k
        return out

    return assemble(quot), assemble(rem)
