"""One polynomial certificate per degree for "all roots real and distinct".

For the generic monic polynomial x^d + a1 x^(d-1) + ... + ad there are
critical polynomials F_2..F_d in the coefficients: all F_j positive at
(a1..ad) holds exactly when all d roots are real and distinct.  They come
out of a symbolic Sturm chain and are computed here over the rationals,
with no floating point.
"""

import random
from fractions import Fraction

from rct import (
    RootVerdict,
    critical_polynomials,
    format_poly,
    has_d_distinct_real_roots,
    in_S_n,
    parse_poly,
    verify_pair_chain,
)


def banner(text):
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


banner("Degree 2: the discriminant, on the nose")
cs = critical_polynomials(2)
print(f"F_2 = {format_poly(cs.F[0])}")
assert cs.F[0] == parse_poly("a1^2 - 4*a2")

banner("Degree 3: the classical cubic discriminant appears as F_3")
cs = critical_polynomials(3)
for j in (2, 3):
    print(f"F_{j} = {format_poly(cs.F[j - 2])}")
disc = parse_poly(
    "a1^2*a2^2 - 4*a2^3 - 4*a1^3*a3 + 18*a1*a2*a3 - 27*a3^2")
assert cs.F[1] == disc

banner("Weighted degrees")
# give a_i weight i and every F_j is homogeneous of weight j(j-1)


def weights(F):
    """The weights sum_i i * e_i of the terms prod a_i^e_i of F."""
    w = [int(v[1:]) for v in F.vars]
    return {sum(wi * ei for wi, ei in zip(w, e)) for e in F.terms}


for d in (4, 5, 6):
    cs = critical_polynomials(d)
    degs = []
    for F in cs.F:
        (deg,) = weights(F)       # one weight per F_j
        degs.append(deg)
    print(f"d = {d}: weighted degrees of F_2..F_{d} = {degs}")
    assert degs == [j * (j - 1) for j in range(2, d + 1)]

banner("The pair conditions that make substitution legal")
for d in (3, 5, 8):
    print(f"d = {d}: offsets {verify_pair_chain(d)}")

banner("The verdict function against brute force")
rng = random.Random(5)
for coeffs, expect in [
        ((0, -1), RootVerdict.TRUE),            # x^2 - 1
        ((0, 1), RootVerdict.FALSE),            # x^2 + 1
        ((0, -2, 0), RootVerdict.TRUE),         # x^3 - 2x
        ((0, 1, 0), RootVerdict.FALSE),         # x^3 + x (one real root)
]:
    verdict = has_d_distinct_real_roots([Fraction(c) for c in coeffs])
    print(f"  a = {coeffs}: {verdict.name}")
    assert verdict is expect

# (x - 1)^2 (x + 2): a double root makes some F_j vanish and cuts the
# point's pseudo-remainder sequence short, so the verdict is DEGENERATE;
# in_S_n is the verdict being TRUE (d distinct real roots exactly when
# every leading Hankel minor is positive), so it is False
double = (0, -3, 2)
assert has_d_distinct_real_roots(double) is RootVerdict.DEGENERATE
assert in_S_n(double) is False
print(f"  a = {double}: DEGENERATE, so in_S_n says False")

from rct import count_distinct_roots_total

agree = 0
for _ in range(300):
    d = rng.randint(2, 5)
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(d)]
    mono = parse_poly("x") ** d
    for i, c in enumerate(coeffs, start=1):
        mono = mono + parse_poly("x") ** (d - i) * c
    want = count_distinct_roots_total(mono, "x") == d
    assert in_S_n(coeffs) == want
    agree += 1
print(f"  {agree}/300 random coefficient points, both sides exact, "
      f"no disagreement")
