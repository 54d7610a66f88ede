"""Which hypersurfaces see every line through the vertex d times?

Div' keeps the vertex (1:0:...:0) off the divisor.  E demands that every
real line through the vertex meet the divisor in d distinct real points;
it is an open condition with a quantitative margin.  Div'' adds that the
scaling flow f_t never degenerates along a probe line for t in (0,1].
"""

import json
import time
from fractions import Fraction

from rct import (
    Divisor,
    e_certificate_forms,
    format_poly,
    in_E,
    in_div_double_prime,
    in_div_prime,
    paper_family,
    parse_poly,
    positivity_margin,
    sampled_sphere_min,
    scale_divisor,
)
from rct.divisors import circle_grid


def banner(text):
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


banner("Div': dodge the vertex, then normalize")
ok, norm = in_div_prime(Divisor(parse_poly("2*x0^2 - x1^2")))
print(f"2*x0^2 - x1^2 normalizes to {format_poly(norm.f)}")
ok, norm = in_div_prime(Divisor(parse_poly("x0*x1")))
print(f"x0*x1 passes through the vertex: member = {ok}")
assert not ok

banner("The product family")
for n, k in [(1, 1), (2, 1), (2, 2)]:
    G, Godd = paper_family(n, k)
    print(f"n={n} k={k}: G = {format_poly(G.f)}")
    assert G.d == 2 * k and Godd.d == 2 * k + 1

banner("Membership in E")
rep = in_E(Divisor(parse_poly("x0^2 - 9*x1^2")))
print(f"x0^2 - 9*x1^2 (n=1):  {rep.verdict} / {rep.mode}")
assert rep.verdict == "member" and rep.mode == "exact"

t0 = time.monotonic()
rep = in_E(paper_family(3, 2)[0])
dt = time.monotonic() - t0
print(f"family n=3 k=2:       {rep.verdict} / {rep.mode} "
      f"({rep.data['grid_size']} certified directions, {dt:.2f}s)")
assert rep.verdict == "evidence_only"

rep = in_E(Divisor(parse_poly("x0^2 + x1^2 + x2^2")))
print(f"x0^2 + x1^2 + x2^2:   {rep.verdict} / {rep.mode}, "
      f"witness direction {tuple(str(c) for c in rep.witness)}")
assert rep.verdict == "non_member" and rep.mode == "exact"

banner("Certificates: one Hankel minor H_j = D_{j,0}(p_1..p_d) per j")
hs = e_certificate_forms(Divisor(parse_poly("x0^2 - 9*x1^2")))
print(f"x0^2 - 9*x1^2 certifies via H_2 = {format_poly(hs[0])}")
assert hs[0] == parse_poly("36*x1^2").with_vars(("x1",))

hs = e_certificate_forms(paper_family(2, 2)[0])
grid = circle_grid(64)
for j, h in enumerate(hs, start=2):
    m = sampled_sphere_min(h, grid)
    print(f"  min of H_{j}/|x|^{h.degree()} over the grid: {m} "
          f"(~{float(m):.3g})")
    assert m > 0

# the minors come from one elimination over Z[x1, x2]; no symbolic chain
# is built, so d may pass the chain's d <= 8
hs = e_certificate_forms(paper_family(2, 5)[0])
print(f"family n=2 k=5 (d = 10): {len(hs)} forms, H_10 of degree "
      f"{hs[-1].degree()}")
assert hs[-1].degree() == 90

banner("A perturbation margin from the sphere minimum")
H = parse_poly("x1^2 + x2^2")
eps = positivity_margin(H, 1)
print(f"H = x1^2 + x2^2, delta = 1: eps = {eps}")
assert eps == Fraction(1, 6)

banner("Div'': the probe line must stay clear for all t in (0,1]")
for text in ("x0^2 - x1^2", "x0^2 - 1/9*x1^2"):
    rep = in_div_double_prime(Divisor(parse_poly(text)))
    extra = ""
    if rep.witness:
        extra = f", degenerates at t = {rep.witness[0]}"
    print(f"{text}: {rep.verdict}{extra}   [g(t) = {rep.data['g']}]")

# the k = 2 family member fails exactly at t = 1, and the flow back
# to t = 1/3 pulls its degeneracies out of the closed unit interval
D = paper_family(2, 2)[0]
rep = in_div_double_prime(D, grid_size=200)
print(f"family n=2 k=2: {rep.verdict} at t = {rep.witness[0]}")
assert rep.verdict == "non_member"
pulled = scale_divisor(D, Fraction(1, 3))
rep = in_div_double_prime(pulled, grid_size=200)
print(f"same divisor flowed to t=1/3: {rep.verdict}")
assert rep.ok()

print()
print(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True))
