"""The four workloads: seeded pools of op blocks with known-answer checks.

Every op is a closure `run()` whose result goes to `check(result)`, which
returns None when the answer matches a reference computed here, outside
rct, or an error message.  A block holds one op of every kind the workload
has; `make_blocks` returns a pool of blocks with distinct seeded inputs,
which the runner cycles through.  `make_blocks` is the whole set-up of a
workload: it imports rct, builds the inputs from the seed and warms rct's
caches, so the set-up time the benchmark reports covers exactly this call.

Why each workload exists, and which layers it exercises or bypasses, is
written down in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

NAMES = ("roots", "verdicts", "flow", "cold_start")
# Workloads whose timings are reported raw, not scaled to the reference host
# speed.  A cold_start op is a whole process: exec, dynamic loading and the
# kernel's clean-up after exit do not follow the interpreter speed that the
# reference loop measures, and a loop timed right after a child exits runs
# slow.  Over the same five runs, scaling raised the spread of cold_start's
# op_ms_p50 across seeds from 0.03 to 0.11.
UNSCALED = ("cold_start",)
HERE = os.path.dirname(os.path.abspath(__file__))


class Op:
    __slots__ = ("kind", "run", "check", "malformed")

    def __init__(self, kind, run, check, malformed=False):
        self.kind = kind
        self.run = run
        self.check = check
        # malformed-input ops probe the error contract; their failures are
        # counted but do not make the run's answers incorrect
        self.malformed = malformed


class Context:
    """Paths and flags a workload needs from the runner."""

    def __init__(self, root, work_dir, cache_dir):
        self.root = root
        self.work_dir = work_dir
        self.cache_dir = cache_dir
        self.trace_children = False
        self.child_reports = []


def make_blocks(name, seed, ctx) -> list:
    """The workload's pool of blocks, each a list of ops."""
    rng = random.Random(f"{name}:{seed}")
    return {"roots": _roots, "verdicts": _verdicts, "flow": _flow,
            "cold_start": _cold_start}[name](rng, ctx)


# ---- exact helpers (the reference side, independent of rct) ----


def _mul(a, b) -> list:
    """Product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _is_square(q: Fraction) -> bool:
    n, d = q.numerator, q.denominator
    return n >= 0 and math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _distinct_rationals(rng, k, bound=12, den=2) -> list:
    out = set()
    while len(out) < k:
        q = rng.randint(1, den)
        out.add(Fraction(rng.randint(-bound * q, bound * q), q))
    return sorted(out)


def _quadratic(rng, split: bool, seen: set):
    """Monic integer x^2 + b x + c irreducible over Q; real roots iff split."""
    while True:
        if split:
            b = rng.randint(-6, 6)
            c = rng.randint(-20, b * b // 4)
        else:
            b = rng.randint(-3, 3)
            c = b * b // 4 + rng.randint(1, 4)
        disc = b * b - 4 * c
        if (b, c) in seen or _is_square(Fraction(disc)) or (disc > 0) != split:
            continue
        seen.add((b, c))
        return b, c


def _poly_text(coeffs, var="x") -> str:
    """Ascending coefficients as text in rct's grammar, highest degree first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    return ("-" if sign == "-" else "") + body + "".join(
        f" {s} {b}" for s, b in parts[1:])


def _root_cmp(root, x: Fraction) -> int:
    """Sign of root - x, exactly.  A root is ("rat", r) or ("quad", b, c, s),
    the root (-b + s*sqrt(b^2 - 4c)) / 2 of an irreducible quadratic."""
    if root[0] == "rat":
        r = root[1]
        return (r > x) - (r < x)
    _, b, c, s = root
    disc, m = b * b - 4 * c, b + 2 * x    # root - x = (s*sqrt(disc) - m) / 2
    if s > 0:
        return 1 if m < 0 or disc > m * m else -1
    return -1 if m > 0 or disc > m * m else 1


# ---- roots ----

PRECISION = Fraction(1, 2 ** 20)
# (linear factors, split quadratics, non-split quadratics): degree is
# l + 2(s + n) and the distinct real roots number l + 2s.  Sorted by cost
# at the seed commit, four cheaper shapes come first, then three copies of
# the split degree-16 shape, which hold op_ms_p50, then two chain-bound
# shapes, then two of degree 32, a fifth of the ops, which hold op_ms_p90.
ROOT_SPECS = ((6, 1, 0), (4, 2, 1), (8, 2, 0), (2, 1, 8),     # degree 8..20
              (10, 3, 0), (10, 3, 0), (10, 3, 0),             # degree 16
              (2, 1, 10), (2, 1, 12),                         # degree 24, 28
              (2, 1, 14), (4, 0, 14))                         # degree 32
ROOT_BLOCKS = 16


def _roots(rng, ctx) -> list:
    import rct

    return [[_roots_op(rct, rng, *spec) for spec in ROOT_SPECS]
            for _ in range(ROOT_BLOCKS)]


def _roots_op(rct, rng, lin, split, non) -> Op:
    # expand over the integers (q x - p for the root p/q), then divide
    # by the product of the q to make the polynomial monic
    ints, den = [1], 1
    rats = _distinct_rationals(rng, lin)
    roots = [("rat", r) for r in rats]
    for r in rats:
        ints = _mul(ints, [-r.numerator, r.denominator])
        den *= r.denominator
    seen = set()
    for is_split in [True] * split + [False] * non:
        b, c = _quadratic(rng, is_split, seen)
        ints = _mul(ints, [c, b, 1])
        if is_split:
            roots += [("quad", b, c, -1), ("quad", b, c, 1)]
    coeffs = [Fraction(x, den) for x in ints]
    text, degree = _poly_text(coeffs), len(coeffs) - 1
    interval = None
    if degree <= 16:
        while interval is None or interval[0] >= interval[1] \
                or any(_root_cmp(r, e) == 0 for r in roots for e in interval):
            interval = sorted(Fraction(rng.randint(-1500, 1500), 77)
                              for _ in range(2))
    inside = None if interval is None else sum(
        1 for r in roots
        if _root_cmp(r, interval[0]) > 0 and _root_cmp(r, interval[1]) < 0)

    def run():
        f = rct.parse_poly(text)
        total = rct.count_distinct_roots_total(f)
        inner = None if interval is None else \
            rct.count_distinct_roots_in(f, interval[0], interval[1])
        return total, inner, rct.isolate_roots_bisection(f, PRECISION)

    def check(result):
        total, inner, intervals = result
        if total != len(roots):
            return f"count {total}, expected {len(roots)}"
        if inner != inside:
            return f"count in {interval} is {inner}, expected {inside}"
        if len(intervals) != len(roots):
            return f"{len(intervals)} intervals for {len(roots)} roots"
        for lo, hi in intervals:
            if not 0 <= hi - lo <= PRECISION:
                return f"interval [{lo}, {hi}] wider than the precision"
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            if hi > lo:
                return "isolating intervals overlap"
        hit = set()
        for r in roots:
            where = [i for i, (lo, hi) in enumerate(intervals)
                     if _root_cmp(r, lo) >= 0 and _root_cmp(r, hi) <= 0]
            if len(where) != 1:
                return f"root {r} lies in {len(where)} intervals"
            hit.add(where[0])
        return None if len(hit) == len(roots) else "an interval holds two roots"

    return Op(f"roots-deg{degree}-real{len(roots)}", run, check)


# ---- verdicts ----

# direction-grid size per degree keeps every in_E op under ~0.1 s at the
# seed commit, for n = 2 and n = 3 alike
E_GRID = {2: 300, 3: 300, 4: 300, 5: 300, 6: 150, 7: 40}
# point queries per degree and class in one block; a d = 8 query costs
# ~0.5 s at the seed commit, so one of them per class keeps d = 8 below a
# tenth of the ops and leaves op_ms_p90 inside the d = 7 cluster
POINT_VARIANTS = {3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1}
VERDICT_BLOCKS = 10


def _monic(roots, extra=None) -> list:
    """(a1..ad) of prod (x - r) * extra, extra given descending."""
    desc = [Fraction(1)]
    for r in roots:
        desc = _mul(desc, [Fraction(1), -r])
    if extra:
        desc = _mul(desc, extra)
    return desc[1:]


def _verdicts(rng, ctx) -> list:
    import rct

    for d in range(3, 9):
        rct.critical_polynomials(d)
    # the membership ops are the same in every block; the points are fresh
    e_ops = []
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for D in rct.paper_family(n, k):
                e_ops.append(_e_op(rct, D, n, "member"))
    for n in (1, 2, 3):
        forms = [_linear_forms(rng, n)]
        if n > 1:
            forms += [_linear_forms(rng, n), _linear_forms(rng, n)]
        for i, lin in enumerate(forms):
            # the round sphere in seeded coordinates, then two tilted
            # families whose first factor is a sphere: no line meets
            # them in d distinct real points
            sq = " + ".join(f"{f}^2" for f in lin)
            text = f"x0^2 + {sq}" if i == 0 else "*".join(
                [f"(x0^2 + {sq})"] + [f"(x0^2 - {j}*({sq}))" for j in range(1, i + 1)])
            e_ops.append(_e_op(rct, rct.Divisor(rct.parse_poly(text), n), n,
                               "non_member"))
    return [_point_ops(rct, rng) + e_ops for _ in range(VERDICT_BLOCKS)]


def _point_ops(rct, rng) -> list:
    ops = []
    for d, variants in POINT_VARIANTS.items():
        for _ in range(variants):
            # integer roots keep the cost of a query close to the same
            # from point to point, and with it the percentiles
            roots = _distinct_rationals(rng, d, bound=6, den=1)
            ops.append(_point_op(rct, "split", _monic(roots), d))
            b = rng.randint(-4, 4)
            c = b * b // 4 + rng.randint(1, 20)
            ops.append(_point_op(rct, "nonsplit",
                                 _monic(roots[:d - 2], [Fraction(1), b, c]), d))
            ops.append(_point_op(rct, "repeated",
                                 _monic(roots[:d - 1] + roots[:1]), d))
    return ops


def _linear_forms(rng, n) -> list:
    while True:
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if _det([[Fraction(x) for x in row] for row in A]) != 0:
            break
    return ["(" + " + ".join(f"{a}*x{j + 1}" for j, a in enumerate(row)) + ")"
            for row in A]


def _point_op(rct, cls, coeffs, d) -> Op:
    want_verdict = {"split": {"TRUE"}, "nonsplit": {"FALSE", "DEGENERATE"},
                    "repeated": {"DEGENERATE"}}[cls]

    def run():
        return rct.has_d_distinct_real_roots(coeffs), rct.in_S_n(coeffs)

    def check(result):
        verdict, member = result
        if verdict.name not in want_verdict:
            return f"{cls} d={d}: verdict {verdict.name}"
        if member != (cls == "split"):
            return f"{cls} d={d}: in_S_n {member}"
        return None

    return Op(f"point-{cls}-d{d}", run, check)


def _e_op(rct, D, n, expect) -> Op:
    grid = None if n == 1 else E_GRID[D.d]

    def run():
        return rct.in_E(D, grid)

    def check(rep):
        if expect == "non_member":
            if rep.verdict != "non_member" or rep.mode != "exact":
                return f"non-member d={D.d} n={n}: {rep.verdict}/{rep.mode}"
            if rep.witness is None or not any(rep.witness):
                return "refutation without a nonzero witness"
            return None
        if n == 1:
            ok = rep.verdict == "member" and rep.mode == "exact"
        else:
            ok = rep.verdict == "evidence_only" \
                and rep.data.get("samples_all_certified") is True
        return None if ok else f"member d={D.d} n={n}: {rep.verdict}/{rep.mode}"

    return Op(f"in_E-{expect}-n{n}-d{D.d}", run, check)


# ---- flow ----

FLOW_T0 = Fraction(1, 3)      # the paper family flowed into Div''
FLOW_GATE_GRID = 400
FLOW_BLOCKS = 32
# cycle sizes per divisor degree.  psi cost grows with the size; fixed
# sizes per slot keep each op kind's cost, and with it the percentiles,
# the same from seed to seed.  The d = 6 sizes put op_ms_p90 among ops of
# similar cost.
PSI_SIZES = {1: (5, 10, 15), 2: (5, 10, 15), 3: (10, 12, 14)}


def _flow(rng, ctx) -> list:
    import rct

    divisors = {}
    for k in (1, 2, 3):
        divisors[k] = rct.scale_divisor(rct.paper_family(2, k)[0], FLOW_T0)
        rct.critical_polynomials(2 * k)
    gates = [_gate_op(rct, k, D) for k, D in divisors.items()]
    blocks = []
    for _ in range(FLOW_BLOCKS):
        ops = list(gates)
        for k, D in divisors.items():
            ops += [_psi_op(rct, rng, k, D, size) for size in PSI_SIZES[k]]
        ops += [_chow_op(rct, rng, N, plain)
                for N in (2, 3) for plain in (True, False)]
        blocks.append(ops)
    return blocks


def _gate_op(rct, k, D) -> Op:
    def run():
        return rct.in_div_double_prime(D, grid_size=FLOW_GATE_GRID)

    def check(rep):
        # in E by the paper-family theorem; g(t) = prod (1 - i t^2 / 9) has
        # no root in (0, 1] for i <= 3
        if rep.verdict != "evidence_only" or rep.data.get("g_exact") is not True:
            return f"Div'' gate k={k}: {rep.verdict}"
        return None

    return Op(f"div2-k{k}", run, check)


def _psi_op(rct, rng, k, D, size) -> Op:
    pts = {}
    while len(pts) < size:
        a, b = rng.randint(-40, 40), rng.randint(1, 40)
        g = math.gcd(a, b)
        pts[(a // g, b // g)] = rng.choice((1, 1, 2))
    Z = rct.ZeroCycle([((Fraction(a), Fraction(b)), m) for (a, b), m in pts.items()])
    t = Fraction(1, rng.randint(10, 1000))
    c2 = (t * FLOW_T0) ** 2      # f_t = prod_i (x0^2 - i c2 (x1^2 + x2^2))

    def run():
        return rct.psi_demo(Z, D, t, check_divisor=False)

    def check(res):
        import numpy

        d, deg_z = 2 * k, sum(pts.values())
        if res.output.degree() != d * deg_z:
            return f"output degree {res.output.degree()} != {d} * {deg_z}"
        if len(res.certificates) != len(pts):
            return "one certificate per point expected"
        want = []
        for cert, ((a, b), m) in zip(res.certificates, pts.items()):
            q = [Fraction(s) for s in cert["q"]]
            if q[0] * b != q[1] * a:
                return f"certificate line {cert['q']} is not over ({a}:{b})"
            r2 = q[0] ** 2 + q[1] ** 2
            fiber = [1]
            for i in range(1, k + 1):
                fiber = _mul(fiber, [1, 0, -i * c2 * r2])
            oracle = sorted(numpy.roots([float(x) for x in fiber]).real)
            box = sorted((Fraction(lo), Fraction(hi)) for lo, hi in cert["intervals"])
            if cert["sturm_count"] != d or len(box) != d:
                return f"fiber over ({a}:{b}) certified {cert['sturm_count']} roots"
            for s, (lo, hi) in zip(oracle, box):
                if not float(lo) - 1e-9 <= s <= float(hi) + 1e-9:
                    return f"numpy root {s} outside [{float(lo)}, {float(hi)}]"
                want += [float((q[0] - s) / q[1])] * m
        got = []
        for coords, m in res.output.points:
            got += [coords[0] / coords[1]] * m
        for x, y in zip(sorted(got), sorted(want)):
            if abs(x - y) > 1e-7 * max(1.0, abs(y)):
                return f"output point {x} differs from {y}"
        bound = 2 * math.sqrt(k) * float(t)
        if not 0 < res.residual <= bound:
            return f"residual {res.residual} outside (0, {bound}]"
        return None

    return Op(f"psi-k{k}-{size}pts", run, check)


def _det(m) -> Fraction:
    m = [list(r) for r in m]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def _form_value(form, hyper) -> Fraction:
    """A Chow form's value at hyperplanes, from its terms: u<i>_<j> -> hyper[i][j]."""
    vals = []
    for v in form.vars:
        i, j = v[1:].split("_")
        vals.append(Fraction(hyper[int(i)][int(j)]))
    total = Fraction(0)
    for exps, c in form.terms.items():
        term = c
        for x, e in zip(vals, exps):
            if e:
                term *= x ** e
        total += term
    return total


def _chow_op(rct, rng, N, plain) -> Op:
    """A line in P^N: plain lines miss the vertex (1:0:..:0) and lie off the
    base {x0 = 0}; suspension lines join the vertex to a base point."""
    while True:
        if plain:
            p = [rng.randint(-9, 9) for _ in range(N + 1)]
            q = [rng.randint(-9, 9) for _ in range(N + 1)]
            tail = [p[0] * y - q[0] * x for x, y in zip(p[1:], q[1:])]
        else:
            p = [1] + [0] * N
            q = [0] + [rng.randint(-9, 9) for _ in range(N)]
            tail = q[1:]
        cross = [p[i] * q[j] - p[j] * q[i]
                 for i in range(1, N + 1) for j in range(i + 1, N + 1)]
        if any(tail) and (any(cross) or not plain):
            break
    while True:
        A = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
             for _ in range(2)]
        if _det(A):
            break
    t = Fraction(rng.randint(1, 99), 100)
    hyper = [[[rng.randint(-7, 7) for _ in range(N + 1)] for _ in range(2)]
             for _ in range(2)]

    def incidence(h):
        dot = [[sum(a * b for a, b in zip(u, x)) for x in (p, q)] for u in h]
        return Fraction(dot[0][0] * dot[1][1] - dot[0][1] * dot[1][0])

    def run():
        F = rct.chow_of_linear([p, q])
        out = [F, rct.eigenform_degree(F), rct.det_action_check(F, A)]
        if plain:
            H = rct.taffy(F)
            out += [H(1), H(0), H(t)]
        else:
            out.append(rct.is_suspension(F))
        return out

    def check(out):
        F, eigen, det_ok = out[:3]
        for h in hyper:
            if _form_value(F.form, h) != incidence(h):
                return "Chow form disagrees with the incidence determinant"
        if not det_ok:
            return "F(Au) != det(A)^d F(u)"
        if not plain:
            return None if eigen == 1 and out[3] else \
                f"suspension line: eigen degree {eigen}, suspension {out[3]}"
        if eigen is not None:
            return f"plain line has eigen degree {eigen}"
        H1, H0, Ht = out[3:]
        if H1.form.vars == F.form.vars and H1.form.terms != F.form.terms:
            return "taffy path H(1) != F"
        # H(0) is a suspension form: every term has weight (m+1)d = 1 in
        # the scaled coordinates u<i>_0
        scaled = [v.endswith("_0") for v in H0.form.vars]
        if not H0.form.terms or any(
                sum(e for e, s in zip(exps, scaled) if s) != 1
                for exps in H0.form.terms):
            return "taffy path H(0) is not a suspension form"
        for h in hyper:
            if _form_value(H1.form, h) != incidence(h):
                return "taffy path H(1) != F"
            base = [[0] + u[1:] for u in h]     # g_0 = F with u<i>_0 = 0
            if _form_value(Ht.form, h) != incidence(h) + (t - 1) * incidence(base):
                return f"taffy path H({t}) != g_1 + t g_0"
        return None

    return Op("chow-plain" if plain else "chow-suspension", run, check)


# ---- cold_start ----

DEEP_PARENS = "(" * 3000 + "x" + ")" * 3000
# Malformed inputs must exit 2 (README).  The first two reproduce known
# defects: 3000 nested parentheses exit 1 with a RecursionError, and a
# negative grid is accepted.  Left out on purpose: "x^100000000 - 1" hangs,
# and a 9-coefficient `critical test` would start a d=9 build once fixed.
MALFORMED = (("malformed-deep-parens", ["sturm", "count", DEEP_PARENS]),
             ("malformed-negative-grid",
              ["div", "in-e", "--poly", "x0^2 - x1^2 - x2^2", "--grid", "-5"]),
             ("malformed-parse-error", ["sturm", "count", "x^^2"]))
CHILD_TIMEOUT = 50


def _cold_start(rng, ctx) -> list:
    # the parent never calls rct; its set-up is the import every op's
    # process pays again, which keeps setup_s comparable across workloads
    import rct  # noqa: F401

    with open(os.path.join(HERE, "expected.json")) as fh:
        digests = json.load(fh)["critical_gen_sha256"]
    corpus = os.path.join(ctx.root, "corpus")
    ops = []
    for name in sorted(os.listdir(corpus)):
        if name.endswith(".json"):
            with open(os.path.join(corpus, name)) as fh:
                ops.append(_corpus_op(ctx, name[:-5], json.load(fh)))
    for command, digest in digests.items():
        ops.append(_gen_op(ctx, command.split(), digest))
    for kind, argv in MALFORMED:
        ops.append(Op(kind, _child_runner(ctx, argv),
                      lambda r: None if r[0] == 2 else f"exit {r[0]}, expected 2",
                      malformed=True))
    return [ops]


def _child_runner(ctx, argv, fresh_cache=False):
    """One rct process through child.py; returns (exit code, stdout)."""
    report = os.path.join(ctx.work_dir, "child-report.json")

    def run():
        cache = tempfile.mkdtemp(dir=ctx.work_dir) if fresh_cache else ctx.cache_dir
        env = dict(os.environ, RCT_CACHE_DIR=cache)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), report,
                 "1" if ctx.trace_children else "0"] + argv,
                cwd=ctx.root, env=env, capture_output=True,
                timeout=CHILD_TIMEOUT)
        finally:
            if fresh_cache:
                shutil.rmtree(cache, ignore_errors=True)
        if os.path.exists(report):
            with open(report) as fh:
                ctx.child_reports.append(json.load(fh))
            os.unlink(report)
        return proc.returncode, proc.stdout

    return run


def _corpus_op(ctx, name, case) -> Op:
    def check(result):
        code, out = result
        if code != case.get("exit", 0):
            return f"{name}: exit {code}, expected {case.get('exit', 0)}"
        if "output" in case:
            try:
                got = json.loads(out)
            except ValueError:
                return f"{name}: output is not JSON"
            diff = _json_diff(case["output"], got, float(case.get("tol", 0.0)))
            if diff:
                return f"{name}: {diff}"
        return None

    return Op(f"corpus-{name}", _child_runner(ctx, case["argv"]), check)


def _gen_op(ctx, argv, digest) -> Op:
    # --verify-pairs runs are the cold builds: they start from an empty cache
    cold = "--verify-pairs" in argv

    def check(result):
        code, out = result
        if code != 0:
            return f"{' '.join(argv)}: exit {code}"
        if hashlib.sha256(out).hexdigest() != digest:
            return f"{' '.join(argv)}: output differs from the seed commit's"
        return None

    kind = f"gen-d{argv[3]}-{'cold' if cold else 'warm'}"
    return Op(kind, _child_runner(ctx, argv, fresh_cache=cold), check)


def _json_diff(want, got, tol):
    """First difference between two JSON values: exact, floats within tol."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return f"keys {sorted(got)} != {sorted(want)}"
        for k in sorted(want):
            diff = _json_diff(want[k], got[k], tol)
            if diff:
                return f"{k}: {diff}"
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"length {len(got)} != {len(want)}"
        for w, g in zip(want, got):
            diff = _json_diff(w, g, tol)
            if diff:
                return diff
        return None
    if isinstance(want, float) or isinstance(got, float):
        try:
            return None if abs(float(want) - float(got)) <= tol else f"{got} != {want}"
        except (TypeError, ValueError):
            return f"{got!r} != {want!r}"
    return None if want == got else f"{got!r} != {want!r}"
