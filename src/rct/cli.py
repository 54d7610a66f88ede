"""Command line interface: every library operation behind one subcommand.

Exit codes: 0 = verdict computed, 1 = negative verdict on a yes/no
question, 2 = input or usage error.  JSON output is deterministic
(sorted keys) so exact-mode commands are byte-identical across runs.

Each command imports the rct modules it uses when it runs, so a process
loads only its own command's modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["main", "run_corpus"]


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "table":
        for line in _flatten(obj):
            print(line)
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _flatten(obj, prefix="") -> list:
    out = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.extend(_flatten(v, f"{prefix}{i}."))
    else:
        out.append(f"{prefix[:-1]} = {obj}")
    return out


def _json_arg(text: str):
    """Inline JSON or a path to a JSON file, at most MAX_INPUT_CHARS long,
    with integers of at most MAX_LITERAL_DIGITS digits."""
    from .parse import MAX_INPUT_CHARS, _literal_int, check_length

    if not text.lstrip().startswith(("{", "[")):
        with open(text) as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)
    try:
        return json.loads(check_length(text), parse_int=_literal_int)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _json_list(value, what: str) -> list:
    """value when it is a JSON list, else a ValueError naming `what`."""
    from .parse import _brief

    if not isinstance(value, list):
        raise ValueError(f"expected a list of {what}, got {_brief(value)}")
    return value


def _rat_row(row) -> list:
    """A JSON list of rationals (numbers or "p/q" strings) as Fractions."""
    from .parse import _json_rational

    return [_json_rational(c, "rational literal")
            for c in _json_list(row, "rationals")]


def _rat_rows(rows) -> list:
    """A JSON list of lists of rationals as lists of Fractions."""
    return [_rat_row(row) for row in _json_list(rows, "rows")]


def _interval_arg(text: str):
    from .parse import parse_rational

    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("interval must be a,b")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _rat_list(text: str) -> list:
    from .parse import _brief, check_length, parse_rational

    fields = check_length(text).split(",")
    if not all(p.strip() for p in fields):
        raise ValueError(f"empty field in the list {_brief(text)}")
    return [parse_rational(p) for p in fields]


def _mhform_arg(text: str):
    from .chow import MHForm

    return MHForm.from_json_dict(_json_arg(text))


def _divisor_arg(args):
    from .divisors import Divisor
    from .parse import parse_poly

    if (args.poly is None) == (args.divisor is None):
        raise ValueError("give exactly one of --poly and --divisor")
    if args.divisor is not None:
        return Divisor.from_json_dict(_json_arg(args.divisor))
    return Divisor(parse_poly(args.poly), args.n)


# ---- subcommand bodies: each returns (report, exit code) ----


def _cmd_sturm_count(args):
    from .parse import parse_poly
    from .sturm import count_distinct_roots_in, count_distinct_roots_total

    f = parse_poly(args.poly)
    if not args.interval:
        return {"count": count_distinct_roots_total(f, args.var)}, 0
    a, b = _interval_arg(args.interval)
    return {"count": count_distinct_roots_in(f, a, b, args.var),
            "interval": [str(a), str(b)]}, 0


def _cmd_sturm_isolate(args):
    from .parse import parse_poly, parse_rational
    from .sturm import isolate_roots_bisection

    f = parse_poly(args.poly)
    width = parse_rational(args.precision)
    intervals = isolate_roots_bisection(f, width, args.var)
    return {"count": len(intervals),
            "intervals": [[str(a), str(b)] for a, b in intervals],
            "midpoints": [float((a + b) / 2) for a, b in intervals]}, 0


def _cmd_critical_gen(args):
    from .critical import critical_polynomials, verify_pair_chain

    offsets = verify_pair_chain(args.d) if args.verify_pairs else None
    cs = critical_polynomials(args.d)
    out = {"d": args.d,
           "F": {str(j): cs._text(j - 2) for j in range(2, args.d + 1)}}
    if offsets is not None:
        out["pair_offsets"] = offsets
    return out, 0


def _cmd_critical_test(args):
    from .critical import RootVerdict, has_d_distinct_real_roots

    coeffs = _rat_list(args.coeffs)
    verdict = has_d_distinct_real_roots(coeffs)
    member = verdict is RootVerdict.TRUE
    return {"coefficients": [str(c) for c in coeffs],
            "critical_verdict": verdict.name,
            "all_roots_real_distinct": member}, 0 if member else 1


def _cmd_chow_points(args):
    from .chow import chow_of_points
    from .parse import _brief

    pts = []
    for entry in _json_list(_json_arg(args.points), "points"):
        if isinstance(entry, list) and len(entry) == 2 \
                and isinstance(entry[0], list):
            mult = entry[1]
            if type(mult) is not int:
                raise ValueError("multiplicity must be an integer, got "
                                 f"{_brief(mult)}")
            pts.append((_rat_row(entry[0]), mult))
        else:
            pts.append(_rat_row(entry))
    return chow_of_points(pts, args.m).to_json_dict(), 0


def _cmd_chow_line(args):
    from .chow import chow_of_linear

    span = _rat_rows(_json_arg(args.span))
    return chow_of_linear(span, args.m).to_json_dict(), 0


def _cmd_chow_eigen(args):
    from .chow import eigenform_degree, t_expand
    from .poly import format_poly

    F = _mhform_arg(args.form)
    s = eigenform_degree(F)
    out = {"eigenform": s is not None, "s": s}
    if args.expand:
        exp = t_expand(F)
        out["buckets"] = {str(w): format_poly(g)
                          for w, g in enumerate(exp.coefficients)
                          if not g.is_zero()}
    return out, 0 if s is not None else 1


def _cmd_chow_suspension(args):
    from .chow import is_suspension

    F = _mhform_arg(args.form)
    flag = is_suspension(F, proper_intersection=args.proper)
    return {"suspension": flag}, 0 if flag else 1


def _cmd_chow_taffy(args):
    from .chow import is_suspension, taffy
    from .poly import format_poly

    F = _mhform_arg(args.form)
    try:
        path = taffy(F)
    except ValueError as e:
        return {"error": str(e)}, 1
    return {"d": F.d,
            "g": {str(i): format_poly(g)
                  for i, g in enumerate(path.expansion.coefficients)
                  if not g.is_zero()},
            "endpoint_is_input": path(1) == F,
            "start_is_suspension": is_suspension(path(0))}, 0


def _cmd_chow_detcheck(args):
    from .chow import det_action_check

    F = _mhform_arg(args.form)
    A = _rat_rows(_json_arg(args.matrix))
    ok = det_action_check(F, A)
    return {"det_action_holds": ok}, 0 if ok else 1


def _cmd_div_normalize(args):
    from .divisors import in_div_prime
    from .poly import format_poly

    D = _divisor_arg(args)
    ok, norm = in_div_prime(D)
    out = {"in_div_prime": ok}
    if ok:
        out["divisor"] = norm.to_json_dict()
        out["f"] = format_poly(norm.f)
    return out, 0 if ok else 1


def _cmd_div_scale(args):
    from .divisors import scale_divisor
    from .parse import parse_rational
    from .poly import format_poly

    D = _divisor_arg(args)
    t = parse_rational(args.t)
    out = scale_divisor(D, t)
    return {"t": str(t), "divisor": out.to_json_dict(),
            "f": format_poly(out.f)}, 0


def _cmd_div_family(args):
    from .divisors import paper_family
    from .poly import format_poly

    G, H = paper_family(args.n, args.k)
    return {"n": args.n, "k": args.k,
            "even": {"d": G.d, "f": format_poly(G.f)},
            "odd": {"d": H.d, "f": format_poly(H.f)}}, 0


def _cmd_div_in_e(args):
    from .divisors import in_E

    rep = in_E(_divisor_arg(args), args.grid)
    return rep.to_json_dict(verbose=args.verbose), 0 if rep.ok() else 1


def _cmd_div_in_div2(args):
    from .divisors import in_div_double_prime

    rep = in_div_double_prime(_divisor_arg(args), grid_size=args.grid)
    return rep.to_json_dict(verbose=args.verbose), 0 if rep.ok() else 1


def _cmd_div_margin(args):
    from .divisors import positivity_margin
    from .parse import parse_poly, parse_rational

    H = parse_poly(args.poly)
    eps = positivity_margin(H, parse_rational(args.delta))
    return {"epsilon": str(eps)}, 0


def _cmd_fan_demo(args):
    from .divisors import Divisor
    from .fan import ZeroCycle, default_demo, limit_check, psi_demo
    from .parse import parse_rational

    Z, D = default_demo()
    if args.cycle is not None:
        Z = ZeroCycle.from_json_dict(_json_arg(args.cycle))
    if args.divisor is not None:
        D = Divisor.from_json_dict(_json_arg(args.divisor))
    if args.limit is not None:
        ts = _rat_list(args.limit)
        residuals = limit_check(Z, D, ts)
        return {"t": [str(t) for t in ts],
                "residuals": residuals,
                "decreasing": all(a > b for a, b in
                                  zip(residuals, residuals[1:]))}, 0
    t = parse_rational(args.t)
    return psi_demo(Z, D, t).to_json_dict(verbose=args.verbose), 0


def _cmd_corpus(args):
    report = run_corpus(args.dir)
    return report, 0 if not report["failures"] else 1


# ---- corpus harness ----


def _compare(expected, actual, tol: float, path="$") -> list:
    """Bit-exact for exact values, tolerance-tagged for floats."""
    diffs = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for k in sorted(set(expected) | set(actual)):
            if k not in expected:
                diffs.append(f"{path}.{k}: unexpected key")
            elif k not in actual:
                diffs.append(f"{path}.{k}: missing key")
            else:
                diffs.extend(_compare(expected[k], actual[k], tol,
                                      f"{path}.{k}"))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(f"{path}: length {len(actual)} != {len(expected)}")
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                diffs.extend(_compare(e, a, tol, f"{path}[{i}]"))
    elif isinstance(expected, float) or isinstance(actual, float):
        try:
            if abs(float(expected) - float(actual)) > tol:
                diffs.append(f"{path}: {actual} differs from {expected} "
                             f"by more than {tol}")
        except (TypeError, ValueError):
            diffs.append(f"{path}: {actual!r} != {expected!r}")
    elif expected != actual:
        diffs.append(f"{path}: {actual!r} != {expected!r}")
    return diffs


def _check_case(case, name: str) -> None:
    """Refuse a case replay cannot run as written: argv must be a non-empty
    list of strings that does not replay a corpus itself, exit an int and
    tol a number >= 0."""
    argv = case.get("argv") if isinstance(case, dict) else None
    if not (isinstance(argv, list) and argv
            and all(isinstance(a, str) for a in argv)):
        raise ValueError(f"corpus case {name}: need an object whose argv "
                         "is a non-empty list of strings")
    if argv[0] == "corpus":
        raise ValueError(f"corpus case {name}: argv may not replay a corpus")
    if type(case.get("exit", 0)) is not int:
        raise ValueError(f"corpus case {name}: exit must be an integer")
    tol = case.get("tol", 0.0)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
            or not tol >= 0:  # NaN too, which would pass every float
        raise ValueError(f"corpus case {name}: tol must be a number >= 0")


def run_corpus(directory: str) -> dict:
    """Replay (command, expected-output) pairs; returns the mismatch report.

    Each *.json case holds argv, the expected exit code, the expected
    JSON output, and an optional float tolerance (exact otherwise).  A
    case of another shape raises ValueError naming its file.
    """
    import io
    from contextlib import redirect_stdout

    cases = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    if not cases:
        raise ValueError(f"no corpus cases in {directory}")
    failures = []
    for name in cases:
        with open(os.path.join(directory, name)) as fh:
            try:
                case = json.load(fh)
            except (ValueError, RecursionError) as e:
                raise ValueError(f"corpus case {name}: {e}") from None
        _check_case(case, name)
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = main(case["argv"])
        except SystemExit as e:  # argparse
            code = e.code if isinstance(e.code, int) else 2
        diffs = []
        if code != case.get("exit", 0):
            diffs.append(f"exit code {code} != {case.get('exit', 0)}")
        if "output" in case:
            try:
                actual = json.loads(buf.getvalue())
                diffs.extend(_compare(case["output"], actual,
                                      float(case.get("tol", 0.0))))
            except json.JSONDecodeError:
                diffs.append(f"output is not JSON: {buf.getvalue()[:120]!r}")
        if diffs:
            failures.append({"case": name, "diffs": diffs})
    return {"directory": directory, "cases": len(cases),
            "passed": len(cases) - len(failures), "failures": failures}


# ---- parser wiring ----


def _add_divisor_inputs(p) -> None:
    p.add_argument("--poly", help="divisor polynomial in x0..xn")
    p.add_argument("--n", type=int, default=None,
                   help="ambient index n (inferred from variables if omitted)")
    p.add_argument("--divisor", help="divisor JSON (inline or path); "
                   "give exactly one of --poly and --divisor")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="rct",
        description="Exact real-root counting, critical polynomials, "
                    "Chow forms, divisor membership, and the divisor-map demo")
    sub = root.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(group, name, fn, help):
        p = group.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        leaves.append(p)
        return p

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True)

    sturm = group("sturm", "real root counting and isolation")
    p = leaf(sturm, "count", _cmd_sturm_count,
             "distinct real roots, total or in (a,b)")
    p.add_argument("poly")
    p.add_argument("--var", default=None)
    p.add_argument("--interval", help="a,b (open interval, rational endpoints)")
    p = leaf(sturm, "isolate", _cmd_sturm_isolate,
             "disjoint isolating intervals")
    p.add_argument("poly")
    p.add_argument("--var", default=None)
    p.add_argument("--precision", default="1/1000000000000",
                   help="maximum interval width (rational)")

    critical = group("critical", "critical polynomials F_j")
    p = leaf(critical, "gen", _cmd_critical_gen, "generate F_2..F_d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--verify-pairs", action="store_true",
                   help="include the substitutable-pair offsets")
    p = leaf(critical, "test", _cmd_critical_test,
             "does x^d+a1 x^(d-1)+...+ad split real?")
    p.add_argument("--coeffs", required=True, help="a1,a2,...,ad")

    chow = group("chow", "multihomogeneous cycle forms")
    p = leaf(chow, "points", _cmd_chow_points, "form of a 0-cycle from points")
    p.add_argument("--points", required=True,
                   help='JSON: [[c0,c1,...], [[c0,...], mult], ...]')
    p.add_argument("--m", type=int, default=0)
    p = leaf(chow, "line", _cmd_chow_line, "form of a linear span")
    p.add_argument("--span", required=True, help="JSON list of spanning points")
    p.add_argument("--m", type=int, default=0)
    p = leaf(chow, "eigen", _cmd_chow_eigen, "scaling eigenform degree")
    p.add_argument("--form", required=True, help="form JSON (inline or path)")
    p.add_argument("--expand", action="store_true",
                   help="include the t-expansion buckets")
    p = leaf(chow, "suspension", _cmd_chow_suspension,
             "is the form a suspension?")
    p.add_argument("--form", required=True)
    p.add_argument("--proper", action="store_true",
                   help="require proper intersection with the vertex")
    p = leaf(chow, "taffy", _cmd_chow_taffy, "pull the form straight along t")
    p.add_argument("--form", required=True)
    p = leaf(chow, "detcheck", _cmd_chow_detcheck,
             "verify F(Au) = det(A)^d F(u)")
    p.add_argument("--form", required=True)
    p.add_argument("--matrix", required=True, help="JSON matrix, rows")

    div = group("div", "divisor spaces and membership")
    p = leaf(div, "normalize", _cmd_div_normalize,
             "Div' test and normalization")
    _add_divisor_inputs(p)
    p = leaf(div, "scale", _cmd_div_scale, "the flow f_t")
    _add_divisor_inputs(p)
    p.add_argument("--t", required=True)
    p = leaf(div, "family", _cmd_div_family, "the product family (G, x0*G)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = leaf(div, "in-e", _cmd_div_in_e, "membership in E")
    _add_divisor_inputs(p)
    p.add_argument("--grid", type=int, default=None,
                   help="direction-grid size (default 2000 for n=2, 20000 for n=3)")
    p.add_argument("--verbose", action="store_true")
    p = leaf(div, "in-div2", _cmd_div_in_div2, "membership in Div''")
    _add_divisor_inputs(p)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    p = leaf(div, "margin", _cmd_div_margin, "coefficient perturbation radius")
    p.add_argument("--poly", required=True, help="positive form in x1..xn")
    p.add_argument("--delta", required=True, help="sphere minimum lower bound")

    fan = group("fan", "divisor map on suspended 0-cycles")
    p = leaf(fan, "demo", _cmd_fan_demo,
             "psi_tD(Z) with per-line certificates")
    p.add_argument("--cycle", help="cycle JSON (inline or path); "
                   "default demo cycle if omitted")
    p.add_argument("--divisor", help="divisor JSON (inline or path); "
                   "default demo divisor if omitted")
    p.add_argument("--t", default="1", help="scale parameter p/q in (0,1]")
    p.add_argument("--limit", help="comma-separated decreasing t sequence; "
                   "reports residuals instead of a single result")
    p.add_argument("--verbose", action="store_true",
                   help="include per-line root certificates")

    p = leaf(sub, "corpus", _cmd_corpus, "golden command corpus")
    p.add_argument("dir", help="directory of corpus case files")

    for p in leaves:  # last, so --format ends every usage line
        p.add_argument("--format", choices=("json", "table"), default="json",
                       help="output mode")
    return root


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.fn(args)
        _emit(report, args.format)
        return code
    except (ValueError, ZeroDivisionError, OSError) as e:  # parse errors too
        print(f"error: {_message(e)}", file=sys.stderr)
        return 2


def _message(e: Exception) -> str:
    """e's text, or rct's own for Python's refusal to convert an int of
    more than MAX_LITERAL_DIGITS digits (its default limit, which
    PYTHONINTMAXSTRDIGITS may change) to or from a string.  That limit
    stays: the conversion takes time quadratic in the digits.  `_emit`
    builds the whole output before printing any of it, so an output past
    the limit leaves stdout empty."""
    if "integer string conversion" in str(e):
        return (f"a number has more than {sys.get_int_max_str_digits()} "
                f"digits, the most rct reads or prints (MAX_LITERAL_DIGITS)")
    return str(e)


if __name__ == "__main__":
    sys.exit(main())
