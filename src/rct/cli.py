"""Command line interface: every library operation behind one subcommand.

Exit codes: 0 = verdict computed, 1 = negative verdict on a yes/no
question, 2 = input or usage error.  JSON output is deterministic
(sorted keys) so exact-mode commands are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import chow as chowmod
from .critical import (
    _verdict_and_member,
    critical_polynomials,
    verify_pair_chain,
)
from .divisors import (
    Divisor,
    in_E,
    in_div_double_prime,
    in_div_prime,
    paper_family,
    positivity_margin,
    scale_divisor,
)
from .fan import ZeroCycle, default_demo, limit_check, psi_demo
from .parse import (
    MAX_INPUT_CHARS,
    _brief,
    _literal_int,
    check_length,
    parse_poly,
    parse_rational,
)
from .poly import SparsePoly, format_poly
from .sturm import (
    count_distinct_roots_in,
    count_distinct_roots_total,
    isolate_roots_bisection,
)

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
    if not text.lstrip().startswith(("{", "[")):
        with open(text) as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)
    try:
        return json.loads(check_length(text), parse_int=_literal_int)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _json_list(value, what: str) -> list:
    """value when it is a JSON list, else a ValueError naming `what`."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of {what}, got {_brief(value)}")
    return value


def _rat_row(row) -> list:
    """A JSON list of rationals (numbers or "p/q" strings) as Fractions."""
    return [parse_rational(str(c)) for c in _json_list(row, "rationals")]


def _rat_rows(rows) -> list:
    """A JSON list of lists of rationals as lists of Fractions."""
    return [_rat_row(row) for row in _json_list(rows, "rows")]


def _interval_arg(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("interval must be a,b")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _rat_list(text: str) -> list:
    fields = check_length(text).split(",")
    if not all(p.strip() for p in fields):
        raise ValueError(f"empty field in the list {_brief(text)}")
    return [parse_rational(p) for p in fields]


def _mhform_arg(text: str) -> "chowmod.MHForm":
    return chowmod.MHForm.from_json_dict(_json_arg(text))


def _divisor_arg(args) -> Divisor:
    if (args.poly is None) == (args.divisor is None):
        raise ValueError("give exactly one of --poly and --divisor")
    if args.divisor is not None:
        return Divisor.from_json_dict(_json_arg(args.divisor))
    return Divisor(parse_poly(args.poly), args.n)


# ---- subcommand bodies ----


def _cmd_sturm_count(args) -> int:
    f = parse_poly(args.poly)
    if args.interval:
        a, b = _interval_arg(args.interval)
        count = count_distinct_roots_in(f, a, b, args.var)
        _emit({"count": count, "interval": [str(a), str(b)]}, args.format)
    else:
        count = count_distinct_roots_total(f, args.var)
        _emit({"count": count}, args.format)
    return 0


def _cmd_sturm_isolate(args) -> int:
    f = parse_poly(args.poly)
    width = parse_rational(args.precision)
    intervals = isolate_roots_bisection(f, width, args.var)
    _emit({"count": len(intervals),
           "intervals": [[str(a), str(b)] for a, b in intervals],
           "midpoints": [float((a + b) / 2) for a, b in intervals]},
          args.format)
    return 0


def _cmd_critical_gen(args) -> int:
    cs = critical_polynomials(args.d)
    out = {"d": args.d,
           "F": {str(j): format_poly(cs.F[j - 2])
                 for j in range(2, args.d + 1)}}
    if args.verify_pairs:
        out["pair_offsets"] = verify_pair_chain(args.d)
    _emit(out, args.format)
    return 0


def _cmd_critical_test(args) -> int:
    coeffs = _rat_list(args.coeffs)
    verdict, member = _verdict_and_member(coeffs)
    _emit({"coefficients": [str(c) for c in coeffs],
           "critical_verdict": verdict.name,
           "all_roots_real_distinct": member}, args.format)
    return 0 if member else 1


def _cmd_chow_points(args) -> int:
    pts = []
    for entry in _json_list(_json_arg(args.points), "points"):
        if isinstance(entry, list) and len(entry) == 2 \
                and isinstance(entry[0], list):
            mult = entry[1]
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise ValueError("multiplicity must be an integer, got "
                                 f"{_brief(mult)}")
            pts.append((_rat_row(entry[0]), mult))
        else:
            pts.append(_rat_row(entry))
    F = chowmod.chow_of_points(pts, args.m)
    _emit(F.to_json_dict(), args.format)
    return 0


def _cmd_chow_line(args) -> int:
    span = _rat_rows(_json_arg(args.span))
    F = chowmod.chow_of_linear(span, args.m)
    _emit(F.to_json_dict(), args.format)
    return 0


def _cmd_chow_eigen(args) -> int:
    F = _mhform_arg(args.form)
    s = chowmod.eigenform_degree(F)
    out = {"eigenform": s is not None, "s": s}
    if args.expand:
        exp = chowmod.t_expand(F)
        out["buckets"] = {str(w): format_poly(g)
                          for w, g in enumerate(exp.coefficients)
                          if not g.is_zero()}
    _emit(out, args.format)
    return 0 if s is not None else 1


def _cmd_chow_suspension(args) -> int:
    F = _mhform_arg(args.form)
    flag = chowmod.is_suspension(F, proper_intersection=args.proper)
    _emit({"suspension": flag}, args.format)
    return 0 if flag else 1


def _cmd_chow_taffy(args) -> int:
    F = _mhform_arg(args.form)
    try:
        path = chowmod.taffy(F)
    except ValueError as e:
        _emit({"error": str(e)}, args.format)
        return 1
    _emit({"d": F.d,
           "g": {str(i): format_poly(g)
                 for i, g in enumerate(path.expansion.coefficients)
                 if not g.is_zero()},
           "endpoint_is_input": path(1) == F,
           "start_is_suspension": chowmod.is_suspension(path(0))},
          args.format)
    return 0


def _cmd_chow_detcheck(args) -> int:
    F = _mhform_arg(args.form)
    A = _rat_rows(_json_arg(args.matrix))
    ok = chowmod.det_action_check(F, A)
    _emit({"det_action_holds": ok}, args.format)
    return 0 if ok else 1


def _cmd_div_normalize(args) -> int:
    D = _divisor_arg(args)
    ok, norm = in_div_prime(D)
    out = {"in_div_prime": ok}
    if ok:
        out["divisor"] = norm.to_json_dict()
        out["f"] = format_poly(norm.f)
    _emit(out, args.format)
    return 0 if ok else 1


def _cmd_div_scale(args) -> int:
    D = _divisor_arg(args)
    t = parse_rational(args.t)
    out = scale_divisor(D, t)
    _emit({"t": str(t), "divisor": out.to_json_dict(),
           "f": format_poly(out.f)}, args.format)
    return 0


def _cmd_div_family(args) -> int:
    G, H = paper_family(args.n, args.k)
    _emit({"n": args.n, "k": args.k,
           "even": {"d": G.d, "f": format_poly(G.f)},
           "odd": {"d": H.d, "f": format_poly(H.f)}}, args.format)
    return 0


def _cmd_div_in_e(args) -> int:
    D = _divisor_arg(args)
    rep = in_E(D, args.grid)
    _emit(rep.to_json_dict(verbose=args.verbose), args.format)
    return 0 if rep.ok() else 1


def _cmd_div_in_div2(args) -> int:
    D = _divisor_arg(args)
    rep = in_div_double_prime(D, grid_size=args.grid)
    _emit(rep.to_json_dict(verbose=args.verbose), args.format)
    return 0 if rep.ok() else 1


def _cmd_div_margin(args) -> int:
    H = parse_poly(args.poly)
    eps = positivity_margin(H, parse_rational(args.delta))
    _emit({"epsilon": str(eps)}, args.format)
    return 0


def _cmd_fan_demo(args) -> int:
    Z, D = default_demo()
    if args.cycle is not None:
        Z = ZeroCycle.from_json_dict(_json_arg(args.cycle))
    if args.divisor is not None:
        D = Divisor.from_json_dict(_json_arg(args.divisor))
    if args.limit is not None:
        ts = _rat_list(args.limit)
        residuals = limit_check(Z, D, ts)
        _emit({"t": [str(t) for t in ts],
               "residuals": residuals,
               "decreasing": all(a > b for a, b in
                                 zip(residuals, residuals[1:]))},
              args.format)
        return 0
    t = parse_rational(args.t)
    result = psi_demo(Z, D, t)
    _emit(result.to_json_dict(verbose=args.verbose), args.format)
    return 0


def _cmd_corpus(args) -> int:
    report = run_corpus(args.dir)
    _emit(report, args.format)
    return 0 if not report["failures"] else 1


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


def _add_format(p) -> None:
    p.add_argument("--format", choices=("json", "table"), default="json",
                   help="output mode")


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

    sturm = sub.add_parser("sturm", help="real root counting and isolation")
    ssub = sturm.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("count", help="distinct real roots, total or in (a,b)")
    p.add_argument("poly")
    p.add_argument("--var", default=None)
    p.add_argument("--interval", help="a,b (open interval, rational endpoints)")
    _add_format(p)
    p.set_defaults(fn=_cmd_sturm_count)
    p = ssub.add_parser("isolate", help="disjoint isolating intervals")
    p.add_argument("poly")
    p.add_argument("--var", default=None)
    p.add_argument("--precision", default="1/1000000000000",
                   help="maximum interval width (rational)")
    _add_format(p)
    p.set_defaults(fn=_cmd_sturm_isolate)

    critical = sub.add_parser("critical", help="critical polynomials F_j")
    csub = critical.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("gen", help="generate F_2..F_d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--verify-pairs", action="store_true",
                   help="include the substitutable-pair offsets")
    _add_format(p)
    p.set_defaults(fn=_cmd_critical_gen)
    p = csub.add_parser("test", help="does x^d+a1 x^(d-1)+...+ad split real?")
    p.add_argument("--coeffs", required=True, help="a1,a2,...,ad")
    _add_format(p)
    p.set_defaults(fn=_cmd_critical_test)

    chow = sub.add_parser("chow", help="multihomogeneous cycle forms")
    hsub = chow.add_subparsers(dest="subcommand", required=True)
    p = hsub.add_parser("points", help="form of a 0-cycle from points")
    p.add_argument("--points", required=True,
                   help='JSON: [[c0,c1,...], [[c0,...], mult], ...]')
    p.add_argument("--m", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=_cmd_chow_points)
    p = hsub.add_parser("line", help="form of a linear span")
    p.add_argument("--span", required=True, help="JSON list of spanning points")
    p.add_argument("--m", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=_cmd_chow_line)
    p = hsub.add_parser("eigen", help="scaling eigenform degree")
    p.add_argument("--form", required=True, help="form JSON (inline or path)")
    p.add_argument("--expand", action="store_true",
                   help="include the t-expansion buckets")
    _add_format(p)
    p.set_defaults(fn=_cmd_chow_eigen)
    p = hsub.add_parser("suspension", help="is the form a suspension?")
    p.add_argument("--form", required=True)
    p.add_argument("--proper", action="store_true",
                   help="require proper intersection with the vertex")
    _add_format(p)
    p.set_defaults(fn=_cmd_chow_suspension)
    p = hsub.add_parser("taffy", help="pull the form straight along t")
    p.add_argument("--form", required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_chow_taffy)
    p = hsub.add_parser("detcheck", help="verify F(Au) = det(A)^d F(u)")
    p.add_argument("--form", required=True)
    p.add_argument("--matrix", required=True, help="JSON matrix, rows")
    _add_format(p)
    p.set_defaults(fn=_cmd_chow_detcheck)

    div = sub.add_parser("div", help="divisor spaces and membership")
    dsub = div.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("normalize", help="Div' test and normalization")
    _add_divisor_inputs(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_div_normalize)
    p = dsub.add_parser("scale", help="the flow f_t")
    _add_divisor_inputs(p)
    p.add_argument("--t", required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_div_scale)
    p = dsub.add_parser("family", help="the product family (G, x0*G)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_div_family)
    p = dsub.add_parser("in-e", help="membership in E")
    _add_divisor_inputs(p)
    p.add_argument("--grid", type=int, default=None,
                   help="direction-grid size (default 2000 for n=2, 20000 for n=3)")
    p.add_argument("--verbose", action="store_true")
    _add_format(p)
    p.set_defaults(fn=_cmd_div_in_e)
    p = dsub.add_parser("in-div2", help="membership in Div''")
    _add_divisor_inputs(p)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    _add_format(p)
    p.set_defaults(fn=_cmd_div_in_div2)
    p = dsub.add_parser("margin", help="coefficient perturbation radius")
    p.add_argument("--poly", required=True, help="positive form in x1..xn")
    p.add_argument("--delta", required=True, help="sphere minimum lower bound")
    _add_format(p)
    p.set_defaults(fn=_cmd_div_margin)

    fan = sub.add_parser("fan", help="divisor map on suspended 0-cycles")
    fsub = fan.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("demo", help="psi_tD(Z) with per-line certificates")
    p.add_argument("--cycle", help="cycle JSON (inline or path); "
                   "default demo cycle if omitted")
    p.add_argument("--divisor", help="divisor JSON (inline or path); "
                   "default demo divisor if omitted")
    p.add_argument("--t", default="1", help="scale parameter p/q in (0,1]")
    p.add_argument("--limit", help="comma-separated decreasing t sequence; "
                   "reports residuals instead of a single result")
    p.add_argument("--verbose", action="store_true",
                   help="include per-line root certificates")
    _add_format(p)
    p.set_defaults(fn=_cmd_fan_demo)

    corpus = sub.add_parser("corpus", help="golden command corpus")
    p = corpus
    p.add_argument("dir", help="directory of corpus case files")
    _add_format(p)
    p.set_defaults(fn=_cmd_corpus)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as e:  # parse errors too
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
