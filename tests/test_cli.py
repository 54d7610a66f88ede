"""Command line surface: exit codes, output stability, corpus replay."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from rct.cli import _flatten, build_parser, main, run_corpus
from rct.parse import MAX_INPUT_CHARS, MAX_LITERAL_DIGITS, MAX_POWER_BITS
from rct.poly import SparsePoly
from rct.sturm import count_distinct_roots_total

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_covers_all_subcommands():
    parser = build_parser()
    tree = {}
    for action in parser._subparsers._group_actions:
        for name, sp in action.choices.items():
            subs = []
            if sp._subparsers is not None:
                for a in sp._subparsers._group_actions:
                    subs = sorted(a.choices)
            tree[name] = subs
    assert tree == {
        "sturm": ["count", "isolate"],
        "critical": ["gen", "test"],
        "chow": ["detcheck", "eigen", "line", "points", "suspension",
                 "taffy"],
        "div": ["family", "in-div2", "in-e", "margin", "normalize",
                "scale"],
        "fan": ["demo"],
        "corpus": [],
    }


def test_sturm_count_json(capsys):
    code, out, _ = run(capsys, "sturm", "count", "x^2 - 2", "--var", "x")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    # output is deterministic and key-sorted
    code2, out2, _ = run(capsys, "sturm", "count", "x^2 - 2", "--var", "x")
    assert out == out2
    assert list(data) == sorted(data)


def test_sturm_count_interval_and_errors(capsys):
    code, out, _ = run(capsys, "sturm", "count", "x^3 - 2*x", "--var", "x",
                       "--interval", "1/2,2")
    assert code == 0 and json.loads(out)["count"] == 1
    # endpoint hits a root: diagnostic on stderr, exit 2
    code, _, err = run(capsys, "sturm", "count", "x^3 - 2*x", "--var", "x",
                       "--interval", "0,2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "sturm", "count", "x +", "--var", "x")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("text", ["5", "x^0", "0*x"])
def test_constant_polynomial_is_refused_as_constant(capsys, text):
    # with or without --var the message names the input's fault
    for extra in ([], ["--var", "x"]):
        for cmd in ("count", "isolate"):
            code, out, err = run(capsys, "sturm", cmd, text, *extra)
            assert (code, out) == (2, "")
            assert err == "error: need a non-constant polynomial\n"


def _json_divisor(n, degree):
    """x0^degree - x1^degree as divisor JSON, past the parser's power caps."""
    return json.dumps({"n": n, "f": {"vars": ["x0", "x1"], "terms": [
        {"coeff": 1, "exp": [degree, 0]}, {"coeff": -1, "exp": [0, degree]}]}})


def _unit_span(N, count):
    """The first `count` unit vectors of P^N as span JSON."""
    return json.dumps([[int(i == j) for i in range(N + 1)] for j in range(count)])


def _chow_form(d):
    """u0_0^d * u1_1^d as form JSON, past the parser's power caps."""
    return json.dumps({"N": 1, "r": 1, "d": d, "m": 0, "form": {
        "vars": ["u0_0", "u1_1"], "terms": [{"coeff": 1, "exp": [d, d]}]}})


def _one_line_error(err):
    return err.startswith("error: ") and err.count("\n") == 1 \
        and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sturm", "count", "(" * 3000 + "x" + ")" * 3000],
    ["sturm", "count", "(" * 101 + "x" + ")" * 101],
    ["sturm", "count", "0" + "-" * 3000 + "x"],
    ["div", "in-e", "--poly", "x0^2 - x1^2 - x2^2", "--grid", "-5"],
    ["div", "in-e", "--poly", "x0^2 - x1^2 - x2^2", "--grid", "0"],
    ["div", "in-e", "--poly", "x0^2 - x1^2", "--n", "1", "--grid", "0"],
    ["div", "in-div2", "--poly", "x0^2 - x1^2", "--n", "2", "--grid", "0"],
    ["sturm", "count", "x^100000000 - 1"],
    ["sturm", "count", "(x+1)^100000"],
    ["sturm", "count", "3^1000000000"],
    ["sturm", "count", "*".join(["(x+1)^256"] * 4)],
    ["sturm", "isolate", "x^257 - x", "--precision", "1/2"],
    ["div", "in-e", "--divisor", '{"n": 2}'],
    ["div", "in-e", "--divisor",
     '{"n": 2, "f": {"vars": ["x0", "x1", "x2"], "terms": [[1, [2, 0, 0]]]}}'],
    ["fan", "demo", "--cycle", "[]"],
    ["fan", "demo", "--cycle", '{"points": 3}'],
    ["chow", "eigen", "--form", "{}"],
    ["div", "in-e", "--divisor", _json_divisor(1, 100000000)],
    ["div", "in-e", "--poly", "x0^2 - x1^2", "--n", "100000000"],
    ["div", "in-e", "--divisor", _json_divisor(100000000, 2)],
    ["div", "family", "--n", "100000000", "--k", "1"],
    ["div", "family", "--n", "2", "--k", "1000000"],
    ["div", "in-e", "--poly", "x0^2 - 9*x1^2 - 9*x2^2", "--grid", "1000000000"],
    ["div", "family", "--n", "2", "--k", "127"],
    ["div", "family", "--n", "16", "--k", "20"],
    ["div", "family", "--n", "2", "--k", "63"],
    ["chow", "points", "--points", "[[[1,2], 100000000]]"],
    ["chow", "points", "--points", "[[[1,1], 513]]"],
    ["chow", "points", "--points", json.dumps([[1, 2, 3, 4, 5, 6, 7, 8]] * 8)],
    ["chow", "line", "--span", _unit_span(20, 11)],
    ["chow", "line", "--span", _unit_span(6, 6)],
    ["chow", "line", "--span", _unit_span(45, 2)],
    ["chow", "taffy", "--form", _chow_form(100000000)],
    ["chow", "detcheck", "--form", _chow_form(100000000), "--matrix", "[[1,1],[0,1]]"],
    # one term, prod_{i,j<4} u<i>_<j>^2, spreads into 165^4 monomials under A
    ["chow", "detcheck", "--form", json.dumps({
        "N": 3, "r": 3, "d": 8, "m": 0, "form": {
            "vars": [f"u{i}_{j}" for i in range(4) for j in range(4)],
            "terms": [{"coeff": 1, "exp": [2] * 16}]}}),
     "--matrix", "[[1,1,1,1],[0,1,1,1],[0,0,1,1],[0,0,0,1]]"],
    ["chow", "eigen", "--form", _chow_form(513)],
    # one variable cannot cover 10^9 + 1 groups; refused before any
    # per-group list is allocated
    ["chow", "eigen", "--form", json.dumps({
        "N": 1, "r": 10 ** 9, "d": 1, "m": 0, "form": {
            "vars": ["u0_0"], "terms": [{"coeff": 1, "exp": [1]}]}})],
    ["fan", "demo", "--cycle", '{"points": [{"coords": ["infinity", 1]}]}'],
    ["fan", "demo", "--cycle", '{"points": [{"coords": ["nan", 1]}]}'],
    ["critical", "test", "--coeffs", ",".join(["1"] * 300)],
    # JSON nested past the interpreter's recursion limit, and text past
    # the input length cap
    ["div", "in-e", "--divisor", "[" * 5000 + "]" * 5000],
    ["chow", "points", "--points", "[" * 5000 + "]" * 5000],
    ["sturm", "count", "x" + " " * MAX_INPUT_CHARS],
    # Chow JSON of the wrong shape, and a boolean multiplicity
    ["chow", "points", "--points", "[1]"],
    ["chow", "line", "--span", "[1]"],
    ["chow", "line", "--span", "[[1,2],3]"],
    ["chow", "detcheck", "--form", _chow_form(1), "--matrix", "[1]"],
    ["chow", "points", "--points", "[[[1,2],true]]"],
    # integer literals past MAX_LITERAL_DIGITS, in text and in JSON
    ["sturm", "count", "x + " + "9" * (MAX_LITERAL_DIGITS + 700)],
    ["chow", "points", "--points", f"[[{'9' * (MAX_LITERAL_DIGITS + 700)},1]]"],
    ["div", "in-e", "--poly", f"x0^2-{'9' * (MAX_LITERAL_DIGITS + 700)}*x1^2"],
    # a divisor command needs exactly one of --poly and --divisor
    ["div", "in-e"],
    ["div", "normalize", "--poly", "x0^2 - x1^2", "--divisor", _json_divisor(1, 2)],
    # empty list fields, and empty --limit and --cycle values
    ["critical", "test", "--coeffs", "1,,2"],
    ["fan", "demo", "--limit", ","],
    ["fan", "demo", "--limit", ""],
    ["fan", "demo", "--cycle", ""],
    # isolation past the refinement cap: a tiny precision, a huge constant
    ["sturm", "isolate", "x^40 - 2", "--precision", "1e-1000"],
    ["sturm", "isolate", "x^8 - 2", "--precision", "1e-4200"],
    ["sturm", "isolate", "x^256 - 3*x^2 + 1", "--precision", "1e-300"],
    ["sturm", "isolate", "x^2 - 10^4000"],
    # close roots: the descent that separates them past the precision's
    # level is priced like a refinement
    ["sturm", "isolate", "x^200 - 2*(10^6*x - 1)^2"],
    # a divisor of degree 0
    ["div", "in-e", "--poly", "1"],
    ["div", "in-div2", "--poly", "1"],
    ["fan", "demo", "--divisor", json.dumps(
        {"n": 2, "f": {"vars": ["x0"], "terms": [{"coeff": "1", "exp": [0]}]}})],
])
def test_malformed_input_exits_two(capsys, argv):
    # input length, nesting depth, literal digits, grid count, powers,
    # products, Sturm degree, isolation work, the divisor's n and degree,
    # the family's and the cycle forms' sizes are capped; JSON arguments
    # nested too deeply or of the wrong shape, non-finite coordinates,
    # empty list fields and a divisor given twice or not at all are refused
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert _one_line_error(err), err


@pytest.mark.parametrize("argv", [
    ["fan", "demo", "--t", "1e-1000000"],
    ["div", "margin", "--poly", "x1^2+x2^2", "--delta", "1e-100000000"],
    ["fan", "demo", "--cycle", '{"points":[{"coords":["1e1000000",1]}]}'],
    ["critical", "test", "--coeffs", "1e100000,1"],
    ["div", "in-e", "--divisor", json.dumps({"n": 1, "f": {
        "vars": ["x0", "x1"], "terms": [{"coeff": "1", "exp": [2, 0]},
                                        {"coeff": "-1e10000000", "exp": [0, 2]}]}})],
    ["sturm", "isolate", "x^2 - 2", "--precision", "1e-4300"],
    ["sturm", "isolate", "x^2 - 2", "--precision", "1/1" + "0" * 4300],
    ["sturm", "count", "x^2 - 2", "--interval", "0," + "1" * 4000 + ".5e400"],
])
def test_literals_past_the_digit_cap_are_refused_from_their_text(capsys, argv):
    # a decimal with a large exponent is refused before its numerator or
    # denominator is built, with one line naming the cap
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert _one_line_error(err) and str(MAX_LITERAL_DIGITS) in err, err


def test_literals_at_the_digit_cap_parse(capsys):
    code, out, _ = run(capsys, "sturm", "count", "x^2 - 2", "--interval",
                       "0," + "1" * 4000 + ".5e299")
    assert code == 0 and json.loads(out)["count"] == 1
    code, out, _ = run(capsys, "sturm", "count", "x", "--interval=-1e-4299,1")
    assert code == 0 and json.loads(out)["count"] == 1
    code, out, _ = run(capsys, "fan", "demo", "--t", "1e-400")
    assert code == 0 and json.loads(out)["t"] == "1/1" + "0" * 400


_BIG = "9" * MAX_LITERAL_DIGITS


def _column_form(d):
    """u0_0^d * u1_0^d as form JSON: every term of F(Au) is a product of
    2d entries of A."""
    return json.dumps({"N": 1, "r": 1, "d": d, "m": 0, "form": {
        "vars": ["u0_0", "u1_0"], "terms": [{"coeff": 1, "exp": [d, d]}]}})


@pytest.mark.parametrize("argv", [
    ["chow", "detcheck", "--form", _column_form(32),
     "--matrix", f"[[{_BIG}, 1], [1, {_BIG}]]"],
    ["chow", "detcheck", "--form", _column_form(64),
     "--matrix", f"[[{_BIG}, 1], [1, {_BIG}]]"],
    ["chow", "points", "--points", f"[[[{_BIG}, 1], 64]]"],
    ["chow", "points", "--points", f"[[[{_BIG}, 1], 256]]"],
])
def test_cycle_forms_price_their_coefficient_bits(capsys, argv):
    # (r + 1) * d * bits for F(Au), the sum of multiplicity * bits over the
    # points for a 0-cycle's form: refused before anything is expanded
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert _one_line_error(err), err
    assert f"-bit coefficients, over the cap {MAX_POWER_BITS}" in err, err


@pytest.mark.parametrize("argv", [
    # t^2 = 10^-6000 has a 6001-digit denominator
    ["div", "scale", "--poly", "x0^2-x1^2", "--t", "1e-3000"],
    # normalizing by N/3 turns 1/N into 3/N^2, N of MAX_LITERAL_DIGITS digits
    ["div", "normalize", "--poly",
     f"{'7' * MAX_LITERAL_DIGITS}/3*x0^2 + 1/{'7' * MAX_LITERAL_DIGITS}*x1^2"],
])
def test_outputs_past_the_digit_cap_are_refused(capsys, argv):
    # an exact output number past the cap exits 2 with one line naming it,
    # and nothing reaches stdout
    for fmt in ("json", "table"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2 and out == ""
        assert _one_line_error(err) and "MAX_LITERAL_DIGITS" in err, err
        assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("text, digest", [
    # n = 2, refuted at the first direction: a double root of the fiber
    ("(x0 - x1)^2*(x0 + x2)",
     "645b0f03c3390e5988f23b4d6ad6bec2c3531f494cd0bc08a5ca5f39c9159567"),
    # n = 3, refuted at a sampled direction: no real root
    ("x0^2 - x1^2 - x2^2 - x3^2 + 3*x1*x2",
     "b5a5d1ab39b87a35f343f4aa20249367932c31f1daf602cf227c9c0e6d1a119c"),
])
def test_in_e_refutations_are_pinned(capsys, text, digest):
    # the witness and its certificate (route, Sturm count), byte for byte
    code, out, _ = run(capsys, "div", "in-e", "--verbose", "--poly", text)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _pinned_cycle() -> str:
    """Twelve seeded rational points of P^1, one of them (3 : 0) and some
    of multiplicity 2, as cycle JSON."""
    rng = random.Random(20)
    pts = [{"coords": ["3", "0"], "mult": 2}]
    while len(pts) < 12:
        a, b = rng.randint(-40, 40), rng.randint(1, 40)
        pts.append({"coords": [f"{a}/{b}", str(rng.randint(1, 9))],
                    "mult": rng.choice((1, 1, 2))})
    return json.dumps({"points": pts})


def test_fan_demo_output_is_pinned(capsys):
    # the certificates' intervals, the output floats and the residual, byte
    # for byte, as the rational fiber route printed them
    code, out, _ = run(capsys, "fan", "demo", "--verbose", "--t", "1/7",
                       "--cycle", _pinned_cycle())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "49545ada278479757ef569054be98d083d13b80f8c2c6364a60e39461d5ba9c0"


def test_limits_admit_their_boundary(capsys):
    code, out, _ = run(capsys, "sturm", "count",
                       "(" * 100 + "x^256 - 1" + ")" * 100)
    assert code == 0 and json.loads(out)["count"] == 2
    code, out, _ = run(capsys, "div", "in-e", "--poly", "x0^2 - x1^2 - x2^2",
                       "--grid", "1")
    assert code == 0 and json.loads(out)["grid_size"] == 3
    # a dense power of degree 256, and 2^8192 on the coefficient-bit cap
    code, out, _ = run(capsys, "sturm", "count", "(x + 1)^256")
    assert code == 0 and json.loads(out)["count"] == 1
    code, out, _ = run(capsys, "sturm", "count", "x^2 - 2^8192")
    assert code == 0 and json.loads(out)["count"] == 2
    # integer literals of MAX_LITERAL_DIGITS digits, in text and in JSON
    code, out, _ = run(capsys, "sturm", "count", "x - " + "9" * MAX_LITERAL_DIGITS)
    assert code == 0 and json.loads(out)["count"] == 1
    code, out, _ = run(capsys, "chow", "points", "--points",
                       f"[[{'9' * MAX_LITERAL_DIGITS},1]]")
    assert code == 0 and json.loads(out)["d"] == 1
    # divisors: n = 16, degree 256, the family at k = 127, a grid of 100000
    code, out, _ = run(capsys, "div", "family", "--n", "16", "--k", "1")
    assert code == 0 and json.loads(out)["even"]["d"] == 2
    code, out, _ = run(capsys, "div", "family", "--n", "1", "--k", "127")
    assert code == 0 and json.loads(out)["odd"]["d"] == 255
    code, out, _ = run(capsys, "div", "in-e", "--divisor", _json_divisor(1, 256))
    assert code == 1 and json.loads(out)["verdict"] == "non_member"
    code, out, _ = run(capsys, "div", "in-e", "--poly", "x0^2 - x1^2", "--n", "1",
                       "--grid", "100000")
    assert code == 0 and json.loads(out)["verdict"] == "member"
    # the family at C(n+k, n) = 2016 terms (n = 2, k = 62)
    code, out, _ = run(capsys, "div", "family", "--n", "2", "--k", "62")
    assert code == 0 and json.loads(out)["odd"]["d"] == 125
    # cycle forms: degree 512, 1716 terms of degree 6 in 8 coordinates, and
    # a line in P^44 with 44 * 45 = 1980 terms
    code, out, _ = run(capsys, "chow", "points", "--points", "[[[1,1], 512]]")
    assert code == 0 and len(json.loads(out)["form"]["terms"]) == 513
    code, out, _ = run(capsys, "chow", "points", "--points",
                       json.dumps([[1, 2, 3, 4, 5, 6, 7, 8]] * 6))
    assert code == 0 and len(json.loads(out)["form"]["terms"]) == 1716
    span = json.dumps([[1] * 45, list(range(45))])
    code, out, _ = run(capsys, "chow", "line", "--span", span)
    assert code == 0 and len(json.loads(out)["form"]["terms"]) == 1980
    code, out, _ = run(capsys, "chow", "eigen", "--form", _chow_form(512))
    assert code == 0 and json.loads(out)["s"] == 512
    # polynomial and JSON text of exactly MAX_INPUT_CHARS characters
    text = "+".join(["x"] * (MAX_INPUT_CHARS // 2))
    text += " " * (MAX_INPUT_CHARS - len(text))
    code, out, _ = run(capsys, "sturm", "count", text)
    assert code == 0 and json.loads(out)["count"] == 1
    text = _json_divisor(1, 2)
    text += " " * (MAX_INPUT_CHARS - len(text))
    code, out, _ = run(capsys, "div", "in-e", "--divisor", text)
    assert code == 0 and json.loads(out)["verdict"] == "member"


@pytest.mark.parametrize("argv", [
    ["critical", "test", "--coeffs", "y" * 60000],
    ["sturm", "count", "x " + "y" * 60000],
    ["chow", "points", "--points", json.dumps([["x" * 60000]])],
    ["fan", "demo", "--cycle", json.dumps({"points": [{"coords": ["z" * 60000, 1]}]})],
])
def test_error_quotes_a_bounded_prefix(capsys, argv):
    # a long offending input is quoted by its first characters, not whole
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert _one_line_error(err) and len(err) < 200 and "…" in err, err[:300]


def test_cycle_coordinates_stay_exact(capsys):
    # tiny and huge exact coordinates normalize without floats
    def demo(coords):
        return run(capsys, "fan", "demo", "--cycle",
                   json.dumps({"points": [{"coords": coords}]}))

    base = demo([1, 2])
    assert base[0] == 0
    assert demo(["1e-400", "2e-400"]) == base
    code, out, err = demo(["1e400", 1])
    assert code == 0 and err == ""
    assert json.loads(out)["output"]["points"][0]["coords"][0] == "1.0"


def test_critical_gen_refuses_d_past_packed_keys(capsys, monkeypatch):
    # d = 9 is past the build-time cap; the guard fires before a chain is
    # built or loaded
    import rct.critical as critical

    def no_chain(d):
        raise AssertionError(f"chain for d = {d} requested")

    monkeypatch.setattr(critical, "_get_chain", no_chain)
    code, out, err = run(capsys, "critical", "gen", "--d", "9")
    assert code == 2 and out == ""
    assert _one_line_error(err) and "d <= 8" in err, err
    with pytest.raises(ValueError, match="supports d <= 8"):
        critical.critical_polynomials(9)
    with pytest.raises(ValueError, match="supports d <= 8"):
        critical.verify_pair_chain(9)


def test_sturm_isolate(capsys):
    code, out, _ = run(capsys, "sturm", "isolate", "x^2 - 2", "--var", "x",
                       "--precision", "1/1000000")
    assert code == 0
    data = json.loads(out)
    assert len(data["intervals"]) == 2


@pytest.mark.parametrize("argv,digest", [
    # coefficients past a double's range
    (["(x - 10^200)*(x + 10^200)*(x - 1)"], "4de6cfc60b3a8fc2"),
    # one halving at most: the first interval is the answer (K = 0)
    (["x^2 - 2", "--precision", "1e400"], "f24f15e6a7b93567"),
    # cells far narrower than a double resolves
    (["x^2 - 2", "--precision", "1e-60"], "ea8c151b7ecba082"),
])
def test_sturm_isolate_where_floats_cannot_aim(capsys, argv, digest):
    # no float error escapes the root estimates: the tree answers, and
    # stdout is the one the tree alone printed
    code, out, _ = run(capsys, "sturm", "isolate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_exit_one_on_negative_verdicts(capsys):
    code, out, _ = run(capsys, "critical", "test", "--coeffs", "0,1")
    assert code == 1
    assert json.loads(out)["critical_verdict"] == "FALSE"
    code, out, _ = run(capsys, "critical", "test", "--coeffs", "0,-1")
    data = json.loads(out)
    assert code == 0 and data["critical_verdict"] == "TRUE"
    assert data["all_roots_real_distinct"] is True
    code, out, _ = run(capsys, "div", "normalize", "--poly", "x0*x1",
                       "--n", "1")
    assert code == 1 and json.loads(out)["in_div_prime"] is False
    code, out, _ = run(capsys, "div", "in-div2", "--poly", "x0^2 - x1^2",
                       "--n", "1")
    assert code == 1
    code, out, _ = run(capsys, "div", "in-div2", "--poly",
                       "x0^2 - 1/9*x1^2", "--n", "1")
    assert code == 0


def test_critical_test_has_no_degree_cap(capsys):
    # nine coefficients: point verdicts never build the d <= 8 chain
    x = SparsePoly.variable("x")
    cases = {"TRUE": [x - k for k in range(-4, 5)],
             "FALSE": [x - k for k in range(-3, 4)] + [x ** 2 + 1],
             "DEGENERATE": [x - k for k in range(-4, 4)] + [x - 1]}
    for verdict, factors in cases.items():
        f = SparsePoly.constant(1, ("x",))
        for g in factors:
            f = f * g
        dense = f.dense_coeffs("x")
        coeffs = ",".join(str(dense[9 - i]) for i in range(1, 10))
        code, out, _ = run(capsys, "critical", "test", "--coeffs", coeffs)
        data = json.loads(out)
        want = count_distinct_roots_total(f, "x") == 9
        assert code == (0 if want else 1)
        assert data["all_roots_real_distinct"] is want
        assert data["critical_verdict"] == verdict


def test_critical_gen(capsys):
    code, out, _ = run(capsys, "critical", "gen", "--d", "3",
                       "--verify-pairs")
    assert code == 0
    data = json.loads(out)
    assert data["F"]["2"] == "a1^2 - 3*a2"
    assert data["pair_offsets"] == [0, 2, 0]


@pytest.mark.parametrize("d, digest", [
    (5, "704a94cc5d30f019397a351594bf9c9570422ddfb92cab15e4aa0b1fe5a53631"),
    (6, "fb1310b254cf31966d9f279525120d5526fae9c10ca4462385e5fd1283c72a1f"),
    (7, "bda2edb3522664a2265b1d7c486594d6a78a4d358a9d08883a896387a2b96c44"),
])
def test_critical_gen_output_is_pinned(capsys, monkeypatch, tmp_path, d, digest):
    # the F_j and the pair offsets, byte for byte
    monkeypatch.setenv("RCT_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "critical", "gen", "--d", str(d), "--verify-pairs")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_critical_gen_reads_one_chain(capsys, monkeypatch):
    # the pair offsets and the F_j come off one fetched chain
    import rct.critical as critical

    calls, get = [], critical._get_chain
    monkeypatch.setattr(critical, "_set_cache", {})
    monkeypatch.setattr(critical, "_get_chain",
                        lambda d: calls.append(d) or get(d))
    code, _, _ = run(capsys, "critical", "gen", "--d", "6", "--verify-pairs")
    assert code == 0 and calls == [6]


def test_critical_gen_d8_output_is_pinned(capsys):
    # read through the usual chain cache: a load, not a cold d = 8 build
    code, out, _ = run(capsys, "critical", "gen", "--d", "8", "--verify-pairs")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b4286ab1e1549097919ff117f6f2a5448e958b10e550d49d5c4047d2b6dbf34d"


def test_chow_commands(capsys):
    code, out, _ = run(capsys, "chow", "points", "--points", "[[1,2]]")
    assert code == 0
    form = json.loads(out)
    assert form["d"] == 1 and form["r"] == 0
    code, out, _ = run(capsys, "chow", "eigen", "--form", json.dumps(form))
    assert code == 1 and json.loads(out)["eigenform"] is False
    code, out, _ = run(capsys, "chow", "line",
                       "--span", "[[1,0,0],[0,3,5]]")
    susp = json.loads(out)
    code, out, _ = run(capsys, "chow", "eigen", "--form", json.dumps(susp))
    assert code == 0
    assert json.loads(out) == {"eigenform": True, "s": 1}
    code, out, _ = run(capsys, "chow", "line",
                       "--span", "[[1,1,0],[0,0,1]]")
    assert code == 0
    line = json.loads(out)
    code, out, _ = run(capsys, "chow", "eigen", "--form", json.dumps(line))
    assert code == 1 and json.loads(out)["eigenform"] is False
    code, out, _ = run(capsys, "chow", "suspension", "--form",
                       json.dumps(line))
    assert code == 1 and json.loads(out)["suspension"] is False
    code, out, _ = run(capsys, "chow", "taffy", "--form", json.dumps(line))
    assert code == 0
    data = json.loads(out)
    assert data["endpoint_is_input"] and data["start_is_suspension"]
    code, out, _ = run(capsys, "chow", "detcheck", "--form",
                       json.dumps(line), "--matrix", "[[2,1],[1,1]]")
    assert code == 0 and json.loads(out)["det_action_holds"] is True


def test_detcheck_reads_only_present_coordinates(capsys):
    # u0_0 in P^(10^9): only coordinate 0 gets an image under A
    form = json.dumps({"N": 10 ** 9, "r": 0, "d": 1, "m": 0, "form": {
        "vars": ["u0_0"], "terms": [{"coeff": 1, "exp": [1]}]}})
    code, out, _ = run(capsys, "chow", "detcheck", "--form", form,
                       "--matrix", "[[2]]")
    assert code == 0 and json.loads(out)["det_action_holds"] is True


def test_chow_taffy_rejects_improper(capsys):
    code, out, _ = run(capsys, "chow", "points", "--points", "[[0,1]]")
    form = json.loads(out)
    code, out, _ = run(capsys, "chow", "taffy", "--form", json.dumps(form))
    assert code == 1
    assert "error" in json.loads(out)


def test_div_family_and_margin(capsys):
    code, out, _ = run(capsys, "div", "family", "--n", "1", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["even"]["d"] == 2 and data["odd"]["d"] == 3
    code, out, _ = run(capsys, "div", "margin", "--poly", "x1^2 + x2^2",
                       "--delta", "1")
    assert code == 0 and json.loads(out)["epsilon"] == "1/6"


def test_div_scale(capsys):
    code, out, _ = run(capsys, "div", "scale", "--poly", "x0^2 - 9*x1^2",
                       "--n", "1", "--t", "1/3")
    assert code == 0
    assert "x0^2 - x1^2" in out


def test_div_in_e_modes(capsys):
    code, out, _ = run(capsys, "div", "in-e", "--poly", "x0^2 - 9*x1^2",
                       "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "member" and data["mode"] == "exact"
    code, out, _ = run(capsys, "div", "in-e", "--poly",
                       "x0^2 + x1^2 + x2^2", "--n", "2", "--grid", "100")
    assert code == 1
    assert json.loads(out)["verdict"] == "non_member"


def test_div_in_e_failed_proof_refutes(capsys):
    # the grid passes, and the failed n = 2 proof names the line (1, 1)
    for grid in ((), ("--grid", "3")):
        code, out, _ = run(capsys, "div", "in-e", "--poly",
                           "(x0 - x1)*(x0 - x2)", *grid)
        data = json.loads(out)
        assert code == 1
        assert (data["verdict"], data["mode"], data["witness"]) == \
            ("non_member", "exact", ["1", "1"])


def test_fan_demo_default_and_limit(capsys):
    code, out, _ = run(capsys, "fan", "demo", "--t", "1/10")
    assert code == 0
    data = json.loads(out)
    assert data["output"]["points"] and data["residual"] < 0.05
    code, out, _ = run(capsys, "fan", "demo", "--limit",
                       "1/10,1/100,1/1000")
    assert code == 0
    data = json.loads(out)
    rs = data["residuals"]
    assert data["decreasing"] is True and rs[0] > rs[1] > rs[2]


def test_fan_demo_explicit_inputs(capsys):
    cycle = {"ambient": 1,
             "points": [{"coords": ["1", "3"], "mult": 1}]}
    code, out, _ = run(capsys, "fan", "demo", "--cycle", json.dumps(cycle),
                       "--t", "1/10", "--verbose")
    assert code == 0
    data = json.loads(out)
    assert data["output"]["points"]
    assert data["certificates"][0]["sturm_count"] == 2


def test_table_format(capsys):
    code, out, _ = run(capsys, "sturm", "count", "x^2 - 2", "--var", "x",
                       "--format", "table")
    assert code == 0
    assert "count" in out and "{" not in out


_LINE_FORM = json.dumps({"N": 2, "r": 1, "d": 1, "m": 0, "form": {
    "vars": ["u0_1", "u0_2", "u1_1", "u1_2"],
    "terms": [{"coeff": 1, "exp": [1, 0, 0, 1]},
              {"coeff": -1, "exp": [0, 1, 1, 0]}]}})


@pytest.mark.parametrize("argv", [
    ["sturm", "count", "x^3 - 2*x", "--interval", "1/2,2"],
    ["sturm", "isolate", "x^2 - 2"],
    ["critical", "gen", "--d", "3", "--verify-pairs"],
    ["critical", "test", "--coeffs", "0,1"],
    ["chow", "points", "--points", "[[1,2],[[3,-1],2]]"],
    ["chow", "line", "--span", "[[1,0,0],[0,3,5]]"],
    ["chow", "eigen", "--form", _chow_form(2), "--expand"],
    ["chow", "suspension", "--form", _LINE_FORM],
    ["chow", "taffy", "--form", _LINE_FORM],
    ["chow", "detcheck", "--form", _LINE_FORM, "--matrix", "[[2,1],[1,1]]"],
    ["div", "normalize", "--poly", "2*x0^2 - x1^2", "--n", "1"],
    ["div", "scale", "--poly", "x0^2 - 9*x1^2", "--n", "1", "--t", "1/3"],
    ["div", "family", "--n", "1", "--k", "1"],
    ["div", "in-e", "--poly", "x0^2 - 9*x1^2", "--n", "1", "--verbose"],
    ["div", "in-div2", "--poly", "x0^2 - 1/9*x1^2", "--n", "1"],
    ["div", "margin", "--poly", "x1^2 + x2^2", "--delta", "1"],
    ["fan", "demo", "--limit", "1/10,1/100"],
    ["corpus", CORPUS],
], ids=lambda argv: "-".join(os.path.basename(a) for a in argv[:2]))
def test_table_flattens_the_json_report(capsys, argv):
    # every command's report goes through one printer: the table lines are
    # the flattened JSON, with the same exit code
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == "" and out.endswith("}\n")
    table = run(capsys, *argv, "--format", "table")
    assert table == (code, "\n".join(_flatten(json.loads(out))) + "\n", "")


def test_divisor_coefficients_are_read_from_their_decimal_text(capsys):
    def divisor(coeff):
        return json.dumps({"n": 1, "f": {"vars": ["x0", "x1"], "terms": [
            {"coeff": 1, "exp": [2, 0]}, {"coeff": coeff, "exp": [0, 2]}]}})

    code, out, _ = run(capsys, "div", "normalize", "--divisor", divisor(-0.1))
    assert code == 0 and json.loads(out)["f"] == "x0^2 - 1/10*x1^2"
    code, out, err = run(capsys, "div", "normalize", "--divisor", divisor(True))
    assert (code, out) == (2, "")
    assert err == "error: not a rational coefficient: True\n"


def test_fan_demo_names_psi_demo_for_an_unnormalized_divisor(capsys):
    # 9*x0^2 - x1^2 - x2^2 is in Div' and normalizes to the demo divisor
    D = json.dumps({"n": 2, "f": {"vars": ["x0", "x1", "x2"], "terms": [
        {"coeff": 9, "exp": [2, 0, 0]}, {"coeff": -1, "exp": [0, 2, 0]},
        {"coeff": -1, "exp": [0, 0, 2]}]}})
    code, out, err = run(capsys, "fan", "demo", "--divisor", D)
    assert (code, out) == (2, "")
    assert err == ("error: psi_demo needs a normalized divisor: in_div_prime "
                   "(rct div normalize) gives one\n")


def test_file_input(tmp_path, capsys):
    p = tmp_path / "pts.json"
    p.write_text("[[1,2],[3,-1]]")
    code, out, _ = run(capsys, "chow", "points", "--points", str(p))
    assert code == 0 and json.loads(out)["d"] == 2


def test_file_input_is_capped(tmp_path, capsys):
    # a file is read up to one character past the cap, and deep nesting
    # in it exits 2 like inline JSON
    p = tmp_path / "divisor.json"
    text = _json_divisor(1, 2)
    p.write_text(text + " " * (MAX_INPUT_CHARS - len(text)))
    code, out, _ = run(capsys, "div", "in-e", "--divisor", str(p))
    assert code == 0 and json.loads(out)["verdict"] == "member"
    p.write_text(text + " " * (MAX_INPUT_CHARS + 1 - len(text)))
    code, out, err = run(capsys, "div", "in-e", "--divisor", str(p))
    assert code == 2 and out == "" and _one_line_error(err)
    p.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, "div", "in-e", "--divisor", str(p))
    assert code == 2 and out == "" and _one_line_error(err)


def test_corpus_green(capsys):
    code, out, _ = run(capsys, "corpus", CORPUS)
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["passed"] >= 19 and data["passed"] == data["cases"]


def test_corpus_catches_regression(tmp_path, capsys):
    case = {"argv": ["sturm", "count", "x^2 - 2", "--var", "x"],
            "exit": 0, "output": {"count": 3, "var": "x"}}
    (tmp_path / "bad.json").write_text(json.dumps(case))
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    data = json.loads(out)
    assert len(data["failures"]) == 1 and data["passed"] == 0


@pytest.mark.parametrize("text", [
    json.dumps({"exit": 0, "output": {"count": 1}}),
    json.dumps([["sturm", "count", "x"]]),
    json.dumps({"argv": ["corpus", "{dir}"]}),
    json.dumps({"argv": "sturm count x"}),
    json.dumps({"argv": []}),
    json.dumps({"argv": ["sturm", "count", 1]}),
    json.dumps({"argv": ["sturm", "count", "x"], "exit": "0"}),
    json.dumps({"argv": ["sturm", "count", "x"], "exit": False}),
    json.dumps({"argv": ["sturm", "count", "x"], "tol": "1e-9"}),
    json.dumps({"argv": ["sturm", "count", "x"], "tol": float("nan")}),
    json.dumps({"argv": ["sturm", "count", "x"], "tol": -1}),
    "not json",
    "[" * 100000 + "]" * 100000,
])
def test_corpus_refuses_malformed_case(tmp_path, capsys, text):
    # a case of the wrong shape, one that replays its own corpus, or a file
    # that is not JSON is an input error naming the file, not a failing
    # case or a traceback
    (tmp_path / "odd.json").write_text(text.replace("{dir}", str(tmp_path)))
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert code == 2 and out == ""
    assert _one_line_error(err) and "odd.json" in err, err


def test_run_corpus_api():
    report = run_corpus(CORPUS)
    assert report["failures"] == []
    assert report["passed"] == report["cases"]


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def test_console_script_installed():
    env = _src_env()
    proc = subprocess.run([sys.executable, "-m", "rct.cli", "critical",
                           "gen", "--d", "2"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["F"]["2"] == "a1^2 - 4*a2"


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures pulls in logging too, and every rct process would
    # pay for both at start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import rct.cli, sys; "
         "print('concurrent.futures' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
