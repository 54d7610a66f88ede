"""Hostile input keeps the error contract.

Any polynomial text either parses, or raises ValueError (PolyParseError
for the grammar).  Through main(), polynomial text and the JSON of
`--divisor`, `--cycle` and `--form` end with exit code 0, 1 or 2, never
with another exception, and exit 2 prints one `error:` line and no
stdout.  A chain cache record with one key or value replaced loads as
the built chain or as a miss, never as an exception.
"""

import contextlib
import gzip
import io
import json
import os
import tempfile
from unittest import mock

import pytest

import rct.critical as crit
from rct.cli import main
from rct.parse import parse_poly
from rct.poly import SparsePoly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# digits, one variable pair, every operator and two characters outside the
# grammar; short texts keep each Sturm query small
TEXT = st.text(alphabet="xy0123479/^+-*() .", max_size=24)
SETTINGS = hypothesis.settings(derandomize=True, max_examples=400,
                               deadline=None, database=None)


@SETTINGS
@hypothesis.given(TEXT)
def test_parse_poly_returns_or_raises_value_error(text):
    try:
        p = parse_poly(text)
    except ValueError:
        return
    assert isinstance(p, SparsePoly)


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse reads a leading '-' as an option
            code = e.code
            assert code == 2
            return
    assert code in (0, 1, 2)
    if code == 2:
        msg = err.getvalue()
        assert out.getvalue() == "" and msg.startswith("error: ")
        assert msg.count("\n") == 1, msg


@SETTINGS
@hypothesis.given(TEXT)
def test_sturm_count_exit_codes(text):
    _assert_contract(["sturm", "count", text])


# JSON values: free-form ones built from the field names the readers look
# for, and near-valid shapes whose numbers and strings include values on
# and past the caps, so that examples also reach the computations
KEYS = st.sampled_from(["n", "f", "vars", "terms", "coeff", "exp", "points",
                        "coords", "mult", "ambient", "N", "r", "d", "m",
                        "form"])
ATOM = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.sampled_from([257, 512, 513, 10 ** 8]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["x0", "x1", "u0_0", "1e400", "1e-400", "infinity", "nan",
                     "1/0", "-2/3", "0.1", ""]))
JSON = st.recursive(ATOM, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(KEYS, kids, max_size=4), max_leaves=12)
NUMBER = st.one_of(st.integers(-9, 9), ATOM)
JSON_SETTINGS = hypothesis.settings(SETTINGS, max_examples=150)


@st.composite
def _homogeneous(draw, groups, degree):
    """A polynomial JSON homogeneous of `degree` in each group of variable
    names unless a drawn exponent breaks it; its first term is the product
    of each group's first variable to the `degree`."""
    def exp(spread):
        out = []
        for group in groups:
            tail = []
            for _ in group[1:]:
                tail.append(draw(st.integers(0, degree - sum(tail)))
                            if spread else 0)
            out += [degree - sum(tail)] + tail
        return out

    terms = [{"coeff": 1, "exp": exp(False)}]
    k = sum(map(len, groups))
    for _ in range(draw(st.integers(0, 3))):
        terms.append({"coeff": draw(NUMBER),
                      "exp": draw(st.one_of(st.just(exp(True)),
                                            st.lists(st.integers(-1, 4),
                                                     min_size=k, max_size=k)))})
    return {"vars": [v for group in groups for v in group], "terms": terms}


@st.composite
def _divisor(draw):
    return {"n": draw(st.sampled_from([2, 2, 1, 17, "2"])),
            "f": draw(_homogeneous([["x0", "x1", "x2"]],
                                   draw(st.integers(1, 4))))}


@st.composite
def _form(draw):
    r, d = draw(st.integers(0, 1)), draw(st.sampled_from([1, 1, 2, 513]))
    groups = [[f"u{i}_{j}" for j in range(2)] for i in range(r + 1)]
    return {"N": 1, "r": r, "d": d, "m": draw(st.sampled_from([0, 0, 1, 2])),
            "form": draw(_homogeneous(groups, d))}


POINT = st.fixed_dictionaries(
    {"coords": st.one_of(st.lists(NUMBER, min_size=2, max_size=2),
                         st.lists(NUMBER, max_size=3))},
    optional={"mult": st.one_of(st.integers(1, 3), NUMBER)})
CYCLE = st.one_of(JSON, st.fixed_dictionaries(
    {"points": st.lists(POINT, min_size=1, max_size=3)},
    optional={"ambient": NUMBER}))
DIVISOR = st.one_of(JSON, _divisor())
FORM = st.one_of(JSON, _form())


@JSON_SETTINGS
@hypothesis.given(DIVISOR)
def test_divisor_json_exit_codes(value):
    _assert_contract(["div", "in-e", "--grid", "3", "--divisor",
                      json.dumps(value)])


@JSON_SETTINGS
@hypothesis.given(CYCLE)
@hypothesis.example({"points": [{"coords": ["1e400", 1]}]})
@hypothesis.example("1e400")
def test_cycle_json_exit_codes(value):
    _assert_contract(["fan", "demo", "--cycle", json.dumps(value)])


@JSON_SETTINGS
@hypothesis.given(FORM)
@hypothesis.example({"N": 1, "r": 1, "d": 1, "m": 0, "form": {
    "vars": ["u0_0", "u1_0"], "terms": [{"coeff": 1, "exp": [1, 1]}]}})
def test_form_json_exit_codes(value):
    _assert_contract(["chow", "taffy", "--form", json.dumps(value)])


# ---- the chain cache loader ----

# arbitrary integers, keys near the valid range 0 <= k < 2^24 at d = 3,
# and values of thousands of digits
INTEGER = st.one_of(st.integers(), st.integers(-1, 1 << 24),
                    st.sampled_from([1 << 64, -(1 << 64), 10 ** 4000,
                                     -(10 ** 4000)]))


@SETTINGS
@hypothesis.given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 9),
                  st.booleans(), INTEGER)
def test_chain_loader_returns_the_built_chain_or_none(i, m, t, as_key, n):
    # one key or one value of a stored d = 3 record is replaced by n; the
    # loader never raises, and a chain it returns is the built one
    built = crit._Chain(3)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"RCT_CACHE_DIR": tmp}):
        crit._store_cached_chain(built)
        path = crit._chain_cache_path(3)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            record = json.load(fh)
        coeff = record["prs"][i][m % (4 - i)]
        key = list(coeff)[t % len(coeff)]
        if as_key:
            coeff[str(n)] = coeff.pop(key)
        else:
            coeff[key] = n
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(record, fh)
        loaded = crit._load_cached_chain(3)
    assert loaded is None or loaded.prs == built.prs
