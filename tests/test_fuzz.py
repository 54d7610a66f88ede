"""Hostile text: the parser and `rct sturm count` keep the error contract.

Any input either parses, or raises ValueError (PolyParseError for the
grammar); through main() it ends with exit code 0, 1 or 2, never with
another exception, and exit 2 prints one `error:` line and no stdout.
"""

import contextlib
import io

import pytest

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


@SETTINGS
@hypothesis.given(TEXT)
def test_sturm_count_exit_codes(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["sturm", "count", text])
        except SystemExit as e:  # argparse reads a leading '-' as an option
            code = e.code
            assert code == 2
            return
    assert code in (0, 1, 2)
    if code == 2:
        msg = err.getvalue()
        assert out.getvalue() == "" and msg.startswith("error: ")
        assert msg.count("\n") == 1, msg
