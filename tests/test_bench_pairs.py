"""tools/bench_pairs.py: the pair statistics, on fixed numbers."""

import importlib.util
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"better": "lower", "bound": 0.24}
HIGHER = {"better": "higher", "bound": 0.1}


def test_a_clear_gain():
    parent = [2.5, 2.6, 2.4, 2.55, 2.5, 2.45, 2.6, 2.5, 2.52, 2.48]
    change = [2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.1, 2.0, 2.7, 1.98]
    row = bench_pairs.summarize(LOWER, parent, change)
    assert row["parent"] == pytest.approx((2.485, 2.5, 2.5425))
    assert row["change"][1] == 2.0
    assert math.isclose(row["relative"], -0.2)
    # the ninth pair is lost: 9 of 10 still meet the rule
    assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
    assert row["gain"] and row["bound"]


def test_ties_count_for_neither_side():
    row = bench_pairs.summarize(HIGHER, [10, 10, 10, 11], [10, 12, 10, 10])
    assert (row["wins"], row["losses"]) == (1, 1)
    assert not row["gain"] and row["bound"]


def test_too_few_wins_or_a_median_inside_the_spread():
    # eight wins of ten fall short of nine tenths
    parent = [100.0] * 10
    change = [120.0] * 8 + [90.0] * 2
    row = bench_pairs.summarize(HIGHER, parent, change)
    assert row["wins"] == 8 and not row["gain"]
    # every pair won, but by less than the parent's quartile spread
    parent = [90.0, 95.0, 100.0, 105.0, 110.0]
    change = [p + 1 for p in parent]
    row = bench_pairs.summarize(HIGHER, parent, change)
    assert row["wins"] == 5 and row["parent"] == (95.0, 100.0, 105.0)
    assert not row["gain"]


def test_the_bound():
    # 24% worse holds the bound, 25% worse fails it, on either side
    assert bench_pairs.summarize(LOWER, [1.0], [1.24])["bound"]
    assert not bench_pairs.summarize(LOWER, [1.0], [1.25])["bound"]
    assert bench_pairs.summarize(HIGHER, [100.0, 100.0], [90.0, 90.0])["bound"]
    assert not bench_pairs.summarize(HIGHER, [100.0], [89.0])["bound"]
    row = bench_pairs.summarize(HIGHER, [1.0, 1.0], [1.0, 1.0])
    assert row["relative"] == 0 and row["bound"] and not row["gain"]


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError, match="one parent and one change"):
        bench_pairs.summarize(LOWER, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="one parent and one change"):
        bench_pairs.summarize(LOWER, [], [])


def test_a_row_prints_every_figure():
    row = bench_pairs.summarize(LOWER, [2.5, 2.6, 2.4], [2.0, 2.1, 1.9])
    line = bench_pairs.format_row("op_ms_p90", "ms", row)
    assert line.split() == ["op_ms_p90", "ms", "2.5", "(2.45-2.55)", "2",
                            "(1.95-2.05)", "-20.0%", "3/0", "yes", "holds"]


def test_kind_medians_show_which_kinds_moved():
    def run(**ms):
        return {k: {"n": 16, "median_ms": v, "failed": 0} for k, v in ms.items()}

    parent = [run(deg8=0.45, deg16=1.10, deg32=2.9),
              run(deg8=0.41, deg16=1.00, deg32=3.1),
              run(deg8=0.43, deg16=1.05, deg32=3.0)]
    change = [run(deg8=0.40, deg16=0.80, deg32=3.0),
              run(deg8=0.38, deg16=0.75, deg32=2.9),
              run(deg8=0.36, deg16=0.70, only_here=1.0)]
    rows = bench_pairs.kind_rows(parent, change)
    # a kind run on one side only is left out; deg32 ran twice on the
    # change's side, so its median is over those two
    assert [r[0] for r in rows] == ["deg16", "deg32", "deg8"]
    kind, p, c, rel = rows[0]
    assert (p, c) == (1.05, 0.75) and math.isclose(rel, -2 / 7)
    assert rows[1][1:3] == (3.0, 2.95)
    assert bench_pairs.format_kind_row(rows[2]).split() == [
        "deg8", "0.43", "0.38", "-11.6%"]
