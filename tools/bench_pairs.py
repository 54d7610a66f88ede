"""Run the benchmark in two checkouts in alternating pairs and judge the
change by the end-to-end metrics of BENCHMARK.json.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                [--pairs 10] [--first-seed S]

Pair i runs `perfbench/run.py --workload W --seed S+i --seconds T
--trace 0` in each checkout, T being BENCHMARK.json's run_seconds; the
parent goes first in even pairs and the change in odd ones.  For each
end-to-end metric the report gives each side's median and quartiles, the
relative change of the medians, and the pairs each side won, where ties
count for neither.  Then two verdicts:

- gain: the change wins at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's quartile spread;
- bound: the change's median is no worse than the parent's by more than
  the metric's bound, as a share of the parent's median.

Then each op kind's median time on each side, the median over that
side's runs of the kind's median in run.py's details (`by_kind`), and its
relative change, so that a percentile's move can be traced to the kinds
that made it.

Each run's attempted and failed op counts are printed as they finish.  A
run that exits non-zero or prints no result ends the script with exit
code 1.  Nothing is written in either checkout by this script; run.py
keeps its own build under each checkout's .bench_build/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

GAIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """(q1, median, q3) of the values, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec: dict, parent, change) -> dict:
    """The pair statistics of one metric, from the parent's and the
    change's values of the same pairs, in order.  spec holds the metric's
    "better" ("higher" or "lower") and "bound" from BENCHMARK.json."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1 if spec["better"] == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    gain = wins >= math.ceil(GAIN_SHARE * len(parent)) \
        and sign * (cm - pm) > p3 - p1
    bound = sign * (cm - pm) >= -spec["bound"] * abs(pm)
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "relative": (cm - pm) / pm if pm else math.nan,
            "wins": wins, "losses": losses, "pairs": len(parent),
            "gain": gain, "bound": bound}


def format_row(name: str, unit: str, row: dict) -> str:
    def side(q):
        return f"{q[1]:.4g} ({q[0]:.4g}-{q[2]:.4g})"

    return (f"{name:15} {unit:6} {side(row['parent']):>26} "
            f"{side(row['change']):>26} {row['relative']:+8.1%} "
            f"{row['wins']:>3}/{row['losses']:<3} "
            f"{'yes' if row['gain'] else 'no':>4} "
            f"{'holds' if row['bound'] else 'FAILS':>6}")


def kind_rows(parent, change) -> list:
    """(kind, parent median, change median, relative change) for each op
    kind run on both sides, from each run's `by_kind` details (kind ->
    {"median_ms": ...}): the median over a side's runs of the kind's
    median time."""
    rows = []
    for kind in sorted(set().union(*parent) & set().union(*change)):
        p = statistics.median(r[kind]["median_ms"] for r in parent if kind in r)
        c = statistics.median(r[kind]["median_ms"] for r in change if kind in r)
        rows.append((kind, p, c, (c - p) / p if p else math.nan))
    return rows


def format_kind_row(row: tuple) -> str:
    kind, p, c, rel = row
    return f"{kind:28} {p:10.4g} {c:10.4g} {rel:+8.1%}"


def run_once(root: str, workload: str, seed: int, seconds) -> dict:
    """The result object of one benchmark run in the checkout at root,
    with the details' per-kind timings under "by_kind"."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{root} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    try:
        result = json.loads(lines[-1])
        details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
    except json.JSONDecodeError as err:
        raise RuntimeError(f"{root} seed {seed}: no result line") from err
    result["by_kind"] = details.get("by_kind", {})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = bench["end_to_end"]
    values = {"parent": [], "change": []}
    kinds = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(getattr(args, side), args.workload, seed,
                                  bench["run_seconds"])
                values[side].append(result["metrics"])
                kinds[side].append(result["by_kind"])
                print(f"pair {i + 1} seed {seed} {side}: "
                      f"{result['attempted']} ops, {result['failed']} failed",
                      flush=True)
    except RuntimeError as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 1
    print(f"\n{args.workload}, {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}: median (q1-q3), parent -> "
          f"change, wins/losses of the change, gain rule, bound")
    for spec in specs:
        name = spec["name"]
        row = summarize(spec, [m[name]["value"] for m in values["parent"]],
                        [m[name]["value"] for m in values["change"]])
        print(format_row(name, spec["unit"], row))
    print("\nop kind: median over runs of the kind's median ms, parent -> "
          "change")
    for row in kind_rows(kinds["parent"], kinds["change"]):
        print(format_kind_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
