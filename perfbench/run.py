"""Benchmark of rct: four known-answer workloads, end to end and per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client drives the workload's ops in
a closed loop, one op in flight at a time, and checks every answer
against a reference computed outside rct.  With --trace 0 it runs for S
seconds and reports the end-to-end metrics; with --trace 1 it wraps rct's
functions (see tracer.py), runs whole blocks of ops untraced and then the
same blocks traced, and reports the per-layer metrics.  End-to-end
timings are scaled to a fixed host speed measured by reference.py (see
REFERENCE_S below); the raw ones are in the details.  The last line of
stdout is the result object; the line before it holds details (per-kind
timings, failures, host and cache record).

rct's chain cache goes to .bench_build/perfbench/cache-<source hash>,
built once per source tree before anything is timed; cold ops get fresh
empty directories.  The user's ~/.cache/rct is never read or written.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import NAMES, UNSCALED, Context, make_blocks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 5
OP_TIMEOUT = 60
TRACE_UNTRACED_SHARE = 0.45  # of --seconds: the untraced half of a traced run
# Timings are reported at a fixed host speed (except on the UNSCALED
# workloads of workloads.py): the speed at which the loop in
# reference.py takes REFERENCE_S.  The loop is timed in its own process at
# least every SPEED_EVERY_S, between ops, and every op time is scaled by
# REFERENCE_S over the mean of the loop times measured just before and just
# after the op.  Raw timings stay in the details line.
REFERENCE_S = 0.003
SPEED_EVERY_S = 0.25


class OpTimeout(Exception):
    pass


class HostSpeed:
    """The reference loop's duration over time, from reference.py."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times, self.loops = [], []

    def mark(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.loops.append(float(self._proc.stdout.readline()))
        self.times.append(time.perf_counter())

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= SPEED_EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the loop times marked last before t0 and first
        after t1."""
        i = bisect.bisect_right(self.times, t0) - 1
        j = bisect.bisect_left(self.times, t1)
        around = [self.loops[k] for k in (i, j) if 0 <= k < len(self.loops)]
        return REFERENCE_S / statistics.mean(around)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=OP_TIMEOUT)


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set the workload up, print 'ready' and exit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rct", "cli.py")):
        print("perfbench: no rct sources under src/ next to perfbench/",
              file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return _setup_probe(args)

    threads_env = os.environ.pop("RCT_THREADS", None)
    os.environ.pop("RCT_NO_CACHE", None)
    os.makedirs(WORK, exist_ok=True)
    cache_dir, built = _warm_cache()
    os.environ["RCT_CACHE_DIR"] = cache_dir
    signal.signal(signal.SIGALRM, _alarm)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    speed = None if args.workload in UNSCALED else HostSpeed()
    try:
        setup_times = _measure_setup(args, speed)
        result, details = _run(args, run_dir, cache_dir, setup_times, speed)
    finally:
        if speed is not None:
            speed.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    if speed is not None:
        details["reference_loop_s"] = {"min": min(speed.loops),
                                       "median": statistics.median(speed.loops),
                                       "max": max(speed.loops),
                                       "marks": len(speed.loops)}
    import numpy

    details["host"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "RCT_THREADS": "unset (library default)" + (
            f"; removed {threads_env!r} from the environment" if threads_env else ""),
        "cache": {"dir": os.path.relpath(cache_dir, ROOT),
                  "built_by_this_run": built,
                  "files": {f: os.path.getsize(os.path.join(cache_dir, f))
                            for f in sorted(os.listdir(cache_dir))}},
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _setup_probe(args) -> int:
    work = tempfile.mkdtemp(prefix="probe-", dir=WORK)
    try:
        make_blocks(args.workload, args.seed,
                    Context(ROOT, work, os.environ["RCT_CACHE_DIR"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ready", flush=True)
    return 0


def _source_hash() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _warm_cache():
    """The benchmark's own chain cache, built once per source tree, untimed."""
    cache = os.path.join(WORK, f"cache-{_source_hash()}")
    if os.path.isdir(cache):
        return cache, False
    tmp = tempfile.mkdtemp(prefix="cache-build-", dir=WORK)
    env = dict(os.environ, RCT_CACHE_DIR=tmp, PYTHONPATH=SRC)
    for d in ("7", "8"):
        subprocess.run([sys.executable, "-m", "rct.cli", "critical", "gen",
                        "--d", d], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=840)
    try:
        os.rename(tmp, cache)
    except OSError:   # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)
    return cache, True


def _measure_setup(args, speed) -> tuple:
    """Seconds from spawning a fresh interpreter until the workload is set
    up (import, inputs, warm caches), once per probe: (scaled, raw)."""
    scaled, times = [], []
    for _ in range(SETUP_PROBES):
        if speed is not None:
            speed.mark()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=OP_TIMEOUT) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        if speed is None:
            scaled.append(times[-1])
        else:
            speed.mark()
            scaled.append(times[-1] * speed.scale(t0, t0 + times[-1]))
    return scaled, times


def _run_op(op):
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT)
    t0 = time.perf_counter()
    error = None
    try:
        result = op.run()
        elapsed = time.perf_counter() - t0
    except Exception as exc:   # a raising op is a failed op, not a crash
        elapsed = time.perf_counter() - t0
        error = f"raised {type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {str(exc)[:200]}"
    return elapsed, error


def _run_blocks(blocks, rng, seconds, speed, count=None):
    """Closed loop over whole blocks of the pool, in pool order and cycling,
    each block's ops in a fresh shuffled order.  Runs `count` blocks, or
    stops at the block boundary nearest to `seconds` (at least one block).
    Whole blocks keep the op mix, and with it the percentiles, the same in
    every run.  Returns (samples, blocks run); a sample is (kind, seconds,
    error or None, malformed, block number, start time)."""
    samples, done = [], 0
    start = time.perf_counter()
    while True:
        order = list(blocks[done % len(blocks)])
        rng.shuffle(order)
        for op in order:
            if speed is not None and speed.due():
                speed.mark()
            t0 = time.perf_counter()
            elapsed, error = _run_op(op)
            samples.append((op.kind, elapsed, error, op.malformed, done, t0))
        done += 1
        spent = time.perf_counter() - start
        if done == count or count is None and spent + spent / done / 2 >= seconds:
            if speed is not None:
                speed.mark()
            return samples, done


def _scaled(samples, speed) -> list:
    """Samples with each op time scaled to the reference host speed (left
    as they are on an unscaled workload)."""
    if speed is None:
        return samples
    return [(k, e * speed.scale(t0, t0 + e), err, m, b, t0)
            for k, e, err, m, b, t0 in samples]


def _ops_per_s(samples) -> float:
    """Median over blocks of verified ops per second of op latency."""
    per_block = {}
    for _, elapsed, error, _, block, _ in samples:
        ok, busy = per_block.get(block, (0, 0.0))
        per_block[block] = (ok + (error is None), busy + elapsed)
    return statistics.median(ok / busy for ok, busy in per_block.values())


def _run(args, run_dir, cache_dir, setup_times, speed):
    tracer = None
    if args.trace:   # imported only here, so that set-up probes never pay for it
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = Context(ROOT, run_dir, cache_dir)
    blocks = make_blocks(args.workload, args.seed, ctx)
    rng = random.Random(f"order:{args.seed}")
    details = {"workload": args.workload, "seed": args.seed,
               "block_ops": len(blocks[0]), "pool_blocks": len(blocks),
               "setup_probe_s": setup_times[0], "setup_probe_raw_s": setup_times[1]}
    if tracer is None:
        raw, count = _run_blocks(blocks, rng, args.seconds, speed)
        samples = _scaled(raw, speed)
        metrics = _end_to_end(samples, setup_times[0], ctx)
        details["blocks"] = count
        details["beyond_p90"] = sum(
            1 for s in samples if 1000 * s[1] > metrics["op_ms_p90"][0])
        details["raw"] = dict(zip(("ops_per_s", "op_ms_p50", "op_ms_p90"),
                                  _timings(raw)))
    else:
        samples, metrics = _traced(args, tracer, blocks, rng, ctx, details, speed)
    details["samples"] = len(samples)
    details["by_kind"] = _by_kind(samples)
    details["failures"] = [f"{s[0]}: {s[2]}" for s in samples if s[2]][:8]
    result = {
        "correct": all(s[2] is None for s in samples if not s[3]),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s[2] is not None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def _timings(samples) -> tuple:
    """(ops_per_s, op_ms_p50, op_ms_p90)."""
    ms = sorted(1000 * s[1] for s in samples)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] \
        if len(ms) > 1 else ms[0]
    return _ops_per_s(samples), statistics.median(ms), p90


def _end_to_end(samples, setup_times, ctx) -> dict:
    if ctx.child_reports:
        rss = max(r["rss_mb"] for r in ctx.child_reports)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops_per_s, p50, p90 = _timings(samples)
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "verified_ratio": (sum(1 for s in samples if s[2] is None) / len(samples),
                           "ratio"),
    }


def _traced(args, tracer, blocks, rng, ctx, details, speed):
    """Untraced blocks for TRACE_UNTRACED_SHARE of the time, then the same
    blocks again traced; per-layer values are per traced block plus set-up."""
    from tracer import layer_metrics, merge

    setup = tracer.dump()
    tracer.reset()
    tracer.disable()
    plain, count = _run_blocks(blocks, rng, TRACE_UNTRACED_SHARE * args.seconds,
                               speed)
    ctx.child_reports.clear()
    tracer.enable()
    ctx.trace_children = True
    traced, _ = _run_blocks(blocks, rng, 0, speed, count)
    tracer.disable()
    agg = merge({}, setup)
    merge(agg, tracer.dump(), 1 / count)
    children = ctx.child_reports
    for rep in children:
        merge(agg, rep["trace"], 1 / count)
    metrics = layer_metrics(agg)
    procs = len(children)
    cli_self = sum(r["trace"]["stats"].get("cli.main", [0, 0, 0])[2]
                   for r in children)
    metrics["cli.process_ms"] = (      # every traced op is one process here
        1000 * sum(s[1] for s in traced) / len(traced) if procs else 0.0, "ms")
    metrics["cli.import_ms"] = (
        sum(r["import_ms"] for r in children) / procs if procs else 0.0, "ms")
    metrics["cli.main_self_ms"] = (1000 * cli_self / procs if procs else 0.0, "ms")
    untraced_rate = _ops_per_s(_scaled(plain, speed))
    traced_rate = _ops_per_s(_scaled(traced, speed))
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    details["blocks"] = count
    spans = {"setup": setup["spans"], "traced_blocks": tracer.dump()["spans"],
             "children": [r["trace"]["spans"] for r in children]}
    path = os.path.join(WORK, f"spans-{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(spans, fh)
    details["spans_file"] = os.path.relpath(path, ROOT)
    return plain + traced, metrics


def _by_kind(samples) -> dict:
    kinds = {}
    for kind, elapsed, error, *_ in samples:
        kinds.setdefault(kind, []).append((1000 * elapsed, error))
    return {k: {"n": len(v), "median_ms": statistics.median(m for m, _ in v),
                "failed": sum(1 for _, e in v if e)}
            for k, v in sorted(kinds.items())}


if __name__ == "__main__":
    sys.exit(main())
