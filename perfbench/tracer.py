"""Span tracer that wraps rct's functions from outside the package.

Nothing under src/ is edited: `Tracer.install` replaces every public
function of the rct modules (and the public methods of their public
classes) with a wrapper that records a span, in every module namespace
that holds a binding of it.  A span records its id, its parent's id, the
wrapped name, start, end and self time (its duration minus the time its
child spans cover).  Spans stay in memory; `dump` returns them with the
per-function aggregates that `layer_metrics` turns into the per-layer
figures of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time

LAYERS = ("poly", "parse", "sturm", "critical", "chow", "divisors", "fan",
          "parallel", "cli")

# SparsePoly methods whose work is poly arithmetic; trivial accessors such
# as is_zero or degree are left unwrapped so tracing stays affordable
_POLY_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__pow__", "evaluate",
                 "substitute", "derivative", "dense_coeffs", "coeffs_in",
                 "with_vars", "content", "primitive_integer")

# private names that mark layer work the public API hides; absent names
# (a later refactor may remove them) are skipped and read as zero
_PRIVATE = ("critical._load_cached_chain", "critical._store_cached_chain",
            "critical._Chain.__init__", "divisors._FiberChecker.check")

# helpers called once per coefficient or variable: a span each would cost
# more than the work, and their time belongs to the caller
_SKIP = ("poly.as_rational", "poly.var_weight", "poly.shd_monomial",
         "divisors.xvar", "chow.group_var")

_COUNT_FNS = ("sturm.count_distinct_roots_total", "sturm.count_distinct_roots_in")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []     # (owner, attribute, original, wrapper)
        self.spans = []        # [id, parent id, name, start, end, self]
        self.stats = {}        # name -> [calls, total s, self s]
        self.edges = {}        # "parent name>name" -> calls
        self.counters = {}
        self._post = {
            "sturm.sturm_sequence": _post_chain,
            "sturm.isolate_roots_bisection": _post_isolate,
            "critical.has_d_distinct_real_roots": _post_verdict,
            "critical._store_cached_chain": _post_store,
            "fan.psi_demo": _post_psi,
        }

    # ---- installation ----

    def install(self) -> None:
        """Wrap rct's functions; call after importing rct, before using it."""
        package = importlib.import_module("rct")
        modules = {layer: importlib.import_module(f"rct.{layer}")
                   for layer in LAYERS}
        namespaces = [package] + list(modules.values())
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ \
                        or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    if f"{layer}.{attr}" not in _SKIP:
                        originals[obj] = f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if obj.__name__ == "SparsePoly":
                            keep = meth in _POLY_METHODS
                        else:
                            keep = meth == "__call__" or not meth.startswith("_")
                        if keep:
                            self._patch(obj, meth, fn, f"{layer}.{attr}.{meth}")
        for dotted in _PRIVATE:
            layer, *path = dotted.split(".")
            owner = modules[layer]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if inspect.isfunction(fn):
                if inspect.isclass(owner):
                    self._patch(owner, path[-1], fn, dotted)
                else:
                    originals[fn] = dotted
        # rebind each function in every namespace holding it, so that
        # `from .sturm import count_distinct_roots_total` copies are traced
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, attr, obj, wrappers[obj]))
        self.enable()

    def _patch(self, owner, attr, fn, name) -> None:
        self._patches.append((owner, attr, fn, self._wrap(name, fn)))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # ---- spans ----

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent):
        frame = [next(self._ids), name, 0.0]   # id, name, child seconds
        if parent is not None:
            key = f"{parent[1]}>{name}"
            with self._lock:
                self.edges[key] = self.edges.get(key, 0) + 1
        return frame

    def _close(self, frame, parent, t0: float, t1: float, charge: bool = True):
        dur = t1 - t0
        own = dur - frame[2]
        if charge and parent is not None:
            parent[2] += dur
        with self._lock:
            self.spans.append([frame[0], parent[0] if parent else None,
                               frame[1], t0, t1, own])
            s = self.stats.get(frame[1])
            if s is None:
                s = self.stats[frame[1]] = [0, 0.0, 0.0]
            s[0] += 1
            s[1] += dur
            s[2] += own

    def count(self, key: str, value, op=None) -> None:
        with self._lock:
            prev = self.counters.get(key, 0)
            self.counters[key] = op(prev, value) if op else prev + value

    def _wrap(self, name: str, fn):
        if name == "parallel.ordered_parallel_map":
            return self._wrap_map(name, fn)
        post = self._post.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = tracer._open(name, parent)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._close(frame, parent, t0, t1)
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    def _wrap_map(self, name: str, fn):
        """The map span's children run on worker threads and overlap, so
        its child time is the union of the task intervals."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(task_fn, items, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = tracer._open(name, parent)
            intervals = []

            def task(item):
                tstack = tracer._stack()
                tframe = tracer._open("parallel.task", frame)
                tstack.append(tframe)
                s0 = time.perf_counter()
                try:
                    return task_fn(item)
                finally:
                    s1 = time.perf_counter()
                    tstack.pop()
                    intervals.append((s0, s1))
                    tracer._close(tframe, frame, s0, s1, charge=False)

            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(task, items, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                frame[2] += _union(intervals)
                tracer._close(frame, parent, t0, t1)

        return wrapper

    # ---- results ----

    def dump(self) -> dict:
        """Aggregates (mergeable across processes) plus the raw spans."""
        with self._lock:
            return {"stats": {k: list(v) for k, v in self.stats.items()},
                    "edges": dict(self.edges),
                    "counters": dict(self.counters),
                    "spans": [list(s) for s in self.spans]}

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.stats.clear()
            self.edges.clear()
            self.counters.clear()


def _union(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _post_chain(tracer, args, seq) -> None:
    bits = 0
    for p in seq.polys:
        for c in p:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tracer.count("chain_max_bits", bits, max)


def _post_isolate(tracer, args, intervals) -> None:
    tracer.count("roots_isolated", len(intervals))


def _post_verdict(tracer, args, verdict) -> None:
    tracer.count("degenerate", int(verdict.name == "DEGENERATE"))


def _post_store(tracer, args, _result) -> None:
    critical = importlib.import_module("rct.critical")
    path_of = getattr(critical, "_chain_cache_path", None)
    path = path_of(args[0].d) if path_of else None
    if path and os.path.exists(path):
        tracer.count("cache_bytes", os.path.getsize(path))


def _post_psi(tracer, args, result) -> None:
    tracer.count("fibers", len(result.certificates))


# ---- per-layer metrics ----


def merge(into: dict, part: dict, scale: float = 1.0) -> dict:
    """Add `part` (a dump) scaled by `scale` into the aggregate `into`."""
    stats = into.setdefault("stats", {})
    for name, (calls, total, own) in part["stats"].items():
        s = stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += calls * scale
        s[1] += total * scale
        s[2] += own * scale
    edges = into.setdefault("edges", {})
    for key, calls in part["edges"].items():
        edges[key] = edges.get(key, 0) + calls * scale
    counters = into.setdefault("counters", {})
    for key, value in part["counters"].items():
        if key == "chain_max_bits":
            counters[key] = max(counters.get(key, 0), value)
        else:
            counters[key] = counters.get(key, 0) + value * scale
    return into


def layer_metrics(agg: dict) -> dict:
    """Named per-layer figures, {name: (value, unit)}, from merged aggregates."""
    stats = agg.get("stats", {})
    edges = agg.get("edges", {})
    counters = agg.get("counters", {})

    def calls(*names):
        return sum(stats.get(n, (0, 0, 0))[0] for n in names)

    def total_ms(*names):
        return 1000 * sum(stats.get(n, (0, 0, 0))[1] for n in names)

    def self_ms(*names):
        return 1000 * sum(stats.get(n, (0, 0, 0))[2] for n in names)

    def layer(prefix):
        return [n for n in stats if n.split(".", 1)[0] == prefix]

    def ratio(a, b):
        return a / b if b else 0.0

    queries = calls("critical.has_d_distinct_real_roots")
    directions = calls("divisors._FiberChecker.check")
    fibers = counters.get("fibers", 0)
    roots = counters.get("roots_isolated", 0)
    task_ms = total_ms("parallel.task")
    map_ms = total_ms("parallel.ordered_parallel_map")
    fallback = sum(edges.get(f"critical.in_S_n>{n}", 0) for n in _COUNT_FNS)
    fiber_sturm = sum(edges.get(f"divisors._FiberChecker.check>{n}", 0)
                      for n in _COUNT_FNS)
    isolate_ms = self_ms("sturm.isolate_roots_bisection")
    return {
        "parse.calls": (calls(*layer("parse")), "count"),
        "parse.self_ms": (self_ms(*layer("parse")), "ms"),
        "poly.evaluate_calls": (calls("poly.SparsePoly.evaluate"), "count"),
        "poly.mul_calls": (calls("poly.SparsePoly.__mul__",
                                 "poly.SparsePoly.__rmul__"), "count"),
        "poly.substitute_calls": (calls("poly.SparsePoly.substitute"), "count"),
        "poly.self_ms": (self_ms(*layer("poly")), "ms"),
        "sturm.chain_calls": (calls("sturm.sturm_sequence"), "count"),
        "sturm.chain_self_ms": (self_ms("sturm.sturm_sequence"), "ms"),
        "sturm.chain_max_bits": (counters.get("chain_max_bits", 0), "bits"),
        "sturm.count_self_ms": (self_ms(*_COUNT_FNS), "ms"),
        "sturm.isolate_self_ms": (isolate_ms, "ms"),
        "sturm.roots_isolated": (roots, "count"),
        "sturm.isolate_ms_per_root": (ratio(isolate_ms, roots), "ms"),
        "critical.query_calls": (queries, "count"),
        "critical.query_self_ms": (self_ms("critical.has_d_distinct_real_roots",
                                           "critical.in_S_n"), "ms"),
        "critical.degenerate_ratio": (
            ratio(counters.get("degenerate", 0), queries), "ratio"),
        "critical.fallback_calls": (fallback, "count"),
        "critical.disk_load_ms": (total_ms("critical._load_cached_chain"), "ms"),
        "critical.build_ms": (total_ms("critical._Chain.__init__"), "ms"),
        "critical.cache_bytes": (counters.get("cache_bytes", 0), "bytes"),
        "divisors.in_e_calls": (calls("divisors.in_E"), "count"),
        "divisors.in_e_self_ms": (self_ms("divisors.in_E"), "ms"),
        "divisors.directions": (directions, "count"),
        "divisors.ms_per_direction": (
            ratio(total_ms("divisors._FiberChecker.check"), directions), "ms"),
        "divisors.sturm_fiber_ratio": (ratio(fiber_sturm, directions), "ratio"),
        "divisors.div2_self_ms": (self_ms("divisors.in_div_double_prime"), "ms"),
        "fan.psi_calls": (calls("fan.psi_demo"), "count"),
        "fan.psi_self_ms": (self_ms("fan.psi_demo"), "ms"),
        "fan.fibers": (fibers, "count"),
        "fan.ms_per_fiber": (ratio(total_ms("fan.psi_demo"), fibers), "ms"),
        "parallel.map_calls": (calls("parallel.ordered_parallel_map"), "count"),
        "parallel.map_wall_ms": (map_ms, "ms"),
        "parallel.task_ms_sum": (task_ms, "ms"),
        "parallel.speedup": (ratio(task_ms, map_ms), "ratio"),
        "chow.calls": (calls(*layer("chow")), "count"),
        "chow.self_ms": (self_ms(*layer("chow")), "ms"),
    }
