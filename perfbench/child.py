"""One rct command in a fresh process: the op of the cold_start workload.

usage: python3 perfbench/child.py REPORT TRACE ARG...

Runs `rct.cli.main(ARG...)` and exits with its code, exactly as the `rct`
executable would; an uncaught exception still propagates with its
traceback.  Before exiting it writes a JSON report to REPORT: the import
time of rct.cli, the process's peak RSS and, when TRACE is 1, the span
aggregates of the traced call.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
t0 = time.perf_counter()
import rct.cli  # noqa: E402

report = {"import_ms": 1000 * (time.perf_counter() - t0)}
tracer = None
if trace:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
try:
    code = rct.cli.main(argv)
finally:
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["trace"] = tracer.dump()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
sys.exit(code)
