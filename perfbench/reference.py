"""Host-speed reference: a fixed pure-Python loop, timed on request.

Started once per benchmark run as a separate process.  For every line
read on stdin it runs the loop three times and prints the shortest
duration in seconds.
It runs in its own process, so a change to rct that slows the benchmark
process (a stray busy thread, say) cannot slow the reference as well and
hide itself.
"""

import sys
import time
from fractions import Fraction

COEFFS = [Fraction(i * 7919 % 101 - 50, i % 7 + 1) for i in range(40)]


def loop() -> Fraction:
    """Horner evaluation of a fixed rational polynomial at 24 points: the
    same kind of Fraction and big-integer work as rct's own."""
    acc = Fraction(0)
    for k in range(1, 25):
        x = Fraction(k, 7)
        v = Fraction(0)
        for c in COEFFS:
            v = v * x + c
        acc += v
    return acc


def timed() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


if __name__ == "__main__":
    # the fastest of three runs: a single run can be stretched by a
    # transient, such as the exit of the process the benchmark just ran
    for _ in sys.stdin:
        print(min(timed() for _ in range(3)), flush=True)
