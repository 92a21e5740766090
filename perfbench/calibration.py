"""How fast the host runs right now, from a fixed pure-Python loop.

The benchmark was tuned on 2 vCPUs of a shared machine whose speed moved
between levels up to 1.75x apart, in stretches from tens of milliseconds to
minutes.  A median over a run mostly measured how much of the run fell in
slow stretches: over ten seeds, whole-run medians of solve() latency spread
by up to 28 % (quartile distance over median), and the best 50 ms of a run
by 12-17 %.  So the benchmark times this loop before every ``EVERY`` timed
calls (or CLI lines) and reports each call's time scaled by
``NOMINAL_NS / loop time``: the time the call would have taken with the
machine running the loop in ``NOMINAL_NS``.  The loop is the benchmark's own
code and never changes, so a change to the program moves the scaled times as
it moves the raw ones.  Scaled, the medians spread by 1-8 %.

The loop runs a complex Horner evaluation with its derivative, a Newton
step and a call per iteration, the operations ``solve()`` spends its time on.
"""

from __future__ import annotations

import time

# About the loop's time, in ns, on the quiet host the benchmark was tuned on
# (Intel Xeon, 2.1 GHz nominal, Python 3.11.7), so scaled times read close to
# that host's quiet-time ones.
NOMINAL_NS = 17_500.0
# Timed calls or CLI lines per calibration.
EVERY = 20

_COEFFS = (1.0, -2.5, 3.25, -4.125, 0.5)
_START = complex(0.3, 0.7)


def _horner(coeffs: tuple[float, ...], z: complex) -> tuple[complex, complex]:
    value = 0j
    deriv = 0j
    for c in coeffs:
        deriv = deriv * z + value
        value = value * z + c
    return value, deriv


def loop_ns() -> int:
    """Wall time of one run of the calibration loop, in ns."""
    start = time.perf_counter_ns()
    z = _START
    for _ in range(20):
        value, deriv = _horner(_COEFFS, z)
        z = z - value / deriv if deriv and abs(z) < 10.0 else _START
    return time.perf_counter_ns() - start
