"""Compare lib-uniform's per-degree medians with the CLI's own bench command.

Usage, from the repository root:

    python3 perfbench/compare_bench.py --seed S

Each of ``ROUNDS`` rounds runs
``python -m splitroots.cli bench --json --seed S --n 1000`` and then
``SECONDS`` seconds of lib-uniform's timed loop on the same polynomials, one
after the other, so both see the same state of the machine.  Both draw the
polynomials from ``random.Random(f"{S}-{degree}")``: bench times each degree
on its own, lib-uniform interleaves them.  Prints, per degree, the median
over rounds of bench's median, of lib-uniform's raw median and of its
scaled median (see calibration.py), and the ratios of the last two to the
first.
"""

from __future__ import annotations

import argparse
import array
import json
import statistics
import subprocess
import sys
import time

import calibration
import corpus
from run import LIB_PER_DEGREE, ROOT, SRC, child_env, scale_factors, timed_pass

ROUNDS = 3
SECONDS = 10.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20240901)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from splitroots import RealPolynomial, solve

    polys = [RealPolynomial(c) for c in corpus.uniform(args.seed, LIB_PER_DEGREE)]
    n = len(polys)
    times = array.array("q", bytes(8 * n))
    cal_ns = array.array("q", bytes(8 * (n // calibration.EVERY + 1)))
    results = [None] * n
    bench, raw, scaled = ({deg: [] for deg in corpus.DEGREES} for _ in range(3))
    for _ in range(ROUNDS):
        out = subprocess.run(
            [sys.executable, "-m", "splitroots.cli", "bench", "--json",
             "--seed", str(args.seed), "--n", str(LIB_PER_DEGREE)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
        ).stdout
        for row in json.loads(out)["rows"]:
            if row["method"] == "split-closed-form":
                bench[row["degree"]].append(row["median_ns_per_solve"])

        samples = {deg: ([], []) for deg in corpus.DEGREES}
        deadline = time.perf_counter() + SECONDS
        while time.perf_counter() < deadline:
            timed_pass(solve, polys, results, times, cal_ns)
            for p, t, f in zip(polys, times, scale_factors(cal_ns, n)):
                samples[p.degree][0].append(t)
                samples[p.degree][1].append(t * f)
        for deg, (r, s) in samples.items():
            raw[deg].append(statistics.median(r))
            scaled[deg].append(statistics.median(s))

    print(f"seed {args.seed}, n {LIB_PER_DEGREE} per degree, {ROUNDS} rounds of {SECONDS:g} s")
    print(f"{'degree':<8}{'bench ns':>10}{'raw ns':>10}{'scaled ns':>11}{'raw/bench':>11}{'scaled/bench':>14}")
    for deg in corpus.DEGREES:
        b, r, s = (statistics.median(v[deg]) for v in (bench, raw, scaled))
        print(f"{deg:<8}{b:>10.0f}{r:>10.0f}{s:>11.0f}{r / b:>11.3f}{s / b:>14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
