"""splitroots benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all single-caller and closed-loop; see BENCHMARK.json and
perfbench/README.md for why each is there):

  lib-uniform     in-process splitroots.solve() on the acceptance corpus
  lib-wide        the same loop on coefficients of magnitude 1e-6..1e6
  cli-batch       `splitroots solve --json` over a file of input lines
  cli-crosscheck  the same file through `solve --json --show-depressed --oracle`

With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced repeats and reports the
per-layer metrics and the tracing overhead.  Every output is checked after
the timed region.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Work files go to .perfbench/ under the repository root.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import calibration  # noqa: E402
import corpus  # noqa: E402
from cli_entry import peak_rss_mb  # noqa: E402
from spans import (  # noqa: E402
    LAYER_NAMES, SOLVE, BenchError, Recorder, call_cost_ns, install, layer_times, restore,
)

LIB_PER_DEGREE = 1000
CLI_PER_DEGREE = 1000
# Untimed passes run for this long before a lib timed loop starts.
WARMUP_S = 1.0
# Fresh processes timed for set-up, launched at even intervals through the
# timed loop of an untraced run.
SETUP_LAUNCHES = 24
# Runs of the calibration loop taken, by their median, before and after each
# set-up launch.
SETUP_CALIBRATIONS = 5
CHILD_TIMEOUT_S = 60.0
CLI_ARGS = {
    "cli-batch": ["solve", "--json"],
    "cli-crosscheck": ["solve", "--json", "--show-depressed", "--oracle"],
}
LIB_CORPUS = {"lib-uniform": corpus.uniform, "lib-wide": corpus.wide}
TRIVIAL_LINE = "z^2 - 1\n"
LIB_SETUP = "import splitroots; splitroots.solve(splitroots.RealPolynomial((-1.0, 0.0, 1.0)))"
# Layers a traced run of each workload must record spans for; a missing one
# means the tracing no longer reaches the code, and the result is not correct.
_SOLVE_LAYERS = (
    "poly_core.depress_ns.deg3",
    "poly_core.depress_ns.deg4",
    *(f"split_solver.{part}_ns.deg{deg}" for part in ("inner", "finish") for deg in corpus.DEGREES),
)
_CLI_LAYERS = (*_SOLVE_LAYERS, "parser.parse_ns", "parser.format_ns", "cli.record_ns", "cli.other_ns_per_line")
REQUIRED_LAYERS = {
    "lib-uniform": _SOLVE_LAYERS,
    "lib-wide": _SOLVE_LAYERS,
    "cli-batch": _CLI_LAYERS,
    "cli-crosscheck": (
        *_CLI_LAYERS,
        *(f"oracle.find_roots_ns.deg{deg}" for deg in corpus.DEGREES),
        "oracle.pairing_ns",
    ),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], stdin_path: Path, stdout_path: Path, stderr_path: Path) -> tuple[float, int]:
    """Run ``args`` to completion; returns its wall time in seconds and exit code."""
    with open(stdin_path, "rb") as fin, open(stdout_path, "wb") as fout, open(stderr_path, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdin=fin, stdout=fout, stderr=ferr, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        return time.perf_counter() - start, code


def loop_median_ns() -> float:
    return statistics.median(calibration.loop_ns() for _ in range(SETUP_CALIBRATIONS))


class SetupTimer:
    """Set-up time: fresh processes that each handle one trivial input.

    One launch goes first and is not counted, since in a new checkout it also
    writes the bytecode caches.  Then :meth:`poll`, called between the timed
    repeats, launches one process every ``seconds / SETUP_LAUNCHES``, so the
    launches sample the host over the whole run rather than over one slow or
    fast stretch of it.  Each launch's wall time is scaled, like the timed
    calls, by ``NOMINAL_NS`` over the calibration loop's time, the mean of
    its medians just before and just after the launch.
    """

    def __init__(self, args: list[str], work: Path, seconds: float) -> None:
        self.args = args
        self.paths = (work / "setup_in.txt", work / "setup_out.txt", work / "setup_err.txt")
        self.paths[0].write_text(TRIVIAL_LINE)
        self.walls: list[float] = []
        self.launch()
        self.walls.clear()
        self.interval = seconds / SETUP_LAUNCHES
        self.next_at = time.perf_counter()

    def launch(self) -> None:
        before = loop_median_ns()
        wall, code = run_child(self.args, *self.paths)
        after = loop_median_ns()
        if code != 0:
            raise BenchError(f"set-up run {self.args} exited with {code}:\n{self.paths[2].read_text()}")
        self.walls.append(wall * calibration.NOMINAL_NS * 2.0 / (before + after))

    def poll(self) -> None:
        if time.perf_counter() >= self.next_at:
            self.next_at += self.interval
            self.launch()

    def median(self) -> float:
        """Median scaled wall time in s, launching what the loop left out."""
        while len(self.walls) < SETUP_LAUNCHES:
            self.launch()
        return statistics.median(self.walls)


def missing_layers(workload: str, seen: set[str]) -> list[str]:
    return [layer for layer in REQUIRED_LAYERS[workload] if layer not in seen]


def scale_factors(cal_ns, count: int) -> list[float]:
    """Per item, NOMINAL_NS over the calibration taken before its group."""
    return [calibration.NOMINAL_NS / cal_ns[i // calibration.EVERY] for i in range(count)]


class Timings:
    """Scaled times of every timed call (or CLI line) of a run, by degree.

    The 95th percentile is taken per repeat (corpus pass or batch process)
    and reported as the median over repeats, so that a slow stretch of the
    host inside a few repeats does not move it.
    """

    def __init__(self) -> None:
        self.by_degree = {deg: array.array("d") for deg in corpus.DEGREES}
        self.p95: list[float] = []

    def add(self, degrees, times, factors) -> None:
        scaled = [t * f for t, f in zip(times, factors)]
        for deg, t in zip(degrees, scaled):
            self.by_degree[deg].append(t)
        scaled.sort()
        self.p95.append(scaled[int(0.95 * len(scaled))])

    def mean(self) -> float:
        return sum(map(sum, self.by_degree.values())) / sum(map(len, self.by_degree.values()))

    def metrics(self) -> dict[str, float]:
        every = [t for a in self.by_degree.values() for t in a]
        out = {
            "solve_ns_p50": float(statistics.median(every)),
            "solve_ns_p95": float(statistics.median(self.p95)),
            "solves_per_s": len(every) / (sum(every) / 1e9),
        }
        for deg, a in self.by_degree.items():
            out[f"solve_ns_p50.deg{deg}"] = float(statistics.median(a))
        return out


def traced_metrics(layers: list[dict[str, float]], timings: dict[bool, Timings]) -> dict[str, float]:
    """Median over traced repeats of each layer time, and the tracing overhead."""
    out = {name: float(statistics.median(r[name] for r in layers)) for name in LAYER_NAMES}
    out["trace.overhead_pct"] = 100.0 * (timings[True].mean() / timings[False].mean() - 1.0)
    return out


def timed_pass(solve, polys, results, times, cal_ns) -> None:
    """Solve every polynomial once, timing each call; calibrates before every
    ``calibration.EVERY`` calls."""
    clock, every, calibrate = time.perf_counter_ns, calibration.EVERY, calibration.loop_ns
    for i, p in enumerate(polys):
        if i % every == 0:
            cal_ns[i // every] = calibrate()
        t0 = clock()
        rs = solve(p)
        t1 = clock()
        results[i] = rs
        times[i] = t1 - t0


def run_lib(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    from check import Tally, check_library
    from splitroots import RealPolynomial, solve, split_solver

    corpus.write_jsonl(work / "input.jsonl", LIB_CORPUS[workload](seed, LIB_PER_DEGREE))
    polys = [RealPolynomial(c) for c in corpus.read_jsonl(work / "input.jsonl")]
    n = len(polys)
    degrees = [p.degree for p in polys]
    times = array.array("q", bytes(8 * n))
    cal_ns = array.array("q", bytes(8 * (n // calibration.EVERY + 1)))
    results = [None] * n
    warm_until = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_until:
        timed_pass(solve, polys, results, times, cal_ns)
    # Read before the timings pile up: later growth is the benchmark's own.
    peak_rss = peak_rss_mb()

    timings = {False: Timings(), True: Timings()}
    layers: list[dict[str, float]] = []
    problems: list[str] = []
    setup = None if trace else SetupTimer([sys.executable, "-c", LIB_SETUP], work, seconds)
    deadline = time.perf_counter() + seconds
    while not problems and time.perf_counter() < deadline:
        if setup:
            setup.poll()
        for traced in (False, True) if trace else (False,):
            rec = Recorder()
            saved = install(rec, split_solver) if traced else []
            timed_pass(rec.wrap(SOLVE, solve) if traced else solve, polys, results, times, cal_ns)
            restore(saved)
            factors = scale_factors(cal_ns, n)
            timings[traced].add(degrees, times, factors)
            if traced:
                found, seen = layer_times(rec, degrees.__getitem__, factors.__getitem__, call_cost_ns())
                layers.append(found)
                if missing := missing_layers(workload, seen):
                    problems.append(f"no spans recorded for layers {missing}")

    if trace:
        rec.write_csv(work / "spans.csv")
        metrics = traced_metrics(layers, timings)
        metrics["cli.bytes_out_per_line"] = 0.0
    else:
        metrics = timings[False].metrics()
        metrics["setup_s"] = setup.median()
        metrics["peak_rss_mb"] = peak_rss

    tally = Tally()
    check_library(polys, results, tally)
    return metrics, tally, problems


def run_cli(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    from check import Tally, check_cli
    from splitroots import cli, solve, split_solver

    if trace:
        restore(install(Recorder(), split_solver, cli))  # stops here if a traced name is gone
    cli_args = CLI_ARGS[workload]
    coeffs = corpus.uniform(seed, CLI_PER_DEGREE)
    input_path = work / "input.txt"
    corpus.write_lines(input_path, coeffs)
    lines = input_path.read_text().splitlines()
    degrees = [len(c) - 1 for c in coeffs]

    timings = {False: Timings(), True: Timings()}
    layers: list[dict[str, float]] = []
    peak_rss: list[float] = []
    problems: list[str] = []
    reference = None
    times_path = work / "times.json"
    spans_path = work / "spans.csv"
    setup = None if trace else SetupTimer([sys.executable, "-m", "splitroots.cli", *cli_args], work, seconds)
    deadline = time.perf_counter() + seconds
    while not problems and (not peak_rss or (trace and not layers) or time.perf_counter() < deadline):
        if setup:
            setup.poll()
        for traced in (False, True) if trace else (False,):
            args = [
                sys.executable, str(HERE / "cli_entry.py"), str(times_path),
                str(spans_path) if traced else "-", *cli_args,
            ]
            _, code = run_child(args, input_path, work / "out.jsonl", work / "err.txt")
            out = (work / "out.jsonl").read_bytes()
            err = (work / "err.txt").read_text()
            if code != 0 or "Traceback" in err:
                problems.append(f"CLI exited with {code}: {err[-500:]}")
                break
            if reference is None:
                reference = out
            elif out != reference:
                problems.append("CLI output differs between runs of the same input")
            clocked = json.loads(times_path.read_text())
            if len(clocked["line_ns"]) != len(lines):
                problems.append(f"{len(clocked['line_ns'])} line times for {len(lines)} input lines")
                break
            factors = scale_factors(clocked["cal_ns"], len(lines))
            timings[traced].add(degrees, clocked["line_ns"], factors)
            if traced:
                found, seen = layer_times(
                    Recorder.read_csv(spans_path), degrees.__getitem__, factors.__getitem__,
                    clocked["call_cost_ns"],
                )
                layers.append(found)
                if missing := missing_layers(workload, seen):
                    problems.append(f"no spans recorded for layers {missing}")
            else:
                peak_rss.append(clocked["peak_rss_mb"])

    if problems:
        metrics = {}
    elif trace:
        metrics = traced_metrics(layers, timings)
        metrics["cli.bytes_out_per_line"] = len(reference) / len(lines)
    else:
        metrics = timings[False].metrics()
        metrics["setup_s"] = setup.median()
        metrics["peak_rss_mb"] = statistics.median(peak_rss)

    tally = Tally()
    check_cli(lines, (reference or b"").decode(), solve, workload == "cli-crosscheck", tally)
    return metrics, tally, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted([*LIB_CORPUS, *CLI_ARGS]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "splitroots" / "__init__.py").is_file():
            raise BenchError(f"no splitroots package under {SRC}; run from a full checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(SRC))
        work = WORK / args.workload
        work.mkdir(parents=True, exist_ok=True)
        run = run_lib if args.workload in LIB_CORPUS else run_cli
        metrics, tally, problems = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.trace:
        metrics.update(tally.counts())
    problems += tally.problems
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not problems:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for name in missing:
        metrics[name] = 0.0  # the run stopped early; the result says it is not correct

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(
        f"  {'fail_rate':<40} {tally.failed / max(1, tally.attempted):>16.6g} ratio"
        f"  ({tally.failed} of {tally.attempted} inputs: {tally.broken} broken,"
        f" {sum(tally.bound_miss.values())} roots over the residual bound,"
        f" {tally.mismatch} oracle mismatches, {tally.unconverged} oracle unconverged)"
    )
    for problem in problems:
        print(f"  problem: {problem}")
    result = {
        "correct": tally.attempted > 0 and tally.broken == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
