"""Spans recorded around calls into splitroots' public functions.

A span is ``(name, start, end, parent, input)``: times from
``time.perf_counter_ns``, ``parent`` the index of the enclosing span (-1 at
top level) and ``input`` the number of the top-level span it belongs to, so
all spans of one polynomial (or one CLI line) share it.  Spans stay in memory
until :meth:`Recorder.write_csv`.

The wrappers are installed by rebinding module attributes from outside; the
package itself is not changed.  A call made through a name that is not
rebound (for example a function one module imported from another before the
rebinding) is not seen, so the targets below name the module whose globals
the caller looks the function up in.  A target that is missing stops the
benchmark: a layer that silently recorded nothing would read as free.
"""

from __future__ import annotations

import array
import json
import statistics
import time
from collections import defaultdict

import calibration

SOLVE = "split_solver.solve"
LINE = "cli.line"
_DEPRESS = ("poly_core.depress_cubic", "poly_core.depress_quartic")
_INNER = (
    "split_solver.solve_quadratic",
    "split_solver.solve_depressed_cubic",
    "split_solver.solve_depressed_quartic",
)
_RECORD = ("cli.OutputRecord", "cli.OutputRecord.to_dict", "cli.json.dumps")


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with no result."""


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.input = array.array("q")
        self._stack: list[int] = []
        self._inputs = 0

    def open(self, name: str) -> None:
        if self._stack:
            parent = self._stack[-1]
            owner = self.input[parent]
        else:
            parent = -1
            owner = self._inputs
            self._inputs += 1
        self._stack.append(len(self.names))
        self.names.append(name)
        self.parent.append(parent)
        self.input.append(owner)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())

    def close(self) -> None:
        t = time.perf_counter_ns()
        self.end[self._stack.pop()] = t

    def wrap(self, name: str, fn):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("index,name,start_ns,end_ns,parent,input\n")
            for i, row in enumerate(zip(self.names, self.start, self.end, self.parent, self.input)):
                f.write(f"{i},{row[0]},{row[1]},{row[2]},{row[3]},{row[4]}\n")

    @classmethod
    def read_csv(cls, path) -> Recorder:
        rec = cls()
        with open(path) as f:
            next(f)
            for line in f:
                _, name, start, end, parent, owner = line.rstrip("\n").split(",")
                rec.names.append(name)
                rec.start.append(int(start))
                rec.end.append(int(end))
                rec.parent.append(int(parent))
                rec.input.append(int(owner))
        return rec


class _TracedJson:
    """Stands in for the ``json`` module inside ``splitroots.cli``."""

    def __init__(self, dumps) -> None:
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


def install(rec: Recorder, split_solver, cli=None) -> list[tuple[object, str, object]]:
    """Rebind the traced names; returns what :func:`restore` needs to undo it."""
    targets = [
        (split_solver, "depress_cubic", "poly_core.depress_cubic"),
        (split_solver, "depress_quartic", "poly_core.depress_quartic"),
        (split_solver, "solve_quadratic", "split_solver.solve_quadratic"),
        (split_solver, "solve_depressed_cubic", "split_solver.solve_depressed_cubic"),
        (split_solver, "solve_depressed_quartic", "split_solver.solve_depressed_quartic"),
    ]
    if cli is not None:
        targets += [
            (cli, "parse_polynomial_with_variable", "parser.parse_polynomial_with_variable"),
            (cli, "format_polynomial", "parser.format_polynomial"),
            (cli, "solve", SOLVE),
            (cli, "find_roots", "oracle.find_roots"),
            (cli, "max_pairing_distance", "oracle.max_pairing_distance"),
            (cli.OutputRecord, "to_dict", "cli.OutputRecord.to_dict"),
            (cli, "OutputRecord", "cli.OutputRecord"),
        ]
        if "json" not in cli.__dict__:
            raise BenchError("splitroots.cli has no global json to trace json.dumps through")
    missing = [name for owner, attr, name in targets if attr not in owner.__dict__]
    if missing:
        raise BenchError(f"traced names missing from the package: {missing}")
    saved = []
    for owner, attr, name in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original))
    if cli is not None:
        saved.append((cli, "json", cli.json))
        cli.json = _TracedJson(rec.wrap("cli.json.dumps", json.dumps))
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


LAYER_NAMES = (
    "parser.parse_ns",
    "parser.format_ns",
    "poly_core.depress_ns.deg3",
    "poly_core.depress_ns.deg4",
    "split_solver.inner_ns.deg2",
    "split_solver.inner_ns.deg3",
    "split_solver.inner_ns.deg4",
    "split_solver.finish_ns.deg2",
    "split_solver.finish_ns.deg3",
    "split_solver.finish_ns.deg4",
    "oracle.find_roots_ns.deg2",
    "oracle.find_roots_ns.deg3",
    "oracle.find_roots_ns.deg4",
    "oracle.pairing_ns",
    "cli.record_ns",
    "cli.other_ns_per_line",
)


# call_cost_ns times this many batches of this many calls.
_COST_BATCHES = 5
_COST_CALLS = 1000


def _noop(*args):
    return None


def call_cost_ns() -> float:
    """What one traced call adds to the time of the span around it, in scaled ns.

    A wrapped call costs its caller the wrapper frame and the bookkeeping of
    ``open`` and ``close`` outside the stamped start and end.  Measured as
    the wall time of wrapped no-op calls, minus that of plain no-op calls,
    minus the durations their spans recorded; the median over the batches.
    """
    clock = time.perf_counter_ns
    estimates = []
    for _ in range(_COST_BATCHES):
        rec = Recorder()
        traced = rec.wrap("child", _noop)
        rec.open("parent")
        before = calibration.loop_ns()
        t0 = clock()
        for _ in range(_COST_CALLS):
            traced(None)
        t1 = clock()
        for _ in range(_COST_CALLS):
            _noop(None)
        t2 = clock()
        after = calibration.loop_ns()
        rec.close()
        spans = sum(rec.end[1:]) - sum(rec.start[1:])
        raw = ((t1 - t0) - (t2 - t1) - spans) / _COST_CALLS
        estimates.append(raw * calibration.NOMINAL_NS * 2.0 / (before + after))
    return statistics.median(estimates)


def layer_times(rec: Recorder, degree_of, scale_of, call_cost: float) -> tuple[dict[str, float], set[str]]:
    """Median ns per call of each layer in ``rec``, and the layers that had spans.

    A layer with no spans reads 0.0.  ``degree_of(input)`` is the degree of
    an input, and ``scale_of(input)`` the calibration factor its span
    durations are multiplied by (see ``calibration.py``).  Every time has
    ``call_cost`` (see :func:`call_cost_ns`) taken off per traced call made
    inside it, so that it does not grow with the number of traced calls.
    Self times are a span's duration minus that of its direct children:
    ``split_solver.finish_ns`` is ``solve`` minus its depress and inner calls
    (the undepress and the polish against the original polynomial), and
    ``cli.other_ns_per_line`` is a CLI line minus every traced call in it.
    """
    n = len(rec.names)
    dur = [(e - s) * scale_of(k) for s, e, k in zip(rec.start, rec.end, rec.input)]
    child_time = [0.0] * n
    children = [0] * n
    descendants = [0] * n
    record_time = defaultdict(float)
    seen: set[str] = set()
    # Children always follow their parent, so walking backwards sees every
    # span's descendants counted before it is added to its own parent.
    for i in range(n - 1, -1, -1):
        p = rec.parent[i]
        if p >= 0:
            child_time[p] += dur[i]
            children[p] += 1
            descendants[p] += 1 + descendants[i]
            if rec.names[i] in _RECORD and rec.names[p] == LINE:
                record_time[p] += dur[i] - call_cost * descendants[i]
                seen.add("cli.record_ns")
    net = [d - call_cost * k for d, k in zip(dur, descendants)]
    own = [d - c - call_cost * k for d, c, k in zip(dur, child_time, children)]

    groups: dict[str, list[float]] = defaultdict(list)
    for i, name in enumerate(rec.names):
        p = rec.parent[i]
        parent_name = rec.names[p] if p >= 0 else None
        deg = degree_of(rec.input[i])
        if name == SOLVE:
            layer, value = f"split_solver.finish_ns.deg{deg}", own[i]
        elif parent_name == SOLVE and name in _DEPRESS:
            layer, value = f"poly_core.depress_ns.deg{deg}", net[i]
        elif parent_name == SOLVE and name in _INNER:
            layer, value = f"split_solver.inner_ns.deg{deg}", net[i]
        elif name == "parser.parse_polynomial_with_variable":
            layer, value = "parser.parse_ns", net[i]
        elif name == "parser.format_polynomial":
            layer, value = "parser.format_ns", net[i]
        elif name == "oracle.find_roots":
            layer, value = f"oracle.find_roots_ns.deg{deg}", net[i]
        elif name == "oracle.max_pairing_distance":
            layer, value = "oracle.pairing_ns", net[i]
        elif name == LINE:
            groups["cli.record_ns"].append(record_time[i])
            layer, value = "cli.other_ns_per_line", own[i]
        else:
            continue
        groups[layer].append(value)
        seen.add(layer)
    times = {name: float(statistics.median(groups[name])) if groups[name] else 0.0 for name in LAYER_NAMES}
    return times, seen
