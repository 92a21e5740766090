"""Run the splitroots CLI over stdin, timing each input line.

Usage: python cli_entry.py TIMES SPANS CLI_ARG...

Imports ``splitroots.cli`` and returns ``main(CLI_ARG...)``, which is what
``python -m splitroots.cli CLI_ARG...`` runs.  The CLI reads its batch input
by iterating ``sys.stdin``; each line is timed from when the CLI takes it to
when it asks for the next one, so a line's time covers its parse, solve and
emit.  Before every ``calibration.EVERY`` lines, between two line timings,
the calibration loop is timed.  TIMES receives a JSON object with the line
times (``line_ns``), the calibration times (``cal_ns``) and the process's
peak resident memory (``peak_rss_mb``).  If SPANS is not ``-``, spans are
also recorded around the calls into each layer (see ``spans.py``) and
written to SPANS as CSV when the CLI returns, and TIMES also gets the cost
of one traced call (``call_cost_ns``), measured before the CLI starts.
"""

from __future__ import annotations

import json
import sys
import time

import calibration
from spans import LINE, Recorder, call_cost_ns, install


class ClockedLines:
    """Iterates like the wrapped stream, timing what happens between requests."""

    def __init__(self, stream, rec: Recorder | None) -> None:
        self._stream = stream
        self._rec = rec
        self.line_ns: list[int] = []
        self.cal_ns: list[int] = []

    def _end_line(self, start: int | None) -> None:
        if start is not None:
            self.line_ns.append(time.perf_counter_ns() - start)
            if self._rec is not None:
                self._rec.close()

    def __iter__(self):
        start = None
        for k, line in enumerate(self._stream):
            self._end_line(start)
            if k % calibration.EVERY == 0:
                self.cal_ns.append(calibration.loop_ns())
            if self._rec is not None:
                self._rec.open(LINE)
            start = time.perf_counter_ns()
            yield line
        self._end_line(start)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def peak_rss_mb() -> float:
    """High-water resident memory of this process image (Linux VmHWM).

    ``getrusage`` is not used: its ``ru_maxrss`` also counts the memory of the
    parent that forked this process, before ``exec``.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    times_path, spans_path, *cli_args = sys.argv[1:]
    from splitroots import cli, split_solver

    rec = None if spans_path == "-" else Recorder()
    calibration.loop_ns()  # the first run of the loop is slower; do it untimed
    times = {}
    if rec is not None:
        install(rec, split_solver, cli)
        times["call_cost_ns"] = call_cost_ns()
    lines = sys.stdin = ClockedLines(sys.stdin, rec)
    code = cli.main(cli_args)
    sys.stdout.flush()
    times.update(line_ns=lines.line_ns, cal_ns=lines.cal_ns, peak_rss_mb=peak_rss_mb())
    with open(times_path, "w") as f:
        json.dump(times, f)
    if rec is not None:
        rec.write_csv(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
