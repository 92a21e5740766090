"""Command-line front end: solve, split-system, oracle, bench.

Exit codes: 0 success, 1 standard output closed by its reader (the rest of
the output is dropped without a traceback), 2 parse error (message plus
caret), 3 unsupported degree, 4 no finite result (the solver or the oracle
gave up on an overflowing intermediate, or the result holds an inf or nan;
nothing is printed for that input).  Each input's result is one output record;
``--json`` prints it as strict JSON (pretty-printed for a single expression,
one line per record when reading stdin) instead of as text, and never
changes the exit code.  In batch mode an input that fails does not stop the
lines after it; its error reads ``error: line N: ...``, N the 1-based stdin
line (blank lines counted), and the first failure's code is returned.  A
residual warning there reads ``warning: line N: ...`` likewise.
``--tolerance`` only changes when a residual warning is printed; it never
changes solver internals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import splitroots

from .parser import ParseError, format_polynomial, parse_polynomial_with_variable
from .poly_core import (
    RealPolynomial,
    RootSet,
    _Record,
    depress_cubic,
    depress_quartic,
    evaluate,
)
from .split_solver import (
    UnsupportedDegreeError,
    cubic_naive_split_residual,
    cubic_omega_split_residual,
    naive_cubic_reduction,
    omega_decompose,
    quadratic_split_residual,
    quartic_resolvent_coefficients,
    quartic_split_residual,
    solve,
)

_EXIT_OK = 0
_EXIT_BROKEN_PIPE = 1
_EXIT_PARSE = 2
_EXIT_DEGREE = 3
_EXIT_NOT_FINITE = 4

_S2_NOTE = (
    "note: the imaginary equation is printed as y^3 - 3x^2y - ay, the negation "
    "of Im(p(x+iy)); both vanish at the same points"
)


class _Refused(Exception):
    """An input the CLI refuses: ``str()`` is its stderr text, ``code`` its exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"error: {message}")
        self.code, self.message = code, message


class _System(NamedTuple):
    """A split system, evaluated as ``residual(*coefficients, x, y)``."""

    name: str
    ansatz: str
    residual: Callable[..., tuple[float, float]]
    # root -> (x, y); the default is the split over omega = i
    decompose: Callable[[complex], tuple[float, float]] = lambda w: (w.real, w.imag)
    note: str | None = None


class _Reduction(NamedTuple):
    label: str
    key: str
    compute: Callable[..., tuple[float, ...]]


class _Degree(NamedTuple):
    depress: Callable | None
    removed_term: str | None
    systems: tuple[_System, ...]  # print order; the solver's own system is last
    reduction: _Reduction | None


# Per-degree facts of the split: coefficients are the depressed (or, for a
# quadratic, monic) ones, highest power first without the leading 1.
_DEGREES = {
    2: _Degree(None, None, (_System("S1", "z = x + iy", quadratic_split_residual),), None),
    3: _Degree(
        depress_cubic,
        "quadratic",
        (
            _System("S2", "naive, z = x + iy", cubic_naive_split_residual, note=_S2_NOTE),
            _System(
                "S3",
                "z = x + omega*y, omega = (1 + i*sqrt(3))/2",
                cubic_omega_split_residual,
                omega_decompose,
            ),
        ),
        _Reduction("naive reduction (c3, c1, c0)", "naive_reduction", naive_cubic_reduction),
    ),
    4: _Degree(
        depress_quartic,
        "cubic",
        (_System("S4", "z = x + iy", quartic_split_residual),),
        _Reduction("resolvent", "resolvent_coefficients", quartic_resolvent_coefficients),
    ),
}


class _MutableRecord(_Record):
    """A record whose fields can be reassigned; unhashable, like a mutable dataclass."""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class RootRecord(_MutableRecord):
    _fields = ("re", "im", "residual", "branch_tag")

    def __init__(self, re: float, im: float, residual: float, branch_tag: str) -> None:
        self.re, self.im, self.residual, self.branch_tag = re, im, residual, branch_tag


class OutputRecord(_MutableRecord):
    """One solver/oracle run, as serialized by ``--json``."""

    _fields = ("polynomial", "method", "roots", "diagnostics")

    def __init__(
        self,
        polynomial: str,
        method: str,
        roots: list[RootRecord] | None = None,
        diagnostics: dict | None = None,
    ) -> None:
        self.polynomial = polynomial
        self.method = method
        self.roots = [] if roots is None else roots
        self.diagnostics = diagnostics

    def to_dict(self) -> dict:
        # complex(re, im) gives back float fields exactly.
        roots = [(complex(r.re, r.im), r.residual, r.branch_tag) for r in self.roots]
        return _record_dict(self.polynomial, self.method, roots, self.diagnostics)

    @classmethod
    def from_dict(cls, d: dict) -> OutputRecord:
        return cls(
            polynomial=d["polynomial"],
            method=d["method"],
            roots=[RootRecord(**r) for r in d["roots"]],
            diagnostics=d.get("diagnostics"),
        )


def _record_dict(polynomial: str, method: str, roots, diagnostics: dict | None) -> dict:
    """The ``--json`` output record; ``roots`` holds ``(root, residual, branch_tag)`` rows.

    The one place the record layout is written down: :meth:`OutputRecord.to_dict`
    and the CLI's own records both come from here.
    """
    record = {
        "polynomial": polynomial,
        "method": method,
        "roots": [
            {"re": z.real, "im": z.imag, "residual": residual, "branch_tag": tag}
            for z, residual, tag in roots
        ],
    }
    if diagnostics is not None:
        record["diagnostics"] = diagnostics
    return record


def _fmt_num(v: float) -> str:
    # From 1e16 up, repr switches to exponent form; the integer form stops there too.
    return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)


def _fmt_root(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt_num(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_num(z.real)} {sign} {_fmt_num(abs(z.imag))}i"


def _presentation_key(row) -> tuple[float, float]:
    return -row[0].real, -row[0].imag  # descending by real part, then imaginary part


def _ordered(rs: RootSet) -> list[tuple[complex, float, str]]:
    return sorted(zip(rs.roots, rs.residuals, rs.branch_tags), key=_presentation_key)


def _parse(text: str):
    """``(polynomial, variable)``; a parse error is refused with its message and a caret."""
    try:
        return parse_polynomial_with_variable(text)
    except ParseError as err:
        message = f"{err.message} (column {err.position})\n  {text}\n  " + " " * err.position + "^"
        raise _Refused(_EXIT_PARSE, message) from None


def _residual_warnings(p: RealPolynomial, rs: RootSet, tolerance: float, line: int | None) -> None:
    """Warn on each root whose residual is over its threshold, naming stdin ``line`` if given.

    Runs only after :func:`_emit` has strictly encoded the record, so every
    root and residual is finite.
    """
    residuals = rs.residuals
    if max(residuals) <= tolerance:  # each root's threshold is at least tolerance
        return
    bound = tolerance * max(1.0, max(map(abs, p.coefficients)))
    degree = p.degree
    where = "" if line is None else f"line {line}: "
    for z, r in zip(rs.roots, residuals):
        try:
            over = r > bound * max(1.0, abs(z)) ** degree
        except OverflowError:  # |z|^degree past the float range counts as inf, 0 * inf as 0
            over = not bound and r > 0.0
        if over:
            print(
                f"warning: {where}root {_fmt_root(z)} exceeds the residual threshold {tolerance}",
                file=sys.stderr,
            )


def _emit(record: dict, text: Callable[[dict], list[str]], args, line: int | None) -> None:
    """Print ``record`` as JSON under ``--json``, else as the lines ``text(record)``.

    The JSON for stdin ``line`` takes one line; without one it is indented.
    Either way the record is encoded once as strict JSON first.  Strict JSON
    has no NaN or Infinity, so a record holding one is refused in both modes
    with exit code 4, and nothing is printed for it.
    """
    try:
        # The record is a tree of fresh dicts and lists, so the encoder's
        # cycle check has nothing to find.
        out = json.dumps(record, indent=None if line else 2, allow_nan=False, check_circular=False)
    except ValueError:
        message = f"the result for {record['polynomial']} holds a non-finite number (inf or nan)"
        raise _Refused(_EXIT_NOT_FINITE, message) from None
    if not args.json:
        out = "\n".join(text(record))
    # One write per record: print would write the newline separately, and an
    # unbuffered stdout makes every write a system call.
    sys.stdout.write(out + "\n")


def _fmt_fields(values: dict) -> str:
    return ", ".join([f"{k} = {_fmt_num(v)}" for k, v in values.items()])


def _fmt_reduction(reduction: _Reduction, values: list[float]) -> str:
    return f"{reduction.label}: " + ", ".join(_fmt_num(v) for v in values)


def _roots_text(record: dict) -> list[str]:
    """The text lines of a ``solve`` or ``oracle`` record."""
    diagnostics = record.get("diagnostics", {})
    lines = [f"polynomial: {record['polynomial']}", f"method: {record['method']}"]
    if "converged" in diagnostics:
        lines.append(f"converged: {'true' if diagnostics['converged'] else 'false'}")
        lines.append(f"iterations: {diagnostics['iterations_used']}")
    lines.append("roots:")
    for r in record["roots"]:
        root = _fmt_root(complex(r["re"], r["im"]))
        lines.append(f"  {root}  (residual {r['residual']:.3e}, branch {r['branch_tag']})")
    if "depressed_coefficients" in diagnostics:
        lines.append("depressed: " + _fmt_fields(diagnostics["depressed_coefficients"]))
    resolvent = _DEGREES[4].reduction  # the one reduction solve reports
    if resolvent.key in diagnostics:
        lines.append(_fmt_reduction(resolvent, diagnostics[resolvent.key]))
    if "oracle_max_pairing_distance" in diagnostics:
        lines.append(f"oracle max pairing distance: {diagnostics['oracle_max_pairing_distance']:.3e}")
    return lines


def _report(p, variable, method, rs, rows, diagnostics, args, line) -> None:
    """Emit one input's record, its roots in ``rows`` order, then warn on residuals."""
    record = _record_dict(format_polynomial(p, variable), method, rows, diagnostics or None)
    _emit(record, _roots_text, args, line)
    _residual_warnings(p, rs, args.tolerance, line)


# The oracle loads on first use, through the package's lazy ``oracle``
# attribute, so a run that never consults it does not load it.  Callers look
# these two names up as module globals at call time; nothing here rebinds them.
def find_roots(p: RealPolynomial):
    """The oracle's result for ``p``; where the oracle overflows, ``p`` is refused with exit 4."""
    try:
        return splitroots.oracle.find_roots(p)
    except (ValueError, OverflowError) as err:
        raise _Refused(_EXIT_NOT_FINITE, f"oracle: {err}") from None


def max_pairing_distance(computed, reference) -> float:
    """:func:`splitroots.oracle.max_pairing_distance`."""
    return splitroots.oracle.max_pairing_distance(computed, reference)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _solve_one(text: str, args, line: int | None) -> None:
    p, variable = _parse(text)
    try:
        rs = solve(p)
    except (ValueError, OverflowError) as err:  # UnsupportedDegreeError included
        code = _EXIT_DEGREE if isinstance(err, UnsupportedDegreeError) else _EXIT_NOT_FINITE
        raise _Refused(code, str(err)) from None

    rows = _ordered(rs)
    diagnostics: dict = {}
    spec = _DEGREES.get(p.degree) if args.show_depressed else None
    if spec is not None and spec.depress is not None:
        dep = vars(spec.depress(p))  # a fresh record's fields, in order
        *coeffs, shift = dep.values()
        if p.degree == 4:
            diagnostics[spec.reduction.key] = list(spec.reduction.compute(*coeffs))
        diagnostics["depressed_coefficients"] = dep
        system = spec.systems[-1]
        name, residual, decompose = system.name, system.residual, system.decompose
        entries = diagnostics["split_residuals"] = []
        for z, _, _ in rows:
            real, imag = residual(*coeffs, *decompose(z + shift))
            entries.append({"system": name, "real_part": real, "imag_part": imag})
    # A non-finite residual is refused by _emit; the oracle's own refusal must not come first.
    if args.oracle and all(map(math.isfinite, rs.residuals)):
        result = find_roots(p)
        diagnostics["oracle_max_pairing_distance"] = max_pairing_distance(rs.roots, result.roots)
    _report(p, variable, "split-closed-form", rs, rows, diagnostics, args, line)


def _oracle_one(text: str, args, line: int | None) -> None:
    p, variable = _parse(text)
    result = find_roots(p)
    residuals = []
    for z in result.roots:
        try:
            residuals.append(abs(evaluate(p, z)))
        except OverflowError:  # |p(z)| past the float range: _emit refuses the record
            residuals.append(math.inf)
    rs = RootSet(
        roots=result.roots,
        residuals=tuple(residuals),
        branch_tags=tuple("oracle" for _ in result.roots),
    )
    diagnostics = {
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "cluster_radii": list(result.cluster_radii),
    }
    _report(p, variable, "oracle", rs, _ordered(rs), diagnostics, args, line)


def _run(args) -> int:
    """``args.one`` on the expression argument, or on each nonblank stdin line; reports refusals."""
    if args.expr is not None:
        args.one(args.expr, args, None)
        return _EXIT_OK
    exit_code = _EXIT_OK
    pending_separator = False
    for number, line in enumerate(sys.stdin, 1):
        text = line.strip()
        if not text:
            continue
        if pending_separator:
            print()
            pending_separator = False
        try:
            args.one(text, args, number)
        except _Refused as err:
            print(f"error: line {number}: {err.message}", file=sys.stderr)
            exit_code = exit_code or err.code
        else:
            pending_separator = not args.json
    return exit_code


def cmd_split_system(args) -> int:
    p, variable = _parse(args.expr)
    degree = p.degree
    if degree >= 5:
        raise _Refused(_EXIT_DEGREE, str(UnsupportedDegreeError(degree)))
    if degree < 2:
        message = f"split systems are defined for degrees 2-4, got degree {degree}"
        raise _Refused(_EXIT_PARSE, message)
    if (args.x is None) != (args.y is None):
        raise _Refused(_EXIT_PARSE, "--x and --y must be given together")

    spec = _DEGREES[degree]
    try:
        monic = p.monic().coefficients
    except ValueError as err:  # the monic form overflows
        raise _Refused(_EXIT_NOT_FINITE, str(err)) from None
    echo = format_polynomial(p, variable)
    lines = [f"polynomial: {echo}"]
    diagnostics: dict = {}

    if spec.depress is None or monic[-2] == 0.0:
        # Highest power first, without the leading 1 and the term depression removes.
        coeffs = monic[-3 if spec.depress else -2 :: -1]
    elif args.auto_depress:
        dep = dict(vars(spec.depress(p)))
        *coeffs, _ = dep.values()
        lines.append("auto-depressed: " + _fmt_fields(dep))
        diagnostics["depressed_coefficients"] = dep
    else:
        message = f"polynomial is not depressed (nonzero {spec.removed_term} term)"
        raise _Refused(_EXIT_PARSE, message + "; rerun with --auto-depress")

    split_residuals: list[dict] = []
    if args.x is not None:
        lines.append(f"at: x = {_fmt_num(args.x)}, y = {_fmt_num(args.y)}")
        for system in spec.systems:
            real, imag = system.residual(*coeffs, args.x, args.y)
            lines += [
                f"system {system.name} ({system.ansatz}):",
                f"  real part: {_fmt_num(real)}",
                f"  imag part: {_fmt_num(imag)}",
            ]
            if system.note:
                lines.append(f"  {system.note}")
            split_residuals.append({"system": system.name, "real_part": real, "imag_part": imag})

    if args.reduce and spec.reduction is not None:
        values = diagnostics[spec.reduction.key] = list(spec.reduction.compute(*coeffs))
        lines.append(_fmt_reduction(spec.reduction, values))

    if split_residuals:
        diagnostics["split_residuals"] = split_residuals

    record = _record_dict(echo, "split-closed-form", [], diagnostics or None)
    _emit(record, lambda _: lines, args, None)
    return _EXIT_OK


def cmd_bench(args) -> int:
    """Median ``solve()`` time per degree 2-4, each over ``--n`` random monic polynomials."""
    import random
    import statistics

    rows = []
    for degree in (2, 3, 4):
        rng = random.Random(f"{args.seed}-{degree}")
        polys = [
            RealPolynomial(tuple(rng.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,))
            for _ in range(args.n)
        ]
        times = []
        for p in polys:
            t0 = time.perf_counter_ns()
            solve(p)
            times.append(time.perf_counter_ns() - t0)
        median = statistics.median(times)
        rows.append(
            {"degree": degree, "method": "split-closed-form", "n": args.n, "median_ns_per_solve": median}
        )
    if args.json:
        print(json.dumps({"seed": args.seed, "n": args.n, "rows": rows}, indent=2))
    else:
        print(f"{'degree':<8}{'method':<20}{'n':<8}median ns/solve")
        for row in rows:
            print(f"{row['degree']:<8}{row['method']:<20}{row['n']:<8}{row['median_ns_per_solve']:.0f}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # argparse reports a ValueError from these as "invalid <name> value", exit 2.
    def positive_int(text: str) -> int:
        if int(text) < 1:
            raise ValueError(text)
        return int(text)

    def nonnegative_float(text: str) -> float:
        if not float(text) >= 0.0:  # nan compares false
            raise ValueError(text)
        return float(text)

    parser = argparse.ArgumentParser(
        prog="splitroots",
        description="Closed-form roots of degree 2-4 real polynomials via "
        "real/imaginary splitting, with an independent iterative oracle.",
    )
    json_only = argparse.ArgumentParser(add_help=False)
    json_only.add_argument("--json", action="store_true", help="emit a JSON output record")
    common = argparse.ArgumentParser(add_help=False, parents=[json_only])
    common.add_argument(
        "--tolerance",
        type=nonnegative_float,
        default=1e-8,
        metavar="T",
        help="residual-report threshold, a number >= 0, not nan (warnings only; default 1e-8)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve",
        parents=[common],
        help="solve one expression (or one per stdin line if omitted)",
    )
    p_solve.add_argument("expr", nargs="?", help="polynomial expression, e.g. 'z^3 - 7z + 6'")
    p_solve.add_argument(
        "--show-depressed",
        action="store_true",
        help="print the depressed coefficients and shift (degrees 3-4)",
    )
    p_solve.add_argument(
        "--oracle",
        action="store_true",
        help="also run the iterative oracle and report the max pairing distance",
    )
    p_solve.set_defaults(func=_run, one=_solve_one)

    p_split = sub.add_parser(
        "split-system",
        parents=[json_only],
        help="evaluate split-system residuals at a point (x, y)",
    )
    p_split.add_argument("expr", help="polynomial expression")
    p_split.add_argument("--x", type=float, default=None, help="x of the split point")
    p_split.add_argument("--y", type=float, default=None, help="y of the split point")
    p_split.add_argument(
        "--auto-depress",
        action="store_true",
        help="depress degree 3-4 input first instead of rejecting it",
    )
    p_split.add_argument(
        "--reduce",
        action="store_true",
        help="print the naive reduction (cubics) or resolvent coefficients (quartics)",
    )
    p_split.set_defaults(func=cmd_split_system)

    p_oracle = sub.add_parser(
        "oracle",
        parents=[common],
        help="find roots with the iterative oracle only",
    )
    p_oracle.add_argument("expr", nargs="?", help="polynomial expression")
    p_oracle.set_defaults(func=_run, one=_oracle_one)

    p_bench = sub.add_parser(
        "bench",
        parents=[json_only],
        help="median closed-form solve time per degree 2-4 on random monic polynomials",
    )
    p_bench.add_argument(
        "--n", type=positive_int, default=10000, help="polynomials per degree, at least 1"
    )
    p_bench.add_argument("--seed", type=int, default=20240901, help="RNG seed")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except _Refused as err:  # a single expression; _run reports a stdin line's
            print(err, file=sys.stderr)
            code = err.code
        sys.stdout.flush()  # a closed reader must show up here, not at exit
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Python flushes stdout again
        # at exit; point it at devnull so that flush cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
