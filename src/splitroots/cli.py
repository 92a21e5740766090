"""Command-line front end: solve, split-system, oracle, bench.

Exit codes: 0 success, 1 standard output closed by its reader (the rest of
the output is dropped without a traceback), 2 parse error (message plus
caret), 3 unsupported degree, 4 no finite result (the solver gave up on an
overflowing intermediate, or a ``--json`` record would hold a non-finite
number; nothing is printed for that input).  ``--json`` emits one strict
JSON output record per input (pretty-printed for a single expression, one
line per record when reading stdin).  In batch mode an input that fails
does not stop the lines after it; the first failure's code is returned.
``--tolerance`` only changes when a residual warning is printed; it never
changes solver internals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

from .oracle import OracleConfig, find_roots, max_pairing_distance
from .parser import ParseError, format_polynomial, parse_polynomial_with_variable
from .poly_core import (
    RealPolynomial,
    RootSet,
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


@dataclass
class RootRecord:
    re: float
    im: float
    residual: float
    branch_tag: str


@dataclass
class OutputRecord:
    """One solver/oracle run, as serialized by ``--json``."""

    polynomial: str
    method: str
    roots: list[RootRecord] = field(default_factory=list)
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        d: dict = {
            "polynomial": self.polynomial,
            "method": self.method,
            "roots": [
                {"re": r.re, "im": r.im, "residual": r.residual, "branch_tag": r.branch_tag}
                for r in self.roots
            ],
        }
        if self.diagnostics is not None:
            d["diagnostics"] = self.diagnostics
        return d

    @classmethod
    def from_dict(cls, d: dict) -> OutputRecord:
        return cls(
            polynomial=d["polynomial"],
            method=d["method"],
            roots=[RootRecord(**r) for r in d["roots"]],
            diagnostics=d.get("diagnostics"),
        )


def _fmt_num(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


def _fmt_root(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt_num(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_num(z.real)} {sign} {_fmt_num(abs(z.imag))}i"


def _ordered(rs: RootSet) -> list[tuple[complex, float, str]]:
    # Presentation order: descending by real part, then by imaginary part.
    rows = list(zip(rs.roots, rs.residuals, rs.branch_tags))
    rows.sort(key=lambda row: (-row[0].real, -row[0].imag))
    return rows


def _print_parse_error(text: str, err: ParseError) -> None:
    print(f"error: {err.message} (column {err.position})", file=sys.stderr)
    print(f"  {text}", file=sys.stderr)
    print("  " + " " * err.position + "^", file=sys.stderr)


def _residual_warnings(p: RealPolynomial, rs: RootSet, tolerance: float) -> None:
    scale = max(1.0, max(abs(c) for c in p.coefficients))
    # A non-finite residual (nan compares false) is over any threshold.
    offenders = [
        z
        for z, r in zip(rs.roots, rs.residuals)
        if not math.isfinite(r) or r > tolerance * scale * max(1.0, abs(z)) ** p.degree
    ]
    for z in offenders:
        print(
            f"warning: root {_fmt_root(z)} exceeds the residual threshold {tolerance}",
            file=sys.stderr,
        )


def _emit(record: OutputRecord, as_json: bool, batch: bool, text_lines: list[str]) -> int:
    if not as_json:
        print("\n".join(text_lines))
        return _EXIT_OK
    try:
        # Strict JSON has no NaN or Infinity; a record holding one is not printed.
        text = json.dumps(record.to_dict(), indent=None if batch else 2, allow_nan=False)
    except ValueError:
        print(
            f"error: the record for {record.polynomial} holds a non-finite number, "
            "which JSON cannot represent",
            file=sys.stderr,
        )
        return _EXIT_NOT_FINITE
    print(text)
    return _EXIT_OK


def _split_residual_diagnostics(p: RealPolynomial, rows) -> list[dict] | None:
    """Per-root residual of the split system matching p's degree."""
    degree = p.degree
    monic = p.monic().coefficients
    out = []
    if degree == 2:
        a, b = monic[1], monic[0]
        for z, _, _ in rows:
            sr = quadratic_split_residual(a, b, z.real, z.imag)
            out.append({"system": "S1", "real_part": sr.real_part, "imag_part": sr.imag_part})
    elif degree == 3:
        dc = depress_cubic(p)
        for z, _, _ in rows:
            w = z + dc.shift
            x, y = omega_decompose(w)
            sr = cubic_omega_split_residual(dc.a, dc.b, x, y)
            out.append({"system": "S3", "real_part": sr.real_part, "imag_part": sr.imag_part})
    elif degree == 4:
        dq = depress_quartic(p)
        for z, _, _ in rows:
            w = z + dq.shift
            sr = quartic_split_residual(dq.a, dq.b, dq.c, w.real, w.imag)
            out.append({"system": "S4", "real_part": sr.real_part, "imag_part": sr.imag_part})
    else:
        return None
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _solve_one(text: str, args, batch: bool) -> int:
    try:
        p, variable = parse_polynomial_with_variable(text)
    except ParseError as err:
        _print_parse_error(text, err)
        return _EXIT_PARSE
    try:
        rs = solve(p)
    except UnsupportedDegreeError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_DEGREE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_NOT_FINITE

    rows = _ordered(rs)
    echo = format_polynomial(p, variable)
    lines = [f"polynomial: {echo}", "method: split-closed-form", "roots:"]
    for z, residual, tag in rows:
        lines.append(f"  {_fmt_root(z)}  (residual {residual:.3e}, branch {tag})")

    diagnostics: dict = {}
    if args.show_depressed and p.degree in (3, 4):
        if p.degree == 3:
            dc = depress_cubic(p)
            dep = {"a": dc.a, "b": dc.b, "shift": dc.shift}
            lines.append(
                f"depressed: a = {_fmt_num(dc.a)}, b = {_fmt_num(dc.b)}, "
                f"shift = {_fmt_num(dc.shift)}"
            )
        else:
            dq = depress_quartic(p)
            dep = {"a": dq.a, "b": dq.b, "c": dq.c, "shift": dq.shift}
            lines.append(
                f"depressed: a = {_fmt_num(dq.a)}, b = {_fmt_num(dq.b)}, "
                f"c = {_fmt_num(dq.c)}, shift = {_fmt_num(dq.shift)}"
            )
            resolvent = quartic_resolvent_coefficients(dq.a, dq.b, dq.c)
            diagnostics["resolvent_coefficients"] = list(resolvent)
            lines.append("resolvent: " + ", ".join(_fmt_num(c) for c in resolvent))
        diagnostics["depressed_coefficients"] = dep
        split_residuals = _split_residual_diagnostics(p, rows)
        if split_residuals is not None:
            diagnostics["split_residuals"] = split_residuals
    if args.oracle:
        orc = find_roots(p)
        distance = max_pairing_distance(rs.roots, orc.roots)
        diagnostics["oracle_max_pairing_distance"] = distance
        lines.append(f"oracle max pairing distance: {distance:.3e}")

    record = OutputRecord(
        polynomial=echo,
        method="split-closed-form",
        roots=[RootRecord(z.real, z.imag, residual, tag) for z, residual, tag in rows],
        diagnostics=diagnostics or None,
    )
    code = _emit(record, args.json, batch, lines)
    if code == _EXIT_OK:
        _residual_warnings(p, rs, args.tolerance)
    return code


def cmd_solve(args) -> int:
    if args.expr is not None:
        return _solve_one(args.expr, args, batch=False)
    return _run_batch(args, _solve_one)


def _oracle_one(text: str, args, batch: bool) -> int:
    try:
        p, variable = parse_polynomial_with_variable(text)
    except ParseError as err:
        _print_parse_error(text, err)
        return _EXIT_PARSE

    result = find_roots(p, OracleConfig())
    rs = RootSet(
        roots=result.roots,
        residuals=tuple(abs(evaluate(p, z)) for z in result.roots),
        branch_tags=tuple("oracle" for _ in result.roots),
    )
    rows = _ordered(rs)
    echo = format_polynomial(p, variable)
    lines = [
        f"polynomial: {echo}",
        "method: oracle",
        f"converged: {'true' if result.converged else 'false'}",
        f"iterations: {result.iterations_used}",
        "roots:",
    ]
    for z, residual, tag in rows:
        lines.append(f"  {_fmt_root(z)}  (residual {residual:.3e}, branch {tag})")
    record = OutputRecord(
        polynomial=echo,
        method="oracle",
        roots=[RootRecord(z.real, z.imag, residual, tag) for z, residual, tag in rows],
        diagnostics={
            "converged": result.converged,
            "iterations_used": result.iterations_used,
            "cluster_radii": list(result.cluster_radii),
        },
    )
    code = _emit(record, args.json, batch, lines)
    if code == _EXIT_OK:
        _residual_warnings(p, rs, args.tolerance)
    return code


def cmd_oracle(args) -> int:
    if args.expr is not None:
        return _oracle_one(args.expr, args, batch=False)
    return _run_batch(args, _oracle_one)


def _run_batch(args, one) -> int:
    exit_code = _EXIT_OK
    pending_separator = False
    for line in sys.stdin:
        text = line.strip()
        if not text:
            continue
        if pending_separator and not args.json:
            print()
            pending_separator = False
        code = one(text, args, batch=True)
        if code == _EXIT_OK:
            pending_separator = not args.json
        elif exit_code == _EXIT_OK:
            exit_code = code
    return exit_code


def cmd_split_system(args) -> int:
    text = args.expr
    try:
        p, variable = parse_polynomial_with_variable(text)
    except ParseError as err:
        _print_parse_error(text, err)
        return _EXIT_PARSE

    degree = p.degree
    if degree >= 5:
        print(f"error: {UnsupportedDegreeError(degree)}", file=sys.stderr)
        return _EXIT_DEGREE
    if degree < 2:
        print(
            f"error: split systems are defined for degrees 2-4, got degree {degree}",
            file=sys.stderr,
        )
        return _EXIT_PARSE
    if (args.x is None) != (args.y is None):
        print("error: --x and --y must be given together", file=sys.stderr)
        return _EXIT_PARSE

    monic = p.monic().coefficients
    echo = format_polynomial(p, variable)
    lines = [f"polynomial: {echo}"]
    diagnostics: dict = {}

    shift = 0.0
    if degree == 2:
        a, b = monic[1], monic[0]
    elif degree == 3:
        if monic[2] != 0.0:
            if not args.auto_depress:
                print(
                    "error: polynomial is not depressed (nonzero quadratic term); "
                    "rerun with --auto-depress",
                    file=sys.stderr,
                )
                return _EXIT_PARSE
            dc = depress_cubic(p)
            a, b, shift = dc.a, dc.b, dc.shift
            lines.append(
                f"auto-depressed: a = {_fmt_num(a)}, b = {_fmt_num(b)}, "
                f"shift = {_fmt_num(shift)}"
            )
            diagnostics["depressed_coefficients"] = {"a": a, "b": b, "shift": shift}
        else:
            a, b = monic[1], monic[0]
    else:
        if monic[3] != 0.0:
            if not args.auto_depress:
                print(
                    "error: polynomial is not depressed (nonzero cubic term); "
                    "rerun with --auto-depress",
                    file=sys.stderr,
                )
                return _EXIT_PARSE
            dq = depress_quartic(p)
            a, b, c, shift = dq.a, dq.b, dq.c, dq.shift
            lines.append(
                f"auto-depressed: a = {_fmt_num(a)}, b = {_fmt_num(b)}, "
                f"c = {_fmt_num(c)}, shift = {_fmt_num(shift)}"
            )
            diagnostics["depressed_coefficients"] = {"a": a, "b": b, "c": c, "shift": shift}
        else:
            a, b, c = monic[2], monic[1], monic[0]

    split_residuals: list[dict] = []
    if args.x is not None:
        x, y = args.x, args.y
        lines.append(f"at: x = {_fmt_num(x)}, y = {_fmt_num(y)}")
        if degree == 2:
            sr = quadratic_split_residual(a, b, x, y)
            lines += [
                "system S1 (z = x + iy):",
                f"  real part: {_fmt_num(sr.real_part)}",
                f"  imag part: {_fmt_num(sr.imag_part)}",
            ]
            split_residuals.append(
                {"system": "S1", "real_part": sr.real_part, "imag_part": sr.imag_part}
            )
        elif degree == 3:
            naive = cubic_naive_split_residual(a, b, x, y)
            omega = cubic_omega_split_residual(a, b, x, y)
            lines += [
                "system S2 (naive, z = x + iy):",
                f"  real part: {_fmt_num(naive.real_part)}",
                f"  imag part: {_fmt_num(naive.imag_part)}",
                f"  {_S2_NOTE}",
                "system S3 (z = x + omega*y, omega = (1 + i*sqrt(3))/2):",
                f"  real part: {_fmt_num(omega.real_part)}",
                f"  imag part: {_fmt_num(omega.imag_part)}",
            ]
            split_residuals.append(
                {"system": "S2", "real_part": naive.real_part, "imag_part": naive.imag_part}
            )
            split_residuals.append(
                {"system": "S3", "real_part": omega.real_part, "imag_part": omega.imag_part}
            )
        else:
            sr = quartic_split_residual(a, b, c, x, y)
            lines += [
                "system S4 (z = x + iy):",
                f"  real part: {_fmt_num(sr.real_part)}",
                f"  imag part: {_fmt_num(sr.imag_part)}",
            ]
            split_residuals.append(
                {"system": "S4", "real_part": sr.real_part, "imag_part": sr.imag_part}
            )

    if args.reduce:
        if degree == 3:
            red = naive_cubic_reduction(a, b)
            lines.append(
                f"naive reduction (c3, c1, c0): {_fmt_num(red.c3)}, "
                f"{_fmt_num(red.c1)}, {_fmt_num(red.c0)}"
            )
            diagnostics["naive_reduction"] = [red.c3, red.c1, red.c0]
        elif degree == 4:
            resolvent = quartic_resolvent_coefficients(a, b, c)
            lines.append("resolvent: " + ", ".join(_fmt_num(v) for v in resolvent))
            diagnostics["resolvent_coefficients"] = list(resolvent)

    if split_residuals:
        diagnostics["split_residuals"] = split_residuals

    record = OutputRecord(
        polynomial=echo,
        method="split-closed-form",
        roots=[],
        diagnostics=diagnostics or None,
    )
    return _emit(record, args.json, batch=False, text_lines=lines)


def cmd_bench(args) -> int:
    degrees = [args.degree] if args.degree else [2, 3, 4]
    rows = []
    for degree in degrees:
        rng = random.Random(f"{args.seed}-{degree}")
        polys = [
            RealPolynomial(tuple(rng.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,))
            for _ in range(args.n)
        ]
        for method, runner in (("split-closed-form", solve), ("oracle", find_roots)):
            times = []
            max_residual = 0.0
            for p in polys:
                t0 = time.perf_counter_ns()
                result = runner(p)
                elapsed = time.perf_counter_ns() - t0
                times.append(elapsed)
                roots = result.roots
                residual = max(abs(evaluate(p, z)) for z in roots)
                if residual > max_residual:
                    max_residual = residual
            rows.append(
                {
                    "degree": degree,
                    "method": method,
                    "n": args.n,
                    "median_ns_per_solve": statistics.median(times),
                    "max_residual": max_residual,
                }
            )
    if args.json:
        print(json.dumps({"seed": args.seed, "n": args.n, "rows": rows}, indent=2))
    else:
        print(f"{'degree':<8}{'method':<20}{'n':<8}{'median ns/solve':<18}max residual")
        for row in rows:
            print(
                f"{row['degree']:<8}{row['method']:<20}{row['n']:<8}"
                f"{row['median_ns_per_solve']:<18.0f}{row['max_residual']:.3e}"
            )
    return _EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitroots",
        description="Closed-form roots of degree 2-4 real polynomials via "
        "real/imaginary splitting, with an independent iterative oracle.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON output record")
    common.add_argument(
        "--tolerance",
        type=float,
        default=1e-8,
        metavar="T",
        help="residual-report threshold (warnings only; default 1e-8)",
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
    p_solve.set_defaults(func=cmd_solve)

    p_split = sub.add_parser(
        "split-system",
        parents=[common],
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
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser(
        "bench",
        parents=[common],
        help="micro-benchmark closed-form solve against the oracle",
    )
    p_bench.add_argument("--n", type=int, default=10000, help="polynomials per degree")
    p_bench.add_argument(
        "--degree", type=int, choices=(2, 3, 4), default=None, help="restrict to one degree"
    )
    p_bench.add_argument("--seed", type=int, default=20240901, help="RNG seed")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
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
