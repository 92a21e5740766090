"""Output checks, run outside the timed region, and the counts they yield.

Two kinds of check:

* integrity: the right number of roots, every root and residual finite, each
  residual equal to ``|evaluate(p, z)|``, and for the CLI a clean exit, strict
  JSON and roots equal to the library's.  A failure here means the run
  measured something broken, and the result is reported as not correct.
* accuracy: the README residual bound and the oracle cross-check at the
  tolerance of acceptance criterion 1.  A miss here is a property of the
  program on that input; it counts towards ``failed`` but leaves the run
  correct, so that known misses stay visible instead of stopping the run.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from splitroots import evaluate, find_roots, max_pairing_distance
from splitroots.poly_core import depress_cubic, depress_quartic
from splitroots.parser import parse_polynomial_with_variable

README_TOLERANCE = 1e-8

# Branch-tag families, by tag prefix.  A tag matching none counts as "other".
BRANCH_FAMILIES = (
    ("trivial-imaginary-branch", "quadratic.real"),
    ("conjugate-branch", "quadratic.conjugate"),
    ("omega-branch-", "cubic.omega"),  # completed with the ":+" / ":-" suffix
    ("cube-root-", "cubic.cube_root"),
    ("near-origin-degenerate", "cubic.near_origin"),
    ("triple-zero", "cubic.triple_zero"),
    ("biquadratic-", "quartic.biquadratic"),
    ("resolvent-root-", "quartic.resolvent"),
    ("resolvent-fallback", "quartic.fallback"),
)
BRANCH_NAMES = (
    "quadratic.real",
    "quadratic.conjugate",
    "cubic.omega_plus",
    "cubic.omega_minus",
    "cubic.cube_root",
    "cubic.near_origin",
    "cubic.triple_zero",
    "quartic.biquadratic",
    "quartic.resolvent",
    "quartic.fallback",
    "other",
)


def branch_family(tag: str) -> str:
    for prefix, family in BRANCH_FAMILIES:
        if tag.startswith(prefix):
            if family == "cubic.omega":
                return "cubic.omega_plus" if tag.endswith(":+") else "cubic.omega_minus"
            return family
    return "other"


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


class Tally:
    """What the checks found, over every input checked in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.broken = 0  # inputs that failed an integrity check
        self.problems: list[str] = []
        self.branches = Counter()
        self.bound_miss = Counter()
        self.max_scaled = {2: 0.0, 3: 0.0, 4: 0.0}
        self.oracle_iterations = Counter()
        self.oracle_runs = Counter()
        self.unconverged = 0
        self.mismatch = 0

    def finish_input(self, broken: list[str], missed: bool) -> None:
        self.attempted += 1
        if broken:
            self.broken += 1
            if len(self.problems) < 5:
                self.problems.extend(broken[:1])
        if broken or missed:
            self.failed += 1

    def counts(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in BRANCH_NAMES:
            out[f"split_solver.branch.{name}"] = self.branches[name]
        for deg in (2, 3, 4):
            out[f"split_solver.bound_miss.deg{deg}"] = self.bound_miss[deg]
        for deg in (2, 3, 4):
            out[f"split_solver.max_scaled_residual.deg{deg}"] = self.max_scaled[deg]
        for deg in (2, 3, 4):
            runs = self.oracle_runs[deg]
            out[f"oracle.iterations_mean.deg{deg}"] = self.oracle_iterations[deg] / runs if runs else 0.0
        out["oracle.unconverged"] = self.unconverged
        out["oracle.mismatch"] = self.mismatch
        return out


def check_roots(p, roots, residuals, tags, tally: Tally) -> tuple[list[str], bool, float]:
    """Check one solved polynomial.

    Returns the integrity problems found, whether an accuracy check missed,
    and the oracle's max pairing distance to ``roots`` in the order given.
    """
    deg = p.degree
    broken: list[str] = []
    if not (len(roots) == len(residuals) == len(tags) == deg):
        return [f"{p.coefficients}: {len(roots)} roots for degree {deg}"], False, math.nan
    scale = max(1.0, max(abs(c) for c in p.coefficients))
    missed = False
    for z, r, tag in zip(roots, residuals, tags):
        tally.branches[branch_family(tag)] += 1
        if not (math.isfinite(z.real) and math.isfinite(z.imag) and math.isfinite(r)):
            broken.append(f"{p.coefficients}: non-finite root {z!r} or residual {r!r}")
            continue
        actual = abs(evaluate(p, z))
        if r != actual:
            broken.append(f"{p.coefficients}: residual {r!r} reported, |p(z)| is {actual!r}")
        scaled = actual / (scale * max(1.0, abs(z)) ** deg)
        tally.max_scaled[deg] = max(tally.max_scaled[deg], scaled)
        if scaled > README_TOLERANCE:
            tally.bound_miss[deg] += 1
            missed = True

    oracle = find_roots(p)
    tally.oracle_runs[deg] += 1
    tally.oracle_iterations[deg] += oracle.iterations_used
    if not oracle.converged:
        tally.unconverged += 1
        missed = True
    # Acceptance criterion 1's tolerance.
    separations = [abs(u - v) for i, u in enumerate(oracle.roots) for v in oracle.roots[i + 1 :]]
    if not separations or min(separations) >= 1e-3:
        tolerance = 1e-7
    else:
        tolerance = max(1e-7, 10.0 * max(oracle.cluster_radii))
    distance = max_pairing_distance(roots, oracle.roots)
    if not distance <= tolerance:
        tally.mismatch += 1
        missed = True
    return broken, missed, distance


def check_library(polys, results, tally: Tally) -> None:
    for p, rs in zip(polys, results):
        broken, missed, _ = check_roots(p, rs.roots, rs.residuals, rs.branch_tags, tally)
        tally.finish_input(broken, missed)


def presentation_order(rs) -> list[tuple[complex, float, str]]:
    """The CLI's root order: descending real part, then imaginary part."""
    rows = list(zip(rs.roots, rs.residuals, rs.branch_tags))
    rows.sort(key=lambda row: (-row[0].real, -row[0].imag))
    return rows


def check_cli(lines: list[str], out_text: str, solve, crosscheck: bool, tally: Tally) -> None:
    """Check one CLI batch output against the library, line by line."""
    records = out_text.splitlines()
    if len(records) != len(lines):
        tally.problems.append(f"{len(records)} output lines for {len(lines)} input lines")
    for k, text in enumerate(lines):
        p, _ = parse_polynomial_with_variable(text)
        rs = solve(p)
        rows = presentation_order(rs)
        roots = [z for z, _, _ in rows]
        broken, missed, distance = check_roots(
            p, roots, [r for _, r, _ in rows], [t for _, _, t in rows], tally
        )
        if k >= len(records):
            broken.append(f"line {k + 1}: no output")
            tally.finish_input(broken, missed)
            continue
        try:
            record = json.loads(records[k], parse_constant=_reject_constant)
            got = [(r["re"], r["im"], r["residual"], r["branch_tag"]) for r in record["roots"]]
            echo = parse_polynomial_with_variable(record["polynomial"])[0]
        except (ValueError, KeyError, TypeError) as err:
            tally.finish_input(broken + [f"line {k + 1}: unreadable record: {err!r}"], missed)
            continue
        if got != [(z.real, z.imag, r, t) for z, r, t in rows]:
            broken.append(f"line {k + 1}: CLI roots differ from the library's")
        if echo != p:
            broken.append(f"line {k + 1}: echo {record['polynomial']!r} does not parse back")
        if crosscheck:
            diagnostics = record.get("diagnostics") or {}
            if diagnostics.get("oracle_max_pairing_distance") != distance:
                broken.append(f"line {k + 1}: oracle pairing distance differs")
            if p.degree == 3:
                dc = depress_cubic(p)
                want_dep = {"a": dc.a, "b": dc.b, "shift": dc.shift}
            else:
                dq = depress_quartic(p) if p.degree == 4 else None
                want_dep = dq and {"a": dq.a, "b": dq.b, "c": dq.c, "shift": dq.shift}
            if want_dep and diagnostics.get("depressed_coefficients") != want_dep:
                broken.append(f"line {k + 1}: depressed coefficients differ")
        tally.finish_input(broken, missed)
