"""Acceptance gate: ten pinned criteria covering solver, oracle, and CLI.

Each criterion records its verdict in ``RESULTS``; the ``conftest.py``
terminal-summary hook prints one ``ACCEPTANCE CRITERION n: PASS/FAIL`` line
per criterion at the end of the run.  Criteria 1-3 share one
30,000-polynomial random corpus.
"""

import cmath
import functools
import io
import itertools
import json
import math
import pathlib
import random
import time
from types import SimpleNamespace

import pytest

from splitroots.cli import main
from splitroots.oracle import find_roots, max_pairing_distance
from splitroots.parser import ParseError, format_polynomial, parse_polynomial
from splitroots.poly_core import (
    RealPolynomial,
    depress_cubic,
    depress_quartic,
    evaluate,
    reconstruct_cubic,
    reconstruct_quartic,
)
from splitroots.split_solver import (
    OMEGA,
    ONE_MINUS_OMEGA,
    cubic_naive_split_residual,
    cubic_omega_split_residual,
    naive_cubic_reduction,
    omega_decompose,
    quadratic_split_residual,
    quartic_split_residual,
    solve,
)

_CORPUS_SEED = 20240901
_CORPUS_PER_DEGREE = 10000
_ARTIFACT_DIR = pathlib.Path(__file__).parent / "artifacts"
_GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# criterion number -> description, registered at decoration time; the
# conftest terminal-summary hook reads both of these
CRITERIA: dict[int, str] = {}
RESULTS: dict[int, bool] = {}


def _criterion(number: int, description: str):
    """Decorator: run the test body and record the criterion verdict."""

    def wrap(fn):
        CRITERIA[number] = description

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[number] = False
                print(f"ACCEPTANCE CRITERION {number}: FAIL - {description}")
                raise
            RESULTS[number] = True

        return inner

    return wrap


@pytest.fixture(scope="module")
def corpus():
    # 10,000 random monic polynomials per degree, coefficients uniform in
    # [-10, 10]; shared by criteria 1-3
    rng = random.Random(_CORPUS_SEED)
    polys = []
    for degree in (2, 3, 4):
        for _ in range(_CORPUS_PER_DEGREE):
            coeffs = tuple(rng.uniform(-10.0, 10.0) for _ in range(degree))
            polys.append(RealPolynomial(coeffs + (1.0,)))
    start = time.perf_counter()
    results = [solve(p) for p in polys]
    elapsed = time.perf_counter() - start
    return SimpleNamespace(polys=polys, results=results, elapsed=elapsed)


@_criterion(
    1,
    "closed-form roots match the independent oracle on 30,000 random "
    "polynomials (pairing <= 1e-7 when well separated) within the 30 s budget",
)
def test_criterion_1_matches_oracle(corpus):
    start = time.perf_counter()
    for p, rs in zip(corpus.polys, corpus.results):
        oracle = find_roots(p)
        assert oracle.converged, p.coefficients
        separations = [
            abs(u - v)
            for i, u in enumerate(oracle.roots)
            for v in oracle.roots[i + 1 :]
        ]
        if not separations or min(separations) >= 1e-3:
            tolerance = 1e-7
        else:
            tolerance = max(1e-7, 10.0 * max(oracle.cluster_radii))
        distance = max_pairing_distance(rs.roots, oracle.roots)
        assert distance <= tolerance, (p.coefficients, distance, tolerance)
    total = corpus.elapsed + (time.perf_counter() - start)
    assert total < 30.0, f"criterion took {total:.1f}s"


@_criterion(
    2,
    "every returned root has |p(z)| <= 1e-8 * max(1, max|coeff|) * "
    "max(1, |z|)^degree over the shared corpus",
)
def test_criterion_2_residual_bound(corpus):
    for p, rs in zip(corpus.polys, corpus.results):
        scale = max(1.0, max(abs(c) for c in p.coefficients))
        for z in rs.roots:
            bound = 1e-8 * scale * max(1.0, abs(z)) ** p.degree
            assert abs(evaluate(p, z)) <= bound, (p.coefficients, z)


@_criterion(
    3,
    "the split-system residual evaluators vanish (<= 1e-9 * scale) at every "
    "root under the solver's own (x, y) decomposition",
)
def test_criterion_3_split_residuals_vanish(corpus):
    for p, rs in zip(corpus.polys, corpus.results):
        degree = p.degree
        monic = p.monic().coefficients
        if degree == 2:
            a, b = monic[1], monic[0]
            scale = max(1.0, abs(a), abs(b))
            for z in rs.roots:
                sr = quadratic_split_residual(a, b, z.real, z.imag)
                assert max(map(abs, sr)) <= 1e-9 * scale, (p.coefficients, z)
        elif degree == 3:
            dc = depress_cubic(p)
            scale = max(1.0, abs(dc.a), abs(dc.b))
            for z in rs.roots:
                x, y = omega_decompose(z + dc.shift)
                sr = cubic_omega_split_residual(dc.a, dc.b, x, y)
                assert max(map(abs, sr)) <= 1e-9 * scale, (p.coefficients, z)
        else:
            dq = depress_quartic(p)
            scale = max(1.0, abs(dq.a), abs(dq.b), abs(dq.c))
            for z in rs.roots:
                w = z + dq.shift
                sr = quartic_split_residual(dq.a, dq.b, dq.c, w.real, w.imag)
                assert max(map(abs, sr)) <= 1e-9 * scale, (p.coefficients, z)


@_criterion(
    4,
    "eliminating y from the naive cubic split gives exactly 8x^3 + 2ax - b "
    "(still degree three), and conjugate-pair real parts satisfy it",
)
def test_criterion_4_naive_reduction():
    rng = random.Random(404)
    for _ in range(1000):
        a = rng.uniform(-100.0, 100.0)
        b = rng.uniform(-100.0, 100.0)
        c3, c1, c0 = naive_cubic_reduction(a, b)
        assert c3 == 8.0
        assert c1 == 2.0 * a
        assert c0 == -b
    # the elimination does not lower the degree: the leading coefficient is a
    # nonzero constant, so the reduced equation is again a cubic
    assert naive_cubic_reduction(0.0, 0.0)[0] != 0.0
    # substitution check: for roots with y != 0, x = Re(z) solves the reduction
    checked = 0
    rng = random.Random(405)
    while checked < 100:
        a = rng.uniform(-10.0, 10.0)
        b = rng.uniform(-10.0, 10.0)
        p = RealPolynomial((b, a, 0.0, 1.0))
        c3, c1, c0 = naive_cubic_reduction(a, b)
        for z in solve(p).roots:
            if z.imag == 0.0:
                continue
            x = z.real
            value = c3 * x**3 + c1 * x + c0
            bound = 1e-7 * max(1.0, 8.0 * abs(x) ** 3, 2.0 * abs(a * x), abs(b))
            assert abs(value) <= bound, (a, b, z)
            checked += 1


@_criterion(
    5,
    "the omega-split evaluator agrees with direct expansion of p(x + omega*y) "
    "to 1e-12 (relative to the expression magnitude) on 1000 random samples",
)
def test_criterion_5_omega_split_is_exact_expansion():
    rng = random.Random(505)
    for _ in range(1000):
        a = rng.uniform(-10.0, 10.0)
        b = rng.uniform(-10.0, 10.0)
        x = rng.uniform(-10.0, 10.0)
        y = rng.uniform(-10.0, 10.0)
        z = complex(x, 0.0) + OMEGA * y
        direct = z**3 + a * z + b
        real, imag = cubic_omega_split_residual(a, b, x, y)
        magnitude = max(1.0, (abs(x) + abs(y)) ** 3 + abs(a) * (abs(x) + abs(y)) + abs(b))
        assert abs(real - direct.real) <= 1e-12 * magnitude, (a, b, x, y)
        # the evaluator drops the constant factor sqrt(3)/2 from the
        # imaginary equation; zero sets are identical
        assert abs(OMEGA.imag * imag - direct.imag) <= 1e-12 * magnitude, (a, b, x, y)
    # the substitution constants themselves
    assert ONE_MINUS_OMEGA == OMEGA.conjugate()
    assert abs(OMEGA**3 + 1.0) <= 4.0 * math.ulp(1.0)


@_criterion(
    6,
    "the naive-split imaginary evaluator is the negation of Im(p(x+iy)); "
    "finding recorded in tests/artifacts/s2_sign_finding.json",
)
def test_criterion_6_naive_split_sign_artifact():
    rng = random.Random(606)
    samples = 500
    worst_negation_gap = 0.0
    worst_printed_at_root = 0.0
    worst_direct_at_root = 0.0
    for _ in range(samples):
        a = rng.uniform(-10.0, 10.0)
        b = rng.uniform(-10.0, 10.0)
        x = rng.uniform(-5.0, 5.0)
        y = rng.uniform(-5.0, 5.0)
        direct = (complex(x, y) ** 3 + a * complex(x, y) + b).imag
        printed = cubic_naive_split_residual(a, b, x, y)[1]
        magnitude = max(1.0, (abs(x) + abs(y)) ** 3 + abs(a) * (abs(x) + abs(y)))
        gap = abs(printed + direct) / magnitude
        worst_negation_gap = max(worst_negation_gap, gap)
        assert gap <= 1e-12, (a, b, x, y)
    # both forms vanish at true roots, so the zero set is unaffected
    rng = random.Random(607)
    for _ in range(100):
        a = rng.uniform(-10.0, 10.0)
        b = rng.uniform(-10.0, 10.0)
        p = RealPolynomial((b, a, 0.0, 1.0))
        scale = max(1.0, abs(a), abs(b))
        for z in solve(p).roots:
            printed = cubic_naive_split_residual(a, b, z.real, z.imag)[1]
            direct = (z**3 + a * z + b).imag
            worst_printed_at_root = max(worst_printed_at_root, abs(printed) / scale)
            worst_direct_at_root = max(worst_direct_at_root, abs(direct) / scale)
            assert abs(printed) <= 1e-8 * scale
            assert abs(direct) <= 1e-8 * scale

    artifact = {
        "samples": samples,
        "seed": 606,
        "statement": (
            "the cubic naive-split imaginary evaluator returns "
            "y^3 - 3x^2y - ay, which is the exact negation of "
            "Im((x+iy)^3 + a(x+iy) + b) = 3x^2y - y^3 + ay"
        ),
        "max_relative_gap_printed_plus_direct": worst_negation_gap,
        "max_scaled_printed_residual_at_roots": worst_printed_at_root,
        "max_scaled_direct_residual_at_roots": worst_direct_at_root,
        "consequence": (
            "both forms vanish on the same set, so solving the system as "
            "stated yields the correct roots; the evaluator keeps the stated "
            "form and this record documents the sign relation"
        ),
    }
    # The committed record must still hold; floats round-trip exactly
    # through JSON, so any moved root shows here instead of in a rewritten
    # file.
    path = _ARTIFACT_DIR / "s2_sign_finding.json"
    assert json.loads(path.read_text()) == artifact, (
        f"{path.name} no longer matches the finding; if the change is meant, "
        f"commit these values:\n{json.dumps(artifact, indent=2)}"
    )


@_criterion(
    7,
    "degenerate paths (pure cube roots, triple/quadruple roots, biquadratics, "
    "zero roots) stay on-branch with residuals <= 1e-8 * scale",
)
def test_criterion_7_singular_paths():
    u = cmath.exp(2j * cmath.pi / 3)
    cases = [
        ("z^3 - 1", [1 + 0j, u, u.conjugate()], 1e-9),
        ("z^3", [0j, 0j, 0j], 0.0),
        ("w^3 + 3w^2 + 3w + 1", [-1 + 0j] * 3, 1e-5),
        ("z^4 - 5z^2 + 4", [1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j], 1e-9),
        ("w^4 + 4w^3 + 6w^2 + 4w + 1", [-1 + 0j] * 4, 1e-4),
        ("z^4 - 7z^2 + 6z", [0j, 1 + 0j, 2 + 0j, -3 + 0j], 1e-8),
        ("z^4 + 5z^2 + 4", [1j, -1j, 2j, -2j], 1e-9),
        ("z^2 - 2z + 1", [1 + 0j, 1 + 0j], 1e-9),
    ]
    for text, expected, tolerance in cases:
        p = parse_polynomial(text)
        rs = solve(p)
        assert max_pairing_distance(rs.roots, expected) <= tolerance, text
        scale = max(1.0, max(abs(c) for c in p.coefficients))
        for z, r in zip(rs.roots, rs.residuals):
            assert r <= 1e-8 * scale, (text, z, r)


@_criterion(
    8,
    "depress/reconstruct round trips are exact to 4 ulps of the coefficient "
    "scale, and the omega constants satisfy their defining identities",
)
def test_criterion_8_depression_round_trip():
    rng = random.Random(808)
    for _ in range(2000):
        source = tuple(rng.uniform(-100.0, 100.0) for _ in range(3)) + (1.0,)
        p = RealPolynomial(source)
        dep = depress_cubic(p)
        back = reconstruct_cubic(dep)
        m = max(
            1.0,
            *(abs(c) for c in p.coefficients),
            abs(dep.a),
            abs(dep.b),
        )
        for got, want in zip(back.coefficients, p.coefficients):
            assert abs(got - want) <= 4.0 * math.ulp(m), (source, back.coefficients)
    for _ in range(2000):
        source = tuple(rng.uniform(-100.0, 100.0) for _ in range(4)) + (1.0,)
        p = RealPolynomial(source)
        dep = depress_quartic(p)
        back = reconstruct_quartic(dep)
        m = max(
            1.0,
            *(abs(c) for c in p.coefficients),
            abs(dep.a),
            abs(dep.b),
            abs(dep.c),
        )
        for got, want in zip(back.coefficients, p.coefficients):
            assert abs(got - want) <= 4.0 * math.ulp(m), (source, back.coefficients)
    # omega identities used throughout the cubic path
    assert OMEGA == complex(0.5, math.sqrt(3.0) / 2.0)
    assert abs(OMEGA**3 + 1.0) <= 4.0 * math.ulp(1.0)
    assert abs(abs(OMEGA) - 1.0) <= 4.0 * math.ulp(1.0)
    assert ONE_MINUS_OMEGA == OMEGA.conjugate()
    assert abs(ONE_MINUS_OMEGA) == 1.0


@_criterion(
    9,
    "parser round trips 1000 random polynomials exactly, CLI golden "
    "transcripts match byte-for-byte, and exit codes are {0, 2, 3}",
)
def test_criterion_9_parser_and_cli(capsys, monkeypatch):
    rng = random.Random(909)
    for _ in range(1000):
        degree = rng.randint(1, 6)
        coeffs = []
        for _ in range(degree):
            if rng.random() < 0.5:
                coeffs.append(float(rng.randint(-999, 999)))
            else:
                coeffs.append(rng.uniform(-1000.0, 1000.0))
        lead = float(rng.choice([-1, 1]) * rng.randint(1, 99))
        p = RealPolynomial(tuple(coeffs) + (lead,))
        text = format_polynomial(p)
        assert parse_polynomial(text).coefficients == p.coefficients, text

    for path in sorted(_GOLDEN_DIR.glob("*.json")):
        case = json.loads(path.read_text())
        if "stdin" in case:  # a batch case, one input per line
            monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
        code = main(case["argv"])
        captured = capsys.readouterr()
        assert code == case["exit_code"], path.name
        assert captured.out == case["stdout"], path.name
        assert captured.err == case["stderr"], path.name

    assert main(["solve", "z^2 - 1"]) == 0
    assert main(["solve", "2 & 3"]) == 2
    assert main(["solve", "z^5 + 1"]) == 3
    with pytest.raises(ParseError):
        parse_polynomial("")
    capsys.readouterr()


# Polynomials per corpus and degree (2, 3, 4) whose largest relative forward
# error against the reference roots is over 1e-6.  A change that lowers a
# count lowers it here too.
_FORWARD_ERROR_COUNTS = {
    "lib-wide-201": (0, 0, 0),
    "lib-wide-202": (0, 0, 0),
    "lib-wide-203": (0, 0, 0),
    "wide-roots": (0, 36, 271),
    "extremes": (0, 1, 3),
}


def _forward_error(roots, reference) -> float:
    """The largest relative error under the pairing that minimizes it; nan for a non-finite root."""
    if not all(map(cmath.isfinite, roots)):
        return math.nan

    def relative(z, r):
        return abs(z - r) / abs(r) if r else (0.0 if z == 0 else math.inf)

    return min(
        max(relative(z, reference[j]) for z, j in zip(roots, perm))
        for perm in itertools.permutations(range(len(reference)))
    )


def _reference_roots():
    """``(corpus name, polynomial, reference roots)`` for each artifact entry.

    The references are mpmath's, written by tests/make_reference_roots.py;
    the tests read only the JSON.
    """
    artifact = json.loads((_ARTIFACT_DIR / "reference_roots.json").read_text())
    for name, entries in artifact["corpora"].items():
        for entry in entries:
            coeffs = tuple(map(float, entry["coefficients"]))
            yield name, RealPolynomial(coeffs), [complex(r) for r in entry["roots"]]


@_criterion(
    10,
    "forward error: per corpus and degree, no more polynomials than committed "
    "have a root over 1e-6 relative from tests/artifacts/reference_roots.json",
)
def test_criterion_10_forward_error_ratchet():
    counts = {}
    for name, p, reference in _reference_roots():
        over = counts.setdefault(name, [0, 0, 0])
        try:
            error = _forward_error(solve(p).roots, reference)
        except ValueError:
            error = math.nan
        if not error <= 1e-6:  # nan compares false: it counts as over
            over[len(reference) - 2] += 1
    counts = {name: tuple(over) for name, over in counts.items()}
    print(f"forward error over 1e-6, degrees 2/3/4: {counts}")
    assert counts.keys() == _FORWARD_ERROR_COUNTS.keys()
    for name, committed in _FORWARD_ERROR_COUNTS.items():
        assert all(map(int.__le__, counts[name], committed)), (name, counts[name], committed)


# Artifact polynomials on which find_roots reports converged, and how many of
# those have a root over 1e-6 relative from the reference roots.  The oracle
# converges on all but four edge inputs, where its roots are nan.  A change
# may raise the first count and lower the second, never the other way.
_ORACLE_CONVERGED = 3606
_ORACLE_CONVERGED_OVER = 0


def test_oracle_forward_error_where_converged():
    converged = over = 0
    for _, p, reference in _reference_roots():
        result = find_roots(p)
        if result.converged:
            converged += 1
            over += not _forward_error(result.roots, reference) <= 1e-6
    print(f"oracle: {converged} converged, {over} of them over 1e-6")
    assert converged >= _ORACLE_CONVERGED
    assert over <= _ORACLE_CONVERGED_OVER
