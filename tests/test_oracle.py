"""Unit tests for the iterative root oracle and root pairing."""

import cmath
import math
import random
from itertools import permutations

import pytest

from splitroots import oracle, solve
from splitroots.cli import main
from splitroots.oracle import (
    find_roots,
    max_pairing_distance,
    pair_roots,
)
from splitroots.poly_core import RealPolynomial, evaluate, horner_with_derivative


def _poly_from_roots(roots) -> RealPolynomial:
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] - r * coeffs[i + 1]
    return RealPolynomial(tuple(c.real for c in coeffs))


class TestFindRoots:
    def test_cubic_with_integer_roots(self):
        p = RealPolynomial((6.0, -7.0, 0.0, 1.0))  # z^3 - 7z + 6
        result = find_roots(p)
        assert result.converged
        assert max_pairing_distance(result.roots, [1 + 0j, 2 + 0j, -3 + 0j]) <= 1e-10

    def test_irreducible_cubic_real_root(self):
        p = RealPolynomial((1.0, 1.0, 0.0, 1.0))  # z^3 + z + 1
        result = find_roots(p)
        real = [z for z in result.roots if abs(z.imag) < 1e-9]
        assert len(real) == 1
        assert abs(real[0].real - -0.6823278038280193) <= 1e-12

    def test_quadruple_root_cluster(self):
        # (z + 1)^4: the quadruple root limits attainable accuracy to about
        # eps^(1/4); the oracle must still converge and report cluster radii.
        p = RealPolynomial((1.0, 4.0, 6.0, 4.0, 1.0))
        result = find_roots(p)
        assert result.converged
        assert max_pairing_distance(result.roots, [-1 + 0j] * 4) <= 1e-3
        assert all(r > 0.0 for r in result.cluster_radii)
        assert all(r < 1e-2 for r in result.cluster_radii)

    def test_well_separated_roots_have_zero_cluster_radius(self):
        result = find_roots(RealPolynomial((6.0, -7.0, 0.0, 1.0)))
        assert result.cluster_radii == (0.0, 0.0, 0.0)

    def test_a_chain_of_close_roots_is_one_cluster(self):
        # The ends are 1.8e-3 apart, over CLUSTER_DISTANCE, but each is close
        # to the middle root; the radius is the ends' distance from the centroid.
        radii = oracle._cluster_radii((0j, 9e-4 + 0j, 1.8e-3 + 0j))
        assert radii[0] == radii[1] == radii[2] == pytest.approx(9e-4, rel=1e-12)

    def test_linear(self):
        result = find_roots(RealPolynomial((6.0, 3.0)))
        assert result.roots == (complex(-2.0, 0.0),)
        assert result.converged

    def test_determinism_bit_identical(self):
        p = RealPolynomial((-3.1, 0.7, -2.0, 5.5, 1.25))
        a = find_roots(p)
        b = find_roots(p)
        assert a.roots == b.roots
        assert a.iterations_used == b.iterations_used
        assert a.cluster_radii == b.cluster_radii

    def test_scaling_invariance(self):
        p = RealPolynomial((6.0, -7.0, 0.0, 1.0))
        q = RealPolynomial(tuple(7.3 * c for c in p.coefficients))
        assert max_pairing_distance(find_roots(p).roots, find_roots(q).roots) <= 1e-12

    def test_reconstruction_from_separated_roots(self):
        rng = random.Random(42)
        built = 0
        while built < 200:
            n_real = rng.choice([0, 1, 2, 3, 4])
            n_pairs = rng.choice([0, 1, 2])
            roots = [complex(rng.uniform(-5.0, 5.0), 0.0) for _ in range(n_real)]
            for _ in range(n_pairs):
                z = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.3, 5.0))
                roots += [z, z.conjugate()]
            if not 1 <= len(roots) <= 6:
                continue
            separations = [
                abs(u - v) for i, u in enumerate(roots) for v in roots[i + 1 :]
            ]
            if separations and min(separations) < 1e-2:
                continue
            p = _poly_from_roots(roots)
            result = find_roots(p)
            assert result.converged, p.coefficients
            assert max_pairing_distance(result.roots, roots) <= 1e-8, p.coefficients
            built += 1

    def test_residuals_small_on_random_polynomials(self):
        rng = random.Random(99)
        for _ in range(300):
            degree = rng.choice([2, 3, 4, 5, 6])
            coeffs = tuple(rng.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,)
            p = RealPolynomial(coeffs)
            result = find_roots(p)
            assert result.converged, p.coefficients
            scale = max(1.0, max(abs(c) for c in coeffs))
            for z in result.roots:
                bound = 1e-10 * scale * max(1.0, abs(z)) ** degree
                assert abs(evaluate(p, z)) <= bound, (p.coefficients, z)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(RealPolynomial((5.0,)))


def _relative_newton_step(p: RealPolynomial, z: complex) -> float:
    value, deriv = horner_with_derivative(tuple(reversed(p.monic().coefficients)), z)
    return abs(value / deriv) / abs(z)


class TestStartAndStop:
    @pytest.mark.parametrize(
        "coeffs, zeros, others",
        [
            # z^4: every root is the split-off zero, nothing is iterated.
            ((0.0, 0.0, 0.0, 0.0, 1.0), 4, []),
            # z^3 + z: one zero root, then the quadratic z^2 + 1.
            ((0.0, 1.0, 0.0, 1.0), 1, [1j, -1j]),
            # 1e200 z^2 + z + 1e-200: the monic constant term underflows to
            # 0.0, which leaves a zero root and the linear factor z + 1e-200.
            ((1e-200, 1.0, 1e200), 1, [-1e-200 + 0j]),
        ],
    )
    def test_exact_zero_roots_are_split_off(self, coeffs, zeros, others):
        result = find_roots(RealPolynomial(coeffs))
        assert result.converged
        assert result.roots.count(0j) == zeros
        assert max_pairing_distance([z for z in result.roots if z != 0], others) <= 1e-15
        # A linear or empty quotient needs no sweep; z^2 + 1 needs a few.
        assert result.iterations_used <= (0 if len(others) <= 1 else 6)

    @pytest.mark.parametrize(
        "coeffs",
        [
            # lib-wide seeds 208 and 212: the absolute stop rule left both
            # unconverged, with roots near 1e-4 beside one near -4e9 or -2e10.
            (-0.003577512138563951, 55.79273846445477, -233604.3541499658, -30178.017353337284, -8.221087931324194e-06),
            (-2.0894898692133735e-05, -0.06324383867770805, 3.129820637715362e-05, -255561.2639927323, -1.1908623522188647e-05),
            # roots -1e16 and the three cube roots of -1e-16
            (1.0, 0.0, 0.0, 1e16, 1.0),
            # roots +-1e150: the old start ring of radius 1 + 1e300 gave nan
            (-1e300, 0.0, 1.0),
        ],
    )
    def test_roots_of_very_different_moduli_converge(self, coeffs):
        p = RealPolynomial(coeffs)
        result = find_roots(p)
        assert result.converged
        assert result.iterations_used <= 8
        for z in result.roots:
            assert _relative_newton_step(p, z) <= 1e-15

    def test_small_and_huge_roots_are_accurate(self):
        result = find_roots(RealPolynomial((1.0, 0.0, 0.0, 1e16, 1.0)))
        small = 1e-16 ** (1.0 / 3.0)
        expected = [-small + 0j] + [small * complex(0.5, s * math.sqrt(0.75)) for s in (1, -1)]
        huge = max(result.roots, key=abs)
        assert huge == -1e16
        rest = [z for z in result.roots if z != huge]
        assert max_pairing_distance(rest, expected) <= 1e-15 * small
        result = find_roots(RealPolynomial((-1e300, 0.0, 1.0)))
        assert sorted(z.real for z in result.roots) == [-1e150, 1e150]
        assert all(abs(z.imag) <= 1e-15 * abs(z) for z in result.roots)

    @pytest.mark.parametrize(
        "coeffs, radius",
        [
            ((16.0, 0.0, 0.0, 0.0, 1.0), 2.0),
            ((8.0, 1.0, 1.0, 1.0), 2.0),  # the middle points lie under the chord
            ((-3.0, 0.0, 1.0), math.sqrt(3.0)),
        ],
    )
    def test_one_edge_hull_starts_on_one_circle(self, coeffs, radius):
        # One hull edge 0 -> n: all n points on the circle |a_0|^(1/n).
        start = oracle._start_points(coeffs)
        assert len(start) == len(coeffs) - 1
        assert all(abs(abs(z) - radius) <= 1e-15 * radius for z in start)
        assert len({round(cmath.phase(z), 12) for z in start}) == len(start)

    def test_each_hull_edge_starts_on_its_own_circle(self):
        # z^2 + 1e8 z + 1: edges 0 -> 1 and 1 -> 2, radii 1e-8 and 1e8.
        small, large = oracle._start_points((1.0, 1e8, 1.0))
        assert abs(abs(small) - 1e-8) <= 1e-22
        assert abs(abs(large) - 1e8) <= 1e-6

    def test_coincident_starts_on_a_critical_point_still_converge(self, monkeypatch):
        # Both roots of z^2 - 4 start at 0, where p' vanishes: the first
        # sweep nudges their zero difference apart and takes the product
        # correction in place of the Newton step.
        monkeypatch.setattr(oracle, "_start_points", lambda coeffs: [0j] * (len(coeffs) - 1))
        result = find_roots(RealPolynomial((-4.0, 0.0, 1.0)))
        assert result.converged
        assert max_pairing_distance(result.roots, [2 + 0j, -2 + 0j]) <= 1e-12

    def test_underflowing_product_correction_freezes_the_root(self, monkeypatch, capsys):
        # z^3 - 1 from 0 and 1e-170 (+i): p' is exactly 0 at each start, and
        # the product of its distances to the others (about 1e-340)
        # underflows to 0.  Each root freezes where it is instead of raising
        # ZeroDivisionError.
        starts = [0j, 1e-170 + 0j, 1e-170j]
        monkeypatch.setattr(oracle, "_start_points", lambda coeffs: list(starts))
        result = find_roots(RealPolynomial((-1.0, 0.0, 0.0, 1.0)))
        assert result.roots == tuple(starts) and result.iterations_used == 1
        assert not result.converged
        assert all(map(cmath.isfinite, result.roots))
        assert main(["oracle", "z^3 - 1"]) == 0
        captured = capsys.readouterr()
        assert "converged: false" in captured.out
        assert "Traceback" not in captured.err and "error" not in captured.err


class TestConvergenceTest:
    # max(1, |z|)**n leaves the float range for these finite roots; the
    # power counts as inf instead of raising OverflowError.
    @pytest.mark.parametrize(
        "coeffs, roots",
        [
            ((0.0, 1e200, 1.0), (-1e200 + 0j, 0j)),
            ((0.0, 0.0, 1e120, 1.0), (-1e120 + 0j, 0j, 0j)),
        ],
    )
    def test_huge_finite_root_converges(self, coeffs, roots):
        result = find_roots(RealPolynomial(coeffs))
        assert result.roots == roots
        assert result.converged
        assert result.iterations_used == 0

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_one_failing_root_fails_the_run(self, monkeypatch, failing):
        # The convergence test stops at the first failing root; whichever it is,
        # the run is not converged.
        calls = []

        def polish(coeffs_rev, z):
            z, residual = oracle_polish(coeffs_rev, z)
            calls.append(z)
            return z, math.nan if len(calls) - 1 == failing else residual

        oracle_polish = oracle._polish
        monkeypatch.setattr(oracle, "_polish", polish)
        result = find_roots(RealPolynomial((6.0, -7.0, 0.0, 1.0)))
        assert len(calls) == 3 and result.roots == tuple(calls)
        assert not result.converged

    def test_overflowing_power_counts_as_inf(self):
        assert oracle._meets_tolerance(1e300, -1e200 + 0j, 2, 1.0)
        assert not oracle._meets_tolerance(math.nan, -1e200 + 0j, 2, 1.0)
        assert not oracle._meets_tolerance(1.0, 2.0 + 0j, 2, 1.0)

    def test_overflowing_power_leaves_no_stale_error(self):
        # The caught overflow must not make a later |p(z)| of a nan root
        # raise OverflowError: the residual of a nan root is nan.
        assert oracle._meets_tolerance(1.0, complex(1e200, 0.0), 4, 1.0)
        z, residual = oracle._polish((1.0, 0.0, -1.0), complex(math.nan, math.nan))
        assert cmath.isnan(z) and math.isnan(residual)


class TestLateFreeze:
    # A root of a multiple zero keeps moving by far more than the relative
    # stop allows; after _LATE_SWEEPS sweeps it freezes once its residual
    # passes the convergence test.
    @pytest.mark.parametrize(
        "roots",
        [
            [1.0] * 3,
            [1.0] * 4,
            [-1.0] * 4,
            [2.0] * 3,
            # The coefficients reach 3003, and the test's scale with them:
            # measured against scale 1 the triple root would take 42 sweeps.
            [1.0, 1.0, 1.0, 1000.0],
        ],
    )
    def test_multiple_root_stops_one_sweep_after_the_late_start(self, roots):
        exact = [complex(r, 0.0) for r in roots]
        result = find_roots(_poly_from_roots(exact))
        assert result.converged
        assert result.iterations_used <= oracle._LATE_SWEEPS + 1
        assert max_pairing_distance(result.roots, exact) <= oracle.CLUSTER_DISTANCE


def _reference_cluster_radii(roots, floor):
    """The earlier cluster radii: union-find over every close pair, a closure for find."""
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < oracle.CLUSTER_DISTANCE:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    members = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)

    radii = [0.0] * n
    for group in members.values():
        if len(group) == 1:
            continue
        centroid = sum(roots[i] for i in group) / len(group)
        radius = max(abs(roots[i] - centroid) for i in group)
        radius = max(radius, floor)
        for i in group:
            radii[i] = radius
    return tuple(radii)


def _reference_aberth(coeffs, scale):
    """The earlier Aberth sweep, frozen: the full Horner recurrence per root, ``enumerate`` over the others."""
    coeffs_rev = coeffs[::-1]
    z = oracle._start_points(coeffs)
    n = len(z)
    active = list(range(n))
    sweeps = 0
    while active and sweeps < oracle._MAX_ITERATIONS:
        sweeps += 1
        late = sweeps > oracle._LATE_SWEEPS
        still_active = []
        for k in active:
            zk = z[k]
            pk = dpk = 0j
            for c in coeffs_rev:
                dpk = dpk * zk + pk
                pk = pk * zk + c
            if pk == 0 or late and oracle._meets_tolerance(abs(pk), zk, n, scale):
                continue
            repulsion = 0j
            for j, zj in enumerate(z):
                if j != k:
                    diff = zk - zj
                    if diff == 0:
                        diff = complex(1e-12 * (1.0 + abs(zk)), 0.0)
                    repulsion += 1.0 / diff
            if dpk != 0:
                newton = pk / dpk
                denom = 1.0 - newton * repulsion
                correction = newton if denom == 0 else newton / denom
            else:
                prod = complex(1.0, 0.0)
                for j in range(n):
                    if j == k:
                        continue
                    diff = zk - z[j]
                    if diff == 0:
                        diff = complex(1e-12 * (1.0 + abs(zk)), 0.0)
                    prod *= diff
                if not prod:
                    continue
                correction = pk / prod
            z[k] = zk - correction
            if abs(correction) > oracle._TOLERANCE * abs(zk):
                still_active.append(k)
        active = still_active
    return z, sweeps


def _quotient(p):
    """The monic coefficients with the zero roots split off, their scale, and how many were split off."""
    coeffs = p.monic().coefficients
    scale = max(1.0, max(abs(c) for c in coeffs))
    zeros = 0
    while coeffs[zeros] == 0.0:
        zeros += 1
    return coeffs[zeros:], scale, zeros


def _reference_polish(coeffs_rev, z, evaluate=horner_with_derivative):
    """The earlier polish, frozen: each pass through ``evaluate``, ``poly_core.horner_with_derivative`` by default."""
    p, dp = evaluate(coeffs_rev, z)
    best = abs(p)
    for _ in range(oracle._POLISH_STEPS):
        if dp == 0:
            break
        candidate = z - p / dp
        if candidate == z:  # a vanished step cannot lower the residual
            break
        cp, cdp = evaluate(coeffs_rev, candidate)
        r = abs(cp)
        if r < best:
            z, best, p, dp = candidate, r, cp, cdp
        else:
            break
    return z, best


def _reference_find_roots(p):
    """The earlier find_roots: the frozen sweep and polish, then every root tested with ``zip``."""
    quotient, scale, zeros = _quotient(p)
    coeffs_rev = tuple(reversed(p.monic().coefficients))
    n = p.degree
    if len(quotient) > 2:
        z, iterations_used = _reference_aberth(quotient, scale)
    else:
        z, iterations_used = [complex(-c, 0.0) for c in quotient[:-1]], 0
    polished = [_reference_polish(coeffs_rev, w) for w in z] + [(0j, 0.0)] * zeros
    z, residuals = zip(*polished)
    converged = all(oracle._meets_tolerance(r, w, n, scale) for r, w in zip(residuals, z))
    return oracle.OracleResult(
        roots=z,
        iterations_used=iterations_used,
        converged=converged,
        cluster_radii=_reference_cluster_radii(z, oracle._CLUSTER_RADIUS_FLOOR),
    )


def _outcome(f, *args):
    """``f(*args)`` and its ``repr``, or ``None`` and the type of the error it raises."""
    try:
        result = f(*args)
    except (ValueError, ArithmeticError) as err:  # OverflowError and ZeroDivisionError included
        return None, type(err)
    return result, repr(result)


def _assert_matches_frozen_copy(p):
    """find_roots and its sweeps against the frozen copies, repr for repr; returns the reference.

    The sweeps run with the real scale and with scale 0, which turns the late
    freeze off (no nonzero residual is within 0).  Where the reference raises,
    the live code must raise the same type.
    """
    want, want_repr = _outcome(_reference_find_roots, p)
    assert _outcome(find_roots, p)[1] == want_repr, p.coefficients
    try:
        quotient, scale, _ = _quotient(p)
    except ValueError:  # monic() overflowed: no sweep ran
        return want
    if len(quotient) > 2:
        for s in (scale, 0.0):
            got = _outcome(oracle._aberth, quotient, s)[1]
            assert got == _outcome(_reference_aberth, quotient, s)[1], (p.coefficients, s)
    return want


def _seeded_oracle_inputs(rng):
    """Uniform, wide, zero-root, linear-remainder and near-cluster polynomials."""
    for _ in range(600):
        degree = rng.randint(1, 6)
        yield tuple(rng.uniform(-10.0, 10.0) for _ in range(degree)) + (rng.uniform(0.5, 2.0),)
        yield tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(degree + 1))
        # Exact zero roots on top of either kind; one nonzero coefficient
        # below the leading one leaves a linear remainder.
        zeros = rng.randint(1, 3)
        yield (0.0,) * zeros + tuple(rng.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,)
        yield (0.0,) * zeros + (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0), 1.0)
        # Two or three roots closer than CLUSTER_DISTANCE.
        center = complex(rng.uniform(-3.0, 3.0), rng.choice((0.0, rng.uniform(0.1, 3.0))))
        roots = [center, center + rng.uniform(1e-6, 9e-4)]
        if rng.random() < 0.5:
            roots.append(center - rng.uniform(1e-6, 9e-4))
        roots = [complex(z.real, 0.0) for z in roots] if center.imag == 0.0 else (
            roots + [z.conjugate() for z in roots]
        )
        yield _poly_from_roots(roots).coefficients


class TestMatchesReferenceOracle:
    """find_roots, _aberth and _cluster_radii against their earlier code, repr for repr."""

    def test_seeded_inputs(self):
        rng = random.Random(1801)
        late = clustered = zero_roots = 0
        for coeffs in _seeded_oracle_inputs(rng):
            want = _assert_matches_frozen_copy(RealPolynomial(coeffs))
            assert want is not None, coeffs  # none of these raises
            late += want.iterations_used == oracle._LATE_SWEEPS + 1
            clustered += any(want.cluster_radii)
            zero_roots += 0j in want.roots
        assert late >= 300 and clustered >= 200 and zero_roots >= 1200

    def test_late_freeze_ends_what_the_relative_stop_does_not(self):
        # Near-clusters whose roots jitter by more than the relative stop:
        # without the late freeze (scale 0) they run on, with it they end
        # one sweep after _LATE_SWEEPS.
        rng = random.Random(1801)
        jittering = 0
        for coeffs in _seeded_oracle_inputs(rng):
            p = RealPolynomial(coeffs)
            quotient, scale, _ = _quotient(p)
            if len(quotient) <= 2 or oracle._aberth(quotient, 0.0)[1] <= oracle._LATE_SWEEPS:
                continue
            assert oracle._aberth(quotient, scale)[1] == oracle._LATE_SWEEPS + 1, coeffs
            assert find_roots(p).converged, coeffs
            jittering += 1
        assert jittering >= 300

    @pytest.mark.parametrize("coeffs", [(1.0, 1e160, 1.0), (1e300, 1e300, 1e300, 1.0)])
    def test_nan_roots_after_every_sweep(self, coeffs):
        # The largest root's value overflows in the first sweep and turns
        # nan; in the second the other roots meet it in their repulsion term
        # and turn nan too.  A nan correction freezes its root, so the
        # iteration stops there, where the stop rule before the nan freeze
        # swept the nan roots all 200 times.
        p = RealPolynomial(coeffs)
        _assert_matches_frozen_copy(p)
        got = find_roots(p)
        assert got.iterations_used == 2
        assert not got.converged
        assert all(cmath.isnan(z) for z in got.roots)

    @pytest.mark.parametrize(
        "coeffs, start",
        [
            # Coincident starts on a critical point: the nudge and the
            # product correction, at 0 and at 1.
            ((-4.0, 0.0, 1.0), [0j, 0j]),
            ((-3.0, -2.0, 1.0), [1 + 0j, 1 + 0j]),
            # Coincident starts off it: the nudge in the repulsion sum.
            ((-3.0, -2.0, 1.0), [2 + 0j, 2 + 0j]),
            # z^2 + 3 from 1 and -1: the Newton step 2 times the repulsion
            # 1/2 is exactly 1, so the Aberth denominator vanishes.
            ((3.0, 0.0, 1.0), [1 + 0j, -1 + 0j]),
            # A non-finite start, which turns nan without the recurrence, and,
            # where a[n-1] is -0.0, a start with real part -0.0 and a negative
            # imaginary part, where the folded first steps keep a -0.0.
            ((1.0, 0.0, 1.0), [complex(math.inf, 1.0), 1j]),
            ((1.0, -0.0, -0.0, 1.0), [complex(-0.0, -1e-200), 1 + 1j, -1 + 1j]),
            # Where a[n-1] is -0.0, a start with real part -0.0 and a negative
            # imaginary part gives the third folded step a p' whose real part
            # is -0.0 where the full recurrence's is 0.0, beside a nonzero
            # imaginary part.
            ((2.0, -0.0, 1.0), [complex(-0.0, -1.0), complex(-0.0, 3.0)]),
            ((-2.0, -0.0, 1.0), [complex(-0.0, -1.0), complex(-0.0, -3.0)]),
        ],
    )
    def test_chosen_starts(self, monkeypatch, coeffs, start):
        p = RealPolynomial(coeffs)
        monkeypatch.setattr(oracle, "_start_points", lambda coeffs: list(start))
        _assert_matches_frozen_copy(p)
        # The first sweep alone, before later sweeps can wash a difference out.
        monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
        _assert_matches_frozen_copy(p)
        # The same sweep under the late freeze: folded, a non-finite start
        # would get an inf residual there and freeze at inf, not turn nan.
        monkeypatch.setattr(oracle, "_LATE_SWEEPS", 0)
        _assert_matches_frozen_copy(p)

    @pytest.mark.parametrize(
        "coeffs, error",
        [
            # 1e10 / 1e-300 overflows in monic().
            ((1.0, 1e10, 1e-300), ValueError),
        ],
    )
    def test_overflowing_inputs_raise_as_before(self, coeffs, error):
        p = RealPolynomial(coeffs)
        _assert_matches_frozen_copy(p)
        with pytest.raises(error):
            find_roots(p)

    def test_nan_root_beside_an_overflowing_power(self):
        # The convergence power of the root near 7.8e118 overflows, and the
        # next root is nan.  Its |p(z)| once raised OverflowError instead of
        # giving nan, reading the errno that overflow left behind.
        p = RealPolynomial((0.0, 9.772785278470283e139, -1.2498788044298073e21, 3.3857319084680446e-155))
        result = _assert_matches_frozen_copy(p)
        assert not result.converged
        assert [cmath.isnan(z) for z in result.roots] == [False, True, False]

    def test_cluster_radii_on_random_sets(self):
        rng = random.Random(1802)
        # Steps of 5e-4 put some pairs exactly CLUSTER_DISTANCE apart.
        grid = [complex(x, y) * 5e-4 for x in range(-3, 4) for y in range(-3, 4)]
        for _ in range(3000):
            n = rng.randint(0, 6)
            roots = tuple(rng.choice(grid) + rng.choice((0.0, 1.0, 5.0)) for _ in range(n))
            if rng.random() < 0.1 and roots:
                roots = roots[:-1] + (complex(math.nan, 0.0),)
            assert repr(oracle._cluster_radii(roots)) == repr(
                _reference_cluster_radii(roots, oracle._CLUSTER_RADIUS_FLOOR)
            ), roots


def _counting_evaluate() -> tuple[list[complex], object]:
    """A ``horner_with_derivative`` that records every point it evaluates, and its record."""
    points: list[complex] = []

    def counting(coeffs_rev, z):
        points.append(z)
        return horner_with_derivative(coeffs_rev, z)

    return points, counting


class TestHornerPasses:
    def test_polish_one_pass_per_point(self):
        p = RealPolynomial((-3.1, 0.7, -2.0, 5.5, 1.25)).monic()
        coeffs_rev = tuple(reversed(p.coefficients))
        rng = random.Random(5)
        tried_more_than_start = 0
        for _ in range(200):
            z0 = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            points, counting = _counting_evaluate()
            z, residual = _reference_polish(coeffs_rev, z0, counting)
            # The live polish runs its own recurrence: the same result, bit
            # for bit.
            assert repr(oracle._polish(coeffs_rev, z0)) == repr((z, residual))
            # One pass at the start, then one per candidate tried: each
            # candidate is a Newton step from the last point accepted, and
            # only the last candidate can have been rejected.
            assert points[0] == z0
            assert len(points) <= 4
            assert len(set(points)) == len(points)
            for k in range(1, len(points)):
                value, deriv = horner_with_derivative(coeffs_rev, points[k - 1])
                assert points[k] == points[k - 1] - value / deriv
            assert z in points[-2:]
            assert residual == abs(horner_with_derivative(coeffs_rev, z)[0])
            tried_more_than_start += len(points) > 1
        assert tried_more_than_start == 200

    def test_polish_stops_where_the_derivative_vanishes(self):
        # z^2 + 1 at its critical point 0: no Newton step exists, and the
        # root comes back unchanged.
        assert oracle._polish((1.0, 0.0, 1.0), 0j) == (0j, 1.0)

    def test_find_roots_does_not_reevaluate_polished_roots(self, monkeypatch):
        live_polish = oracle._polish
        for coeffs in ((6.0, -7.0, 0.0, 1.0), (-3.1, 0.7, -2.0, 5.5, 1.25), (2.0, 0.0, 1.0)):
            p = RealPolynomial(coeffs)
            want = find_roots(p)
            points, counting = _counting_evaluate()

            def polish(coeffs_rev, z):
                got = live_polish(coeffs_rev, z)
                assert repr(got) == repr(_reference_polish(coeffs_rev, z, counting))
                return got

            monkeypatch.setattr(oracle, "_polish", polish)
            result = find_roots(p)
            monkeypatch.setattr(oracle, "_polish", live_polish)
            assert repr(result) == repr(want)
            # The Aberth sweep has its own Horner loop; every pass left is
            # the polish, and a polished root was evaluated exactly once.
            assert len(set(points)) == len(points)
            assert all(points.count(z) == 1 for z in result.roots)
            assert len(points) <= 4 * len(result.roots)

    def test_complex_plus_float_adds_a_zero_imaginary_part(self):
        # The sweep's folded first Horner steps match the full recurrence
        # only while complex + float adds complex(c, 0.0), which turns an
        # imaginary -0.0 into 0.0; an interpreter that adds to the real part
        # alone keeps the -0.0.
        imag = (complex(0.0, -0.0) + 1.0).imag
        assert math.copysign(1.0, imag) == 1.0, (
            "complex + float kept an imaginary -0.0: recheck the folded Horner "
            "steps against the premise stated in the splitroots.oracle module docstring"
        )
        # The third folded step can leave p' a zero part whose sign is not the
        # full recurrence's, beside a nonzero part.  The sweep reads p' through
        # p / p' alone, with every zero part of p a +0.0, and the quotient must
        # not see that sign unless p is purely imaginary.
        for p in (complex(3.0, 0.0), complex(3.0, -5.0)):
            for dp, flipped in (
                (complex(0.0, 2.0), complex(-0.0, 2.0)),
                (complex(0.0, -2.0), complex(-0.0, -2.0)),
                (complex(2.0, 0.0), complex(2.0, -0.0)),
                (complex(-2.0, 0.0), complex(-2.0, -0.0)),
            ):
                assert repr(p / dp) == repr(p / flipped), (
                    f"{p!r} / {dp!r} and / {flipped!r} differ: recheck the folded Horner "
                    "steps against the premise stated in the splitroots.oracle module docstring"
                )

    def test_folded_sweep_steps_match_the_full_recurrence(self, monkeypatch):
        # The sweep's three folded Horner steps, as oracle._aberth writes them
        # for a finite z, give the full recurrence's p bit for bit and its p'
        # up to the signs of zeros, on zero-heavy coefficients and on starts
        # with +-0.0 parts; and one live sweep from those starts matches the
        # frozen copy that runs the full recurrence.
        def folded(coeffs_rev, z):
            c1, c2, tail = coeffs_rev[1], coeffs_rev[2], coeffs_rev[3:]
            p = z + c1
            dp = z + p
            p = p * z + c2
            for c in tail:
                dp = dp * z + p
                p = p * z + c
            return p, dp

        def same_up_to_zero_signs(u, v):
            return all(a == b or a != a and b != b for a, b in ((u.real, v.real), (u.imag, v.imag)))

        def draw(rng, nonzero):
            # Half of the draws a signed zero.
            return rng.choice((0.0, -0.0)) if rng.random() < 0.5 else rng.choice(nonzero)

        rng = random.Random(2424)
        nonzero = (1.0, -1.0, 2.0, -3.5, 1e-200, -1e-200, 1e160, -1e160)
        p_prime_signs = beside_nonzero = 0
        for _ in range(1500):
            degree = rng.randint(2, 6)
            # The sweep's a[0] is nonzero.
            coeffs = (rng.choice(nonzero),) + tuple(draw(rng, nonzero) for _ in range(degree - 1)) + (1.0,)
            coeffs_rev = coeffs[::-1]
            points = [complex(draw(rng, nonzero[:4]), draw(rng, nonzero[:6])) for _ in range(16)]
            signed = []
            for z in points:
                p, dp = folded(coeffs_rev, z)
                want_p, want_dp = horner_with_derivative(coeffs_rev, z)
                assert repr(p) == repr(want_p), (coeffs, z)
                assert same_up_to_zero_signs(dp, want_dp), (coeffs, z)
                if repr(dp) != repr(want_dp):
                    p_prime_signs += 1
                    if dp:
                        beside_nonzero += 1
                        signed.append(z)
            # The sweep starts where the signs of p' differ beside a nonzero
            # part, if anywhere.
            starts = (signed + points)[:degree]
            monkeypatch.setattr(oracle, "_start_points", lambda coeffs: list(starts))
            monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
            monkeypatch.setattr(oracle, "_LATE_SWEEPS", rng.choice((0, 25)))
            for scale in (max(1.0, max(map(abs, coeffs))), 0.0):
                got = _outcome(oracle._aberth, coeffs, scale)[1]
                assert got == _outcome(_reference_aberth, coeffs, scale)[1], (coeffs, starts, scale)
        # The fuzz reaches the signs the folds leave on p', also those beside
        # a nonzero part, which the first two folded steps alone did not
        # leave here.
        assert p_prime_signs >= 100 and beside_nonzero >= 50


def _reference_pair_roots(computed, reference):
    """The pairing rule stated as one key per permutation, for n <= 4."""
    n = len(computed)
    best_key = best_perm = None
    for perm in permutations(range(n)):
        dists = [abs(computed[i] - reference[perm[i]]) for i in range(n)]
        key = (
            max(dists),
            sum(dists),
            tuple((reference[j].real, reference[j].imag) for j in perm),
        )
        if best_key is None or key < best_key:
            best_key, best_perm = key, perm
    return [(i, best_perm[i], abs(computed[i] - reference[best_perm[i]])) for i in range(n)]


class TestPairingRule:
    def test_random_sets_match_reference_rule(self):
        rng = random.Random(17)
        for _ in range(2000):
            n = rng.randint(1, 4)
            reference = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
            computed = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
            assert pair_roots(computed, reference) == _reference_pair_roots(computed, reference)

    def test_exact_ties_match_reference_rule(self):
        rng = random.Random(23)
        grid = [complex(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        ties = 0
        for _ in range(3000):
            n = rng.randint(2, 4)
            reference = [rng.choice(grid) for _ in range(n)]
            computed = [rng.choice(grid) for _ in range(n)]
            if rng.random() < 0.3:
                reference = [reference[0]] * n  # duplicate reference roots
            expected = _reference_pair_roots(computed, reference)
            assert pair_roots(computed, reference) == expected
            perms = list(permutations(range(n)))
            costs = [
                (max(d), sum(d))
                for d in ([abs(computed[i] - reference[p[i]]) for i in range(n)] for p in perms)
            ]
            ties += costs.count(min(costs)) > 1
        assert ties > 1000  # the tie-break decided a large share of these

    def test_equal_cost_matchings_take_the_lexicographic_reference_order(self):
        # Both matchings have max 1 and sum 2; the tie goes to the one whose
        # assigned reference roots come first in (re, im) order.
        computed = [0j, 0j]
        reference = [1 + 0j, -1 + 0j]
        assert pair_roots(computed, reference) == [(0, 1, 1.0), (1, 0, 1.0)]

    def test_five_roots_use_the_greedy_sweep(self):
        computed = [0j, 1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j]
        reference = [4.1 + 0j, 0.2 + 0j, 2.05 + 0j, 1.3 + 0j, 2.9 + 0j]
        pairs = pair_roots(computed, reference)
        assert [(i, j) for i, j, _ in pairs] == [(0, 1), (1, 3), (2, 2), (3, 4), (4, 0)]
        assert [d for _, _, d in pairs] == [abs(computed[i] - reference[j]) for i, j, _ in pairs]


class TestPairing:
    def test_identity_pairing(self):
        roots = [1 + 1j, 2 - 1j, -3 + 0j]
        pairs = pair_roots(roots, roots)
        assert [(i, j) for i, j, _ in pairs] == [(0, 0), (1, 1), (2, 2)]
        assert max(d for _, _, d in pairs) == 0.0
        assert pair_roots([], []) == []

    def test_permuted_reference(self):
        computed = [1 + 0j, 2 + 0j, 3 + 0j]
        reference = [3 + 0j, 1 + 0j, 2 + 0j]
        pairs = dict((i, j) for i, j, _ in pair_roots(computed, reference))
        assert pairs == {0: 1, 1: 2, 2: 0}

    def test_minimizes_maximum_distance(self):
        # A greedy closest-first match would pair 0.0 with 0.4 and be forced
        # into a distance of 1.4 for the remaining pair; the optimal matching
        # keeps the maximum at 1.0.
        computed = [0.0 + 0j, 1.0 + 0j]
        reference = [0.4 + 0j, -1.0 + 0j]
        pairs = pair_roots(computed, reference)
        assert max(d for _, _, d in pairs) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_roots([1 + 0j], [1 + 0j, 2 + 0j])
        with pytest.raises(ValueError):
            pair_roots([], [1j])

    def test_max_pairing_distance_value(self):
        assert max_pairing_distance([0j, 1 + 0j], [0j, 1.5 + 0j]) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "computed, reference",
        [
            ([1, 0], [1, math.nan]),
            ([1, math.nan], [1, 0]),
            ([1 + 0j, 0j], [1 + 0j, complex(math.nan, 0.0)]),
            ([1 + 0j, complex(0.0, math.nan)], [1 + 0j, 0j]),
        ],
    )
    def test_nan_distance_gives_nan(self, computed, reference):
        # max() alone skips a nan that does not come first.
        assert math.isnan(max_pairing_distance(computed, reference))

    def test_deterministic_under_ties(self):
        computed = [1 + 1j, 1 - 1j]
        reference = [1 - 1j, 1 + 1j]
        first = pair_roots(computed, reference)
        second = pair_roots(list(computed), list(reference))
        assert first == second


def _matched_max(computed, reference) -> float:
    """The largest distance :func:`pair_roots` matched; ``nan`` if any is."""
    distances = [d for *_, d in pair_roots(computed, reference)]
    if any(map(math.isnan, distances)):
        return math.nan
    return max(distances, default=0.0)


def _counting_pair_roots(monkeypatch) -> list[int]:
    calls: list[int] = []

    def counting(computed, reference):
        calls.append(len(computed))
        return pair_roots(computed, reference)

    monkeypatch.setattr(oracle, "pair_roots", counting)
    return calls


class TestMaxPairingDistanceShortcut:
    # max_pairing_distance answers n <= 4 from the row minima when the
    # nearest reference roots are distinct; the value must be the one the
    # full pairing gives, to the last bit.

    def test_random_sets_ties_and_non_finite_roots(self, monkeypatch):
        calls = _counting_pair_roots(monkeypatch)
        rng = random.Random(1717)
        grid = [complex(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        nan, inf = math.nan, math.inf
        special = [complex(nan, 0.0), complex(0.0, inf), complex(inf, inf), complex(-inf, 0.0)]
        cases = 6000
        for _ in range(cases):
            n = rng.randint(1, 5)
            kind = rng.randrange(4)
            if kind == 0:  # exact ties on a small grid
                computed = [rng.choice(grid) for _ in range(n)]
                reference = [rng.choice(grid) for _ in range(n)]
            else:
                computed = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
                reference = [c + complex(rng.gauss(0, 0.1), rng.gauss(0, 0.1)) for c in computed]
                rng.shuffle(reference)
            if kind == 1:  # duplicated roots
                reference[rng.randrange(n)] = reference[0]
                computed[rng.randrange(n)] = computed[0]
            if kind == 2:  # a non-finite root on either side
                side = rng.choice((computed, reference))
                side[rng.randrange(n)] = rng.choice(special)
            got = max_pairing_distance(computed, reference)
            assert repr(got) == repr(_matched_max(computed, reference)), (computed, reference)
        # Both the shortcut and the full pairing ran, the full one at every
        # size from 2 to 5.
        assert 1000 < len(calls) < cases
        assert {2, 3, 4, 5} <= set(calls)
        assert max_pairing_distance([], []) == 0.0

    @pytest.mark.parametrize("seed", [201, 202, 203])
    def test_solver_against_oracle_roots(self, seed):
        checked = 0
        for degree in (2, 3, 4):
            uniform = random.Random(f"{seed}-{degree}")
            wide = random.Random(f"{seed}-wide-{degree}")
            for _ in range(300):
                for coeffs in (
                    tuple(uniform.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,),
                    tuple(
                        wide.choice((-1.0, 1.0)) * 10.0 ** wide.uniform(-6.0, 6.0)
                        for _ in range(degree + 1)
                    ),
                ):
                    p = RealPolynomial(coeffs)
                    roots, reference = solve(p).roots, find_roots(p).roots
                    for a, b in ((roots, reference), (reference, roots)):
                        assert repr(max_pairing_distance(a, b)) == repr(_matched_max(a, b)), coeffs
                        checked += 1
        assert checked == 3600
