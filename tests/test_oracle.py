"""Unit tests for the iterative root oracle and root pairing."""

import math
import random
from itertools import permutations

import pytest

from splitroots import oracle
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


def _counting_horner(monkeypatch) -> list[complex]:
    """Record every point the oracle evaluates through ``horner_with_derivative``."""
    points: list[complex] = []

    def counting(coeffs_rev, z):
        points.append(z)
        return horner_with_derivative(coeffs_rev, z)

    monkeypatch.setattr(oracle, "horner_with_derivative", counting)
    return points


class TestHornerPasses:
    def test_polish_one_pass_per_point(self, monkeypatch):
        p = RealPolynomial((-3.1, 0.7, -2.0, 5.5, 1.25)).monic()
        coeffs_rev = tuple(reversed(p.coefficients))
        rng = random.Random(5)
        tried_more_than_start = 0
        for _ in range(200):
            z0 = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            points = _counting_horner(monkeypatch)
            z, residual = oracle._polish(coeffs_rev, z0)
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

    def test_find_roots_does_not_reevaluate_polished_roots(self, monkeypatch):
        for coeffs in ((6.0, -7.0, 0.0, 1.0), (-3.1, 0.7, -2.0, 5.5, 1.25), (2.0, 0.0, 1.0)):
            points = _counting_horner(monkeypatch)
            result = find_roots(RealPolynomial(coeffs))
            # The Aberth sweep has its own Horner loop; every pass left is
            # the polish, and a polished root was evaluated exactly once.
            assert len(set(points)) == len(points)
            assert all(points.count(z) == 1 for z in result.roots)
            assert len(points) <= 4 * len(result.roots)


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
