"""Independent root finder used to cross-check the closed-form solver.

All roots are iterated simultaneously (Aberth-Ehrlich correction with a
Durand-Kerner fallback where the derivative vanishes), starting from a
deterministic ring of initial guesses.  No randomness, no retries: a run
that fails to converge is reported as such.

Apart from the input type ``RealPolynomial`` and its ``monic()``, the only
code shared with the closed-form solver is ``poly_core.horner_with_derivative``,
which the Newton polish calls (the Aberth sweep runs the same recurrence
inline).  Nothing in ``split_solver`` is called, and the polish here is
separate from the solver's on purpose: a bug on a path the two shared would
show up in both results alike, and the cross-check would not see it.
"""

from __future__ import annotations

import cmath
from itertools import permutations

from .poly_core import RealPolynomial, _Record, horner_with_derivative

# Roots closer than this count as one cluster when measuring separation.
CLUSTER_DISTANCE = 1e-3

# Angular offset of the initial ring; keeps guesses off the real axis where
# real-coefficient symmetry could stall the iteration.
_RING_PHASE = 0.4

# The iteration stops after _MAX_ITERATIONS sweeps, or once no step exceeds
# _TOLERANCE * (1 + max|z|); a root converged when its residual is within
# _TOLERANCE * scale * max(1, |z|)**n.  A cluster's radius is at least
# _CLUSTER_RADIUS_FLOOR.
_MAX_ITERATIONS = 200
_TOLERANCE = 1e-13
_CLUSTER_RADIUS_FLOOR = 1e-7

# Newton steps in the final polish of each root.
_POLISH_STEPS = 3


class OracleResult(_Record):
    _fields = ("roots", "iterations_used", "converged", "cluster_radii")

    def __init__(self, roots, iterations_used: int, converged: bool, cluster_radii) -> None:
        d = self.__dict__
        d["roots"], d["iterations_used"], d["converged"], d["cluster_radii"] = (
            roots, iterations_used, converged, cluster_radii
        )


def _polish(coeffs_rev: tuple[float, ...], z: complex) -> tuple[complex, float]:
    """Newton steps accepted only while the residual strictly decreases.

    Returns the polished root and its residual ``|p(z)|``.  A step reuses the
    evaluation that accepted its point, so the cost is one Horner pass at the
    start plus one per candidate tried.
    """
    p, dp = horner_with_derivative(coeffs_rev, z)
    best = abs(p)
    for _ in range(_POLISH_STEPS):
        if dp == 0:
            break
        candidate = z - p / dp
        if candidate == z:  # a vanished step cannot lower the residual
            break
        cp, cdp = horner_with_derivative(coeffs_rev, candidate)
        r = abs(cp)
        if r < best:
            z, best, p, dp = candidate, r, cp, cdp
        else:
            break
    return z, best


def _cluster_radii(roots: tuple[complex, ...], floor: float) -> tuple[float, ...]:
    n = len(roots)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < CLUSTER_DISTANCE:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    members: dict[int, list[int]] = {}
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


def find_roots(p: RealPolynomial) -> OracleResult:
    """Find all complex roots of ``p`` by simultaneous iteration.

    Deterministic: the same polynomial always produces bit-identical results.
    """
    if p.degree < 1:
        raise ValueError("find_roots requires degree >= 1")

    coeffs = p.monic().coefficients
    n = p.degree
    coeffs_rev = tuple(reversed(coeffs))
    scale = max(1.0, max(abs(c) for c in coeffs))

    if n == 1:
        root = complex(-coeffs[0], 0.0)
        residual = abs(horner_with_derivative(coeffs_rev, root)[0])
        return OracleResult(
            roots=(root,),
            iterations_used=0,
            converged=residual <= _TOLERANCE * scale,
            cluster_radii=(0.0,),
        )

    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    z = [radius * cmath.exp(1j * (2.0 * cmath.pi * k / n + _RING_PHASE)) for k in range(n)]

    iterations_used = 0
    for _ in range(_MAX_ITERATIONS):
        iterations_used += 1
        new_z = list(z)
        max_step = 0.0
        for k, zk in enumerate(z):
            # horner_with_derivative inlined: the same operations in the same order.
            pk = dpk = 0j
            for c in coeffs_rev:
                dpk = dpk * zk + pk
                pk = pk * zk + c
            if pk == 0:
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
                # Derivative vanished: fall back to the product correction.
                prod = complex(1.0, 0.0)
                for j in range(n):
                    if j == k:
                        continue
                    diff = zk - z[j]
                    if diff == 0:
                        diff = complex(1e-12 * (1.0 + abs(zk)), 0.0)
                    prod *= diff
                correction = pk / prod
            new_z[k] = zk - correction
            step = abs(correction)
            if step > max_step:
                max_step = step
        z = new_z
        if max_step <= _TOLERANCE * (1.0 + max(map(abs, z))):
            break

    z, residuals = zip(*[_polish(coeffs_rev, w) for w in z])
    # Residual floor grows like |z|^n: evaluation rounding alone reaches
    # eps * scale * |z|^n, so the convergence check must scale the same way.
    converged = all(
        r <= _TOLERANCE * scale * max(1.0, abs(w)) ** n for r, w in zip(residuals, z)
    )
    return OracleResult(
        roots=z,
        iterations_used=iterations_used,
        converged=converged,
        cluster_radii=_cluster_radii(z, _CLUSTER_RADIUS_FLOOR),
    )


def _tie_key(reference, perm: tuple[int, ...]) -> tuple[tuple[float, float], ...]:
    return tuple((reference[j].real, reference[j].imag) for j in perm)


def pair_roots(
    computed: list[complex] | tuple[complex, ...],
    reference: list[complex] | tuple[complex, ...],
) -> list[tuple[int, int, float]]:
    """Match computed roots to reference roots one-to-one.

    Returns ``(computed_index, reference_index, distance)`` triples.  For up
    to four roots the assignment minimizing the maximum distance (then the
    total distance) is found exhaustively; larger inputs fall back to a
    deterministic greedy closest-pair sweep.
    """
    if len(computed) != len(reference):
        raise ValueError(
            f"cannot pair {len(computed)} computed roots with {len(reference)} reference roots"
        )
    n = len(computed)
    if n == 0:
        return []

    if n <= 4:
        # dists[i][j]: computed root i to reference root j, each computed once.
        dists = [[abs(c - r) for r in reference] for c in computed]
        perms = permutations(range(n))
        best = next(perms)
        row = [dists[i][j] for i, j in enumerate(best)]
        best_max, best_sum = max(row), sum(row)
        for perm in perms:
            # The running maximum, updated as max() does; the permutation is
            # dropped as soon as it exceeds the best maximum so far.
            m = dists[0][perm[0]]
            if m > best_max:
                continue
            for i in range(1, n):
                d = dists[i][perm[i]]
                if d > m:
                    if d > best_max:
                        break
                    m = d
            else:
                if not m <= best_max:  # nan compares false
                    continue
                s = sum([dists[i][j] for i, j in enumerate(perm)])
                # Ties broken by the lexicographic (re, im) order of the
                # assigned reference roots, so equal-cost matchings are stable.
                if (
                    m < best_max
                    or s < best_sum
                    or (s == best_sum and _tie_key(reference, perm) < _tie_key(reference, best))
                ):
                    best, best_max, best_sum = perm, m, s
        return [(i, j, dists[i][j]) for i, j in enumerate(best)]

    edges = sorted(
        (abs(computed[i] - reference[j]), i, j) for i in range(n) for j in range(n)
    )
    used_i: set[int] = set()
    used_j: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for dist, i, j in edges:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        pairs.append((i, j, dist))
        if len(pairs) == n:
            break
    pairs.sort(key=lambda t: t[0])
    return pairs


def max_pairing_distance(
    computed: list[complex] | tuple[complex, ...],
    reference: list[complex] | tuple[complex, ...],
) -> float:
    """Largest matched distance under :func:`pair_roots`; ``nan`` if any distance is."""
    distances = [d for _, _, d in pair_roots(computed, reference)]
    if any(map(cmath.isnan, distances)):
        return cmath.nan
    return max(distances, default=0.0)
