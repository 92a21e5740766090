"""Independent root finder used to cross-check the closed-form solver.

Exact zero roots are split off first: each trailing zero coefficient of the
monic polynomial is a root at ``0j``.  The other roots are iterated
simultaneously (Aberth-Ehrlich correction with a Durand-Kerner fallback where
the derivative vanishes), starting on Bini's Newton-polygon circles: one
circle per edge of the upper convex hull of ``(k, log|a_k|)``, with as many
points as the edge is long, at the root modulus the edge predicts.  The
sweeps are Gauss-Seidel (each root sees the roots already updated in the same
sweep), and a root freezes once its correction is within ``_TOLERANCE`` of
its own modulus, or is ``nan`` (nothing moves a ``nan`` root), or where the
fallback's product of root differences is 0.  A root of a multiple zero may
keep moving by far more than that, so after ``_LATE_SWEEPS`` sweeps a root
also freezes once its residual passes the convergence test below.  No
randomness, no retries: a run that fails to converge is reported as such.

A root converged when ``|p(z)| <= _TOLERANCE * scale * max(1, |z|)**n``, with
``scale`` the largest of 1 and the monic coefficients' moduli; where the
power leaves the float range it counts as inf, so a finite root that large
passes with any residual but ``nan``.

Apart from the input type ``RealPolynomial`` and its ``monic()``, no code is
shared with the closed-form solver.  Nothing in ``split_solver`` is called,
the Newton-polygon hull here is the oracle's own, and the Newton polish runs
its own value-and-derivative recurrence, separate from the solver's on
purpose: a bug on a path the two shared would show up in both results alike,
and the cross-check would not see it.

The Aberth sweep runs the same Horner recurrence inline, its first three
steps folded: the leading coefficient is ``1.0``, so they
give ``p' = 1+0j`` and ``p = z + a[n-1]``, then ``p' = z + p`` and
``p = p z + a[n-2]``.  Folded and full steps differ only in the signs of
zeros.  ``complex + float`` adds ``complex(c, 0.0)`` on CPython 3.13 and
earlier (3.14 adds to the real part alone, so recheck the fold there), so the
imaginary part of ``z + a[n-1]``, and of ``p'`` after the third step, is the
full recurrence's bit for bit; a real part can differ only where it is a
zero, for instance ``-0.0`` where ``a[n-1]`` and the real part of ``z`` are
``-0.0``.  Sums and products keep such a difference on zeros, and the last
step adds ``complex(a[0], 0.0)`` with ``a[0] != 0``, so ``p`` is the full
recurrence's bit for bit, and any zero part of it is ``+0.0``.  ``p'`` may
still differ in the sign of a zero part, and the sweep reads it only through
its truth and through ``p / p'``.  With one part of ``p'`` a zero and the
other not, CPython's division gives the same quotient but for the sign of a
zero imaginary part, and that only where ``p`` is purely imaginary, so that
``z`` is not real.  ``1.0 - newton * repulsion`` is the same either way, so
the correction too differs at most in the signs of zero parts, and
``z - correction`` drops those wherever the matching part of ``z`` is not a
zero.  Only a root on the imaginary axis whose correction has a zero real
part could come out differently, as the sign of that zero.  A non-finite
``z`` turns ``nan`` without the recurrence, as the full one makes it: its
first step's ``0j * z`` is ``nan`` in both parts, and so are ``p``, ``p'``
and the correction (folded, ``p`` could be ``inf`` and pass the late freeze).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import permutations

from .poly_core import RealPolynomial, _Record

# Roots closer than this count as one cluster when measuring separation.
CLUSTER_DISTANCE = 1e-3

# Angular offset of the starting circles; keeps guesses off the real axis
# where real-coefficient symmetry could stall the iteration.
_RING_PHASE = 0.4

# The iteration stops after _MAX_ITERATIONS sweeps, or once every root froze:
# a root freezes when its correction is not over _TOLERANCE * |z| (a nan
# correction included), and after _LATE_SWEEPS sweeps also when it already
# passes the convergence test.  A root converged when its residual is within
# _TOLERANCE * scale * max(1, |z|)**n.
# A cluster's radius is at least _CLUSTER_RADIUS_FLOOR.
_MAX_ITERATIONS = 200
_LATE_SWEEPS = 25
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


def _meets_tolerance(residual: float, z: complex, n: int, scale: float) -> bool:
    """Whether ``residual <= _TOLERANCE * scale * max(1, |z|)**n``; a power past the float range is inf."""
    try:
        power = max(1.0, abs(z)) ** n
    except OverflowError:
        # CPython 3.10-3.13 leaves errno at ERANGE here, and the next abs() of a
        # nan complex would read it and raise; abs() of a finite one resets it.
        abs(0j)
        power = math.inf
    return residual <= _TOLERANCE * scale * power


def _polish(coeffs_rev: tuple[float, ...], z: complex) -> tuple[complex, float]:
    """Newton steps accepted only while the residual strictly decreases.

    Returns the polished root and its residual ``|p(z)|``.  One Horner pass
    evaluates the start point, whose residual is always taken, then one each
    Newton candidate; a step reuses the evaluation that accepted its point.
    """
    candidate = z
    for step in range(_POLISH_STEPS + 1):
        cp = cdp = 0j
        for c in coeffs_rev:
            cdp = cdp * candidate + cp
            cp = cp * candidate + c
        r = abs(cp)
        if step and not r < best:
            break
        z, best, p, dp = candidate, r, cp, cdp
        if not dp or step == _POLISH_STEPS:
            break
        candidate = z - p / dp
        if candidate == z:  # a vanished step cannot lower the residual
            break
    return z, best


def _cluster_radii(roots: tuple[complex, ...]) -> tuple[float, ...]:
    n = len(roots)
    close = []
    for i in range(n):
        zi = roots[i]
        for j in range(i + 1, n):
            if abs(zi - roots[j]) < CLUSTER_DISTANCE:
                close.append((i, j))
    if not close:
        return (0.0,) * n

    # label[i] is the lowest index in root i's cluster.
    label = list(range(n))
    for i, j in close:
        low, high = sorted((label[i], label[j]))
        label = [low if x == high else x for x in label]

    radii = [0.0] * n
    for first in set(label):
        group = [i for i in range(n) if label[i] == first]
        if len(group) == 1:
            continue
        centroid = sum(roots[i] for i in group) / len(group)
        radius = max(abs(roots[i] - centroid) for i in group)
        radius = max(radius, _CLUSTER_RADIUS_FLOOR)
        for i in group:
            radii[i] = radius
    return tuple(radii)


@lru_cache(maxsize=256)
def _unit_factors(n: int, i: int, m: int) -> tuple[complex, ...]:
    """Unit start factors of the ``m`` roots of hull edge ``i -> i + m``, degree ``n``."""
    return tuple(
        cmath.rect(1.0, 2.0 * math.pi * (t / m + i / n) + _RING_PHASE) for t in range(m)
    )


def _start_points(coeffs: tuple[float, ...]) -> list[complex]:
    """Bini's Newton-polygon starting points for a monic polynomial with ``coeffs[0] != 0``.

    Each edge ``i -> j`` of the upper convex hull of ``(k, log|a_k|)`` gets
    ``j - i`` points on the circle of radius ``(|a_i| / |a_j|)^(1/(j - i))``,
    the root modulus that edge predicts (Bini, Numer. Algorithms 13, 1996, §3).
    """
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        y = math.log(abs(c))
        # Drop the last hull point while it lies on or below the chord to (k, y).
        while len(hull) >= 2:
            (i1, y1), (i2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (k - i1) <= (y - y1) * (i2 - i1):
                hull.pop()
            else:
                break
        hull.append((k, y))
    n = len(coeffs) - 1
    z: list[complex] = []
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        m = j - i
        radius = math.exp((yi - yj) / m)
        z += [radius * u for u in _unit_factors(n, i, m)]
    return z


@lru_cache(maxsize=64)
def _other_indices(n: int) -> tuple[tuple[int, ...], ...]:
    """For each ``k < n``, the indices ``j != k`` in ascending order."""
    return tuple(tuple(j for j in range(n) if j != k) for k in range(n))


def _aberth(coeffs: tuple[float, ...], scale: float) -> tuple[list[complex], int]:
    """Aberth-Ehrlich iteration on a monic polynomial of degree >= 2 with ``coeffs[0] != 0``.

    Gauss-Seidel sweeps: each root is updated in place, so the roots after it
    in the same sweep see its new value.  A root freezes once its correction
    is within ``_TOLERANCE`` of its own modulus or is ``nan``, or once ``p``,
    or the fallback's product of root differences, vanishes at it; after
    ``_LATE_SWEEPS`` sweeps it also freezes once ``|p|`` at it meets the
    convergence test, with ``scale`` the largest of 1 and ``|coeffs|``.  A
    root that is not finite turns ``nan`` and freezes.  Frozen roots still
    repel the others.  Returns the roots and the number of sweeps until every
    root froze, or ``_MAX_ITERATIONS``.
    """
    coeffs_rev = coeffs[::-1]
    c1, c2, tail = coeffs_rev[1], coeffs_rev[2], coeffs_rev[3:]
    z = _start_points(coeffs)
    n = len(z)
    others = _other_indices(n)
    tolerance = _TOLERANCE
    active = range(n)
    sweeps = 0
    while active and sweeps < _MAX_ITERATIONS:
        sweeps += 1
        late = sweeps > _LATE_SWEEPS
        still_active = []
        for k in active:
            zk = z[k]
            if zk - zk:  # zk not finite: p, p' and so z[k] turn nan (module docstring)
                z[k] = complex(math.nan, math.nan)
                continue
            # _polish's Horner recurrence inlined, its first three steps folded.
            pk = zk + c1
            dpk = zk + pk
            pk = pk * zk + c2
            for c in tail:
                dpk = dpk * zk + pk
                pk = pk * zk + c
            if not pk or late and _meets_tolerance(abs(pk), zk, n, scale):
                continue
            if dpk:
                repulsion = 0j
                for j in others[k]:
                    diff = zk - z[j]
                    if not diff:
                        diff = complex(1e-12 * (1.0 + abs(zk)), 0.0)
                    repulsion += 1.0 / diff
                newton = pk / dpk
                denom = 1.0 - newton * repulsion
                correction = newton / denom if denom else newton
            else:
                # Derivative vanished: fall back to the product correction.
                prod = complex(1.0, 0.0)
                for j in others[k]:
                    diff = zk - z[j]
                    if not diff:
                        diff = complex(1e-12 * (1.0 + abs(zk)), 0.0)
                    prod *= diff
                if not prod:
                    continue
                correction = pk / prod
            z[k] = zk - correction
            if abs(correction) > tolerance * abs(zk):
                still_active.append(k)
        active = still_active
    return z, sweeps


def find_roots(p: RealPolynomial) -> OracleResult:
    """Find all complex roots of ``p`` by simultaneous iteration.

    Deterministic: the same polynomial always produces bit-identical results.

    Finite input can still raise: ``ValueError`` for degree 0, or when a
    coefficient divided by the leading one overflows in ``monic()``;
    ``OverflowError`` when a modulus the iteration takes, such as ``|p(z)|``
    in the polish, is past the float range although its parts are finite.
    """
    if p.degree < 1:
        raise ValueError("find_roots requires degree >= 1")

    coeffs = p.monic().coefficients
    n = p.degree
    # The split-off coefficients are zeros, so the quotient has the same scale.
    scale = max(1.0, max(map(abs, coeffs)))

    # z^zeros divides p: those roots are exactly 0, and the rest are the
    # roots of the monic quotient.
    zeros = 0
    while coeffs[zeros] == 0.0:
        zeros += 1
    quotient = coeffs[zeros:]
    if len(quotient) > 2:
        z, iterations_used = _aberth(quotient, scale)
    else:  # nothing left, or the linear factor z + quotient[0]
        z, iterations_used = [complex(-c, 0.0) for c in quotient[:-1]], 0

    # Residual floor grows like |z|^n: evaluation rounding alone reaches
    # eps * scale * |z|^n, so the convergence test scales the same way.  A
    # zero root has residual 0 and always passes.
    coeffs_rev = coeffs[::-1]
    roots = []
    converged = True
    for w in z:
        w, residual = _polish(coeffs_rev, w)
        roots.append(w)
        converged = converged and _meets_tolerance(residual, w, n, scale)
    roots = tuple(roots) + (0j,) * zeros
    return OracleResult(
        roots=roots,
        iterations_used=iterations_used,
        converged=converged,
        cluster_radii=_cluster_radii(roots),
    )


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

        def cost(perm):
            row = [dists[i][j] for i, j in enumerate(perm)]
            # Ties broken by the lexicographic (re, im) order of the assigned
            # reference roots, so equal-cost matchings are stable.
            tie = tuple((reference[j].real, reference[j].imag) for j in perm)
            return max(row), sum(row), tie

        best = min(permutations(range(n)), key=cost)
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
    n = len(computed)
    if n <= 4 and n == len(reference):
        # No matching has a maximum below the largest row minimum, and sending
        # each computed root to its nearest reference root reaches it; when
        # those nearest roots are distinct, that is the optimal maximum.
        worst = 0.0
        nearest = set()
        for c in computed:
            row = [abs(c - r) for r in reference]
            if math.isnan(sum(row)):  # the distances are >= 0, so only a nan sums to nan
                break
            d = min(row)
            nearest.add(row.index(d))
            if d > worst:
                worst = d
        else:
            if len(nearest) == n:
                return worst
    distances = [d for _, _, d in pair_roots(computed, reference)]
    if any(map(cmath.isnan, distances)):
        return cmath.nan
    return max(distances, default=0.0)
