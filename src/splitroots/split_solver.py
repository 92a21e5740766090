"""Closed-form roots for degrees 2-4 by splitting the unknown over a root of unity.

Writing a candidate root as ``z = x + omega*y`` for a fixed unit complex
``omega`` and separating real and imaginary parts turns one complex equation
into a real two-equation system.  The systems used here:

* quadratic, ``omega = i``: the imaginary equation factors as ``y*(2x + a)``,
  giving the real pair (``y = 0``) and the conjugate pair (``x = -a/2``).
* cubic, ``omega = i`` (the "naive" split): eliminating ``y`` only reproduces
  a cubic in ``x`` (``8x^3 + 2ax - b = 0``), so the degree never drops.  The
  system is kept as a residual evaluator precisely because it fails.
* cubic, ``omega = (1 + i*sqrt(3))/2`` (a cube root of -1): the imaginary
  equation factors as ``y*(3x^2 + 3xy + a)``; the nontrivial branch collapses
  the real part to ``x^6 - b*x^3 - a^3/27 = 0``, a quadratic in ``x^3``.  The
  roots it generates are evaluated in real arithmetic (a real cube root, or
  a cosine when all three roots are real), so real roots are exactly real.
* quartic, ``omega = i``: the imaginary equation's nontrivial branch gives
  ``y^2 = x^2 + b/(4x) + a/2``; back-substitution yields a cubic resolvent in
  ``t = x^2``, and one positive resolvent root splits the quartic into the
  quadratic factors ``(w^2 - 2xw + beta0)(w^2 + 2xw + beta1)``, Newton-refined
  against the quartic's coefficients.

Where a cubic's or quartic's depression shift swamps its smallest moved-back
root, ``_undepress`` divides out the largest root and solves the quotient.

Degree 5 is where the approach stops paying off: the analogous elimination
no longer reduces the degree, so those inputs are rejected.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence

from .poly_core import (
    DepressedCubic,
    DepressedQuartic,
    RealPolynomial,
    RootSet,
    _Record,
    _depress_monic_cubic,
    _monic_coefficients,
    depress_cubic,
    depress_quartic,
    horner_abs,
    horner_with_derivative,
)

class SplitAnsatz(_Record):
    """The substitution ``z = x + omega*y`` for a fixed unit complex ``omega``.

    With ``x`` and ``y`` real, fixing ``omega`` turns one complex polynomial
    equation into a system of two real equations.
    """

    _fields = ("omega",)

    def __init__(self, omega: complex) -> None:
        self.__dict__["omega"] = omega

    def compose(self, x: float, y: float) -> complex:
        return complex(x + self.omega.real * y, self.omega.imag * y)

    def decompose(self, z: complex) -> tuple[float, float]:
        """Unique real ``(x, y)`` with ``z = x + omega*y`` (needs Im(omega) != 0)."""
        y = z.imag / self.omega.imag
        return z.real - self.omega.real * y, y


# omega = (1 + i*sqrt(3))/2, a primitive sixth root of unity with omega**3 == -1.
OMEGA_ANSATZ = SplitAnsatz(omega=complex(0.5, math.sqrt(3.0) / 2.0))
OMEGA = OMEGA_ANSATZ.omega
# 1 - OMEGA equals OMEGA.conjugate() exactly in floating point (0.5 and
# sqrt(3)/2 are both preserved by the subtraction).
ONE_MINUS_OMEGA = 1.0 - OMEGA
# Im(OMEGA) and arg(OMEGA), for the omega cubic's real forms.
_HALF_SQRT3 = OMEGA.imag
_THIRD_PI = math.pi / 3.0

# A root with |im| <= _IMAG_SNAP * |re| is snapped onto the real axis (in
# _finish) and counts as real when _undepress divides it out.
_IMAG_SNAP = 1e-8
# Newton polish runs only when the residual exceeds _POLISH_TRIGGER * scale.
_POLISH_TRIGGER = 1e-12
# The quartic tries a further resolvent root while its best factors miss the
# coefficients by more than this many units of roundoff (_EPS).
_FACTOR_ULPS = 4.0
_EPS = 2.0**-53
# A root of a cubic or quartic under this fraction of the depression shift
# has lost its digits to the shift; _undepress then deflates the polynomial.
_DEFLATE_BELOW = 1e-3

# Branch tags that depend on a branch sign or a resolvent root index, built
# once rather than formatted on every solve.  _RESOLVENT_TAGS[j] tags the roots
# of resolvent root j's two factors in x+y+, x+y-, x-y+, x-y- order.
_OMEGA_TAGS = {sign: tuple(f"omega-branch-{k}:{sign}" for k in range(3)) for sign in "+-"}
_RESOLVENT_TAGS = tuple(
    tuple(f"resolvent-root-{j}:{x}:{y}" for x in ("x+", "x-") for y in ("y+", "y-")) for j in range(3)
)


class UnsupportedDegreeError(ValueError):
    """Raised for degrees where splitting stops reducing the problem."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(
            f"degree {degree} is not supported: for degree 5 and above the "
            "split into real systems does not give any appreciable help, so "
            "no closed form is attempted"
        )


# ---------------------------------------------------------------------------
# split-system residual evaluators: each returns the pair (real, imag)
# ---------------------------------------------------------------------------


def quadratic_split_residual(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """System for ``z**2 + a*z + b`` at ``z = x + i*y``."""
    return x * x - y * y + a * x + b, 2.0 * x * y + a * y


def cubic_naive_split_residual(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """Naive split of ``z**3 + a*z + b`` at ``z = x + i*y``.

    The imaginary part is written here as ``y**3 - 3*x**2*y - a*y``, which is
    the negation of ``Im((x+iy)**3 + a*(x+iy) + b)``; both vanish on the same
    set, so the system's zeros are unchanged.
    """
    return (
        x * x * x - 3.0 * x * y * y + a * x + b,
        y * y * y - 3.0 * x * x * y - a * y,
    )


def cubic_omega_split_residual(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """Split of ``z**3 + a*z + b`` at ``z = x + omega*y``, omega a cube root of -1.

    The real part equals ``Re(p(x + omega*y))`` exactly; the imaginary part is
    stated without its overall factor: ``Im(p(x + omega*y))`` is ``sqrt(3)/2``
    times it.
    """
    real = (
        x * x * x
        - y * y * y
        + 1.5 * x * x * y
        - 1.5 * x * y * y
        + a * x
        + 0.5 * a * y
        + b
    )
    return real, 3.0 * x * y * y + 3.0 * x * x * y + a * y


def quartic_split_residual(a: float, b: float, c: float, x: float, y: float) -> tuple[float, float]:
    """System for ``z**4 + a*z**2 + b*z + c`` at ``z = x + i*y``."""
    x2 = x * x
    y2 = y * y
    return (
        x2 * x2 + y2 * y2 - 6.0 * x2 * y2 + a * x2 - a * y2 + b * x + c,
        4.0 * x2 * x * y - 4.0 * x * y2 * y + 2.0 * a * x * y + b * y,
    )


def naive_cubic_reduction(a: float, b: float) -> tuple[float, float, float]:
    """Eliminate ``y`` from the naive cubic split: ``8x^3 + 2ax - b = 0``.

    Returns ``(c3, c1, c0)``, still a cubic in ``x`` - the negative result
    that motivates the omega ansatz.  The coefficients are exact in floating
    point.
    """
    return 8.0, 2.0 * a, -b


def omega_decompose(z: complex) -> tuple[float, float]:
    """Unique real ``(x, y)`` with ``z = x + OMEGA*y``."""
    return OMEGA_ANSATZ.decompose(z)


def quartic_resolvent_coefficients(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """Monic resolvent cubic in ``t = x**2``, coefficients highest power first."""
    return (1.0, 0.5 * a, a * a / 16.0 - 0.25 * c, -b * b / 64.0)


# ---------------------------------------------------------------------------
# shared numeric helpers
# ---------------------------------------------------------------------------


def _polish_root(
    coeffs_rev: tuple[float, ...], z: complex, scale: float, residual: float
) -> tuple[complex | float, float]:
    # Newton steps from a root whose residual |p(z)| is over the trigger
    # (_finish calls it for no other), each kept only if the residual drops;
    # a kept step's evaluation supplies the next value and derivative.  A real
    # root steps in real arithmetic and is returned as a float (see _finish).
    if z.imag == 0.0:
        z = z.real
    value, deriv = horner_with_derivative(coeffs_rev, z)
    for _ in range(8):
        if deriv == 0:
            break
        candidate = z - value / deriv
        candidate_value, candidate_deriv = horner_with_derivative(coeffs_rev, candidate)
        r = abs(candidate_value)
        if r < residual:
            z, residual = candidate, r
            value, deriv = candidate_value, candidate_deriv
        else:
            break
        if residual <= _POLISH_TRIGGER * scale:
            break
    return z, residual


def _finish(
    coeffs_rev: tuple[float, ...], scale: float, roots: Sequence[complex], tags: Sequence[str]
) -> RootSet:
    # Polish the roots over the trigger (few are), snap near-real roots onto
    # the real axis, normalize -0.0 components and build the RootSet through
    # _trusted (complex roots, float residuals).  Each residual is horner_abs's
    # to the bit (see there): a real root's takes real Horner steps unless it
    # overflows (then horner_abs's inf or nan is reported), and the second of an
    # exactly conjugate pair reuses the first's.  A float from _polish_root, or a
    # root with a zero part, is normalized by complex(x + 0.0, im + 0.0) below.
    trigger = _POLISH_TRIGGER * scale
    isfinite = math.isfinite
    out_roots: list[complex] = []
    out_residuals: list[float] = []
    prev_x = prev_im = prev_res = math.nan
    for z in roots:
        x, im = z.real, z.imag
        if im == 0.0:
            v = 0.0
            for c in coeffs_rev:
                v = v * x + c
            residual = abs(v) if isfinite(v) else horner_abs(coeffs_rev, z)
        else:
            residual = prev_res if x == prev_x and im == -prev_im else horner_abs(coeffs_rev, z)
        prev_x, prev_im, prev_res = x, im, residual
        if residual > trigger:
            z, residual = _polish_root(coeffs_rev, z, scale, residual)
            x, im = z.real, z.imag
        if im == 0.0 or x == 0.0:
            z = complex(x + 0.0, im + 0.0)
        elif abs(im) <= _IMAG_SNAP * abs(x):
            z = complex(x, 0.0)
            residual = horner_abs(coeffs_rev, z)
        out_roots.append(z)
        out_residuals.append(residual)
    return RootSet._trusted(tuple(out_roots), tuple(out_residuals), tuple(tags))


def _real_cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


# ---------------------------------------------------------------------------
# closed-form solvers
# ---------------------------------------------------------------------------


def _quadratic_roots(a: float, b: float) -> tuple[tuple[complex, complex], tuple[str, str]]:
    # Roots of z**2 + a*z + b, the x + s (or x + i*y) branch first, and tags.
    # A real pair's cancellation-prone root comes from b = r_plus * r_minus.
    # When x*x - b overflows, sqrt(x*x - b) is taken as |x| * sqrt(1 - b/x^2).
    x = -0.5 * a
    disc = x * x - b
    if disc >= 0.0:
        s = math.sqrt(disc) if disc != math.inf else abs(x) * math.sqrt(1.0 - b / x / x)
        if x >= 0.0:
            r_plus = x + s
            r_minus = b / r_plus if r_plus != 0.0 else x - s
        else:
            r_minus = x - s
            r_plus = b / r_minus if r_minus != 0.0 else x + s
        roots = complex(r_plus, 0.0), complex(r_minus, 0.0)
        return roots, ("trivial-imaginary-branch:+", "trivial-imaginary-branch:-")
    y = math.sqrt(b - x * x)
    return (complex(x, y), complex(x, -y)), ("conjugate-branch:+", "conjugate-branch:-")


def solve_quadratic(a: float, b: float) -> RootSet:
    """Roots of ``z**2 + a*z + b`` from the two branches of the split system.

    The imaginary equation ``y*(2x + a) = 0`` either forces ``y = 0`` (two
    real roots, imaginary part exactly zero) or ``x = -a/2`` (a conjugate
    pair with ``y = sqrt(b - a**2/4)``).
    """
    roots, tags = _quadratic_roots(a, b)
    # max(1.0, abs(a), abs(b)), nan handling included, without the call.
    scale = abs(a) if abs(a) > 1.0 else 1.0
    if abs(b) > scale:
        scale = abs(b)
    return _finish((1.0, a, b), scale, roots, tags)


def _omega_cubic(a: float, b: float) -> tuple[list[complex], tuple[str, ...]]:
    """Unpolished roots of ``w**3 + a*w + b`` and their branch tags.

    On the nontrivial branch ``y = -x - a/(3x)`` the omega system collapses to
    ``x^6 - b*x^3 - a^3/27 = 0``; one quadratic-formula branch for ``x^3``
    plus its three cube roots already generate all three roots through
    ``w = (1 - omega)*x - omega*a/(3x)``.  The formula is evaluated in real
    arithmetic, so a real root has imaginary part exactly 0.0 and a complex
    pair is exactly conjugate.  ``omega-branch-k`` is the root from the k-th
    cube root of ``x^3`` in ``cmath.polar`` angle order, ``(arg(x^3) +
    2*pi*k)/3``:

    * ``x^3`` real (``disc = b^2/4 + a^3/27 >= 0``): ``b/2 + sqrt(disc)``
      (``:+``) if ``b >= 0``, else ``b/2 - sqrt(disc)`` (``:-``), the branch
      that does not cancel.  With ``r`` its real cube root and ``u = a/(3r)``,
      the real root is ``u - r`` (k = 2 when ``x^3 > 0``, k = 0 when ``x^3 <
      0``) and the pair is ``-(u - r)/2 -+ i*(sqrt(3)/2)*(r + u)``, in order.
    * ``x^3`` complex (``disc < 0``, three real roots, ``:+``): the root from
      ``x = |x|*e^(i*phi)``, ``|x|^2 = -a/3``, is ``2|x|*cos(phi - pi/3)``.

    A small root that cancels in these forms comes from the product of the
    roots, ``-b``, instead.
    """
    if a == 0.0:
        if b == 0.0:
            return [0j, 0j, 0j], ("triple-zero",) * 3
        # w**3 = -b: take the real cube root exactly, rotate for the pair.
        r = _real_cbrt(-b)
        rot = complex(-0.5, _HALF_SQRT3)
        roots = [complex(r, 0.0), r * rot, r * rot.conjugate()]
        return roots, ("cube-root-0", "cube-root-1", "cube-root-2")

    disc = 0.25 * b * b + a * a * a / 27.0
    if disc < 0.0:
        # arg(x^3) lies in (0, pi), so root 1, the middle one, is the
        # smallest and the one the cosine would cancel.
        f = 2.0 * math.sqrt(-a / 3.0)
        phi = math.atan2(math.sqrt(-disc), 0.5 * b) / 3.0
        w0 = f * math.cos(phi - _THIRD_PI)
        w2 = -f * math.cos(phi)
        return [complex(w0, 0.0), complex(-b / (w0 * w2), 0.0), complex(w2, 0.0)], _OMEGA_TAGS["+"]

    sqrt_disc = math.sqrt(disc)
    x_cubed, branch = (0.5 * b + sqrt_disc, "+") if b >= 0.0 else (0.5 * b - sqrt_disc, "-")
    if abs(x_cubed) < 1e-300:
        # Both branches vanished: b ~ 0 and a**3 underflowed, so the equation
        # is effectively w*(w**2 + a) = 0; solve that form directly.
        r = cmath.sqrt(complex(-a, 0.0))
        tags = ("near-origin-degenerate:0", "near-origin-degenerate:1", "near-origin-degenerate:2")
        return [complex(0.0, 0.0), r, -r], tags

    r = _real_cbrt(x_cubed)
    u = a / 3.0 / r
    real = u - r
    if 3.0 * abs(real) < abs(r + u):
        # u - r has lost a bit or more; the real root times |pair|^2 =
        # r*r + r*u + u*u is -b, and that sum does not cancel.
        real = -b / (r * r + r * u + u * u)
    x, y = -0.5 * real, _HALF_SQRT3 * (r + u)
    if x_cubed > 0.0:
        return [complex(x, -y), complex(x, y), complex(real, 0.0)], _OMEGA_TAGS[branch]
    return [complex(real, 0.0), complex(x, -y), complex(x, y)], _OMEGA_TAGS[branch]


def solve_depressed_cubic(dc: DepressedCubic) -> tuple[list[complex], tuple[str, ...]]:
    """Unpolished roots of ``w**3 + a*w + b`` via the omega ansatz, and their tags."""
    return _omega_cubic(dc.a, dc.b)


def _refine_resolvent_root(r2: float, r1: float, r0: float, t: float) -> float:
    """Newton-refine a real root of ``t**3 + r2*t**2 + r1*t + r0``.

    The depression shift behind the resolvent's roots cancels when a root is
    tiny; Newton steps on the cubic itself restore its relative accuracy.  A
    step is kept only if the cubic's value falls.
    """
    v = ((t + r2) * t + r1) * t + r0
    for _ in range(6):
        d = (3.0 * t + 2.0 * r2) * t + r1
        new_t = t - v / d if d != 0.0 else t
        new_v = ((new_t + r2) * new_t + r1) * new_t + r0
        if not abs(new_v) < abs(v) and (d == 0.0 or abs(new_t - t) > 1e-8 * abs(t)):
            # A long step overshot from next to a near-double root, where the
            # slope nearly vanishes, or the slope is 0.0 (t at a double root
            # of the rounded cubic): go to the local quadratic's nearer root.
            disc = d * d - 4.0 * (3.0 * t + r2) * v
            if disc > 0.0:
                new_t = t - 2.0 * v / (d + math.copysign(math.sqrt(disc), d))
                new_v = ((new_t + r2) * new_t + r1) * new_t + r0
        if not abs(new_v) < abs(v):
            break
        t, v = new_t, new_v
    return t


def _quartic_factors(a: float, b: float, c: float, t: float) -> tuple[float, float, float, float]:
    """``(error, alpha, beta0, beta1)`` factoring ``w**4 + a*w**2 + b*w + c``
    as ``(w**2 - alpha*w + beta0) * (w**2 + alpha*w + beta1)``.

    A positive resolvent root ``t`` gives ``alpha = 2x`` and ``beta = 2t + a/2
    +- b/(4x)``, the smaller beta through ``beta0*beta1 = c``.  Newton steps on
    the coefficient equations refine them, each kept only if ``error`` falls:
    the equations' summed errors, each relative to the magnitude of its terms.
    """
    alpha = 2.0 * math.sqrt(t)
    q = b / (2.0 * alpha)
    beta0, beta1 = 2.0 * t + 0.5 * a + q, 2.0 * t + 0.5 * a - q
    if abs(beta0) >= abs(beta1):
        beta1 = c / beta0 if beta0 != 0.0 else beta1
    else:
        beta0 = c / beta1
    m1 = alpha * alpha + abs(beta0) + abs(beta1) + abs(a)
    m2 = alpha * (abs(beta0) + abs(beta1)) + abs(b)
    m3 = abs(beta0 * beta1) + abs(c) or 1.0
    best = None
    for _ in range(5):
        e1 = beta0 + beta1 - alpha * alpha - a
        e2 = alpha * (beta0 - beta1) - b
        e3 = beta0 * beta1 - c
        error = abs(e1) / m1 + abs(e2) / m2 + abs(e3) / m3
        if best is not None and not error < best[0]:
            break
        best = (error, alpha, beta0, beta1)
        d, s = beta0 - beta1, beta0 + beta1
        det = 2.0 * alpha * alpha * s + d * d
        if error <= _EPS or det == 0.0:
            break
        # Cramer's rule on J * step = -e, J = [[-2 alpha, 1, 1], [d, alpha,
        # -alpha], [0, beta1, beta0]] with d = beta0 - beta1, det J = -det.
        alpha_e3 = alpha * e3
        beta0 += (d * (e3 - beta0 * e1) - 2.0 * alpha * (beta0 * e2 + alpha_e3)) / det
        beta1 += (d * (beta1 * e1 - e3) + 2.0 * alpha * (beta1 * e2 - alpha_e3)) / det
        alpha += (alpha * s * e1 - d * e2 - 2.0 * alpha_e3) / det
    return best


def solve_depressed_quartic(dq: DepressedQuartic) -> tuple[list[complex], tuple[str, ...]]:
    """Unpolished roots of ``w**4 + a*w**2 + b*w + c`` and their tags.

    The split's ``y**2 = x**2 + b/(4x) + a/2`` makes ``t = x**2`` a root of
    the resolvent cubic, and each positive ``t`` splits the quartic into
    factors with roots ``x +- i*y`` and ``-x +- i*y'``.  The largest
    resolvent root is positive (the resolvent is ``-b**2/64`` at 0); the next
    positive roots are tried only while the factors' error stays above a few
    ulps, and the roots of the factors with the smallest error are returned.
    """
    a, b, c = dq.a, dq.b, dq.c
    if abs(b) <= 1e-14 * max(1.0, abs(a), abs(b), abs(c)):
        # Even quartic: w**2 solves u**2 + a*u + c = 0, whose roots are
        # polished first: unpolished ones raise the quartic's residuals.
        roots = []
        for u in solve_quadratic(a, c).roots:
            s = cmath.sqrt(u)
            roots.extend([s, -s])
        return roots, ("biquadratic-0:+", "biquadratic-0:-", "biquadratic-1:+", "biquadratic-1:-")

    # quartic_resolvent_coefficients and _depress_monic_cubic, written out.
    r2, r1, r0 = 0.5 * a, a * a / 16.0 - 0.25 * c, -b * b / 64.0
    if not (math.isfinite(r0) and math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError(f"resolvent coefficients must be finite, got {(1.0, r2, r1, r0)!r}")
    # The resolvent's real roots, largest first, are those whose imaginary
    # part is rounding next to the largest root.
    s = r2 / 3.0
    s2 = s * s
    ra = r1 - 3.0 * s2
    (t0, t1, t2), _ = _omega_cubic(ra, r0 - s * (ra + s2))
    t0, t1, t2 = t0 - s, t1 - s, t2 - s
    cut = 1e-7 * max(1.0, abs(t0), abs(t1), abs(t2))
    candidates = [(t0.real, 0)] if abs(t0.imag) <= cut else []
    if abs(t1.imag) <= cut:
        candidates.append((t1.real, 1))
    if abs(t2.imag) <= cut:
        candidates.append((t2.real, 2))
    if len(candidates) > 1:
        candidates.sort(reverse=True)
    # The factors stay nan only when the resolvent's roots overflow.
    best, best_j = (math.inf, math.nan, math.nan, math.nan), 0
    for t, j in candidates:
        t = _refine_resolvent_root(r2, r1, r0, t)
        if t > 0.0:
            factors = _quartic_factors(a, b, c, t)
            if factors[0] < best[0]:
                best, best_j = factors, j
                if best[0] <= _FACTOR_ULPS * _EPS:
                    break
    _, alpha, beta0, beta1 = best
    (z0, z1), _ = _quadratic_roots(-alpha, beta0)
    (z2, z3), _ = _quadratic_roots(alpha, beta1)
    return [z0, z1, z2, z3], _RESOLVENT_TAGS[best_j]


def _undepress(
    coeffs: tuple[float, ...], roots: Sequence[complex], tags: Sequence[str], shift: float
) -> tuple[Sequence[complex], Sequence[str]]:
    """Moved-back depressed ``roots`` and their ``tags``, deflated where ``shift`` swamps one.

    ``coeffs`` is the cubic or quartic, constant first.  Where the shift
    swamps the smallest root, the largest root (and its conjugate) is kept and
    divided out of the monic form constant term first, which damps its error
    (backward deflation); the quotient is solved in closed form, a cubic one
    through this same step.  Each root keeps the tag of the branch that
    produced it; a cubic's real root left by its largest pair is ``-c[0]``
    over the pair's product, and keeps its own tag.  ``roots`` and ``tags``
    are returned as given when the shift swamps no root, the largest root's
    square is not a normal float, or a deflated root is not finite.
    """
    small = _DEFLATE_BELOW * abs(shift)
    # roots[-1] is a quartic's fourth root, or a cubic's third again.
    if not (abs(roots[0]) < small or abs(roots[1]) < small or abs(roots[2]) < small or abs(roots[-1]) < small):
        return roots, tags
    c = _monic_coefficients(coeffs)
    k = max(range(len(roots)), key=lambda j: abs(roots[j]))
    r = roots[k]
    if not 1e-150 < abs(r) < 1e150:
        return roots, tags
    if abs(r.imag) <= _IMAG_SNAP * abs(r.real):
        x = r.real
        kept, kept_tags = [complex(x, 0.0)], (tags[k],)
        q = [-c[0] / x]
        for ck in c[1:-2]:
            q.append((q[-1] - ck) / x)
    else:
        m = min((j for j in range(len(roots)) if j != k), key=lambda j: abs(roots[j] - r.conjugate()))
        kept, kept_tags = [r, r.conjugate()], (tags[k], tags[m])
        u, v = -2.0 * r.real, r.real * r.real + r.imag * r.imag
        q = [c[0] / v]
        if len(c) == 5:
            q.append((c[1] - u * q[0]) / v)
    if len(q) == 1:
        # A cubic's third root; its index is the one k and m leave.
        rest, rest_tags = [complex(-q[0], 0.0)], (tags[3 - k - m],)
    elif len(q) == 2:
        rest, rest_tags = _quadratic_roots(q[1], q[0])
    else:
        a, b, s = _depress_monic_cubic(q[2], q[1], q[0])
        (w0, w1, w2), rest_tags = _omega_cubic(a, b)
        rest, rest_tags = _undepress((*q, 1.0), (w0 - s, w1 - s, w2 - s), rest_tags, s)
    if not all(map(cmath.isfinite, rest)):
        return roots, tags
    return [*kept, *rest], (*kept_tags, *rest_tags)


def solve(p: RealPolynomial) -> RootSet:
    """Roots of ``p`` (degrees 1-4) with residuals against ``p`` itself.

    Cubics and quartics are depressed first and solved through the split
    systems; their branch roots are moved back here, deflated by
    :func:`_undepress`, and polished once, against the original
    polynomial.  A monic quadratic's roots are returned
    as :func:`solve_quadratic` gives them: it already polished and scored
    them against the same coefficients.  Raises ``ValueError`` (degree 0 or
    over 4, or an overflowing intermediate such as the monic form) and
    ``OverflowError`` (a finite root's ``|p(z)|`` past the float range).
    """
    coeffs = p.coefficients
    degree = len(coeffs) - 1
    if degree == 3:
        dep = depress_cubic(p)
        (w0, w1, w2), tags = solve_depressed_cubic(dep)
        shift = dep.shift
        roots, tags = _undepress(coeffs, (w0 - shift, w1 - shift, w2 - shift), tags, shift)
    elif degree == 4:
        dep = depress_quartic(p)
        (w0, w1, w2, w3), tags = solve_depressed_quartic(dep)
        shift = dep.shift
        roots, tags = _undepress(coeffs, (w0 - shift, w1 - shift, w2 - shift, w3 - shift), tags, shift)
    elif degree == 2:
        b, a, _ = _monic_coefficients(coeffs)
        inner = solve_quadratic(a, b)
        if coeffs[-1] == 1.0:
            return inner
        # Polished again against p below.  Polishing a non-monic quadratic
        # only once, against p, raised lib-wide degree-2 failures from 137
        # to 156 (seeds 1001-1020, 1000 polynomials per degree).
        roots, tags = inner.roots, inner.branch_tags
    elif degree == 1:
        roots, tags = [complex(-_monic_coefficients(coeffs)[0], 0.0)], ("linear",)
    elif degree == 0:
        raise ValueError("a degree-0 polynomial has no roots to solve for")
    else:
        raise UnsupportedDegreeError(degree)

    # max(1.0, max |c|) for finite c; on Python 3.11 one max() costs this loop.
    scale = 1.0
    for c in coeffs:
        if c > scale:
            scale = c
        elif -c > scale:
            scale = -c
    return _finish(coeffs[::-1], scale, roots, tags)
