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
  the real part to ``x^6 - b*x^3 - a^3/27 = 0``, a quadratic in ``x^3``.
* quartic, ``omega = i``: the imaginary equation's nontrivial branch gives
  ``y^2 = x^2 + b/(4x) + a/2``; back-substitution yields a cubic resolvent in
  ``t = x^2``.

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

# A root with |im| <= _IMAG_SNAP * max(1, |re|) is snapped onto the real axis
# (in _settle).
_IMAG_SNAP = 1e-8
# Newton polish runs only when the residual exceeds _POLISH_TRIGGER * scale.
_POLISH_TRIGGER = 1e-12

# Branch tags that depend on a branch sign or a resolvent root index, built
# once rather than formatted on every solve.  _RESOLVENT_TAGS[j] tags resolvent
# root j's candidate roots in x+y+, x+y-, x-y+, x-y- order.
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


class SplitResidual(_Record):
    """Real and imaginary parts of a split system evaluated at a point."""

    _fields = ("real_part", "imag_part")

    def __init__(self, real_part: float, imag_part: float) -> None:
        d = self.__dict__
        d["real_part"], d["imag_part"] = real_part, imag_part

    @property
    def max_abs(self) -> float:
        return max(abs(self.real_part), abs(self.imag_part))


class ReducedCubicCoefficients(_Record):
    """Coefficients (cubic, linear, constant) of the naive-split elimination."""

    _fields = ("c3", "c1", "c0")

    def __init__(self, c3: float, c1: float, c0: float) -> None:
        d = self.__dict__
        d["c3"], d["c1"], d["c0"] = c3, c1, c0


# ---------------------------------------------------------------------------
# split-system residual evaluators
# ---------------------------------------------------------------------------


def quadratic_split_residual(a: float, b: float, x: float, y: float) -> SplitResidual:
    """System for ``z**2 + a*z + b`` at ``z = x + i*y``."""
    return SplitResidual(
        real_part=x * x - y * y + a * x + b,
        imag_part=2.0 * x * y + a * y,
    )


def cubic_naive_split_residual(a: float, b: float, x: float, y: float) -> SplitResidual:
    """Naive split of ``z**3 + a*z + b`` at ``z = x + i*y``.

    The imaginary part is written here as ``y**3 - 3*x**2*y - a*y``, which is
    the negation of ``Im((x+iy)**3 + a*(x+iy) + b)``; both vanish on the same
    set, so the system's zeros are unchanged.
    """
    return SplitResidual(
        real_part=x * x * x - 3.0 * x * y * y + a * x + b,
        imag_part=y * y * y - 3.0 * x * x * y - a * y,
    )


def cubic_omega_split_residual(a: float, b: float, x: float, y: float) -> SplitResidual:
    """Split of ``z**3 + a*z + b`` at ``z = x + omega*y``, omega a cube root of -1.

    The real part equals ``Re(p(x + omega*y))`` exactly; the imaginary part is
    stated without its overall factor, ``Im(p(x + omega*y)) = (sqrt(3)/2) *
    imag_part``.
    """
    return SplitResidual(
        real_part=(
            x * x * x
            - y * y * y
            + 1.5 * x * x * y
            - 1.5 * x * y * y
            + a * x
            + 0.5 * a * y
            + b
        ),
        imag_part=3.0 * x * y * y + 3.0 * x * x * y + a * y,
    )


def quartic_split_residual(a: float, b: float, c: float, x: float, y: float) -> SplitResidual:
    """System for ``z**4 + a*z**2 + b*z + c`` at ``z = x + i*y``."""
    x2 = x * x
    y2 = y * y
    return SplitResidual(
        real_part=x2 * x2 + y2 * y2 - 6.0 * x2 * y2 + a * x2 - a * y2 + b * x + c,
        imag_part=4.0 * x2 * x * y - 4.0 * x * y2 * y + 2.0 * a * x * y + b * y,
    )


def naive_cubic_reduction(a: float, b: float) -> ReducedCubicCoefficients:
    """Eliminate ``y`` from the naive cubic split: ``8x^3 + 2ax - b = 0``.

    Still a cubic in ``x`` - the negative result that motivates the omega
    ansatz.  The coefficients are exact in floating point.
    """
    return ReducedCubicCoefficients(c3=8.0, c1=2.0 * a, c0=-b)


def omega_decompose(z: complex) -> tuple[float, float]:
    """Unique real ``(x, y)`` with ``z = x + OMEGA*y``."""
    x, y = OMEGA_ANSATZ.decompose(z)
    return x, y


def quartic_resolvent_coefficients(a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """Monic resolvent cubic in ``t = x**2``, coefficients highest power first."""
    return (1.0, 0.5 * a, a * a / 16.0 - 0.25 * c, -b * b / 64.0)


# ---------------------------------------------------------------------------
# shared numeric helpers
# ---------------------------------------------------------------------------


def _polish_root(
    coeffs_rev: tuple[float, ...], z: complex, scale: float, residual: float | None = None
) -> tuple[complex, float]:
    # Newton steps, each kept only if the residual drops.  ``residual``, when
    # given, is |p(z)| already computed by the caller.  A kept step's
    # evaluation supplies the value and derivative for the next.  The solver
    # calls this only from _settle, for a root whose residual is over the
    # trigger; the real-axis snap and the -0.0 normalization are _settle's.
    if residual is None:
        residual = horner_abs(coeffs_rev, z)
    if residual > _POLISH_TRIGGER * scale:
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


def _settle(
    coeffs_rev: tuple[float, ...],
    scale: float,
    roots: Sequence[complex],
    residuals: Sequence[float] | None,
    out_residuals: list[float] | None,
) -> list[complex]:
    # Polish the roots whose residual is over the trigger (few are), snap
    # near-real roots onto the real axis and normalize -0.0 components.
    # ``residuals``, when given, are the roots' |p(z)| already computed by the
    # caller.  The final residuals are appended to ``out_residuals``; a caller
    # that reads only the roots passes None, and a snapped root is then not
    # evaluated again.
    if residuals is None:
        residuals = [horner_abs(coeffs_rev, z) for z in roots]
    trigger = _POLISH_TRIGGER * scale
    out_roots: list[complex] = []
    for z, residual in zip(roots, residuals):
        if residual > trigger:
            z, residual = _polish_root(coeffs_rev, z, scale, residual)
        im = z.imag
        if im != 0.0 and abs(im) <= _IMAG_SNAP * max(1.0, abs(z.real)):
            z = complex(z.real, 0.0)
            if out_residuals is not None:
                residual = horner_abs(coeffs_rev, z)
            im = 0.0
        if im == 0.0 or z.real == 0.0:
            z = complex(z.real + 0.0, im + 0.0)
        out_roots.append(z)
        if out_residuals is not None:
            out_residuals.append(residual)
    return out_roots


def _finish(
    coeffs_rev: tuple[float, ...],
    scale: float,
    roots: Sequence[complex],
    tags: Sequence[str],
    residuals: Sequence[float] | None = None,
) -> RootSet:
    # The settled roots with their final residuals (see _settle).  The result
    # is built by RootSet._trusted, not the validating public constructor:
    # the roots here are complex and the residuals float already.
    out_residuals: list[float] = []
    out_roots = _settle(coeffs_rev, scale, roots, residuals, out_residuals)
    return RootSet._trusted(tuple(out_roots), tuple(out_residuals), tuple(tags))


def _cube_roots(w: complex) -> list[complex]:
    r, theta = cmath.polar(w)
    m = r ** (1.0 / 3.0)
    return [cmath.rect(m, (theta + 2.0 * math.pi * k) / 3.0) for k in range(3)]


def _real_cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


# ---------------------------------------------------------------------------
# closed-form solvers
# ---------------------------------------------------------------------------


def solve_quadratic(a: float, b: float) -> RootSet:
    """Roots of ``z**2 + a*z + b`` from the two branches of the split system.

    The imaginary equation ``y*(2x + a) = 0`` either forces ``y = 0`` (two
    real roots, imaginary part exactly zero) or ``x = -a/2`` (a conjugate
    pair with ``y = sqrt(b - a**2/4)``).
    """
    x = -0.5 * a
    disc = x * x - b
    if disc >= 0.0:
        s = math.sqrt(disc)
        # Evaluate the cancellation-prone branch through the product of the
        # roots (b = r_plus * r_minus) instead of x -+ s.
        if x >= 0.0:
            r_plus = x + s
            r_minus = b / r_plus if r_plus != 0.0 else x - s
        else:
            r_minus = x - s
            r_plus = b / r_minus if r_minus != 0.0 else x + s
        roots = [complex(r_plus, 0.0), complex(r_minus, 0.0)]
        tags = ("trivial-imaginary-branch:+", "trivial-imaginary-branch:-")
    else:
        y = math.sqrt(b - x * x)
        roots = [complex(x, y), complex(x, -y)]
        tags = ("conjugate-branch:+", "conjugate-branch:-")
    scale = max(1.0, abs(a), abs(b))
    return _finish((1.0, a, b), scale, roots, tags)


def _omega_cubic(a: float, b: float) -> tuple[list[complex], tuple[str, ...]]:
    """Unpolished roots of ``w**3 + a*w + b`` and their branch tags.

    On the nontrivial branch ``y = -x - a/(3x)`` the omega system collapses to
    ``x^6 - b*x^3 - a^3/27 = 0``; one quadratic-formula branch for ``x^3``
    plus its three cube roots already generate all three roots through
    ``w = (1 - omega)*x - omega*a/(3x)``.
    """
    if a == 0.0:
        if b == 0.0:
            return [0j, 0j, 0j], ("triple-zero",) * 3
        # w**3 = -b: take the real cube root exactly, rotate for the pair.
        r = _real_cbrt(-b)
        rot = complex(-0.5, math.sqrt(3.0) / 2.0)
        roots = [complex(r, 0.0), r * rot, r * rot.conjugate()]
        return roots, ("cube-root-0", "cube-root-1", "cube-root-2")

    disc = 0.25 * b * b + a * a * a / 27.0
    sqrt_disc = cmath.sqrt(complex(disc, 0.0))
    x_cubed = 0.5 * b + sqrt_disc
    branch = "+"
    if abs(x_cubed) < 1e-300:
        x_cubed = 0.5 * b - sqrt_disc
        branch = "-"
    if abs(x_cubed) < 1e-300:
        # Both branches vanished: b ~ 0 and a**3 underflowed, so the equation
        # is effectively w*(w**2 + a) = 0; solve that form directly.
        r = cmath.sqrt(complex(-a, 0.0))
        tags = ("near-origin-degenerate:0", "near-origin-degenerate:1", "near-origin-degenerate:2")
        return [complex(0.0, 0.0), r, -r], tags

    third_a = a / 3.0
    roots = [ONE_MINUS_OMEGA * x - OMEGA * (third_a / x) for x in _cube_roots(x_cubed)]
    return roots, _OMEGA_TAGS[branch]


def solve_depressed_cubic(dc: DepressedCubic) -> RootSet:
    """Roots of ``w**3 + a*w + b`` via the omega ansatz, polished against it."""
    a, b = dc.a, dc.b
    return _finish((1.0, 0.0, a, b), max(1.0, abs(a), abs(b)), *_omega_cubic(a, b))


def _refine_resolvent_root(r2: float, r1: float, r0: float, t: float) -> float:
    """Newton-refine a real root of ``t**3 + r2*t**2 + r1*t + r0``.

    The resolvent's smallest root is obtained through a depression shift that
    cancels catastrophically when the root is tiny; a few Newton steps against
    the resolvent itself restore full relative accuracy (and can pull a root
    that cancellation pushed slightly negative back across zero).
    """
    # The value at a kept step is the one the next step starts from.
    v = ((t + r2) * t + r1) * t + r0
    best_t, best_r = t, abs(v)
    for _ in range(6):
        d = (3.0 * t + 2.0 * r2) * t + r1
        if d == 0.0:
            break
        t = t - v / d
        v = ((t + r2) * t + r1) * t + r0
        r = abs(v)
        if r < best_r:
            best_t, best_r = t, r
        else:
            break
    return best_t


def solve_depressed_quartic(dq: DepressedQuartic) -> RootSet:
    """Roots of ``w**4 + a*w**2 + b*w + c`` via the split's resolvent cubic.

    The nontrivial branch of the imaginary equation gives ``y**2 = x**2 +
    b/(4x) + a/2``; substituting back makes ``t = x**2`` a root of the
    resolvent cubic.  Each real positive resolvent root yields a full
    candidate set of four roots (both signs of ``x``, both signs of ``y``);
    the set with the smallest total residual is kept.  The largest root's
    set is not kept on sight: from a near-double root it can meet the
    residual bound here and still miss it against the undepressed quartic.
    A negative ``y**2`` continues ``y`` to the imaginary axis, producing the
    pair of real roots ``x -+ sqrt(-y**2)``.
    """
    a, b, c = dq.a, dq.b, dq.c
    scale = max(1.0, abs(a), abs(b), abs(c))
    coeffs_rev = (1.0, 0.0, a, b, c)

    if abs(b) <= 1e-14 * scale:
        # Even quartic: w**2 solves u**2 + a*u + c = 0.
        roots = []
        for u in solve_quadratic(a, c).roots:
            s = cmath.sqrt(u)
            roots.extend([s, -s])
        tags = ("biquadratic-0:+", "biquadratic-0:-", "biquadratic-1:+", "biquadratic-1:-")
        return _finish(coeffs_rev, scale, roots, tags)

    _, r2, r1, r0 = quartic_resolvent_coefficients(a, b, c)
    if not (math.isfinite(r0) and math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError(f"resolvent coefficients must be finite, got {(1.0, r2, r1, r0)!r}")
    # Depress the resolvent by t = u - r2/3 (the arithmetic of depress_cubic)
    # and settle its omega roots there, as solve_depressed_cubic's finish
    # would; only the roots are needed, not their residuals.
    s = r2 / 3.0
    s2 = s * s
    ra = r1 - 3.0 * s2
    rb = r0 - s * (ra + s2)
    r_scale = max(1.0, abs(ra), abs(rb))
    u_roots, _ = _omega_cubic(ra, rb)
    t_roots = [u - s for u in _settle((1.0, 0.0, ra, rb), r_scale, u_roots, None, None)]

    best: tuple[list[complex], tuple[str, ...], list[float] | None] | None = None
    best_total = math.inf
    for j, t in enumerate(t_roots):
        if t.imag != 0.0 and abs(t.imag) > 1e-7 * max(1.0, abs(t.real)):
            continue
        t_real = _refine_resolvent_root(r2, r1, r0, t.real)
        if t_real <= 0.0:
            continue
        candidate_roots: list[complex] = []
        for x_sign in (1.0, -1.0):
            x = x_sign * math.sqrt(t_real)
            y2 = x * x + b / (4.0 * x) + 0.5 * a
            y = cmath.sqrt(complex(y2, 0.0))
            for y_sign in (1.0, -1.0):
                candidate_roots.append(complex(x, 0.0) + y_sign * 1j * y)
        candidate_residuals = [horner_abs(coeffs_rev, z) for z in candidate_roots]
        total = sum(candidate_residuals)
        if total < best_total:
            best_total = total
            best = (candidate_roots, _RESOLVENT_TAGS[j], candidate_residuals)

    if best is None:
        # No usable resolvent root survived the filters; fall back to the
        # numerically best one treated as a complex square.
        x = cmath.sqrt(max(t_roots, key=abs))
        y2 = x * x + b / (4.0 * x) + 0.5 * a
        y = cmath.sqrt(y2)
        best = (
            [x + 1j * y, x - 1j * y, -x + 1j * y, -x - 1j * y],
            ("resolvent-fallback",) * 4,
            None,
        )
    return _finish(coeffs_rev, scale, *best)


def solve(p: RealPolynomial) -> RootSet:
    """Roots of ``p`` (degrees 1-4) with residuals against ``p`` itself.

    Cubics and quartics are depressed first and solved through the split
    systems; their roots are translated back and polished once more against
    the original polynomial.  A monic quadratic's roots are returned as
    :func:`solve_quadratic` gives them: it already polished and scored them
    against the same coefficients.
    """
    degree = p.degree
    if degree == 0:
        raise ValueError("a degree-0 polynomial has no roots to solve for")
    if degree >= 5:
        raise UnsupportedDegreeError(degree)

    if degree == 1:
        roots, tags = [complex(-_monic_coefficients(p)[0], 0.0)], ("linear",)
    elif degree == 2:
        b, a, _ = _monic_coefficients(p)
        inner = solve_quadratic(a, b)
        if p.coefficients[-1] == 1.0:
            return inner
        roots, tags = inner.roots, inner.branch_tags
    elif degree == 3:
        dep = depress_cubic(p)
        inner = solve_depressed_cubic(dep)
    else:
        dep = depress_quartic(p)
        inner = solve_depressed_quartic(dep)
    if degree >= 3:
        roots, tags = [z - dep.shift for z in inner.roots], inner.branch_tags

    coeffs_rev = tuple(reversed(p.coefficients))
    scale = max(1.0, max(map(abs, p.coefficients)))
    return _finish(coeffs_rev, scale, roots, tags)
