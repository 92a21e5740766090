"""Polynomial values and the coefficient-level operations shared by the solvers.

Coefficients are stored lowest power first, so ``coefficients[k]`` multiplies
``z**k``.  Depression (removing the second-highest term by a linear shift) is
implemented with shared intermediates so that reconstructing the original
coefficients from a depressed form cancels the rounding of the forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RealPolynomial:
    """A polynomial with real coefficients, lowest power first.

    Trailing zero coefficients are trimmed exactly; the stored leading
    coefficient is always nonzero.  The zero polynomial is rejected.
    Coefficients are kept as given (no monic normalization); use
    :meth:`monic` where a monic form is needed.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        for c in coeffs:
            if not math.isfinite(c):
                raise ValueError(f"coefficients must be finite, got {c!r}")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if coeffs == (0.0,):
            raise ValueError("the zero polynomial is not representable")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> float:
        return self.coefficients[-1]

    def monic(self) -> RealPolynomial:
        lead = self.coefficients[-1]
        if lead == 1.0:
            return self
        return RealPolynomial(tuple(c / lead for c in self.coefficients))


@dataclass(frozen=True)
class DepressedCubic:
    """Monic cubic ``w**3 + a*w + b`` reached by the substitution ``w = z + shift``.

    Roots of the source cubic are the depressed roots minus ``shift``.
    """

    a: float
    b: float
    shift: float = 0.0


@dataclass(frozen=True)
class DepressedQuartic:
    """Monic quartic ``w**4 + a*w**2 + b*w + c`` with ``w = z + shift``."""

    a: float
    b: float
    c: float
    shift: float = 0.0


@dataclass(frozen=True)
class RootSet:
    """Roots together with their residuals and the branch that produced each."""

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    branch_tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (len(self.roots) == len(self.residuals) == len(self.branch_tags)):
            raise ValueError("roots, residuals and branch_tags must have equal length")
        object.__setattr__(self, "roots", tuple(map(complex, self.roots)))
        object.__setattr__(self, "residuals", tuple(map(float, self.residuals)))
        object.__setattr__(self, "branch_tags", tuple(self.branch_tags))

    def __len__(self) -> int:
        return len(self.roots)


def evaluate(p: RealPolynomial, z: complex) -> complex:
    """Evaluate ``p`` at ``z`` by Horner's rule in complex arithmetic."""
    acc = 0j
    for c in reversed(p.coefficients):
        acc = acc * z + c
    return acc


def horner_with_derivative(coeffs_rev: tuple[float, ...], z: complex) -> tuple[complex, complex]:
    """One Horner pass returning ``(p(z), p'(z))``; coefficients highest power first."""
    value = 0j
    deriv = 0j
    for c in coeffs_rev:
        deriv = deriv * z + value
        value = value * z + c
    return value, deriv


def horner_abs(coeffs_rev: tuple[float, ...], z: complex) -> float:
    """``|p(z)|`` from the value recurrence of :func:`horner_with_derivative` alone.

    The operations are those of :func:`evaluate` in the same order, so the
    result equals ``abs(evaluate(p, z))`` exactly.
    """
    value = 0j
    for c in coeffs_rev:
        value = value * z + c
    return abs(value)


def derivative(p: RealPolynomial) -> RealPolynomial:
    """Coefficient-wise derivative.  Degree 1 inputs yield a constant."""
    if p.degree < 1:
        raise ValueError("derivative requires degree >= 1")
    return RealPolynomial(tuple(k * c for k, c in enumerate(p.coefficients) if k > 0))


def depress_cubic(p: RealPolynomial) -> DepressedCubic:
    """Remove the quadratic term of a cubic via ``w = z + alpha/3``.

    The input is normalized to monic ``z**3 + alpha*z**2 + beta*z + gamma``
    first.  Intermediates are arranged so that :func:`reconstruct_cubic`
    reverses the arithmetic step for step.
    """
    if p.degree != 3:
        raise ValueError(f"depress_cubic requires degree 3, got degree {p.degree}")
    gamma, beta, alpha, _ = p.monic().coefficients
    s = alpha / 3.0
    s2 = s * s
    a = beta - 3.0 * s2
    b = gamma - s * (a + s2)
    return DepressedCubic(a=a, b=b, shift=s)


def reconstruct_cubic(dc: DepressedCubic) -> RealPolynomial:
    """Monic cubic whose depression yields ``dc``; inverse of :func:`depress_cubic`."""
    s = dc.shift
    s2 = s * s
    alpha = 3.0 * s
    beta = dc.a + 3.0 * s2
    gamma = dc.b + s * (dc.a + s2)
    return RealPolynomial((gamma, beta, alpha, 1.0))


def depress_quartic(p: RealPolynomial) -> DepressedQuartic:
    """Remove the cubic term of a quartic via ``w = z + alpha/4``."""
    if p.degree != 4:
        raise ValueError(f"depress_quartic requires degree 4, got degree {p.degree}")
    delta, gamma, beta, alpha, _ = p.monic().coefficients
    s = alpha / 4.0
    s2 = s * s
    a = beta - 6.0 * s2
    b = gamma - s * (2.0 * a + 4.0 * s2)
    c = delta - s * (b + s * (a + s2))
    return DepressedQuartic(a=a, b=b, c=c, shift=s)


def reconstruct_quartic(dq: DepressedQuartic) -> RealPolynomial:
    """Monic quartic whose depression yields ``dq``; inverse of :func:`depress_quartic`."""
    s = dq.shift
    s2 = s * s
    alpha = 4.0 * s
    beta = dq.a + 6.0 * s2
    gamma = dq.b + s * (2.0 * dq.a + 4.0 * s2)
    delta = dq.c + s * (dq.b + s * (dq.a + s2))
    return RealPolynomial((delta, gamma, beta, alpha, 1.0))


def undepress(roots: RootSet, shift: float) -> RootSet:
    """Translate depressed-domain roots back to the source variable.

    ``w = z + shift`` means each source root is a depressed root minus
    ``shift``.  Residuals are carried over unchanged; callers that need
    residuals against the source polynomial must recompute them.
    """
    return RootSet(
        roots=tuple(z - shift for z in roots.roots),
        residuals=roots.residuals,
        branch_tags=roots.branch_tags,
    )
