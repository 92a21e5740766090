"""Polynomial values and the coefficient-level operations shared by the solvers.

Coefficients are stored lowest power first, so ``coefficients[k]`` multiplies
``z**k``.  Depression (removing the second-highest term by a linear shift) is
implemented with shared intermediates so that reconstructing the original
coefficients from a depressed form cancels the rounding of the forward pass.
"""

from __future__ import annotations

import math


class _Record:
    """Immutable value record over the field names in ``_fields``.

    Subclasses store their fields in the instance ``__dict__`` in ``_fields``
    order, so ``vars()`` lists them as declared.  Instances of the same class
    compare and hash by their field values, and the repr is
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _require_finite(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    if not all(map(math.isfinite, coeffs)):
        bad = next(c for c in coeffs if not math.isfinite(c))
        raise ValueError(f"coefficients must be finite, got {bad!r}")
    return coeffs


class RealPolynomial(_Record):
    """A polynomial with real coefficients, lowest power first.

    Trailing zero coefficients are trimmed exactly; the stored leading
    coefficient is always nonzero.  The zero polynomial is rejected.
    Coefficients are kept as given (no monic normalization); use
    :meth:`monic` where a monic form is needed.
    """

    _fields = ("coefficients",)

    def __init__(self, coefficients) -> None:
        coeffs = _require_finite(tuple(map(float, coefficients)))
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if coeffs == (0.0,):
            raise ValueError("the zero polynomial is not representable")
        self.__dict__["coefficients"] = coeffs

    @classmethod
    def _trusted(cls, coefficients: tuple[float, ...]) -> RealPolynomial:
        """A RealPolynomial over a tuple of finite floats, stored without checks or copies.

        The caller guarantees a ``float`` tuple of finite values whose last
        entry is nonzero, so the result equals what the public constructor
        would build from the same values.
        """
        self = object.__new__(cls)
        self.__dict__["coefficients"] = coefficients
        return self

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> float:
        return self.coefficients[-1]

    def monic(self) -> RealPolynomial:
        coefficients = _monic_coefficients(self.coefficients)
        return self if coefficients is self.coefficients else RealPolynomial._trusted(coefficients)


class DepressedCubic(_Record):
    """Monic cubic ``w**3 + a*w + b`` reached by the substitution ``w = z + shift``.

    Roots of the source cubic are the depressed roots minus ``shift``.
    """

    _fields = ("a", "b", "shift")

    def __init__(self, a: float, b: float, shift: float = 0.0) -> None:
        d = self.__dict__
        d["a"], d["b"], d["shift"] = a, b, shift


class DepressedQuartic(_Record):
    """Monic quartic ``w**4 + a*w**2 + b*w + c`` with ``w = z + shift``."""

    _fields = ("a", "b", "c", "shift")

    def __init__(self, a: float, b: float, c: float, shift: float = 0.0) -> None:
        d = self.__dict__
        d["a"], d["b"], d["c"], d["shift"] = a, b, c, shift


class RootSet(_Record):
    """Roots together with their residuals and the branch that produced each.

    The public constructor validates its input: the three sequences must have
    equal length, and they are stored as tuples, the roots converted to
    ``complex`` and the residuals to ``float``.  The solver builds its results
    through the private :meth:`_trusted` instead, from tuples it has already
    made of those types.
    """

    _fields = ("roots", "residuals", "branch_tags")

    def __init__(self, roots, residuals, branch_tags) -> None:
        if not (len(roots) == len(residuals) == len(branch_tags)):
            raise ValueError("roots, residuals and branch_tags must have equal length")
        d = self.__dict__
        d["roots"], d["residuals"], d["branch_tags"] = (
            tuple(map(complex, roots)), tuple(map(float, residuals)), tuple(branch_tags)
        )

    @classmethod
    def _trusted(
        cls, roots: tuple[complex, ...], residuals: tuple[float, ...], branch_tags: tuple[str, ...]
    ) -> RootSet:
        """A RootSet over the solver's own tuples, stored without checks or copies.

        The caller guarantees equal lengths, ``complex`` roots, ``float``
        residuals and ``str`` tags, so the result equals what the public
        constructor would build from the same values.
        """
        self = object.__new__(cls)
        d = self.__dict__
        d["roots"], d["residuals"], d["branch_tags"] = roots, residuals, branch_tags
        return self

    def __len__(self) -> int:
        return len(self.roots)


def evaluate(p: RealPolynomial, z: complex) -> complex:
    """Evaluate ``p`` at ``z`` by Horner's rule in complex arithmetic."""
    acc = 0j
    for c in reversed(p.coefficients):
        acc = acc * z + c
    return acc


def horner_with_derivative(
    coeffs_rev: tuple[float, ...], z: complex | float
) -> tuple[complex | float, complex | float]:
    """One Horner pass returning ``(p(z), p'(z))``; coefficients highest power first.

    A float ``z`` gives floats.  A complex one gives a ``0j`` start's results bit
    for bit: Python 3.10-3.13 promote the float ``0.0`` to ``0j`` against a complex.
    """
    value = 0.0
    deriv = 0.0
    for c in coeffs_rev:
        deriv = deriv * z + value
        value = value * z + c
    return value, deriv


def horner_abs(coeffs_rev: tuple[float, ...], z: complex) -> float:
    """``|p(z)|`` from the value recurrence of :func:`horner_with_derivative` alone.

    The operations are those of :func:`evaluate` in the same order, so the
    result equals ``abs(evaluate(p, z))`` exactly.  For real coefficients, so
    does the value at ``z.conjugate()`` (each step conjugates exactly), and at
    a real ``z = x`` so does ``abs(v)`` of ``v = v*x + c`` if that is finite.
    """
    value = 0j
    for c in coeffs_rev:
        value = value * z + c
    return abs(value)


def _monic_coefficients(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """``coeffs``, lowest power first, over the last one; ``coeffs`` itself if that is 1."""
    lead = coeffs[-1]
    if lead == 1.0:
        return coeffs
    return _require_finite(tuple([c / lead for c in coeffs]))


def _depress_monic_cubic(alpha: float, beta: float, gamma: float) -> tuple[float, float, float]:
    """Depress ``z**3 + alpha*z**2 + beta*z + gamma`` to ``w**3 + a*w + b`` at ``w = z + shift``.

    Returns ``(a, b, shift)``; :func:`reconstruct_cubic` reverses the
    arithmetic step for step.
    """
    s = alpha / 3.0
    s2 = s * s
    a = beta - 3.0 * s2
    return a, gamma - s * (a + s2), s


def depress_cubic(p: RealPolynomial) -> DepressedCubic:
    """Remove the quadratic term of a cubic via ``w = z + alpha/3``.

    The input is normalized to monic ``z**3 + alpha*z**2 + beta*z + gamma``
    first.
    """
    if p.degree != 3:
        raise ValueError(f"depress_cubic requires degree 3, got degree {p.degree}")
    gamma, beta, alpha, _ = _monic_coefficients(p.coefficients)
    return DepressedCubic(*_depress_monic_cubic(alpha, beta, gamma))


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
    delta, gamma, beta, alpha, _ = _monic_coefficients(p.coefficients)
    s = alpha / 4.0
    s2 = s * s
    a = beta - 6.0 * s2
    b = gamma - s * (2.0 * a + 4.0 * s2)
    c = delta - s * (b + s * (a + s2))
    return DepressedQuartic(a, b, c, s)


def reconstruct_quartic(dq: DepressedQuartic) -> RealPolynomial:
    """Monic quartic whose depression yields ``dq``; inverse of :func:`depress_quartic`."""
    s = dq.shift
    s2 = s * s
    alpha = 4.0 * s
    beta = dq.a + 6.0 * s2
    gamma = dq.b + s * (2.0 * dq.a + 4.0 * s2)
    delta = dq.c + s * (dq.b + s * (dq.a + s2))
    return RealPolynomial((delta, gamma, beta, alpha, 1.0))

