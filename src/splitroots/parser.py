"""Text form of univariate real polynomials: parsing and canonical printing.

Grammar (EBNF):

    poly        := term (('+' | '-') term)*
    term        := coefficient? ('*'? variable ('^' integer)?)?
    coefficient := decimal literal (optional sign on the first term)
    variable    := single ASCII letter, consistent across the expression

Decimal literals only - no scientific notation, no fractions.  Implicit
("2z") and explicit ("2*z") multiplication both work; whitespace between
tokens is ignored; repeated powers accumulate ("x^2 + x^2" is 2x^2).  Raw
coefficients are preserved: nothing is normalized to monic here.
"""

from __future__ import annotations

import math
import re

from .poly_core import RealPolynomial

_NUMBER_RE = re.compile(r"\d+\.?\d*|\.\d+")

# Exponents beyond this build nothing useful and only eat memory.
_MAX_EXPONENT = 4096


class ParseError(Exception):
    """Parse failure with a 0-based character position and a coarse kind.

    ``kind`` is one of ``unexpected-token``, ``bad-exponent``,
    ``multiple-variables``, ``empty-input``, ``overflow``.
    """

    def __init__(self, position: int, message: str, kind: str):
        self.position = position
        self.message = message
        self.kind = kind
        super().__init__(f"{message} (column {position})")


def parse_polynomial(text: str) -> RealPolynomial:
    """Parse ``text``; raises :class:`ParseError` on malformed input."""
    poly, _ = parse_polynomial_with_variable(text)
    return poly


def parse_polynomial_with_variable(text: str) -> tuple[RealPolynomial, str]:
    """Like :func:`parse_polynomial` but also reports the variable letter used."""
    n = len(text)
    powers: dict[int, float] = {}
    variable: str | None = None

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def here(i: int) -> int:
        # Clamp so reported positions always index into the source.
        return min(i, n - 1) if n else 0

    i = skip_ws(0)
    if i == n:
        raise ParseError(0, "empty input", "empty-input")

    first = True
    while i < n:
        sign = 1.0
        ch = text[i]
        if ch == "-" or ch == "+":
            sign = -1.0 if ch == "-" else 1.0
            i = skip_ws(i + 1)
            if i == n:
                raise ParseError(here(n), "expected a term after the sign", "unexpected-token")
        elif not first:
            raise ParseError(i, f"expected '+' or '-' before {ch!r}", "unexpected-token")
        first = False

        coefficient: float | None = None
        m = _NUMBER_RE.match(text, i)
        if m:
            coefficient = float(m.group())
            if not math.isfinite(coefficient):
                raise ParseError(i, f"coefficient {m.group()!r} overflows a float", "overflow")
            i = skip_ws(m.end())

        saw_star = False
        if i < n and text[i] == "*":
            if coefficient is None:
                raise ParseError(i, "'*' must follow a coefficient", "unexpected-token")
            saw_star = True
            i = skip_ws(i + 1)

        power = 0
        if i < n and text[i].isalpha() and text[i].isascii():
            if variable is None:
                variable = text[i]
            elif text[i] != variable:
                raise ParseError(
                    i,
                    f"variable {text[i]!r} conflicts with {variable!r} used earlier",
                    "multiple-variables",
                )
            i += 1
            j = skip_ws(i)
            if j < n and text[j] == "^":
                i = skip_ws(j + 1)
                if i == n or not text[i].isdecimal():
                    raise ParseError(
                        here(i), "exponent must be a nonnegative integer", "bad-exponent"
                    )
                digits_start = i
                while i < n and text[i].isdecimal():
                    i += 1
                exponent = int(text[digits_start:i])
                if exponent > _MAX_EXPONENT:
                    raise ParseError(
                        digits_start, f"exponent {exponent} is too large", "overflow"
                    )
                power = exponent
            else:
                power = 1
        elif saw_star:
            raise ParseError(here(i), "expected a variable after '*'", "unexpected-token")
        elif coefficient is None:
            raise ParseError(here(i), "expected a coefficient or a variable", "unexpected-token")

        powers[power] = powers.get(power, 0.0) + sign * (
            coefficient if coefficient is not None else 1.0
        )
        i = skip_ws(i)

    if all(v == 0.0 for v in powers.values()):
        raise ParseError(0, "polynomial is identically zero", "empty-input")
    degree = max(k for k, v in powers.items() if v != 0.0)
    if degree == 0:
        raise ParseError(0, "constant input has no variable term", "empty-input")
    coefficients = tuple(powers.get(k, 0.0) for k in range(degree + 1))
    return RealPolynomial(coefficients), variable if variable is not None else "z"


def _format_coefficient(value: float) -> str:
    if value.is_integer():
        return str(int(value))
    s = repr(value)
    if "e" in s or "E" in s:
        # The grammar has no scientific notation; expand exactly.
        from decimal import Decimal

        s = format(Decimal(s), "f")
    return s


def format_polynomial(p: RealPolynomial, variable: str = "z") -> str:
    """Canonical printer: descending powers, implicit multiplication.

    Output always re-parses to exactly the same coefficients.
    """
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coefficients[k] if k < len(p.coefficients) else 0.0
        if c == 0.0:
            continue
        magnitude = abs(c)
        if k == 0:
            body = _format_coefficient(magnitude)
        else:
            var = variable if k == 1 else f"{variable}^{k}"
            body = var if magnitude == 1.0 else f"{_format_coefficient(magnitude)}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)
