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

# One term: an optional sign, coefficient, '*', variable and '^exponent', with
# any whitespace around them.  As every part is optional the match never
# fails; it stops where the term stops, and the parser reports what is missing
# or wrong.  A missing part would start where the match ends, as every
# ``\s*`` before it has taken all the whitespace; errors are reported there.
# ``\s`` and ``\d`` accept exactly the characters ``str.isspace`` and
# ``str.isdecimal`` accept.
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?P<coefficient>\d+\.?\d*|\.\d+)?\s*"
    r"(?P<star>\*)?\s*"
    r"(?:(?P<variable>[A-Za-z])(?:\s*(?P<caret>\^)\s*(?P<exponent>\d+)?)?)?"
    r"\s*"
)

# Exponents beyond this build nothing useful and only eat memory.
_MAX_EXPONENT = 4096
_MAX_EXPONENT_DIGITS = len(str(_MAX_EXPONENT))


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
    if not text or text.isspace():
        raise ParseError(0, "empty input", "empty-input")
    powers: dict[int, float] = {}
    variable: str | None = None
    match = _TERM_RE.match
    # An error at the end of the text is reported at its last character, so
    # that positions always index into the source.
    last = n - 1

    i = 0
    while i < n:
        m = match(text, i)
        sign, digits, star, letter, caret, exponent_digits = m.groups()
        if sign is None and i:
            # Every term after the first needs a sign; i is past the
            # whitespace that ended the previous term.
            raise ParseError(i, f"expected '+' or '-' before {text[i]!r}", "unexpected-token")

        if digits is not None:
            coefficient = float(digits)
            if not math.isfinite(coefficient):
                raise ParseError(
                    m.start("coefficient"), f"coefficient {digits!r} overflows a float", "overflow"
                )
        elif star is not None:
            raise ParseError(m.start("star"), "'*' must follow a coefficient", "unexpected-token")
        else:
            coefficient = 1.0

        if letter is not None:
            if variable is None:
                variable = letter
            elif letter != variable:
                raise ParseError(
                    m.start("variable"),
                    f"variable {letter!r} conflicts with {variable!r} used earlier",
                    "multiple-variables",
                )
            if exponent_digits is not None:
                if len(exponent_digits) > _MAX_EXPONENT_DIGITS:
                    # int() refuses more than 4300 digits, leading zeros included.
                    exponent_digits = _ascii_digits(exponent_digits)
                    if len(exponent_digits) > _MAX_EXPONENT_DIGITS:
                        raise ParseError(
                            m.start("exponent"), f"exponent {exponent_digits} is too large", "overflow"
                        )
                power = int(exponent_digits)
                if power > _MAX_EXPONENT:
                    raise ParseError(m.start("exponent"), f"exponent {power} is too large", "overflow")
            elif caret is not None:
                raise ParseError(
                    min(m.end(), last), "exponent must be a nonnegative integer", "bad-exponent"
                )
            else:
                power = 1
        elif star is not None:
            raise ParseError(min(m.end(), last), "expected a variable after '*'", "unexpected-token")
        elif digits is None:
            if m.end() == n:  # only a sign, then whitespace to the end
                raise ParseError(last, "expected a term after the sign", "unexpected-token")
            raise ParseError(
                min(m.end(), last), "expected a coefficient or a variable", "unexpected-token"
            )
        else:
            power = 0

        # 0.0 - c, not -c: a "- 0" term gives 0.0, never -0.0.
        value = 0.0 - coefficient if sign == "-" else coefficient
        if power in powers:
            # A term without digits adds +-1, which overflows no finite sum.
            value += powers[power]
            if not math.isfinite(value):
                raise ParseError(
                    m.start("coefficient"), f"the sum of the power-{power} terms overflows a float",
                    "overflow",
                )
        powers[power] = value
        i = m.end()

    nonzero = [k for k, v in powers.items() if v != 0.0]
    if not nonzero:
        raise ParseError(0, "polynomial is identically zero", "empty-input")
    degree = max(nonzero)
    if degree == 0:
        raise ParseError(0, "constant input has no variable term", "empty-input")
    # Every value is a finite float, and the last one is nonzero.
    coefficients = tuple([powers.get(k, 0.0) for k in range(degree + 1)])
    return RealPolynomial._trusted(coefficients), variable if variable is not None else "z"


def _ascii_digits(digits: str) -> str:
    """``str(int(digits))`` without ``int()``'s limit on the number of digits.

    ``digits`` may hold the decimal digits of any script, as ``\\d`` does.
    """
    if not digits.isascii():
        digits = digits.translate({ord(d): str(int(d)) for d in set(digits)})
    return digits.lstrip("0") or "0"


def format_polynomial(p: RealPolynomial, variable: str = "z") -> str:
    """Canonical printer: descending powers, implicit multiplication.

    Output always re-parses to exactly the same coefficients.
    """
    parts: list[str] = []
    k = len(p.coefficients)
    for c in reversed(p.coefficients):
        k -= 1
        if c == 0.0:
            continue
        parts.append(" - " if c < 0.0 else " + ")
        magnitude = abs(c)
        if magnitude.is_integer():
            if magnitude != 1.0 or not k:
                parts.append(str(int(magnitude)))
        else:
            text = repr(magnitude)
            if "e" in text:  # the grammar has no scientific notation; expand exactly
                from decimal import Decimal

                text = format(Decimal(text), "f")
            parts.append(text)
        if k:
            parts.append(variable if k == 1 else f"{variable}^{k}")
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)
