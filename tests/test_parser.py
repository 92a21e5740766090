"""Unit tests for the polynomial expression parser and printer."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitroots.parser import (
    ParseError,
    format_polynomial,
    parse_polynomial,
    parse_polynomial_with_variable,
)
from splitroots.poly_core import RealPolynomial


class TestParseBasics:
    def test_pinned_cubic(self):
        p = parse_polynomial("z^3 - 7z + 6")
        assert p.coefficients == (6.0, -7.0, 0.0, 1.0)

    def test_pinned_quartic(self):
        p = parse_polynomial("w^4 + 4w^3 + 6w^2 + 4w + 1")
        assert p.coefficients == (1.0, 4.0, 6.0, 4.0, 1.0)

    def test_coefficient_only_term(self):
        assert parse_polynomial("2x^2").coefficients == (0.0, 0.0, 2.0)

    def test_bare_variable(self):
        assert parse_polynomial("x").coefficients == (0.0, 1.0)

    def test_variable_is_reported(self):
        _, var = parse_polynomial_with_variable("w^2 - 1")
        assert var == "w"

    def test_default_variable_when_none_needed(self):
        # cannot happen: constants are rejected, so every parse has a variable
        p, var = parse_polynomial_with_variable("q^2")
        assert var == "q"
        assert p.degree == 2

    def test_explicit_multiplication(self):
        assert (
            parse_polynomial("2*x^2 + 3*x").coefficients
            == parse_polynomial("2x^2 + 3x").coefficients
        )

    def test_decimal_coefficients(self):
        p = parse_polynomial("0.5x^2 - .25x + 1.75")
        assert p.coefficients == (1.75, -0.25, 0.5)

    def test_leading_sign(self):
        assert parse_polynomial("-x^2 + 1").coefficients == (1.0, 0.0, -1.0)
        assert parse_polynomial("+x^2 - 1").coefficients == (-1.0, 0.0, 1.0)

    def test_terms_accumulate(self):
        assert parse_polynomial("z + z").coefficients == (0.0, 2.0)
        assert parse_polynomial("z^2 + z^2 - z").coefficients == (0.0, -1.0, 2.0)

    def test_whitespace_insensitive(self):
        reference = parse_polynomial("z^3 - 7z + 6").coefficients
        assert parse_polynomial("z^3-7z+6").coefficients == reference
        assert parse_polynomial("  z^3  -  7z  +  6  ").coefficients == reference

    def test_any_single_letter_variable(self):
        for letter in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ":
            p, var = parse_polynomial_with_variable(f"{letter}^2 + 1")
            assert var == letter
            assert p.coefficients == (1.0, 0.0, 1.0)

    def test_exponent_zero_is_constant_term(self):
        assert parse_polynomial("x^2 + 3x^0").coefficients == (3.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "zero, two", [("0", "2"), ("\u0660", "\u0662")], ids=["ascii", "arabic-indic"]
    )
    def test_exponent_zeros_beyond_the_int_digit_limit(self, zero, two):
        # int() refuses a string of more than 4300 digits; leading zeros
        # carry no value, however many there are.
        assert parse_polynomial("z^" + zero * 4400 + two).coefficients == (0.0, 0.0, 1.0)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, kind, position",
        [
            ("", "empty-input", 0),
            ("   ", "empty-input", 0),
            ("5", "empty-input", 0),
            ("z - z", "empty-input", 0),
            ("x^", "bad-exponent", 1),
            ("x^²", "bad-exponent", 2),
            ("x + y", "multiple-variables", 4),
            ("x^99999", "overflow", 2),
            ("9" * 400, "overflow", 0),
            ("2*", "unexpected-token", 1),
            ("1e5", "unexpected-token", 2),
            ("2 & 3", "unexpected-token", 2),
            ("+", "unexpected-token", 0),
            ("x^2 +", "unexpected-token", 4),
            ("z z", "unexpected-token", 2),
            ("^2", "unexpected-token", 0),
            ("*x", "unexpected-token", 0),
        ],
    )
    def test_error_kind_and_position(self, text, kind, position):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert exc.value.kind == kind
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "digits, shown",
        [
            ("0" * 4400 + "4097", "4097"),
            ("1" + "0" * 4400, "1" + "0" * 4400),
            ("\u0660" * 10 + "\u0669" * 4400, "9" * 4400),
        ],
        ids=["zeros-then-4097", "4401-digits", "arabic-indic-4400-nines"],
    )
    def test_long_exponent_over_the_limit_is_overflow(self, digits, shown):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("z^" + digits + " + 1")
        assert (exc.value.kind, exc.value.position) == ("overflow", 2)
        assert exc.value.message == f"exponent {shown} is too large"

    def test_like_terms_overflowing_their_sum(self):
        nines = "9" * 308  # each a finite float; two of them are not
        text = f"{nines}z + {nines}z + z^2"
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert (exc.value.kind, exc.value.position) == ("overflow", text.rindex(nines))
        # A sum that comes back into range is not an overflow.
        assert parse_polynomial(f"{nines}z - {nines}z + z^2").coefficients == (0.0, 0.0, 1.0)

    def test_error_str_includes_column(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("2 & 3")
        assert "(column 2)" in str(exc.value)

    def test_errors_are_not_swallowed_as_valueerror_subtypes(self):
        # ParseError must be catchable on its own, apart from solver errors
        with pytest.raises(ParseError):
            parse_polynomial("")


class TestFormat:
    def test_canonical_cubic(self):
        p = RealPolynomial((6.0, -7.0, 0.0, 1.0))
        assert format_polynomial(p) == "z^3 - 7z + 6"

    def test_custom_variable(self):
        p = RealPolynomial((1.0, 4.0, 6.0, 4.0, 1.0))
        assert format_polynomial(p, "w") == "w^4 + 4w^3 + 6w^2 + 4w + 1"

    def test_single_term(self):
        assert format_polynomial(RealPolynomial((0.0, 0.0, 2.0))) == "2z^2"

    def test_unit_coefficients_omitted(self):
        assert format_polynomial(RealPolynomial((-1.0, 0.0, 1.0))) == "z^2 - 1"

    def test_leading_negative(self):
        assert format_polynomial(RealPolynomial((0.0, -1.0))) == "-z"

    def test_float_coefficients_survive(self):
        p = RealPolynomial((1.75, -0.25, 0.5))
        assert format_polynomial(p) == "0.5z^2 - 0.25z + 1.75"

    def test_matches_the_reference_printer(self):
        # Unit, integer, plain and exponent-repr magnitudes (subnormals
        # included), zeros of both signs, and any variable letter.
        rng = random.Random(20261019)
        pieces = (
            lambda: rng.choice((1.0, -1.0, 0.0, -0.0)),
            lambda: float(rng.randint(-10**6, 10**6)),
            lambda: rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-320, 300),
            lambda: rng.uniform(-10.0, 10.0),
        )
        for _ in range(20_000):
            coefficients = [rng.choice(pieces)() for _ in range(rng.randint(1, 6))]
            coefficients.append(rng.choice(pieces[1:])() or 1.0)
            p = RealPolynomial(coefficients)
            variable = rng.choice("zzxwAZ")
            assert format_polynomial(p, variable) == _reference_format(p, variable), p


class TestRoundTrip:
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-1000, max_value=1000).map(float),
                st.floats(
                    min_value=-1e6,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=2,
            max_size=5,
        ).filter(lambda c: any(x != 0.0 for x in c[1:]))
    )
    @settings(max_examples=500)
    def test_format_then_parse_is_exact(self, coeffs):
        p = RealPolynomial(tuple(coeffs))
        if p.degree == 0:
            return
        text = format_polynomial(p)
        q = parse_polynomial(text)
        assert q.coefficients == p.coefficients

    @given(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False).map(
                lambda v: v * 1e-30
            ),
            min_size=2,
            max_size=4,
        ).filter(lambda c: any(x != 0.0 for x in c[1:]))
    )
    @settings(max_examples=100)
    def test_tiny_magnitudes_round_trip(self, coeffs):
        # scientific-notation floats must be rendered in plain decimal and
        # still parse back to the identical bits
        p = RealPolynomial(tuple(coeffs))
        if p.degree == 0:
            return
        assert parse_polynomial(format_polynomial(p)).coefficients == p.coefficients

    def test_huge_magnitudes_round_trip(self):
        p = RealPolynomial((1.2345678901234567e18, -9.87654321e17, 1.0))
        assert parse_polynomial(format_polynomial(p)).coefficients == p.coefficients

    def test_round_trip_keeps_variable(self):
        p, var = parse_polynomial_with_variable("u^2 - 3u + 2")
        assert format_polynomial(p, var) == "u^2 - 3u + 2"

    def test_math_constants_round_trip(self):
        p = RealPolynomial((math.pi, -math.e, math.sqrt(2.0)))
        assert parse_polynomial(format_polynomial(p)).coefficients == p.coefficients


def _reference_format(p, variable):
    """``format_polynomial`` before its one-loop rewrite, kept as the reference."""

    def format_coefficient(value):
        if value.is_integer():
            return str(int(value))
        s = repr(value)
        if "e" in s or "E" in s:
            from decimal import Decimal

            s = format(Decimal(s), "f")
        return s

    coefficients = p.coefficients
    parts = []
    for k in range(len(coefficients) - 1, -1, -1):
        c = coefficients[k]
        if c == 0.0:
            continue
        magnitude = abs(c)
        if k == 0:
            body = format_coefficient(magnitude)
        else:
            var = variable if k == 1 else f"{variable}^{k}"
            body = var if magnitude == 1.0 else f"{format_coefficient(magnitude)}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# reference: the character-loop parser the term regex replaced
# ---------------------------------------------------------------------------

_REFERENCE_NUMBER_RE = re.compile(r"\d+\.?\d*|\.\d+")


def _reference_parse(text):
    n = len(text)
    powers = {}
    variable = None

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def here(i):
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

        coefficient = None
        m = _REFERENCE_NUMBER_RE.match(text, i)
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
                if exponent > 4096:
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


def _outcome(parse, text):
    # What a parse gives: its coefficients (bit patterns, so -0.0 and 0.0
    # differ) and variable, or its error's kind, position and message.
    try:
        p, variable = parse(text)
    except ParseError as err:
        return ("error", err.kind, err.position, err.message)
    return ("ok", tuple(map(float.hex, p.coefficients)), variable)


def _parse_and_check(text):
    # The parser builds its result without RealPolynomial's checks; the
    # public constructor, checks and trim included, must give the same value.
    p, variable = parse_polynomial_with_variable(text)
    checked = RealPolynomial(p.coefficients)
    assert p == checked and repr(p) == repr(checked), text
    return p, variable


# Pieces the fuzz strings are made of: every token the grammar knows, the
# whitespace and digit characters beyond ASCII that str.isspace and
# str.isdecimal accept, characters that look like grammar but are not ('²',
# 'e', '&', a non-ASCII letter), literals too long for a float and exponents
# on both sides of the limit.  Common tokens are listed more than once.
_FUZZ_PIECES = (
    *"zzzzxZy++--**^^.", " ", " ", "  ", "\t", "\n", "\xa0", "\x1c", "\u2003", "\u3000",
    *"0112779", "10", "0.5", ".25", "3.", "\u0663", "\u0663\u0665", "\uff17", "\u0967",
    "\xb2", "e", "E", "1e5", "&", "\xe9", "\u03c0", "9" * 400, "4096", "4097", "99999",
    "0" * 30 + "3",
)
_FUZZ_SPACES = ("", "", "", " ", " ", "  ", "\t", "\xa0", "\x1c")
_FUZZ_COEFFICIENTS = ("1", "2", "2", "3.5", ".75", "10", "0", "\u0663", "12\u0665", "9" * 400)
# 4096 and above build long coefficient tuples, so they are drawn rarely.
_FUZZ_EXPONENTS = (*"01234" * 20, "4096", "4097", "1000000")


def _fuzz_text(rng):
    choice = rng.choice
    if rng.random() < 0.4:
        return "".join([choice(_FUZZ_PIECES) for _ in range(rng.randint(0, 10))])
    # A polynomial with random spacing; half of them get one piece swapped,
    # dropped or inserted.
    var = choice("zzxw")
    parts = []
    for k in range(rng.randint(1, 5)):
        if k or rng.random() < 0.3:
            parts += [choice(_FUZZ_SPACES), choice("+-"), choice(_FUZZ_SPACES)]
        if rng.random() < 0.7:
            parts += [choice(_FUZZ_COEFFICIENTS), choice(_FUZZ_SPACES)]
            if rng.random() < 0.3:
                parts += ["*", choice(_FUZZ_SPACES)]
        if rng.random() < 0.8:
            parts.append(var)
            if rng.random() < 0.7:
                parts += [choice(_FUZZ_SPACES), "^", choice(_FUZZ_SPACES), choice(_FUZZ_EXPONENTS)]
        parts.append(choice(_FUZZ_SPACES))
    if rng.random() < 0.5:
        k = rng.randrange(len(parts))
        action = rng.random()
        if action < 0.4:
            parts[k] = choice(_FUZZ_PIECES)
        elif action < 0.7:
            del parts[k]
        else:
            parts.insert(k, choice(_FUZZ_PIECES))
    return "".join(parts)


class TestMatchesReferenceParser:
    """The term-regex parser against the character loop it replaced."""

    def test_fuzzed_strings_agree_exactly(self):
        rng = random.Random(20240909)
        seen = {"ok": 0, "error": 0}
        kinds = set()
        for _ in range(200_000):
            text = _fuzz_text(rng)
            want = _outcome(_reference_parse, text)
            got = _outcome(_parse_and_check, text)
            assert got == want, text
            seen[want[0]] += 1
            if want[0] == "error":
                kinds.add(want[1])
        # The corpus reaches both outcomes and every error kind.
        assert seen["ok"] > 20_000 and seen["error"] > 20_000
        assert kinds == {
            "unexpected-token", "bad-exponent", "multiple-variables", "empty-input", "overflow"
        }

    @pytest.mark.parametrize(
        "text",
        [
            "", " ", "\xa0\x1c", "+", "- ", "x^", "x^ ", "x ^\xa02", "x^\u0663", "x^\xb2",
            "\u0663x^2 - \u0665", "2 * * x", "2*", "*x", "x*2", "2.x^2", ".", "x + .", "x - -x",
            "x^2^3", "x^2 3", "2^3 + x", "x + y", "x\u2003+\u30001", "1e5x", "x^4097",
            "x^" + "0" * 50 + "4096", "9" * 400 + "x", "x + " + "9" * 400, "z z", "\xe9^2",
        ],
    )
    def test_hand_cases_agree_exactly(self, text):
        assert _outcome(parse_polynomial_with_variable, text) == _outcome(_reference_parse, text)
