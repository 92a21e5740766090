"""Unit tests for the polynomial expression parser and printer."""

import math

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
