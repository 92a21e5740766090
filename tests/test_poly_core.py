"""Unit tests for polynomial containers, evaluation, and depression."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitroots.poly_core import (
    DepressedCubic,
    DepressedQuartic,
    RealPolynomial,
    RootSet,
    depress_cubic,
    depress_quartic,
    evaluate,
    horner_with_derivative,
    reconstruct_cubic,
    reconstruct_quartic,
)

finite_coeff = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRealPolynomial:
    def test_trims_trailing_zeros(self):
        p = RealPolynomial((1.0, 2.0, 0.0, 0.0))
        assert p.coefficients == (1.0, 2.0)
        assert p.degree == 1

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            RealPolynomial((0.0, 0.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RealPolynomial(())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RealPolynomial((1.0, math.inf))
        with pytest.raises(ValueError):
            RealPolynomial((math.nan,))

    def test_degree_zero_allowed(self):
        p = RealPolynomial((5.0,))
        assert p.degree == 0
        assert p.leading_coefficient == 5.0

    def test_monic(self):
        p = RealPolynomial((6.0, -7.0, 0.0, 2.0))
        m = p.monic()
        assert m.leading_coefficient == 1.0
        assert m.coefficients == (3.0, -3.5, 0.0, 1.0)
        # Signed zeros, subnormals and ratios near the float range come out
        # as the public constructor would build them from the quotients.
        tiny = 5e-324
        for coefficients in (
            (-0.0, 0.0, -3.0),
            (-0.0, -0.0, 2.0),
            (tiny, -tiny, 1e-300, 7.0),
            (tiny, 1e-20, -2e-310),
            (1.7e308, -1.0, 1.0001),
            (1e308, 1e-10, 0.5, -1.25),
            (-1e-308, 3e-320, 1e308),
        ):
            p = RealPolynomial(coefficients)
            lead = p.leading_coefficient
            want = RealPolynomial(tuple(c / lead for c in p.coefficients))
            assert repr(p.monic()) == repr(want), coefficients
        for coefficients in ((1e10, 1e-300), (1.0, -1e308, 0.0, 0.5)):
            with pytest.raises(ValueError) as monic_error:
                RealPolynomial(coefficients).monic()
            with pytest.raises(ValueError) as constructor_error:
                RealPolynomial(tuple(c / coefficients[-1] for c in coefficients))
            assert str(monic_error.value) == str(constructor_error.value), coefficients

    def test_monic_of_monic_is_same_values(self):
        p = RealPolynomial((6.0, -7.0, 0.0, 1.0))
        assert p.monic().coefficients == p.coefficients
        assert p.monic() is p

    def test_frozen(self):
        p = RealPolynomial((1.0, 1.0))
        with pytest.raises(AttributeError):
            p.coefficients = (2.0,)


class TestEvaluation:
    def test_evaluate_known(self):
        p = RealPolynomial((6.0, -7.0, 0.0, 1.0))  # z^3 - 7z + 6
        assert evaluate(p, 1.0) == 0.0
        assert evaluate(p, 2.0) == 0.0
        assert evaluate(p, -3.0) == 0.0
        assert evaluate(p, 0.0) == 6.0

    def test_evaluate_complex(self):
        p = RealPolynomial((2.0, 2.0, 1.0))  # z^2 + 2z + 2
        assert abs(evaluate(p, complex(-1.0, 1.0))) == 0.0

    @given(st.lists(finite_coeff, min_size=1, max_size=5).filter(lambda c: any(c)))
    @settings(max_examples=200)
    def test_horner_with_derivative_matches_direct(self, coeffs):
        p = RealPolynomial(tuple(coeffs))
        z = complex(0.7, -0.3)
        value, deriv = horner_with_derivative(tuple(reversed(p.coefficients)), z)
        assert value == evaluate(p, z)
        if p.degree >= 1:
            dp = RealPolynomial([k * c for k, c in enumerate(p.coefficients)][1:])
            assert abs(deriv - evaluate(dp, z)) <= 1e-9 * (1.0 + abs(deriv))


class TestDepression:
    def test_cubic_pinned_example(self):
        # w^3 - 6w^2 + 11w - 6 has roots 1, 2, 3; shifting by w = z - 2
        # gives z^3 - z with roots -1, 0, 1.
        p = RealPolynomial((-6.0, 11.0, -6.0, 1.0))
        dep = depress_cubic(p)
        assert dep.a == -1.0
        assert dep.b == 0.0
        assert dep.shift == -2.0
        q = RealPolynomial((dep.b, dep.a, 0.0, 1.0))
        for root in (-1.0, 0.0, 1.0):
            assert abs(evaluate(q, root)) == 0.0

    def test_cubic_shift_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            coeffs = tuple(rng.uniform(-50.0, 50.0) for _ in range(3)) + (
                rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0),
            )
            p = RealPolynomial(coeffs)
            dep = depress_cubic(p)
            q = RealPolynomial((dep.b, dep.a, 0.0, 1.0))
            m = p.monic()
            for _ in range(5):
                w = rng.uniform(-4.0, 4.0)
                lhs = evaluate(m, w)
                rhs = evaluate(q, w + dep.shift)
                scale = max(1.0, abs(lhs), abs(rhs))
                assert abs(lhs - rhs) <= 1e-11 * scale

    def test_quartic_shift_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            coeffs = tuple(rng.uniform(-50.0, 50.0) for _ in range(4)) + (
                rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0),
            )
            p = RealPolynomial(coeffs)
            dep = depress_quartic(p)
            q = RealPolynomial((dep.c, dep.b, dep.a, 0.0, 1.0))
            m = p.monic()
            for _ in range(5):
                w = rng.uniform(-4.0, 4.0)
                lhs = evaluate(m, w)
                rhs = evaluate(q, w + dep.shift)
                scale = max(1.0, abs(lhs), abs(rhs))
                assert abs(lhs - rhs) <= 1e-11 * scale

    def test_cubic_reconstruction_round_trip(self):
        rng = random.Random(13)
        for _ in range(500):
            source = tuple(rng.uniform(-100.0, 100.0) for _ in range(3)) + (1.0,)
            p = RealPolynomial(source)
            dep = depress_cubic(p)
            back = reconstruct_cubic(dep)
            m = max(
                1.0,
                *(abs(c) for c in p.monic().coefficients),
                abs(dep.a),
                abs(dep.b),
            )
            for got, want in zip(back.coefficients, p.monic().coefficients):
                assert abs(got - want) <= 4.0 * math.ulp(m)

    def test_quartic_reconstruction_round_trip(self):
        rng = random.Random(17)
        for _ in range(500):
            source = tuple(rng.uniform(-100.0, 100.0) for _ in range(4)) + (1.0,)
            p = RealPolynomial(source)
            dep = depress_quartic(p)
            back = reconstruct_quartic(dep)
            m = max(
                1.0,
                *(abs(c) for c in p.monic().coefficients),
                abs(dep.a),
                abs(dep.b),
                abs(dep.c),
            )
            for got, want in zip(back.coefficients, p.monic().coefficients):
                assert abs(got - want) <= 4.0 * math.ulp(m)

    def test_non_monic_input_depresses_as_its_monic_form_bit_for_bit(self):
        rng = random.Random(19)
        for _ in range(300):
            for degree, depress in ((3, depress_cubic), (4, depress_quartic)):
                lead = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0)
                p = RealPolynomial([rng.uniform(-50.0, 50.0) for _ in range(degree)] + [lead])
                assert repr(depress(p)) == repr(depress(p.monic()))

    def test_depress_rejects_an_overflowing_monic_form(self):
        for depress, degree in ((depress_cubic, 3), (depress_quartic, 4)):
            p = RealPolynomial((1e10,) + (0.0,) * (degree - 1) + (1e-300,))
            with pytest.raises(ValueError, match="^coefficients must be finite, got inf$"):
                depress(p)

    def test_depress_requires_matching_degree(self):
        with pytest.raises(ValueError):
            depress_cubic(RealPolynomial((1.0, 1.0, 1.0)))
        with pytest.raises(ValueError):
            depress_quartic(RealPolynomial((1.0, 1.0, 1.0, 1.0)))


class TestContainers:
    def test_rootset_length_validation(self):
        with pytest.raises(ValueError):
            RootSet(roots=(1 + 0j,), residuals=(0.0, 0.0), branch_tags=("a",))

    def test_rootset_len(self):
        rs = RootSet(roots=(1 + 0j, 2 + 0j), residuals=(0.0, 0.0), branch_tags=("a", "b"))
        assert len(rs) == 2

    def test_depressed_dataclasses_carry_shift(self):
        assert DepressedCubic(a=1.0, b=2.0, shift=3.0).shift == 3.0
        assert DepressedQuartic(a=1.0, b=2.0, c=3.0, shift=4.0).shift == 4.0
