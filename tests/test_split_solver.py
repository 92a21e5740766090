"""Unit tests for the closed-form split solver."""

import cmath
import math
import pathlib
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splitroots
from splitroots import split_solver
from splitroots.oracle import find_roots, max_pairing_distance, pair_roots
from splitroots.poly_core import (
    DepressedCubic,
    DepressedQuartic,
    RealPolynomial,
    RootSet,
    _depress_monic_cubic,
    _monic_coefficients,
    depress_cubic,
    depress_quartic,
    evaluate,
    horner_abs,
    horner_with_derivative,
)
from splitroots.split_solver import (
    OMEGA,
    OMEGA_ANSATZ,
    ONE_MINUS_OMEGA,
    SplitAnsatz,
    UnsupportedDegreeError,
    cubic_naive_split_residual,
    cubic_omega_split_residual,
    naive_cubic_reduction,
    omega_decompose,
    quadratic_split_residual,
    quartic_resolvent_coefficients,
    quartic_split_residual,
    solve,
    solve_depressed_cubic,
    solve_depressed_quartic,
    solve_quadratic,
)

moderate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _residual_bound(p: RealPolynomial, z: complex) -> float:
    scale = max(1.0, max(abs(c) for c in p.coefficients))
    return 1e-8 * scale * max(1.0, abs(z)) ** p.degree


def _depressed(a: float, b: float, c: float | None = None) -> RealPolynomial:
    # w^3 + a*w + b, or w^4 + a*w^2 + b*w + c with c given.  solve()
    # depresses it by a zero shift, so its one finish runs against these
    # same coefficients.
    return RealPolynomial((b, a, 0.0, 1.0) if c is None else (c, b, a, 0.0, 1.0))


class TestOmegaConstants:
    def test_omega_is_primitive_sixth_root(self):
        # omega = (1 + i*sqrt(3))/2 satisfies omega^3 = -1 and |omega| = 1.
        assert abs(OMEGA**3 + 1.0) <= 4.0 * math.ulp(1.0)
        assert abs(abs(OMEGA) - 1.0) <= 4.0 * math.ulp(1.0)

    def test_one_minus_omega_is_conjugate(self):
        assert ONE_MINUS_OMEGA == OMEGA.conjugate()
        assert abs(ONE_MINUS_OMEGA) == 1.0

    def test_omega_decompose_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            z = complex(rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0))
            x, y = omega_decompose(z)
            back = complex(x, 0.0) + OMEGA * y
            assert abs(back - z) <= 1e-13 * (1.0 + abs(z))

    def test_omega_decompose_real_input(self):
        x, y = omega_decompose(complex(2.5, 0.0))
        assert (x, y) == (2.5, 0.0)

    def test_ansatz_holds_omega(self):
        assert OMEGA_ANSATZ.omega == OMEGA
        assert abs(OMEGA_ANSATZ.omega**3 + 1.0) <= 4.0 * math.ulp(1.0)
        assert abs(abs(OMEGA_ANSATZ.omega) - 1.0) <= 4.0 * math.ulp(1.0)

    def test_ansatz_compose_decompose_round_trip(self):
        ansatz = SplitAnsatz(omega=complex(0.0, 1.0))  # the z = x + i*y split
        rng = random.Random(4)
        for _ in range(100):
            x = rng.uniform(-9.0, 9.0)
            y = rng.uniform(-9.0, 9.0)
            assert ansatz.compose(x, y) == complex(x, y)
            bx, by = ansatz.decompose(complex(x, y))
            assert (bx, by) == (x, y)
        ox, oy = OMEGA_ANSATZ.decompose(OMEGA_ANSATZ.compose(1.5, -2.0))
        assert abs(ox - 1.5) <= 4.0 * math.ulp(2.0)
        assert abs(oy + 2.0) <= 4.0 * math.ulp(2.0)


class TestQuadratic:
    def test_real_roots(self):
        rs = solve_quadratic(-3.0, 2.0)  # z^2 - 3z + 2
        assert sorted(z.real for z in rs.roots) == [1.0, 2.0]
        assert all(z.imag == 0.0 for z in rs.roots)
        assert all(tag.startswith("trivial-imaginary-branch") for tag in rs.branch_tags)

    def test_conjugate_pair_exact_closure(self):
        rs = solve_quadratic(2.0, 2.0)  # z^2 + 2z + 2
        assert rs.roots[0] == rs.roots[1].conjugate()
        assert {z.imag for z in rs.roots} == {1.0, -1.0}
        assert all(tag.startswith("conjugate-branch") for tag in rs.branch_tags)

    def test_double_root(self):
        rs = solve_quadratic(-2.0, 1.0)  # (z - 1)^2
        assert all(z == 1.0 + 0j for z in rs.roots)

    @given(moderate, moderate)
    @settings(max_examples=300)
    def test_residuals(self, a, b):
        p = RealPolynomial((b, a, 1.0))
        for z in solve_quadratic(a, b).roots:
            assert abs(evaluate(p, z)) <= _residual_bound(p, z)


class TestDepressedCubic:
    def test_pinned_roots(self):
        rs = solve(_depressed(-7.0, 6.0))
        assert max_pairing_distance(rs.roots, [1 + 0j, 2 + 0j, -3 + 0j]) <= 1e-9

    def test_a_zero_real_cube_root(self):
        rs = solve(_depressed(0.0, 8.0))  # z^3 + 8
        assert max_pairing_distance(
            rs.roots, [-2 + 0j, 1 + 1j * math.sqrt(3.0), 1 - 1j * math.sqrt(3.0)]
        ) <= 1e-12
        assert all(tag.startswith("cube-root") for tag in rs.branch_tags)

    def test_triple_zero(self):
        rs = solve(_depressed(0.0, 0.0))
        assert rs.roots == (0j, 0j, 0j)

    def test_negative_b_cubic_matches_its_reference(self):
        # Depressed, b < 0 and a^3/27 is small against b^2/4; the cancelling
        # branch gave 0.2765 for the real root (34 % off, residual 0.91).
        # The reference is mpmath 1.3.0 polyroots at 50 digits, rounded.
        p = RealPolynomial((-1.2736475116857366, -2.682088781442138e-05, 0.0013130351493420877, 16.973170351013604))
        pair = complex(-0.21092099793898142, 0.3652790555946512)
        want = [complex(0.42176463642641737, 0.0), pair, pair.conjugate()]
        roots = sorted(solve(p).roots, key=lambda z: (z.imag != 0.0, -z.imag))
        assert all(abs(z - w) <= 1e-15 * abs(w) for z, w in zip(roots, want)), roots

    def test_one_real_two_complex(self):
        rs = solve(_depressed(1.0, 1.0))  # z^3 + z + 1
        real = [z for z in rs.roots if z.imag == 0.0]
        assert len(real) == 1
        assert abs(real[0].real - -0.6823278038280193) <= 1e-12

    @given(moderate, moderate)
    @settings(max_examples=300)
    def test_residuals(self, a, b):
        p = _depressed(a, b)
        for z in solve(p).roots:
            assert abs(evaluate(p, z)) <= _residual_bound(p, z)


# ---------------------------------------------------------------------------
# reference: the complex polar/rect omega kernel the real forms replaced
# ---------------------------------------------------------------------------


def _reference_omega_cubic(a, b):
    # w = (1 - omega)*x - omega*a/(3x) over the three complex cube roots of
    # one quadratic-formula branch for x^3, as _omega_cubic computed it with
    # cmath.polar and cmath.rect; the a == 0 and near-origin paths are left out.
    # A real x^3 comes from the branch whose sign matches b's, so it never
    # cancels; a complex one (disc < 0) cannot cancel and takes "+".
    disc = 0.25 * b * b + a * a * a / 27.0
    sqrt_disc = cmath.sqrt(complex(disc, 0.0))
    x_cubed, branch = (0.5 * b + sqrt_disc, "+") if b >= 0.0 or disc < 0.0 else (0.5 * b - sqrt_disc, "-")
    r, theta = cmath.polar(x_cubed)
    m = r ** (1.0 / 3.0)
    xs = [cmath.rect(m, (theta + 2.0 * math.pi * k) / 3.0) for k in range(3)]
    third_a = a / 3.0
    return [ONE_MINUS_OMEGA * x - OMEGA * (third_a / x) for x in xs], branch


def _kernel_inputs():
    # (a, b) pairs for the omega kernel, a != 0: uniform and log-uniform
    # draws (both branches of the disc >= 0 case, both signs of x^3, and
    # disc < 0), plus hand cases.
    rng = random.Random(20261019)
    pairs = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(2000)]
    pairs += [
        tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(2)) for _ in range(2000)
    ]
    # b < 0, where b/2 + sqrt(disc) would cancel to zero: the "-" branch
    pairs += [(1e-120, -1.0), (-1e-120, -7.0), (231344.73995406597, -1.726389263103704e57)]
    # disc == 0 exactly: (w - 1)^2 (w + 2) and (w - 2)^2 (w + 4)
    pairs += [(-3.0, 2.0), (-12.0, 16.0), (-3.0, -2.0)]
    # the depressed resolvent of w^4 + 4w^2 + 1e-8 w + 4, with disc == 0
    _, r2, r1, r0 = quartic_resolvent_coefficients(4.0, 1e-8, 4.0)
    pairs.append(_depress_monic_cubic(r2, r1, r0)[:2])
    return pairs


KERNEL_INPUTS = _kernel_inputs()


class TestOmegaKernel:
    def test_inputs_cover_every_case(self):
        cases = set()
        for a, b in KERNEL_INPUTS:
            disc = 0.25 * b * b + a * a * a / 27.0
            if disc < 0.0:
                cases.add("disc < 0")
                continue
            branch = _reference_omega_cubic(a, b)[1]
            x_cubed = 0.5 * b + math.sqrt(disc) if branch == "+" else 0.5 * b - math.sqrt(disc)
            cases.add(f"{branch}, x^3 {'>' if x_cubed > 0.0 else '<'} 0")
            if disc == 0.0:
                cases.add("disc == 0")
        assert cases == {"disc < 0", "+, x^3 > 0", "-, x^3 < 0", "disc == 0"}

    def test_matches_the_complex_reference(self):
        # Root k against the reference's root k, within 8 ulps of the
        # largest root: the same tags mean the same roots.
        for a, b in KERNEL_INPUTS:
            roots, tags = split_solver._omega_cubic(a, b)
            want, branch = _reference_omega_cubic(a, b)
            assert tags == tuple(f"omega-branch-{k}:{branch}" for k in range(3))
            scale = max(map(abs, want))
            for z, w in zip(roots, want):
                assert abs(z - w) <= 8 * 2.0**-52 * scale, (a, b)

    def test_negative_b_takes_the_branch_that_does_not_cancel(self):
        # w^3 + 0.00089w - 3.39: b/2 + sqrt(disc) cancels to 7.7e-12, with
        # relative error 1.8e-5, and took all three roots 6e-6 off.  The
        # roots are mpmath 1.3.0 polyroots at 50 digits, rounded.
        roots, tags = split_solver._omega_cubic(0.0008916153782150636, -3.3939463287828544)
        assert roots == [
            complex(1.502603860151818, 0.0),
            complex(-0.751301930075909, 1.3016356578496047),
            complex(-0.751301930075909, -1.3016356578496047),
        ]
        assert tags == ("omega-branch-0:-", "omega-branch-1:-", "omega-branch-2:-")

    @given(
        st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
        st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
    )
    @settings(max_examples=500)
    @example(a=-3.0, b=2.0)
    @example(a=-1.3333333333333333, b=0.5925925925925926)
    @example(a=1e-120, b=-1.0)
    def test_real_roots_are_real_and_pairs_conjugate(self, a, b):
        roots, tags = split_solver._omega_cubic(a, b)
        if not tags[0].startswith("omega-branch"):
            return
        if 0.25 * b * b + a * a * a / 27.0 < 0.0:
            assert all(z.imag == 0.0 for z in roots)
        else:
            # one root real, the other two exactly conjugate
            assert any(roots[k].imag == 0.0 and roots[k - 1] == roots[k - 2].conjugate() for k in range(3))


class TestDepressedQuartic:
    def test_biquadratic(self):
        rs = solve(_depressed(-5.0, 0.0, 4.0))
        assert max_pairing_distance(
            rs.roots, [1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j]
        ) <= 1e-12
        assert all(tag.startswith("biquadratic") for tag in rs.branch_tags)

    def test_resolvent_path(self):
        # z^4 - 7z^2 + 6z has roots 0, 1, 2, -3.
        rs = solve(_depressed(-7.0, 6.0, 0.0))
        assert max_pairing_distance(
            rs.roots, [0j, 1 + 0j, 2 + 0j, -3 + 0j]
        ) <= 1e-9
        assert any(tag.startswith("resolvent-root") for tag in rs.branch_tags)

    @given(moderate, moderate, moderate)
    @settings(max_examples=300)
    # (z^2 + 2)^2 + 1e-8 z: two near-double pairs at +-1.414i, whose
    # resolvent has a near-double root next to 0.
    @example(a=4.0, b=1e-8, c=4.0)
    def test_residuals(self, a, b, c):
        p = _depressed(a, b, c)
        for z in solve(p).roots:
            assert abs(evaluate(p, z)) <= _residual_bound(p, z)

    def test_near_double_pairs_meet_the_bound(self):
        # w^4 + 2u w^2 + eps w + u^2 = (w^2 + u)^2 + eps w: two near-double
        # roots (pairs for u > 0), and a resolvent with a near-double root
        # next to 0.  The candidate-set solver missed the bound on 14 of these
        # 500 quartics.
        rng = random.Random(11)
        over = 0
        for _ in range(500):
            u = rng.uniform(-5.0, 5.0)
            eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -4.0)
            p = _depressed(2.0 * u, eps, u * u)
            rs = solve(p)
            over += any(abs(evaluate(p, z)) > _residual_bound(p, z) for z in rs.roots)
        assert over <= 0

    @pytest.mark.parametrize(
        "abc, errors, tag",
        [
            # the largest root's factors within a few ulps: kept
            ((-1.0, -6.0, 6.0), [0], "resolvent-root-0"),
            # they miss by about 7.8e8 ulps: the next root's are taken
            ((-93007668.95192192, 9020291.434812276, -218706.75076684702), [1, 0], "resolvent-root-1"),
        ],
    )
    def test_further_resolvent_roots_only_when_needed(self, monkeypatch, abc, errors, tag):
        # errors: per factorization tried, 1 when its error is over the
        # tolerance and 0 when within it.
        calls = []
        factors = split_solver._quartic_factors

        def recording(*args):
            result = factors(*args)
            calls.append(result[0])
            return result

        monkeypatch.setattr(split_solver, "_quartic_factors", recording)
        _, tags = solve_depressed_quartic(DepressedQuartic(*abc))
        assert [int(e > split_solver._FACTOR_ULPS * split_solver._EPS) for e in calls] == errors
        assert tags[0] == tag + ":x+:y+"

    def test_residuals_are_exact(self):
        # The finish's residuals must be |p(z)| to the bit.
        rng = random.Random(37)
        for k in range(400):
            if k % 2:
                a, b, c = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(3))
            else:
                a, b, c = (rng.uniform(-10.0, 10.0) for _ in range(3))
            p = _depressed(a, b, c)
            rs = solve(p)
            for z, r in zip(rs.roots, rs.residuals):
                assert r == abs(evaluate(p, z))


class TestSolveDispatch:
    def test_linear(self):
        rs = solve(RealPolynomial((6.0, 3.0)))
        assert rs.roots == (complex(-2.0, 0.0),)
        assert rs.branch_tags == ("linear",)

    def test_degree_zero_invalid(self):
        with pytest.raises(ValueError):
            solve(RealPolynomial((5.0,)))

    def test_degree_five_unsupported(self):
        p = RealPolynomial((1.0, 0.0, 0.0, 0.0, 0.0, 1.0))
        with pytest.raises(UnsupportedDegreeError) as exc:
            solve(p)
        assert exc.value.degree == 5
        assert "degree 5" in str(exc.value)
        assert "appreciable help" in str(exc.value)

    def test_degree_seven_unsupported(self):
        p = RealPolynomial((1.0,) + (0.0,) * 6 + (2.0,))
        with pytest.raises(UnsupportedDegreeError) as exc:
            solve(p)
        assert exc.value.degree == 7

    def test_unsupported_degree_is_value_error(self):
        assert issubclass(UnsupportedDegreeError, ValueError)

    def test_non_monic_cubic(self):
        # 2z^3 - 14z + 12 = 2(z^3 - 7z + 6)
        p = RealPolynomial((12.0, -14.0, 0.0, 2.0))
        rs = solve(p)
        assert max_pairing_distance(rs.roots, [1 + 0j, 2 + 0j, -3 + 0j]) <= 1e-9

    def test_full_quartic_matches_oracle(self):
        p = RealPolynomial((5.0, 2.0, 3.0, 2.0, 1.0))
        rs = solve(p)
        oracle = find_roots(p)
        assert max_pairing_distance(rs.roots, oracle.roots) <= 1e-10

    def test_residuals_are_against_source_polynomial(self):
        p = RealPolynomial((12.0, -14.0, 0.0, 2.0))
        rs = solve(p)
        for z, r in zip(rs.roots, rs.residuals):
            assert r == abs(evaluate(p, z))

    def test_residuals_are_against_source_polynomial_on_every_path(self, monkeypatch):
        # Resolvent-path quartics and wide-magnitude cubics and quartics,
        # with and without Newton steps: every residual is |p(z)| exactly.
        full_passes = [0]

        def counting(coeffs_rev, z):
            full_passes[0] += 1
            return horner_with_derivative(coeffs_rev, z)

        monkeypatch.setattr(split_solver, "horner_with_derivative", counting)
        polished = unpolished = resolvent = 0
        for p in _every_path_polynomials():
            full_passes[0] = 0
            rs = solve(p)
            if full_passes[0]:
                polished += 1
            else:
                unpolished += 1
            resolvent += rs.branch_tags[0].startswith("resolvent-root")
            for z, r in zip(rs.roots, rs.residuals):
                assert r == abs(evaluate(p, z))
        assert polished >= 50 and unpolished >= 50 and resolvent >= 100

    def test_real_roots_are_polished_at_float_points(self, monkeypatch):
        # A real root's Newton steps evaluate p at float points only, a
        # complex root's at complex points only.
        polish = split_solver._polish_root
        points = {True: set(), False: set()}
        polishes = {True: 0, False: 0}
        real = [None]

        def polishing(coeffs_rev, z, scale, residual):
            real[0] = z.imag == 0.0
            polishes[real[0]] += 1
            result = polish(coeffs_rev, z, scale, residual)
            real[0] = None
            return result

        def recording(coeffs_rev, z):
            points.setdefault(real[0], set()).add(type(z))
            return horner_with_derivative(coeffs_rev, z)

        monkeypatch.setattr(split_solver, "_polish_root", polishing)
        monkeypatch.setattr(split_solver, "horner_with_derivative", recording)
        for p in _every_path_polynomials():
            solve(p)
        assert points == {True: {float}, False: {complex}}
        assert polishes[True] >= 100 and polishes[False] >= 20

    @given(
        st.integers(min_value=2, max_value=4),
        st.lists(moderate, min_size=4, max_size=4),
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_polynomials_solve_to_tolerance(self, degree, low_coeffs, lead):
        coeffs = tuple(low_coeffs[:degree]) + (lead,)
        p = RealPolynomial(coeffs)
        rs = solve(p)
        assert len(rs) == degree
        for z in rs.roots:
            assert abs(evaluate(p, z)) <= _residual_bound(p, z)

    def test_conjugate_closure(self):
        rng = random.Random(23)
        for _ in range(300):
            degree = rng.choice([2, 3, 4])
            coeffs = tuple(rng.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,)
            p = RealPolynomial(coeffs)
            roots = list(solve(p).roots)
            # every root's conjugate must be matched by some root of the set
            for z in roots:
                partner = min(roots, key=lambda w: abs(w - z.conjugate()))
                assert abs(partner - z.conjugate()) <= 1e-7 * (1.0 + abs(z))


def _every_path_polynomials():
    # 600 seeded cubics and quartics: a third monic with coefficients uniform
    # in [-10, 10], the rest with every coefficient +-10**u, u in [-6, 6].
    rng = random.Random(41)
    polys = []
    for k in range(600):
        degree = 3 + k % 2
        if k % 3:
            coeffs = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(degree + 1))
        else:
            coeffs = tuple(rng.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,)
        polys.append(RealPolynomial(coeffs))
    return polys


def _fails_check(p: RealPolynomial, roots) -> bool:
    # perfbench/check.py's test: a root over the README bound, or no match
    # with the oracle within acceptance criterion 1's tolerance.
    if any(abs(evaluate(p, z)) > _residual_bound(p, z) for z in roots):
        return True
    oracle = find_roots(p)
    separations = [abs(u - v) for i, u in enumerate(oracle.roots) for v in oracle.roots[i + 1 :]]
    tolerance = 1e-7 if min(separations) >= 1e-3 else max(1e-7, 10.0 * max(oracle.cluster_radii))
    return not (oracle.converged and max_pairing_distance(roots, oracle.roots) <= tolerance)


class TestDeflation:
    # A cubic or quartic whose depression shift is over 1e3 times its
    # smallest root keeps its largest root (or a quartic's largest pair) and
    # solves the rest from the quotient.

    @pytest.mark.parametrize(
        "coeffs, families",
        [
            # roots 6.3e-6, +-8.19 and -5.4e9: without deflation all three
            # small roots came out as 6.3e-6
            (
                (6.194871156298451, -988715.5609389498, 8.649882697890655, 14740.533409395332, 2.7324526537821474e-06),
                ("resolvent", "omega", "omega", "omega"),
            ),
            # roots 56 +- 34i, -38 and 4.2e-6: the largest pair is divided out
            (
                (0.0002993497689508495, -72.06542137962919, -0.024888502278863765, 0.03223787351065826, -0.0004349435691350653),
                ("resolvent", "resolvent", "trivial", "trivial"),
            ),
            # roots -1.0e6, 6.4e5, 1.1e-3 and -1.3e-3: the cubic quotient's
            # own shift swamps its small roots, so it is deflated in turn
            (
                (1.3177973965732919, -239.57875656400395, -943567.4188907437, 0.5254637104477042, 1.4653516465810048e-06),
                ("resolvent", "omega", "trivial", "trivial"),
            ),
            # roots 4.5e9 and +-1.46e-3: without deflation the two small
            # roots came out as a pair near +-0.037i
            (
                (0.5539407594834058, -1.5704142504809433, -258123.10133823956, 5.7442120909460046e-05),
                ("omega", "trivial", "trivial"),
            ),
            # roots -3.8e9 and -9.8e-6 +- 0.016i: without deflation the pair
            # came out as two real roots near +-0.035
            (
                (-2.0843592079086166, -0.16058805611471907, -8200.928429701078, -2.1673283282811203e-06),
                ("omega", "conjugate", "conjugate"),
            ),
        ],
    )
    def test_small_roots_come_from_the_quotient(self, coeffs, families):
        p = RealPolynomial(coeffs)
        rs = solve(p)
        assert tuple(tag.split("-")[0] for tag in rs.branch_tags) == families
        assert not _fails_check(p, rs.roots)

    def test_wide_quartics_match_the_oracle(self):
        # Coefficients +-10**u, u uniform in [-6, 6], as in the lib-wide
        # benchmark corpus.  Solved without deflation, 33 of these 300
        # quartics fail; the count may only fall.
        rng = random.Random(41)
        failed = 0
        for _ in range(300):
            p = RealPolynomial(tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(5)))
            failed += _fails_check(p, solve(p).roots)
        assert failed <= 3

    def test_wide_cubics_match_the_oracle(self):
        # The same for cubics: solved without deflation, 14 of these 300
        # fail; the count may only fall.
        rng = random.Random(43)
        failed = 0
        for _ in range(300):
            p = RealPolynomial(tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(4)))
            failed += _fails_check(p, solve(p).roots)
        assert failed <= 1

    def test_cubic_real_root_under_its_largest_pair(self):
        # Roots -1.99e-9 and -97.9 +- 448.5i: the shift swamps the real
        # root, which then comes from -c0 over the pair's product and keeps
        # its tag (":-", since the depressed b is negative).  Without that it
        # came out 1e-4 off, relative.  The reference is mpmath 1.3.0
        # polyroots at 50 digits.
        p = RealPolynomial((3.062482943924934e-05, 15409.49999115185, 14.326795113182952, 0.07313346076028897))
        rs = solve(p)
        (real,) = [z.real for z in rs.roots if z.imag == 0.0]
        assert abs(real - -1.9873992963360744e-09) <= 1e-14 * 1.9873992963360744e-09
        assert sorted(rs.branch_tags) == ["omega-branch-0:-", "omega-branch-1:-", "omega-branch-2:-"]

    def test_unusable_largest_root_leaves_the_roots(self):
        # A largest root whose square is not a normal float is not divided
        # out; the shift 1.0 swamps the root 0 and fires the trigger, and
        # the moved roots come back as they were passed.
        roots = (complex(1e200, 0.0), 1j, -1j, 0j)
        assert split_solver._undepress((0.0, 1.0, 0.0, 1.0, 1.0), roots, "abcd", 1.0) == (roots, "abcd")

    def test_non_finite_quotient_leaves_the_roots(self):
        # Dividing z^3 + 1e308 by the root 2^-10 overflows the quotient, whose
        # roots are then not finite.  The shift 2^-3 swamps the roots 2^-14
        # and 2^-17, and the moved roots come back as they were passed.
        roots, tags = (complex(2.0**-10), complex(2.0**-14), complex(2.0**-17)), ("a", "b", "c")
        kept_roots, kept_tags = split_solver._undepress((1e308, 0.0, 0.0, 1.0), roots, tags, 2.0**-3)
        assert kept_roots == roots and kept_tags is tags


class TestScaleExtremes:
    # Roots far from 1 in modulus.  The tiny roots need the real-axis snap
    # to be relative, and the wide quadratic needs its discriminant taken
    # without squaring 1e160.  Two inputs still give wrong roots, left for
    # ROADMAP item 5: the cubic near 1e300 overflows, and the
    # biquadratic-path quartic loses two roots to its depression shift,
    # which the deflation trigger misses because the branch roots ignore the
    # depressed odd term.  strict=True: once one passes, its marker must
    # come off.

    @pytest.mark.parametrize(
        "coeffs, exact",
        [
            (
                (-1e-30, 0.0, 0.0, 1.0),
                [complex(1e-10, 0.0), complex(-0.5e-10, 0.5e-10 * math.sqrt(3.0)), complex(-0.5e-10, -0.5e-10 * math.sqrt(3.0))],
            ),
            ((1e-20, 0.0, 1.0), [1e-10j, -1e-10j]),
            ((-1e-60, 0.0, 0.0, 0.0, 1.0), [complex(1e-15, 0.0), complex(-1e-15, 0.0), 1e-15j, -1e-15j]),
            ((1.0, 1e160, 1.0), [complex(-1e-160, 0.0), complex(-1e160, 0.0)]),
            # exact: mpmath 1.3.0 polyroots at 50 digits, rounded to double
            pytest.param(
                (1.64167775629069e99, 1.4568137151645082e90, 1.55997270297118e77, 7.815274112789742e38, 1.0),
                [
                    complex(-9337585833714.014, 0.0),
                    complex(-1127032157.3472197, 0.0),
                    complex(-3.907637056394871e38, -5.745430055282432e37),
                    complex(-3.907637056394871e38, 5.745430055282432e37),
                ],
                marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5: scale-invariant solve"),
            ),
        ],
        ids=["z^3-1e-30", "z^2+1e-20", "z^4-1e-60", "z^2+1e160z+1", "biquadratic-swamped-by-shift"],
    )
    def test_roots_within_relative_1e_6(self, coeffs, exact):
        rs = solve(RealPolynomial(coeffs))
        for _, j, distance in pair_roots(rs.roots, exact):
            assert distance <= 1e-6 * abs(exact[j])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: scale-invariant solve")
    def test_cubic_near_1e300_has_finite_roots(self):
        rs = solve(RealPolynomial((1e300, 1e300, 1e300, 1.0)))
        assert all(map(cmath.isfinite, rs.roots))


# Polynomials per corpus and k, for degrees (2, 3, 4), where solving
# 2^(kn) p(2^-k z) does not give 2^k times the roots of p, bit for bit, with
# the same tags.  ROADMAP item 3 brings these to 0; a change that lowers a
# count lowers it here too.
_NOT_EQUIVARIANT = {
    ("lib-uniform", -20): (0, 594, 1000),
    ("lib-uniform", -3): (0, 409, 152),
    ("lib-uniform", -2): (0, 253, 125),
    ("lib-uniform", -1): (0, 122, 60),
    ("lib-uniform", 1): (0, 166, 64),
    ("lib-uniform", 2): (0, 313, 127),
    ("lib-uniform", 3): (0, 450, 154),
    ("lib-uniform", 20): (0, 594, 233),
    ("lib-wide", -20): (66, 551, 823),
    ("lib-wide", -3): (12, 333, 192),
    ("lib-wide", -2): (7, 228, 124),
    ("lib-wide", -1): (3, 105, 47),
    ("lib-wide", 1): (5, 114, 70),
    ("lib-wide", 2): (10, 242, 135),
    ("lib-wide", 3): (14, 371, 191),
    ("lib-wide", 20): (41, 561, 464),
}


def test_power_of_two_equivariance_ratchet():
    # The benchmark's lib-uniform and lib-wide seed-1 inputs, 1000 per
    # degree, from the same per-degree streams.  Scaling c_i by 2^(k(n-i))
    # is exact on them.
    def exact_parts(rs, k):
        return rs.branch_tags, [math.ldexp(part, k).hex() for z in rs.roots for part in (z.real, z.imag)]

    counts = {}
    for degree in (2, 3, 4):
        uniform = random.Random(f"1-{degree}")
        wide = random.Random(f"1-wide-{degree}")
        corpora = {
            "lib-uniform": [
                tuple(uniform.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,) for _ in range(1000)
            ],
            "lib-wide": [
                tuple(wide.choice((-1.0, 1.0)) * 10.0 ** wide.uniform(-6.0, 6.0) for _ in range(degree + 1))
                for _ in range(1000)
            ],
        }
        for name, polys in corpora.items():
            for coeffs in polys:
                rs = solve(RealPolynomial(coeffs))
                for k in (-20, -3, -2, -1, 1, 2, 3, 20):
                    scaled = [math.ldexp(c, k * (degree - i)) for i, c in enumerate(coeffs)]
                    got = exact_parts(solve(RealPolynomial(scaled)), 0)
                    counts.setdefault((name, k), [0, 0, 0])[degree - 2] += got != exact_parts(rs, k)
    counts = {key: tuple(row) for key, row in counts.items()}
    print(f"not equivariant, degrees 2/3/4: {counts}")
    assert counts.keys() == _NOT_EQUIVARIANT.keys()
    for key, committed in _NOT_EQUIVARIANT.items():
        assert all(map(int.__le__, counts[key], committed)), (key, counts[key], committed)


class TestSplitResiduals:
    def test_quadratic_vanishes_at_roots(self):
        a, b = 2.0, 2.0
        for z in solve_quadratic(a, b).roots:
            sr = quadratic_split_residual(a, b, z.real, z.imag)
            assert max(map(abs, sr)) <= 1e-12

    def test_naive_cubic_imag_is_negated_expansion(self):
        rng = random.Random(5)
        for _ in range(500):
            a = rng.uniform(-10.0, 10.0)
            b = rng.uniform(-10.0, 10.0)
            x = rng.uniform(-5.0, 5.0)
            y = rng.uniform(-5.0, 5.0)
            direct = (complex(x, y) ** 3 + a * complex(x, y) + b).imag
            printed = cubic_naive_split_residual(a, b, x, y)[1]
            scale = max(1.0, abs(direct), abs(printed))
            assert abs(printed + direct) <= 1e-12 * scale

    def test_naive_cubic_real_matches_expansion(self):
        rng = random.Random(6)
        for _ in range(500):
            a = rng.uniform(-10.0, 10.0)
            b = rng.uniform(-10.0, 10.0)
            x = rng.uniform(-5.0, 5.0)
            y = rng.uniform(-5.0, 5.0)
            direct = (complex(x, y) ** 3 + a * complex(x, y) + b).real
            printed = cubic_naive_split_residual(a, b, x, y)[0]
            scale = max(1.0, abs(direct))
            assert abs(printed - direct) <= 1e-12 * scale

    def test_omega_cubic_residual_vanishes_at_roots(self):
        rng = random.Random(8)
        for _ in range(200):
            a = rng.uniform(-10.0, 10.0)
            b = rng.uniform(-10.0, 10.0)
            scale = max(1.0, abs(a), abs(b))
            for z in solve_depressed_cubic(DepressedCubic(a=a, b=b))[0]:
                x, y = omega_decompose(z)
                assert max(map(abs, cubic_omega_split_residual(a, b, x, y))) <= 1e-9 * scale

    def test_quartic_residual_vanishes_at_roots(self):
        rng = random.Random(9)
        for _ in range(200):
            a = rng.uniform(-10.0, 10.0)
            b = rng.uniform(-10.0, 10.0)
            c = rng.uniform(-10.0, 10.0)
            scale = max(1.0, abs(a), abs(b), abs(c))
            for z in solve_depressed_quartic(DepressedQuartic(a=a, b=b, c=c))[0]:
                sr = quartic_split_residual(a, b, c, z.real, z.imag)
                assert max(map(abs, sr)) <= 1e-9 * scale

    def test_evaluators_return_a_plain_pair(self):
        # (real, imag) as a tuple, like the reductions; no record type is exported
        pairs = [
            quadratic_split_residual(0.0, 1.0, 0.0, 0.0),
            cubic_naive_split_residual(1.0, 2.0, 0.5, -1.5),
            cubic_omega_split_residual(1.0, 2.0, 0.5, -1.5),
            quartic_split_residual(1.0, 2.0, 3.0, 0.5, -1.5),
        ]
        for pair in pairs:
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(part) is float for part in pair)
        assert pairs[0] == (1.0, 0.0)  # z^2 + 1 at the origin
        assert "SplitResidual" not in splitroots.__all__
        assert not hasattr(splitroots, "SplitResidual")


class TestReductions:
    def test_naive_cubic_reduction_exact(self):
        rng = random.Random(10)
        for _ in range(200):
            a = rng.uniform(-100.0, 100.0)
            b = rng.uniform(-100.0, 100.0)
            c3, c1, c0 = naive_cubic_reduction(a, b)
            assert c3 == 8.0
            assert c1 == 2.0 * a
            assert c0 == -b

    def test_reductions_are_plain_float_tuples(self):
        # Both eliminations return bare coefficient tuples, not records.
        a, b, c = -7.25, 6.5, 3.0
        reduced = naive_cubic_reduction(a, b)
        assert type(reduced) is tuple
        assert reduced == (8.0, 2.0 * a, -b)
        resolvent = quartic_resolvent_coefficients(a, b, c)
        assert type(resolvent) is tuple and len(resolvent) == 4
        for coefficients in (reduced, resolvent):
            assert all(type(v) is float for v in coefficients)

    def test_naive_reduction_stays_cubic(self):
        # eliminating y between the two naive equations does not drop the
        # degree: the result is again a cubic in x.
        c3, _, _ = naive_cubic_reduction(-7.0, 6.0)
        assert c3 != 0.0

    def test_naive_reduction_roots_are_real_parts(self):
        # Eliminating y (via y^2 = 3x^2 + a, the y != 0 branch) shows the real
        # part x of each conjugate-pair root solves 8x^3 + 2ax - b = 0.
        a, b = 1.0, 1.0  # z^3 + z + 1 has one real root and one conjugate pair
        c3, c1, c0 = naive_cubic_reduction(a, b)
        pair = [z for z in solve(_depressed(a, b)).roots if z.imag != 0.0]
        assert len(pair) == 2
        for z in pair:
            x = z.real
            value = c3 * x**3 + c1 * x + c0
            assert abs(value) <= 1e-9

    def test_resolvent_pinned(self):
        assert quartic_resolvent_coefficients(-7.0, 6.0, 0.0) == (
            1.0,
            -3.5,
            3.0625,
            -0.5625,
        )

    def test_resolvent_roots_are_squared_real_parts(self):
        # for each conjugate pair x +/- iy of the depressed quartic, t = x^2
        # is a root of the resolvent cubic.
        a, b, c = 2.0, 3.0, 5.0
        t3, t2, t1, t0 = quartic_resolvent_coefficients(a, b, c)
        rs = solve(_depressed(a, b, c))
        for z in rs.roots:
            if z.imag == 0.0:
                continue
            t = z.real * z.real
            value = ((t3 * t + t2) * t + t1) * t + t0
            assert abs(value) <= 1e-9 * max(1.0, abs(t0), abs(t1), abs(t2))


class TestSingularPaths:
    def test_unit_cube_roots(self):
        rs = solve(RealPolynomial((-1.0, 0.0, 0.0, 1.0)))  # z^3 - 1
        expected = [1 + 0j, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)]
        assert max_pairing_distance(rs.roots, expected) <= 1e-12

    def test_triple_root_at_origin(self):
        rs = solve(RealPolynomial((0.0, 0.0, 0.0, 1.0)))  # z^3
        assert rs.roots == (0j, 0j, 0j)

    def test_shifted_triple_root(self):
        rs = solve(RealPolynomial((1.0, 3.0, 3.0, 1.0)))  # (w + 1)^3
        assert max_pairing_distance(rs.roots, [-1 + 0j] * 3) <= 1e-5

    def test_shifted_quadruple_root(self):
        rs = solve(RealPolynomial((1.0, 4.0, 6.0, 4.0, 1.0)))  # (w + 1)^4
        assert max_pairing_distance(rs.roots, [-1 + 0j] * 4) <= 1e-3
        assert all(z.imag == 0.0 or abs(z.imag) <= 1e-3 for z in rs.roots)

    def test_quartic_with_root_at_origin(self):
        rs = solve(RealPolynomial((0.0, 6.0, -7.0, 0.0, 1.0)))  # z^4 - 7z^2 + 6z
        assert max_pairing_distance(
            rs.roots, [0j, 1 + 0j, 2 + 0j, -3 + 0j]
        ) <= 1e-8

    def test_negative_zero_never_printed(self):
        rs = solve(RealPolynomial((1.0, 4.0, 6.0, 4.0, 1.0)))
        for z in rs.roots:
            if z.imag == 0.0:
                assert math.copysign(1.0, z.imag) == 1.0


class TestDepressionIntegration:
    def test_solve_uses_depression_for_cubics(self):
        p = RealPolynomial((-6.0, 11.0, -6.0, 1.0))  # roots 1, 2, 3
        rs = solve(p)
        assert max_pairing_distance(rs.roots, [1 + 0j, 2 + 0j, 3 + 0j]) <= 1e-9

    def test_depressed_roots_differ_by_shift(self):
        p = RealPolynomial((-6.0, 11.0, -6.0, 1.0))
        dep = depress_cubic(p)
        outer = solve(p)
        inner, _ = solve_depressed_cubic(dep)
        paired = max_pairing_distance([z + dep.shift for z in outer.roots], inner)
        assert paired <= 1e-9

    def test_quartic_depression_shift(self):
        p = RealPolynomial((-9.0, -10.0, -2.0, 2.0, 1.0))
        dep = depress_quartic(p)
        assert dep.shift == 0.5
        outer = solve(p)
        inner, _ = solve_depressed_quartic(dep)
        paired = max_pairing_distance([z + dep.shift for z in outer.roots], inner)
        assert paired <= 1e-8


def _traced_split_solver_names() -> tuple[str, ...]:
    # The split_solver globals perfbench/spans.py rebinds for its traced
    # runs, read from spans.install's own targets: installed on a throwaway
    # Recorder and restored at once.
    perfbench = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import spans
    finally:
        sys.path.remove(perfbench)
    saved = spans.install(spans.Recorder(), split_solver)
    spans.restore(saved)
    return tuple(attr for owner, attr, _ in saved if owner is split_solver)


class TestSolverStructure:
    # The names solve() must look up in split_solver's globals on each path.
    LAYERS = _traced_split_solver_names()

    def test_reading_the_traced_names_leaves_no_wrapper(self):
        assert self.LAYERS
        assert all(getattr(split_solver, name).__module__ != "spans" for name in self.LAYERS)

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ((2.0, -3.0, 1.0), {"solve_quadratic"}),
            ((2.0, -3.0, 4.0), {"solve_quadratic"}),
            ((-6.0, 11.0, -6.0, 1.0), {"depress_cubic", "solve_depressed_cubic"}),
            ((1.0, -3.0, 0.5, 2.0, 1.0), {"depress_quartic", "solve_depressed_quartic"}),
            ((-9.0, -10.0, -2.0, 2.0, 3.0), {"depress_quartic", "solve_depressed_quartic"}),
        ],
    )
    def test_solve_calls_each_layer_once(self, monkeypatch, coeffs, expected):
        # A name the tracer no longer rebinds would be counted nowhere.
        assert expected <= set(self.LAYERS)
        calls = dict.fromkeys(self.LAYERS, 0)

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in self.LAYERS:
            monkeypatch.setattr(split_solver, name, counting(name, getattr(split_solver, name)))
        split_solver.solve(RealPolynomial(coeffs))
        assert calls == {name: int(name in expected) for name in self.LAYERS}

    @pytest.mark.parametrize(
        "coeffs, family, finishes",
        [
            ((2.0, -3.0, 1.0), "trivial", 1),
            # solve_quadratic's finish, then one against the source
            ((2.0, -3.0, 4.0), "conjugate", 2),
            ((-6.0, 11.0, -6.0, 1.0), "omega", 1),
            ((1.0, -3.0, 0.5, 2.0, 1.0), "resolvent", 1),
            # the roots of u^2 - 5u + 4 are finished before w = +-sqrt(u)
            ((4.0, 0.0, -5.0, 0.0, 1.0), "biquadratic", 2),
            # deflated: the quotient's roots are finished with the rest
            (
                (6.194871156298451, -988715.5609389498, 8.649882697890655, 14740.533409395332, 2.7324526537821474e-06),
                "resolvent",
                1,
            ),
            # a deflated cubic
            (
                (0.5539407594834058, -1.5704142504809433, -258123.10133823956, 5.7442120909460046e-05),
                "omega",
                1,
            ),
        ],
    )
    def test_finish_calls_per_path(self, monkeypatch, coeffs, family, finishes):
        # The depressed solvers return their branch roots unpolished;
        # solve() alone finishes them, against the source polynomial.
        calls = [0]
        finish = split_solver._finish

        def counting(*args):
            calls[0] += 1
            return finish(*args)

        monkeypatch.setattr(split_solver, "_finish", counting)
        rs = split_solver.solve(RealPolynomial(coeffs))
        assert rs.branch_tags[0].startswith(family)
        assert calls[0] == finishes

    def test_quartic_avoids_near_double_largest_resolvent_root(self):
        # From the log-uniform benchmark corpus.  The depressed quartic's
        # resolvent has a near-double largest root (about 5.9e10) and a
        # simple one (about 3.7e4).  The set from the largest root meets the
        # residual bound in the depressed variable but collapses the pair of
        # roots near +-0.0131i onto the real axis; the set with the smallest
        # total residual comes from the simple root and is accurate.
        p = RealPolynomial(
            (
                -157.34404847118566,
                -0.3683719752577149,
                -913025.2838858893,
                -0.0029740104485788364,
                3.857901984494974e-06,
            )
        )
        rs = solve(p)
        assert max_pairing_distance(rs.roots, find_roots(p).roots) <= 1e-7
        for z in rs.roots:
            assert abs(evaluate(p, z)) <= _residual_bound(p, z)

    def test_monic_quadratic_returns_solve_quadratic_result(self):
        rng = random.Random(31)
        for _ in range(200):
            a, b = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            rs = solve(RealPolynomial((b, a, 1.0)))
            inner = solve_quadratic(a, b)
            assert rs.roots == inner.roots
            assert rs.residuals == inner.residuals
            assert rs.branch_tags == inner.branch_tags

    def test_non_monic_quadratic_residuals_against_source(self):
        p = RealPolynomial((5.0, -2.0, 3.0))
        rs = solve(p)
        for z, r in zip(rs.roots, rs.residuals):
            assert r == abs(evaluate(p, z))


class TestHornerPasses:
    def test_horner_abs_matches_evaluate_exactly(self):
        rng = random.Random(43)
        for _ in range(500):
            degree = rng.randint(1, 6)
            coeffs = tuple(
                rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 12.0)
                for _ in range(degree + 1)
            )
            p = RealPolynomial(coeffs)
            z = complex(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
            coeffs_rev = tuple(reversed(p.coefficients))
            assert horner_abs(coeffs_rev, z) == abs(evaluate(p, z))
            assert horner_abs(coeffs_rev, z) == abs(horner_with_derivative(coeffs_rev, z)[0])

    def test_quartic_without_newton_steps_evaluates_each_point_once(self, monkeypatch):
        # One residual per root, against p: the resolvent roots, the
        # quadratic factors and the depressed roots are never scored.  The
        # two real roots take real Horner passes and the conjugate pair's
        # second root reuses the first one's residual, so one complex pass
        # is left.
        passes = {"full": 0, "value": 0}

        def counting(name, fn):
            def wrapper(*args):
                passes[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            split_solver, "horner_with_derivative", counting("full", horner_with_derivative)
        )
        monkeypatch.setattr(split_solver, "horner_abs", counting("value", horner_abs))
        p = RealPolynomial((1.0, -3.0, 0.5, 2.0, 1.0))
        rs = solve(p)
        assert rs.branch_tags[0].startswith("resolvent-root")
        assert passes == {"full": 0, "value": 1}
        assert rs.residuals == tuple(abs(evaluate(p, z)) for z in rs.roots)

    @pytest.mark.parametrize("scale, rejected", [(2.0, 0), (0.0, 1)])
    def test_polish_root_makes_one_full_pass_per_candidate(self, monkeypatch, scale, rejected):
        # z^2 - 2 from 1e-3 off sqrt(2).  With scale 2 the steps stop at the
        # trigger; with scale 0 they stop at the first step that does not
        # lower the residual, which costs one more pass.
        calls = []
        value_passes = [0]

        def recording(coeffs_rev, z):
            value, deriv = horner_with_derivative(coeffs_rev, z)
            calls.append((z, value, deriv))
            return value, deriv

        def counting(coeffs_rev, z):
            value_passes[0] += 1
            return horner_abs(coeffs_rev, z)

        z0 = complex(math.sqrt(2.0) + 1e-3, 0.0)
        residual0 = abs(evaluate(RealPolynomial((-2.0, 0.0, 1.0)), z0))
        monkeypatch.setattr(split_solver, "horner_with_derivative", recording)
        monkeypatch.setattr(split_solver, "horner_abs", counting)
        z, residual = split_solver._polish_root((1.0, 0.0, -2.0), z0, scale, residual0)
        assert value_passes[0] == 0
        # One full pass at the start point; every later one is at the Newton
        # candidate built from the pass before it, so no point is evaluated twice.
        assert calls[0][0] == z0
        for (z_prev, value, deriv), (z_next, _, _) in zip(calls, calls[1:]):
            assert z_next == z_prev - value / deriv
        accepted = len(calls) - 1 - rejected
        assert accepted >= 2
        for (_, before, _), (_, after, _) in zip(calls[:accepted], calls[1 : accepted + 1]):
            assert abs(after) < abs(before)
        if rejected:
            assert abs(calls[-1][1]) >= residual
        else:
            assert residual <= 1e-12 * scale
        assert (z, residual) == (calls[accepted][0], abs(calls[accepted][1]))

    def test_polish_root_takes_a_known_residual(self, monkeypatch):
        def forbidden(coeffs_rev, z):
            raise AssertionError("the residual was already known")

        z0 = complex(math.sqrt(2.0) + 1e-3, 0.0)
        known = abs(evaluate(RealPolynomial((-2.0, 0.0, 1.0)), z0))
        want = _reference_polish_root((1.0, 0.0, -2.0), z0, 2.0)
        monkeypatch.setattr(split_solver, "horner_abs", forbidden)
        assert split_solver._polish_root((1.0, 0.0, -2.0), z0, 2.0, known) == want

    def test_polish_root_stops_where_the_derivative_vanishes(self):
        # z^2 + 1 at its critical point 0: no Newton step exists, and the
        # root comes back unchanged.
        assert split_solver._polish_root((1.0, 0.0, 1.0), 0j, 1.0, 1.0) == (0j, 1.0)


# ---------------------------------------------------------------------------
# the finishing pass: bit identity with the per-root reference, and its cost
# ---------------------------------------------------------------------------


def _reference_polish_root(coeffs_rev, z, scale):
    # The per-root polish as _finish used to run it on every root: Newton
    # steps, the real-axis snap and the -0.0 normalization in one function.
    # A change meant to move roots, such as a relative snap, changes this
    # reference with it.
    residual = split_solver.horner_abs(coeffs_rev, z)
    if residual > split_solver._POLISH_TRIGGER * scale:
        value, deriv = split_solver.horner_with_derivative(coeffs_rev, z)
        for _ in range(8):
            if deriv == 0:
                break
            candidate = z - value / deriv
            candidate_value, candidate_deriv = split_solver.horner_with_derivative(coeffs_rev, candidate)
            r = abs(candidate_value)
            if r < residual:
                z, residual = candidate, r
                value, deriv = candidate_value, candidate_deriv
            else:
                break
            if residual <= split_solver._POLISH_TRIGGER * scale:
                break
    if z.imag != 0.0 and abs(z.imag) <= split_solver._IMAG_SNAP * abs(z.real):
        z = complex(z.real, 0.0)
        residual = split_solver.horner_abs(coeffs_rev, z)
    if z.imag == 0.0 or z.real == 0.0:
        z = complex(z.real + 0.0, z.imag + 0.0)
    return z, residual


def _reference_finish(coeffs_rev, scale, roots, tags):
    # The reference finishing pass: the polish above on every root, then the
    # public, validating RootSet constructor.
    out_roots = []
    out_residuals = []
    for z in roots:
        z, residual = _reference_polish_root(coeffs_rev, z, scale)
        out_roots.append(z)
        out_residuals.append(residual)
    return RootSet(roots=tuple(out_roots), residuals=tuple(out_residuals), branch_tags=tuple(tags))


def _fuzz_coefficient(rng: random.Random) -> float:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.uniform(-10.0, 10.0)
    if kind == 1:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0)
    if kind == 2:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.choice((-200, 200))
    if kind == 3:
        return rng.choice((0.0, -0.0))
    return float(rng.randint(-4, 4))


def _fuzz_calls(seed: int, n: int):
    """``n`` seeded calls to solve and solve_quadratic, as (function, args).

    A quarter each are depressed cubics and quartics, solved through solve()
    with a zero shift.
    """
    rng = random.Random(seed)
    c = _fuzz_coefficient
    calls = []
    for k in range(n):
        kind = k % 4
        if kind == 0:
            degree = rng.randint(1, 4)
            coeffs = [c(rng) for _ in range(degree)] + [rng.choice((1.0, 1.0, -2.0, 1e-3, c(rng)))]
            if coeffs[-1] == 0.0:
                coeffs[-1] = 1.0
            calls.append((solve, (RealPolynomial(coeffs),)))
        elif kind == 1:
            calls.append((solve_quadratic, (c(rng), c(rng))))
        elif kind == 2:
            calls.append((solve, (_depressed(c(rng), c(rng)),)))
        else:
            calls.append((solve, (_depressed(c(rng), c(rng), c(rng)),)))
    return calls


def _outcome(fn, args) -> str:
    try:
        return repr(fn(*args))
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


FUZZ_CALLS = _fuzz_calls(20261018, 4000)


class TestFinishBitIdentity:
    def test_solvers_match_the_reference_finish(self, monkeypatch):
        # The reference sees the same calls through split_solver's globals.
        polish_calls = [0]
        polish = split_solver._polish_root

        def counting(*args):
            polish_calls[0] += 1
            return polish(*args)

        monkeypatch.setattr(split_solver, "_polish_root", counting)
        got = [_outcome(fn, args) for fn, args in FUZZ_CALLS]
        monkeypatch.setattr(split_solver, "_finish", _reference_finish)
        want = [_outcome(fn, args) for fn, args in FUZZ_CALLS]
        assert got == want
        # The corpus reaches the Newton path, non-finite results and the
        # solvers' ValueErrors.
        assert polish_calls[0] >= 50
        assert sum("Error:" in text for text in got) >= 50
        assert sum("nan" in text or "inf" in text for text in got) >= 50

    def test_monic_coefficients_match_monic_for_low_degrees(self):
        # solve() reads a linear or quadratic polynomial's monic coefficients
        # without building p.monic(); the numbers and the error text agree.
        for fn, args in FUZZ_CALLS:
            if fn is solve and args[0].degree <= 2:
                p = args[0]
                assert _outcome(lambda: _monic_coefficients(p.coefficients), ()) == _outcome(
                    lambda: p.monic().coefficients, ()
                )

    @pytest.mark.parametrize(
        "coeffs_rev, scale, roots",
        [
            # residual over the trigger: Newton steps from 1e-3 off sqrt(2)
            ((1.0, 0.0, -2.0), 2.0, [complex(math.sqrt(2.0) + 1e-3, 0.0)]),
            # snap-eligible roots, with and without a Newton step first
            ((1.0, 0.0, -1.0), 1.0, [complex(1.0, 1e-10), complex(-1.0 - 1e-9, -3e-9)]),
            ((1.0, 0.0, -1.0), 1.0, [complex(1e6, 1e-3), complex(1.0, 2e-8)]),
            # -0.0 real part, -0.0 imaginary part, both, and a root on the
            # imaginary axis that the relative snap leaves alone
            ((1.0, 0.0, 1.0), 1.0, [complex(-0.0, 1.0), complex(-0.0, -1.0)]),
            ((1.0, 0.0, -1.0), 1.0, [complex(1.0, -0.0), complex(-1.0, -0.0)]),
            ((1.0, 0.0, 0.0), 1.0, [complex(-0.0, -0.0), complex(-0.0, 1e-12)]),
            # non-finite values: a nan residual, an overflowing one, nan roots
            ((1.0, 0.0, -1.0), 1.0, [complex(math.nan, 0.0), complex(1e200, 1e200)]),
            ((1.0, 0.0, -1.0), 1.0, [complex(math.inf, 0.0), complex(1.0, math.nan)]),
        ],
    )
    def test_hand_cases(self, coeffs_rev, scale, roots):
        tags = [f"t{k}" for k in range(len(roots))]
        got = split_solver._finish(coeffs_rev, scale, roots, tags)
        want = _reference_finish(coeffs_rev, scale, roots, tags)
        assert repr(got) == repr(want)


class TestFinishCommonPath:
    # Coefficients, lowest power first, and the complex value passes the
    # solve makes when no root needs a Newton step or the real-axis snap:
    # one per conjugate pair, in the one finish against the source
    # polynomial.  Real roots take real Horner passes, and a pair's second
    # root reuses the first one's residual.
    CASES = [((-5.0, -9.0, -9.0, 1.0), 1), ((8.0, -4.0, 6.0, 1.0, 1.0), 2), ((-6.0, 11.0, -6.0, 1.0), 0)]

    @pytest.mark.parametrize("coeffs, value_passes", CASES)
    def test_no_polish_call_and_no_public_rootset(self, monkeypatch, coeffs, value_passes):
        passes = {"polish": 0, "value": 0}

        def counting(name, fn):
            def wrapper(*args):
                passes[name] += 1
                return fn(*args)

            return wrapper

        def forbidden(self, *args, **kwargs):
            raise AssertionError("solve() built a RootSet through the public constructor")

        expected = solve(RealPolynomial(coeffs))
        monkeypatch.setattr(split_solver, "_polish_root", counting("polish", split_solver._polish_root))
        monkeypatch.setattr(split_solver, "horner_abs", counting("value", horner_abs))
        monkeypatch.setattr(RootSet, "__init__", forbidden)
        p = RealPolynomial(coeffs)
        rs = solve(p)
        assert passes == {"polish": 0, "value": value_passes}
        assert repr(rs) == repr(expected)
        assert rs.residuals == tuple(abs(evaluate(p, z)) for z in rs.roots)


def _residual_corpus(seed: int, n: int):
    """``n`` seeded (coeffs_rev, x, y): degree 1-4 coefficients and point
    parts of magnitude 1e-300..1e300 (or zero), so that many values
    overflow to inf or nan."""
    rng = random.Random(seed)

    def part():
        if rng.randrange(10) == 0:
            return rng.choice((0.0, -0.0))
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)

    cases = []
    for _ in range(n):
        degree = rng.randint(1, 4)
        coeffs_rev = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0),)
        coeffs_rev += tuple(part() for _ in range(degree))
        cases.append((coeffs_rev, part(), part()))
    return cases


RESIDUAL_CORPUS = _residual_corpus(20261019, 20000)


class TestFinishResidualPaths:
    # _finish computes a real root's residual by real Horner steps, and a
    # conjugate pair's second residual not at all; both must equal
    # horner_abs bit for bit.  An infinite scale keeps the polish out and
    # the points are off the snap's band, so _finish returns the residuals
    # as it computed them.

    def test_real_path_matches_horner_abs(self, monkeypatch):
        fallbacks = [0]

        def counting(coeffs_rev, z):
            fallbacks[0] += 1
            return horner_abs(coeffs_rev, z)

        monkeypatch.setattr(split_solver, "horner_abs", counting)
        non_finite = 0
        for coeffs_rev, x, _ in RESIDUAL_CORPUS:
            z = complex(x, 0.0)
            want = horner_abs(coeffs_rev, z)
            got = split_solver._finish(coeffs_rev, math.inf, [z], ["t"]).residuals[0]
            assert repr(got) == repr(want), (coeffs_rev, x)
            non_finite += not math.isfinite(want)
        # The fallback runs exactly for the non-finite results, and the
        # corpus has plenty of them (inf and nan both).
        assert fallbacks[0] == non_finite >= 1000
        results = {repr(horner_abs(c, complex(x, 0.0))) for c, x, _ in RESIDUAL_CORPUS}
        assert {"inf", "nan"} <= results

    def test_conjugate_gives_the_same_residual(self):
        mismatches = [
            (coeffs_rev, x, y)
            for coeffs_rev, x, y in RESIDUAL_CORPUS
            if repr(horner_abs(coeffs_rev, complex(x, -y))) != repr(horner_abs(coeffs_rev, complex(x, y)))
        ]
        assert mismatches == []

    def test_conjugate_pair_reuses_the_first_residual(self, monkeypatch):
        passes = [0]

        def counting(coeffs_rev, z):
            passes[0] += 1
            return horner_abs(coeffs_rev, z)

        monkeypatch.setattr(split_solver, "horner_abs", counting)
        pairs = 0
        for coeffs_rev, x, y in RESIDUAL_CORPUS:
            if abs(y) <= split_solver._IMAG_SNAP * max(1.0, abs(x)):
                continue
            z = complex(x, y)
            got = split_solver._finish(coeffs_rev, math.inf, [z, z.conjugate()], ["t0", "t1"]).residuals
            want = horner_abs(coeffs_rev, z)
            assert repr(got) == repr((want, want)), (coeffs_rev, x, y)
            pairs += 1
        assert passes[0] == pairs >= 5000


def _reference_horner_with_derivative(coeffs_rev, z):
    # horner_with_derivative as it was when it started from 0j: every step
    # in complex arithmetic, whatever the type of z.
    value = 0j
    deriv = 0j
    for c in coeffs_rev:
        deriv = deriv * z + value
        value = value * z + c
    return value, deriv


class TestHornerPointType:
    # horner_with_derivative starts from 0.0, so the point's type sets the
    # arithmetic.  _polish_root's real-root steps rest on the two facts below.

    def test_complex_points_match_the_complex_start(self):
        mismatches = [
            (coeffs_rev, z)
            for coeffs_rev, x, y in RESIDUAL_CORPUS
            for z in (complex(x, y), complex(x, 0.0))
            if repr(horner_with_derivative(coeffs_rev, z)) != repr(_reference_horner_with_derivative(coeffs_rev, z))
        ]
        assert mismatches == []

    def test_real_points_give_the_real_parts(self):
        # Wherever the complex evaluation at complex(x, 0.0) has a finite
        # real part, the float evaluation at x equals it bit for bit and the
        # imaginary part is zero; where it is not finite, neither is the float.
        non_finite = 0
        for coeffs_rev, x, _ in RESIDUAL_CORPUS:
            got = horner_with_derivative(coeffs_rev, x)
            want = _reference_horner_with_derivative(coeffs_rev, complex(x, 0.0))
            for g, w in zip(got, want):
                assert type(g) is float
                if math.isfinite(w.real):
                    assert repr(g) == repr(w.real) and w.imag == 0.0, (coeffs_rev, x)
                else:
                    assert not math.isfinite(g), (coeffs_rev, x)
                    assert not math.isfinite(abs(w)), (coeffs_rev, x)
                    non_finite += 1
        assert non_finite >= 1000


# ---------------------------------------------------------------------------
# reference: the quartic's candidate pick before it was written out
# ---------------------------------------------------------------------------


def _reference_solve_depressed_quartic(dq):
    # solve_depressed_quartic as it picked its resolvent candidates with
    # enumerate and sorted, through split_solver's helpers.
    a, b, c = dq.a, dq.b, dq.c
    if abs(b) <= 1e-14 * max(1.0, abs(a), abs(b), abs(c)):
        roots = []
        for u in split_solver.solve_quadratic(a, c).roots:
            s = cmath.sqrt(u)
            roots.extend([s, -s])
        return roots, ("biquadratic-0:+", "biquadratic-0:-", "biquadratic-1:+", "biquadratic-1:-")

    _, r2, r1, r0 = quartic_resolvent_coefficients(a, b, c)
    if not (math.isfinite(r0) and math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError(f"resolvent coefficients must be finite, got {(1.0, r2, r1, r0)!r}")
    ra, rb, shift = _depress_monic_cubic(r2, r1, r0)
    t_roots = [w - shift for w in split_solver._omega_cubic(ra, rb)[0]]
    cut = 1e-7 * max(1.0, *map(abs, t_roots))
    candidates = sorted([(t.real, j) for j, t in enumerate(t_roots) if abs(t.imag) <= cut], reverse=True)
    best, best_j = (math.inf, math.nan, math.nan, math.nan), 0
    for t, j in candidates:
        t = split_solver._refine_resolvent_root(r2, r1, r0, t)
        if t > 0.0:
            factors = split_solver._quartic_factors(a, b, c, t)
            if factors[0] < best[0]:
                best, best_j = factors, j
                if best[0] <= split_solver._FACTOR_ULPS * split_solver._EPS:
                    break
    _, alpha, beta0, beta1 = best
    roots = [*split_solver._quadratic_roots(-alpha, beta0)[0], *split_solver._quadratic_roots(alpha, beta1)[0]]
    return roots, split_solver._RESOLVENT_TAGS[best_j]


def _quartic_corpus():
    # FUZZ_CALLS' quartics, depressed, then a seeded wide corpus, then a
    # quartic whose resolvent has an exact double root: two candidates
    # with equal real parts, where the sort's tie order picks the tag.
    quartics = []
    for fn, args in FUZZ_CALLS:
        if fn is solve and args[0].degree == 4:
            try:
                quartics.append(depress_quartic(args[0]))
            except ValueError:
                pass
    rng = random.Random(20261020)
    for _ in range(3000):
        quartics.append(
            DepressedQuartic(*(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 12.0) for _ in range(3)))
        )
    quartics.append(DepressedQuartic(4.0, 1e-8, 4.0))
    return quartics


class TestQuarticCandidatePick:
    def test_double_resolvent_root_ties(self):
        _, r2, r1, r0 = quartic_resolvent_coefficients(4.0, 1e-8, 4.0)
        ra, rb, shift = _depress_monic_cubic(r2, r1, r0)
        t0, t1, _ = [w - shift for w in split_solver._omega_cubic(ra, rb)[0]]
        assert t0.real == t1.real and abs(t0.imag) <= 1e-7 and abs(t1.imag) <= 1e-7

    def test_matches_the_reference(self):
        reached = set()
        for dq in _quartic_corpus():
            got = _outcome(solve_depressed_quartic, (dq,))
            assert got == _outcome(_reference_solve_depressed_quartic, (dq,)), dq
            # The first tag's family ("resolvent-root-1", ...), or the error.
            reached.add((got.split("'")[1] if got.startswith("(") else got).split(":")[0])
        assert {"biquadratic-0", "resolvent-root-0", "resolvent-root-1", "resolvent-root-2", "ValueError"} <= reached


# ---------------------------------------------------------------------------
# reference: moving roots back and deflating before _undepress
# ---------------------------------------------------------------------------


def _reference_shifted_omega_cubic(c2, c1, c0):
    # The omega roots of t^3 + c2 t^2 + c1 t + c0's depression in w = t + s,
    # moved back to t, their tags and s.
    a, b, s = _depress_monic_cubic(c2, c1, c0)
    roots, tags = split_solver._omega_cubic(a, b)
    return [w - s for w in roots], tags, s


def _reference_deflate(c, roots, tags, log):
    # The deflation step as it ran behind solve()'s trigger, with its own
    # test for a cubic quotient; log gets "again" where that test fired.
    k = max(range(len(roots)), key=lambda j: abs(roots[j]))
    r = roots[k]
    if not 1e-150 < abs(r) < 1e150:
        return roots, tags
    if abs(r.imag) <= split_solver._IMAG_SNAP * abs(r.real):
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
        rest, rest_tags = [complex(-q[0], 0.0)], (tags[3 - k - m],)
    elif len(q) == 2:
        rest, rest_tags = split_solver._quadratic_roots(q[1], q[0])
    else:
        rest, rest_tags, s = _reference_shifted_omega_cubic(q[2], q[1], q[0])
        if min(map(abs, rest)) < split_solver._DEFLATE_BELOW * abs(s):
            log.append("again")
            rest, rest_tags = _reference_deflate((*q, 1.0), rest, rest_tags, log)
    if not all(map(cmath.isfinite, rest)):
        return roots, tags
    return [*kept, *rest], (*kept_tags, *rest_tags)


def _reference_undepress(coeffs, roots, tags, shift, log):
    # solve()'s translation and trigger as they were; log gets "fired" where
    # the trigger fired.
    roots = [z - shift for z in roots]
    small = split_solver._DEFLATE_BELOW * abs(shift)
    if abs(roots[0]) < small or abs(roots[1]) < small or abs(roots[2]) < small or abs(roots[-1]) < small:
        log.append("fired")
        roots, tags = _reference_deflate(_monic_coefficients(coeffs), roots, tags, log)
    return roots, tags


def _listed(fn, *args):
    # fn's (roots, tags) as a list and a tuple: _undepress returns the roots
    # it was given, a tuple, where it does not deflate.
    roots, tags = fn(*args)
    return list(roots), tuple(tags)


def _wide_root_polynomial(rng: random.Random, degree: int) -> RealPolynomial:
    # Real roots and conjugate pairs of moduli log-uniform in 1e+-40, times a
    # leading coefficient log-uniform in 1e+-3.
    def modulus():
        return 10.0 ** rng.uniform(-40.0, 40.0)

    roots = []
    while len(roots) < degree:
        if len(roots) <= degree - 2 and rng.random() < 0.5:
            z = cmath.rect(modulus(), rng.uniform(0.0, math.pi))
            roots += [z, z.conjugate()]
        else:
            roots.append(complex(rng.choice((-1.0, 1.0)) * modulus(), 0.0))
    coeffs = [complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0), 0.0)]
    for r in roots:
        coeffs = [0j, *coeffs]
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return RealPolynomial(tuple(c.real for c in coeffs))


class TestUndepress:
    def test_matches_the_reference(self):
        # Depressed cubics and quartics with roots spread over 80 decades:
        # the shift often swamps the smallest roots, and after a quartic's
        # largest root a cubic quotient's own shift often swamps its smallest.
        rng = random.Random(20261021)
        log = []
        for degree, depress, inner in ((3, depress_cubic, solve_depressed_cubic), (4, depress_quartic, solve_depressed_quartic)):
            for _ in range(1500):
                p = _wide_root_polynomial(rng, degree)
                try:
                    dep = depress(p)
                    roots, tags = inner(dep)
                except ValueError:
                    continue
                # _undepress takes the roots moved back, as solve() passes
                # them; the reference still moves them itself.
                moved = tuple(w - dep.shift for w in roots)
                got = _outcome(_listed, (split_solver._undepress, p.coefficients, moved, tags, dep.shift))
                ref = _outcome(_listed, (_reference_undepress, p.coefficients, roots, tags, dep.shift, log))
                assert got == ref, p
        assert log.count("fired") >= 100 and log.count("again") >= 20


class TestReturnedRootSets:
    def test_types_and_public_rebuild(self):
        for fn, args in FUZZ_CALLS:
            try:
                rs = fn(*args)
            except ValueError:
                continue
            assert type(rs) is RootSet
            assert type(rs.roots) is tuple and type(rs.residuals) is tuple and type(rs.branch_tags) is tuple
            assert all(type(z) is complex for z in rs.roots)
            assert all(type(r) is float for r in rs.residuals)
            assert all(type(tag) is str for tag in rs.branch_tags)
            rebuilt = RootSet(rs.roots, rs.residuals, rs.branch_tags)
            assert rebuilt == rs
            assert hash(rebuilt) == hash(rs)
            assert repr(rebuilt) == repr(rs)


class TestBranchTagOrder:
    # Each path's tags, in the order of its roots, as docs/output-schema.md
    # names them.
    @pytest.mark.parametrize(
        "fn, args, tags",
        [
            (solve_quadratic, (-3.0, 2.0), ("trivial-imaginary-branch:+", "trivial-imaginary-branch:-")),
            (solve_quadratic, (2.0, 2.0), ("conjugate-branch:+", "conjugate-branch:-")),
            (solve_depressed_cubic, (DepressedCubic(0.0, 0.0),), ("triple-zero",) * 3),
            (solve_depressed_cubic, (DepressedCubic(0.0, 8.0),), ("cube-root-0", "cube-root-1", "cube-root-2")),
            (
                solve_depressed_cubic,
                (DepressedCubic(1e-110, 0.0),),
                ("near-origin-degenerate:0", "near-origin-degenerate:1", "near-origin-degenerate:2"),
            ),
            (
                solve_depressed_cubic,
                (DepressedCubic(-7.0, 6.0),),
                ("omega-branch-0:+", "omega-branch-1:+", "omega-branch-2:+"),
            ),
            (
                solve_depressed_cubic,
                (DepressedCubic(1e-120, -1.0),),
                ("omega-branch-0:-", "omega-branch-1:-", "omega-branch-2:-"),
            ),
            (
                solve_depressed_quartic,
                (DepressedQuartic(0.0, 0.0, 9.0),),
                ("biquadratic-0:+", "biquadratic-0:-", "biquadratic-1:+", "biquadratic-1:-"),
            ),
            # The largest resolvent root's factors (index 0 and 2), and the
            # next root's once the largest one's factors miss by 7.8e8 ulps.
            *(
                (
                    solve_depressed_quartic,
                    (DepressedQuartic(*abc),),
                    tuple(f"resolvent-root-{j}:{xy}" for xy in ("x+:y+", "x+:y-", "x-:y+", "x-:y-")),
                )
                for j, abc in (
                    (0, (-1.0, -6.0, 6.0)),
                    (1, (-93007668.95192192, 9020291.434812276, -218706.75076684702)),
                    (2, (-5.0, 9.0, -7.0)),
                )
            ),
        ],
    )
    def test_tags(self, fn, args, tags):
        if fn is solve_quadratic:
            assert fn(*args).branch_tags == tags
            return
        # A depressed solver returns (roots, tags), and solve() keeps the tags.
        assert fn(*args)[1] == tags
        d = args[0]
        coeffs = (d.a, d.b) if fn is solve_depressed_cubic else (d.a, d.b, d.c)
        assert solve(_depressed(*coeffs)).branch_tags == tags
