"""Angular algebra tests: frozen reference values plus property checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

from lgryd import specfun, verify
from lgryd.atom import default_grid
from lgryd.cm import _gauss_laguerre_unit
from _oracles import laguerre_coeff_sum, sphere_integral_simpson, sympy_wigner3j


class TestLogFactorial:
    def test_small_values(self):
        assert specfun.log_factorial(0) == 0.0
        assert specfun.log_factorial(1) == 0.0
        assert math.isclose(specfun.log_factorial(5), math.log(120.0), rel_tol=1e-14)

    def test_large_no_overflow(self):
        assert math.isfinite(specfun.log_factorial(500))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            specfun.log_factorial(-1)


class TestAssocLaguerre:
    def test_frozen_value(self):
        # L^2_3(x) = -x^3/6 + 5x^2/2 - 10x + 10; at x = 3/2 this is 1/16
        assert math.isclose(specfun.assoc_laguerre(3, 2.0, 1.5), 0.0625,
                            rel_tol=1e-13)

    def test_degree_zero_and_one(self):
        assert type(specfun.assoc_laguerre(0, 3.7, 2.2)) is float
        assert specfun.assoc_laguerre(0, 3.7, 2.2) == 1.0
        x = np.linspace(0.0, 5.0, 6).reshape(2, 3)
        assert np.array_equal(specfun.assoc_laguerre(0, 3.7, x), np.ones((2, 3)))
        assert math.isclose(specfun.assoc_laguerre(1, 0.5, 2.0), -0.5, rel_tol=1e-14)

    @given(n=st.integers(0, 20),
           a=st.floats(0.0, 10.0, allow_nan=False),
           x=st.floats(0.0, 30.0, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_coefficient_sum(self, n, a, x):
        ours = specfun.assoc_laguerre(n, a, x)
        ref = laguerre_coeff_sum(n, a, x)
        assert math.isclose(ours, ref, rel_tol=1e-8, abs_tol=1e-6 * (1 + abs(ref)))

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            specfun.assoc_laguerre(-1, 0.0, 1.0)

    def test_array_matches_scalar_bit_for_bit(self):
        # the array form runs the scalar recurrence's operations in order, so
        # each element is the scalar value exactly: on the Gauss-Laguerre
        # nodes cm_moment takes and on the rho = 2r/n of the n = 90 hydrogen
        # closed form, for integer and fractional a, up to degree 89
        rho = 2.0 * default_grid(90).r[::7] / 90.0
        nodes = _gauss_laguerre_unit(12, 1.5)[0]
        for x in (rho, nodes):
            for n in (0, 1, 2, 3, 11, 40, 89):
                for a in (0.0, 1.5, 3, 179):
                    got = specfun.assoc_laguerre(n, a, x)
                    ref = [specfun.assoc_laguerre(n, a, v) for v in x.tolist()]
                    assert got.shape == x.shape and got.dtype == float
                    assert np.array_equal(got, ref), (n, a)


class TestSphericalHarmonic:
    def test_y00(self):
        assert verify.spherical_harmonic(0, 0, 1.1, 2.3) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi))

    def test_frozen_y21(self):
        # Y_2^1(pi/3, pi/4) = -sqrt(15/8pi) sin cos e^{i pi/4}, CS phase included
        expect = (-math.sqrt(15.0 / (8.0 * math.pi))
                  * math.sin(math.pi / 3) * math.cos(math.pi / 3) / math.sqrt(2.0))
        got = verify.spherical_harmonic(2, 1, math.pi / 3, math.pi / 4)
        assert got.real == pytest.approx(expect, abs=1e-12)
        assert got.imag == pytest.approx(expect, abs=1e-12)
        assert got.real == pytest.approx(-0.2365436739, abs=1e-9)

    def test_invalid_m_raises(self):
        with pytest.raises(ValueError):
            verify.spherical_harmonic(1, 2, 0.3, 0.4)

    @given(l=st.integers(0, 10), theta=st.floats(0.01, 3.13), phi=st.floats(0.0, 6.28))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, l, theta, phi):
        for m in range(-l, l + 1):
            ours = verify.spherical_harmonic(l, m, theta, phi)
            ref = complex(sph_harm_y(l, m, theta, phi))
            assert abs(ours - ref) < 1e-10 * (1.0 + abs(ref))

    def test_conjugation_symmetry(self):
        for l in range(1, 6):
            for m in range(1, l + 1):
                yp = verify.spherical_harmonic(l, m, 0.7, 1.9)
                ym = verify.spherical_harmonic(l, -m, 0.7, 1.9)
                assert abs(ym - (-1.0) ** m * yp.conjugate()) < 1e-12

    def test_unit_norm_quadrature(self):
        for l, m in [(0, 0), (3, 2), (6, -5), (8, 0)]:
            val = verify.sphere_quadrature(
                lambda th, ph: abs(verify.spherical_harmonic(l, m, th, ph)) ** 2,
                n_polar=32, n_azimuth=64)
            assert abs(val - 1.0) < 1e-11


class TestWigner3j:
    def test_frozen_values(self):
        assert specfun.wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(
            -1.0 / math.sqrt(3.0), rel=1e-13)
        assert specfun.wigner3j(2, 1, 1, 0, 0, 0) == pytest.approx(
            math.sqrt(2.0 / 15.0), rel=1e-13)

    def test_selection_rules_zero(self):
        assert specfun.wigner3j(1, 1, 3, 0, 0, 0) == 0.0         # triangle
        assert specfun.wigner3j(1, 1, 1, 1, 1, 1) == 0.0         # m-sum
        assert specfun.wigner3j(1, 1, 2, 2, 0, -2) == 0.0        # |m| > j

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            specfun.wigner3j(0.3, 1, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            specfun.wigner3j(1, 1, 1, 0.5, 0, -0.5)  # m - j not integral

    @given(tj1=st.integers(0, 10), tj2=st.integers(0, 10),
           tj3=st.integers(0, 12), tm1=st.integers(-10, 10),
           tm2=st.integers(-10, 10))
    @settings(max_examples=250, deadline=None)
    def test_matches_sympy(self, tj1, tj2, tj3, tm1, tm2):
        j1, j2, j3 = tj1 / 2, tj2 / 2, tj3 / 2
        m1, m2 = tm1 / 2, tm2 / 2
        m3 = -(m1 + m2)
        if (tj1 + tm1) % 2 or (tj2 + tm2) % 2:
            return
        if (round(2 * j3) + round(2 * m3)) % 2:
            return
        ours = specfun.wigner3j(j1, j2, j3, m1, m2, m3)
        ref = sympy_wigner3j(j1, j2, j3, m1, m2, m3)
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_orthogonality(self):
        # sum_{m1 m2} (2 j3 + 1) 3j(...m3)^2 = 1 for any j3 in the triangle
        j1, j2 = 2, 1.5
        for twice_j3 in range(1, 8, 2):  # j1 + j2 half-integral -> j3 half-integral
            j3 = twice_j3 / 2
            if j3 < abs(j1 - j2) or j3 > j1 + j2:
                continue
            m3 = 0.5 if twice_j3 % 2 else 0.0
            tot = 0.0
            m1 = -j1
            while m1 <= j1:
                m2 = -(m1 + m3)
                if abs(m2) <= j2:
                    tot += (2 * j3 + 1) * specfun.wigner3j(j1, j2, j3, m1, m2, m3) ** 2
                m1 += 1
            assert tot == pytest.approx(1.0, rel=1e-12)


class TestClebschGordan:
    def test_frozen_value(self):
        assert specfun.clebsch_gordan(1, 0.5, 0, 0.5, 1.5, 0.5) == pytest.approx(
            math.sqrt(2.0 / 3.0), rel=1e-13)

    def test_stretched_is_unity(self):
        assert specfun.clebsch_gordan(2, 0.5, 2, 0.5, 2.5, 2.5) == pytest.approx(1.0)
        assert specfun.clebsch_gordan(2, 0.5, -2, -0.5, 2.5, -2.5) == pytest.approx(1.0)

    def test_projection_mismatch_zero(self):
        assert specfun.clebsch_gordan(1, 0.5, 1, 0.5, 1.5, 0.5) == 0.0

    def test_completeness(self):
        # sum_j |<l ml s ms|j mj>|^2 = 1
        l, s, ml, ms = 2, 0.5, 1, -0.5
        mj = ml + ms
        tot = sum(specfun.clebsch_gordan(l, s, ml, ms, j, mj) ** 2
                  for j in (l - 0.5, l + 0.5))
        assert tot == pytest.approx(1.0, rel=1e-12)


class TestGaunt:
    def test_all_zero_ranks(self):
        assert specfun.gaunt(0, 0, 0, 0, 0, 0) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), rel=1e-13)

    def test_frozen_value(self):
        # integral Y_1^0 Y_1^0 Y_2^0 = sqrt(5/4pi) * (3j(1,1,2;000))^2 * sqrt(9/5)...
        assert specfun.gaunt(1, 0, 1, 0, 2, 0) == pytest.approx(
            0.2523132522, abs=1e-9)

    def test_m_sum_rule(self):
        assert specfun.gaunt(2, 1, 2, 1, 2, 1) == 0.0

    @given(l1=st.integers(0, 4), l2=st.integers(0, 4), l3=st.integers(0, 5),
           m1=st.integers(-4, 4), m2=st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_quadrature(self, l1, l2, l3, m1, m2):
        if abs(m1) > l1 or abs(m2) > l2 or abs(m1 + m2) > l3:
            return
        m3 = -(m1 + m2)
        ours = specfun.gaunt(l1, m1, l2, m2, l3, m3)
        ref = verify.sphere_quadrature(
            lambda th, ph: (verify.spherical_harmonic(l1, m1, th, ph)
                            * verify.spherical_harmonic(l2, m2, th, ph)
                            * verify.spherical_harmonic(l3, m3, th, ph)),
            n_polar=16, n_azimuth=32)
        assert abs(ours - ref) < 1e-11


class TestMultiGaunt:
    def test_empty_factor_list_is_overlap(self):
        assert specfun.multi_gaunt([], (2, 1), (2, 1)) == 1.0
        assert specfun.multi_gaunt([], (2, 1), (2, 0)) == 0.0

    def test_single_factor_reduces_to_gaunt(self):
        for (lf, mf), (lb, mb), (lk, mk) in [
            ((1, 0), (1, 0), (0, 0)),
            ((2, 1), (3, 2), (1, 1)),
            ((1, -1), (2, 0), (1, 1)),
        ]:
            ours = specfun.multi_gaunt([(lf, mf)], (lb, mb), (lk, mk))
            ref = (-1.0) ** mb * specfun.gaunt(lb, -mb, lf, mf, lk, mk)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_permutation_invariance(self):
        factors = [(1, 1), (1, 0), (2, -1), (1, 0)]
        bra, ket = (2, 1), (1, 1)
        base = specfun.multi_gaunt(factors, bra, ket)
        assert abs(base) > 1e-6  # non-trivial case
        import itertools
        for perm in itertools.permutations(factors):
            assert specfun.multi_gaunt(list(perm), bra, ket) == pytest.approx(
                base, rel=1e-11)

    def test_matches_quadrature_five_factors(self):
        factors = [(1, 1), (0, 0), (1, 0), (1, 0), (1, -1)]
        bra, ket = (2, 0), (2, 0)
        ours = specfun.multi_gaunt(factors, bra, ket)

        def integrand(th, ph):
            val = verify.spherical_harmonic(*bra, th, ph).conjugate()
            for (l, m) in factors:
                val *= verify.spherical_harmonic(l, m, th, ph)
            return val * verify.spherical_harmonic(*ket, th, ph)

        ref = sphere_integral_simpson(integrand, n_theta=121, n_phi=96)
        assert abs(ref.imag) < 1e-10
        assert ours == pytest.approx(ref.real, abs=1e-8)

    def test_projection_selection(self):
        # total m of factors must equal m_bra - m_ket
        assert specfun.multi_gaunt([(1, 1), (1, 1)], (2, 1), (2, 0)) == 0.0


class TestSphericalBessel:
    def test_j0_at_zero(self):
        assert specfun.spherical_bessel(0.0) == 1.0
        assert specfun.spherical_bessel(-0.0) == 1.0

    def test_small_argument_series(self):
        # j_0(x) = 1 - x^2/6 + x^4/120 - ... = sin(x)/x
        for x in (1e-4, -1e-4, 9e-4):
            assert specfun.spherical_bessel(x) == pytest.approx(
                math.sin(x) / x, rel=1e-15)

    def test_series_matches_scipy_at_crossover(self):
        from scipy.special import spherical_jn
        for x in (0.9e-3, 1.1e-3, -0.9e-3, -1.1e-3):
            assert specfun.spherical_bessel(x) == pytest.approx(
                float(spherical_jn(0, x)), rel=1e-10, abs=1e-300)

    def test_moderate_argument(self):
        assert specfun.spherical_bessel(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert specfun.spherical_bessel(2.0) == pytest.approx(
            math.sin(2.0) / 2.0, rel=1e-15)

    # both sides of the 1e-3 series crossover and out to |x| = 150
    BESSEL_X = (0.9e-3, 1e-3, 1.1e-3, 0.01, 0.3, 1.0, 2.0, 3.3, 5.0, 7.3,
                9.99, 11.9, 12.0, 12.5, 20.0, 47.3, 150.0)

    def test_matches_scipy(self):
        from scipy.special import spherical_jn
        for x0 in self.BESSEL_X:
            for x in (x0, -x0):
                ref = float(spherical_jn(0, x))
                assert specfun.spherical_bessel(x) == pytest.approx(
                    ref, rel=1e-13, abs=0.0), x

    def test_order_zero_bit_equal_to_scipy(self):
        from scipy.special import spherical_jn
        for x in self.BESSEL_X[1:] + (1e5, math.pi):
            for s in (x, -x):
                assert specfun.spherical_bessel(s) == float(spherical_jn(0, s))

    def test_array_form_bit_identical(self):
        # an array takes each element's scalar path; a scalar comes back a float
        xs = np.array([0.0, -0.0, 1e-4, -9e-4] + [s * x for x in self.BESSEL_X
                                                  for s in (1.0, -1.0)])
        got = specfun.spherical_bessel(xs.reshape(2, -1))
        assert got.shape == (2, xs.size // 2)
        scalars = [specfun.spherical_bessel(x) for x in xs.tolist()]
        assert all(type(v) is float for v in scalars)
        assert got.ravel().tolist() == scalars
        assert type(specfun.spherical_bessel(np.float64(0.5))) is float


class TestSphereQuadrature:
    def test_orthogonality(self):
        val = verify.sphere_quadrature(
            lambda th, ph: (verify.spherical_harmonic(3, 1, th, ph).conjugate()
                            * verify.spherical_harmonic(3, -1, th, ph)),
            n_polar=24, n_azimuth=48)
        assert abs(val) < 1e-12

    def test_constant(self):
        val = verify.sphere_quadrature(lambda th, ph: 1.0, n_polar=8, n_azimuth=8)
        assert val.real == pytest.approx(4.0 * math.pi, rel=1e-13)
