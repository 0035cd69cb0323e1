"""Beam-field expansion tests: closed-form checks plus identity properties.

BeamSpec and the coefficient maps live in lgryd.beam; the closed LG
profile, the residual of its solid-harmonic series and the translation
theorem are oracles of the verification suites and live in lgryd.verify."""

import cmath
import math

import numpy as np
import pytest

from lgryd import beam, verify
from lgryd.beam import BeamSpec


def _spec(l=1, w0=1.0, E0=1.0, sigma=1, q_max=1):
    return BeamSpec(l=l, w0=w0, E0=E0, sigma=sigma, q_max=q_max)


class TestBeamSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(w0=-1.0)
        with pytest.raises(ValueError):
            _spec(E0=-0.5)
        with pytest.raises(ValueError):
            _spec(sigma=2)
        with pytest.raises(ValueError):
            _spec(q_max=-1)


class TestSolidNorm:
    def test_rank_zero(self):
        assert beam.solid_norm(0, 0) == pytest.approx(math.sqrt(4.0 * math.pi))

    def test_rank_one(self):
        # sqrt(4 pi (l-m)! (l+m)! / (2l+1)) at (1, 1) -> sqrt(8 pi / 3)
        assert beam.solid_norm(1, 1) == pytest.approx(math.sqrt(8.0 * math.pi / 3.0))
        assert beam.solid_norm(1, -1) == pytest.approx(beam.solid_norm(1, 1))


class TestSolidHarmonicEval:
    def test_origin(self):
        assert verify.solid_harmonic(0, 0, (0.0, 0.0, 0.0)) == pytest.approx(1.0)
        assert verify.solid_harmonic(2, 1, (0.0, 0.0, 0.0)) == 0.0

    def test_rank_one_cartesian(self):
        # R^0_1 = C^0_1 r Y^0_1 = sqrt(4pi/3) * sqrt(3/4pi) z = z
        v = (0.3, -0.7, 1.9)
        assert verify.solid_harmonic(1, 0, v) == pytest.approx(v[2], rel=1e-12)
        # R^{+1}_1 = -(x + i y), R^{-1}_1 = (x - i y) under the resolved norm
        rp = verify.solid_harmonic(1, 1, v)
        rm = verify.solid_harmonic(1, -1, v)
        assert rp == pytest.approx(-(v[0] + 1j * v[1]), rel=1e-12)
        assert rm == pytest.approx(v[0] - 1j * v[1], rel=1e-12)


class TestLGAmplitude:
    def test_axis_null_for_vortex(self):
        assert verify.lg_amplitude(_spec(l=1), 0.0, 0.3) == 0.0

    def test_gaussian_origin(self):
        got = verify.lg_amplitude(_spec(l=0, E0=2.5), 0.0, 0.0)
        assert got == pytest.approx(2.5 * math.sqrt(2.0 / math.pi))

    def test_ring_value(self):
        # l=1 at rho = w0/sqrt(2): vortex factor 1, envelope e^{-1/2}
        w0 = 3.2
        got = verify.lg_amplitude(_spec(l=1, w0=w0), w0 / math.sqrt(2.0), 0.0)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi) * math.exp(-0.5))

    @pytest.mark.parametrize("l", [-2, -1, 0, 1, 3])
    def test_phase_winding(self, l):
        s = _spec(l=l)
        phis = np.linspace(0.0, 2.0 * math.pi, 201)
        vals = [verify.lg_amplitude(s, 0.6, p) for p in phis]
        ph = np.unwrap([cmath.phase(v) for v in vals])
        assert ph[-1] - ph[0] == pytest.approx(2.0 * math.pi * l, abs=1e-9)


class TestFCoeff:
    def test_frozen_values_w0_unity(self):
        assert beam.f_coeff(0, 0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
        assert beam.f_coeff(1, 0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)
        assert beam.f_coeff(0, 1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)

    def test_sign_of_charge_irrelevant(self):
        for q in (0, 1, 2):
            assert beam.f_coeff(-3, q) == pytest.approx(beam.f_coeff(3, q), rel=1e-14)

    def test_waist_power_law(self):
        for l, q in [(0, 0), (1, 0), (2, 1), (1, 3)]:
            scale = beam.f_coeff(l, q, w0=2.0) * 2.0 ** (2 * q + abs(l))
            assert scale == pytest.approx(beam.f_coeff(l, q), rel=1e-13)


class TestGCoeff:
    def test_frozen_values(self):
        w_r, w0 = 0.9, 1.7
        assert beam.g_coeff(1, 0, w_r, w0) == pytest.approx(
            2.0 * math.pi * (w_r / w0) / math.sqrt(3.0), rel=1e-13)
        assert beam.g_coeff(0, 0, w_r, w0) == pytest.approx(
            math.pi * math.sqrt(2.0 / 3.0), rel=1e-13)

    def test_waist_power_law(self):
        for l, q in [(1, 0), (0, 1), (2, 2)]:
            assert beam.g_coeff(l, q, 1.3, 2.0 * 1.1) == pytest.approx(
                beam.g_coeff(l, q, 1.3, 1.1) / 2.0 ** (2 * q + abs(l)), rel=1e-13)

    def test_relation_to_f(self):
        # g = pi^{3/2}/sqrt(3) * f * w_r^{2q+|l|} ties the two coefficient maps
        w_r, w0 = 0.814815, 1.0
        for l, q in [(0, 0), (1, 0), (1, 1), (-2, 1), (3, 2)]:
            expect = (math.pi ** 1.5 / math.sqrt(3.0)
                      * beam.f_coeff(l, q, w0=w0) * w_r ** (2 * q + abs(l)))
            assert beam.g_coeff(l, q, w_r, w0) == pytest.approx(expect, rel=1e-12)


class TestVerifyExpansion:
    def test_origin_gaussian_exact(self):
        residual, relative = verify.expansion_residual(_spec(l=0, q_max=0), 0.0, 0.5, 0.0)
        assert relative
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_converged_residual(self):
        s = _spec(l=1, q_max=8, w0=2.0)
        residual, relative = verify.expansion_residual(s, 0.3 * s.w0, math.pi / 2, 0.7)
        assert relative
        assert residual <= 1e-6

    def test_truncation_monotone(self):
        w0 = 1.5
        r, th, ph = 0.3 * w0, math.pi / 2, 1.1
        res = [verify.expansion_residual(_spec(l=1, q_max=q, w0=w0), r, th, ph)[0]
               for q in (0, 1, 2)]
        assert res[0] > res[1] > res[2]

    def test_hundred_random_probes(self):
        rng = np.random.default_rng(7)
        s = _spec(l=2, q_max=8, w0=1.3)
        for _ in range(100):
            r = rng.uniform(0.05, 0.5) * s.w0
            th = rng.uniform(0.1, math.pi - 0.1)
            ph = rng.uniform(0.0, 2.0 * math.pi)
            residual, relative = verify.expansion_residual(s, r, th, ph)
            assert relative
            assert residual <= 1e-6

    def test_null_field_flag(self):
        # on the vortex axis the reference field vanishes; residual is absolute
        residual, relative = verify.expansion_residual(_spec(l=1, q_max=2), 1.0, 0.0, 0.0)
        assert not relative
        assert residual == pytest.approx(0.0, abs=1e-12)


class TestTranslation:
    def test_null_inner_translation(self):
        # only R^0_0(0) = 1 survives at lam_r = 0
        got = verify.translate_solid_harmonic(2, 1, (0.4, -0.2, 0.9), (0.0, 0.0, 0.0))
        assert got == pytest.approx(
            verify.solid_harmonic(2, 1, (0.4, -0.2, 0.9)), rel=1e-12)

    def test_null_outer_translation(self):
        got = verify.translate_solid_harmonic(2, 2, (0.0, 0.0, 0.0), (0.1, 0.2, 0.3))
        assert got == pytest.approx(
            verify.solid_harmonic(2, 2, (0.1, 0.2, 0.3)), rel=1e-12)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_addition_theorem(self, l):
        rng = np.random.default_rng(l + 11)
        for _ in range(6):
            a = tuple(rng.uniform(-1.0, 1.0, 3))
            b = tuple(rng.uniform(-1.0, 1.0, 3))
            total = tuple(x + y for x, y in zip(a, b))
            for m in range(-l, l + 1):
                direct = verify.solid_harmonic(l, m, total)
                summed = verify.translate_solid_harmonic(l, m, b, a)
                assert abs(summed - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_binomial_weights_visible(self):
        # on the z axis R^0_1 = z and R^0_2 = 2 z^2: R^0_1(a+b) = z_a + z_b, and
        # the cross term of R^0_2(a+b) = 2 z_a^2 + 4 z_a z_b + 2 z_b^2 carries
        # the weight B(2,1)^2 = 4 (unit weights would give 32, not 50)
        assert verify.translate_solid_harmonic(1, 0, (0, 0, 2.0), (0, 0, 3.0)) \
            == pytest.approx(5.0)
        assert verify.translate_solid_harmonic(2, 0, (0, 0, 2.0), (0, 0, 3.0)) \
            == pytest.approx(50.0)
