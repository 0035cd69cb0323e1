"""2-D trap CM states: normalization, moments, energies."""

import math

import numpy as np
import pytest

from lgryd.cm import CMState, _gauss_laguerre, cm_moment, gauss_legendre
from _oracles import cm_amplitude, cm_moment_series


class TestCMState:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CMState(N=1, M=0, w_r=1.0)   # parity
        with pytest.raises(ValueError):
            CMState(N=1, M=2, w_r=1.0)   # N >= |M|
        with pytest.raises(ValueError):
            CMState(N=0, M=0, w_r=0.0)
        s = CMState(N=4, M=-2, w_r=2.0)
        assert s.n_minus == 1 and s.n_plus == 3


class TestAmplitude:
    def test_ground_state_origin(self):
        s = CMState(0, 0, w_r=1.7)
        assert cm_amplitude(s, 0.0) == pytest.approx(math.sqrt(2.0) / 1.7, rel=1e-13)

    def test_vortex_node_at_origin(self):
        assert cm_amplitude(CMState(1, 1, 1.0), 0.0) == 0.0

    @pytest.mark.parametrize("N,M", [(0, 0), (1, 1), (1, -1), (2, 0), (4, 2)])
    def test_unit_norm(self, N, M):
        # 2-D normalization: integral A^2 r dr = 1
        from scipy.integrate import simpson
        s = CMState(N, M, w_r=0.8)
        r = np.linspace(0.0, 12.0 * s.w_r, 20001)
        a = np.array([cm_amplitude(s, ri) for ri in r])
        val = simpson(a * a * r, x=r)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_sign_of_M_irrelevant(self):
        sp = CMState(3, 1, 1.0)
        sm = CMState(3, -1, 1.0)
        for r in (0.2, 0.9, 2.3):
            assert cm_amplitude(sp, r) == pytest.approx(cm_amplitude(sm, r), rel=1e-14)


class TestMoment:
    def test_diagonal_normalization(self):
        s = CMState(0, 0, 1.3)
        assert cm_moment(s, s, 0) == pytest.approx(1.0, abs=1e-12)

    def test_ground_second_moment(self):
        s = CMState(0, 0, 1.0)
        assert cm_moment(s, s, 2) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_small_moments(self):
        w = 2.2
        f10 = CMState(1, 1, w)
        g = CMState(0, 0, w)
        assert cm_moment(f10, g, 1) == pytest.approx(1.0, abs=1e-12)
        assert cm_moment(CMState(2, 2, w), g, 2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert cm_moment(CMState(2, 0, w), g, 2) == pytest.approx(-1.0, abs=1e-12)
        assert cm_moment(f10, g, 3) == pytest.approx(2.0, abs=1e-12)
        assert cm_moment(CMState(3, 1, w), g, 1) == pytest.approx(0.0, abs=1e-12)

    def test_stretched_ladder(self):
        # <(L,L)| x^L |(0,0)> = sqrt(L!)
        for L in range(1, 6):
            got = cm_moment(CMState(L, L, 1.0), CMState(0, 0, 1.0), L)
            assert got == pytest.approx(math.sqrt(math.factorial(L)), rel=1e-12)

    def test_orthonormality(self):
        for M in (0, 1, -2):
            Ns = [N for N in range(abs(M), abs(M) + 13, 2)][:7]
            for Na in Ns:
                for Nb in Ns:
                    got = cm_moment(CMState(Na, M, 1.0), CMState(Nb, M, 1.0), 0)
                    assert got == pytest.approx(1.0 if Na == Nb else 0.0, abs=1e-10)

    def test_symmetric(self):
        a, b = CMState(4, 2, 1.0), CMState(2, 2, 1.0)
        assert cm_moment(a, b, 2) == pytest.approx(cm_moment(b, a, 2), rel=1e-13)

    def test_matches_gamma_series(self):
        for (Nf, Mf), (Ni, Mi), beta in [
            ((0, 0), (0, 0), 0), ((0, 0), (0, 0), 4),
            ((2, 2), (0, 0), 2), ((2, 0), (2, 0), 2),
            ((4, 2), (2, 2), 1), ((3, 1), (1, 1), 2),
            ((4, 0), (0, 0), 4), ((3, 3), (1, 1), 2),
        ]:
            got = cm_moment(CMState(Nf, Mf, 1.0), CMState(Ni, Mi, 1.0), beta)
            ref = cm_moment_series(Nf, Mf, Ni, Mi, beta)
            assert got == pytest.approx(ref, abs=1e-10), (Nf, Mf, Ni, Mi, beta)

    def test_trap_mismatch_raises(self):
        with pytest.raises(ValueError):
            cm_moment(CMState(0, 0, 1.0), CMState(0, 0, 1.1), 0)

    def test_dimensionless_in_w_r(self):
        # moments are in units of w_r already; changing w_r must not move them
        a = cm_moment(CMState(2, 2, 0.7), CMState(0, 0, 0.7), 2)
        b = cm_moment(CMState(2, 2, 5.0), CMState(0, 0, 5.0), 2)
        assert a == pytest.approx(b, rel=1e-13)



class TestGaussLaguerre:
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 6.0, 7.5])
    def test_matches_scipy(self, a):
        from scipy.special import roots_genlaguerre
        for n in range(1, 13):
            u, w = _gauss_laguerre(n, a)
            u_ref, w_ref = roots_genlaguerre(n, a)
            assert np.allclose(u, u_ref, rtol=1e-13, atol=0.0), (n, a)
            # weights fall over many decades; hold them to the total Gamma(a+1)
            assert np.allclose(w, w_ref, rtol=0.0,
                               atol=1e-14 * math.gamma(a + 1.0)), (n, a)

    def test_cached_and_read_only(self):
        # one eigen-solve per (n, a); the shared arrays cannot be edited
        u, w = _gauss_laguerre(5, 1.5)
        assert _gauss_laguerre(5, 1.5)[0] is u
        for arr in (u, w):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestGaussLegendre:
    def test_matches_numpy(self):
        for n in (1, 2, 3, 8, 16, 64):
            x, w = gauss_legendre(n)
            x_ref, w_ref = np.polynomial.legendre.leggauss(n)
            assert np.allclose(x, x_ref, rtol=0.0, atol=1e-14), n
            assert np.allclose(w, w_ref, rtol=0.0, atol=1e-14), n
