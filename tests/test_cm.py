"""2-D trap CM states: normalization, moments, energies."""

import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from lgryd.cm import MAX_N_MINUS, CMState, _gauss_laguerre_unit, cm_moment, \
    gauss_legendre
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

    def test_refuses_n_minus_past_the_cap(self):
        # cm_moment holds its digits only up to n- = MAX_N_MINUS
        top = 2 * MAX_N_MINUS
        assert CMState(top + 3, -3, 1.0).n_minus == MAX_N_MINUS
        for N, M in ((top + 2, 0), (top + 5, 3), (400, 0)):
            with pytest.raises(ValueError, match="exceeds"):
                CMState(N, M, 1.0)


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

    def test_exact_at_every_n_minus_up_to_the_cap(self):
        # against the Laguerre coefficient expansion in 100-digit arithmetic,
        # on the moments a channel takes: both states share n-, and
        # beta = M_f - M_i mod 2.  The first region holds |M_f - M_i| <= 4 at
        # every n-; the second every |M_f - M_i| <= 46 with beta = |M_f - M_i|
        # + 2k, k <= 2 (a channel has beta >= |M_f - M_i|), where a rule whose
        # nodes miss a root (Newton from the standard guesses) is off by 0.16
        # at n- = 0.  The worst case found is 4.1e-11, at n- = 10.
        mp = pytest.importorskip("mpmath")

        @cache
        def coeffs(n, af, ai):
            # u^s coefficients of L_n^{|M_f|} L_n^{|M_i|}, exact
            lf, li = ([Fraction((-1) ** j * math.comb(n + am, n - j),
                                math.factorial(j)) for j in range(n + 1)]
                      for am in (af, ai))
            conv = (sum(lf[j] * li[s - j]
                        for j in range(max(0, s - n), min(s, n) + 1))
                    for s in range(2 * n + 1))
            return [mp.mpf(c.numerator) / c.denominator for c in conv]

        def exact(n, Mf, Mi, beta):
            af, ai = abs(Mf), abs(Mi)
            a = mp.mpf(af + ai + beta) / 2
            total, gam = 0, mp.gamma(a + 1)  # gam = Gamma(a + s + 1)
            for s, c in enumerate(coeffs(n, af, ai)):
                total += c * gam
                gam *= a + s + 1
            norm = mp.sqrt(4 * mp.factorial(n) ** 2
                           / (mp.factorial(n + af) * mp.factorial(n + ai)))
            return norm * total / 2

        cases = [(n, Mi, Mf, beta)
                 for n in range(MAX_N_MINUS + 1) for Mi in (0, 1)
                 for Mf in range(Mi - 4, Mi + 5)
                 for beta in (0, 1, 2, 3, 4, 5, 20, 46)
                 if (beta - Mf + Mi) % 2 == 0]
        cases += [(n, Mi, Mf, d + 2 * k)
                  for n in (0, 3, 6, 8, MAX_N_MINUS) for Mi in (0, 1)
                  for d in range(47) for Mf in {Mi - d, Mi + d} for k in range(3)]
        with mp.workdps(100):
            for n, Mi, Mf, beta in cases:
                want = exact(n, Mf, Mi, beta)
                got = cm_moment(CMState(2 * n + abs(Mf), Mf, 1.0),
                                CMState(2 * n + abs(Mi), Mi, 1.0), beta)
                # some are exact zeros (orthogonality)
                bound = 1e-10 * abs(want) if want else 1e-12
                assert abs(got - want) <= bound, (n, Mf, Mi, beta)

    def test_finite_and_exact_at_large_M(self):
        # trap.N = trap.M = 200 and an l = 1 beam: the moments of every
        # channel, <|M_f|, M_f| x^beta |200, 200> with n- = 0, are
        # Gamma(a + 1)/sqrt(|M_f|! 200!); Gamma(a + 1) alone overflows
        mp = pytest.importorskip("mpmath")
        with mp.workdps(100):
            for Mf, beta in ((199, 1), (200, 0), (200, 2), (201, 1), (201, 3),
                             (202, 2)):
                a = mp.mpf(Mf + 200 + beta) / 2
                want = mp.gamma(a + 1) / mp.sqrt(mp.factorial(Mf) * mp.factorial(200))
                got = cm_moment(CMState(Mf, Mf, 1.0), CMState(200, 200, 1.0), beta)
                assert abs(got - want) <= 1e-12 * want, (Mf, beta)

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
            u, w = map(np.array, _gauss_laguerre_unit(n, a))
            w = w * math.gamma(a + 1.0)
            u_ref, w_ref = roots_genlaguerre(n, a)
            assert np.allclose(u, u_ref, rtol=1e-13, atol=0.0), (n, a)
            # weights fall over many decades; hold them to the total Gamma(a+1)
            assert np.allclose(w, w_ref, rtol=0.0,
                               atol=1e-14 * math.gamma(a + 1.0)), (n, a)

    def test_exact_on_polynomials(self):
        # the unit-mass rule integrates u^k, k < 2n, to Gamma(a+k+1)/Gamma(a+1)
        # at every node count cm_moment takes, for every half-integer a <= 60
        # and at a = 200, past where Gamma(a+1) overflows
        mp = pytest.importorskip("mpmath")
        for a in [0.5 * t for t in range(121)] + [200.0]:
            with mp.workdps(30):
                ref = np.array([float(mp.gamma(a + k + 1) / mp.gamma(a + 1))
                                for k in range(4 * MAX_N_MINUS + 4)])
            for n in range(1, 2 * MAX_N_MINUS + 3):
                u, w = map(np.array, _gauss_laguerre_unit(n, a))
                assert u[0] > 0.0 and np.all(np.diff(u) > 0.0), (n, a)
                # all terms positive: the float sum is good to ~50 ulp
                got = w @ u[:, None] ** np.arange(2 * n)
                assert np.allclose(got, ref[:2 * n], rtol=1e-13, atol=0.0), (n, a)

    def test_cached_and_read_only(self):
        # one rule build per (n, a); the shared tuples cannot be edited
        u, w = _gauss_laguerre_unit(5, 1.5)
        assert _gauss_laguerre_unit(5, 1.5)[0] is u
        for arr in (u, w):
            with pytest.raises(TypeError):
                arr[0] = 1.0


class TestGaussLegendre:
    def test_matches_numpy(self):
        for n in (1, 2, 3, 8, 16, 64):
            x, w = gauss_legendre(n)
            x_ref, w_ref = np.polynomial.legendre.leggauss(n)
            assert np.allclose(x, x_ref, rtol=0.0, atol=1e-14), n
            assert np.allclose(w, w_ref, rtol=0.0, atol=1e-14), n
