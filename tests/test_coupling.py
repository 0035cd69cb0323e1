"""Channel enumeration, normalization products and the assembled matrix
element.

Frozen angular brackets below were derived with sympy's exact gaunt
coefficients (pairwise product reduction, exact rationals) — independent of
the package's own multi_gaunt:

    <Y_1^1 | Y_1^1 (Y_0^0)^4 | Y_0^0>                =  1/(32 pi^{5/2})
    <Y_2^2 | Y_1^1 Y_0^0 Y_1^1 (Y_0^0)^2 | Y_0^0>    =  sqrt(30)/(160 pi^{5/2})
    <Y_2^0 | Y_1^1 (Y_0^0)^3 Y_1^{-1} | Y_0^0>       =  sqrt(5)/(160 pi^{5/2})
    <Y_0^0 | Y_1^1 (Y_0^0)^3 Y_1^{-1} | Y_0^0>       = -1/(32 pi^{5/2})
    <Y_3^1 | Y_1^1 (Y_0^0)^4 | Y_0^0>                =  0
"""

import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from _golden import assert_golden
from _oracles import enumerate_channels_nested
from lgryd import coupling
from lgryd.atom import (_simpson, default_grid, load_species,
                        radial_matrix_element, solve_radial)
from lgryd.beam import BeamSpec, g_coeff, solid_norm
from lgryd.cli import Runtime
from lgryd.cm import CMState, cm_moment
from lgryd.config import parse_config
from lgryd.coupling import (Channel, StateLabel, StateSolver, assemble,
                            c_product, compute_scenario, enumerate_channels,
                            fine_structure_weight, lambda_integral_oracle,
                            sweep_topological_charge)
from lgryd.specfun import clebsch_gordan, multi_gaunt
from lgryd.units import FINE_STRUCTURE, rabi_kHz as to_kHz, um_to_au
from lgryd.verify import _hydrogen_u

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------- labels

class TestStateLabel:
    def test_str_forms(self):
        assert str(StateLabel(2, 2.5, 1.5)) == "D5/2(+3/2)"
        assert str(StateLabel(1, 1.5, -0.5)) == "P3/2(-1/2)"
        assert str(StateLabel(0, 0.5, -0.5)) == "S1/2(-1/2)"

    def test_species_drops_projection(self):
        # the sweep aggregates rows by the label up to its projection, the
        # text before the last "(": l >= 17 prints its l in parentheses
        assert str(StateLabel(2, 2.5, 1.5)).rpartition("(")[0] == "D5/2"
        assert str(StateLabel(17, 17.5, 16.5)) == "(l=17)35/2(+33/2)"
        assert str(StateLabel(17, 17.5, 16.5)).rpartition("(")[0] == "(l=17)35/2"

    def test_csv_safe(self):
        assert "," not in str(StateLabel(3, 3.5, -3.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            StateLabel(2, 1.0, 0.5)
        with pytest.raises(ValueError):
            StateLabel(1, 1.5, 2.5)


# ------------------------------------------------------------- c_product

class TestCProduct:
    def test_all_zero_indices(self):
        # six C^0_0 factors, each sqrt(4 pi)
        assert c_product(0, 0, 0, 0, 0, 0, 0, 0) == pytest.approx((FOUR_PI) ** 3,
                                                                  rel=1e-12)

    def test_vortex_transfer_example(self):
        # l=1, q=0, l1=1: C^1_1 C^0_0 (C^0_0)^4
        want = math.sqrt(8.0 * math.pi / 3.0) * FOUR_PI ** 2.5
        assert c_product(1, 0, 1, 0, 0, 1, 0, 0) == pytest.approx(want, rel=1e-12)

    def test_out_of_domain_projection_is_zero(self):
        # m1 = 1 with l1 = 0 leaves |m| > rank in the first factor
        assert c_product(1, 0, 0, 0, 0, 1, 0, 0) == 0.0

    def test_negative_rank_is_zero(self):
        # l2 > q drives the fourth factor's rank negative
        assert c_product(1, 0, 0, 1, 0, 0, 1, 0) == 0.0

    def test_matches_factor_by_factor(self):
        l, q, l1, l2, l3 = 2, 1, 1, 1, 0
        m1, m2, m3 = 1, 1, 0
        pairs = [(l1, m1), (abs(l) - l1, l - m1), (l2, m2), (q - l2, q - m2),
                 (l3, m3), (q - l3, -q - m3)]
        want = math.prod(solid_norm(r, m) for r, m in pairs)
        assert c_product(l, q, l1, l2, l3, m1, m2, m3) == pytest.approx(want,
                                                                        rel=1e-12)

    def test_mirror_symmetry(self):
        # the mirror beam (l -> -l) swaps the two envelope factors, so the
        # partner tuple is (l1, l3, l2) with every projection negated
        for (l, q, l1, l2, l3) in [(1, 0, 1, 0, 0), (1, 1, 0, 1, 0),
                                   (2, 1, 1, 1, 1), (3, 2, 2, 0, 1)]:
            m1, m2, m3 = l1 if l > 0 else -l1, l2, -l3
            a = c_product(l, q, l1, l2, l3, m1, m2, m3)
            b = c_product(-l, q, l1, l3, l2, -m1, l3, -l2)
            assert a == pytest.approx(b, rel=1e-12)


# ------------------------------------------------- fine-structure weight

class TestFineStructureWeight:
    S_HALF = (0, 0.5, -0.5)

    def test_s_to_d_stretched(self):
        w = fine_structure_weight(self.S_HALF, (2, 2.5, 1.5), (0, 2))
        assert w == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12)

    def test_s_to_d_edge(self):
        w = fine_structure_weight(self.S_HALF, (2, 2.5, -2.5), (0, -2))
        assert w == pytest.approx(1.0, rel=1e-12)

    def test_s_to_p(self):
        w = fine_structure_weight(self.S_HALF, (1, 1.5, 0.5), (0, 1))
        assert w == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_spin_projection_mismatch_is_zero(self):
        # the only surviving m_s differs between bra and ket
        assert fine_structure_weight(self.S_HALF, (1, 1.5, 1.5), (0, 1)) == 0.0

    def test_matches_direct_cg_sum(self):
        initial, final = (1, 1.5, 0.5), (2, 2.5, 1.5)
        for m_li in (-1, 0, 1):
            m_lf = m_li + 1
            want = sum(clebsch_gordan(2, 0.5, m_lf, ms, 2.5, 1.5)
                       * clebsch_gordan(1, 0.5, m_li, ms, 1.5, 0.5)
                       for ms in (-0.5, 0.5))
            got = fine_structure_weight(initial, final, (m_li, m_lf))
            assert got == pytest.approx(want, abs=1e-14)


# --------------------------------------------------------- lambda oracle

def _lambda_oracle_reference(exponent, k, r):
    """lambda_integral_oracle written out: Python-float powers, the scalar
    j_0 formula at each node and a sum from the left, which the oracle must
    reproduce bit for bit."""
    def j0(x):
        if abs(x) < 1e-3:
            x2 = x * x
            return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
        return math.sin(x) / x

    lam, w = coupling._gauss_legendre_unit()
    total = 0.0
    for li, wi in zip(lam, w):
        total += wi * (li**exponent * j0(k * li * r))
    return 0.5 * total


class TestLambdaOracle:
    def test_dipole_limit_monomial(self):
        assert lambda_integral_oracle(0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert lambda_integral_oracle(1, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert lambda_integral_oracle(3, 0.0, 5.0) == pytest.approx(0.25, abs=1e-14)

    def test_small_kr_expansion_p0(self):
        # int_0^1 j_0(kr lam) dlam = 1 - (kr)^2/18 + O(kr^4)
        kr = 0.2
        got = lambda_integral_oracle(0, kr, 1.0)
        assert got == pytest.approx(1.0 - kr * kr / 18.0, abs=5e-6)

    def test_scale_split_between_k_and_r(self):
        a = lambda_integral_oracle(2, 0.05, 10.0)
        b = lambda_integral_oracle(2, 0.5, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_integral_oracle(-1, 0.0, 1.0)

    # (k, r) so that x = k lam r over the 64 nodes is: all 0; all below,
    # straddling or all above the 1e-3 series switch; out to 1e3; and the
    # rb60 dipole audit's own scale (k ~ 1e-7, <r> ~ 5e3)
    KR = ((0.0, 1.0), (1.0, 0.0), (1e-4, 1.0), (2e-3, 1.0), (1.5e-3, 0.9),
          (0.37, 2.0), (1.0, 1e3), (6.9e-8, 5.4e3), (2.3e-5, 4.1e7))

    @pytest.mark.parametrize("exponent", range(12))
    def test_array_form_bit_identical(self, exponent):
        lam = coupling._gauss_legendre_unit()[0]
        for k, r in self.KR:
            assert lambda_integral_oracle(exponent, k, r) == \
                _lambda_oracle_reference(exponent, k, r), (k, r)
        x = 2e-3 * np.array(lam)
        assert (x < 1e-3).any() and (x >= 1e-3).any()
        assert max(lam) * 1e3 > 990.0

    def test_tables_read_only(self):
        lam, w = coupling._gauss_legendre_unit()
        for arr in (lam, w, coupling._lambda_powers(3)):
            with pytest.raises(TypeError):
                arr[0] = 0.5
        assert coupling._lambda_powers(3) is coupling._lambda_powers(3)


# ----------------------------------------------------- channel invariants

def mk_channel(l, sigma, q, l1, l2, l3, M_i, final):
    return Channel(l=l, sigma=sigma, q=q, l1=l1, l2=l2, l3=l3, M_i=M_i,
                   final=final)


class TestChannelInvariants:
    def test_alpha_beta(self):
        ch = mk_channel(1, 1, 1, 0, 1, 0, 0, StateLabel(2, 2.5, 1.5))
        assert ch.alpha == 2 and ch.beta == 2

    def test_group_labels(self):
        lbl = StateLabel(2, 2.5, 1.5)
        assert mk_channel(1, 1, 1, 0, 0, 0, 0, StateLabel(1, 1.5, 0.5)).group == "pure"
        assert mk_channel(1, 1, 0, 1, 0, 0, 0, lbl).group == "via_tc"
        assert mk_channel(1, 1, 1, 0, 1, 0, 0, lbl).group == "via_gt"
        assert mk_channel(1, 1, 1, 1, 1, 1, 0, lbl).group == "other"


# ----------------------------------------------------------- enumeration

RB = load_species("rb")
HY = load_species("hydrogen")


S_INIT = StateLabel(0, 0.5, -0.5)
CM0 = CMState(0, 0, 41573.97474176695)


def beam_for(l, sigma, q_max=0):
    return BeamSpec(l=l, w0=51022.6, E0=4.6672e-9, sigma=sigma, q_max=q_max)


class TestEnumerateChannels:
    def brief(self, chans):
        return [(c.q, c.l1, c.l2, c.l3, c.M_f, str(c.final)) for c in chans]

    def test_sign_combo_inventories_q0(self):
        # lowest-envelope-order inventory for all four (sign l, sign sigma)
        want = {
            (1, 1): [(0, 0, 0, 0, 1, "P3/2(+1/2)"),
                     (0, 1, 0, 0, 0, "D5/2(+3/2)")],
            (1, -1): [(0, 0, 0, 0, 1, "P3/2(-3/2)"),
                      (0, 1, 0, 0, 0, "D5/2(-1/2)")],
            (-1, 1): [(0, 0, 0, 0, -1, "P3/2(+1/2)"),
                      (0, 1, 0, 0, 0, "D5/2(-1/2)")],
            (-1, -1): [(0, 0, 0, 0, -1, "P3/2(-3/2)"),
                       (0, 1, 0, 0, 0, "D5/2(-5/2)")],
        }
        for (l, sigma), rows in want.items():
            chans = enumerate_channels(beam_for(l, sigma), S_INIT, CM0, 3)
            assert self.brief(chans) == rows, (l, sigma)

    def test_first_envelope_order_count(self):
        chans = enumerate_channels(beam_for(1, 1, q_max=1), S_INIT, CM0, 3)
        assert len(chans) == 13
        # the envelope-fed CM double transfer: beam OAM + one envelope pair
        assert (1, 0, 0, 1, 2, "D5/2(-1/2)") in self.brief(chans)
        # same tuple also feeds an S final with the full 2 units on the CM
        assert (1, 0, 0, 1, 2, "S1/2(-1/2)") in self.brief(chans)

    def test_final_l_cap(self):
        chans = enumerate_channels(beam_for(1, 1, q_max=1), S_INIT, CM0, 2)
        assert len(chans) == 10
        assert all(c.final.l <= 2 for c in chans)

    def test_cap_past_triangle_bound_changes_nothing(self):
        # l_f above l_i + 1 + |l| + 2 q_max closes by the triangle rule, so a
        # huge cap gives the same channels, and the loop stops at the bound
        beam = beam_for(2, 1, q_max=1)
        want = enumerate_channels(beam, S_INIT, CM0, 5)
        assert want and max(c.final.l for c in want) == 5
        assert enumerate_channels(beam, S_INIT, CM0, 10**9) == want

    def test_lexicographic_order(self):
        # hydrogen 4S, and rb60 at l = -2..4, q_max = 2, both j, l_f <= 10
        cases = [(beam_for(1, 1, q_max=2), S_INIT, CM0, 3, "stretched")]
        cfg = RB60
        rb_i = StateLabel(cfg.l_i, cfg.j_i, cfg.m_j)
        rb_cm = CMState(cfg.N, cfg.M, um_to_au(cfg.w_r_um))
        cases += [(BeamSpec(l=l, w0=um_to_au(cfg.waist_um), E0=1.0,
                            sigma=cfg.sigma, q_max=2), rb_i, rb_cm, 10, "all")
                  for l in range(-2, 5)]
        for beam, psi_i, cm_i, l_f_max, j_policy in cases:
            chans = enumerate_channels(beam, psi_i, cm_i, l_f_max,
                                       j_policy=j_policy)
            keys = [(c.q, c.l1, c.l2, c.l3, c.sigma, c.final.l,
                     2 * c.final.j) for c in chans]
            assert chans and keys == sorted(keys), beam.l

    def test_oam_conservation_identity(self):
        # m_jf - m_ji + M_f - M_i == l + sigma for every emitted channel
        for l in (-2, -1, 0, 1, 2):
            for sigma in (-1, 0, 1):
                beam = beam_for(l, sigma, q_max=2)
                for cm_i in (CM0, CMState(3, -1, CM0.w_r)):
                    chans = enumerate_channels(beam, S_INIT, CM0 if cm_i is CM0
                                               else cm_i, 3)
                    for c in chans:
                        lhs = (c.final.m_j - S_INIT.m_j) + (c.M_f - c.M_i)
                        assert lhs == l + sigma, c

    def test_elastic_drop(self):
        # l=-1, sigma=+1, l1=1 reaches the initial label with M_f = M_i
        beam = beam_for(-1, 1)
        dropped = enumerate_channels(beam, S_INIT, CM0, 3)
        kept = enumerate_channels(beam, S_INIT, CM0, 3, include_elastic=True)
        assert len(kept) == len(dropped) + 1
        extra = [c for c in kept if c.final.l == 0]
        assert len(extra) == 1 and extra[0].M_f == 0

    def test_j_policy_all(self):
        stretched = enumerate_channels(beam_for(1, 1), S_INIT, CM0, 3)
        both = enumerate_channels(beam_for(1, 1), S_INIT, CM0, 3, j_policy="all")
        assert len(both) > len(stretched)
        assert {round(2 * c.final.j) for c in both} >= {3, 5}
        with pytest.raises(ValueError):
            enumerate_channels(beam_for(1, 1), S_INIT, CM0, 3, j_policy="frobnicate")

    def test_matches_nested_loop_enumerator(self):
        # the per-block open-final lists against the nested loops they
        # replaced: the same channels, in order, every field equal (Channel
        # compares all of them), with one process cache shared across l as a
        # sweep shares it, and across initial states, trap states, m_j,
        # j_policy and the l_f cap, which its keys must tell apart; from P3/2
        # the elastic filter also needs j
        groups = [((0, 0.5), q_max, M_i) for q_max in (0, 1, 2)
                  for M_i in (0, -1, 2)]
        groups += [((1, 1.5), q_max, 0) for q_max in (0, 1)]
        for (l_i, j_i), q_max, M_i in groups:
            cm_i = CMState(abs(M_i), M_i, CM0.w_r)
            for j_policy, elastic, m_j, cap, l in itertools.product(
                    ("stretched", "all"), (False, True), (0.5, -0.5), (3, 10),
                    range(-4, 9)):
                args = (beam_for(l, 1, q_max=q_max), StateLabel(l_i, j_i, m_j),
                        cm_i, cap, j_policy, elastic)
                want = enumerate_channels_nested(*args)
                case = (l_i, j_i, q_max, M_i, j_policy, elastic, m_j, cap, l)
                assert want, case
                assert enumerate_channels(*args) == want, case


# -------------------------------------------------------------- assemble

class TestAssemble:
    def setup_method(self):
        self.solver = StateSolver(HY)
        self.psi_i = self.solver.get(4, 0, 0.5)
        self.beam = beam_for(1, 1, q_max=1)

    def test_factorization_wiring(self):
        # every reported factor recomputes independently from the parts
        w_r = CM0.w_r
        chans = enumerate_channels(self.beam, S_INIT, CM0, 3)
        ch = next(c for c in chans if c.l1 == 1 and c.q == 0)
        psi_f = self.solver.get(4, 2, 2.5)
        res = assemble(ch, self.beam, self.psi_i, psi_f, CM0)

        coeff = (g_coeff(1, 0, w_r, self.beam.w0) * math.gamma(1.0)
                 * c_product(1, 0, 1, 0, 0, 1, 0, 0))
        ang = multi_gaunt([(1, 1), (0, 0), (1, 1), (0, 0), (0, 0)], (2, 2), (0, 0))
        cg = clebsch_gordan(2, 0.5, 2, -0.5, 2.5, 1.5)
        rad = radial_matrix_element(psi_f, self.psi_i, 2, w_r)
        want = self.beam.E0 * coeff * rad * 1.0 * ang * cg
        assert res.coeff == pytest.approx(coeff, rel=1e-12)
        assert res.radial_e == pytest.approx(rad, rel=1e-12)
        assert res.radial_cm == 1.0
        assert res.angular == pytest.approx(ang, rel=1e-12)
        assert res.cg_weight == pytest.approx(cg, rel=1e-12)
        assert abs(res.matrix_element) == pytest.approx(abs(want), rel=1e-12)
        assert res.rabi_kHz == pytest.approx(to_kHz(abs(want)), rel=1e-12)
        assert not res.closed

    def test_frozen_angular_values(self):
        # sympy-exact brackets (module docstring)
        exact_pure = 1.0 / (32.0 * math.pi ** 2.5)
        exact_tc = math.sqrt(30.0) / (160.0 * math.pi ** 2.5)
        exact_gt0 = math.sqrt(5.0) / (160.0 * math.pi ** 2.5)
        got_pure = multi_gaunt([(1, 1), (0, 0), (0, 0), (0, 0), (0, 0)],
                               (1, 1), (0, 0))
        got_tc = multi_gaunt([(1, 1), (0, 0), (1, 1), (0, 0), (0, 0)],
                             (2, 2), (0, 0))
        got_gt0 = multi_gaunt([(1, 1), (0, 0), (0, 0), (0, 0), (1, -1)],
                              (2, 0), (0, 0))
        assert got_pure == pytest.approx(exact_pure, rel=1e-12)
        assert got_tc == pytest.approx(exact_tc, rel=1e-12)
        assert got_gt0 == pytest.approx(exact_gt0, rel=1e-12)

    def test_zero_field_zero_rabi(self):
        dark = BeamSpec(l=1, w0=self.beam.w0, E0=0.0, sigma=1)
        res = compute_scenario(StateSolver(HY), dark, 4, 0, 0.5, -0.5, CM0)
        assert res and all(r.rabi_kHz == 0.0 for r in res)

    def test_polarization_selector(self):
        # a channel built for the other polarization is closed under this beam
        ch = mk_channel(1, -1, 0, 0, 0, 0, 0, StateLabel(1, 1.5, -1.5))
        psi_f = self.solver.get(4, 1, 1.5)
        res = assemble(ch, self.beam, self.psi_i, psi_f, CM0)
        assert res.closed and res.matrix_element == 0

    def test_dipole_limit_audit_exact_for_degenerate_pair(self):
        # hydrogen 4S and 4P are degenerate -> k = 0 -> the audited constant
        # sits at exactly alpha * Gamma(alpha/2) times the true integral
        solver = StateSolver(HY)
        results = compute_scenario(solver, self.beam, 4, 0, 0.5, -0.5, CM0)
        for r in results:
            if resonant_k(solver, r, 4, 0, 0.5) == 0.0:
                al = r.channel.alpha
                want = al * math.gamma(al / 2.0)
                assert r.lambda_audit == pytest.approx(want, rel=1e-12)

    def test_audit_near_dipole_for_rubidium(self):
        solver = StateSolver(RB)
        beam = beam_for(1, 1)
        res = compute_scenario(solver, beam, 60, 0, 0.5, -0.5, CM0)
        pure = next(r for r in res if r.channel.group == "pure")
        # k r_char ~ 1e-4: the exact integral is 1/alpha to ~1e-8
        assert pure.lambda_audit == pytest.approx(math.sqrt(math.pi), rel=1e-6)
        assert resonant_k(solver, pure, 60, 0, 0.5) > 0


def resonant_k(solver, res, n, l_i, j_i, n_final=None):
    """The resonant k of a scenario's result, from the energies of the
    states its solver solved for it: |E_f - E_i| alpha_fs in atomic units."""
    nf = n if n_final is None else n_final
    grid_n = max(n, nf)
    fin = res.channel.final
    return abs(solver.get(nf, fin.l, fin.j, grid_n).energy
               - solver.get(n, l_i, j_i, grid_n).energy) * FINE_STRUCTURE


# ---------------------------------------------------- scenario + mirrors

class TestScenario:
    def test_channel_results_complete(self):
        solver = StateSolver(HY)
        res = compute_scenario(solver, beam_for(1, 1, q_max=1), 4, 0, 0.5,
                               -0.5, CM0)
        assert len(res) == 13
        assert all(r.channel.final.l < 4 for r in res)

    def test_states_view(self):
        # the solved states, live and read-only, without the private cache
        solver = StateSolver(HY)
        view = solver.states
        st = solver.get(4, 0, 0.5)
        assert list(view) == [st] and not hasattr(view, "__setitem__")
        solver.get(4, 0, 0.5)
        assert len(view) == 1

    def test_final_cm_built_once_per_projection(self, cold_caches):
        # the final CM state depends on the initial one and M_f alone, so
        # its process cache builds it once per M_f
        res = compute_scenario(StateSolver(HY), beam_for(1, 1, q_max=1), 4, 0,
                               0.5, -0.5, CM0)
        built = coupling._final_cm.cache_info().misses
        assert built == len({r.channel.M_f for r in res})
        assert len(res) > built

    def test_mirror_scenario_matches(self):
        # flipping beam OAM, polarization and both initial projections must
        # reproduce every channel magnitude; the mirror partner of tuple
        # (l1, l2, l3) lives at (l1, l3, l2) with its projections negated
        solver = StateSolver(HY)
        a = compute_scenario(solver, beam_for(1, 1, q_max=1), 4, 0, 0.5,
                             -0.5, CM0)
        b = compute_scenario(solver, beam_for(-1, -1, q_max=1), 4, 0, 0.5,
                             0.5, CM0)
        assert len(a) == len(b)
        bmap = {(r.channel.q, r.channel.l1, r.channel.l2, r.channel.l3,
                 r.channel.final.l, r.channel.final.j,
                 r.channel.final.m_j): r for r in b}
        for ra in a:
            ca = ra.channel
            rb = bmap[(ca.q, ca.l1, ca.l3, ca.l2, ca.final.l, ca.final.j,
                       -ca.final.m_j)]
            assert ca.M_f == -rb.channel.M_f
            assert abs(ra.matrix_element) == pytest.approx(
                abs(rb.matrix_element), rel=1e-10)

    def test_n_final_rewires_radial(self):
        solver = StateSolver(HY)
        same = compute_scenario(solver, beam_for(1, 1), 4, 0, 0.5, -0.5, CM0)
        up = compute_scenario(solver, beam_for(1, 1), 4, 0, 0.5, -0.5, CM0,
                              n_final=5)
        assert same[0].radial_e != pytest.approx(up[0].radial_e, rel=1e-3)
        assert all(resonant_k(solver, r, 4, 0, 0.5, n_final=5) > 0 for r in up)

    @pytest.mark.parametrize("n_p", (55, 73))
    def test_hydrogen_dipole_across_n(self, n_p):
        # <n'p|r|60s> of the pure-dipole channel against the same Simpson
        # integral of the closed-form Coulomb functions on the grid of
        # max(n', 60), the grid both states must share
        res = compute_scenario(StateSolver(HY), beam_for(1, 1), 60, 0, 0.5,
                               -0.5, CM0, n_final=n_p)
        pure = [r for r in res if r.channel.group == "pure"]
        assert len(pure) == 1 and pure[0].channel.alpha == 1
        grid = default_grid(max(n_p, 60))
        xi = grid.xi
        want = 2.0 * _simpson(_hydrogen_u(n_p, 1, xi * xi)
                              * _hydrogen_u(60, 0, xi * xi) * xi ** 3, grid.step)
        assert abs(pure[0].radial_e) == pytest.approx(abs(want), rel=1e-7)

    def test_finals_far_below_n_start_in_their_tail(self):
        # rb60's n = 20 finals start their solve inside the n = 60 grid,
        # where their own tail has died out (from its end they overflowed),
        # and at the end of the n = 40 grid: the two agree
        rt = rb60_variant(n_final=20)
        rt.scenario()
        finals = [st for st in rt.solver.states if st.n == 20]
        for st in finals:
            own = solve_radial(rt.species, 20, st.l, st.j, default_grid(40))
            assert (st.nodes, st.flags) == (own.nodes, own.flags)
            u, u_own = (s.chi * np.sqrt(s.grid.xi) for s in (st, own))
            assert np.abs(u[:u_own.size] - u_own).max() <= 1e-10 * np.abs(u).max()
        assert finals

    def test_unbound_finals_are_skipped(self):
        # at n=3 the l_f=3 channels have no bound final state
        solver = StateSolver(HY)
        res = compute_scenario(solver, beam_for(1, 1, q_max=1), 3, 0, 0.5,
                               -0.5, CM0)
        assert all(r.channel.final.l < 3 for r in res)


# ----------------------------------------------------------------- sweep

class TestSweep:
    def setup_method(self):
        self.solver = StateSolver(HY)
        self.template = beam_for(1, 1, q_max=1)

    def test_row_kinds_and_projection(self):
        rows = sweep_topological_charge([1], self.solver, self.template,
                                        4, 0, 0.5, -0.5, CM0)
        kinds = {r.kind for r in rows}
        assert kinds == {"channel", "group", "total", "aggregate"}
        direct = compute_scenario(self.solver, self.template, 4, 0, 0.5,
                                  -0.5, CM0)
        chan_rows = [r for r in rows if r.kind == "channel"]
        assert len(chan_rows) == len(direct)
        for row, res in zip(chan_rows, direct):
            assert row.rabi_kHz == res.rabi_kHz
            assert row.group == res.channel.group

    def test_group_rows_are_coherent_sums(self):
        rows = sweep_topological_charge([1], self.solver, self.template,
                                        4, 0, 0.5, -0.5, CM0)
        direct = compute_scenario(self.solver, self.template, 4, 0, 0.5,
                                  -0.5, CM0)
        for grow in (r for r in rows if r.kind == "group"):
            me = sum(res.matrix_element for res in direct
                     if res.channel.group == grow.group
                     and str(res.channel.final) == grow.final_state
                     and res.channel.M_f == grow.M_f)
            assert grow.rabi_kHz == pytest.approx(to_kHz(abs(me)), rel=1e-12)

    def test_total_rows_sum_groups_coherently(self):
        rows = sweep_topological_charge([1], self.solver, self.template,
                                        4, 0, 0.5, -0.5, CM0)
        direct = compute_scenario(self.solver, self.template, 4, 0, 0.5,
                                  -0.5, CM0)
        for trow in (r for r in rows if r.kind == "total"):
            me = sum(res.matrix_element for res in direct
                     if str(res.channel.final) == trow.final_state
                     and res.channel.M_f == trow.M_f)
            assert trow.rabi_kHz == pytest.approx(to_kHz(abs(me)), rel=1e-12)

    def test_aggregate_is_rss_of_totals(self):
        rows = sweep_topological_charge([1], self.solver, self.template,
                                        4, 0, 0.5, -0.5, CM0)
        totals = [r for r in rows if r.kind == "total"]
        for arow in (r for r in rows if r.kind == "aggregate"):
            rss = math.sqrt(sum(t.rabi_kHz ** 2 for t in totals
                                if t.final_state.startswith(arow.final_state)))
            assert arow.rabi_kHz == pytest.approx(rss, rel=1e-12)

    def test_aggregate_keeps_high_l_finals_apart(self):
        # finals with l_f >= 17 print as (l=17)35/2(+33/2): each (l_f, j_f)
        # is its own aggregate row, once merged into one nameless row
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # no defect series at l >= 6
            rows = sweep_topological_charge([1], self.solver, beam_for(1, 1),
                                            30, 17, 17.5, 0.5, CM0,
                                            final_l_f_max=20, j_policy="all")
        totals = [r for r in rows if r.kind == "total"]
        agg = {r.final_state: r.rabi_kHz for r in rows if r.kind == "aggregate"}
        assert {"(l=17)33/2", "(l=17)35/2", "(l=18)35/2", "(l=18)37/2"} <= set(agg)
        assert set(agg) == {t.final_state.rpartition("(")[0] for t in totals}
        for label, rabi in agg.items():
            rss = math.sqrt(sum(t.rabi_kHz ** 2 for t in totals
                                if t.final_state.rpartition("(")[0] == label))
            assert rabi == pytest.approx(rss, rel=1e-12)

    def test_multi_l_ordering(self):
        rows = sweep_topological_charge([0, 2], self.solver, self.template,
                                        4, 0, 0.5, -0.5, CM0)
        ls = [r.l for r in rows]
        assert ls == sorted(ls, key=lambda x: [0, 2].index(x))
        assert {r.l for r in rows} == {0, 2}

    def test_aggregate_overflow_is_inf(self):
        # |me| ** 2 of a finite |me| over 1e154 overflows: the aggregate row
        # reads inf, and every row before it stays finite
        bright = dataclasses.replace(self.template, E0=1e200)
        rows = sweep_topological_charge([1], self.solver, bright,
                                        4, 0, 0.5, -0.5, CM0)
        agg = {r.final_state: r.rabi_kHz for r in rows if r.kind == "aggregate"}
        assert agg["P3/2"] == math.inf
        assert all(math.isfinite(r.rabi_kHz) for r in rows
                   if r.kind != "aggregate")

    def test_empty_sweep_raises(self):
        with pytest.raises(ValueError):
            sweep_topological_charge([], self.solver, self.template,
                                     4, 0, 0.5, -0.5, CM0)


# --------------------------------------------------------- Rb 60S smoke

class TestRb60Smoke:
    def test_q0_channel_pair(self):
        solver = StateSolver(RB)
        res = compute_scenario(solver, beam_for(1, 1), 60, 0, 0.5, -0.5, CM0)
        assert [str(r.channel.final) for r in res] == ["P3/2(+1/2)",
                                                       "D5/2(+3/2)"]
        pure, tc = res
        assert pure.channel.M_f == 1 and tc.channel.M_f == 0
        # wiring against independently tested parts
        w_r = CM0.w_r
        psi_i = solver.get(60, 0, 0.5)
        psi_p = solver.get(60, 1, 1.5)
        want = (4.6672e-9 * g_coeff(1, 0, w_r, 51022.6) * math.sqrt(math.pi)
                * c_product(1, 0, 0, 0, 0, 0, 0, 0)
                * radial_matrix_element(psi_p, psi_i, 1, w_r)
                * cm_moment(CMState(1, 1, w_r), CM0, 1)   # beta = |l| = 1
                * (1.0 / (32.0 * math.pi ** 2.5))
                * (1.0 / math.sqrt(3.0)))
        assert abs(pure.matrix_element) == pytest.approx(abs(want), rel=1e-10)


# ------------------------------------------------------ factors of a sweep

RB60 = parse_config(Path(__file__).parent.parent / "configs" / "rb60.cfg")


def clear_process_caches():
    for fn in (coupling._angular_and_cg, coupling._open_finals,
               coupling._coeff, coupling._final_cm, coupling._cm_moment):
        fn.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty the per-process factor caches, so a test sees every miss."""
    clear_process_caches()


def rb60_sweep(l_values, q_max):
    """The rb60 sweep at j_policy=all, l_f <= 10 with a fresh state cache."""
    rt = rb60_variant(q_max=q_max, final_l_f_max=10, j_policy="all")
    cfg = rt.cfg
    return sweep_topological_charge(l_values, rt.solver, rt.beam, cfg.n,
                                    cfg.l_i, cfg.j_i, cfg.m_j, rt.cm_i,
                                    final_l_f_max=cfg.final_l_f_max,
                                    j_policy=cfg.j_policy)


class TestFactorTables:
    @pytest.mark.parametrize("l_values, q_max", [((1, 2, 3, 4), 2),
                                                 ((-2, 2), 1)])
    def test_sweep_equals_untabulated_assemble(self, monkeypatch, l_values,
                                               q_max):
        # every channel of a sweep, which shares its solver's factors, field
        # by field, against an assemble call that fills a memo of its own;
        # the second sweep shares them across both signs of the charge
        calls = []
        plain = coupling.assemble

        def recording(*args):
            res = plain(*args)
            calls.append((args, res))
            return res

        monkeypatch.setattr(coupling, "assemble", recording)
        rb60_sweep(l_values, q_max)
        assert len({id(args[5]) for args, _ in calls}) == 1   # one store
        assert {args[1].l for args, _ in calls} == set(l_values)
        for args, shared in calls:
            assert shared == plain(*args[:5])

    def test_each_factor_once_per_key(self, monkeypatch, cold_caches):
        # the benchmark's heavy sweep: 606 channels, 39 final (state, alpha)
        # pairs, 20 (M_f, beta) pairs, 105 angular keys (l_f stops at the
        # triangle bound l_i + 1 + l1 + l2 + l3), 220 coefficient keys
        # (l, q, l1, l2, l3)
        counts = dict.fromkeys(("assemble", "radial_matrix_element",
                                "cm_moment", "lambda_integral_oracle",
                                "g_coeff", "c_product"), 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in counts:
            monkeypatch.setattr(coupling, name,
                                counting(name, getattr(coupling, name)))
        rb60_sweep(tuple(range(1, 9)), q_max=1)
        assert counts == {"assemble": 606,
                          "radial_matrix_element": 39 + 1,   # + <i|r|i>
                          "cm_moment": 20,
                          "lambda_integral_oracle": 39,
                          "g_coeff": 220,
                          "c_product": 220}
        assert coupling._angular_and_cg.cache_info().misses == 105

    def test_angular_caches_key_by_scenario(self):
        # each scenario alone on cold caches, and again after the ones before
        # it filled them: every field equal.  Beside rb60 they differ from it
        # in one input each of the coefficient (waist, trap width, mass
        # ratio), the CM moment (trap level) or the angular factors: D5/2
        # (whose l_f parity and m_jf meet rb60's keys), P3/2 then P1/2 (which
        # meet each other's keys but for j_i) initial states, the other m_j,
        # both j and l_f <= 10.  Then no process cache keeps a solved state
        # (or its grid arrays) alive once the runtimes are gone
        variants = ({}, {"waist_um": 5.0}, {"w_r_um": 3.1},
                    {"mass_ratio": 0.9}, {"N": 2, "M": 0},
                    {"l_i": 2, "j_i": 2.5}, {"l_i": 1, "j_i": 1.5},
                    {"l_i": 1, "j_i": 0.5}, {"m_j": 0.5},
                    {"j_policy": "all"}, {"final_l_f_max": 10})
        runtimes, cold = [], []
        for changes in variants:
            clear_process_caches()
            runtimes.append(rb60_variant(**changes))
            cold.append(runtimes[-1].scenario())
        clear_process_caches()
        for changes, want in zip(variants, cold):
            runtimes.append(rb60_variant(**changes))
            warm = runtimes[-1].scenario()
            assert warm == want, changes
        states = [weakref.ref(st) for rt in runtimes for st in rt.solver.states]
        del runtimes, cold, want, warm
        gc.collect()
        assert states and all(ref() is None for ref in states)

    def test_one_solver_across_waists_and_traps(self, cold_caches):
        # rb60 at two waists, two trap widths and from D5/2 (whose finals
        # meet rb60's at the same alpha), in turn through one solver whose
        # factors they share, against each on a fresh solver and cold
        # caches: every field equal
        variants = ({}, {"waist_um": 5.0}, {"w_r_um": 3.1},
                    {"waist_um": 5.0, "w_r_um": 3.1}, {"l_i": 2, "j_i": 2.5})
        shared, got = rb60_variant().solver, []
        for changes in variants:
            rt = rb60_variant(**changes)
            cfg = rt.cfg
            got.append(compute_scenario(shared, rt.beam, cfg.n, cfg.l_i,
                                        cfg.j_i, cfg.m_j, rt.cm_i,
                                        final_l_f_max=cfg.final_l_f_max,
                                        j_policy=cfg.j_policy))
        for changes, res in zip(variants, got):
            clear_process_caches()
            want = rb60_variant(**changes).scenario()
            assert res == want, changes


class TestCacheBounds:
    def test_width_scan_keeps_caches_bounded(self, cold_caches):
        # the caches keyed by beam and trap widths stay within their bounds
        # over an rb60 sweep at 100 (waist, trap width) pairs in one
        # process, though the scan makes more keys than each bound holds
        rt = rb60_variant()
        cfg = rt.cfg
        for i in range(100):
            beam = dataclasses.replace(rt.beam, w0=um_to_au(2.0 + 0.01 * i))
            cm_i = CMState(cfg.N, cfg.M, um_to_au(2.2 + 0.01 * i))
            sweep_topological_charge(cfg.sweep_l, rt.solver, beam, cfg.n,
                                     cfg.l_i, cfg.j_i, cfg.m_j, cm_i,
                                     **rt.scenario_kwargs)
        caches = (coupling._coeff, coupling._final_cm, coupling._cm_moment)
        for fn in caches:
            info = fn.cache_info()
            assert info.misses > info.maxsize >= info.currsize, fn
        clear_process_caches()
        assert all(fn.cache_info().currsize == 0 for fn in caches)


# ------------------------------------------ rb60 away from m_j = -1/2, N = 0

def rb60_variant(**changes):
    """The `Runtime` of rb60 with `changes`: the config, a fresh solver, the
    beam and the initial CM state, as the CLI builds them."""
    return Runtime(dataclasses.replace(RB60, **changes).validate())


def record_row(record) -> str:
    """One record as a row: its fields in order, a nested record's fields in
    its place, and every real as repr(float(v)), which round-trips bit for
    bit and reads the same under any numpy."""
    if dataclasses.is_dataclass(record):
        record = dataclasses.astuple(record)
    return ",".join(
        record_row(v) if isinstance(v, tuple) or dataclasses.is_dataclass(v)
        else str(v) if isinstance(v, (str, int)) or v is None
        else repr(float(v)) for v in record)


def golden_rows(records) -> str:
    return "".join(record_row(r) + "\n" for r in records)


def variant_name(changes) -> str:
    return "_".join(f"{k}={v}" for k, v in changes.items())


VARIANTS = ({"m_j": 0.5}, {"N": 2, "M": 0}, {"N": 3, "M": -1},
            {"j_policy": "all"}, {"n_final": 61}, {"n_final": 20})


def sweep_rows_at_excited_trap_level():
    rt = rb60_variant(N=2, M=0)
    cfg = rt.cfg
    return sweep_topological_charge(cfg.sweep_l, rt.solver, rt.beam, cfg.n,
                                    cfg.l_i, cfg.j_i, cfg.m_j, rt.cm_i,
                                    **rt.scenario_kwargs)


def variant_outputs() -> str:
    """The text of the seven variant pins, one after another."""
    return "".join([*(golden_rows(rb60_variant(**changes).scenario())
                      for changes in VARIANTS),
                    golden_rows(sweep_rows_at_excited_trap_level())])


def variant_outputs_in_process(**env_changes) -> str:
    """`variant_outputs()` of a fresh process with `env_changes` set."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env_changes)
    out = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", "import sys, test_coupling; "
         "sys.stdout.write(test_coupling.variant_outputs())"],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestPinnedVariants:
    # every ChannelResult field, bit for bit, where rb60's own pins do not
    # reach: the other initial projection, excited trap levels, both j and
    # other final n; and the sweep rows, N_f included, at trap N = 2
    @pytest.mark.parametrize("changes", VARIANTS, ids=variant_name)
    def test_scenario_fields(self, tmp_path, changes):
        res = rb60_variant(**changes).scenario()
        assert_golden(tmp_path, {
            f"variants/{variant_name(changes)}.csv": golden_rows(res)})

    @pytest.mark.parametrize("changes", [{}, {"j_policy": "all"}],
                             ids=["rb60", "j_policy=all"])
    def test_matrix_element_is_real(self, changes):
        # at p = 0 every factor is real: each matrix element, and each
        # radial one under it, is a Python float, and the Rabi frequency is
        # read off that float alone
        rt = rb60_variant(**changes)
        res = rt.scenario()
        assert res
        for r in res:
            assert type(r.matrix_element) is float
            assert r.rabi_kHz == to_kHz(abs(r.matrix_element))
            assert type(r.radial_e) is float
        psi_i = rt.solver.get(rt.cfg.n, rt.cfg.l_i, rt.cfg.j_i)
        r_ii = radial_matrix_element(psi_i, psi_i, 1, rt.cm_i.w_r)
        assert type(r_ii) is float

    def test_sweep_rows_at_excited_trap_level(self, tmp_path):
        rows = sweep_rows_at_excited_trap_level()
        assert {r.N_f for r in rows} >= {2, 3}
        assert_golden(tmp_path, {"variants/sweep_N=2_M=0.csv": golden_rows(rows)})

    def test_same_bytes_without_avx512(self):
        # the seven variant pins hold full precision, so each exponential
        # and power under them is libm's or IEEE multiplication, never
        # numpy's vector exp or power, whose last bits follow the host's
        # SIMD: a process with numpy's AVX-512 loops switched off writes
        # the same bytes as this one
        assert variant_outputs_in_process(
            NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4") \
            == variant_outputs()

    def test_same_bytes_on_another_blas_kernel(self):
        # no sum under the pins goes through BLAS, whose dot product sums
        # in an order that follows the CPU kernel OpenBLAS dispatches to: a
        # process on OpenBLAS's Prescott kernels writes the same bytes
        assert variant_outputs_in_process(OPENBLAS_CORETYPE="Prescott") \
            == variant_outputs()
