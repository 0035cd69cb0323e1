"""Acceptance gate: nine checks against the published reference scenario.

One class per check, in the order of the project acceptance list.  Where
this build disagrees with a published number, the test is left red on
purpose with the measured value and the bridging analysis in the failure
message; docs/AUDIT.md carries the full quantitative audit.  Do not "fix"
those tests by loosening tolerances -- the disagreements are convention
findings, not bugs, and the numbers in them are pinned by green anchors
elsewhere in this file.

Reference scenario: Rb 60 S_{1/2,-1/2}, w0 = 2.7 um, w_r = 2.2 um,
E0 = 2400 V/m, sigma = +1, l = 1, envelope order q <= 1, ground trap mode.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from lgryd.atom import load_species
from lgryd.beam import BeamSpec
from lgryd.cm import CMState, cm_moment
from lgryd.coupling import (StateLabel, StateSolver, compute_scenario,
                            enumerate_channels, sweep_topological_charge)
from lgryd.specfun import clebsch_gordan
from lgryd.units import field_vpm_to_au, um_to_au
from lgryd import verify
from _oracles import cm_moment_series

AUDIT = Path(__file__).parent.parent / "docs" / "AUDIT.md"

W0 = um_to_au(2.7)
W_R = um_to_au(2.2)
E0 = field_vpm_to_au(2400.0)
TIMINGS = {}


def beam(l=1, sigma=1, q_max=1):
    return BeamSpec(l=l, w0=W0, E0=E0, sigma=sigma, q_max=q_max,
                    mass_ratio=1.0)


@pytest.fixture(scope="module")
def rb_solver():
    return StateSolver(load_species("rb"))


@pytest.fixture(scope="module")
def cm0():
    return CMState(0, 0, W_R)


def scenario_map(solver, cm_i, l=1, sigma=1, m_ji=-0.5, **kw):
    """(q, l1, l2, l3, final label) -> ChannelResult."""
    res = compute_scenario(solver, beam(l, sigma), 60, 0, 0.5, m_ji, cm_i,
                           **kw)
    return {(r.channel.q, r.channel.l1, r.channel.l2, r.channel.l3,
             str(r.channel.final)): r for r in res}


@pytest.fixture(scope="module")
def rb60(rb_solver, cm0):
    t0 = time.perf_counter()
    m = scenario_map(rb_solver, cm0)
    TIMINGS["rb60"] = time.perf_counter() - t0
    return m


class TestA1ChannelInventory:
    """q=0 channel tables for all four (l, sigma) sign combinations."""

    def combos(self, cm0):
        psi = StateLabel(0, 0.5, -0.5)
        out = {}
        for l in (1, -1):
            for sigma in (1, -1):
                chans = enumerate_channels(beam(l, sigma, q_max=0), psi, cm0)
                out[(l, sigma)] = [(str(c.final), c.M_f) for c in chans]
        return out

    def test_sign_consistent_rows(self, cm0):
        t0 = time.perf_counter()
        got = self.combos(cm0)
        assert got[(1, 1)] == [("P3/2(+1/2)", 1), ("D5/2(+3/2)", 0)]
        assert got[(1, -1)][1] == ("D5/2(-1/2)", 0)
        assert got[(-1, 1)][1] == ("D5/2(-1/2)", 0)
        assert got[(-1, -1)] == [("P3/2(-3/2)", -1), ("D5/2(-5/2)", 0)]
        assert time.perf_counter() - t0 < 1.0

    def test_flagged_rows_follow_the_deltas(self, cm0):
        # the published variants of these two rows (D letter, opposite M_f)
        # break m_jf - m_ji + M_f - M_i = l + sigma; emitted per the deltas
        got = self.combos(cm0)
        assert got[(1, -1)][0] == ("P3/2(-3/2)", 1)
        assert got[(-1, 1)][0] == ("P3/2(+1/2)", -1)
        published = {(1, -1): ("D5/2(-3/2)", -1), (-1, 1): ("D5/2(+1/2)", 1)}
        for combo, row in published.items():
            assert row not in got[combo]

    def test_discrepancy_is_documented(self):
        text = AUDIT.read_text()
        assert "Rows 3 and 5" in text and "conservation identity" in text


class TestA2ReferenceMagnitudes:
    """Published 607 / 1.01 / 1.01 / 0.59 kHz rows and their ratios."""

    def test_internal_anchors(self, rb60):
        # pins this build's own values so the red comparisons below stay
        # attributable: if an anchor moves, the physics moved
        assert rb60[(0, 0, 0, 0, "P3/2(+1/2)")].rabi_kHz == \
            pytest.approx(990501999.136, rel=1e-6)
        assert rb60[(0, 1, 0, 0, "D5/2(+3/2)")].rabi_kHz == \
            pytest.approx(5448773.4297, rel=1e-6)
        for key in ((1, 1, 0, 0, "D5/2(+3/2)"), (1, 0, 1, 0, "D5/2(+3/2)"),
                    (1, 0, 0, 1, "D5/2(-1/2)")):
            assert rb60[key].rabi_kHz == pytest.approx(2411711.3306, rel=1e-6)
        assert TIMINGS["rb60"] < 60.0

    def test_tc_gt_ratio_at_shared_envelope_order(self, rb60):
        # the published 1.01/1.01 pair; both rows carry identical envelope
        # coefficient, radial factors and angular magnitude here, so the
        # ratio is 1 exactly, not merely within 5%
        tc = rb60[(1, 1, 0, 0, "D5/2(+3/2)")].rabi_kHz
        gt = rb60[(1, 0, 1, 0, "D5/2(+3/2)")].rabi_kHz
        assert tc / gt == pytest.approx(1.00, rel=0.05)
        assert tc / gt == pytest.approx(1.0, rel=1e-12)
        # and the q=0 TC row cannot be the published numerator: its ratio to
        # the GT row is (3/2)(w0/w_r)^2 by construction
        tc0 = rb60[(0, 1, 0, 0, "D5/2(+3/2)")].rabi_kHz
        assert tc0 / gt == pytest.approx(1.5 * (W0 / W_R) ** 2, rel=1e-9)

    def test_dmj0_suppression_ratio(self, rb60):
        dm0 = rb60[(1, 0, 0, 1, "D5/2(-1/2)")].rabi_kHz
        tc = rb60[(1, 1, 0, 0, "D5/2(+3/2)")].rabi_kHz
        ratio = dm0 / tc
        spinless = 1.0 / math.sqrt(3.0)
        assert ratio == pytest.approx(0.584, rel=0.05), (
            f"published 0.59/1.01 = 0.584; this build gives {ratio:.4f} at "
            f"shared q=1 (the rows are exactly equal once spin-projection "
            f"weights are included) and {spinless:.4f} = 1/sqrt(3) without "
            f"the weights (1.2% from 0.584, the closest bridge found) -- "
            f"see docs/AUDIT.md")

    def test_absolute_magnitudes(self, rb60):
        got = {
            "pure q=0": (rb60[(0, 0, 0, 0, "P3/2(+1/2)")].rabi_kHz, 607.0),
            "via TC q=0": (rb60[(0, 1, 0, 0, "D5/2(+3/2)")].rabi_kHz, 1.01),
            "via TC q=1": (rb60[(1, 1, 0, 0, "D5/2(+3/2)")].rabi_kHz, 1.01),
            "via GT": (rb60[(1, 0, 1, 0, "D5/2(+3/2)")].rabi_kHz, 1.01),
            "dm_j=0 D": (rb60[(1, 0, 0, 1, "D5/2(-1/2)")].rabi_kHz, 0.59),
        }
        gaps = {k: v / ref for k, (v, ref) in got.items()}
        for key, (value, ref) in got.items():
            assert value == pytest.approx(ref, rel=0.25), (
                f"{key}: measured {value:.6g} kHz vs published {ref} kHz "
                f"(factor {value / ref:.3g}).  The factor is group-dependent "
                f"({ {k: float(f'{g:.3g}') for k, g in gaps.items()} }), so "
                f"no single convention rescale reconciles the table -- see "
                f"docs/AUDIT.md")

    def test_lambda_audit_reported(self, rb60):
        # the documented envelope-integral convention, per row
        for r in rb60.values():
            alpha = r.channel.alpha
            assert r.lambda_audit == pytest.approx(
                alpha * math.gamma(alpha / 2.0), rel=1e-5)


@pytest.fixture(scope="module")
def rows(rb_solver, cm0):
    t0 = time.perf_counter()
    a = scenario_map(rb_solver, cm0, l=-1, sigma=1, m_ji=-0.5)[
        (1, 0, 1, 0, "D5/2(+3/2)")]
    b_listed = scenario_map(rb_solver, cm0, l=1, sigma=-1, m_ji=-0.5)[
        (1, 0, 0, 1, "D5/2(-5/2)")]
    b_mirror = scenario_map(rb_solver, cm0, l=1, sigma=-1, m_ji=0.5)[
        (1, 0, 0, 1, "D5/2(-3/2)")]
    TIMINGS["mirror"] = time.perf_counter() - t0
    return a, b_listed, b_mirror


class TestA3MirrorPair:
    """Two published opposite-helicity channels with equal magnitude."""

    def test_first_row_labels(self, rows):
        a, _, _ = rows
        assert (str(a.channel.final), a.channel.M_f) == ("D5/2(+3/2)", -2)

    def test_listed_pair_magnitudes(self, rows):
        a, b_listed, _ = rows
        ma, mb = abs(a.matrix_element), abs(b_listed.matrix_element)
        assert ma == pytest.approx(5.183645466015e-7, rel=1e-6)
        assert mb == pytest.approx(1.159098363327e-6, rel=1e-6)
        assert ma == pytest.approx(mb, rel=1e-10), (
            f"as listed (both rows from m_j = -1/2) the magnitudes differ "
            f"by exactly 1/sqrt(5): {ma:.6e} vs {mb:.6e} a.u.; the published "
            f"pair is mirror-symmetric only if the second row's initial "
            f"spin is flipped too (next test) -- see docs/AUDIT.md")

    def test_exact_mirror_partner(self, rows):
        # flipping m_ji as well lands the published final label D5/2(-3/2),
        # M_f=+2, and the magnitudes agree at machine precision
        a, _, b_mirror = rows
        assert (str(b_mirror.channel.final), b_mirror.channel.M_f) == \
            ("D5/2(-3/2)", 2)
        assert abs(b_mirror.matrix_element) == \
            pytest.approx(abs(a.matrix_element), rel=1e-10)
        assert TIMINGS["mirror"] < 60.0

    def test_pair_vs_gt_magnitude(self, rows, rb60):
        a, b_listed, _ = rows
        gt = rb60[(1, 0, 1, 0, "D5/2(+3/2)")].rabi_kHz
        for tag, r in (("first row", a), ("second row", b_listed)):
            assert r.rabi_kHz == pytest.approx(gt, rel=0.05), (
                f"published: both mirror rows equal the 1.01 kHz GT row; "
                f"{tag} here is {r.rabi_kHz:.1f} kHz = "
                f"{r.rabi_kHz / gt:.4f} x GT ({gt:.1f} kHz); the offsets are "
                f"sqrt(2) and sqrt(10), fixed by spin-projection weights -- "
                f"see docs/AUDIT.md")


@pytest.fixture(scope="module")
def series(rb_solver, cm0):
    t0 = time.perf_counter()
    swept = sweep_topological_charge((1, 2, 3, 4), rb_solver, beam(), 60,
                                     0, 0.5, -0.5, cm0, final_l_f_max=5)
    TIMINGS["sweep"] = time.perf_counter() - t0
    by = {}
    for r in swept:
        if r.kind == "group":
            by.setdefault((r.group, r.final_state), []).append(r.rabi_kHz)
        elif r.kind == "total":
            by.setdefault(("total", r.final_state), []).append(r.rabi_kHz)
    return by


class TestA4ChargeSweepTrends:
    """l = 1..4 sweep: published trend statements, not curve values."""

    def test_s_to_p_strictly_increasing(self, series):
        pure = [v for k, vals in series.items() if k[0] == "pure"
                for v in vals]
        assert len(pure) == 4
        assert pure[0] == pytest.approx(1867324985.0, rel=1e-6)
        assert all(a < b for a, b in zip(pure, pure[1:]))

    def test_via_tc_strictly_decreasing(self, series):
        # the TC-fed channel climbs the l_f ladder with l: D, F, G, H
        tc = [v for k in [("via_tc", f) for f in
                          ("D5/2(+3/2)", "F7/2(+5/2)", "G9/2(+7/2)",
                           "H11/2(+9/2)")] for v in series[k]]
        assert tc[0] == pytest.approx(7860484.76, rel=1e-6)
        assert all(a > b for a, b in zip(tc, tc[1:]))

    def test_via_gt_strictly_increasing(self, series):
        gt = series[("via_gt", "D5/2(+3/2)")]
        assert len(gt) == 4
        assert gt[0] == pytest.approx(2411711.3306, rel=1e-6)
        assert all(a < b for a, b in zip(gt, gt[1:]))

    def test_total_d_roughly_constant(self, series):
        tot = series[("total", "D5/2(+3/2)")]
        assert len(tot) == 4
        assert tot[0] == pytest.approx(10336032.56, rel=1e-6)
        variation = (max(tot) - min(tot)) / max(tot)
        assert variation == pytest.approx(0.434, abs=0.01)
        assert variation <= 0.5
        assert TIMINGS["sweep"] < 300.0


class TestA5RadialOracle:
    def test_coulomb_solver_against_closed_forms(self):
        t0 = time.perf_counter()
        rep = verify.suite_hydrogen_oracle()
        assert rep.passed, rep.render()
        assert time.perf_counter() - t0 < 10.0


class TestA6BeamExpansion:
    def test_truncated_expansion_and_translation(self):
        t0 = time.perf_counter()
        # 5 l-values x 20 probes = 100 points, disc rho <= 0.5 w0
        rep = verify.suite_expansion_identity(n_probes=20, rho_frac=0.5)
        assert rep.passed, rep.render()
        rep2 = verify.suite_addition_theorem()
        assert rep2.passed, rep2.render()
        assert time.perf_counter() - t0 < 10.0


class TestA7AngularAlgebra:
    def test_gaunt_vs_quadrature_200_sets(self):
        t0 = time.perf_counter()
        rep = verify.suite_gaunt_quadrature(n_sets=200)
        assert rep.passed, rep.render()
        assert time.perf_counter() - t0 < 30.0

    def test_cg_orthogonality(self):
        js = [0.5, 1.0, 1.5, 2.0]
        worst = 0.0
        for j1 in js:
            for j2 in js:
                Js = np.arange(abs(j1 - j2), j1 + j2 + 0.1)
                for J in Js:
                    for Jp in Js:
                        for M in np.arange(-min(J, Jp), min(J, Jp) + 0.1):
                            s = sum(clebsch_gordan(j1, j2, m1, M - m1, J, M)
                                    * clebsch_gordan(j1, j2, m1, M - m1,
                                                     Jp, M)
                                    for m1 in np.arange(-j1, j1 + 0.1))
                            want = 1.0 if J == Jp else 0.0
                            worst = max(worst, abs(s - want))
        assert worst < 1e-12


class TestA8TrapOscillator:
    def test_orthonormality_and_moments(self):
        t0 = time.perf_counter()
        rep = verify.suite_cm_orthonormality()
        assert rep.passed, rep.render()
        worst = 0.0
        for Ni in range(5):
            for Mi in range(-Ni, Ni + 1, 2):
                for Nf in range(5):
                    for Mf in range(-Nf, Nf + 1, 2):
                        for power in range(4):
                            got = cm_moment(CMState(Nf, Mf, 1.0),
                                            CMState(Ni, Mi, 1.0), power)
                            ref = cm_moment_series(Nf, Mf, Ni, Mi, power)
                            worst = max(worst, abs(got - ref))
        assert worst < 1e-10
        assert time.perf_counter() - t0 < 5.0


class TestA9Conservation:
    def test_identity_across_randomized_configs(self, rb_solver, cm0):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(40):
            l = int(rng.integers(-3, 4))
            sigma = int(rng.integers(-1, 2))
            q_max = int(rng.integers(0, 3))
            l_i = int(rng.integers(0, 2))
            j_i = l_i + 0.5
            m_ji = float(rng.choice(np.arange(-j_i, j_i + 0.1)))
            N_i = int(rng.integers(0, 3))
            M_i = int(rng.choice(np.arange(-N_i, N_i + 0.1, 2.0))) \
                if N_i else 0
            psi = StateLabel(l_i, j_i, m_ji)
            cm_i = CMState(N_i, M_i, W_R)
            bm = BeamSpec(l=l, w0=W0, E0=E0, sigma=sigma, q_max=q_max,
                          mass_ratio=0.9)
            for ch in enumerate_channels(bm, psi, cm_i, final_l_f_max=4,
                                         j_policy="all"):
                lhs = (ch.final.m_j - m_ji) + (ch.M_f - M_i)
                assert lhs == l + sigma, (ch, lhs)
                checked += 1
        assert checked > 500
        assert time.perf_counter() - t0 < 30.0
