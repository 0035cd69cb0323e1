"""Radial-structure tests: species data, potential, Numerov solver, moments.

The hydrogen species file reduces the model potential to pure Coulomb, so
every solver path can be held against closed-form wavefunctions.  Radial
functions are compared in their tabulated form u = r R(r); dividing by r
would only amplify the boundary admixture of the irregular solution that
inward integration cannot avoid (checked separately away from the cutoff).
"""

import dataclasses
import math
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from lgryd import atom, verify
from lgryd.atom import (XI_STEP, RadialGrid, RydbergState, SpeciesParams,
                        default_grid, load_species, model_potential,
                        qd_energy, radial_matrix_element, solve_radial)
from lgryd.cli import Runtime
from lgryd.config import parse_config
from lgryd.coupling import sweep_topological_charge
from lgryd.units import FINE_STRUCTURE
from _oracles import hydrogen_expectation_r, hydrogen_radial


@pytest.fixture(scope="module")
def hyd():
    return load_species("hydrogen")


@pytest.fixture(scope="module")
def rb():
    return load_species("rb")


@pytest.fixture(scope="module")
def hyd_states(hyd):
    return {(n, l): solve_radial(hyd, n, l, l + 0.5)
            for n in range(1, 6) for l in range(n)}


class TestSpeciesFile:
    def test_rb_header_values(self, rb):
        assert rb.Z == 37
        assert rb.alpha_c == pytest.approx(9.0760)
        assert rb.potential_for(0)[4] == pytest.approx(1.66242117)
        # l beyond the table reuses the last block
        assert rb.potential_for(7) == rb.potential_for(3)
        assert rb.defect_series(0, 0.5) == (3.1311804, 0.1784)
        assert rb.defect_series(2, 2.5) == (1.34646572, -0.59600)

    def test_missing_species(self):
        with pytest.raises(FileNotFoundError):
            load_species("unobtainium")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "x.species"
        bad.write_text("[atom]\nZ = 1\nstray garbage\n")
        with pytest.raises(ValueError):
            SpeciesParams.from_file(bad)

    def test_parsed_once_per_content(self, tmp_path):
        # an unchanged file is not parsed again; an edited one is, and a
        # malformed one raises on every read
        path = tmp_path / "z.species"
        text = "[atom]\nZ = 1\nalpha_c = 0\n[potential l=0]\n" \
               "a1 = 0\na2 = 0\na3 = 0\na4 = 0\nrc = 1\n"
        path.write_text(text)
        first = SpeciesParams.from_file(path)
        assert load_species(str(path)) is first and first.name == "z"
        path.write_text(text.replace("alpha_c = 0", "alpha_c = 2"))
        assert SpeciesParams.from_file(path).alpha_c == 2.0
        path.write_text(text + "stray garbage\n")
        for _ in range(2):
            with pytest.raises(ValueError, match="stray line"):
                SpeciesParams.from_file(path)

    def test_incomplete_potential_block(self, tmp_path):
        bad = tmp_path / "y.species"
        bad.write_text("[atom]\nname = X\nZ = 1\nmass_amu = 1\nalpha_c = 0\n"
                       "[potential l=0]\na1 = 0\n")
        with pytest.raises(ValueError):
            SpeciesParams.from_file(bad)


class TestModelPotential:
    def test_asymptote(self, rb):
        r = 1.0e3
        assert model_potential(rb, 0, 0.5, r) == pytest.approx(-1.0 / r, rel=1e-6)

    def test_hydrogen_reduction(self, hyd):
        for r in (0.01, 0.5, 3.0, 40.0):
            assert model_potential(hyd, 0, 0.5, r) == pytest.approx(-1.0 / r, rel=1e-14)
            # so_scale = 0 in the file keeps every l Coulomb-pure
            assert model_potential(hyd, 2, 1.5, r) == pytest.approx(-1.0 / r, rel=1e-14)

    def test_unscreened_core(self, rb):
        r = 1e-4
        assert model_potential(rb, 0, 0.5, r) * r == pytest.approx(-rb.Z, rel=1e-2)

    def test_domain_error(self, rb):
        with pytest.raises(ValueError):
            model_potential(rb, 0, 0.5, 0.0)
        with pytest.raises(ValueError):
            model_potential(rb, 0, 0.5, -1.0)

    def test_spin_orbit_splitting_sign(self, rb):
        # j = l + 1/2 lies above j = l - 1/2 at fixed r
        r = 2.0
        assert model_potential(rb, 1, 1.5, r) > model_potential(rb, 1, 0.5, r)


class TestQdEnergy:
    def test_hydrogenic(self, hyd):
        for n in (1, 2, 10, 60):
            assert qd_energy(hyd, n, 0, 0.5) == pytest.approx(-0.5 / n**2, rel=1e-13)

    def test_rb_60s_frozen(self, rb):
        # Rydberg-Ritz by hand: delta = 3.1311804 + 0.1784/(60-3.1311804)^2
        delta = 3.1311804 + 0.1784 / (60 - 3.1311804) ** 2
        expect = -0.5 / (60 - delta) ** 2
        got = qd_energy(rb, 60, 0, 0.5)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(-1.5460460e-4, rel=1e-6)

    def test_series_limit(self, rb):
        es = [qd_energy(rb, n, 0, 0.5) for n in (20, 40, 80, 160)]
        assert all(e < 0 for e in es)
        assert es == sorted(es)

    def test_missing_series_warns(self, rb):
        with pytest.warns(UserWarning, match="no defect series"):
            e = qd_energy(rb, 20, 9, 9.5)
        assert e == pytest.approx(-0.5 / 400.0)

    def test_n_le_l_rejected(self, rb):
        with pytest.raises(ValueError):
            qd_energy(rb, 2, 2, 2.5)


class TestSolveRadialHydrogen:
    def test_ground_state_shape(self, hyd_states):
        st = hyd_states[(1, 0)]
        xi = st.grid.xi
        u = st.chi * np.sqrt(xi)
        uref = (xi * xi) * hydrogen_radial(1, 0, xi * xi)
        if u[np.argmax(np.abs(u))] < 0:
            u = -u
        assert np.max(np.abs(u - uref)) < 1e-6

    @pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 6) for l in range(n)])
    def test_oracle_all_states(self, hyd_states, n, l):
        st = hyd_states[(n, l)]
        xi = st.grid.xi
        r = xi * xi
        u = st.chi * np.sqrt(xi)
        uref = r * hydrogen_radial(n, l, r)
        ipk = int(np.argmax(np.abs(u)))
        if u[ipk] * uref[ipk] < 0:
            u = -u
        assert np.max(np.abs(u - uref)) < 1e-6
        assert st.nodes == n - l - 1
        # R(r) itself, clear of the inner region where 1/r inflates the
        # (documented) core truncation of high-l states; u covers r < 1
        sel = r > 1.0
        assert np.max(np.abs(u[sel] / r[sel] - uref[sel] / r[sel])) < 1e-6

    def test_norm(self, hyd_states):
        from scipy.integrate import simpson
        st = hyd_states[(3, 1)]
        xi = st.grid.xi
        assert 2.0 * simpson(st.chi**2 * xi**2, x=xi) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality_same_l(self, hyd, hyd_states):
        g = default_grid(5)
        for na, nb in [(3, 4), (2, 5), (4, 5)]:
            a = solve_radial(hyd, na, 0, 0.5, grid=g)
            b = solve_radial(hyd, nb, 0, 0.5, grid=g)
            xi = g.xi
            from scipy.integrate import simpson
            ov = 2.0 * simpson(a.chi * b.chi * xi**2, x=xi)
            assert abs(ov) < 1e-4

    def test_inconsistent_energy_flagged(self, hyd):
        # far from any eigenvalue: node structure cannot match
        st = solve_radial(hyd, 2, 0, 0.5, energy=-0.5 / 2.45**2)
        assert st.flags


class TestSolveRadialRb:
    def test_60s_nodes_and_norm(self, rb):
        from scipy.integrate import simpson
        st = solve_radial(rb, 60, 0, 0.5)
        assert st.nodes == 59
        assert not st.flags
        xi = st.grid.xi
        assert 2.0 * simpson(st.chi**2 * xi**2, x=xi) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("l,j", [(1, 1.5), (2, 2.5), (3, 3.5)])
    def test_node_theorem_other_l(self, rb, l, j):
        st = solve_radial(rb, 60, l, j)
        assert st.nodes == 59 - l
        assert "node-count" not in st.flags

    def test_core_truncation_flagged_not_hidden(self, rb):
        # quantum-defect energies are not model-potential eigenvalues; the
        # inner blow-up for high l must be cut and reported
        st = solve_radial(rb, 60, 2, 2.5)
        assert "divergent-core" in st.flags


_INNER_BRANCH = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="at l >= 5 the spurious inner branch survives the blanking passes "
           "(docs/AUDIT.md, 'Radial states at l >= 5'); strict, so the fix "
           "has to drop this mark")


class TestEveryL:
    """Every l <= n - 1 at the n the pipeline solves at: hydrogen against the
    closed form, Rb by its node count and a finite chi."""

    @_INNER_BRANCH
    @pytest.mark.parametrize("n", (30, 60, 90))
    def test_hydrogen_against_closed_form(self, hyd, n):
        grid = default_grid(n)
        xi = grid.xi
        bad = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # hydrogen has no series past l = 5
            for l in range(n):
                st = solve_radial(hyd, n, l, l + 0.5, grid=grid)
                u_ref = verify._hydrogen_u(n, l, grid.r)
                # <u|u_ref> = 2 int chi u_ref xi^(3/2) dxi
                overlap = 2.0 * atom._simpson(st.chi * u_ref * xi * np.sqrt(xi),
                                              grid.step)
                if st.nodes != n - l - 1 or not 1.0 - abs(overlap) <= 1e-8:
                    bad.append((l, st.nodes, overlap))
        assert not bad, f"{len(bad)} of {n} states wrong, first (l, nodes, " \
                        f"overlap): {bad[:3]}"

    @_INNER_BRANCH
    @pytest.mark.parametrize("n", (60, 90))
    def test_rb_nodes_and_finite(self, rb, n):
        grid = default_grid(n)
        bad = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # Rb l >= 4 has no defect series
            for l in range(n):
                for j in (l - 0.5, l + 0.5):
                    if j > 0:
                        st = solve_radial(rb, n, l, j, grid=grid)
                        if st.nodes != n - l - 1 or not np.isfinite(st.chi).all():
                            bad.append((l, j, st.nodes))
        assert not bad, f"{len(bad)} of {2 * n - 1} states wrong, first " \
                        f"(l, j, nodes): {bad[:3]}"


class TestRydbergState:
    def test_validation(self, hyd_states):
        st = hyd_states[(2, 1)]
        with pytest.raises(ValueError):
            RydbergState(2, 2, 2.5, -0.1, st.grid, st.chi.copy(), 0)
        with pytest.raises(ValueError):
            RydbergState(2, 1, 0.4, -0.1, st.grid, st.chi.copy(), 0)
        # the compiled matrix element reads chi by address: one float64 a
        # node, in index order
        for chi in (st.chi[:-1].copy(), st.chi.astype(np.float32),
                    st.chi[::-1]):
            with pytest.raises(ValueError):
                RydbergState(2, 1, 1.5, -0.1, st.grid, chi, 0)
        RydbergState(2, 1, 1.5, -0.1, st.grid, st.chi.copy(), 0)

    def test_chi_immutable(self, hyd_states):
        st = hyd_states[(1, 0)]
        with pytest.raises(ValueError):
            st.chi[0] = 1.0


class TestRadialMatrixElement:
    def test_hydrogen_2p_1s(self, hyd):
        g = default_grid(2)
        s1 = solve_radial(hyd, 1, 0, 0.5, grid=g)
        s2 = solve_radial(hyd, 2, 1, 1.5, grid=g)
        assert radial_matrix_element(s2, s1, 1, 1.0) == pytest.approx(
            128.0 * math.sqrt(6.0) / 243.0, abs=1e-4)

    @pytest.mark.parametrize("n,l", [(2, 1), (4, 0), (5, 3)])
    def test_diagonal_expectation(self, hyd_states, n, l):
        st = hyd_states[(n, l)]
        got = radial_matrix_element(st, st, 1, 7.7)
        assert got > 0
        assert got == pytest.approx(hydrogen_expectation_r(n, l), rel=1e-6)

    def test_symmetry(self, hyd):
        g = default_grid(5)
        a = solve_radial(hyd, 4, 1, 1.5, grid=g)
        b = solve_radial(hyd, 5, 2, 2.5, grid=g)
        assert radial_matrix_element(a, b, 2, 3.0) == pytest.approx(
            radial_matrix_element(b, a, 2, 3.0), rel=1e-12)

    def test_w_r_power_law(self, hyd_states):
        a, b = hyd_states[(4, 1)], hyd_states[(4, 0)]
        v1 = radial_matrix_element(a, b, 3, 2.0) * 2.0**2
        v2 = radial_matrix_element(a, b, 3, 5.0) * 5.0**2
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_incompatible_grid_step(self, hyd):
        # a different step, and the same step with a longer grid: a matrix
        # element takes both states on one grid
        for ga, gb in ((RadialGrid(1e-3, 68.0, 0.01), RadialGrid(1e-3, 68.0, 0.02)),
                       (default_grid(4), default_grid(5))):
            a = solve_radial(hyd, 2, 0, 0.5, grid=ga)
            b = solve_radial(hyd, 2, 1, 1.5, grid=gb)
            with pytest.raises(ValueError):
                radial_matrix_element(a, b, 1, 1.0)

    def test_moments_match_fallback(self, monkeypatch):
        # every pair of rb60's states at alpha = 1..4: the moment, on the
        # compiled path where it is built and on numpy's, is
        # 2 Simpson((chi_f chi_i) r^(alpha + 1)) bit for bit, with the power
        # taken by alpha products of r from the left
        rt = Runtime(RB60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # Rb l >= 4 has no defect series
            sweep_topological_charge(RB60.sweep_l, rt.solver, rt.beam, RB60.n,
                                     RB60.l_i, RB60.j_i, RB60.m_j, rt.cm_i,
                                     **rt.scenario_kwargs)
        states = list(rt.solver.states)
        grid, w_r = states[0].grid, rt.cm_i.w_r
        for alpha in range(1, 5):
            power = grid.r
            for _ in range(alpha):
                power = power * grid.r
            for f in states:
                for i in states:
                    want = (2 * atom._simpson(f.chi * i.chi * power, grid.step)
                            / w_r ** (alpha - 1))
                    assert radial_matrix_element(f, i, alpha, w_r) == want
                    with monkeypatch.context() as m:
                        m.setattr(atom, "_c_kernel", lambda: None)
                        assert radial_matrix_element(f, i, alpha, w_r) == want
        assert len(states) > 1 and all(st.grid == grid for st in states)

    def test_fallback_states_on_compiled_moment(self, kernel, monkeypatch, rb):
        # states the fallback solved, their moments taken by the kernel: the
        # fallback's moments and the compiled states', bit for bit
        grid = default_grid(60)
        keys = ((60, 0, 0.5), (60, 1, 1.5), (60, 2, 2.5), (59, 3, 3.5))
        fallback = [_fallback_solve(monkeypatch, rb, *key, grid) for key in keys]
        compiled = [solve_radial(rb, *key, grid) for key in keys]
        for alpha in range(1, 5):
            for f in range(len(keys)):
                for i in range(len(keys)):
                    got = radial_matrix_element(fallback[f], fallback[i],
                                                alpha, 2.0)
                    assert got == radial_matrix_element(compiled[f],
                                                        compiled[i], alpha, 2.0)
                    with monkeypatch.context() as m:
                        m.setattr(atom, "_c_kernel", lambda: None)
                        assert got == radial_matrix_element(
                            fallback[f], fallback[i], alpha, 2.0)

    def test_alpha_validation(self, hyd_states):
        st = hyd_states[(1, 0)]
        with pytest.raises(ValueError):
            radial_matrix_element(st, st, 0, 1.0)
        with pytest.raises(ValueError):
            radial_matrix_element(st, st, 1, -1.0)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(0.0, 10.0)
        with pytest.raises(ValueError):
            RadialGrid(10.0, 1.0)
        with pytest.raises(ValueError):
            RadialGrid(1e-3, 10.0, step=0.0)

    def test_needs_three_nodes(self):
        # Simpson's rule and the first Numerov step each take three nodes
        assert np.array_equal(RadialGrid(1.0, 9.0, 1.0).xi, [1.0, 2.0, 3.0])
        for grid_args in ((1.0, 9.0, 2.0), (1.0, 9.0, 5.0), (1e-3, 9000.0, 100.0)):
            with pytest.raises(ValueError, match="needs at least 3"):
                RadialGrid(*grid_args)

    def test_node_ceiling(self):
        # a step too fine for MAX_GRID_NODES is refused before any array is
        # built, down to the smallest subnormal step; the ceiling itself is
        # allowed
        top = atom.MAX_GRID_NODES
        assert RadialGrid(1.0, float(top) ** 2, 1.0).size == top
        for r_max, step in ((float(top + 1) ** 2, 1.0), (9000.0, 1e-300),
                            (9000.0, 5e-324)):
            with pytest.raises(ValueError, match=f"more than {top} nodes"):
                RadialGrid(1.0, r_max, step)

    def test_default_grid_extent(self):
        g = default_grid(60)
        assert g.r_max == pytest.approx(2 * 60 * 75.0)
        # past the outer classical turning point ~2 n*^2
        assert g.r_max > 2 * 60**2
        xi = g.xi
        assert xi[0] == pytest.approx(math.sqrt(g.r_min))
        # nodes overshoot the requested cutoff by less than one step
        assert math.sqrt(g.r_max) <= xi[-1] < math.sqrt(g.r_max) + g.step
        assert np.allclose(np.diff(xi), g.step)
        # same (r_min, step): overlapping nodes coincide bit-for-bit
        g2 = default_grid(50)
        assert np.array_equal(g2.xi, xi[: g2.xi.size])

    def test_compiled_path_builds_no_grid_array(self, kernel, monkeypatch, rb):
        # the compiled solve and matrix element build each node and its
        # powers themselves, and read neither of the grid's arrays
        def refuse(grid):
            raise AssertionError("the compiled path read a grid array")
        monkeypatch.setattr(RadialGrid, "xi", property(refuse))
        monkeypatch.setattr(RadialGrid, "r", property(refuse))
        g = default_grid(30)
        f, i = solve_radial(rb, 30, 0, 0.5, g), solve_radial(rb, 30, 1, 1.5, g)
        assert radial_matrix_element(f, i, 2, 2.0) != 0.0


class TestSimpson:
    # rb grids: 45 and 60 have an odd point count (plain composite rule),
    # 30 and 90 an even one (last-interval end correction)
    @pytest.mark.parametrize("n,odd", [(45, True), (60, True),
                                       (30, False), (90, False)])
    def test_matches_scipy(self, rb, n, odd):
        from scipy.integrate import simpson
        for l in range(4):
            st = solve_radial(rb, n, l, l + 0.5)
            xi = st.grid.xi
            assert (xi.size % 2 == 1) == odd
            for y in (st.chi**2 * xi**2, st.chi**2 * xi**4):
                ref = simpson(y, x=xi)
                assert abs(atom._simpson(y, st.grid.step) - ref) <= 1e-15 * abs(ref)

    def test_compiled_matches_numpy(self, kernel):
        # the compiled Simpson of y r^(alpha + 1) (f = y, g = 1) is
        # 2 _simpson(y power) bit for bit, the power taken by alpha products
        # of r from the left on the nodes xi = sqrt(1e-3) + i h: every point
        # count from 3 to 300, both parities, the strided sums at the
        # pairwise sum's split edges (128 | 129 and 256 | 257 terms) and the
        # n = 60 and 90 grid sizes, each alpha 1..4; terms spread over 70
        # decades, so the summation order shows, with +-0.0, +-inf and NaN
        # put in
        rng = np.random.default_rng(37)
        sizes = [*range(3, 301), *(2 * c + k for c in (256, 257)
                                   for k in (1, 2, 3, 4)), 9485, 13746]
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        xi0, h = math.sqrt(1e-3), 0.01
        for size in sizes:
            alpha, ones = size % 4 + 1, np.ones(size)
            xi = xi0 + np.arange(size) * h
            r = xi * xi
            power = r
            for _ in range(alpha):
                power = power * r
            y = rng.standard_normal(size) * np.exp(rng.uniform(-80.0, 80.0, size))
            poked = y.copy()
            poked[rng.integers(size, size=2)] = rng.choice(special, 2)
            for y in (y, poked, np.full(size, -0.0), rng.choice(special, size)):
                got = kernel.simpson_product(size, y.ctypes.data, ones.ctypes.data,
                                             xi0, alpha, h)
                with np.errstate(invalid="ignore"):    # inf - inf, inf 0
                    want = 2.0 * atom._simpson(y * power, h)
                # the same bits, or both NaN: which NaN's sign an addition
                # keeps follows its operand order
                assert float(want).hex() == got.hex() or \
                    math.isnan(want) and math.isnan(got), (size, got, want)


def _numerov_inward_reference(W, h):
    """The numpy-indexed form of the inward Numerov loop from W's last node,
    which atom._numerov_inward must reproduce bit for bit on
    W[:atom._tail_start(W, h) + 1]."""
    a = 1.0 - (h * h / 12.0) * W
    chi = np.empty_like(W)
    chi[-1] = 1e-12
    chi[-2] = 2e-12
    for i in range(len(W) - 2, 0, -1):
        chi[i - 1] = ((12.0 - 10.0 * a[i]) * chi[i] - a[i + 1] * chi[i + 1]) / a[i - 1]
    return chi


_PAST_FLOAT_RANGE = [
    ("rb", 60, 54, 53.5), ("rb", 60, 54, 54.5), ("rb", 60, 55, 54.5),
    ("rb", 60, 55, 55.5), ("hydrogen", 60, 55, 55.5), ("rb", 60, 40, 40.5),
    ("rb", 60, 59, 59.5), ("rb", 90, 67, 67.5), ("hydrogen", 90, 67, 67.5)]
# hydrogen 10h11/2 on a grid whose first node puts W = 12 / h^2 there, so
# a[0] = 1 - (h^2 / 12) W[0] is exactly 0: the solve refuses that divisor
_ZERO_DIVISOR_GRID = RadialGrid(0.001006182921476036, 500.0)


@pytest.fixture(scope="module")
def nscan_inputs():
    """(W, reference chi) of every state the nscan workload solves, Rb
    n = 30..90 at l <= 2 and both j, and of hydrogen 90l67, whose chi
    leaves the float range."""
    states = [("rb", n, l, j) for n in range(30, 91)
              for l, j in ((0, 0.5), (1, 0.5), (1, 1.5), (2, 1.5), (2, 2.5))]
    inputs = []
    for species, n, l, j in states + [("hydrogen", 90, 67, 67.5)]:
        p = load_species(species)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # hydrogen has no defect series
            energy = qd_energy(p, n, l, j)
        W = atom._numerov_w(p, l, j, energy, default_grid(n))
        W = W[:atom._tail_start(W, XI_STEP) + 1]
        with np.errstate(all="ignore"):     # the reference runs numpy scalars
            inputs.append((W, _numerov_inward_reference(W, XI_STEP)))
    assert not np.isfinite(inputs[-1][1]).all()
    return inputs


RB60 = parse_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                 "configs", "rb60.cfg"))


@pytest.fixture(scope="module")
def workload_states():
    """Every state the benchmark workloads solve, on the state's grid: rb60's
    rabi and sweep, its n_final = 20 variant (whose finals start inside the
    n = 60 grid), sweep_heavy's sweep and nscan's 61 scenarios, with the
    settings of perfbench/workloads.py."""
    sweep_heavy = dataclasses.replace(RB60, sweep_l=tuple(range(1, 9)),
                                      q_max=1, j_policy="all", final_l_f_max=10)
    nscan = [dataclasses.replace(RB60, n=n, l=1, q_max=0, l_i=0, j_i=0.5,
                                 m_j=-0.5, j_policy="all", final_l_f_max=3)
             for n in range(30, 91)]
    states = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # Rb l >= 4 has no defect series
        for cfg, sweep in [(RB60, True), (dataclasses.replace(RB60, n_final=20),
                                          False), (sweep_heavy, True)] + [
                (cfg, False) for cfg in nscan]:
            rt = Runtime(cfg.validate())
            if sweep:
                sweep_topological_charge(cfg.sweep_l, rt.solver, rt.beam, cfg.n,
                                         cfg.l_i, cfg.j_i, cfg.m_j, rt.cm_i,
                                         **rt.scenario_kwargs)
            rt.scenario()
            for st in rt.solver.states:
                states[st.n, st.l, st.j, st.grid] = st
    return list(states.values())


@pytest.fixture(scope="module")
def workload_inputs(workload_states):
    """(W, step, start, reference chi on [0, start]) of every workload state,
    W as the fallback builds it on the state's grid."""
    inputs = []
    p = load_species("rb")
    for st in workload_states:
        W = atom._numerov_w(p, st.l, st.j, st.energy, st.grid)
        start = atom._tail_start(W, st.grid.step)
        inputs.append((W, st.grid.step, start,
                       _numerov_inward_reference(W[:start + 1], st.grid.step)))
    return inputs


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C "
                              "compiler (cc) on PATH to build the kernel with")


@pytest.fixture
def kernel():
    """The compiled kernel's library, where cc can build it."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH: the compiled Numerov "
                    "kernel is not built and the Python loop runs")
    assert atom._c_kernel() is not None, "cc is on PATH but the kernel " \
        "did not build or load"
    return atom._c_kernel()


@pytest.fixture(scope="module")
def shim(tmp_path_factory):
    """tests/_numerov_shim.c, built as the kernel is built: w_model exports
    the compiled solve's W, and inward_w and solve_w its inward solve, alone
    and with the blanks, the node count and the norm, of a given W."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH to build the kernel with")
    import ctypes
    lib = tmp_path_factory.mktemp("shim") / "_numerov_shim.so"
    atom._build_kernel(Path(__file__).with_name("_numerov_shim.c"), lib)
    shim = ctypes.CDLL(str(lib))
    size, array, real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    shim.w_model.argtypes = (size, real, real, array, array)
    shim.inward_w.argtypes = (size, array, real, real, array)
    shim.solve_w.argtypes = (size, array, real, real, real, array, array)
    return shim


def _assert_same_w(shim, p, l, j, energy, grid):
    """The compiled solve's W, node by node from `atom._model_constants`, is
    `atom._numerov_w`'s bit for bit."""
    model = atom._model_constants(p, l, j, energy)
    w = np.empty(grid.size)
    shim.w_model(w.size, math.sqrt(grid.r_min), grid.step, model.ctypes.data,
                 w.ctypes.data)
    with np.errstate(over="ignore", invalid="ignore"):
        W = atom._numerov_w(p, l, j, energy, grid)
    assert np.array_equal(w.view(np.int64), W.view(np.int64)), (l, j)


def _compiled_inward(shim, W, h):
    """The compiled inward solve's chi for a given W, from the shim's
    inward_w."""
    chi = np.full(W.size, np.nan)       # the kernel reads no node it has not set
    shim.inward_w(W.size, W.ctypes.data, h, atom.TAIL_DEPTH, chi.ctypes.data)
    return chi


def _fallback_solve(monkeypatch, *args, **kwargs):
    """solve_radial on the Python fallback (no C kernel)."""
    with monkeypatch.context() as m:
        m.setattr(atom, "_c_kernel", lambda: None)
        return solve_radial(*args, **kwargs)


def _assert_same_state(a, b):
    assert np.array_equal(a.chi, b.chi, equal_nan=True)
    assert (a.energy, a.nodes, a.flags) == (b.energy, b.nodes, b.flags)


def _assert_inward(inward, W, h, start, reference):
    """inward(W, h) is W's length, seeded at `start`, equal to `reference`
    on [0, start] and +0.0 beyond."""
    chi = inward(W, h)
    assert chi.shape == W.shape
    assert chi[start] == 1e-12 and np.flatnonzero(chi)[-1] == start
    assert np.array_equal(chi[:start + 1], reference, equal_nan=True)
    assert not chi[start + 1:].any() and not np.signbit(chi[start + 1:]).any()


def _tail(size, turn, depth_w):
    """W = -1 up to node `turn`, then `depth_w`: h sqrt(depth_w) of WKB depth
    a node beyond the turning point."""
    W = np.full(size, depth_w)
    W[:turn + 1] = -1.0
    return W


class _KernelCases:
    """The bitwise cases, run on the compiled kernel (TestNumerovKernel)
    and on the Python loop (TestPythonNumerovKernel); each class's `inward`
    fixture puts its path in place and gives the inward solve of a W on it,
    through `_compiled_inward` (the compiled solve's steps 2-5) or
    `atom._numerov_inward`."""

    def test_workload_states_start_at_tail_start(self, inward, workload_inputs):
        # every state rb60, sweep_heavy and nscan solve, on its full W
        for W, h, start, reference in workload_inputs:
            _assert_inward(inward, W, h, start, reference)
        assert len(workload_inputs) > 300
        assert any(start < W.size - 1                   # the n = 20 finals
                   for W, _, start, _ in workload_inputs)

    @pytest.mark.parametrize("case", ["no-turn", "turn-at-last-node", "shallow",
                                      "sum-equals-depth", "nan-beyond-turn",
                                      "zero-beyond-turn"])
    def test_start_node(self, inward, case):
        # h = 0.5: the start is the first node whose partial sum of sqrt(W)
        # from the turning point is not <= TAIL_DEPTH / h = 600
        h, W = 0.5, _tail(100, 9, 400.0)               # sqrt(400) = 20
        expected = {"no-turn": 99, "turn-at-last-node": 99, "shallow": 99,
                    "sum-equals-depth": 40, "nan-beyond-turn": 20,
                    "zero-beyond-turn": 40}[case]
        if case == "no-turn":
            W = np.full(100, 400.0)
        elif case == "turn-at-last-node":
            W = np.full(100, 400.0)
            W[-1] = -1.0
        elif case == "shallow":                         # 90 * 2 < 600
            W = _tail(100, 9, 4.0)
        elif case == "nan-beyond-turn":
            W[20] = np.nan
        elif case == "zero-beyond-turn":                # W = 0 is no turn
            W[60] = 0.0
        # sum-equals-depth: 30 * 20 == 600 exactly at node 39, past it at 40
        assert atom._tail_start(W, h) == expected
        with np.errstate(all="ignore"):     # the reference runs numpy scalars
            _assert_inward(inward, W, h, expected,
                           _numerov_inward_reference(W[:expected + 1], h))

    def test_zero_a_refused_inside_grid(self, inward):
        # the tail dies out at node 40 (h = 0.01, sqrt(1e6) = 1000, depth
        # 30000), and a[5] = 0 is a divisor of that solve: chi is NaN up to
        # the start and +0.0 beyond
        W = _tail(100, 9, 1e6)
        W[5] = 120000.0
        assert 1.0 - (0.01 * 0.01 / 12.0) * W[5] == 0.0
        assert atom._tail_start(W, 0.01) == 40
        chi = inward(W, 0.01)
        assert chi.shape == W.shape and np.isnan(chi[:41]).all()
        assert not chi[41:].any() and not np.signbit(chi[41:]).any()

    @pytest.mark.parametrize("species,n,l_max", [("rb", 30, 10), ("rb", 60, 10),
                                                 ("rb", 90, 10),
                                                 ("hydrogen", 10, 9)])
    def test_bit_identical(self, inward, monkeypatch, species, n, l_max):
        # every state l <= l_max, both j: solved on this class's path, it is
        # the fallback's state, and every (W, h) the fallback hands
        # _numerov_inward gives the numpy-indexed loop's chi on this class's
        # path
        fallback, inputs = atom._numerov_inward, []
        p = load_species(species)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # Rb l >= 4 has no defect series
            for l in range(l_max + 1):
                for j in (l - 0.5, l + 0.5):
                    if j <= 0:
                        continue
                    state = solve_radial(p, n, l, j)
                    with monkeypatch.context() as m:
                        m.setattr(atom, "_numerov_inward", lambda W, h: inputs.append(
                            (W, h)) or fallback(W, h))
                        _assert_same_state(state,
                                           _fallback_solve(m, p, n, l, j))
        assert len(inputs) == 2 * l_max + 1
        for W, h in inputs:
            assert np.array_equal(inward(W, h), _numerov_inward_reference(W, h))

    def test_nscan_states_bit_identical(self, inward, nscan_inputs):
        # the rb60 and sweep_heavy states are test_bit_identical's rb-60-10
        for W, reference in nscan_inputs:
            assert np.array_equal(inward(W, XI_STEP), reference, equal_nan=True)

    def test_rescale_path_bit_identical(self, inward):
        # the input that once needed a 1e-250 rescale: W = 100 grows chi by
        # about e^2000 over 20,000 nodes, and with no rescale chi comes back
        # as it stands, +inf and then inf - inf = NaN
        W = np.full(20000, 100.0)
        with np.errstate(all="ignore"):     # the reference runs numpy scalars
            chi = inward(W, 0.01)
            assert np.array_equal(chi, _numerov_inward_reference(W, 0.01),
                                  equal_nan=True)
        assert np.isposinf(chi).any() and np.isnan(chi).any()

    def test_overflow_and_nan_bit_identical(self, inward):
        # chi leaves the float range and comes back as it stands.  W ~ 1e65
        # gives b ~ 1e61, so b chi overflows to +inf and -inf, then NaN.
        # A NaN in W makes every point inward of it NaN.
        overflow = np.full(600, 1.2e65)
        poisoned = np.full(3000, 100.0)
        poisoned[2000] = np.nan
        chis = []
        with np.errstate(all="ignore"):     # the reference runs numpy scalars
            for W in (overflow, poisoned):
                chis.append(inward(W, 0.01))
                assert np.array_equal(chis[-1], _numerov_inward_reference(W, 0.01),
                                      equal_nan=True)
        assert np.isposinf(chis[0]).any() and np.isneginf(chis[0]).any()
        assert np.isnan(chis[0]).any()
        assert np.isnan(chis[1][:2001]).all() and np.isfinite(chis[1][2001:]).all()

    @pytest.mark.parametrize("n", range(3, 13))
    def test_short_grids_bit_identical(self, inward, n):
        # step counts n - 2 from 1 to 10, of both parities, through the one
        # step per node loop; h = 0.3 keeps a far from 1 and of both signs
        W = np.random.default_rng(n).uniform(-150.0, 250.0, n)
        chi = inward(W, 0.3)
        assert chi.shape == (n,)
        assert np.array_equal(chi, _numerov_inward_reference(W, 0.3))

    @pytest.mark.parametrize("at", [8, 5, 0])
    def test_zero_a_reaches_fallback(self, inward, at):
        # n = 11: the first step divides by a[8], a middle one by a[5] and
        # the last one by a[0]; a = 0 exactly at
        # W = 12/h^2 (h = 0.01).  Either path refuses the zero divisor,
        # and chi comes back all NaN.
        W = np.full(11, 100.0)
        W[at] = 120000.0
        assert 1.0 - (0.01 * 0.01 / 12.0) * W[at] == 0.0
        chi = inward(W, 0.01)
        assert chi.shape == W.shape and np.isnan(chi).all()

    @pytest.mark.parametrize("at", [10, 9])
    def test_zero_a_at_outer_end_is_no_divisor(self, inward, at):
        # a[-1] and a[-2] only multiply chi, so a zero there is not refused:
        # chi is finite and the reference's, bit for bit
        W = np.full(11, 100.0)
        W[at] = 120000.0
        assert 1.0 - (0.01 * 0.01 / 12.0) * W[at] == 0.0
        chi = inward(W, 0.01)
        assert np.isfinite(chi).all()
        assert np.array_equal(chi, _numerov_inward_reference(W, 0.01))


class TestNumerovKernel(_KernelCases):
    @pytest.fixture
    def inward(self, kernel, shim):
        return partial(_compiled_inward, shim)

    @pytest.mark.parametrize("species,n,l,j,grid", [
        (*state, None) for state in _PAST_FLOAT_RANGE] + [
        ("hydrogen", 10, 5, 5.5, _ZERO_DIVISOR_GRID)], ids=[
        f"{s}-{l}-{j}" if n == 60 else f"{s}-{n}-{l}-{j}"   # n = 60 ids as before
        for s, n, l, j in _PAST_FLOAT_RANGE] + ["hydrogen-10-5-5.5-zero-divisor"])
    def test_real_states_take_fallback(self, monkeypatch, species, n, l, j, grid):
        # states high enough in l (every l >= 36 at n = 60) that the inward
        # solve leaves the float range: the non-finite flag reports it, which
        # the CLI refuses, and no numpy warning does.  At n = 90, l = 67 chi
        # holds +-inf, so its norm is infinite too.  A refused zero divisor
        # leaves chi NaN on both paths too.  Where the kernel is built, its
        # solve (the blanks, the node count and the norm included) is the
        # fallback's.
        p = load_species(species)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no defect series
            warnings.simplefilter("error", RuntimeWarning)
            st = solve_radial(p, n, l, j, grid)
            _assert_same_state(st, _fallback_solve(monkeypatch, p, n, l, j, grid))
        assert "non-finite" in st.flags
        assert np.isnan(st.chi).all()
        if grid is not None:            # a[0] is 0 and a divisor (start >= 2)
            h = grid.step
            W = atom._numerov_w(p, l, j, st.energy, grid)
            assert 1.0 - (h * h / 12.0) * W[0] == 0.0
            assert atom._tail_start(W, h) >= 2

    @pytest.mark.parametrize("case", ["zero-chi", "overflow", "refused",
                                      *(f"random-{n}" for n in range(3, 13))])
    def test_finish_matches_fallback(self, shim, case):
        # the whole compiled solve of a given W (the shim's solve_w, on
        # nodes xi = 1 + i h): chi blanked, the node count, the
        # divergent-core bit and the norm are `atom._finish`'s on the Python
        # loop's chi.  zero-chi: a = 4 at the
        # start and 1 next to it make chi exactly 0 at the next node, which
        # is no sign change, and then the minimum the divergent-core blank
        # cuts at; overflow: chi holds +-inf and NaN; refused: a zero divisor
        # leaves chi NaN; random: the short grids' W, crossings near node 0
        h = 0.1
        if case == "zero-chi":
            W = np.zeros(20)
            W[-1] = -3.0 / (h * h / 12.0)
            assert 1.0 - (h * h / 12.0) * W[-1] == 4.0
        elif case == "overflow":
            W = np.full(600, 1.2e65)
        elif case == "refused":
            W, h = _tail(100, 9, 1e6), 0.01
            W[5] = 120000.0
        else:
            h = 0.3
            W = np.random.default_rng(int(case[7:])).uniform(-150.0, 250.0,
                                                             int(case[7:]))
        xi = 1.0 + np.arange(W.size) * h
        chi, out = np.empty_like(W), np.empty(3)
        shim.solve_w(W.size, W.ctypes.data, 1.0, h, atom.TAIL_DEPTH,
                     chi.ctypes.data, out.ctypes.data)
        with np.errstate(all="ignore"):
            reference = atom._numerov_inward(W, h)
            nodes, core, norm2 = atom._finish(reference, xi, h)
        assert np.array_equal(chi, reference, equal_nan=True)
        assert out[:2].tolist() == [nodes, core]
        assert np.array_equal(out[2], norm2, equal_nan=True)
        if case == "zero-chi":
            assert chi[17] == 0.0 and core and nodes == 0

    def test_workload_states_match_fallback(self, inward, shim, monkeypatch,
                                            workload_states):
        # every state rb60 (with its n_final = 20 variant), sweep_heavy and
        # nscan solve, solved again on both paths on its own grid, and on
        # that grid at compute.grid_step = 0.05 and 0.1, where the
        # near-boundary blank decides the node count of Rb 60p3/2 and 60s1/2;
        # the compiled W is the fallback's on the state's own grid
        p = load_species("rb")
        flagged = set()
        for st in workload_states:
            _assert_same_w(shim, p, st.l, st.j, st.energy, st.grid)
            for step in (st.grid.step, 0.05, 0.1):
                grid = dataclasses.replace(st.grid, step=step)
                args = (p, st.n, st.l, st.j, grid, st.energy)
                new = solve_radial(*args)
                _assert_same_state(new, _fallback_solve(monkeypatch, *args))
                if "node-count" in new.flags:
                    flagged.add((st.n, st.l, st.j, step))
        assert {(60, 1, 1.5, 0.05), (60, 0, 0.5, 0.1)} <= flagged

    def test_hydrogen_matches_fallback(self, inward, shim, monkeypatch, hyd):
        # a1 = a2 = 0: every node is inside both core prefixes, and
        # alpha_c = so_scale = 0 skip the polarization and spin-orbit terms
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # no defect series at l >= 6
            for n in (1, 2, 3, 4, 5, 10, 30, 60, 90):
                for l in range(min(n, 11)):
                    for j in (l - 0.5, l + 0.5):
                        if j > 0:
                            st = solve_radial(hyd, n, l, j)
                            _assert_same_state(
                                st, _fallback_solve(monkeypatch, hyd, n, l, j))
                            _assert_same_w(shim, hyd, l, j, st.energy, st.grid)

    @pytest.mark.parametrize("key,factor", [("a1", 40.0), ("a2", 40.0),
                                            ("a1", -1.0), ("a2", -1.0)])
    def test_core_exponents_match_fallback(self, inward, shim, monkeypatch, rb,
                                           key, factor):
        # one core exponential cut 40 times nearer the nucleus than the
        # other, so that between the two cuts z keeps the other one's term;
        # or one that grows, exp(-a r) overflowing far out, which the
        # non-finite flag reports and no numpy warning does
        k = ("a1", "a2").index(key)
        p = dataclasses.replace(rb, potential={
            l: block[:k] + (factor * block[k],) + block[k + 1:]
            for l, block in rb.potential.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for l in range(4):
                for j in (l - 0.5, l + 0.5):
                    if j > 0:
                        st = solve_radial(p, 30, l, j)
                        _assert_same_state(
                            st, _fallback_solve(monkeypatch, p, 30, l, j))
                        assert ("non-finite" in st.flags) == (factor < 0)
                        _assert_same_w(shim, p, l, j, st.energy, st.grid)

    def test_chi_full_length_and_read_only_in_state(self, hyd):
        # on the fallback, and on the kernel where it is built
        grid = default_grid(4)
        energy = qd_energy(hyd, 4, 1, 1.5)
        chis = [atom._numerov_inward(atom._numerov_w(hyd, 1, 1.5, energy, grid),
                                     grid.step)]
        if atom._c_kernel() is not None:
            chis.append(atom._kernel_solve(atom._c_kernel(), hyd, 1, 1.5,
                                           energy, grid)[0])
        for chi in chis:
            assert chi.shape == grid.xi.shape and chi.flags.writeable \
                and chi.flags.c_contiguous
        st = solve_radial(hyd, 4, 1, 1.5, grid=grid)
        assert st.chi.shape == grid.xi.shape
        with pytest.raises(ValueError):
            st.chi[0] = 1.0

    @pytest.mark.parametrize("species,n,l_max", [("rb", 30, 10), ("rb", 60, 10),
                                                 ("rb", 90, 10),
                                                 ("hydrogen", 10, 9)])
    def test_nodes_are_sign_changes(self, species, n, l_max):
        # the states of test_bit_identical: after any blanking the node count
        # is the sign changes of the returned chi, counted afresh
        p = load_species(species)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # Rb l >= 4 has no defect series
            for l in range(l_max + 1):
                for j in (l - 0.5, l + 0.5):
                    if j > 0:
                        st = solve_radial(p, n, l, j)
                        assert st.nodes == np.count_nonzero(
                            st.chi[:-1] * st.chi[1:] < 0.0), (l, j)


class TestPythonNumerovKernel(_KernelCases):
    @pytest.fixture
    def inward(self, monkeypatch):
        monkeypatch.setattr(atom, "_c_kernel", lambda: None)
        return atom._numerov_inward


class TestKernelLoader:
    @needs_cc
    def test_warm_cache_spawns_no_compiler(self, monkeypatch, tmp_path):
        atom._load_kernel(atom._KERNEL_SOURCE, tmp_path)

        def no_build(*args, **kwargs):
            raise AssertionError("a warm cache spawned the compiler")
        monkeypatch.setattr(subprocess, "run", no_build)
        assert atom._load_kernel(atom._KERNEL_SOURCE, tmp_path) is not None

    def test_missing_compiler_runs_python_loop(self, monkeypatch, tmp_path):
        # a cold cache and no cc on PATH: the build raises OSError, and
        # _c_kernel gives None, so the Python loop runs
        src = tmp_path / "_numerov.c"
        shutil.copy2(atom._KERNEL_SOURCE, src)
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.raises(OSError):
            atom._load_kernel(src, tmp_path / "__pycache__")
        monkeypatch.setattr(atom, "_KERNEL_SOURCE", src)
        atom._c_kernel.cache_clear()
        try:
            assert atom._c_kernel() is None
            W = np.random.default_rng(0).uniform(-150.0, 250.0, 500)
            assert np.array_equal(atom._numerov_inward(W, 0.1),
                                  _numerov_inward_reference(W, 0.1))
        finally:
            atom._c_kernel.cache_clear()
        assert list(tmp_path.glob("__pycache__/*")) == []

    @needs_cc
    def test_two_builds_leave_one_loadable_file(self, tmp_path, rb):
        atom._load_kernel(atom._KERNEL_SOURCE, tmp_path)
        [lib] = tmp_path.iterdir()
        atom._build_kernel(atom._KERNEL_SOURCE, lib)
        assert list(tmp_path.iterdir()) == [lib]
        kernel = atom._load_kernel(atom._KERNEL_SOURCE, tmp_path)
        grid, energy = default_grid(30), qd_energy(rb, 30, 1, 1.5)
        chi, *results = atom._kernel_solve(kernel, rb, 1, 1.5, energy, grid)
        W = atom._numerov_w(rb, 1, 1.5, energy, grid)
        reference = atom._numerov_inward(W, grid.step)
        assert results == list(atom._finish(reference, grid.xi, grid.step))
        assert np.array_equal(chi, reference)

    def test_kernel_includes_only_stddef(self):
        # math.h alone raised cc's peak RSS by 1.8 MB, above that of the CLI
        # process that builds the kernel
        source = atom._KERNEL_SOURCE.read_text()
        assert re.findall(r"^\s*#\s*include\s*(.*?)\s*$", source,
                          re.MULTILINE) == ["<stddef.h>"]

    @needs_cc
    def test_touched_source_replaces_library(self, tmp_path):
        # a source with a new mtime is built again over the one library,
        # which carries the source's mtime.  dlopen hands this process the
        # mapping of the first build, so a fresh one loads the new file.
        src = tmp_path / "_numerov.c"
        shutil.copy2(atom._KERNEL_SOURCE, src)
        cache_dir = tmp_path / "__pycache__"
        atom._load_kernel(src, cache_dir)
        st = src.stat()
        os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        atom._load_kernel(src, cache_dir)
        [lib] = cache_dir.iterdir()
        assert lib.name == "_numerov.so"
        assert lib.stat().st_mtime_ns == src.stat().st_mtime_ns
        subprocess.run([sys.executable, "-c", "import ctypes, sys; "
                        "ctypes.CDLL(sys.argv[1]).numerov_solve_model", str(lib)],
                       check=True)


def _model_potential_reference(p, l, j, r):
    """model_potential as plain numpy expressions, with libm's exp at each
    point and each power multiplied out, the form atom.model_potential must
    reproduce bit for bit."""
    a1, a2, a3, a4, rc = p.potential_for(l)
    exp = np.vectorize(math.exp, otypes=[float])
    z = 1.0 + (p.Z - 1.0) * exp(-a1 * r) - r * (a3 + a4 * r) * exp(-a2 * r)
    v = -z / r
    r3 = r * r * r
    if p.alpha_c:
        u2 = (r / rc) * (r / rc)
        v = v - p.alpha_c / (2.0 * (r3 * r)) * (1.0 - exp(-(u2 * u2 * u2)))
    if p.so_scale:
        ls = 0.5 * (j * (j + 1.0) - l * (l + 1.0) - 0.75)
        v = v + p.so_scale * FINE_STRUCTURE**2 / (2.0 * r3) * ls
    return v


class TestInPlaceBuild:
    @pytest.mark.parametrize("species,n", [(s, n) for s in ("rb", "hydrogen")
                                           for n in (30, 60, 90)])
    def test_bit_identical(self, monkeypatch, species, n):
        # the potential, the W the fallback hands _numerov_inward, and the
        # fallback's state against the expression form fed to the
        # numpy-indexed kernel; the compiled state against the fallback's
        p = load_species(species)
        xi = default_grid(n).xi
        r = xi * xi
        fallback, seen = atom._numerov_inward, []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # Rb l >= 4 has no defect series
            for l in range(11):
                for j in (l - 0.5, l + 0.5):
                    if j <= 0:
                        continue
                    v = _model_potential_reference(p, l, j, r)
                    assert np.array_equal(model_potential(p, l, j, r), v)
                    W = (8.0 * xi * xi * (v - qd_energy(p, n, l, j))
                         + (2 * l + 0.5) * (2 * l + 1.5) / (xi * xi))
                    with monkeypatch.context() as m:
                        m.setattr(atom, "_numerov_inward",
                                  lambda W_, h: seen.append(W_)
                                  or fallback(W_, h))
                        new = _fallback_solve(m, p, n, l, j)
                    assert np.array_equal(seen[-1], W)
                    with monkeypatch.context() as m:
                        m.setattr(atom, "_numerov_inward",
                                  lambda W_, h: _numerov_inward_reference(W, h))
                        old = _fallback_solve(m, p, n, l, j)
                    _assert_same_state(new, old)
                    _assert_same_state(solve_radial(p, n, l, j), new)

    def test_scalar_path(self, rb, hyd):
        # a scalar r runs the array path: a float, equal to the reference
        # element.  (The expression form on a bare scalar took numpy's scalar
        # power for (r/rc)**6, one ulp off the array loop at rare points.)
        r = default_grid(30).xi[::37] ** 2
        for p in (rb, hyd):
            for l, j in ((0, 0.5), (1, 0.5), (1, 1.5), (2, 2.5), (5, 4.5)):
                ref = _model_potential_reference(p, l, j, r).tolist()
                for x, v in zip(r.tolist(), ref):
                    got = model_potential(p, l, j, x)
                    assert type(got) is float and got == v

    def test_exp_cut_boundaries(self, rb, hyd):
        # r placed so each exponential's argument runs from -700 to -760:
        # through the subnormal band and across the -746 cut, with the ulp
        # neighbours of every point.  Every Rb block, both j; hydrogen
        # (a1 = a2 = 0, alpha_c = 0) on the same points cuts nothing.
        # Ascending, shuffled, and one scalar at a time.
        x = np.concatenate([np.linspace(700.0, 760.0, 121),
                            [708.0, 745.13, 745.14, 746.0]])
        rng = np.random.default_rng(9)
        for l in sorted(rb.potential):
            a1, a2, a3, a4, rc = rb.potential_for(l)
            r = np.concatenate([x / a1, x / a2, rc * x ** (1.0 / 6.0)])
            r = np.concatenate([np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)])
            r.sort()
            for p in (rb, hyd):
                for j in (l - 0.5, l + 0.5):
                    if j <= 0:
                        continue
                    ref = _model_potential_reference(p, l, j, r)
                    assert np.array_equal(model_potential(p, l, j, r), ref)
                    perm = rng.permutation(r.size)
                    assert np.array_equal(model_potential(p, l, j, r[perm]),
                                          ref[perm])
                    for x_, v in zip(r[::7].tolist(), ref[::7].tolist()):
                        assert model_potential(p, l, j, x_) == v


class TestSharedGrid:
    @pytest.mark.parametrize("species,n", [(s, n) for s in ("rb", "hydrogen")
                                           for n in (30, 60, 90)])
    def test_bit_identical_to_fresh_grids(self, monkeypatch, species, n):
        # every l <= 10 and both j, solved in shuffled order on one grid
        # object, against solves that each build a fresh grid and against
        # the fallback's solves on the shared grid, whose W is the
        # expression form
        p = load_species(species)
        grid = default_grid(n)
        xi = grid.xi
        fallback, seen = atom._numerov_inward, []
        states = [(l, j) for l in range(11) for j in (l - 0.5, l + 0.5) if j > 0]
        random.Random(n).shuffle(states)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # Rb l >= 4 has no defect series
            for l, j in states:
                shared = solve_radial(p, n, l, j, grid=grid)
                with monkeypatch.context() as m:
                    m.setattr(atom, "_numerov_inward",
                              lambda W, h: seen.append(W) or fallback(W, h))
                    _assert_same_state(shared,
                                       _fallback_solve(m, p, n, l, j, grid=grid))
                v = _model_potential_reference(p, l, j, xi * xi)
                W = (8.0 * xi * xi * (v - qd_energy(p, n, l, j))
                     + (2 * l + 0.5) * (2 * l + 1.5) / (xi * xi))
                assert np.array_equal(seen[-1], W)
                fresh = solve_radial(p, n, l, j)
                assert fresh.grid == grid and fresh.grid is not grid
                _assert_same_state(shared, fresh)
