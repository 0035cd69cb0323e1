"""End-to-end CLI tests: subcommands, CSV schemas, determinism, exit codes.

Everything runs in-process through main(argv) — same code path as the
console script, minus interpreter startup.  The default scenario (Rb 60S,
l=1, sigma=+1) is small enough that a full rabi assembly stays under a
second once the solver cache is warm, but tests that only need plumbing
drop to hydrogen n=4 to keep the suite quick.
"""

import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lgryd
from _golden import assert_golden
from lgryd import cm, coupling
from lgryd.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from lgryd.config import _KEYS
from lgryd.units import BOHR_RADIUS_M, um_to_au

FAST = ["atom.species = hydrogen", "atom.n = 4", "compute.grid_step = 0.02"]
RB60_CFG = Path(__file__).parent.parent / "configs" / "rb60.cfg"


def run(tmp_path, cmd, *extra, cfg_lines=(), name="case.cfg"):
    args = [cmd, "--out", str(tmp_path / "out")]
    if cfg_lines:
        p = tmp_path / name
        p.write_text("\n".join(cfg_lines) + "\n")
        args += ["--config", str(p)]
    rc = main(args + list(extra))
    return rc, tmp_path / "out"


def rows(path):
    header, *body = path.read_text().splitlines()
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in body]


def rb60_lines(**changes):
    """configs/rb60.cfg with each `section__key` in `changes` set anew."""
    keys = {k.replace("__", "."): v for k, v in changes.items()}
    lines = [line for line in RB60_CFG.read_text().splitlines()
             if line.partition("=")[0].strip() not in keys]
    return lines + [f"{k} = {v}" for k, v in keys.items()]


class TestChannelsCommand:
    @pytest.mark.parametrize("changes", [
        {}, {"beam__l": -1, "atom__n_final": 61},
        {"atom__species": "hydrogen", "atom__n": 6, "atom__n_final": 4}])
    def test_lists_what_rabi_assembles(self, tmp_path, changes):
        # the elastic channel is kept when n changes, and no final state
        # has l_f >= n_final, in both commands
        lines = rb60_lines(**changes)
        assert run(tmp_path, "channels", cfg_lines=lines)[0] == EXIT_OK
        rc, out = run(tmp_path, "rabi", cfg_lines=lines)
        assert rc == EXIT_OK
        rabi = [line.split(",")[:13]
                for line in (out / "rabi.csv").read_text().splitlines()]
        assert [line.split(",") for line in
                (out / "channels.csv").read_text().splitlines()] == rabi
        assert len(rabi) > 1

    def test_default_scenario_13_channels(self, tmp_path):
        rc, out = run(tmp_path, "channels")
        assert rc == EXIT_OK
        table = rows(out / "channels.csv")
        assert len(table) == 13
        assert {r["final_state"] for r in table if r["q"] == "0"} == \
            {"P3/2(+1/2)", "D5/2(+3/2)"}

    def test_header_schema(self, tmp_path):
        _, out = run(tmp_path, "channels")
        header = (out / "channels.csv").read_text().splitlines()[0]
        assert header == ("l,sigma,q,l1,l2,l3,m1,m2,m3,M_f,"
                          "final_state,alpha,beta")

    def test_q_max_flag_overrides(self, tmp_path):
        rc, out = run(tmp_path, "channels", "--q-max", "0")
        assert rc == EXIT_OK
        assert len(rows(out / "channels.csv")) == 2

    def test_gaussian_beam_single_channel(self, tmp_path):
        # no vortex: only the envelope-free dipole path survives at q=0
        rc, out = run(tmp_path, "channels", "--q-max", "0",
                      cfg_lines=["beam.l = 0"])
        assert rc == EXIT_OK
        table = rows(out / "channels.csv")
        assert len(table) == 1
        assert table[0]["M_f"] == "0" and table[0]["final_state"].startswith("P")

    def test_solves_no_state(self, tmp_path, monkeypatch):
        # channels reads only the initial label (l, j, m_j): no radial solve
        calls = []
        monkeypatch.setattr(coupling, "solve_radial",
                            lambda *args, **kw: calls.append(args))
        rc, _ = run(tmp_path, "channels")
        assert rc == EXIT_OK and calls == []


class TestRabiCommand:
    def test_extends_channel_schema(self, tmp_path):
        rc, out = run(tmp_path, "rabi", cfg_lines=FAST)
        assert rc == EXIT_OK
        header = (out / "rabi.csv").read_text().splitlines()[0]
        assert header.endswith("coeff,radial_e,radial_cm,angular,"
                               "cg_weight,rabi_kHz,lambda_audit")

    def test_zero_field_zeroes_rabi_only(self, tmp_path):
        rc, out = run(tmp_path, "rabi",
                      cfg_lines=FAST + ["beam.field_V_per_m = 0"])
        assert rc == EXIT_OK
        table = rows(out / "rabi.csv")
        assert table and all(float(r["rabi_kHz"]) == 0.0 for r in table)
        assert any(float(r["angular"]) != 0.0 for r in table)

    def test_lambda_audit_column(self, tmp_path):
        _, out = run(tmp_path, "rabi", cfg_lines=FAST)
        for r in rows(out / "rabi.csv"):
            alpha = int(r["alpha"])
            assert float(r["lambda_audit"]) == pytest.approx(
                alpha * math.gamma(alpha / 2.0), rel=1e-6)


class TestSweepCommand:
    def test_csv_and_svg(self, tmp_path):
        rc, out = run(tmp_path, "sweep", "--l", "1,2", cfg_lines=FAST)
        assert rc == EXIT_OK
        table = rows(out / "sweep.csv")
        assert {r["kind"] for r in table} == \
            {"channel", "group", "total", "aggregate"}
        assert {r["l"] for r in table} == {"1", "2"}
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "via TC" in svg

    def test_single_element_sweep_is_rabi_projection(self, tmp_path):
        rc1, out = run(tmp_path, "sweep", "--l", "1", cfg_lines=FAST)
        rabi_dir = tmp_path / "rabi"
        rc2 = main(["rabi", "--out", str(rabi_dir), "--config",
                    str(tmp_path / "case.cfg")])
        assert rc1 == rc2 == EXIT_OK
        swept = [(r["q"], r["final_state"], r["M_f"], r["rabi_kHz"])
                 for r in rows(out / "sweep.csv") if r["kind"] == "channel"]
        direct = [(r["q"], r["final_state"], r["M_f"], r["rabi_kHz"])
                  for r in rows(rabi_dir / "rabi.csv")]
        assert sorted(swept) == sorted(direct)

    def test_l_flag_parses_comma_list(self, tmp_path):
        rc, out = run(tmp_path, "sweep", "--l", "2, 3", cfg_lines=FAST)
        assert rc == EXIT_OK
        assert {r["l"] for r in rows(out / "sweep.csv")} == {"2", "3"}


class TestWavefunctionCommand:
    def test_dump_consistent(self, tmp_path):
        rc, out = run(tmp_path, "wavefunction", cfg_lines=FAST)
        assert rc == EXIT_OK
        table = rows(out / "wavefunction.csv")
        assert list(table[0]) == ["r", "u", "psi"]
        # u = r psi row-by-row, within the printed precision
        for r in table[:: len(table) // 50]:
            assert float(r["u"]) == pytest.approx(
                float(r["r"]) * float(r["psi"]), rel=1e-8, abs=1e-12)


class TestVerifyCommand:
    def test_passes_and_writes_report(self, tmp_path):
        rc, out = run(tmp_path, "verify")
        assert rc == EXIT_OK
        report = (out / "verify.txt").read_text()
        assert report.count("[PASS]") == 6 and "[FAIL]" not in report
        assert "6/6 suites passed" in report

    def test_isolated_from_species_config(self, tmp_path):
        # oracle suites never touch the configured species, so a broken
        # species file must not block verification
        bad = tmp_path / "broken.species"
        bad.write_text("[atom]\nZ = broken\n")
        rc, out = run(tmp_path, "verify",
                      cfg_lines=[f"atom.species = {bad}"])
        assert rc == EXIT_OK
        assert "hydrogen oracle" in (out / "verify.txt").read_text()


class TestDeterminism:
    def test_csv_byte_stable(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for target in (first, second):
            rc = main(["rabi", "--out", str(target)] +
                      ["--config", str(write_fast(tmp_path))])
            assert rc == EXIT_OK
        assert (first / "rabi.csv").read_bytes() == \
            (second / "rabi.csv").read_bytes()

    def test_svg_byte_stable(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for target in (first, second):
            rc = main(["sweep", "--l", "1", "--out", str(target),
                       "--config", str(write_fast(tmp_path))])
            assert rc == EXIT_OK
        assert (first / "sweep.svg").read_bytes() == \
            (second / "sweep.svg").read_bytes()

    def test_rb60_outputs_pinned(self, tmp_path):
        # the reference scenario's output bytes; a change that moves the
        # numbers on purpose (say, a new radial solver) re-records these pins
        for cmd in ("channels", "rabi", "sweep", "wavefunction", "verify"):
            assert main([cmd, "--config", str(RB60_CFG), "--out", str(tmp_path)]) == EXIT_OK
        assert_golden(tmp_path, {
            f"rb60/{name}": tmp_path / name
            for name in ("channels.csv", "rabi.csv", "sweep.csv", "sweep.svg",
                         "verify.txt")})
        # 412 KB, too large to keep as a golden file
        assert hashlib.sha256((tmp_path / "wavefunction.csv").read_bytes()).hexdigest() \
            == "9baba59cea4b165396036608f33d8b832cc5bd24203174a586b4d4720c6c4c06"

    def test_10_sig_digit_format(self, tmp_path):
        _, out = run(tmp_path, "rabi", cfg_lines=FAST)
        for r in rows(out / "rabi.csv"):
            for col in ("coeff", "radial_e", "rabi_kHz", "lambda_audit"):
                assert r[col] == f"{float(r[col]):.10g}"


def assert_rb60_rows(tmp_path, lines):
    """rabi and sweep on `lines` exit 0 with rb60's 14 and 208 rows, every
    Rabi frequency finite."""
    for cmd, name, count in (("rabi", "rabi.csv", 14),
                             ("sweep", "sweep.csv", 208)):
        rc, out = run(tmp_path, cmd, cfg_lines=lines)
        assert rc == EXIT_OK
        table = rows(out / name)
        assert len(table) == count, cmd
        assert all(math.isfinite(float(r["rabi_kHz"])) for r in table)


class TestNFinal:
    # rb60 with a final principal quantum number away from 60: initial and
    # final states share the grid of the larger n, so no overlap is clipped,
    # and a final state far below n starts its solve inside that grid
    @pytest.mark.parametrize("n_final", (10, 20, 48, 62, 73))
    def test_rabi_and_sweep_run(self, tmp_path, n_final):
        assert_rb60_rows(tmp_path, rb60_lines(atom__n_final=n_final))


class TestLargeTrapLevel:
    def test_rabi_and_sweep_run(self, tmp_path):
        # trap.N = trap.M = 200 takes CM moments at a >= 200, where Gamma(a+1)
        # alone leaves the float range: rabi once died on an OverflowError,
        # and sweep exited 2 blaming beam.field_V_per_m
        assert_rb60_rows(tmp_path, rb60_lines(trap__N=200, trap__M=200))


class TestNoLapack:
    def test_rb60_without_eigensolvers(self, tmp_path, monkeypatch):
        # the Gauss rules come from recurrences, so no command calls LAPACK,
        # whose first call costs a process about 1.3 MB of peak memory
        import numpy as np

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg eigensolver called")

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for cached in (cm._gauss_laguerre_unit, coupling._gauss_legendre_unit,
                       coupling._lambda_powers):
            cached.cache_clear()
        for cmd in ("rabi", "sweep", "wavefunction", "verify"):
            assert main([cmd, "--config", str(RB60_CFG),
                         "--out", str(tmp_path)]) == EXIT_OK, cmd


def write_fast(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text("\n".join(FAST) + "\n")
    return p


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        # not a number, a zero denominator, a float that is not finite
        for line in ("beam.l = fish", "atom.m_j = 1/0", "compute.grid_step = inf"):
            rc, _ = run(tmp_path, "channels", cfg_lines=[line])
            assert rc == EXIT_CONFIG
            assert "bad value" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["channels", "--config", str(tmp_path / "none.cfg")])
        assert rc == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_unknown_species_is_config_error(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "channels",
                    cfg_lines=["atom.species = unobtainium"])
        assert rc == EXIT_CONFIG
        assert "unobtainium" in capsys.readouterr().err

    def test_corrupted_species_names_path(self, tmp_path, capsys):
        # a bad atom value; section headers missing a tag or with no '='
        bad = tmp_path / "broken.species"
        for text, what in (("[atom]\nZ = broken\n", "bad atom block"),
                           ("[potential]\n", ":1: malformed section header"),
                           ("[defect l=0]\n", ":1: malformed section header"),
                           ("[potential l=0 x]\n", ":1: malformed section header")):
            bad.write_text(text)
            rc, _ = run(tmp_path, "channels",
                        cfg_lines=[f"atom.species = {bad}"])
            assert rc == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "broken.species" in err and what in err

    @pytest.mark.parametrize("block, key, value",
                             [("[potential l=0]", "a1", "x"),
                              ("[defect l=0 j=0.5]", "d", "1 x")])
    def test_bad_species_value_names_file_and_line(self, tmp_path, capsys,
                                                   block, key, value):
        bad = tmp_path / "broken.species"
        bad.write_text(f"[atom]\nZ = 1\nmass_amu = 1.0\nalpha_c = 0\n"
                       f"{block}\n{key} = {value}\n")
        rc, _ = run(tmp_path, "channels", cfg_lines=[f"atom.species = {bad}"])
        assert rc == EXIT_CONFIG
        assert f"broken.species:6: bad value for {key!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["channels", "rabi", "sweep", "wavefunction"])
    def test_species_without_potential_block_is_2(self, tmp_path, capsys, cmd):
        # potential_for has no block to fall back on, so the file is refused
        # at load time rather than in the first solve
        bad = tmp_path / "nopot.species"
        bad.write_text("[atom]\nZ = 1\nmass_amu = 1.0\nalpha_c = 0\n"
                       "[defect l=0 j=0.5]\nd = 0\n")
        rc, _ = run(tmp_path, cmd, cfg_lines=[f"atom.species = {bad}"])
        assert rc == EXIT_CONFIG
        assert "nopot.species: no [potential" in capsys.readouterr().err

    def test_beam_weight_out_of_range_is_2(self, tmp_path, capsys):
        # at the rb60 widths and q_max = 1, f_coeff is normal up to
        # 2q+|l| = 46 and subnormal from 47; it is exactly 0 from |l| = 47
        rc, _ = run(tmp_path, "channels", cfg_lines=["beam.l = 44"])
        assert rc == EXIT_OK
        for line in ("beam.l = 45", "beam.l = 48", "beam.l = -66"):
            rc, _ = run(tmp_path, "rabi", cfg_lines=[line])
            assert rc == EXIT_CONFIG
            err = capsys.readouterr().err
            assert line in err

    def test_sweep_order_overflow_is_2(self, tmp_path, capsys):
        # w_r ** (2q+|l|) overflows at |l| = 70, and the charge is quoted
        # with the sign the config gave it; q_max = 40 overflows it at every l
        for ls, value in (("1,70", "70"), ("1,-70", "-70")):
            rc, _ = run(tmp_path, "sweep", "--l", ls)
            assert rc == EXIT_CONFIG
            assert f"compute.sweep_l = {value} " in capsys.readouterr().err
        rc, _ = run(tmp_path, "rabi", "--q-max", "40")
        assert rc == EXIT_CONFIG
        assert "beam.q_max = 40" in capsys.readouterr().err

    def test_grid_under_three_nodes_is_2(self, tmp_path, capsys):
        # step 100 leaves the n = 60 grid two nodes, too few for Simpson
        rc, _ = run(tmp_path, "rabi", cfg_lines=["compute.grid_step = 100"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "compute.grid_step" in err and "2 nodes" in err

    def test_grid_over_node_ceiling_is_2(self, tmp_path, capsys):
        # a step so fine the grid would pass MAX_GRID_NODES is refused before
        # numpy is asked for the array; the smallest subnormal step makes the
        # node count itself overflow
        for step in ("1e-300", "5e-324"):
            for cmd in ("rabi", "sweep"):
                rc, _ = run(tmp_path, cmd, cfg_lines=[f"compute.grid_step = {step}"])
                assert rc == EXIT_CONFIG
                err = capsys.readouterr().err
                assert "compute.grid_step" in err and "more than" in err

    @pytest.mark.parametrize("cmd", ["channels", "rabi", "sweep"])
    def test_m_j_off_the_ladder_is_2(self, tmp_path, capsys, cmd):
        # |m_j| <= j holds, but m_j - j is not an integer, so no channel
        # conserves m_j
        rc, _ = run(tmp_path, cmd, cfg_lines=["atom.m_j = 0.25"])
        assert rc == EXIT_CONFIG
        assert "atom.m_j" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["rabi", "sweep"])
    def test_overflowing_field_is_2(self, tmp_path, capsys, cmd):
        # rabi wrote inf rows and sweep overflowed |me| ** 2
        rc, _ = run(tmp_path, cmd, cfg_lines=["beam.field_V_per_m = 1e300"])
        assert rc == EXIT_CONFIG
        assert "beam.field_V_per_m = 1e+300" in capsys.readouterr().err

    def test_other_overflow_is_not_the_field(self, tmp_path, capsys,
                                             monkeypatch):
        # only |me| ** 2 in the sweep's aggregate overflows on a finite |me|;
        # an OverflowError anywhere else is a fault, not the field's doing
        def overflow(*args):
            raise OverflowError("math range error")

        monkeypatch.setattr(coupling, "radial_matrix_element", overflow)
        with pytest.raises(OverflowError):
            run(tmp_path, "sweep", cfg_lines=FAST)
        assert "beam.field_V_per_m" not in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["rabi", "sweep", "wavefunction"])
    @pytest.mark.parametrize("key", ["so_scale", "alpha_c"])
    def test_species_value_that_breaks_states_is_2(self, tmp_path, capsys,
                                                   cmd, key):
        # the radial states come out NaN and flagged non-finite, the initial
        # 60p3/2 among them: the message names the species file and a state,
        # not the field; wavefunction once wrote its NaN rows and exited 0
        rb = Path(lgryd.__file__).parent / "data" / "rb.species"
        mutant = tmp_path / "mutant.species"
        mutant.write_text(re.sub(rf"^{key} = .*$", f"{key} = 1e300",
                                 rb.read_text(), count=1, flags=re.M))
        rc, _ = run(tmp_path, cmd, cfg_lines=[f"atom.species = {mutant}",
                                              "atom.l = 1", "atom.j = 3/2"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert f"atom.species = {mutant}" in err
        assert "the radial state n=60" in err
        assert "beam.field_V_per_m" not in err

    @pytest.mark.parametrize("cmd", ["rabi", "sweep", "wavefunction"])
    def test_state_past_float_range_is_2(self, tmp_path, capsys, cmd):
        # the inward solve of 60 l=59 leaves the float range, so the state is
        # flagged non-finite
        rc, _ = run(tmp_path, cmd, cfg_lines=rb60_lines(atom__l=59,
                                                        atom__j="119/2"))
        assert rc == EXIT_CONFIG
        assert "the radial state n=60 l=59 j=59.5 is not finite" in \
            capsys.readouterr().err

    def test_trap_state_past_cm_cap_is_2(self, tmp_path, capsys):
        # n- = (N - |M|)/2 = 10 is the last one cm_moment computes to its
        # digits; at trap.N = 400 rabi once wrote nan rows
        rc, out = run(tmp_path, "rabi", cfg_lines=["trap.N = 20"])
        assert rc == EXIT_OK and rows(out / "rabi.csv")
        for N in (22, 400):
            for cmd in ("rabi", "sweep"):
                rc, _ = run(tmp_path, cmd, cfg_lines=[f"trap.N = {N}"])
                assert rc == EXIT_CONFIG
                assert f"trap.N = {N}" in capsys.readouterr().err

    def test_validation_failure_is_2(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "channels", cfg_lines=["trap.N = -1"])
        assert rc == EXIT_CONFIG
        assert "trap.N" in capsys.readouterr().err

    def test_distinct_verify_code(self):
        assert EXIT_VERIFY not in (EXIT_OK, EXIT_CONFIG)

    def test_removed_format_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rabi", "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


HOSTILE = ("0", "-1", "x", "", "1e-300", "1e300", "0.25", "1000000000")
# (species-file key, value): the first line setting the key in rb.species
SPECIES_MUTATIONS = (("Z", "0"), ("so_scale", "1e300"), ("alpha_c", "inf"),
                     ("so_scale", "-1"), ("a1", "x"), ("a2", "1e300"),
                     ("rc", "0"), ("d", ""), ("d", "1e300"))


def finite_cells(path):
    """False if any cell of the CSV reads as a float that is not finite."""
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


class TestHostileInput:
    # every rb60 config key under each hostile value, and a few species-file
    # mutations: rabi and sweep exit 0 with finite rows, or 2 with a message
    @pytest.mark.parametrize(
        "where, key, value",
        [("config", k, v) for k in _KEYS for v in HOSTILE]
        + [("species", k, v) for k, v in SPECIES_MUTATIONS])
    def test_exits_0_or_2(self, tmp_path, monkeypatch, capsys, where, key, value):
        monkeypatch.chdir(tmp_path)         # output.dir lands in tmp_path
        lines = RB60_CFG.read_text().splitlines()
        if where == "config":
            lines = [line for line in lines
                     if line.partition("=")[0].strip() != key]
            lines.append(f"{key} = {value}")
        else:
            rb = Path(lgryd.__file__).parent / "data" / "rb.species"
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", rb.read_text(),
                          count=1, flags=re.M)
            (tmp_path / "mutant.species").write_text(text)
            lines.append(f"atom.species = {tmp_path / 'mutant.species'}")
        (tmp_path / "case.cfg").write_text("\n".join(lines) + "\n")
        out = tmp_path / (value if key == "output.dir" else "out")
        for cmd in ("rabi", "sweep"):
            rc = main([cmd, "--config", str(tmp_path / "case.cfg")])
            err = capsys.readouterr().err
            assert rc in (EXIT_OK, EXIT_CONFIG), cmd
            if rc == EXIT_CONFIG:
                assert err.startswith("config error: "), cmd
            else:
                assert finite_cells(out / f"{cmd}.csv"), cmd

    def test_zero_field_sweep_writes_csv_and_svg(self, tmp_path):
        # a valid config with no positive value to put on a log axis
        rc, out = run(tmp_path, "sweep", cfg_lines=["beam.field_V_per_m = 0"])
        assert rc == EXIT_OK
        table = rows(out / "sweep.csv")
        assert table and all(float(r["rabi_kHz"]) == 0.0 for r in table)
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "no positive Rabi frequency to plot" in svg


def _env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(lgryd.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def fresh_python(code):
    """stdout of `code` in a fresh interpreter, so modules loaded by other
    tests do not count."""
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                         env=_env(), capture_output=True, text=True, check=True)
    return out.stdout.strip()


def lgryd_process(*args):
    """`python -m lgryd` with stdout and stderr piped, so both are block
    buffered and only run()'s flush gets them out before os._exit."""
    return subprocess.run([sys.executable, "-m", "lgryd", *args], env=_env(),
                          capture_output=True, text=True, timeout=120)


class TestEntryPoint:
    def test_channels_rb60(self, tmp_path):
        proc = lgryd_process("channels", "--config", str(RB60_CFG),
                             "--out", str(tmp_path))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == f"wrote {tmp_path / 'channels.csv'} (14 channels)\n"
        assert_golden(tmp_path, {"rb60/channels.csv": tmp_path / "channels.csv"})

    def test_rb60_without_compiler(self, tmp_path):
        # a copy of the package with no built library, run with no cc on
        # PATH: the loader's build fails, rabi and sweep run the numpy and
        # Python-loop fallback, write rb60's golden bytes and leave no
        # library behind
        shutil.copytree(Path(lgryd.__file__).parent, tmp_path / "lgryd",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "bin").mkdir()
        env = dict(os.environ, PATH=str(tmp_path / "bin"),
                   PYTHONPATH=str(tmp_path))
        out = tmp_path / "out"
        for cmd in ("rabi", "sweep"):
            proc = subprocess.run([sys.executable, "-m", "lgryd", cmd,
                                   "--config", str(RB60_CFG), "--out", str(out)],
                                  env=env, cwd=tmp_path, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr
        assert_golden(tmp_path, {f"rb60/{name}": out / name for name in
                                 ("rabi.csv", "sweep.csv", "sweep.svg")})
        # the copy's loader ran (it makes __pycache__ before it calls cc)
        assert (tmp_path / "lgryd" / "__pycache__").is_dir()
        assert not list(tmp_path.rglob("*.so"))

    def test_config_error_is_2(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("beam.l = fish\n")
        proc = lgryd_process("channels", "--config", str(tmp_path / "bad.cfg"),
                             "--out", str(tmp_path))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error: ") and proc.stdout == ""

    def test_help_is_0(self):
        proc = lgryd_process("--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: lgryd")

    def test_console_script_enters_through_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"lgryd": "lgryd.cli:run"}


class TestImportCost:
    def test_cli_does_not_import_scipy(self):
        # the verifier loads only for `lgryd verify`, and nothing needs
        # numpy.polynomial (the Gauss rules come from cm's recurrences)
        code = ("import sys, lgryd.cli; "
                "print(sorted(m for m in sys.modules "
                "if m in ('scipy', 'lgryd.verify', 'numpy.polynomial') "
                "or m.startswith('scipy.')))")
        assert fresh_python(code) == "[]"

    def test_cli_does_not_import_kernel_loader(self):
        # the compiled Numerov kernel loads at the first solve, so neither
        # setup nor a numpy-free command pays for ctypes or a compiler run
        code = ("import sys, lgryd.cli; "
                "print(sorted(m for m in ('ctypes', 'subprocess') "
                "if m in sys.modules))")
        assert fresh_python(code) == "[]"

    def test_warm_kernel_solve_imports_no_build_modules(self):
        # a built kernel is loaded without the compiler's subprocess, and
        # its cache key is the source's stat, not a hashlib digest
        from lgryd import atom
        if atom._c_kernel() is None:
            pytest.skip("no compiled Numerov kernel to load: cc is missing "
                        "or the build failed")
        code = ("import sys; from lgryd import atom; "
                "atom.solve_radial(atom.load_species('rb'), 30, 0, 0.5); "
                "print(atom._c_kernel() is not None, sorted(m for m in "
                "('hashlib', 'subprocess') if m in sys.modules))")
        assert fresh_python(code) == "True []"

    def test_dataclasses_have_own_docstrings(self):
        # @dataclass builds a missing docstring from inspect.signature while
        # it creates the class, in every process that imports the module
        code = ("import dataclasses, sys, lgryd.cli; "
                "print(sorted(c.__name__ for n, m in list(sys.modules.items()) "
                "if n.startswith('lgryd') for c in vars(m).values() "
                "if isinstance(c, type) and dataclasses.is_dataclass(c) "
                "and c.__doc__.startswith(c.__name__ + '(')))")
        assert fresh_python(code) == "[]"

    def test_numpy_loads_on_first_array_use(self, tmp_path):
        # setup, --help, channels and config errors stay numpy-free; rabi
        # loads numpy at its first solve
        cfg = Path(__file__).parent.parent / "configs" / "rb60.cfg"
        code = f"""
import contextlib, io, sys
def loaded():
    return "numpy._core" in sys.modules or "numpy.core" in sys.modules
from lgryd import cli
from lgryd.config import parse_config
steps = [loaded()]
cli.Runtime(parse_config({str(cfg)!r}))
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    with contextlib.suppress(SystemExit):
        cli.main(["--help"])
    steps.append(loaded())
    assert cli.main(["channels", "--config", {str(cfg)!r},
                     "--out", {str(tmp_path)!r}]) == 0
    steps.append(loaded())
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["channels", "--config", {str(tmp_path / "none.cfg")!r}]) == 2
    steps.append(loaded())
    assert cli.main(["rabi", "--config", {str(cfg)!r},
                     "--out", {str(tmp_path)!r}]) == 0
steps.append(loaded())
print(steps)
"""
        assert fresh_python(code) == str([False] * 5 + [True])


class TestUnitRoundTrip:
    @pytest.mark.parametrize("x_um", [0.001, 1.0, 2.7, 2.2, 1234.5])
    def test_um_au_um(self, x_um):
        # back to micrometres through the CODATA Bohr radius
        assert um_to_au(x_um) * BOHR_RADIUS_M * 1e6 == pytest.approx(x_um, rel=1e-12)
