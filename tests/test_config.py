"""Config-file parsing: dotted keys, diagnostics with file:line, validation.

Everything numeric crossing this boundary is still in lab units (um, V/m);
conversion happens downstream, so the parser itself is unit-ignorant.
"""

import pytest

from lgryd.config import ConfigError, ScenarioConfig, parse_config


def write_cfg(tmp_path, text, name="t.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestDefaults:
    def test_reference_scenario(self):
        cfg = ScenarioConfig().validate()
        assert (cfg.l, cfg.sigma, cfg.q_max) == (1, 1, 1)
        assert (cfg.species, cfg.n, cfg.l_i, cfg.j_i, cfg.m_j) == \
            ("rb", 60, 0, 0.5, -0.5)
        assert (cfg.waist_um, cfg.w_r_um, cfg.field_V_per_m) == \
            (2.7, 2.2, 2400.0)
        assert (cfg.N, cfg.M) == (0, 0)
        assert cfg.sweep_l == (1, 2, 3, 4)
        assert cfg.n_final is None

    def test_shipped_file_matches_defaults(self):
        # the repo config only widens the final-l cap (sweep headroom)
        import pathlib
        shipped = pathlib.Path(__file__).parent.parent / "configs" / "rb60.cfg"
        cfg = parse_config(shipped)
        ref = ScenarioConfig(final_l_f_max=cfg.final_l_f_max)
        assert cfg == ref
        assert cfg.final_l_f_max == 5


class TestParsing:
    def test_round_trip_all_keys(self, tmp_path):
        p = write_cfg(tmp_path, """
            # full inventory
            beam.l = -2
            beam.waist_um = 3.1
            beam.field_V_per_m = 120.5
            beam.sigma = -1
            beam.q_max = 4
            beam.mass_ratio = 0.5
            atom.species = hydrogen
            atom.n = 12
            atom.l = 1
            atom.j = 3/2
            atom.m_j = -3/2
            atom.n_final = 13
            trap.w_r_um = 1.5
            trap.N = 4
            trap.M = -2
            compute.final_l_f_max = 2
            compute.sweep_l = 1 2 5
            compute.grid_step = 0.02
            compute.j_policy = all
            output.dir = results
        """)
        cfg = parse_config(p)
        assert cfg.l == -2 and cfg.sigma == -1 and cfg.q_max == 4
        assert cfg.mass_ratio == 0.5
        assert cfg.species == "hydrogen" and cfg.n == 12
        assert cfg.l_i == 1 and cfg.j_i == 1.5 and cfg.m_j == -1.5
        assert cfg.n_final == 13
        assert cfg.N == 4 and cfg.M == -2
        assert cfg.sweep_l == (1, 2, 5)
        assert cfg.j_policy == "all" and cfg.out_dir == "results"

    def test_half_integer_both_notations(self, tmp_path):
        a = parse_config(write_cfg(tmp_path, "atom.j = 0.5", "a.cfg"))
        b = parse_config(write_cfg(tmp_path, "atom.j = 1/2", "b.cfg"))
        assert a.j_i == b.j_i == 0.5

    def test_comma_and_space_lists(self, tmp_path):
        a = parse_config(write_cfg(tmp_path, "compute.sweep_l = 1,2,3", "a.cfg"))
        b = parse_config(write_cfg(tmp_path, "compute.sweep_l = 1 2 3", "b.cfg"))
        assert a.sweep_l == b.sweep_l == (1, 2, 3)

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path,
                                     "\n# header\nbeam.l = 2  # trailing\n\n"))
        assert cfg.l == 2


class TestDiagnostics:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_unknown_key_names_location(self, tmp_path):
        p = write_cfg(tmp_path, "beam.l = 1\nbeam.waists = 2\n")
        with pytest.raises(ConfigError, match=r"t\.cfg:2: unknown key"):
            parse_config(p)

    def test_duplicate_key(self, tmp_path):
        p = write_cfg(tmp_path, "beam.l = 1\nbeam.l = 2\n")
        with pytest.raises(ConfigError, match=r":2: duplicate key"):
            parse_config(p)

    def test_bad_value_reports_line(self, tmp_path):
        p = write_cfg(tmp_path, "# c\nbeam.q_max = many\n")
        with pytest.raises(ConfigError, match=r":2: bad value for 'beam.q_max'"):
            parse_config(p)

    def test_stray_line(self, tmp_path):
        p = write_cfg(tmp_path, "just words\n")
        with pytest.raises(ConfigError, match=r":1: expected"):
            parse_config(p)


class TestValidation:
    @pytest.mark.parametrize("line,fragment", [
        ("beam.waist_um = -1", "waist_um"),
        ("beam.sigma = 2", "sigma"),
        ("beam.q_max = -1", "q_max"),
        ("beam.mass_ratio = 1.5", "mass_ratio"),
        ("atom.n = 0", "atom.n"),
        ("atom.j = 5/2", "atom.j"),
        ("atom.m_j = -3/2", "m_j"),
        ("atom.m_j = 1/4", "m_j must differ"),
        ("trap.N = 1", "trap.N"),          # N - |M| odd
        ("trap.M = 1", "trap.N"),
        ("compute.sweep_l =", "sweep_l"),
        ("compute.grid_step = 0", "grid_step"),
        ("compute.j_policy = both", "j_policy"),
    ])
    def test_rejects(self, tmp_path, line, fragment):
        p = write_cfg(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match=fragment):
            parse_config(p)

    def test_validate_returns_self(self):
        cfg = ScenarioConfig()
        assert cfg.validate() is cfg
