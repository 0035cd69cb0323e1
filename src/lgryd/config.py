"""Scenario configuration: flat dotted-key text files.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  All unit-bearing quantities live at this boundary (micrometres,
V/m); everything past the parser is atomic units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _parse_half(s):
    # accept "0.5", "-1/2", "3/2"
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return float(num) / float(den)
    return float(s)


def _parse_int_list(s):
    return tuple(int(tok) for tok in s.replace(",", " ").split())


@dataclass
class ScenarioConfig:
    # beam
    l: int = 1
    waist_um: float = 2.7
    field_V_per_m: float = 2400.0
    sigma: int = 1
    q_max: int = 1
    mass_ratio: float = 1.0
    # atom
    species: str = "rb"
    n: int = 60
    l_i: int = 0
    j_i: float = 0.5
    m_j: float = -0.5
    n_final: int | None = None
    # trap
    w_r_um: float = 2.2
    N: int = 0
    M: int = 0
    # compute
    final_l_f_max: int = 3
    sweep_l: tuple = (1, 2, 3, 4)
    grid_step: float = 0.01
    j_policy: str = "stretched"
    # output
    out_dir: str = "out"

    def validate(self) -> "ScenarioConfig":
        checks = [
            (self.waist_um > 0, "beam.waist_um must be positive"),
            (self.field_V_per_m >= 0, "beam.field_V_per_m must be non-negative"),
            (self.sigma in (-1, 0, 1), "beam.sigma must be -1, 0 or +1"),
            (self.q_max >= 0, "beam.q_max must be non-negative"),
            (0 < self.mass_ratio <= 1, "beam.mass_ratio must lie in (0, 1]"),
            (self.n > self.l_i >= 0, "atom.n must exceed atom.l >= 0"),
            (abs(abs(self.j_i - self.l_i) - 0.5) < 1e-9, "atom.j must be atom.l +- 1/2"),
            (abs(self.m_j) <= self.j_i + 1e-9, "atom.m_j must satisfy |m_j| <= j"),
            (self.n_final is None or self.n_final >= 1, "atom.n_final must be >= 1"),
            (self.w_r_um > 0, "trap.w_r_um must be positive"),
            (self.N >= abs(self.M), "trap.N must be >= |trap.M|"),
            ((self.N - abs(self.M)) % 2 == 0, "trap.N - |trap.M| must be even"),
            (self.final_l_f_max >= 0, "compute.final_l_f_max must be non-negative"),
            (len(self.sweep_l) > 0, "compute.sweep_l must be non-empty"),
            (self.grid_step > 0, "compute.grid_step must be positive"),
            (self.j_policy in ("stretched", "all"),
             "compute.j_policy must be 'stretched' or 'all'"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        return self


# dotted key -> (attribute, parser)
_KEYS = {
    "beam.l": ("l", int),
    "beam.waist_um": ("waist_um", float),
    "beam.field_V_per_m": ("field_V_per_m", float),
    "beam.sigma": ("sigma", int),
    "beam.q_max": ("q_max", int),
    "beam.mass_ratio": ("mass_ratio", float),
    "atom.species": ("species", str),
    "atom.n": ("n", int),
    "atom.l": ("l_i", int),
    "atom.j": ("j_i", _parse_half),
    "atom.m_j": ("m_j", _parse_half),
    "atom.n_final": ("n_final", int),
    "trap.w_r_um": ("w_r_um", float),
    "trap.N": ("N", int),
    "trap.M": ("M", int),
    "compute.final_l_f_max": ("final_l_f_max", int),
    "compute.sweep_l": ("sweep_l", _parse_int_list),
    "compute.grid_step": ("grid_step", float),
    "compute.j_policy": ("j_policy", str),
    "output.dir": ("out_dir", str),
}


def parse_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = ScenarioConfig()
    seen = set()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parse = _KEYS[key]
        try:
            setattr(cfg, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: "
                              f"{value!r} ({exc})") from None
    return cfg.validate()
