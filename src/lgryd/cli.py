"""Batch front-end: channels / rabi / sweep / wavefunction / verify.

All output is CSV (plus one standalone SVG for sweeps) with fixed 10
significant-digit formatting, so identical configs reproduce identical
bytes.  Exit codes: 0 success, 2 configuration problems, 3 verification
failure.  The console script and ``python -m lgryd`` enter through `run`,
which ends the process as soon as `main` returns; `main` itself returns the
code and is what in-process callers use.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .atom import default_grid, load_species
from .beam import BeamSpec, f_coeff
from .cm import CMState
from .config import ConfigError, ScenarioConfig, _parse_int_list, parse_config
from .coupling import StateSolver, compute_scenario, scenario_channels, \
    sweep_topological_charge
from .plot import render_sweep_svg
from .units import field_vpm_to_au, um_to_au

EXIT_OK, EXIT_CONFIG, EXIT_VERIFY = 0, 2, 3

CHANNEL_COLS = ("l", "sigma", "q", "l1", "l2", "l3", "m1", "m2", "m3",
                "M_f", "final_state", "alpha", "beta")
RABI_COLS = CHANNEL_COLS + ("coeff", "radial_e", "radial_cm", "angular",
                            "cg_weight", "rabi_kHz", "lambda_audit")
SWEEP_COLS = ("l", "kind", "channel_group", "final_state", "M_f", "N_f",
              "q", "rabi_kHz")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _check_beam_orders(cfg: ScenarioConfig, w0: float, w_r: float) -> None:
    """g_coeff multiplies f_coeff, which falls as w0^-(2q+|l|), by
    w_r^(2q+|l|): both must be normal finite floats at the largest order any
    command reaches, or the weight comes out 0, short of digits, or raises."""
    key, value = "compute.sweep_l", max(cfg.sweep_l, key=abs)
    if abs(cfg.l) >= abs(value):
        key, value = "beam.l", cfg.l
    top = abs(value)
    order = 2 * cfg.q_max + top
    try:
        factors = (f_coeff(top, cfg.q_max, w0), w_r ** order)
    except OverflowError:
        factors = (math.inf,)
    if not all(sys.float_info.min <= f <= sys.float_info.max for f in factors):
        raise ConfigError(f"{key} = {value} with beam.q_max = {cfg.q_max}: the "
                          f"beam weight of order 2q+|l| = {order} leaves the "
                          "range of normal floats")


def _check_finite(rt: Runtime, rates) -> None:
    """Refuse a run that solved a radial state flagged non-finite (bad species
    data, or an inward solve that left the float range), then Rabi
    frequencies outside the float range, which are linear in the field
    amplitude."""
    for st in rt.solver.states:
        if "non-finite" in st.flags:
            raise ConfigError(f"the radial state n={st.n} l={st.l} "
                              f"j={st.j:g} is not finite: its inward solve on "
                              f"the atom.species = {rt.cfg.species} potential "
                              "left the range of floats")
    if not all(map(math.isfinite, rates)):
        raise ConfigError("the Rabi frequencies at beam.field_V_per_m = "
                          f"{rt.cfg.field_V_per_m:g} leave the range of floats")


def _channel_fields(ch):
    return (ch.l, ch.sigma, ch.q, ch.l1, ch.l2, ch.l3, ch.m1, ch.m2, ch.m3,
            ch.M_f, str(ch.final), ch.alpha, ch.beta)


class Runtime:
    """Config resolved into solver-ready objects (atomic units)."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.species = load_species(cfg.species)
        self.beam = BeamSpec(l=cfg.l, w0=um_to_au(cfg.waist_um),
                             E0=field_vpm_to_au(cfg.field_V_per_m),
                             sigma=cfg.sigma, q_max=cfg.q_max,
                             mass_ratio=cfg.mass_ratio)
        try:
            self.cm_i = CMState(cfg.N, cfg.M, um_to_au(cfg.w_r_um))
        except ValueError as exc:
            raise ConfigError(f"trap.N = {cfg.N}: {exc}") from None
        # wavefunction solves on n's grid, the other commands on the grid of
        # max(n, n_final): both must be grids a solve can use
        grid_n = max(cfg.n, cfg.n_final or 0)
        try:
            for n in {cfg.n, grid_n}:
                default_grid(n, cfg.grid_step)
        except ValueError as exc:
            raise ConfigError(f"compute.grid_step: {exc}") from None
        _check_beam_orders(cfg, self.beam.w0, self.cm_i.w_r)
        self.solver = StateSolver(self.species, cfg.grid_step)
        self.scenario_kwargs = dict(final_l_f_max=cfg.final_l_f_max,
                                    n_final=cfg.n_final, j_policy=cfg.j_policy)

    def scenario(self):
        cfg = self.cfg
        return compute_scenario(self.solver, self.beam, cfg.n, cfg.l_i,
                                cfg.j_i, cfg.m_j, self.cm_i,
                                **self.scenario_kwargs)


def cmd_channels(rt: Runtime, out: Path) -> int:
    cfg = rt.cfg                  # the channels need the label, not a solve
    chans = scenario_channels(rt.beam, cfg.n, cfg.l_i, cfg.j_i, cfg.m_j,
                              rt.cm_i, **rt.scenario_kwargs)
    write_csv(out / "channels.csv", CHANNEL_COLS,
              [_channel_fields(c) for c in chans])
    print(f"wrote {out / 'channels.csv'} ({len(chans)} channels)")
    return EXIT_OK


def cmd_rabi(rt: Runtime, out: Path) -> int:
    results = rt.scenario()
    _check_finite(rt, (r.rabi_kHz for r in results))
    rows = [_channel_fields(r.channel)
            + (r.coeff, r.radial_e, r.radial_cm, r.angular, r.cg_weight,
               r.rabi_kHz, r.lambda_audit) for r in results]
    write_csv(out / "rabi.csv", RABI_COLS, rows)
    print(f"wrote {out / 'rabi.csv'} ({len(rows)} channels)")
    return EXIT_OK


def cmd_sweep(rt: Runtime, out: Path) -> int:
    cfg = rt.cfg
    rows = sweep_topological_charge(cfg.sweep_l, rt.solver, rt.beam, cfg.n,
                                    cfg.l_i, cfg.j_i, cfg.m_j, rt.cm_i,
                                    **rt.scenario_kwargs)
    _check_finite(rt, (r.rabi_kHz for r in rows))
    write_csv(out / "sweep.csv", SWEEP_COLS, rows)
    (out / "sweep.svg").write_text(render_sweep_svg(rows))
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows) and "
          f"{out / 'sweep.svg'}")
    return EXIT_OK


def cmd_wavefunction(rt: Runtime, out: Path) -> int:
    st = rt.solver.get(rt.cfg.n, rt.cfg.l_i, rt.cfg.j_i)
    _check_finite(rt, ())
    r, u = st.u_of_r()          # grid never touches r = 0
    write_csv(out / "wavefunction.csv", ("r", "u", "psi"),
              zip(r, u, u / r))
    print(f"wrote {out / 'wavefunction.csv'} "
          f"(n={st.n} l={st.l} j={st.j}, {len(r)} points, "
          f"nodes={st.nodes}, flags={','.join(st.flags) or 'none'})")
    return EXIT_OK


def cmd_verify(cfg: ScenarioConfig, out: Path) -> int:
    # Suites are self-contained (analytic oracles only), so they run even
    # when the configured species data is unusable.
    from .verify import run_all            # only verify runs the suites
    ok, text = run_all()
    (out / "verify.txt").write_text(text)
    print(text, end="")
    return EXIT_OK if ok else EXIT_VERIFY


# command -> (handler, needs solver-ready runtime)
_COMMANDS = {"channels": (cmd_channels, True), "rabi": (cmd_rabi, True),
             "sweep": (cmd_sweep, True),
             "wavefunction": (cmd_wavefunction, True),
             "verify": (cmd_verify, False)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgryd",
        description="Vortex-beam Rydberg transition channels and Rabi "
                    "frequencies in a 2-D trap.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("channels", "enumerate transition channels to CSV"),
            ("rabi", "assemble per-channel Rabi frequencies to CSV"),
            ("sweep", "sweep the topological charge; CSV + SVG plot"),
            ("wavefunction", "dump the initial radial wavefunction to CSV"),
            ("verify", "run the built-in verification suites")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="scenario config file (defaults apply otherwise)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides output.dir)")
        p.add_argument("--q-max", type=int, metavar="N", dest="q_max",
                       help="override beam.q_max")
        p.add_argument("--l", metavar="LIST", dest="l_list",
                       help="override compute.sweep_l, e.g. \"1,2,3,4\"")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, needs_runtime = _COMMANDS[args.command]
    try:
        cfg = parse_config(args.config) if args.config else ScenarioConfig()
        if args.q_max is not None:
            cfg.q_max = args.q_max
        if args.l_list is not None:
            cfg.sweep_l = _parse_int_list(args.l_list)
        if args.out is not None:
            cfg.out_dir = args.out
        cfg.validate()
        target = Runtime(cfg) if needs_runtime else cfg
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        # species-file and config problems share the config exit code
        return _config_error(exc)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return handler(target, out)
    except ConfigError as exc:    # Rabi frequencies out of the float range
        return _config_error(exc)


def _config_error(exc: Exception) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def run() -> None:
    """Console entry point: `main`, then end the process at once with its
    exit code, skipping interpreter teardown (module cleanup and the final
    GC passes over every loaded module's objects): about 30 ms of a rb60
    `channels` process on a 2-vCPU Linux host (Python 3.11), and 47 ms of
    `rabi` or `sweep` when they still loaded numpy.  Safe because every
    output is written by `Path.write_text`, closed before it returns, and
    lgryd registers no atexit handler and starts no thread or child
    process; stdout and stderr are flushed here.  An exception, argparse's
    SystemExit included, leaves the normal way."""
    rc = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    run()
