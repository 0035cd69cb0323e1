"""Benchmark child process; ``run.py`` starts it, never a user.

Modes:
  setup    time ``import lgryd.cli`` + parse rb60 + build ``Runtime``.
  inproc   run the sweep_heavy or nscan loop, optionally tracing every
           second pass.
  cli      run one ``lgryd`` command in-process under the tracer.

Each mode writes one JSON document to ``--result``.  The package is
imported from ``--src`` and nowhere else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (CONFIG, NSCAN_OVERRIDES, SIZES, SWEEP_OVERRIDES,  # noqa: E402
                       all_finite, channel_fields, digest, run_passes)


def _import_package(src: str):
    t0 = time.perf_counter()
    import lgryd.cli as cli
    from lgryd.config import parse_config
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"lgryd imported from {cli.__file__}, not from {src}")
    base = parse_config(CONFIG)
    cli.Runtime(base)
    return cli, base, time.perf_counter() - t0


def _log_factorial_info():
    from lgryd import specfun
    info = getattr(getattr(specfun, "log_factorial", None), "cache_info", None)
    return info() if info else None


def _cache_delta(before, after) -> dict | None:
    if before is None or after is None:
        return None
    return {"hits": after.hits - before.hits,
            "misses": after.misses - before.misses}


def _sweep_op(cli, cfg, order):
    from lgryd.coupling import sweep_topological_charge
    rt = cli.Runtime(cfg)        # fresh state cache per op
    rows = sweep_topological_charge(order, rt.solver, rt.beam, cfg.n, cfg.l_i,
                                    cfg.j_i, cfg.m_j, rt.cm_i,
                                    final_l_f_max=cfg.final_l_f_max,
                                    n_final=cfg.n_final, j_policy=cfg.j_policy)
    rows = sorted((tuple(r) for r in rows), key=lambda r: r[0])  # stable in l
    return rows, sum(r[1] == "channel" for r in rows)


def _nscan_op(cli, cfg):
    rt = cli.Runtime(cfg)        # fresh state cache per op
    rows = [(cfg.n,) + channel_fields(r.channel)
            + (r.coeff, r.radial_e, r.radial_cm, r.angular, r.cg_weight,
               r.rabi_kHz, r.lambda_audit) for r in rt.scenario()]
    return rows, len(rows)


def _checked(op):
    """Op thunk result as (fingerprint, channels); None on non-finite output."""
    rows, channels = op()
    return ((digest(rows), len(rows)) if all_finite(rows) else None), channels


def _planner(workload, cli, base, size, rng):
    """plan(traced) -> [(op key, thunk)] for one pass, in seed order."""
    if workload == "sweep_heavy":
        cfg = dataclasses.replace(base, q_max=size["sweep_q_max"],
                                  **SWEEP_OVERRIDES)

        def plan(traced):
            order = list(size["sweep_l"])
            rng.shuffle(order)
            return [("sweep", lambda: _checked(lambda: _sweep_op(cli, cfg, order)))]
        return plan

    def plan(traced):
        ns = list(size["nscan_n"])
        rng.shuffle(ns)
        return [(n, lambda n=n: _checked(lambda: _nscan_op(
            cli, dataclasses.replace(base, n=n, **NSCAN_OVERRIDES)))) for n in ns]
    return plan


def _warm_up(workload, cli, base, size):
    """One small untimed op, so first-call costs stay out of the timings."""
    if workload == "sweep_heavy":
        _sweep_op(cli, dataclasses.replace(base, q_max=0, **SWEEP_OVERRIDES), (1,))
    else:
        _nscan_op(cli, dataclasses.replace(base, n=size["nscan_n"][0],
                                           **NSCAN_OVERRIDES))


def run_inproc(args) -> dict:
    cli, base, setup_s = _import_package(args.src)
    size = SIZES[args.size]
    plan = _planner(args.workload, cli, base, size, random.Random(args.seed))
    _warm_up(args.workload, cli, base, size)
    layers, spans = [], []
    hooks = (None, None)
    if args.trace:
        from tracer import Tracer
        tracer, lf0 = Tracer(), []

        def begin():
            tracer.reset()
            lf0[:] = [_log_factorial_info()]
            tracer.install()

        def end():
            tracer.uninstall()
            layers.append({"summary": tracer.summary(), "absent": tracer.absent,
                           "log_factorial": _cache_delta(lf0[0], _log_factorial_info())})
            if not spans:
                spans.append(tracer.spans())
        hooks = (begin, end)

    passes, refs = run_passes(args.seconds, plan, bool(args.trace), hooks)
    keys = sorted(refs, key=str)
    fingerprints = [(str(k),) + refs[k] for k in keys]
    return {"setup_s": setup_s, "passes": passes, "layers": layers,
            "spans": spans[0] if spans else None,
            "output": {"sha256": digest(fingerprints),
                       "rows": sum(f[2] for f in fingerprints)}}


def run_cli(args) -> dict:
    cli, _, _ = _import_package(args.src)
    from tracer import Tracer
    tracer = Tracer()
    lf0 = _log_factorial_info()
    with tracer.installed():
        with tracer.span(f"cli.{args.command}"):
            rc = cli.main([args.command, "--config", CONFIG, "--out", args.out])
    return {"rc": rc, "summary": tracer.summary(), "absent": tracer.absent,
            "log_factorial": _cache_delta(lf0, _log_factorial_info()),
            "spans": tracer.spans()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "inproc", "cli"))
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--command")
    ap.add_argument("--out")
    ap.add_argument("--size", default="bench")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        result = {"setup_s": _import_package(args.src)[2]}
    elif args.mode == "inproc":
        result = run_inproc(args)
    else:
        result = run_cli(args)
    Path(args.result).write_text(json.dumps(result))
    return int(result.get("rc", 0))


if __name__ == "__main__":
    sys.exit(main())
