"""Layered benchmark of lgryd: end-to-end metrics and, traced, per-layer ones.

Run from the repository root:

    python3 perfbench/run.py --workload nscan --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): cli_rb60, sweep_heavy, nscan.  ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
readable report.  Details (machine info, speed probes, output hashes and
the spans of the first traced pass) go to ``.perfbench_out/``.

Op times are reported twice: in seconds, and in units of a fixed speed probe
timed between ops (``*_rel`` metrics: each op's time over the mean of the
probes before and after it).  The 2-vCPU host this was written on swings
between a fast and a slow state every few seconds; over ten 25 s runs per
workload the median wall time of a pass spread by 15-27% (quartile distance
over median), its probe-relative time by 4-10%.  So the ``_rel`` metrics
carry the bounds and the seconds are reported alongside.

The package is run from ``src/`` of the checkout this file sits in; nothing
needs installing.  ``--size tiny`` is the self-test size, ``--size full`` the
heavy sweep at q_max=4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (CLI_COMMANDS, CLI_OUTPUTS, CONFIG, csv_finite,  # noqa: E402
                       probe, run_passes)

WORKLOADS = ("cli_rb60", "sweep_heavy", "nscan")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150
IMPORTS = {"import.lgryd.cli_s": "lgryd.cli",
           "import.scipy.integrate_s": "scipy.integrate",
           "import.scipy.special_s": "scipy.special",
           "import.numpy_s": "numpy"}

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_rel": ("probe", "lower"),
    "op_p50_rel": ("probe", "lower"),
    "op_tail_rel": ("probe", "lower"),
    "channels_per_probe": ("1/probe", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}


def _layer_table() -> dict:
    """per-layer metric -> (source, field, unit, better).  The source is a
    tracer target, or one of import / wall / trace / host / log_factorial."""
    table = {}
    units = {"s": "s", "self_s": "s", "bytes": "bytes"}
    for target, fields in [
            ("specfun.wigner3j", "calls distinct s"),
            ("specfun.multi_gaunt", "calls distinct s"),
            ("specfun.clebsch_gordan", "calls s"),
            ("coupling.lambda_integral_oracle", "calls distinct s"),
            ("specfun.spherical_bessel", "calls s"),
            ("atom.radial_matrix_element", "calls distinct s"),
            ("cm.cm_moment", "calls distinct s"),
            ("beam.g_coeff", "calls s"),
            ("coupling.enumerate_channels", "calls self_s channels"),
            ("coupling.assemble", "calls self_s closed"),
            ("coupling.compute_scenario", "calls self_s"),
            ("coupling.sweep_topological_charge", "calls self_s"),
            ("atom.solve_radial", "calls s grid_points flagged "
                                  "flag.node-count flag.divergent-core"),
            ("atom.qd_energy", "calls warnings"),
            ("coupling.state_cache", "calls hits"),
            ("config.parse_config", "calls s"),
            ("cli.write_csv", "calls s bytes"),
            ("plot.render_sweep_svg", "calls s"),
            ("cli.channels", "s"), ("cli.rabi", "s"), ("cli.sweep", "s")]:
        for field in fields.split():
            name = f"{target}.{field.replace('flag.', 'flag_').replace('-', '_')}"
            name = name.replace("state_cache.calls", "state_cache.gets")
            table[name] = (target, field, units.get(field, "count"), "lower")
    table["coupling.state_cache.hit_ratio"] = ("coupling.state_cache", "hits/calls",
                                               "ratio", "higher")
    table["specfun.log_factorial.calls"] = ("log_factorial", "calls", "count", "lower")
    table["specfun.log_factorial.hit_ratio"] = ("log_factorial", "hits/calls",
                                                "ratio", "higher")
    for name in IMPORTS:
        table[name] = ("import", name, "s", "lower")
    for name, unit, better in [("pass_s", "s", "lower"), ("op_p50_s", "s", "lower"),
                               ("op_tail_s", "s", "lower"),
                               ("channels_per_s", "1/s", "higher")]:
        table[f"wall.{name}"] = ("wall", name, unit, better)
    table["trace.overhead_frac"] = ("trace", "overhead", "ratio", "lower")
    table["host.probe_s"] = ("host", "probe", "s", "lower")
    return table


PER_LAYER = _layer_table()


# -- processes ---------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, log: Path, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion: (exit code, max RSS in KiB)."""
    with open(log, "ab") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=fh)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def worker(mode, result: Path, log: Path, **opts):
    """Run perfbench/worker.py: (exit code, max RSS KiB, its JSON or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), mode, "--src", str(ROOT / "src"),
            "--result", str(result)]
    for k, v in opts.items():
        argv += [f"--{k}", str(v)]
    rc, rss = spawn(argv, log)
    data = json.loads(result.read_text()) if rc == 0 and result.is_file() else None
    return rc, rss, data


def machine_info() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "platform": platform.platform()}


def import_times(tmp: Path) -> dict:
    """Cumulative import seconds from ``python -X importtime``, median of runs."""
    samples = {name: [] for name in IMPORTS}
    for i in range(IMPORTTIME_SAMPLES):
        log = tmp / f"importtime{i}.log"
        rc, _ = spawn([sys.executable, "-X", "importtime", "-c", "import lgryd.cli"], log)
        if rc != 0:
            raise RuntimeError(f"import lgryd.cli failed:\n{log.read_text()[-2000:]}")
        cumulative = {}
        for line in log.read_text().splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        for name, mod in IMPORTS.items():
            samples[name].append(cumulative.get(mod, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


# -- workloads ---------------------------------------------------------------

def _cli_channels(cmd, out: Path) -> int:
    """Assembled channels in one command's CSV (channels assembles none)."""
    if cmd == "rabi":
        return len((out / "rabi.csv").read_text().splitlines()) - 1
    if cmd == "sweep":
        return sum(line.split(",")[1:2] == ["channel"]
                   for line in (out / "sweep.csv").read_text().splitlines())
    return 0


def run_cli_workload(args, tmp: Path) -> dict:
    """Passes of the three CLI commands, each a fresh process; traced passes
    run each command in a worker under the tracer."""
    rng = random.Random(args.seed)
    children, layers, rss = [], [], []

    def op(cmd, traced):
        out = tmp / f"out-{cmd}"
        out.mkdir(exist_ok=True)
        log = tmp / f"{cmd}.log"
        if traced:
            rc, kib, data = worker("cli", tmp / f"{cmd}.json", log, command=cmd, out=out)
            children.append(data)
        else:
            rc, kib = spawn([sys.executable, "-m", "lgryd", cmd, "--config", CONFIG,
                             "--out", str(out)], log)
        rss.append(kib)
        if rc != 0:
            return None, 0
        blobs = [(out / f).read_bytes() for f in CLI_OUTPUTS[cmd]]
        if not all(csv_finite(b.decode()) for b in blobs):
            return None, 0
        return (tuple(hashlib.sha256(b).hexdigest() for b in blobs),
                tuple(len(b.splitlines()) - 1 for b in blobs)), _cli_channels(cmd, out)

    def plan(traced):
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        return [(cmd, lambda cmd=cmd: op(cmd, traced)) for cmd in order]

    hooks = (children.clear, lambda: layers.append(_merge_cli_children(children)))
    passes, refs = run_passes(args.seconds, plan, bool(args.trace), hooks)
    output = {cmd: {"sha256": dict(zip(CLI_OUTPUTS[cmd], refs[cmd][0])),
                    "rows": dict(zip(CLI_OUTPUTS[cmd], refs[cmd][1]))}
              for cmd in sorted(refs)}
    spans = layers[0].pop("spans") if layers else None
    for layer in layers[1:]:
        layer.pop("spans")
    return {"passes": passes, "layers": layers, "max_rss_kib": max(rss),
            "output": output, "spans": spans}


def _merge_cli_children(children) -> dict:
    """Sum the counters of the traced CLI processes of one pass (distinct
    keys too: each process starts with empty caches)."""
    summary, absent, spans = {}, set(), {}
    lf = {"hits": 0, "misses": 0}
    for child in filter(None, children):
        absent.update(child["absent"])
        for name, stats in child["summary"].items():
            acc = summary.setdefault(name, {})
            for k, v in stats.items():
                acc[k] = acc.get(k, 0) + v
        if lf is not None and child["log_factorial"] is not None:
            lf = {k: lf[k] + child["log_factorial"][k] for k in lf}
        else:
            lf = None
        cmd = next(n for n in child["summary"] if n in {f"cli.{c}" for c in CLI_COMMANDS})
        spans[cmd] = child["spans"]
    return {"summary": summary, "absent": sorted(absent), "log_factorial": lf,
            "spans": spans}


def run_inproc_workload(args, tmp: Path) -> dict:
    rc, kib, data = worker("inproc", tmp / "inproc.json", tmp / "inproc.log",
                           workload=args.workload, seed=args.seed,
                           seconds=args.seconds, trace=args.trace, size=args.size)
    if data is None:
        raise RuntimeError(f"worker exited with {rc}:\n"
                           + (tmp / "inproc.log").read_text()[-4000:])
    data["max_rss_kib"] = kib
    return data


# -- metrics -----------------------------------------------------------------

def tail(values):
    """(value, percentile): the highest of p90, p75, p50 with at least ten
    samples beyond it.  A fixed ladder keeps the percentile the same from run
    to run while the op count drifts with host speed."""
    xs = sorted(values)
    for pct in (90, 75, 50):
        if len(xs) * (100 - pct) / 100 >= 10 or pct == 50:
            idx = min(len(xs) - 1, int(len(xs) * pct / 100))
            return xs[idx], pct


def timings(passes) -> tuple[dict, dict]:
    """Wall timings of a set of passes, and the same with each op time in
    units of the mean of the two speed probes around it (+ notes)."""
    wall, rel = [], []
    for p in passes:
        probes = [p["probe0"]] + [op[3] for op in p["ops"]]
        wall.append([op[1] for op in p["ops"]])
        rel.append([2.0 * op[1] / (probes[i] + probes[i + 1])
                    for i, op in enumerate(p["ops"])])
    channels = sum(p["channels"] for p in passes)
    values, notes = {}, {"passes": len(passes)}
    for suffix, per_pass in (("s", wall), ("rel", rel)):
        ops = [x for r in per_pass for x in r]
        op_tail, pct = tail(ops)
        values[f"pass_{suffix}"] = statistics.median(map(sum, per_pass))
        values[f"op_p50_{suffix}"] = statistics.median(ops)
        values[f"op_tail_{suffix}"] = op_tail
        values["channels_per_" + ("s" if suffix == "s" else "probe")] = channels / sum(ops)
        notes.update(ops=len(ops), op_tail_percentile=pct)
    notes["probe_s"] = statistics.median(
        [p["probe0"] for p in passes] + [op[3] for p in passes for op in p["ops"]])
    return values, notes


def end_to_end_metrics(res, setup_samples) -> tuple[dict, dict]:
    plain = [p for p in res["passes"] if not p["traced"]]
    t, notes = timings(plain)
    ops = [op for p in plain for op in p["ops"]]
    values = {"setup_s": statistics.median(setup_samples),
              **{k: t[k] for k in ("pass_rel", "op_p50_rel", "op_tail_rel",
                                   "channels_per_probe")},
              "peak_rss_mb": res["max_rss_kib"] / 1024.0,
              "ok_frac": 1.0 - sum(not op[2] for op in ops) / len(ops)}
    notes.update({f"wall.{k}": t[k] for k in ("pass_s", "op_p50_s", "op_tail_s",
                                               "channels_per_s")},
                 setup_samples=setup_samples)
    return values, notes


def per_layer_metrics(res, imports) -> tuple[dict, dict]:
    plain = [p for p in res["passes"] if not p["traced"]]
    traced = [p for p in res["passes"] if p["traced"]]
    layers = res["layers"]
    t_plain, notes = timings(plain)
    t_traced, _ = timings(traced)

    def field(layer, target, name):
        return layer["summary"].get(target, {}).get(name, 0)

    values, absent = {}, set(layers[0]["absent"])
    for name, (source, key, unit, _) in PER_LAYER.items():
        if source == "import":
            values[name] = imports[key]
        elif source == "wall":
            values[name] = t_plain[key]
        elif source == "trace":
            values[name] = t_traced["pass_rel"] / t_plain["pass_rel"] - 1.0
        elif source == "host":
            values[name] = notes["probe_s"]
        elif source == "log_factorial":
            lf = layers[0]["log_factorial"]
            if lf is None:
                absent.add("specfun.log_factorial")
                lf = {"hits": 0, "misses": 0}
            calls = lf["hits"] + lf["misses"]
            values[name] = calls if key == "calls" else lf["hits"] / max(calls, 1)
        elif key == "hits/calls":
            values[name] = (field(layers[0], source, "hits")
                            / max(field(layers[0], source, "calls"), 1))
        elif unit == "s":       # times: median over the traced passes
            values[name] = statistics.median(field(l, source, key) for l in layers)
        else:                   # exact counts, from the first traced pass
            values[name] = field(layers[0], source, key)
    counted = [n for n, (s, k, u, _) in PER_LAYER.items() if u in ("count", "bytes")
               and s not in ("log_factorial",)]
    repeat = all(field(l, *PER_LAYER[n][:2]) == values[n] for l in layers for n in counted)
    bases = {n: f"{values[n]} distinct of {values[n[:-8] + 'calls']} calls"
             for n in PER_LAYER if n.endswith(".distinct")}
    for n, base in (("coupling.state_cache.hit_ratio", "coupling.state_cache.gets"),
                    ("specfun.log_factorial.hit_ratio", "specfun.log_factorial.calls")):
        bases[n] = f"{values[n]:.6f} of {values[base]} calls"
    notes.update(absent=sorted(absent), counts_repeat=repeat,
                 traced_passes=len(traced), bases=bases)
    return values, notes


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "full", "tiny"), default="bench")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/lgryd/__init__.py", CONFIG) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    outdir = ROOT / OUT_DIR
    outdir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir))
    try:
        return _run(args, outdir, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, outdir: Path, tmp: Path) -> int:
    info = machine_info()
    probe_start = probe()
    setup_samples, imports = [], {}
    if args.trace:
        imports = import_times(tmp)
    else:
        for i in range(SETUP_SAMPLES):
            rc, _, data = worker("setup", tmp / f"setup{i}.json", tmp / "setup.log")
            if data is None:
                print((tmp / "setup.log").read_text()[-4000:], file=sys.stderr)
                return 1
            setup_samples.append(data["setup_s"])
    runner = run_cli_workload if args.workload == "cli_rb60" else run_inproc_workload
    res = runner(args, tmp)
    probe_end = probe()

    all_ops = [op for p in res["passes"] for op in p["ops"]]
    failed = sum(not op[2] for op in all_ops)
    if args.trace:
        values, notes = per_layer_metrics(res, imports)
        units = {k: v[2] for k, v in PER_LAYER.items()}
        correct = failed == 0 and notes["counts_repeat"]
    else:
        values, notes = end_to_end_metrics(res, setup_samples)
        units = {k: v[0] for k, v in END_TO_END.items()}
        correct = failed == 0

    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    spans = res.pop("spans", None)
    if spans:
        (outdir / f"{stem}-spans.json").write_text(json.dumps(spans))
    details = {"args": vars(args), "machine": info,
               "probe_s": {"start": probe_start, "end": probe_end},
               "output": res["output"], "notes": notes, "metrics": values,
               "passes": res["passes"], "layers": res.get("layers", [])}
    (outdir / f"{stem}.json").write_text(json.dumps(details, indent=1))

    print(f"workload {args.workload} size {args.size} seed {args.seed} "
          f"trace {args.trace}: {len(all_ops)} ops, {failed} failed")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"speed probe start {probe_start:.6f} s, end {probe_end:.6f} s")
    print(f"output {json.dumps(res['output'], sort_keys=True)}")
    print(f"notes {json.dumps(notes, sort_keys=True)}")
    for name, value in values.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")
    result = {"correct": bool(correct), "attempted": len(all_ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
