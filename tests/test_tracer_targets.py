"""The benchmark tracer must find every package function it measures, and
trace a real run without losing a count.

`perfbench/tracer.py` patches its targets by module and attribute name and
records a missing one as absent instead of failing, so a rename in the
package would silently turn that target's per-layer metrics into zeros.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import lgryd
import lgryd.cli  # noqa: F401  (load every module the benchmark loads)

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
CONFIG = Path(__file__).parent.parent / "configs" / "rb60.cfg"


def load_tracer():
    # executed from source, so no bytecode cache lands beside the benchmark
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_every_target_present():
    tracer = load_tracer().Tracer()
    with tracer.installed() as t:
        absent = list(t.absent)
    assert absent == []
    assert tracer._patched == []      # uninstalled again


def test_cli_import_loads_every_target_module():
    # the tracer patches only modules loaded when it installs, so a package
    # module that loaded lazily would read 0 on every per-layer metric
    src = str(Path(lgryd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, lgryd.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    wanted = {spec[0] for spec in load_tracer().TARGETS.values()}
    assert wanted and wanted <= set(out.stdout.split())


def test_traced_scenario_and_sweep():
    # a small rb60 scenario and a one-l sweep under the tracer: keyed targets
    # take hashable keys, every distinct state is solved exactly once, and
    # j_0 is called at least once per lambda integral, so none of these
    # per-layer metrics can fall to 0 unnoticed
    import dataclasses

    from lgryd import cli, coupling
    from lgryd.config import parse_config
    from test_coupling import clear_process_caches

    cfg = dataclasses.replace(parse_config(CONFIG), q_max=0)
    # factors of plain numbers are cached per process: empty them, so the
    # angular algebra and the CM moments run under the tracer
    clear_process_caches()
    tracer = load_tracer().Tracer()
    with tracer.installed():
        rt = cli.Runtime(cfg)
        rt.scenario()
        coupling.sweep_topological_charge(
            (2,), rt.solver, rt.beam, cfg.n, cfg.l_i, cfg.j_i, cfg.m_j,
            rt.cm_i, final_l_f_max=cfg.final_l_f_max)
    stats = tracer.summary()
    keyed = [name for name, spec in tracer.targets.items() if spec[2]]
    assert len(keyed) == 5
    for name in keyed:
        assert stats[name]["calls"] > 0 and stats[name]["distinct"] > 0, name
    assert stats["atom.solve_radial"]["calls"] == len(rt.solver._cache) > 0
    oracle = stats["coupling.lambda_integral_oracle"]["calls"]
    assert stats["specfun.spherical_bessel"]["calls"] >= oracle > 0
