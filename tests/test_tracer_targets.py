"""The benchmark tracer must find every package function it measures.

`perfbench/tracer.py` patches its targets by module and attribute name and
records a missing one as absent instead of failing, so a rename in the
package would silently turn that target's per-layer metrics into zeros.
"""

import types
from pathlib import Path

import lgryd.cli  # noqa: F401  (load every module the benchmark loads)

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


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
