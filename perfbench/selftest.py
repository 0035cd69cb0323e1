"""Self-test of the benchmark at tiny size (2 values of n, 1 value of l).

    python3 perfbench/selftest.py

Checks that every workload in BENCHMARK.json, untraced and traced, emits
exactly the declared metrics with their units and finite values; that the
end-to-end metrics are never 0; that the tracer patches every binding of a
function, reports a missing target as absent and restores the package; and
that the benchmark refuses to run without the package sources.  Exits 0 when
all checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec: dict) -> list[str]:
    errors = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{wl['name']} trace {trace}"
            proc = run_bench(ROOT, wl["name"], trace)
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ: missing "
                              f"{sorted(set(want) - set(got))}, extra "
                              f"{sorted(set(got) - set(want))}, units "
                              f"{[k for k in want if k in got and got[k] != want[k]]}")
            for name, m in result["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    errors.append(f"{where}: {name} = {v!r}")
                elif trace == 0 and v == 0:
                    errors.append(f"{where}: end-to-end metric {name} is 0")
            print(f"checked {where}: {len(got)} metrics, {result['attempted']} ops")
    return errors


def check_tracer() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import lgryd.cli  # noqa: F401  (loads every module the CLI uses)
    from lgryd import coupling, specfun
    from tracer import TARGETS, Tracer

    modules = [m for n, m in sys.modules.items() if n.startswith("lgryd")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    get_before = coupling.StateSolver.get
    targets = dict(TARGETS)
    targets["specfun.removed_helper"] = ("lgryd.specfun", "removed_helper",
                                         False, None, None)
    tracer = Tracer(targets)
    errors = []
    with tracer.installed():
        if specfun.multi_gaunt is not coupling.multi_gaunt or \
                not hasattr(coupling.multi_gaunt, "__wrapped__"):
            errors.append("multi_gaunt bound in coupling was not patched")
        if coupling.StateSolver.get is get_before:
            errors.append("StateSolver.get was not patched")
        specfun.wigner3j(1, 1, 0, 0, 0, 0)
        coupling.multi_gaunt([(1, 0)], (1, 0), (0, 0))
    summary = tracer.summary()
    if summary["specfun.wigner3j"]["calls"] < 2:   # direct call + via multi_gaunt
        errors.append(f"wigner3j calls not counted: {summary['specfun.wigner3j']}")
    if tracer.absent != ["specfun.removed_helper"]:
        errors.append(f"absent targets: {tracer.absent}")
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or coupling.StateSolver.get is not get_before:
        errors.append(f"attributes not restored: {changed}")
    print(f"checked tracer: {len(tracer.span_name)} spans")
    return errors


def check_bare_checkout() -> list[str]:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(bare, "nscan", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    print("checked bare checkout")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_tracer() + check_bare_checkout() + check_metrics(spec)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
