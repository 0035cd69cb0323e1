"""Interleaved A/B comparison of two checkouts on every benchmark workload.

    python3 perfbench/compare.py --base ../lgryd-parent --change . --pairs 10

Pair i runs every workload of the change's BENCHMARK.json on both checkouts
back to back with seed ``--seed + i``, alternating which side goes first and
cycling the workload order, so host drift falls on both sides alike.  Each
side runs its own ``perfbench/run.py``; a change that claims a gain leaves
the benchmark untouched, so the code is the same.  For every end-to-end
metric it prints each side's median and quartiles and the pairs the change
won (ties count for neither), the numbers a claim needs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed}: exit "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--json", type=Path, help="also write the raw values here")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    raw = {w: {"base": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        sides = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
            for side in sides:
                res = run(getattr(args, side), w, args.seed + i, seconds)
                raw[w][side].append({k: v["value"] for k, v in res["metrics"].items()}
                                    | {"_correct": res["correct"]})
                print(f"pair {i} {w} {side}: correct={res['correct']}", flush=True)

    for w in workloads:
        print(f"\n{w}: {args.pairs} pairs")
        for name, sense in better.items():
            b = [r[name] for r in raw[w]["base"]]
            c = [r[name] for r in raw[w]["change"]]
            wins = sum((cv < bv) if sense == "lower" else (cv > bv)
                       for bv, cv in zip(b, c))
            bq, cq = quartiles(b), quartiles(c)
            print(f"  {name:16s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                  f"change won {wins}/{len(b)}")
    if args.json:
        args.json.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
