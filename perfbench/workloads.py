"""Workload definitions shared by the orchestrator and the worker.

Every workload is a closed loop with one client.  The seed only sets the
order in which ops are issued; outputs are compared independent of order.

cli_rb60     ``python -m lgryd {channels,rabi,sweep}`` on configs/rb60.cfg,
             each a fresh process.  1 op = 1 process, 1 pass = 3 commands.
sweep_heavy  in-process ``sweep_topological_charge`` on rb60 over l = 1..8,
             q_max=1 (4 at --size full), j_policy=all, final_l_f_max=10.
             1 op = 1 pass = the whole sweep with a fresh state cache.
nscan        in-process ``compute_scenario`` for n = 30..90 from nS1/2,
             m_j = -1/2, l = 1, q_max=0, j_policy=all, final_l_f_max=3, each
             with a fresh state cache.  1 op = one n, 1 pass = every n.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback

CONFIG = "configs/rb60.cfg"
CLI_COMMANDS = ("channels", "rabi", "sweep")
CLI_OUTPUTS = {"channels": ("channels.csv",), "rabi": ("rabi.csv",),
               "sweep": ("sweep.csv", "sweep.svg")}

# size -> workload parameters.  "bench" is what the benchmark measures;
# "full" is the heavy sweep at q_max=4 (about 25-35 s per op on a 2-core
# host, too long for a steady timed run, kept to reproduce its exact counts);
# "tiny" backs the self-test.
SIZES = {
    "bench": {"sweep_l": tuple(range(1, 9)), "sweep_q_max": 1,
              "nscan_n": tuple(range(30, 91))},
    "full": {"sweep_l": tuple(range(1, 9)), "sweep_q_max": 4,
             "nscan_n": tuple(range(30, 91))},
    "tiny": {"sweep_l": (1,), "sweep_q_max": 1, "nscan_n": (30, 31)},
}
SWEEP_OVERRIDES = {"j_policy": "all", "final_l_f_max": 10}
NSCAN_OVERRIDES = {"l": 1, "q_max": 0, "l_i": 0, "j_i": 0.5, "m_j": -0.5,
                   "j_policy": "all", "final_l_f_max": 3}


def fmt(v) -> str:
    """Same 10-significant-digit rendering the CLI writes."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(fmt(v) for v in row) + "\n").encode())
    return h.hexdigest()


def all_finite(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row
               if isinstance(v, float))


def csv_finite(text: str) -> bool:
    """No nan/inf token anywhere in a CSV the CLI wrote."""
    for line in text.splitlines()[1:]:
        for tok in line.split(","):
            try:
                if not math.isfinite(float(tok)):
                    return False
            except ValueError:
                pass        # labels such as D5/2(+3/2)
    return True


def channel_fields(ch) -> tuple:
    return (ch.l, ch.sigma, ch.q, ch.l1, ch.l2, ch.l3, ch.m1, ch.m2, ch.m3,
            ch.M_f, str(ch.final), ch.alpha, ch.beta)


def probe() -> float:
    """Host speed probe: best of three runs of a fixed pure-Python loop.

    One is taken before each pass and after every op; an op's time over the
    mean of the probes around it cancels most of the slow swings in speed of
    a shared host."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_passes(seconds: float, plan, trace: bool = False, hooks=(None, None)):
    """Closed loop of passes for about ``seconds``; at least two, always an
    even number.  With ``trace`` every second pass is traced, bracketed by
    ``hooks`` (begin, end).

    ``plan(traced)`` gives one pass as [(key, thunk)]; a thunk returns
    (fingerprint, assembled channels) and an op fails when it raises, returns
    no fingerprint, or returns one that differs from the first op with the
    same key.  Each op is followed by a probe, so a pass record holds
    ``probe0`` and ops as [key, seconds, ok, probe after].
    """
    refs, passes = {}, []
    begin, end = hooks
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced and begin:
            begin()
        t_pass = time.perf_counter()
        ops, channels, probe0 = [], 0, probe()
        try:
            for key, thunk in plan(traced):
                t0 = time.perf_counter()
                try:
                    ref, nch = thunk()
                except Exception:       # a failed op is counted, not fatal
                    traceback.print_exc()
                    ref, nch = None, 0
                dt = time.perf_counter() - t0
                ok = ref is not None and refs.setdefault(key, ref) == ref
                ops.append([str(key), dt, ok, probe()])
                channels += nch
        finally:
            if traced and end:
                end()
        passes.append({"traced": traced, "s": time.perf_counter() - t_pass,
                       "probe0": probe0, "ops": ops, "channels": channels})
        if len(passes) % 2 == 0:
            step = 2 * statistics.median(p["s"] for p in passes)
            if time.perf_counter() - start + step > seconds:
                return passes, refs
