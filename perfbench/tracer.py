"""Call tracer for the ``lgryd`` package, installed from outside.

The tracer wraps public functions of the loaded ``lgryd.*`` modules.  A
function is often bound under several module attributes (``coupling``
imports ``multi_gaunt`` and ``solve_radial`` by name, ``cli`` imports
``parse_config``), so every attribute of every ``lgryd`` module that holds
the same function object is replaced, and all of them are put back by
``uninstall``.  A target a later version of the package no longer has is
recorded in ``absent`` and otherwise ignored.

Each wrapped call records a span (name, start, end, parent span) in flat
arrays kept in memory, plus exact counters: calls, distinct argument keys
and per-target result counters.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
import warnings
from array import array
from contextlib import contextmanager
from pathlib import Path


def freeze(x):
    """Hashable value key of call arguments.  Dataclasses are keyed by their
    fields (arrays skipped), so two equal states solved twice count once."""
    if isinstance(x, (list, tuple)):
        return tuple(freeze(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            freeze(getattr(x, f.name)) for f in dataclasses.fields(x)
            if not hasattr(getattr(x, f.name), "shape"))
    return x


# result observers: (stat counters, call args, result) -> None

def _count_channels(extra, args, out):
    extra["channels"] += len(out)


def _count_closed(extra, args, out):
    extra["closed"] += bool(getattr(out, "closed", False))


def _count_solve(extra, args, out):
    extra["grid_points"] += len(out.chi)
    extra["flagged"] += bool(out.flags)
    for flag in out.flags:
        extra["flag." + flag] += 1


def _count_bytes(extra, args, out):
    extra["bytes"] += Path(args[0]).stat().st_size


def _cache_size(args):
    return len(getattr(args[0], "_cache", ()))


def _count_cache_hit(extra, args, out, size_before):
    extra["hits"] += size_before == _cache_size(args)


class _Counters(dict):
    def __missing__(self, key):
        return 0


# name -> (module, attribute path, keyed?, observer, pre-call probe)
TARGETS = {
    "specfun.wigner3j": ("lgryd.specfun", "wigner3j", True, None, None),
    "specfun.clebsch_gordan": ("lgryd.specfun", "clebsch_gordan", False, None, None),
    "specfun.multi_gaunt": ("lgryd.specfun", "multi_gaunt", True, None, None),
    "specfun.spherical_bessel": ("lgryd.specfun", "spherical_bessel", False, None, None),
    "beam.g_coeff": ("lgryd.beam", "g_coeff", False, None, None),
    "cm.cm_moment": ("lgryd.cm", "cm_moment", True, None, None),
    "atom.qd_energy": ("lgryd.atom", "qd_energy", False, None, None),
    "atom.solve_radial": ("lgryd.atom", "solve_radial", False, _count_solve, None),
    "atom.radial_matrix_element": ("lgryd.atom", "radial_matrix_element", True, None, None),
    "coupling.enumerate_channels": ("lgryd.coupling", "enumerate_channels", False,
                                    _count_channels, None),
    "coupling.lambda_integral_oracle": ("lgryd.coupling", "lambda_integral_oracle",
                                        True, None, None),
    "coupling.assemble": ("lgryd.coupling", "assemble", False, _count_closed, None),
    "coupling.state_cache": ("lgryd.coupling", "StateSolver.get", False,
                             _count_cache_hit, _cache_size),
    "coupling.compute_scenario": ("lgryd.coupling", "compute_scenario", False, None, None),
    "coupling.sweep_topological_charge": ("lgryd.coupling", "sweep_topological_charge",
                                          False, None, None),
    "config.parse_config": ("lgryd.config", "parse_config", False, None, None),
    "cli.write_csv": ("lgryd.cli", "write_csv", False, _count_bytes, None),
    "plot.render_sweep_svg": ("lgryd.plot", "render_sweep_svg", False, None, None),
}


class Tracer:
    """Spans and counters for one traced pass; ``reset`` between passes."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = list(targets)
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.calls = [0] * len(self.names)
        self.keys = [set() for _ in self.names]
        self.extra = [_Counters() for _ in self.names]

    # -- installation ---------------------------------------------------
    def install(self):
        lg = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "lgryd" or name.startswith("lgryd."))]
        self.absent = []
        for idx, name in enumerate(self.names):
            modname, attr, keyed, observe, pre = self.targets[name]
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapped = self._wrap(fn, idx, keyed, observe, pre)
            if name == "atom.qd_energy":
                wrapped = self._counting_warnings(wrapped, idx)
            holders = [owner] if path else lg
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, key, wrapped)
                        self._patched.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ------------------------------------------------------
    def _open(self, idx):
        me = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self.current)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.current = me
        return me

    def _wrap(self, fn, idx, keyed, observe, pre):
        tracer, clock = self, time.perf_counter

        def traced(*args, **kwargs):
            parent = tracer.current
            me = tracer._open(idx)
            token = pre(args) if pre is not None else None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.span_start[me] = t0
                tracer.span_end[me] = t1
                tracer.current = parent
            tracer.calls[idx] += 1
            if keyed:
                tracer.keys[idx].add(freeze((args, sorted(kwargs.items()))))
            if observe is not None:
                if pre is not None:
                    observe(tracer.extra[idx], args, out, token)
                else:
                    observe(tracer.extra[idx], args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _counting_warnings(self, fn, idx):
        tracer = self

        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args, **kwargs)
            tracer.extra[idx]["warnings"] += len(caught)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def span(self, name: str):
        """Manual span for a boundary that is not a module attribute."""
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.keys.append(set())
            self.extra.append(_Counters())
        idx = self.names.index(name)
        parent = self.current
        me = self._open(idx)
        self.span_start[me] = time.perf_counter()
        try:
            yield
        finally:
            self.span_end[me] = time.perf_counter()
            self.current = parent
            self.calls[idx] += 1

    # -- results --------------------------------------------------------
    def summary(self) -> dict:
        """Per-name calls, distinct keys, total and self seconds, counters."""
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        for i, (t0, t1) in enumerate(zip(self.span_start, self.span_end)):
            d = t1 - t0
            n = names[i]
            total[n] += d
            self_s[n] += d
            if parents[i] >= 0:
                self_s[names[parents[i]]] -= d
        out = {}
        for idx, name in enumerate(self.names):
            out[name] = {"calls": self.calls[idx], "distinct": len(self.keys[idx]),
                         "s": total[idx], "self_s": self_s[idx],
                         **self.extra[idx]}
        return out

    def spans(self) -> dict:
        return {"names": self.names, "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start": list(self.span_start), "end": list(self.span_end)}
