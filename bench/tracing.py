"""Span tracing of nuspec from outside the package.

The tracer replaces layer functions by timing wrappers in every nuspec
namespace that holds them, including names bound there by `from ... import`,
and restores the originals on uninstall.  Spans stay in memory until the
benchmark writes them out.  A target the package no longer defines is
reported as an absent layer instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, span name): the layer boundaries the benchmark times
TARGETS = [
    ("nuspec.lyapunov", "lyapunov_spectrum", "lyapunov.spectrum"),
    ("nuspec.lyapunov", "block_sample", "lyapunov.block_sample"),
    ("nuspec.dynamics", "orbit_array", "dynamics.orbit_array"),
    ("nuspec.specification", "build_cover_context", "specification.build_context"),
    ("nuspec.specification", "build_cover", "specification.build_cover"),
    ("nuspec.specification", "estimate_transitions", "specification.transition_scan"),
    ("nuspec.specification", "_cover_events", "specification.cover_events"),
    ("nuspec.specification", "_certificate_window", "specification.certificate_window"),
    ("nuspec.specification", "ns_certificate", "specification.certificate"),
    ("nuspec.specification", "gns_certificate", "specification.certificate"),
    ("nuspec.recurrence", "return_times", "recurrence.return_times"),
    ("nuspec.recurrence", "recurrence_scaling", "recurrence.recurrence_scaling"),
    ("nuspec.shadowing", "assemble", "shadowing.assemble"),
    ("nuspec.shadowing", "newton_refine_periodic", "shadowing.newton"),
    ("nuspec.shadowing", "_cycle_degeneracy", "shadowing.cycle_degeneracy"),
    ("nuspec.shadowing", "_solve_cyclic", "shadowing.solve_cyclic"),
    ("nuspec.shadowing", "shadowing_profile", "shadowing.shadowing_profile"),
    ("nuspec.shadowing", "check_domination", "shadowing.check_domination"),
]


def _witness_bytes(tb):
    tables = (tb.X, tb.witness_time, tb.mix_witnessed, tb.mix_witness_time)
    return sum(t.nbytes for t in tables if t is not None)


# counts read off a layer's return value, at the boundary where the work happens
COUNTERS = {
    "lyapunov.block_sample": lambda out: {
        "classified": sum(k is not None for _, k in out),
        "samples": len(out),
    },
    "specification.cover_events": lambda out: {"events": len(out[0])},
    "specification.transition_scan": lambda out: {
        "M_k": out.M_k,
        "witness_bytes": _witness_bytes(out),
        "mixing": out.mixing_mode,
    },
    "specification.build_cover": lambda out: {"r_count": out.r_count},
    "shadowing.newton": lambda out: {"iters": out.newton_iters, "unknowns": 2 * out.period},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index into the span list, or None for a root
        self.op = op
        self.counts = None

    def to_json(self):
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._saved = []

    def begin(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                try:
                    self.spans[idx].counts = counter(out)
                except (AttributeError, TypeError, IndexError):
                    pass  # the layer changed its return type; the span still counts
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in each nuspec module that binds it."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "nuspec" or n.startswith("nuspec."))]
        for modname, attr, name in self.targets:
            try:
                orig = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._saved.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._saved):
            setattr(mod, key, orig)
        self._saved = []


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_name(spans, i) -> str:
    """The span's layer.  An orbit iterated for the transition scan is the
    sampling orbit, a stage of its own, and the mixing branch of the scan
    is told apart from the min-gap branch."""
    s = spans[i]
    if s.name == "dynamics.orbit_array" and s.parent is not None and spans[s.parent].name == "specification.transition_scan":
        return "dynamics.sampling_orbit"
    if s.name == "specification.transition_scan" and (s.counts or {}).get("mixing"):
        return "specification.mixing_scan"
    return s.name
