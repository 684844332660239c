"""Spans at the program's public function boundaries, recorded from outside.

The tracer wraps each listed public function of the layer modules and
rebinds every name under which a ``solenoidlab`` module holds it, so
calls between modules go through the wrapper too.  ``TrigPoly.__call__``
and ``GridMeasure.coarsen`` are patched on their classes.  Nothing in the
program changes; removing the wrappers restores the original objects.

A span is (name, start, end, parent, counts).  Spans stay in memory and
are written out when the benchmark ends.  A layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "solenoidlab"


def _args(fn):
    sig = inspect.signature(fn)

    def bound(a, k):
        ba = sig.bind(*a, **k)
        ba.apply_defaults()
        return ba.arguments
    return bound


def _words_of(args) -> int:
    if args["mode"] == "sampled":
        return int(args["sample_count"])
    return int(args["params"].b ** args["depth"])


def _coarsens(args) -> bool:
    return args["n"] < args["self"].level


# (module, attribute, span name, counter(bound args, result) -> {quantity: n}).
# Counters report work the program does or returns; a count of 0 means
# the call did no work of that kind.
TRACED = (
    ("rng", "mix64_array", "rng.mix64_array",
     lambda a, r: {"items": int(np.size(a["z"]))}),
    ("words", "symbol_block", "words.symbol_block",
     lambda a, r: {"rows": int(r.shape[0])}),
    ("words", "sampled_symbol_block", "words.sampled_symbol_block",
     lambda a, r: {"rows": int(r.shape[0])}),
    ("words", "symbolic_sum_batch", "words.symbolic_sum_batch",
     lambda a, r: {"terms": int(a["symbols"].shape[0] * a["symbols"].shape[1])}),
    ("params", "TrigPoly.__call__", "params.trigpoly_eval",
     lambda a, r: {"points": int(np.size(a["x"]))}),
    ("fiber", "build_fiber_measure", "fiber.build_fiber_measure",
     lambda a, r: {"words": int(a["spec"].total_words), "cells": r.ncells,
                   "boundary_ambiguous": int(r.boundary_ambiguous)}),
    ("gridmeasure", "GridMeasure.coarsen", "gridmeasure.coarsen",
     lambda a, r: {"cells_in": a["self"].ncells, "cells_out": r.ncells}
     if _coarsens(a) else {}),
    ("gridmeasure", "convolve", "gridmeasure.convolve",
     lambda a, r: {"pairs": a["mu"].ncells * a["nu"].ncells, "cells_out": r.ncells}),
    ("entropy", "entropy", "entropy.entropy", None),
    ("entropy", "entropy_profile", "entropy.entropy_profile", None),
    ("entropy", "conditional_entropy", "entropy.conditional_entropy", None),
    ("entropy", "component_entropy_distribution",
     "entropy.component_entropy_distribution", None),
    ("entropy", "porosity_check", "entropy.porosity_check", None),
    ("entropy", "entropy_growth_experiment", "entropy.entropy_growth_experiment", None),
    ("projection", "project_measure", "projection.project_measure",
     lambda a, r: {"calls": 1, "cells_in": a["mu"].ncells, "cells_out": r.ncells}),
    ("projection", "projection_entropy_sweep", "projection.projection_entropy_sweep", None),
    # the planar keys are one int64 per word; the byte count is computed, not measured
    ("projection", "conservation_estimates", "projection.conservation_estimates",
     lambda a, r: {"words": _words_of(a), "key_bytes_computed": 8 * _words_of(a)}),
    ("dimension", "generate_attractor", "dimension.generate_attractor",
     lambda a, r: {"points": int(r.shape[0])}),
    ("dimension", "box_dimension", "dimension.box_dimension",
     lambda a, r: {"points": int(len(a["points"]))}),
    ("dimension", "fiber_dimension", "dimension.fiber_dimension", None),
)


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counter):
        bind = _args(fn) if counter else None
        spans = self.spans
        lock = self._lock

        def traced(*a, **k):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with lock:
                i = len(spans)
                spans.append(None)
            stack.append(i)
            counts = {}
            t0 = time.perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[i] = (name, t0, t1, parent, counts)
            if counter:
                counts.update(counter(bind(a, k), out))
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, name, counter in TRACED:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, name, counter), orig)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped, orig)
        return self

    def _set(self, owner, key, new, old):
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def __exit__(self, *exc):
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()
        return False

    def clear(self) -> None:
        self.spans.clear()


def layer_totals(spans: list) -> dict:
    """Per span name: summed self time ('self_s') and summed counts.

    Also 'words.phi_points_per_term': phi points evaluated inside the
    branch-sum kernel per (row x depth) term it was asked for.
    """
    child_time = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = defaultdict(lambda: defaultdict(float))
    kernel_points = 0
    for i, (name, t0, t1, parent, counts) in enumerate(spans):
        out[name]["self_s"] += (t1 - t0) - child_time[i]
        for key, n in counts.items():
            out[name][key] += n
        if name == "params.trigpoly_eval" and parent >= 0 and \
                spans[parent][0] == "words.symbolic_sum_batch":
            kernel_points += counts["points"]
    terms = out["words.symbolic_sum_batch"]["terms"]
    out["words"]["phi_points_per_term"] = kernel_points / terms if terms else 0.0
    return out
