"""Span tracer that wraps the public functions of ``slicehardy`` from outside.

Every public function is wrapped once and the wrapper is bound in every
``slicehardy.*`` module namespace that holds the original by name, so a
call through ``from .x import f`` is seen too.  Spans live in memory as
plain numbers (id, parent id, name, start, end) and are written out when
the run ends.  No span, counter or hook keeps a reference to a call
argument or result, so tracing cannot keep objects alive or change what
an ``id()``-keyed cache sees.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

import numpy as np

# Modules whose namespaces are searched for public functions.
MODULES = ("atomic", "campanato", "cli", "config", "embeddings", "families",
           "grid", "kernels", "maximal", "orlicz", "reports", "slice_norms")

# Methods wrapped with a span, as (module, class, attribute).
METHOD_SPANS = (("orlicz", "OrliczFunction", "inverse"),
                ("grid", "GridFunction", "centers"),
                ("grid", "GridFunction", "embed"),
                ("grid", "GridFunction", "cell_mask"))


class Tracer:
    """Collects nested spans and counters; ``install`` wraps, ``restore``
    puts every original back."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.spans = []  # (id, parent, name id, start, end)
        self.counters = {}
        self._stack = [0]
        self._next_id = 1
        self._patched = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper that records one span per call of fn.

        ``before(args, kwargs)`` and ``after(result)`` may add counters;
        the wrapper drops both the arguments and the result on return.
        """
        name_id = self._name_id(name)
        stack = self._stack
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name_id, start, end))
            if after is not None:
                after(result)
            return result

        return traced

    def _set(self, owner, attribute, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every public slicehardy function, the CLI checks and the
        listed methods, in every namespace that binds them."""
        modules = {name: importlib.import_module(f"slicehardy.{name}")
                   for name in MODULES}
        hooks = _hooks(self, modules)
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") \
                        or not isinstance(obj, types.FunctionType) \
                        or not obj.__module__.startswith("slicehardy."):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}." \
                           f"{obj.__name__}"
                    wrapped[obj] = self.wrap(name, obj, *hooks.get(name, ()))
                self._set(mod, attr, wrapped[obj])
        checks = modules["cli"].CHECKS
        for check, fn in list(checks.items()):
            self._patched.append((checks, check, fn))
            checks[check] = self.wrap(f"cli.{check}", fn)
        for mod, cls, attr in METHOD_SPANS:
            owner = getattr(modules[mod], cls)
            self._set(owner, attr,
                      self.wrap(f"{mod}.{attr}", getattr(owner, attr)))
        orlicz_cls = modules["orlicz"].OrliczFunction
        call = orlicz_cls.__call__

        @functools.wraps(call)
        def counted_call(phi, tau):
            self.count("orlicz.phi_evals")
            self.count("orlicz.phi_points", int(np.size(tau)))
            return call(phi, tau)

        self._set(orlicz_cls, "__call__", counted_call)
        return self

    def restore(self):
        """Undo every wrap, last first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------

    def dump(self, path):
        """Write spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh)


def _hooks(tracer, modules):
    """Counters derived at layer boundaries: (before, after) per span."""
    ball_offset_count = modules["slice_norms"].ball_offset_count

    def gauge_rows(args, kwargs):
        tracer.count("orlicz.gauge_rows", int(np.shape(args[1])[0]))

    def window_bytes(args, kwargs):
        f, p = args[0], args[1]
        w, k = ball_offset_count(f.n, p.t, f.h)
        outer = int(np.prod([m + 2 * k for m in np.shape(f.values)]))
        tracer.maximum("slice_norms.window_bytes_max", outer * w * 8)

    def whitney_cubes(cubes):
        tracer.count("atomic.whitney_cubes", len(cubes))

    def atoms_and_levels(dec):
        tracer.count("atomic.atoms", len(dec.entries))
        tracer.count("atomic.levels", max(dec.j_hi - dec.j_lo + 1, 0))

    return {"orlicz.luxemburg_norm_rows": (gauge_rows, None),
            "slice_norms.slice_norm": (window_bytes, None),
            "atomic.whitney_decompose": (None, whitney_cubes),
            "atomic.cz_decompose": (None, atoms_and_levels)}


def summarize(names, spans):
    """Per span name: call count, total time and self time.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children nest inside the parent.
    """
    child_time = {}
    for _, parent, _, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
           for name in names}
    for span_id, _, name_id, start, end in spans:
        entry = out[names[name_id]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time.get(span_id, 0.0)
    return out


def child_counts(names, spans, parent_name, child_name):
    """How many spans named child_name have a parent named parent_name."""
    name_of = {span_id: names[name_id] for span_id, _, name_id, _, _ in spans}
    return sum(1 for _, parent, name_id, _, _ in spans
               if names[name_id] == child_name
               and name_of.get(parent) == parent_name)
