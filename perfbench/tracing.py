"""Span tracing of graphqss from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records one span per call: name, start, end and the
index of the enclosing span.  The replacement covers the defining module's
attribute and every other name bound to the same function object, such as
``access.odd_neighborhood`` (bound by ``from .graphs import
odd_neighborhood``) and the package re-exports.  The CLI dispatches through
its ``_HANDLERS`` table, so each handler is wrapped there as
``cli.<command>``.  Nothing under ``src/`` changes; ``uninstall`` restores
every binding.

An observer, given per span name, sees each call's arguments and result and
returns a value kept with the span's index, so counts are taken at the
same boundaries as the spans.  Spans stay in memory; ``dump`` writes them
once, at the end of a run.
Worker processes of ``access.scan_size_k``'s pool run private functions
only, so they record nothing.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "graphqss"
TRACED_MODULES = ("gf2", "graphs", "access", "quantum", "shamir", "protocol", "bounds", "cli")


class Tracer:
    def __init__(self, observers: dict | None = None) -> None:
        self.observers = observers or {}
        self.observed: dict[str, list[tuple[int, object]]] = defaultdict(list)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one span per index: name id, start, end, index of the parent span
        self.ids, self.starts, self.ends, self.parents = array("i"), array("d"), array("d"), array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.passes: list[dict] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        ids, starts, ends, parents = self.ids, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        observe, observed = self.observers.get(name), self.observed[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observed.append((idx, observe(args, kwargs, result)))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere bound."""
        prefix = PACKAGE + "."
        modules = [sys.modules[PACKAGE]] + [m for k, m in sorted(sys.modules.items()) if k.startswith(prefix)]
        wrapped: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[prefix + short]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)
        handlers = sys.modules[prefix + "cli"]._HANDLERS
        for command, fn in list(handlers.items()):
            self._restore.append((handlers, command, fn))
            handlers[command] = self._wrap(f"cli.{command}", fn)

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = obj
            else:
                setattr(target, attr, obj)
        self._restore.clear()

    # -- per-pass bookkeeping ----------------------------------------------

    def begin_pass(self) -> int:
        self._stack.clear()
        return len(self.ids)

    def summarize(self, start: int) -> dict[str, dict]:
        """Per span name: calls, total duration, self time and durations.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so children never overlap.
        """
        ids, parents = self.ids[start:], self.parents[start:]
        durs = [t1 - t0 for t0, t1 in zip(self.starts[start:], self.ends[start:])]
        child = [0.0] * len(durs)
        for parent, d in zip(parents, durs):
            if parent >= start:
                child[parent - start] += d
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        for nid, d, c in zip(ids, durs, child):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - c
            row["durations"].append(d)
        return out

    def observations(self, start: int, name: str) -> list[tuple[float, object]]:
        """(span duration, observed value) for each observed call since ``start``."""
        return [(self.ends[i] - self.starts[i], v) for i, v in self.observed.get(name, ()) if i >= start]

    def children_of(self, start: int, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        ids = self.ids
        return sum(1 for nid, p in zip(ids[start:], self.parents[start:]) if nid == cid and p >= 0 and ids[p] == pid)

    def dump(self, path) -> None:
        """Write every recorded span once, as gzipped JSON."""
        base = self.starts[0] if self.starts else 0.0
        doc = {
            "names": self.names,
            "time_unit": "us since the first span",
            "name": self.ids.tolist(),
            "start": [round((t - base) * 1e6, 3) for t in self.starts],
            "end": [round((t - base) * 1e6, 3) for t in self.ends],
            "parent": self.parents.tolist(),
            "passes": self.passes,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
