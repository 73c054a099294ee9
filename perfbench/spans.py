"""Spans around homkit's public functions, installed from outside the package.

Each of the eight layer modules has its public functions and the public
methods of its public classes wrapped.  A function is replaced in every
``homkit`` namespace that binds it (``from .modules import pd`` makes a copy
of the name), and a method on its class.  The scalar methods of
``linalg.Field`` are left alone: they run millions of times per request and
their cost belongs to the caller.

A span is (name, start, end, parent span, request) and is kept in memory
until ``write`` puts the spans of a pass into a file.  Work counters are read
from returned objects (``PdResult``, ``Resolution``, ``Cover``,
``IsoResult``), never from the clock, so they repeat exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("presentation", "algebra", "linalg", "modules", "invariants",
          "recollement", "corpus", "cli")
_UNWRAPPED_CLASSES = {("linalg", "Field")}


def _observe_pd(c: Counter, r) -> None:
    dims = r.syzygy_dims
    c["modules.syzygies_built"] += max(len(dims) - 1, 0)
    c["modules.syzygy_dim_sum"] += sum(dims[1:])
    if r.kind != "unknown":
        c[f"modules.pd.{r.kind}"] += 1
    elif len(dims) <= r.cutoff:  # stopped before the cutoff: the dimension guard
        c["modules.pd.unknown_guard"] += 1
    else:
        c["modules.pd.unknown_cutoff"] += 1


def _observe_resolution(c: Counter, r) -> None:
    c["modules.syzygies_built"] += len(r.syzygies)
    c["modules.syzygy_dim_sum"] += sum(s.dim for s in r.syzygies)


def _observe_cover(c: Counter, r) -> None:
    c["modules.cover_source_dim_sum"] += r.source_dim


def _observe_iso(c: Counter, r) -> None:
    c[f"modules.is_iso.{r.kind}"] += 1


_OBSERVERS = {"modules.pd": _observe_pd, "modules.min_resolution": _observe_resolution,
              "modules.projective_cover": _observe_cover, "modules.is_iso": _observe_iso}


class Tracer:
    """Wraps homkit while installed and records a span for every call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.request = -1
        self._restore: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_request = array("l")
        self._stack = [-1]
        self.counters = Counter()

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original, is_static) to wrap."""
        for layer in LAYERS:
            mod = importlib.import_module(f"homkit.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{name}", mod, name, obj, False
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and (layer, name) not in _UNWRAPPED_CLASSES):
                    for attr, member in vars(obj).items():
                        if attr.startswith("_"):
                            continue
                        if inspect.isfunction(member):
                            yield f"{layer}.{name}.{attr}", obj, attr, member, False
                        elif isinstance(member, staticmethod):
                            yield (f"{layer}.{name}.{attr}", obj, attr,
                                   member.__func__, True)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for span, owner, attr, fn, static in self._targets():
            w = self._wrap(fn, span)
            wrappers[id(fn)] = w
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, staticmethod(w) if static else w)
        for modname, mod in list(sys.modules.items()):
            if modname != "homkit" and not modname.startswith("homkit."):
                continue
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def wrapped(self) -> set[str]:
        return set(self.name_id)

    def _wrap(self, fn, span: str):
        nid = self.name_id.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        observe = _OBSERVERS.get(span)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.span_request.append(tracer.request)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, result)
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> array:
        """Span duration minus the time its child spans cover."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> tuple[Counter, Counter, Counter, list[tuple[int, float, float]]]:
        """Per span name: calls, self seconds, and seconds of the spans not
        directly nested in one of the same name; per request: root time vs
        summed self time (they must agree)."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        req_root: Counter = Counter()
        req_self: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own[i]
            p = self.parent[i]
            if p < 0 or self.span_name[p] != nid:
                total_s[name] += self.end[i] - self.start[i]
            req = self.span_request[i]
            req_self[req] += own[i]
            if p < 0:
                req_root[req] += self.end[i] - self.start[i]
        per_request = [(r, req_root[r], req_self[r]) for r in sorted(req_root)]
        return calls, self_s, total_s, per_request

    def write(self, path: str, request_ids: list[str]) -> None:
        """Write the recorded spans as gzipped JSON lines; the first line
        names the requests that span ``request`` fields index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"requests": request_ids, "names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(f"[{self.span_name[i]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.span_request[i]}]\n")
