"""Spans around calls into canonmat's public functions, kept in memory.

A span is (serial, parent, name, start, end, value).  A span's id is
(pid, serial) and `parent` is the id of the span open when it started, so
spans from forked pool workers link to the `cli.main` span of the process
that forked them.  `value` is the truth value a predicate returned, else
None.  Each process writes its spans to `<trace dir>/spans-<pid>.json` when
it ends: the launcher's process after `main` returns, and every process that
multiprocessing forks from it when that worker exits.

Functions are wrapped under the name their caller looks up, e.g.
`canonmat.enumeration.pruned_canonical_form` for the leaf test of the
enumerator.  A target the package no longer has is listed as missing in the
span file instead of failing the run, so its metrics read as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (module, attribute its callers look up, span name, kind)
#   call: one span per call
#   predicate: one span per call, with the returned truth value
#   generator: one span per resumption; counts what it yields, and the
#              nodes it charged when the caller passes a `counters` dict
TARGETS = (
    ("canonmat.cli", "parse_matrix", "matrices.parse_matrix", "call"),
    ("canonmat.cli", "format_matrix", "matrices.format_matrix", "call"),
    ("canonmat.cli", "encode_rows", "matrices.encode_rows", "call"),
    ("canonmat.cli", "encode_cols", "matrices.encode_cols", "call"),
    ("canonmat.cli", "pruned_canonical_form", "equivalence.pruned_canonical_form", "call"),
    ("canonmat.cli", "apply", "equivalence.apply", "call"),
    ("canonmat.enumeration", "pruned_canonical_form", "equivalence.pruned_canonical_form", "call"),
    ("canonmat.cli", "census", "enumeration.census", "call"),
    ("canonmat.cli", "enumerate_canonical", "enumeration.enumerate_canonical", "generator"),
    ("canonmat.enumeration", "enumerate_canonical", "enumeration.enumerate_canonical", "generator"),
    ("canonmat.enumeration", "burnside_count", "enumeration.burnside_count", "call"),
    ("canonmat.hadamard", "is_hadamard", "hadamard.is_hadamard", "predicate"),
    ("canonmat.hadamard", "is_weighing", "hadamard.is_weighing", "predicate"),
    ("canonmat.cli", "is_canonical", "canonicity.is_canonical", "call"),
    ("canonmat.cli", "is_semi_canonical", "canonicity.is_semi_canonical", "call"),
)


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.missing: list[str] = []
        self.stack: list[tuple[int, int]] = []
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.serial = 0
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}

    def call(self, name, fn, args, kwargs, predicate=False):
        self.serial += 1
        sid = (self.pid, self.serial)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        value = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if predicate:
                value = bool(result)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid[1], parent, name, start, end, value))

    def count(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, fn, kind):
        if kind == "generator":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._resumptions(name, fn(*args, **kwargs), kwargs.get("counters"))
        else:
            predicate = kind == "predicate"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, predicate)
        return wrapper

    def _resumptions(self, name, gen, counters):
        emitted = 0
        while True:
            try:
                item = self.call(name, next, (gen,), {})
            except StopIteration:
                break
            emitted += 1
            yield item
        self.count(name + ".emitted", emitted)
        if isinstance(counters, dict):
            self.count(name + ".nodes", counters.get("nodes", 0))

    def install(self):
        """Wrap every target the package has; returns self."""
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn, kind))
        return self

    def follow_forks(self):
        """Record spans in processes that multiprocessing forks from this one."""
        from multiprocessing import util
        util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        from multiprocessing import util
        self._reset()
        util.Finalize(None, self.dump, exitpriority=100)

    def dump(self):
        names: dict[str, int] = {}
        record = {
            "pid": self.pid,
            "missing": self.missing,
            "counts": self.counts,
            # [serial, parent pid, parent serial, name index, start, end, value]
            "spans": [[sid, *(parent or (None, None)), names.setdefault(name, len(names)),
                       start, end, value]
                      for sid, parent, name, start, end, value in self.spans],
            "names": list(names),
        }
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
