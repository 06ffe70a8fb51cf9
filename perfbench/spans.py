"""Spans and counters for the traced benchmark run.

The traced run wraps the public functions of each layer of ``repro`` from
here, outside the library: :meth:`Tracer.wrap` swaps a module function or
class method for a timing wrapper and :meth:`Tracer.restore` puts every
original back.  Spans live in memory as ``[name, parent, start, end]``
lists and are written out as JSONL when the run ends; self time is a
span's duration minus the time its direct children cover.

Span names are ``<layer>.<function>`` where the layer is a module of the
repository (``core.engine``, ``core.evaluation``, ..., ``serve``).
"""

from __future__ import annotations

import collections
import functools
import json
import time
from typing import Dict, List

#: every layer a span can belong to, in report order
LAYERS = ("core.engine", "core.generator", "core.variable_combo",
          "core.operators", "core.compile", "core.evaluation", "core.nsga2",
          "core.simplify", "core.model", "core.session", "core.artifact",
          "serve")


def layer_of(span_name: str) -> str:
    """The layer prefix of a span name (``core.nsga2.select`` -> ``core.nsga2``)."""
    for layer in LAYERS:
        if span_name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no known layer")


class Tracer:
    """In-memory span recorder plus named counters (single-threaded use)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[str, int] = collections.Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _timed(self, fn, name: str, outermost: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                stack.pop()
                record[3] = clock()

        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        """Append a finished top-level span (safe from several threads)."""
        self.spans.append([name, -1, start, end])

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             outermost: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``outermost`` records only the outermost call of a recursive
        function, so its span covers the whole recursion once.
        """
        layer_of(name)
        self._patch(owner, attr, lambda fn: self._timed(fn, name, outermost))

    def count_none(self, owner, attr: str, counter: str) -> None:
        """Count the calls of ``owner.attr`` that return ``None``."""
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if result is None:
                    counts[counter] += 1
                return result
            return wrapper

        self._patch(owner, attr, make)

    def capture(self, owner, attr: str, sink: list) -> None:
        """Append the instance of every ``owner.attr`` call to ``sink``
        (used on ``__init__`` to collect the objects a run builds)."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(instance, *args, **kwargs):
                sink.append(instance)
                return fn(instance, *args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = collections.defaultdict(float)
        for (name, _parent, start, end), covered in zip(
                self.spans, child_time, strict=True):
            totals[name] += (end - start) - covered
        return dict(totals)

    def total_times(self) -> Dict[str, float]:
        """Inclusive seconds per span name.

        No span nests inside a span of the same name (recursive functions
        are wrapped ``outermost``), so nothing is counted twice.
        """
        totals: Dict[str, float] = collections.defaultdict(float)
        for name, _parent, start, end in self.spans:
            totals[name] += end - start
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        return dict(collections.Counter(span[0] for span in self.spans))

    def write_jsonl(self, path) -> None:
        """One JSON object per span: name, start, end, parent span, run id."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "run": self.run_id, "id": index, "parent": parent,
                    "name": name, "start_s": start - origin,
                    "end_s": end - origin}) + "\n")
