"""In-memory span tracer that wraps the program's entry points from outside.

Only the traced run installs it: :meth:`SpanTracer.install` replaces each
listed method or function with a wrapper that records one span (name,
start, end, parent span, op id) on the host clock, and :meth:`uninstall`
puts the originals back.  Nothing under ``src/`` changes.  Spans live in
flat arrays and are written out once, when the run ends.

Self time is a span's duration minus the time its child spans cover.  The
run is single-threaded and every wrapped call returns before its caller
does, so children nest strictly and their durations simply add up.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

Hook = Callable[["SpanTracer", tuple, dict, Any], None]


class SpanTracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.op = -1
        """Op id stamped on new spans; -1 outside the measured phase."""
        self.counts: dict[str, float] = {}
        """Counts only a wrapper can see (wrapper calls, bytes), measured phase only."""
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Start a span by name; pair with :meth:`close`."""
        return self._open(self._id(name))

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.op >= 0:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self, name: str, fn: Callable, *, calls: str | None = None, hook: Hook | None = None
    ) -> Callable:
        """``fn`` recording a ``name`` span per call; ``calls`` names a count
        of wrapper calls, ``hook`` runs after the span under ``bench.trace``."""
        nid = self._id(name)
        trace_nid = self._id("bench.trace")
        open_, close = self._open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if calls is not None:
                self.count(calls)
            if hook is not None:
                index = open_(trace_nid)
                try:
                    hook(self, args, kwargs, result)
                finally:
                    close(index)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def patch_method(self, owner: type, attr: str, name: str, **options: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, **options))
        self._patches.append((owner, attr, original))

    def patch_function(self, module: str, attr: str, name: str, **options: Any) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it by name."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(name, original, **options)
        for mod_name, mod in list(sys.modules.items()):
            in_program = mod_name == "repro" or mod_name.startswith("repro.")
            if in_program and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self seconds per span name, split into (measured phase, set-up)."""
        count = len(self.start)
        child = [0.0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        measured: dict[str, float] = {}
        setup: dict[str, float] = {}
        for index in range(count):
            own = self.end[index] - self.start[index] - child[index]
            bucket = measured if self.op_id[index] >= 0 else setup
            name = self.names[self.name_id[index]]
            bucket[name] = bucket.get(name, 0.0) + own
        return measured, setup

    def write(self, path: Path) -> None:
        """One tab-separated line per span; times in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        with path.open("w") as out:
            out.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{self.names[self.name_id[index]]}\t"
                    f"{(self.start[index] - origin) * 1e6:.1f}\t"
                    f"{(self.end[index] - origin) * 1e6:.1f}\t"
                    f"{self.parent[index]}\t{self.op_id[index]}\n"
                )
