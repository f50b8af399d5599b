"""Measurement plumbing shared by the perfbench workloads.

A workload records host-clock samples (seconds) per named metric, counts
operations attempted and failed, and runs its reference checks and
generator work inside ``with rec.oracle`` / ``with rec.gen``, which keeps
that time out of the measured service time.  A timing is summarised as its
median plus the highest of p99/p95/p90 that has at least ten samples
beyond it, always with the sample count.
"""

from __future__ import annotations

import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import obs

#: Tail percentiles tried from the top; the first with ten samples beyond
#: it is the one reported.
TAILS = (99, 95, 90)

#: Host-clock scale per unit, from seconds.
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class ReferenceMismatch(AssertionError):
    """An output disagreed with the benchmark's reference model."""


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    index = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[index]


def tail_percentile(count: int) -> int | None:
    """The highest reportable tail percentile for ``count`` samples."""
    for pct in TAILS:
        if count * (100 - pct) / 100.0 >= 10:
            return pct
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class NullTracer:
    """Stand-in for :class:`tracing.SpanTracer` in untraced runs."""

    op = -1

    def open(self, name: str) -> int:
        return -1

    def close(self, index: int) -> None:
        pass


class HarnessTimer:
    """Reusable ``with`` block timing harness-only work (reference checks,
    generation) so it is excluded from the service time.  It allocates
    nothing per use, so the harness adds no garbage-collector work to the
    measured operations."""

    __slots__ = ("rec", "name", "start", "span")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        self.name = name
        self.start = 0.0
        self.span = -1

    def __enter__(self) -> None:
        self.span = self.rec.tracer.open(self.name)
        self.start = time.perf_counter()

    def __exit__(self, *exc_info: Any) -> None:
        self.rec.harness_s[self.name] += time.perf_counter() - self.start
        self.rec.tracer.close(self.span)


@dataclass
class Recorder:
    """Samples, failures and harness time of one measured phase."""

    tracer: Any = field(default_factory=NullTracer)
    samples: dict[str, list[float]] = field(default_factory=dict)
    harness_s: dict[str, float] = field(
        default_factory=lambda: {"bench.oracle": 0.0, "bench.gen": 0.0}
    )
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        self.oracle = HarnessTimer(self, "bench.oracle")
        self.gen = HarnessTimer(self, "bench.gen")

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def check(self, ok: bool, message: str) -> None:
        """A reference check; mismatches end the run with a non-zero exit."""
        if not ok:
            raise ReferenceMismatch(message)

    def fail(self, op: str, exc: BaseException) -> None:
        """An unexpected error: counted, and the first few kept for the log."""
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")

    @contextmanager
    def phase(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s += time.perf_counter() - start

    @property
    def service_s(self) -> float:
        """Measured phase time minus reference checks and generation."""
        return self.phase_s - sum(self.harness_s.values())

    def summary(self, name: str, unit: str) -> dict[str, Any]:
        """``{"n", "p50", "tail_pct", "tail"}`` in ``unit``; empty-safe."""
        values = sorted(self.samples.get(name, ()))
        scale = UNIT_SCALE[unit]
        out: dict[str, Any] = {"n": len(values), "p50": None, "tail_pct": None, "tail": None}
        if values:
            out["p50"] = percentile(values, 50) * scale
            pct = tail_percentile(len(values))
            if pct is not None:
                out["tail_pct"] = pct
                out["tail"] = percentile(values, pct) * scale
        return out


def counter_values(names: list[str]) -> dict[str, int]:
    """Current values of program counters in the active obs registry."""
    registry = obs.get_registry()
    return {name: registry.counter_value(name) for name in names}


def histogram_sum(name: str) -> float:
    """Sum of a program histogram's observations (0 when never observed)."""
    snap = obs.snapshot().get("histograms", {}).get(name)
    return float(snap["sum"]) if snap else 0.0
