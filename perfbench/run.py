"""perfbench: wall-clock benchmark of the dRBAC + views + Switchboard + PSF stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload authz-churn --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the program as shipped and prints the end-to-end
metrics; ``--trace 1`` runs the same seed twice, untraced and then with
every layer's entry points wrapped, and prints the per-layer metrics, the
tracing overhead, and any difference between the two runs' deterministic
counts.  Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A reference mismatch
exits 1 without that line; a checkout without ``src/repro`` exits 2.

Each workload is built from the seed, driven by one thread, and sized by
operation count (``--seconds`` times a fixed rate), so every commit
replays the same operations and the same state growth.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("authz-churn", "mail-sessions")
#: World builds per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Program counts that repeat exactly for one seed: the traced run
#: compares them between its untraced and traced passes.
DETERMINISTIC = (
    "cache.hits", "cache.misses", "cache.negative_hits", "cache.evicted", "cache.invalidated",
    "search_work", "incr_work", "transport.messages_sent", "durable.wal.appends",
    "psf.plan.goals_expanded", "psf.plan.attempts",
)
E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_us.mean": "us", "op_us.p99": "us",
    "peak_rss_mb": "MiB",
}


@dataclass
class Pass:
    workload: Any
    rec: Any
    setup_s: list[float]
    gen_s: float
    counts: dict[str, float]
    state: dict[str, Any]

    @property
    def ops_per_s(self) -> float:
        return self.workload.ops / self.rec.service_s


def measure(module: Any, seed: int, seconds: float, *, setups: int, tracer: Any = None) -> Pass:
    """Generate, build ``setups`` worlds, and measure the last one."""
    from repro import obs
    from repro.hermetic import hermetic_counters

    from harness import NullTracer, Recorder
    import layers

    start = time.perf_counter()
    workload = module.Workload(seed, seconds)
    gen_s = time.perf_counter() - start
    setup_s: list[float] = []
    try:
        for index in range(setups):
            last = index == setups - 1
            with hermetic_counters():
                obs.reset()
                gc.collect()
                if last and tracer is not None:
                    layers.install(tracer)
                start = time.perf_counter()
                world = workload.build()
                setup_s.append(time.perf_counter() - start)
                if not last:
                    del world
                    continue
                rec = Recorder(tracer=tracer if tracer is not None else NullTracer())
                before = layers.probe(world)
                gc.collect()
                rec.tracer.op = 0
                with rec.phase():
                    workload.run(world, rec)
                rec.tracer.op = -1
                after = layers.probe(world)
                counts = {key: after[key] - before[key] for key in after}
                state = workload.state(world)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(workload, rec, setup_s, gen_s, counts, state)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_end_to_end(run: Pass) -> dict[str, float]:
    """Print the end-to-end table; return the gated metrics."""
    from harness import peak_rss_mb, percentile

    workload, rec = run.workload, run.rec
    primary = sorted(rec.samples.get(workload.primary, ()))
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "ops_per_s": run.ops_per_s,
        "op_us.mean": statistics.fmean(primary) * 1e6,
        "op_us.p99": percentile(primary, 99) * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"  {'metric':<26} {'unit':<8} {'value':>12} {'samples':>8}")
    rows = [
        ("setup_s", "s", metrics["setup_s"], len(run.setup_s)),
        ("ops_per_s", "ops/s", metrics["ops_per_s"], workload.ops),
        ("failed_ratio", "ratio", rec.failed / max(rec.attempted, 1), rec.attempted),
        ("peak_rss_mb", "MiB", metrics["peak_rss_mb"], 1),
        (f"op_us.mean = {workload.primary}", "us", metrics["op_us.mean"], len(primary)),
        (f"op_us.p99 = {workload.primary}", "us", metrics["op_us.p99"], len(primary)),
    ]
    for name, unit, with_tail in workload.metrics:
        summary = rec.summary(name, unit)
        rows.append((f"{name}.p50", unit, summary["p50"], summary["n"]))
        if with_tail and summary["tail_pct"] is not None:
            tail = f"{name}.p{summary['tail_pct']}"
            rows.append((tail, unit, summary["tail"], summary["n"]))
    for name, unit, value, n in rows:
        print(f"  {name:<26} {unit:<8} {_fmt(value):>12} {n:>8}")
    if len(primary) < 1000:
        print(f"  note: op_us.p99 has fewer than 10 samples beyond it ({len(primary)} samples)")
    return metrics


def report_per_layer(
    untraced: Pass, traced: Pass, tracer: Any, spans_path: Path
) -> tuple[dict, dict]:
    """Print the per-layer table, overhead and determinism check; return
    the per-layer metrics."""
    import layers

    overhead = untraced.ops_per_s / traced.ops_per_s - 1.0
    values, setup_ms = layers.per_layer(tracer, traced.counts, overhead)
    values["bench.gen.self_ms"] += traced.gen_s * 1e3  # generation before the phase
    units = dict(layers.PER_LAYER)
    phase_ms = traced.rec.phase_s * 1e3
    print(f"  per-layer, measured phase of the traced run ({phase_ms:.1f} ms; share is of that)")
    print(f"  {'metric':<34} {'unit':<6} {'value':>12} {'share':>7} {'set-up ms':>10}")
    for layer, heavy, light in layers.LAYERS:
        for name, unit in layers.PER_LAYER:
            if not name.startswith(layer + "."):
                continue
            share = f"{values[name] / phase_ms:7.1%}" if unit == "ms" else ""
            stem = name[: -len(".self_ms")] if name.endswith(".self_ms") else ""
            setup = f"{setup_ms.get(stem, 0.0):10.2f}" if stem else ""
            print(f"  {name:<34} {unit:<6} {_fmt(values[name]):>12} {share:>7} {setup:>10}")
        print(f"      heavy: {heavy}; light: {light}")
    print(f"  ops_per_s untraced {untraced.ops_per_s:.1f}, traced {traced.ops_per_s:.1f}, "
          f"tracing overhead {overhead:.1%}")
    diffs = [
        f"{key}: {untraced.counts.get(key, 0):g} vs {traced.counts.get(key, 0):g}"
        for key in DETERMINISTIC
        if untraced.counts.get(key, 0) != traced.counts.get(key, 0)
    ]
    if diffs:
        print("  determinism: counts DIFFER between two runs of this seed: " + "; ".join(diffs))
    else:
        print("  determinism: deterministic counts match between two runs of this seed")
    tracer.write(spans_path)
    print(f"  spans: {len(tracer.start)} written to {spans_path.relative_to(HERE.parent)}")
    return {name: values[name] for name, _unit in layers.PER_LAYER}, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import authz_churn
    import mail_sessions
    from harness import ReferenceMismatch
    from tracing import SpanTracer

    modules = {"authz-churn": authz_churn, "mail-sessions": mail_sessions}
    module = modules[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            untraced = measure(module, args.seed, args.seconds, setups=1)
            tracer = SpanTracer()
            traced = measure(module, args.seed, args.seconds, setups=1, tracer=tracer)
            runs = [untraced, traced]
        else:
            runs = [measure(module, args.seed, args.seconds, setups=SETUPS)]
    except ReferenceMismatch as exc:
        print(f"perfbench: REFERENCE MISMATCH: {exc}", file=sys.stderr)
        return 1

    main_run = runs[0]
    rec = main_run.rec
    print(f"  measured phase: {main_run.workload.ops} ops, {rec.phase_s:.3f} s host; "
          f"service {rec.service_s:.3f} s (reference checks {rec.harness_s['bench.oracle']:.3f} s, "
          f"generator {rec.harness_s['bench.gen'] + main_run.gen_s:.3f} s excluded)")
    print("  state built up: " + ", ".join(f"{k}={_fmt(v)}" for k, v in main_run.state.items()))
    print("  deterministic counts: " + ", ".join(
        f"{key}={main_run.counts.get(key, 0):g}" for key in DETERMINISTIC))
    for run in runs:
        for failure in run.rec.failures:
            print(f"  failure: {failure}")
    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv"
        values, units = report_per_layer(runs[0], runs[1], tracer, spans_path)
    else:
        values = report_end_to_end(main_run)
        units = E2E_UNITS
    result = {
        "correct": True,
        "attempted": sum(run.rec.attempted for run in runs),
        "failed": sum(run.rec.failed for run in runs),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
