"""The per-layer catalogue: entry points wrapped, counts read, predictions.

Each layer row names the program entry points its span wraps in the
traced run, and which end-to-end metric it should move on which workload
("heavy") and where it should stay flat ("light").  Counts come from the
program's own counters (``obs`` registry, ``CacheStats``,
``TransportStats``, ``DrbacEngine.search_work``,
``IncrementalProofEngine.work``, ``EventScheduler.events_processed``)
wherever the program keeps one, and from the wrappers otherwise.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs import names as N

from harness import counter_values, histogram_sum
from tracing import SpanTracer

#: (layer, heavy, light) in the order the traced run prints them.
LAYERS = (
    ("crypto.rsa.keygen", "session_open_ms.p50 on mail-sessions; setup_s on both", "authz-churn"),
    ("crypto.rsa.sign", "issue_us.p50 on authz-churn; session_open_ms on mail-sessions", "neither"),
    ("crypto.rsa.verify", "session_open_ms on mail-sessions; issue_us on authz-churn", "neither"),
    ("crypto.dh", "session_open_ms on mail-sessions", "authz-churn"),
    ("crypto.cipher", "call_us on mail-sessions", "authz-churn"),
    ("drbac.proof", "session_open_ms on mail-sessions", "authz-churn (about 0)"),
    ("drbac.incr", "authorize_us, revoke_us on authz-churn", "mail-sessions (falls back)"),
    ("drbac.cache", "authorize_us on authz-churn", "mail-sessions"),
    ("drbac.repo", "issue_us on authz-churn; session_open_ms on mail-sessions", "neither"),
    ("drbac.wire.decode", "issue_us, recovery_ms on authz-churn", "mail-sessions"),
    ("drbac.monitor.revoke", "revoke_us on authz-churn and mail-sessions", "neither"),
    ("durable.wal", "issue_us, revoke_us on authz-churn", "mail-sessions"),
    ("durable.recover", "recovery_ms.p50 on authz-churn", "mail-sessions"),
    ("net.route", "call_us, session_open_ms on mail-sessions", "authz-churn"),
    ("net.transport", "call_us, session_open_ms on mail-sessions", "authz-churn"),
    ("net.scheduler", "call_us on mail-sessions", "authz-churn"),
    ("switchboard.handshake", "session_open_ms on mail-sessions", "authz-churn"),
    ("switchboard.channel", "call_us on mail-sessions", "authz-churn"),
    ("switchboard.rpc", "call_us on mail-sessions", "authz-churn"),
    ("views.vig.generate", "session_open_ms on mail-sessions", "authz-churn"),
    ("views.acl.resolve", "session_open_ms on mail-sessions", "authz-churn"),
    ("views.coherence", "call_us on mail-sessions (Bob)", "authz-churn"),
    ("views.proxy", "call_us on mail-sessions", "authz-churn"),
    ("psf.plan", "session_open_ms on mail-sessions", "authz-churn"),
    ("psf.deploy", "session_open_ms on mail-sessions", "authz-churn"),
    ("bench", "none: harness cost, reported so it stays visible", "both"),
)

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("crypto.rsa.keygen.calls", "count"), ("crypto.rsa.keygen.self_ms", "ms"),
    ("crypto.rsa.sign.calls", "count"), ("crypto.rsa.sign.self_ms", "ms"),
    ("crypto.rsa.verify.calls", "count"), ("crypto.rsa.verify.self_ms", "ms"),
    ("crypto.dh.calls", "count"), ("crypto.dh.self_ms", "ms"),
    ("crypto.cipher.bytes", "bytes"), ("crypto.cipher.self_ms", "ms"),
    ("drbac.proof.searches", "count"), ("drbac.proof.edges", "count"),
    ("drbac.proof.self_ms", "ms"),
    ("drbac.incr.queries", "count"), ("drbac.incr.work", "count"), ("drbac.incr.self_ms", "ms"),
    ("drbac.cache.lookups", "count"), ("drbac.cache.hit_ratio", "ratio"),
    ("drbac.cache.evicted", "count"), ("drbac.cache.invalidated", "count"),
    ("drbac.cache.self_ms", "ms"),
    ("drbac.repo.publish.self_ms", "ms"), ("drbac.repo.collect.calls", "count"),
    ("drbac.repo.collect.self_ms", "ms"),
    ("drbac.wire.decode.calls", "count"), ("drbac.wire.decode.self_ms", "ms"),
    ("drbac.monitor.revoke.self_ms", "ms"),
    ("durable.wal.appends", "count"), ("durable.wal.bytes", "bytes"),
    ("durable.wal.append.self_ms", "ms"),
    ("durable.wal.compactions", "count"), ("durable.wal.compact.self_ms", "ms"),
    ("durable.recover.records", "count"), ("durable.recover.self_ms", "ms"),
    ("net.route.calls", "count"), ("net.route.self_ms", "ms"),
    ("net.transport.frames", "count"), ("net.transport.bytes", "bytes"),
    ("net.transport.frames_per_batch", "ratio"), ("net.transport.self_ms", "ms"),
    ("net.scheduler.events", "count"), ("net.scheduler.self_ms", "ms"),
    ("switchboard.handshake.calls", "count"), ("switchboard.handshake.self_ms", "ms"),
    ("switchboard.channel.frames", "count"), ("switchboard.channel.self_ms", "ms"),
    ("switchboard.rpc.calls", "count"), ("switchboard.rpc.self_ms", "ms"),
    ("views.vig.generate.calls", "count"), ("views.vig.generate.self_ms", "ms"),
    ("views.acl.resolve.calls", "count"), ("views.acl.resolve.self_ms", "ms"),
    ("views.coherence.images", "count"), ("views.coherence.image_bytes", "bytes"),
    ("views.coherence.self_ms", "ms"),
    ("views.proxy.self_ms", "ms"),
    ("psf.plan.calls", "count"), ("psf.plan.goals_expanded", "count"), ("psf.plan.self_ms", "ms"),
    ("psf.deploy.instances", "count"), ("psf.deploy.self_ms", "ms"),
    ("bench.oracle.self_ms", "ms"), ("bench.gen.self_ms", "ms"), ("bench.trace_overhead", "ratio"),
)

#: Span names whose self time is reported under a different metric stem.
SELF_MS = {
    "durable.wal.append": "durable.wal.append.self_ms",
    "durable.wal.compact": "durable.wal.compact.self_ms",
}

_COUNTERS = [
    N.PROOF_SEARCHES, N.INCR_FAST_PROOFS, N.INCR_FALLBACKS,
    N.DURABLE_WAL_APPENDS, N.DURABLE_WAL_BYTES, N.DURABLE_SNAPSHOTS, N.RECOVER_REPLAYED,
    N.SWB_HANDSHAKES_INITIATED, N.SWB_FRAMES_SENT, N.PLAN_ATTEMPTS, N.DEPLOY_INSTANCES,
    N.COHERENCE_IMAGES_PULLED, N.COHERENCE_IMAGES_PUSHED,
]
_IMAGE_METHODS = (
    "extractImageFromView", "mergeImageIntoView", "extractImageFromObj", "mergeImageIntoObj",
)


def probe(world: Any) -> dict[str, float]:
    """Cumulative program counts for ``world``; the runner takes deltas
    across the measured phase."""
    out: dict[str, float] = dict(counter_values(_COUNTERS))
    out[N.PLAN_GOALS_EXPANDED] = histogram_sum(N.PLAN_GOALS_EXPANDED)
    out["search_work"] = sum(e.search_work for e in world.engines)
    out["incr_work"] = sum(e.incremental.work for e in world.engines if e.incremental is not None)
    for stat in ("hits", "misses", "negative_hits", "evicted", "invalidated"):
        out[f"cache.{stat}"] = sum(getattr(c.stats, stat) for c in world.caches)
    for stat in ("messages_sent", "bytes_sent", "batches_sent", "frames_coalesced"):
        out[f"transport.{stat}"] = sum(getattr(t.stats, stat) for t in world.transports)
    out["scheduler.events"] = sum(s.events_processed for s in world.schedulers)
    return out


def _image_bytes(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
    image = result if result is not None else args[1]
    tracer.count("views.coherence.image_bytes", len(json.dumps(image, default=str)))


def _wrap_view_class(tracer: SpanTracer, args: tuple, kwargs: dict, cls: type) -> None:
    """Wrap a freshly generated view class's methods (once per class)."""
    if cls.__dict__.get("_perfbench_traced"):
        return
    cls._perfbench_traced = True
    for attr, value in list(cls.__dict__.items()):
        if attr.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        layer = "views.coherence" if attr in _IMAGE_METHODS else "views.proxy"
        tracer.patch_method(cls, attr, layer)


def _bytes_of_first_arg(name: str):
    def hook(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(name, len(args[1]))
    return hook


def install(tracer: SpanTracer) -> None:
    """Wrap every layer's entry points (traced run only)."""
    from repro.crypto.cipher import AuthenticatedCipher
    from repro.crypto.dh import DiffieHellman
    from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
    from repro.drbac.cache import CachedAuthorizer
    from repro.drbac.incremental import IncrementalProofEngine
    from repro.drbac.monitor import RevocationAuthority
    from repro.drbac.proof import ProofEngine
    from repro.drbac.repository import DistributedRepository
    from repro.durable.node import DurableNode
    from repro.durable.wal import WriteAheadLog
    from repro.net.events import EventScheduler
    from repro.net.simnet import Network
    from repro.net.transport import Transport
    from repro.psf.deployment import Deployer
    from repro.psf.planner import Planner
    from repro.switchboard.channel import SwitchboardConnection, SwitchboardEndpoint
    from repro.switchboard.rpc import PlainRpcEndpoint
    from repro.views.acl import ViewAccessPolicy
    from repro.views.coherence import CacheManager, LocalOrigin
    from repro.views.vig import Vig

    m = tracer.patch_method
    tracer.patch_function("repro.crypto.rsa", "generate_keypair", "crypto.rsa.keygen",
                          calls="crypto.rsa.keygen.calls")
    m(RsaPrivateKey, "sign", "crypto.rsa.sign", calls="crypto.rsa.sign.calls")
    m(RsaPublicKey, "verify", "crypto.rsa.verify", calls="crypto.rsa.verify.calls")
    m(DiffieHellman, "__post_init__", "crypto.dh")
    m(DiffieHellman, "compute_shared", "crypto.dh", calls="crypto.dh.calls")
    cipher_bytes = _bytes_of_first_arg("crypto.cipher.bytes")
    m(AuthenticatedCipher, "encrypt", "crypto.cipher", hook=cipher_bytes)
    m(AuthenticatedCipher, "decrypt", "crypto.cipher", hook=cipher_bytes)
    m(ProofEngine, "find_proof", "drbac.proof")
    m(IncrementalProofEngine, "try_prove", "drbac.incr")
    m(CachedAuthorizer, "authorize", "drbac.cache")
    m(DistributedRepository, "publish", "drbac.repo.publish")
    m(DistributedRepository, "collect", "drbac.repo.collect", calls="drbac.repo.collect.calls")
    tracer.patch_function("repro.drbac.wire", "delegation_from_wire", "drbac.wire.decode",
                          calls="drbac.wire.decode.calls")
    m(RevocationAuthority, "revoke", "drbac.monitor.revoke")
    m(WriteAheadLog, "append", "durable.wal.append")
    m(WriteAheadLog, "maybe_compact", "durable.wal.compact")
    m(DurableNode, "recover", "durable.recover")
    m(Network, "shortest_path", "net.route", calls="net.route.calls")
    m(Transport, "send", "net.transport")
    m(EventScheduler, "step", "net.scheduler")
    for attr in ("connect", "_on_hello", "_on_welcome"):
        m(SwitchboardEndpoint, attr, "switchboard.handshake")
    m(SwitchboardConnection, "call", "switchboard.channel")
    m(SwitchboardConnection, "_receive", "switchboard.channel")
    m(PlainRpcEndpoint, "call", "switchboard.rpc", calls="switchboard.rpc.calls")
    m(PlainRpcEndpoint, "_on_frame", "switchboard.rpc")
    m(Vig, "generate", "views.vig.generate", calls="views.vig.generate.calls",
      hook=_wrap_view_class)
    m(ViewAccessPolicy, "resolve", "views.acl.resolve", calls="views.acl.resolve.calls")
    m(CacheManager, "acquire_image", "views.coherence")
    m(CacheManager, "release_image", "views.coherence")
    m(LocalOrigin, "extract_image", "views.coherence", hook=_image_bytes)
    m(LocalOrigin, "merge_image", "views.coherence", hook=_image_bytes)
    m(Planner, "plan", "psf.plan")
    m(Deployer, "deploy", "psf.deploy")


def per_layer(
    tracer: SpanTracer, counts: dict[str, float], overhead: float
) -> tuple[dict[str, float], dict[str, float]]:
    """``(metrics, setup_self_ms)``: every PER_LAYER metric for the measured
    phase, and set-up self time per span name for the printed table."""
    measured, setup = tracer.self_times()
    values: dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for span, seconds in measured.items():
        key = SELF_MS.get(span, f"{span}.self_ms")
        if key in values:
            values[key] += seconds * 1e3
    for name, amount in tracer.counts.items():
        if name in values:
            values[name] = float(amount)
    lookups = counts["cache.hits"] + counts["cache.misses"] + counts["cache.negative_hits"]
    frames = counts["transport.messages_sent"]
    hits = counts["cache.hits"] + counts["cache.negative_hits"]
    wire = frames - counts["transport.frames_coalesced"] + counts["transport.batches_sent"]
    values.update({
        "drbac.proof.searches": counts[N.PROOF_SEARCHES],
        "drbac.proof.edges": counts["search_work"],
        "drbac.incr.queries": counts[N.INCR_FAST_PROOFS] + counts[N.INCR_FALLBACKS],
        "drbac.incr.work": counts["incr_work"],
        "drbac.cache.lookups": lookups,
        "drbac.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "drbac.cache.evicted": counts["cache.evicted"],
        "drbac.cache.invalidated": counts["cache.invalidated"],
        "durable.wal.appends": counts[N.DURABLE_WAL_APPENDS],
        "durable.wal.bytes": counts[N.DURABLE_WAL_BYTES],
        "durable.wal.compactions": counts[N.DURABLE_SNAPSHOTS],
        "durable.recover.records": counts[N.RECOVER_REPLAYED],
        "net.transport.frames": frames,
        "net.transport.bytes": counts["transport.bytes_sent"],
        "net.transport.frames_per_batch": frames / wire if wire else 0.0,
        "net.scheduler.events": counts["scheduler.events"],
        "switchboard.handshake.calls": counts[N.SWB_HANDSHAKES_INITIATED],
        "switchboard.channel.frames": counts[N.SWB_FRAMES_SENT],
        "views.coherence.images": (
            counts[N.COHERENCE_IMAGES_PULLED] + counts[N.COHERENCE_IMAGES_PUSHED]
        ),
        "psf.plan.calls": counts[N.PLAN_ATTEMPTS],
        "psf.plan.goals_expanded": counts[N.PLAN_GOALS_EXPANDED],
        "psf.deploy.instances": counts[N.DEPLOY_INSTANCES],
        "bench.trace_overhead": overhead,
    })
    setup_ms = {span: seconds * 1e3 for span, seconds in setup.items()}
    return values, setup_ms

