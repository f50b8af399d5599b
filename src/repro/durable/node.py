"""The recoverable node: WAL + snapshot replay + sequence-numbered catch-up.

A :class:`DurableNode` wraps one :class:`~repro.drbac.engine.DrbacEngine`
(and optionally its :class:`~repro.drbac.cache.CachedAuthorizer`) and
makes node restart a real, lossy event:

* while **up**, every update delivered by the :class:`UpdateFeed` is
  appended to the node's :class:`~repro.durable.wal.WriteAheadLog`
  *before* it is applied to the engine, and the log periodically
  compacts into a snapshot;
* :meth:`crash` stops applying updates and drops every volatile
  structure's claim to truth — the in-memory repository shards, the
  incremental engine's reachability and dependents indexes, the
  ``MonitorHub`` subscription table, and the authorization cache are all
  treated as lost;
* :meth:`restart` runs the recovery protocol: replay snapshot+WAL (a
  torn tail shortens the replay to a valid prefix), rebuild the
  incremental indexes by republishing the recovered live credentials,
  re-subscribe monitor callbacks, pull exactly the missed gap
  ``(last_durable_seqno, peer_seqno]`` from the feed, and conservatively
  evict every cache entry not provable from the recovered state.

The recovery invariant the simulation tester checks end to end: after
``restart`` returns, the node's observable authorization behaviour is
identical to a node that never crashed — even when revocations landed
while it was down and the WAL tail was torn off.  ``mutation =
"skip-catchup"`` deliberately breaks the gap pull, which the
differential drill must detect as an oracle divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .. import obs
from ..drbac.repository import BOTH_TAGS, DiscoveryTag
from ..drbac.wire import delegation_from_wire, delegation_to_wire
from ..obs import names as metric_names
from .disk import SimDisk
from .wal import WriteAheadLog, digest_state

MUTATIONS = ("skip-catchup",)

FeedListener = Callable[[int, str, dict], None]
"""Called with (seqno, kind, payload) for each feed update."""

_TAG_BY_VALUE = {tag.value: tag for tag in DiscoveryTag}


def _tags_to_wire(tags) -> list[str]:
    return sorted(tag.value for tag in tags)


def _tags_from_wire(values: list[str]) -> frozenset[DiscoveryTag]:
    return frozenset(_TAG_BY_VALUE[value] for value in values)


class UpdateFeed:
    """The live-replica update stream: publishes and revokes, numbered.

    The feed is the durability anchor *outside* the crashing node — in a
    deployed system it is the surviving replica (or the org's credential
    authority) that kept serving while the node was down.  Every update
    gets the next monotonic sequence number; subscribers receive it
    synchronously; :meth:`since` replays the gap a recovering node
    missed.  The feed itself never crashes in this model — quorum writes
    so *it* can fail too are an open item on the roadmap.
    """

    def __init__(self) -> None:
        self.seqno = 0
        self._updates: list[tuple[int, str, dict]] = []
        self._listeners: list[FeedListener] = []

    def subscribe(self, listener: FeedListener) -> None:
        self._listeners.append(listener)

    def _emit(self, kind: str, payload: dict) -> int:
        self.seqno += 1
        seq = self.seqno
        self._updates.append((seq, kind, payload))
        for listener in list(self._listeners):
            listener(seq, kind, payload)
        return seq

    def publish(self, delegation, tags=BOTH_TAGS) -> int:
        return self._emit(
            "publish",
            {"cred": delegation_to_wire(delegation), "tags": _tags_to_wire(tags)},
        )

    def revoke(self, delegation) -> int:
        return self._emit(
            "revoke",
            {"id": delegation.credential_id, "home": delegation.home_entity},
        )

    def since(self, seqno: int) -> list[tuple[int, str, dict]]:
        """Every update with sequence number strictly greater than ``seqno``.

        Sequence numbers run contiguously from 1, so the update numbered
        ``n`` sits at index ``n - 1`` and the gap is one slice: O(gap),
        not O(every update ever emitted).
        """
        return self._updates[max(seqno, 0):]


@dataclass(slots=True)
class RecoveryReport:
    """Deterministic accounting for one recovery pass."""

    snapshot_creds: int
    wal_records_replayed: int
    torn_bytes: int
    catchup_updates: int
    cache_evicted: int
    cache_kept: int
    work_units: int
    """Records replayed + catch-up updates + incremental re-fold edges:
    the deterministic "recovery time" the bench reports instead of wall
    seconds."""

    def to_dict(self) -> dict[str, int]:
        return {
            "snapshot_creds": self.snapshot_creds,
            "wal_records_replayed": self.wal_records_replayed,
            "torn_bytes": self.torn_bytes,
            "catchup_updates": self.catchup_updates,
            "cache_evicted": self.cache_evicted,
            "cache_kept": self.cache_kept,
            "work_units": self.work_units,
        }


class DurableNode:
    """One crash-recoverable authorization node.

    ``engine`` is the node's :class:`~repro.drbac.engine.DrbacEngine`;
    ``cache`` its (optional) :class:`~repro.drbac.cache.CachedAuthorizer`
    — passed in so recovery can scrub it; ``feed`` the
    :class:`UpdateFeed` this node consumes (optional for WAL-only
    setups, required for catch-up after a torn tail).
    """

    def __init__(
        self,
        *,
        engine,
        cache=None,
        feed: UpdateFeed | None = None,
        disk: SimDisk | None = None,
        compact_every: int = 64,
        mutation: str | None = None,
    ) -> None:
        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(
                f"unknown recovery mutation {mutation!r}; pick from {MUTATIONS}"
            )
        self.engine = engine
        self.cache = cache
        self.feed = feed
        self.mutation = mutation
        self.disk = disk or SimDisk()
        self.wal = WriteAheadLog(self.disk, compact_every=compact_every)
        self.up = True
        self.last_seqno = 0
        self.recoveries = 0
        # Ordered durable-state mirror, rebuilt from disk on recovery:
        # publish order matters (repository bucket order and incremental
        # folds are order-sensitive), so a dict in insertion order.  It
        # holds live credentials only (``_creds`` and ``_revoked_ids`` are
        # disjoint): a revoked delegation is dead for good, so it is
        # remembered as a revocation fact, not carried in snapshots and
        # republished on every restart.
        self._creds: dict[str, dict] = {}
        self._revoked: list[list] = []
        self._revoked_ids: set[str] = set()
        if feed is not None:
            feed.subscribe(self._on_update)

    # -- live path ----------------------------------------------------------

    def _on_update(self, seq: int, kind: str, payload: dict) -> None:
        if not self.up:
            return  # missed while down; catch-up pulls it on restart
        self._log(seq, kind, payload)
        self._apply(kind, payload)

    def _log(self, seq: int, kind: str, payload: dict) -> None:
        self.wal.append({"seq": seq, "kind": kind, "payload": payload})
        self.last_seqno = seq
        self._fold(seq, kind, payload)
        self.wal.maybe_compact(self._snapshot_payload)

    def _fold(self, seq: int, kind: str, payload: dict) -> None:
        """Fold one update into the in-memory durable-state mirror."""
        if kind == "publish":
            self._fold_publish(payload)
        elif kind == "revoke":
            self._fold_revoke(payload["home"], payload["id"])

    def _fold_publish(self, payload: dict) -> None:
        cred_id = payload["cred"]["id"]
        if cred_id not in self._revoked_ids:
            self._creds.setdefault(cred_id, payload)

    def _fold_revoke(self, home: str, cred_id: str) -> None:
        self._creds.pop(cred_id, None)
        if cred_id not in self._revoked_ids:
            self._revoked_ids.add(cred_id)
            self._revoked.append([home, cred_id])

    def _apply(self, kind: str, payload: dict) -> None:
        if kind == "publish":
            self.engine.repository.publish(
                delegation_from_wire(payload["cred"]),
                _tags_from_wire(payload["tags"]),
            )
        elif kind == "revoke":
            self.engine.revocations.authority(payload["home"]).revoke(payload["id"])

    def _snapshot_payload(self) -> dict:
        return {
            "seq": self.last_seqno,
            "creds": list(self._creds.values()),
            "revoked": list(self._revoked),
        }

    # -- crash / restart ----------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: volatile state is dead; only the disk survives."""
        self.up = False
        self._creds = {}
        self._revoked = []
        self._revoked_ids = set()

    def restart(self, *, torn_tail_bytes: int = 0) -> RecoveryReport:
        """Come back from a crash, optionally with a torn WAL tail."""
        if torn_tail_bytes:
            self.wal.truncate_tail(torn_tail_bytes)
        return self.recover()

    def recover(self) -> RecoveryReport:
        """The recovery protocol; safe to run again on a live node.

        Replay is idempotent: recovering twice from the same durable
        state produces the identical engine state, because every step
        rebuilds from the disk image rather than mutating leftovers.
        """
        engine = self.engine
        incr = engine.incremental
        work_before = incr.work if incr is not None else 0

        snapshot, records, torn_bytes = self.wal.load()

        # Fold durable history into a fresh mirror.
        self._creds = {}
        self._revoked = []
        self._revoked_ids = set()
        self.last_seqno = 0
        if snapshot is not None:
            self.last_seqno = int(snapshot["seq"])
            # Revocations first, so a credential the snapshot lists as
            # both live and revoked stays out of the mirror.
            for home, cred_id in snapshot["revoked"]:
                self._fold_revoke(home, cred_id)
            for cred_payload in snapshot["creds"]:
                self._fold_publish(cred_payload)
        for record in records:
            self.last_seqno = max(self.last_seqno, int(record["seq"]))
            self._fold(int(record["seq"]), record["kind"], record["payload"])

        # Scrub every volatile structure in place (object identity is
        # shared with guards and views, so we reset rather than rebuild).
        engine.monitor_hub.reset()
        engine.revocations.reset()
        engine.repository.reset_state()
        if incr is not None:
            incr.reset()

        # Revocations first, in one bulk load (the reset left no
        # subscriber to notify), then the live credentials.
        engine.revocations.restore(self._revoked)
        for payload in self._creds.values():
            self._apply("publish", payload)
        obs.counter(metric_names.RECOVER_REPLAYED).inc(len(records))

        # Delta catch-up: pull exactly the gap the node missed while
        # down (or lost to the torn tail) from the live replica.
        catchup = 0
        if self.feed is not None and self.mutation != "skip-catchup":
            for seq, kind, payload in self.feed.since(self.last_seqno):
                self._log(seq, kind, payload)
                self._apply(kind, payload)
                catchup += 1
        obs.counter(metric_names.RECOVER_CATCHUP).inc(catchup)

        # Conservative cache scrub: keep only entries provable from the
        # recovered (and caught-up) state, re-watching their credentials.
        evicted = kept = 0
        if self.cache is not None:
            evicted, kept = self.cache.recover(published=self.published_ids())
        obs.counter(metric_names.RECOVER_CACHE_EVICTED).inc(evicted)
        obs.counter(metric_names.RECOVER_CACHE_KEPT).inc(kept)

        self.up = True
        self.recoveries += 1
        work_units = (
            len(records)
            + catchup
            + ((incr.work - work_before) if incr is not None else 0)
        )
        obs.counter(metric_names.RECOVER_RESTARTS).inc()
        obs.histogram(
            metric_names.RECOVER_WORK, metric_names.COUNT_BUCKETS
        ).observe(work_units)
        report = RecoveryReport(
            snapshot_creds=len(snapshot["creds"]) if snapshot is not None else 0,
            wal_records_replayed=len(records),
            torn_bytes=torn_bytes,
            catchup_updates=catchup,
            cache_evicted=evicted,
            cache_kept=kept,
            work_units=work_units,
        )
        obs.event(
            "durable.recovered", seq=self.last_seqno,
            replayed=report.wal_records_replayed, catchup=catchup,
            torn_bytes=torn_bytes,
        )
        return report

    # -- introspection ------------------------------------------------------

    def published_ids(self) -> frozenset[str]:
        """The ids of the live credentials in the node's durable state.

        A revoked credential is dropped on revoke (and never added if its
        revocation arrived first); ``state_payload()["revoked"]`` lists
        the revoked ids.
        """
        return frozenset(self._creds)

    def state_payload(self) -> dict[str, Any]:
        """JSON-compatible view of the durable state (order-sensitive)."""
        return {
            "seq": self.last_seqno,
            "creds": list(self._creds),
            "revoked": sorted(self._revoked_ids),
        }

    def state_digest(self) -> str:
        return digest_state(self.state_payload())
