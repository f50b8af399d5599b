"""``authz-churn``: one durable authorization node under credential churn.

A signer issues self-certifying, attribute-free membership credentials
across three orgs; an :class:`~repro.durable.UpdateFeed` delivers every
publish and revoke to one :class:`~repro.durable.DurableNode`, which logs
it to its WAL (with snapshot compaction) and applies it to an incremental
:class:`~repro.drbac.DrbacEngine` behind a sharded
:class:`~repro.drbac.CachedAuthorizer`.  One closed-loop caller mostly
authorizes, mixed with equal numbers of publishes and revokes and with
clock advances.  At a fixed op interval the node crashes, updates keep
publishing while it is down, and it restarts with a seeded torn WAL tail.

The 60 x 12 (subject, role) query space outnumbers the 128-entry cache,
so the miss and eviction paths run.  Every verdict is checked against
:class:`~repro.check.oracles.DrbacOracle` (as :class:`LiveOracle`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.check.oracles import DrbacOracle
from repro.clock import ManualClock
from repro.crypto import KeyStore
from repro.drbac import CachedAuthorizer, DrbacEngine
from repro.durable import DurableNode, UpdateFeed
from repro.errors import AuthorizationError

from harness import Recorder

NAME = "authz-churn"
PRIMARY = "authorize_us"
#: (metric, unit, with tail) printed for this workload, besides the generic ones.
METRICS = (
    ("authorize_us", "us", True),
    ("issue_us", "us", True),
    ("revoke_us", "us", True),
    ("recovery_ms", "ms", False),
)
#: Operations per requested second: sizes the measured phase by count (in
#: whole crash cycles), so every commit replays the same ops and state growth.
OPS_PER_SECOND = 2800

ROLES = (
    "OrgA.Reader", "OrgA.Writer", "OrgA.Auditor", "OrgA.Admin",
    "OrgB.Member", "OrgB.Partner", "OrgB.Billing", "OrgB.Support",
    "OrgC.Guest", "OrgC.Operator", "OrgC.Analyst", "OrgC.Owner",
)
SUBJECTS = tuple(f"user{i}" for i in range(60))
CACHE_ENTRIES = 128
CACHE_SHARDS = 8
COMPACT_EVERY = 64
PRELOAD_ROLES_PER_SUBJECT = 2
PRELOAD_CHAINS = 24
WARMUP_AUTHORIZES = 400
#: One block of live ops, shuffled per block so every seed has the same mix.
#: Publishes and revokes are equal in number, so the live credential set
#: stays near its preloaded size instead of growing with run length.
BLOCK = ("authorize",) * 42 + ("publish",) * 3 + ("revoke",) * 3 + ("advance",) * 2
#: Ops published while the node is down, per crash (balanced the same way).
DOWNTIME = ("publish",) * 4 + ("revoke",) * 4 + ("advance",) * 2
CRASH_EVERY = 1000
MAX_TORN_TAIL = 48
CHAIN_RATE = 0.25
TTL_RATE = 0.30


class LiveOracle(DrbacOracle):
    """:class:`DrbacOracle` that forgets revoked edges.  A revoked edge is
    never live again, and dropping it keeps each ``holds`` fixpoint
    proportional to the credentials still held, not to every credential
    issued so far, so the reference checks do not slow as a run goes on."""

    def revoke(self, ref: str) -> None:
        self._edges.pop(ref, None)


def _issuer(role: str) -> str:
    return role.split(".", 1)[0]


class Generator:
    """Seeded credential and query draws shared by preload and schedule."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.issued = 0
        self.revocable: list[int] = []
        self.pairs: list[tuple[str, str]] = []

    def credential(self, *, chain: bool, ttl: bool) -> tuple:
        rng = self.rng
        role = rng.choice(ROLES)
        if chain:
            subject = rng.choice([r for r in ROLES if _issuer(r) != _issuer(role)])
        else:
            subject = rng.choice(SUBJECTS)
            self.pairs.append((subject, role))
        ttl_s = round(rng.uniform(3.0, 40.0), 3) if ttl else None
        self.revocable.append(self.issued)
        self.issued += 1
        return ("publish", _issuer(role), subject, role, ttl_s)

    def op(self, kind: str) -> tuple:
        rng = self.rng
        if kind == "publish" or (kind == "revoke" and not self.revocable):
            return self.credential(
                chain=rng.random() < CHAIN_RATE, ttl=rng.random() < TTL_RATE
            )
        if kind == "revoke":
            return ("revoke", self.revocable.pop(rng.randrange(len(self.revocable))))
        if kind == "advance":
            return ("advance", round(rng.uniform(0.5, 3.0), 3))
        return ("authorize",) + self.query()

    def query(self) -> tuple[str, str]:
        rng = self.rng
        if self.pairs and rng.random() < 0.65:
            return rng.choice(self.pairs)
        return rng.choice(SUBJECTS), rng.choice(ROLES)


def generate(seed: int, cycles: int) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """``(preload, warmup, schedule)`` for one seed; ``schedule`` is ``cycles``
    crash cycles, each ``CRASH_EVERY`` live ops then a crash and restart."""
    gen = Generator(random.Random(f"perfbench-{NAME}-{seed}"))
    preload = []
    for subject in SUBJECTS:
        for role in gen.rng.sample(ROLES, PRELOAD_ROLES_PER_SUBJECT):
            gen.revocable.append(gen.issued)
            gen.issued += 1
            gen.pairs.append((subject, role))
            preload.append(("publish", _issuer(role), subject, role, None))
    for _ in range(PRELOAD_CHAINS):
        preload.append(gen.credential(chain=True, ttl=False))
    warmup = [gen.query() for _ in range(WARMUP_AUTHORIZES)]

    schedule: list[tuple] = []
    for _ in range(cycles):
        for _ in range(CRASH_EVERY // len(BLOCK)):
            block = list(BLOCK)
            gen.rng.shuffle(block)
            schedule.extend(gen.op(kind) for kind in block)
        schedule.append(("crash",))
        down = list(DOWNTIME)
        gen.rng.shuffle(down)
        schedule.extend(gen.op(kind) for kind in down)
        schedule.append(("restart", gen.rng.randrange(MAX_TORN_TAIL + 1)) + gen.query())
    return preload, warmup, schedule


@dataclass
class World:
    clock: ManualClock
    signer: DrbacEngine
    feed: UpdateFeed
    engine: DrbacEngine
    cache: CachedAuthorizer
    node: DurableNode
    oracle: LiveOracle
    creds: list = field(default_factory=list)
    engines: list = field(default_factory=list)
    caches: list = field(default_factory=list)
    transports: list = field(default_factory=list)
    schedulers: list = field(default_factory=list)


class Workload:
    primary = PRIMARY
    metrics = METRICS

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        cycles = max(1, round(seconds * OPS_PER_SECOND / CRASH_EVERY))
        self.preload, self.warmup, self.schedule = generate(seed, cycles)
        self.ops = len(self.schedule)

    def build(self) -> World:
        """Keygen, preload issue through the feed, and cache warm-up."""
        clock = ManualClock()
        key_store = KeyStore(key_bits=512)
        signer = DrbacEngine(key_store=key_store, clock=clock, incremental=False)
        feed = UpdateFeed()
        engine = DrbacEngine(key_store=key_store, clock=clock, incremental=True)
        cache = CachedAuthorizer(engine, max_entries=CACHE_ENTRIES, shards=CACHE_SHARDS)
        node = DurableNode(engine=engine, cache=cache, feed=feed, compact_every=COMPACT_EVERY)
        world = World(
            clock=clock, signer=signer, feed=feed, engine=engine, cache=cache,
            node=node, oracle=LiveOracle(), engines=[engine], caches=[cache],
        )
        for op in self.preload:
            self._remember(world, op, *self._issue(world, op))
        for subject, role in self.warmup:
            self._authorize(world, subject, role)
        return world

    # -- operations --------------------------------------------------------

    @staticmethod
    def _issue(world: World, op: tuple) -> tuple[Any, float | None]:
        """Sign one credential and publish it to the feed (the node logs and
        applies it synchronously while up)."""
        _, issuer, subject, role, ttl = op
        expires_at = world.clock.now() + ttl if ttl is not None else None
        delegation = world.signer.delegate(
            issuer, subject, role, expires_at=expires_at, publish=False
        )
        world.feed.publish(delegation)
        return delegation, expires_at

    @staticmethod
    def _remember(world: World, op: tuple, delegation: Any, expires_at: float | None) -> None:
        world.creds.append(delegation)
        world.oracle.delegate(delegation.credential_id, op[2], op[3], expires_at=expires_at)

    @staticmethod
    def _authorize(world: World, subject: str, role: str) -> bool:
        try:
            world.cache.authorize(subject, role)
            return True
        except AuthorizationError:
            return False

    def run(self, world: World, rec: Recorder) -> None:
        clock, feed, oracle, node = world.clock, world.feed, world.oracle, world.node
        perf = time.perf_counter
        for index, op in enumerate(self.schedule):
            rec.tracer.op = index
            rec.attempted += 1
            kind = op[0]
            try:
                if kind == "authorize":
                    start = perf()
                    verdict = self._authorize(world, op[1], op[2])
                    rec.add("authorize_us", perf() - start)
                    with rec.oracle:
                        rec.check(
                            verdict == oracle.holds(op[1], op[2], clock.now()),
                            f"op {index}: {op[1]} -> {op[2]} verdict {verdict}",
                        )
                elif kind == "publish":
                    start = perf()
                    delegation, expires_at = self._issue(world, op)
                    elapsed = perf() - start
                    if node.up:
                        rec.add("issue_us", elapsed)
                    with rec.oracle:
                        self._remember(world, op, delegation, expires_at)
                elif kind == "revoke":
                    delegation = world.creds[op[1]]
                    start = perf()
                    feed.revoke(delegation)
                    elapsed = perf() - start
                    if node.up:
                        rec.add("revoke_us", elapsed)
                    with rec.oracle:
                        oracle.revoke(delegation.credential_id)
                elif kind == "advance":
                    clock.advance(op[1])
                elif kind == "crash":
                    node.crash()
                else:  # restart, then the first authorize it serves
                    _, torn, subject, role = op
                    start = perf()
                    node.restart(torn_tail_bytes=torn)
                    verdict = self._authorize(world, subject, role)
                    rec.add("recovery_ms", perf() - start)
                    with rec.oracle:
                        rec.check(node.up, f"op {index}: node not up after restart")
                        rec.check(
                            verdict == oracle.holds(subject, role, clock.now()),
                            f"op {index}: post-restart {subject} -> {role} verdict {verdict}",
                        )
            except AssertionError:
                raise
            except Exception as exc:  # an unexpected error is a failed op
                rec.fail(f"{kind}#{index}", exc)

    def state(self, world: World) -> dict[str, Any]:
        disk = world.node.disk
        return {
            "credentials_held": len(world.node.published_ids()),
            "credentials_issued": len(world.creds),
            "feed_seqno": world.feed.seqno,
            "wal_bytes": disk.size("wal") + disk.size("snapshot"),
            "cache_entries": len(world.cache),
        }
