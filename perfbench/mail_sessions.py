"""``mail-sessions``: the paper's three-site mail scenario, one session at a time.

The world is :func:`repro.mail.build_scenario` (Table 2 credentials,
Table 4 view policy).  One closed-loop caller opens sessions in the three
shapes pinned by ``tests/mail/test_e2e.py`` -- Alice direct at ``ny-pc1``;
Bob at ``sd-pc1`` with privacy QoS, served by a ``ViewMailServer`` over an
encrypted Switchboard channel; Charlie at ``se-pc1`` with privacy QoS and
``use_views=False``, served by an Encryptor/Decryptor pair -- and drives
a seeded run of ``sendMail``/``fetchMail`` calls through each session.

Every few sessions a revoke cycle runs, as in ``TestSingleSignOnRevocation``
and ``TestReissueAfterRevocation``: Bob or Charlie signs on to the NY mail
host over a Switchboard channel authorized by their Table 2 membership
chain, a credential in that channel's proof is revoked, the scheduler is
drained until the client's end is cut off, and the credential is reissued.

Coherence ships the whole server image on every Bob call, so the amount
of stored mail sets ``call_us``.  The set-up preloads ``KEEP`` messages
per mailbox and, after each session, the harness trims every mailbox back
to its newest ``KEEP`` (outside the timers), so the image stays the same
size for the whole run.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass, field
from typing import Any

from repro.crypto import KeyStore
from repro.drbac import DelegationType
from repro.drbac.model import EntityRef, Role
from repro.errors import ChannelClosedError
from repro.mail import build_scenario
from repro.psf import EdgeRequirement, ServiceRequest
from repro.switchboard import AuthorizationSuite, RoleAuthorizer
from repro.switchboard.channel import ChannelState

from harness import Recorder

NAME = "mail-sessions"
PRIMARY = "call_us"
METRICS = (
    ("call_us", "us", True),
    ("session_open_ms", "ms", True),
    ("revoke_us", "us", True),
)
#: Sessions per requested second: sizes the measured phase by count, in
#: whole revoke periods of ``REVOKE_EVERY`` sessions.
SESSIONS_PER_SECOND = 13
CALLS_PER_SESSION = ("sendMail",) * 4 + ("fetchMail",) * 8
#: A revoke cycle runs after every this many sessions.
REVOKE_EVERY = 6
#: Messages kept per mailbox: preloaded at set-up, restored after each session.
KEEP = 12
USERS = ("Alice", "Bob", "Charlie")
PRIVACY = EdgeRequirement(privacy=True, channel="rmi")


@dataclass(frozen=True)
class Shape:
    client: str
    node: str
    qos: EdgeRequirement | None
    use_views: bool
    deployed: tuple[str, ...]
    """Components the planner must deploy, sorted."""
    view: str
    """The client's Table 4 view of MailClient."""


SHAPES = {
    "Alice": Shape("Alice", "ny-pc1", None, True, (), "ViewMailClient_Member"),
    "Bob": Shape("Bob", "sd-pc1", PRIVACY, True, ("ViewMailServer",), "ViewMailClient_Member"),
    "Charlie": Shape(
        "Charlie", "se-pc1", PRIVACY, False, ("Decryptor", "Encryptor"), "ViewMailClient_Partner"
    ),
}
#: Sign-on service and the role its channel's proof must reach, per client.
SIGNON = {
    "Bob": ("signon-member", "Comp.NY.Member"),
    "Charlie": ("signon-partner", "Comp.NY.Partner"),
}
MAIL_HOST = "ny-server"


def _message(rng: random.Random, sender: str, serial: int) -> dict:
    body = "".join(rng.choices(string.ascii_letters, k=rng.randrange(40, 161)))
    return {
        "sender": sender,
        "recipient": rng.choice(USERS),
        "subject": f"m{serial}",
        "body": body,
    }


def generate(seed: int, sessions: int) -> tuple[list[dict], list[tuple]]:
    """``(preload messages, schedule)``; the schedule holds ``("session",
    client, calls)`` and ``("revoke", client, pick)`` entries, the session
    shapes balanced in shuffled blocks of three."""
    rng = random.Random(f"perfbench-{NAME}-{seed}")
    serial = 0
    preload = []
    for user in USERS:
        for _ in range(KEEP):
            message = _message(rng, rng.choice(USERS), serial)
            message["recipient"] = user
            preload.append(message)
            serial += 1
    schedule: list[tuple] = []
    opened = 0
    revoker = 0
    while opened < sessions:
        block = list(USERS)
        rng.shuffle(block)
        for client in block[: sessions - opened]:
            kinds = list(CALLS_PER_SESSION)
            rng.shuffle(kinds)
            calls = []
            for kind in kinds:
                if kind == "sendMail":
                    calls.append(("sendMail", _message(rng, client, serial)))
                    serial += 1
                else:
                    calls.append(("fetchMail", client))
            schedule.append(("session", client, tuple(calls)))
            opened += 1
            if opened % REVOKE_EVERY == 0:
                schedule.append(("revoke", ("Bob", "Charlie")[revoker % 2], rng.randrange(1 << 16)))
                revoker += 1
    return preload, schedule


@dataclass
class World:
    scenario: Any
    model: dict[str, list[dict]]
    deployed: int = 0
    engines: list = field(default_factory=list)
    caches: list = field(default_factory=list)
    transports: list = field(default_factory=list)
    schedulers: list = field(default_factory=list)


class Workload:
    primary = PRIMARY
    metrics = METRICS

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        periods = max(1, round(seconds * SESSIONS_PER_SECOND / REVOKE_EVERY))
        sessions = periods * REVOKE_EVERY
        self.preload, self.schedule = generate(seed, sessions)
        self.ops = sum(
            1 + len(entry[2]) if entry[0] == "session" else 1 for entry in self.schedule
        )

    def build(self) -> World:
        """Scenario (keygen, Table 2 issue), sign-on listeners, mail
        preload, and one warm-up session per shape."""
        scenario = build_scenario(key_store=KeyStore(key_bits=512))
        psf = scenario.psf
        host = psf.deployer.node_runtime(MAIL_HOST)
        for service, role in SIGNON.values():
            host.switchboard.listen(
                service,
                AuthorizationSuite(
                    identity=psf.engine.identity(service),
                    authorizer=RoleAuthorizer(psf.engine, role),
                ),
            )
        model: dict[str, list[dict]] = {user: [] for user in USERS}
        for message in self.preload:
            scenario.server.sendMail(message)
            model[message["recipient"]].append(dict(message))
        world = World(
            scenario=scenario, model=model, engines=[psf.engine],
            transports=[psf.transport], schedulers=[psf.scheduler],
        )
        for client in USERS:
            session = self._open(world, SHAPES[client])[0]
            session.access.fetchMail(client)
        return world

    # -- operations --------------------------------------------------------

    @staticmethod
    def _open(world: World, shape: Shape) -> tuple[Any, Any]:
        scenario = world.scenario
        psf = scenario.psf
        request = ServiceRequest(
            client=shape.client, client_node=shape.node, interface="MailI",
            **({"qos": shape.qos} if shape.qos is not None else {}),
        )
        session = psf.request_service(request, use_views=shape.use_views)
        decision = psf.registrar.policy("MailClient").resolve(
            shape.client, scenario.engine, scenario.client_wallet(shape.client).credentials()
        )
        return session, decision

    def run(self, world: World, rec: Recorder) -> None:
        perf = time.perf_counter
        op_id = 0
        for entry in self.schedule:
            if entry[0] == "revoke":
                rec.tracer.op = op_id
                op_id += 1
                rec.attempted += 1
                try:
                    self._revoke_cycle(world, rec, entry[1], entry[2])
                except AssertionError:
                    raise
                except Exception as exc:
                    rec.fail(f"revoke#{op_id}", exc)
                continue
            _, client, calls = entry
            shape = SHAPES[client]
            rec.tracer.op = op_id
            op_id += 1
            rec.attempted += 1
            try:
                start = perf()
                session, decision = self._open(world, shape)
                rec.add("session_open_ms", perf() - start)
            except AssertionError:
                raise
            except Exception as exc:
                rec.fail(f"open#{op_id}", exc)
                rec.attempted += len(calls)
                rec.failed += len(calls)
                op_id += len(calls)
                continue
            with rec.oracle:
                deployed = tuple(sorted(session.plan.deployed_names()))
                rec.check(deployed == shape.deployed, f"{client} deployed {deployed}")
                rec.check(
                    decision is not None and decision.view_name == shape.view,
                    f"{client} resolved {decision and decision.view_name}",
                )
                world.deployed += len(deployed)
            for method, arg in calls:
                rec.tracer.op = op_id
                op_id += 1
                rec.attempted += 1
                try:
                    start = perf()
                    result = getattr(session.access, method)(arg)
                    rec.add("call_us", perf() - start)
                except AssertionError:
                    raise
                except Exception as exc:
                    rec.fail(f"{method}#{op_id}", exc)
                    continue
                with rec.oracle:
                    if method == "sendMail":
                        rec.check(result is True, f"sendMail returned {result!r}")
                        world.model[arg["recipient"]].append(dict(arg))
                    else:
                        rec.check(
                            result == world.model[arg],
                            f"fetchMail({arg}) differs from the model "
                            f"({len(result)} vs {len(world.model[arg])} messages)",
                        )
            with rec.gen:
                self._retain(world)

    @staticmethod
    def _retain(world: World) -> None:
        """Trim every mailbox, and the model, to its newest ``KEEP`` messages."""
        mailboxes = world.scenario.server.mailboxes
        for user in USERS:
            mailboxes[user] = mailboxes[user][-KEEP:]
            world.model[user] = world.model[user][-KEEP:]

    def _signon(self, world: World, client: str):
        scenario = world.scenario
        service, _role = SIGNON[client]
        runtime = scenario.psf.deployer.node_runtime(SHAPES[client].node)
        suite = AuthorizationSuite(
            identity=scenario.engine.identity(client),
            credentials=scenario.client_wallet(client).credentials(),
        )
        conn = runtime.switchboard.connect(MAIL_HOST, service, suite).wait()
        host = scenario.psf.deployer.node_runtime(MAIL_HOST).switchboard
        server_end = next(c for c in host.connections() if c.conn_id == conn.conn_id)
        return conn, server_end

    def _revoke_cycle(self, world: World, rec: Recorder, client: str, pick: int) -> None:
        """Sign on, revoke a credential in the channel's proof, drain until
        the client is cut off (timed), then reissue and sign on again."""
        scenario = world.scenario
        engine = scenario.engine
        scheduler = scenario.psf.scheduler
        _service, role = SIGNON[client]
        conn, server_end = self._signon(world, client)
        mailbox = conn.call_sync("MailServer", "fetchMail", [client])
        chain = server_end.monitor.proof.all_delegations()
        target = chain[pick % len(chain)]
        with rec.oracle:
            rec.check(mailbox == world.model[client], f"sign-on fetchMail({client}) differs")

        start = time.perf_counter()
        engine.revoke(target)
        while conn.state is ChannelState.OPEN and scheduler.step():
            pass
        rec.add("revoke_us", time.perf_counter() - start)

        with rec.oracle:
            rec.check(conn.state is ChannelState.REVOKED, f"{client} channel {conn.state}")
            try:
                conn.call_sync("MailServer", "fetchMail", [client])
                rec.check(False, f"{client} called through a revoked channel")
            except ChannelClosedError:
                pass
            rec.check(
                engine.find_proof(EntityRef(client), Role.parse(role)) is None,
                f"{client} still proves {role} after revoking {target.credential_id}",
            )

        fresh = engine.delegate(
            target.issuer, target.subject, target.role,
            assignment=target.delegation_type is DelegationType.ASSIGNMENT,
            attributes=target.attributes or None,
            expires_at=target.expires_at,
        )
        wallet = scenario.client_wallet(client)
        if wallet.remove(target.credential_id):
            wallet.grant(fresh)
        conn, server_end = self._signon(world, client)
        mailbox = conn.call_sync("MailServer", "fetchMail", [client])
        conn.close()
        scheduler.run()
        with rec.oracle:
            ids = {d.credential_id for d in server_end.monitor.proof.all_delegations()}
            rec.check(
                fresh.credential_id in ids and target.credential_id not in ids,
                f"{client} reissued proof {sorted(ids)}",
            )
            rec.check(mailbox == world.model[client], f"reissued fetchMail({client}) differs")

    def state(self, world: World) -> dict[str, Any]:
        scenario = world.scenario
        return {
            "credentials_held": scenario.engine.repository.credential_count,
            "deployed_instances": world.deployed,
            "stored_messages": sum(len(box) for box in scenario.server.mailboxes.values()),
            "delivered_messages": scenario.server.delivered,
            "identities": len(scenario.engine.key_store),
        }
