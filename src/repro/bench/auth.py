"""The ``bench auth`` figure: the auth plane under login storms.

Three questions, three phases, all in simulated time (deterministic per
seed):

* **Storm sweep** — Poisson login arrivals (the client engine's
  :func:`~repro.load.harness.poisson_arrivals`) against the sharded
  auth fleet at a 10^5-user table: does adding authserver shards raise
  aggregate login throughput when the arrival rate exceeds one shard's
  admission capacity?  The shards sit behind the standard
  :class:`RequestQueue` bounded admission control, so overload becomes
  SERVER_BUSY + client backoff (and eventually shed logins), not
  unbounded queueing.
* **Decision cache** — steady-state logins on live sessions must hit
  the fileserver decision cache (>90%), and revoking a user must yield
  *zero* successful authentications afterwards, cached decision or not.
* **eksblowfish cost sweep** — the paper's section 2.5.2 trade: the
  cost parameter doubles the password-hardening work per unit, which
  pacing guessing attacks *also* charges every honest login.  Each SRP
  login (the real ``sfskey add`` flow) is attributed per layer: modeled
  client hardening (``HARDEN_UNIT`` seconds per eksblowfish expansion,
  2^cost expansions), server service time, and network/protocol time.

The user-table sweep pads the database with synthetic users (unique,
unsignable key bytes — :func:`repro.auth.fleet.synthetic_key_bytes`),
so table *size* is swept without paying a real key generation per user;
the users actually logging in carry real keys.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from ..core import sfskey
from ..core.agent import Agent
from ..core.authserv import PrivateRecord
from ..core.keyneg import EphemeralKeyCache
from ..kernel.world import World
from ..load.harness import LoadConfig, LoadReport, dial, poisson_arrivals, \
    run_to_report
from ..rpc.peer import RpcBusy, RpcError

#: Modeled client CPU per eksblowfish expansion (seconds of virtual
#: time); a login at cost c costs ``HARDEN_UNIT * 2**c``.  The
#: protocol legs of the cost sweep run for real — only the hardening
#: is modeled, so the sweep stays deterministic across hosts.
HARDEN_UNIT = 0.0008

#: A storm: ``clients`` login accounts with one live session each,
#: Poisson logins at ``arrival_rate`` for ``duration`` simulated
#: seconds, and each shard's admission queue (``service_time`` per
#: login, ``max_depth`` waiting).
STORM_LOAD = LoadConfig(clients=16, arrival_rate=1600.0, duration=0.5,
                        service_time=0.004, max_depth=16)


@dataclass
class AuthConfig:
    """One storm: the logins, and the auth fleet and user table."""

    load: LoadConfig = field(default_factory=lambda: replace(STORM_LOAD))
    shards: int = 4
    users: int = 100_000
    vnodes: int = 16
    queueing: bool = True          # admission control on the shards


@dataclass
class StormReport(LoadReport):
    """A login storm's outcome: a LoadReport whose operations are the
    logins that succeeded, plus what became of the rest."""

    offered: int = 0
    denied: int = 0
    shed: int = 0


class AuthStorm:
    """A World with an auth fleet, a padded user table, live sessions."""

    def __init__(self, config: AuthConfig) -> None:
        load = config.load
        self.config = config
        self.world = World(seed=load.seed)
        # A window every arrival of the storm fits in: with fewer slots
        # the logins would queue in the client, and the figure measures
        # the shards' admission control, not the send window.
        self.scheduler = self.world.enable_pipelining(
            depth=math.ceil(load.arrival_rate * load.duration))
        self.fleet = self.world.add_auth_fleet(config.shards,
                                               vnodes=config.vnodes)
        for index in range(max(0, config.users - load.clients)):
            self.fleet.add_user(f"user{index:07d}")
        self.accounts = [
            self.fleet.add_real_user(f"login{index:02d}", uid=3000 + index)
            for index in range(load.clients)
        ]
        if config.queueing:
            for shard in self.fleet.shards:
                shard.server.master.request_queue.configure(
                    max_depth=load.max_depth, workers=load.workers,
                    service_time=load.service_time,
                )
        keys = EphemeralKeyCache(self.world.rng)
        #: (session, agent) per login account, dialed to the account's
        #: owning shard — login storms reuse these (the steady state a
        #: decision cache exists for).  The default retry policy will
        #: do: the peer's ``rto_floor`` keeps the first retransmit above
        #: queue-wait scale (PROTOCOLS.md §16).
        self.sessions: list[tuple] = []
        for account in self.accounts:
            session = dial(self.world,
                           self.fleet.shard_for(account.name).path, keys,
                           load.encrypt)
            agent = Agent(account.name, self.world.rng)
            agent.add_key(account.key)
            self.sessions.append((session, agent))

    def run(self) -> StormReport:
        """Open-loop Poisson login arrivals over the session pool."""
        load = self.config.load
        clock = self.world.clock
        report = StormReport(clients=load.clients)

        def login_once(session, agent: Agent):
            begin = clock.now
            try:
                authno = yield from session.login_task(agent)
            except RpcBusy:
                report.shed += 1
                return
            except RpcError:
                report.op_errors += 1
                return
            if authno > 0:
                report.latencies.append(clock.now - begin)
            else:
                report.denied += 1

        def arrive(index: int) -> None:
            session, agent = self.sessions[index % len(self.sessions)]
            self.scheduler.spawn(login_once(session, agent),
                                 name=f"login-{index}")

        def storm():
            report.offered = yield from poisson_arrivals(
                clock, random.Random(load.seed ^ 0x517A7E),
                load.arrival_rate, load.duration, arrive)

        start = clock.now
        self.scheduler.spawn(storm(), name="auth-arrivals")
        run_to_report(self.scheduler, report)
        report.finish(clock.now - start)
        return report

    def row(self, report: StormReport) -> dict:
        metrics = self.world.metrics
        return {
            "shards": self.config.shards, "users": self.config.users,
            "arrival_rate": self.config.load.arrival_rate,
            "offered": report.offered,
            "logins_ok": report.ops_completed, "denied": report.denied,
            "shed": report.shed, "errors": report.op_errors,
            "duration_s": report.duration,
            "logins_per_second": report.throughput,
            "p50_ms": report.p50 * 1000, "p95_ms": report.p95 * 1000,
            "p99_ms": report.p99 * 1000,
            "cache_hits": metrics.counter("auth.cache.hits").value,
            "cache_misses": metrics.counter("auth.cache.misses").value,
            "queue_rejected": metrics.counter("server.queue.rejected").value,
        }


# --- phase 2: decision cache + revocation ---------------------------------


@dataclass
class CacheReport:
    users: int
    shards: int
    sessions: int
    logins_per_session: int
    logins_ok: int = 0
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    revoked_user: str = ""
    post_revocation_attempts: int = 0
    post_revocation_ok: int = 0
    other_user_ok: bool = False

    def data(self) -> dict:
        return {
            "users": self.users, "shards": self.shards,
            "sessions": self.sessions,
            "logins_per_session": self.logins_per_session,
            "logins_ok": self.logins_ok,
            "cache_hits": self.hits, "cache_misses": self.misses,
            "hit_rate": self.hit_rate,
            "revoked_user": self.revoked_user,
            "post_revocation_attempts": self.post_revocation_attempts,
            "post_revocation_ok": self.post_revocation_ok,
            "other_user_ok": self.other_user_ok,
        }


def run_cache_phase(users: int = 2000, shards: int = 2,
                    login_users: int = 8, logins_per_session: int = 40,
                    seed: int = 2026) -> CacheReport:
    """Steady-state cache hit rate, then a revocation mid-stream.

    Closed-loop synchronous logins (no admission queue — this phase
    measures the cache, not contention).  After the steady state, one
    account is revoked fleet-wide and retried: the cached decision must
    already be gone (the eviction hooks ran inside ``revoke_user``), so
    *every* post-revocation attempt fails, and an unrelated account
    still logs in.
    """
    storm = AuthStorm(AuthConfig(
        load=replace(STORM_LOAD, clients=login_users, seed=seed),
        shards=shards, users=users, queueing=False,
    ))
    report = CacheReport(users=users, shards=shards, sessions=login_users,
                         logins_per_session=logins_per_session)
    for session, agent in storm.sessions:
        for _ in range(logins_per_session):
            if session.login(agent) > 0:
                report.logins_ok += 1
    metrics = storm.world.metrics
    report.hits = metrics.counter("auth.cache.hits").value
    report.misses = metrics.counter("auth.cache.misses").value
    total = report.hits + report.misses
    report.hit_rate = report.hits / total if total else 0.0

    victim_index = 0
    victim = storm.accounts[victim_index]
    report.revoked_user = victim.name
    storm.fleet.revoke_user(victim.name)
    session, agent = storm.sessions[victim_index]
    report.post_revocation_attempts = 5
    for _ in range(report.post_revocation_attempts):
        if session.login(agent) > 0:
            report.post_revocation_ok += 1
    other_session, other_agent = storm.sessions[victim_index + 1]
    report.other_user_ok = other_session.login(other_agent) > 0
    return report


# --- phase 3: the eksblowfish cost sweep ----------------------------------


def run_cost_sweep(costs=(2, 4, 6), seed: int = 2026,
                   service_time: float = 0.002) -> list[dict]:
    """Login latency per eksblowfish cost, attributed per layer.

    Each cost gets a fresh World: one server, one enrolled user, one
    real ``sfskey add`` (SRP over the authserv service, through the
    admission queue).  The protocol legs are measured in simulated
    time; the client-side hardening, ``HARDEN_UNIT * 2**cost`` (see
    :data:`HARDEN_UNIT`), is added to the row.
    """
    rows = []
    for cost in costs:
        world = World(seed=seed)
        server = world.add_server("files.test")
        server.export_fs()
        server.master.request_queue.configure(
            max_depth=8, workers=1, service_time=service_time)
        authserver = server.authserver
        password = b"correct horse"
        enrolment = sfskey.prepare_enrolment(
            "traveller", password, world.rng, cost=cost)
        record = authserver.add_account(
            "traveller", 4000, 100,
            public_key_bytes=enrolment.key.public_key.to_bytes(),
        )
        authserver.local_db.add_user(record, PrivateRecord(
            srp_salt=enrolment.srp_salt,
            srp_verifier=enrolment.srp_verifier,
            srp_cost=enrolment.srp_cost,
            encrypted_privkey=enrolment.encrypted_privkey,
        ))
        agent = Agent("traveller", world.rng)
        clock = world.clock
        begin = clock.now
        result = sfskey.add(world.connector, agent, "traveller",
                            "files.test", password, world.rng)
        protocol = clock.now - begin
        harden = HARDEN_UNIT * (1 << cost)
        assert result.key is not None and agent.key_count == 1
        service = 2 * service_time  # SRP_INIT + SRP_CONFIRM service legs
        rows.append({
            "cost": cost,
            "expansions": 1 << cost,
            "harden_ms": harden * 1000,
            "service_ms": service * 1000,
            "network_ms": max(0.0, protocol - service) * 1000,
            "protocol_ms": protocol * 1000,
            "total_ms": (protocol + harden) * 1000,
        })
    return rows
