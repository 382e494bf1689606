"""The client engine: full SFS stacks under the scheduler.

Builds (or joins) a :class:`~repro.kernel.world.World` and drives N
client sessions as cooperative tasks.  Client *i* goes to target *i*:
an export and the files its op stream reads.  By default every client
targets one queued server the harness creates and seeds; the fleet and
control figures pass one target per client, spread over a fleet's
shards.

* **closed loop** — each client runs think-time → one call → repeat,
  for a fixed number of operations (a phased run with one phase).
  Offered load scales with N against the servers' fixed capacity
  (workers × 1/service_time), which is what makes tail latency degrade
  super-linearly once the queue is the bottleneck.
* **open loop** — operations arrive by a Poisson process at a target
  rate and each runs as its own task over a shared session pool, so one
  transport carries many concurrent in-flight calls (the RPC layer's
  ``call_task`` multiplexing).

Latencies are *simulated* seconds (clock deltas around each call), so a
report is a pure function of the configuration and seed.  A report has
one slice per target location, with the same figures for that
location's clients and queue.  Each latency also lands in the world
registry's ``load.op_seconds`` histogram, whose snapshot carries
interpolated p50/p95/p99 — the exact percentiles reported here double
as a cross-check of that estimator.

The pieces every client-driving bench shares live here too: the
world-readable seed file (:func:`seed_file`), the dialer
(:func:`dial`), the LOOKUP walk (:func:`resolve_task`) and the Poisson
arrival process (:func:`poisson_arrivals`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..core import proto
from ..core.client import ServerSession
from ..core.keyneg import EphemeralKeyCache
from ..core.pathnames import SelfCertifyingPath
from ..fs import pathops
from ..fs.memfs import Cred
from ..kernel.world import World
from ..nfs3 import const as nfs_const
from ..nfs3 import types as nfs_types
from ..rpc.peer import RetryPolicy, RpcError, RpcTransportDown
from ..sim.sched import Sleep
from .workload import DEFAULT_MIX, FILE_CONTENT, OpMix, OpStream

#: Unbounded-enough queue depth standing in for "admission control off".
NO_ADMISSION_LIMIT = 1 << 30


@dataclass
class LoadConfig:
    """Everything a load run depends on; hashable into a seed story."""

    clients: int = 4
    ops_per_client: int = 25
    seed: int = 2026
    think_time: float = 0.010
    io_size: int = 4096
    mix: OpMix = DEFAULT_MIX
    file_count: int = 8
    encrypt: bool = True
    #: Admission control: None = unbounded queue (backpressure off).
    max_depth: int | None = 32
    workers: int = 2
    queue_policy: str = "fifo"
    service_time: float = 0.001
    #: Per-attempt RPC retransmission timer.  The single-client default
    #: (2 ms) assumes an idle server; under deliberate queueing delay it
    #: would fire constantly and every retransmit would be re-admitted
    #: as new work — a retransmission storm.  Load runs wait out the
    #: queue instead and let SERVER_BUSY carry the backpressure.
    rpc_timeout: float = 1.0
    #: Arm each session's reconnect engine (crash-failover runs).
    failover: bool = False
    #: Send window (PROTOCOLS.md §17): at most N in-flight RPCs per
    #: session.  Scale runs use a deep window to overlap wire time
    #: across the fleet.
    pipeline_depth: int = 1
    #: Open loop only: mean arrivals per simulated second and how long
    #: to keep them coming.
    arrival_rate: float = 200.0
    duration: float = 1.0


@dataclass
class LoadReport:
    """One run's outcome, all figures in simulated seconds."""

    clients: int
    ops_completed: int = 0
    op_errors: int = 0
    busy_retries: int = 0
    admission_rejects: int = 0
    max_queue_depth: int = 0
    duration: float = 0.0
    throughput: float = 0.0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    unfinished_tasks: int = 0
    latencies: list[float] = field(default_factory=list, repr=False)
    #: Location -> the same figures for the clients that went there and
    #: that location's queue (op_errors there count failed calls only).
    locations: dict[str, "LoadReport"] = field(default_factory=dict,
                                                repr=False)

    def at(self, location: str) -> "LoadReport":
        """The slice for *location*, created empty on first use."""
        where = self.locations.get(location)
        if where is None:
            where = self.locations[location] = LoadReport(clients=0)
        return where

    def finish(self, duration: float) -> None:
        self.duration = duration
        self.ops_completed = len(self.latencies)
        if duration > 0:
            self.throughput = self.ops_completed / duration
        if self.latencies:
            ordered = sorted(self.latencies)

            def rank(q: float) -> float:       # exact nearest-rank
                return ordered[max(1, math.ceil(q * len(ordered))) - 1]

            self.mean = sum(ordered) / len(ordered)
            self.p50, self.p95, self.p99 = rank(0.50), rank(0.95), rank(0.99)
        for where in self.locations.values():
            where.finish(duration)


def run_to_report(scheduler, report) -> None:
    """Run *scheduler* dry and book the outcome on *report*.

    Tasks left hung land in ``unfinished_tasks``; non-daemon tasks that
    died of an exception *during this run* are added to ``op_errors``
    (the scheduler's count is for its lifetime, so a reused harness
    must report the delta).
    """
    died_before = scheduler.failed_tasks
    report.unfinished_tasks = len(scheduler.run())
    report.op_errors += scheduler.failed_tasks - died_before


@dataclass(frozen=True)
class Target:
    """Where one client goes: an export, and the files (paths relative
    to the export root) its op stream reads and writes."""

    path: SelfCertifyingPath
    files: tuple[str, ...]

    @property
    def location(self) -> str:
        return self.path.location


@dataclass
class WorkloadPhase:
    """One segment of a phased closed-loop run.

    Fields left ``None`` inherit the harness config, so a phase list
    like ``[warm-up, storm]`` only states what changes — e.g. a
    write-heavy mix with zero think time for a lease-invalidation
    storm.  Each phase accumulates into its own :class:`LoadReport`.
    """

    name: str
    ops_per_client: int
    think_time: float | None = None
    io_size: int | None = None
    mix: OpMix | None = None


# -- the shared pieces ------------------------------------------------------


def seed_file(fs, path: str, content: bytes) -> None:
    """A world-accessible file at *path*, so anonymous (authno 0)
    clients can GETATTR/READ/WRITE it without running the login
    protocol — the benches measure the data path, not authentication."""
    owner = Cred(uid=0, gid=0)
    directory, _, name = path.rpartition("/")
    parent = pathops.resolve(fs, directory or "/")
    inode = fs.create(parent.ino, name, owner, mode=0o666)
    fs.write(inode.ino, 0, content, owner)
    fs.commit(inode.ino)


def dial(world: World, path: SelfCertifyingPath,
         keys: EphemeralKeyCache, encrypt: bool = True) -> ServerSession:
    """One client session to *path*'s export: dial its Location, verify
    the HostID and negotiate keys, synchronously.  *keys* is shared
    across a bench's sessions, so they play N identically configured
    client machines without paying N key generations."""
    session = ServerSession.connect(
        world.connector(path.location, proto.SERVICE_FILESERVER),
        path, keys, world.rng, encrypt=encrypt,
    )
    if not isinstance(session, ServerSession):
        raise ConnectionError(f"{path.location} refused the session")
    return session


def resolve_task(session: ServerSession, paths):
    """LOOKUP each export-relative path from the export's root over
    *session* (``yield from``); returns their handles, in order."""

    def lookup(directory: bytes, name: str):
        status, body = yield from session.call_nfs_task(
            nfs_const.NFSPROC3_LOOKUP,
            nfs_types.LookupArgs.make(
                what=nfs_types.DirOpArgs.make(dir=directory, name=name)),
            authno=0,
        )
        if status != nfs_const.NFS3_OK:
            raise RuntimeError(f"lookup({name}) failed: status {status}")
        return body.object

    root = yield from lookup(bytes(24), ".")  # the RW dialect's convention
    handles = []
    for path in paths:
        handle = root
        for name in path.split("/"):
            handle = yield from lookup(handle, name)
        handles.append(handle)
    return handles


def poisson_arrivals(clock, rng: random.Random, rate: float,
                     duration: float, arrive):
    """Call ``arrive(index)`` at Poisson arrivals of mean *rate* per
    simulated second for *duration* seconds (a task generator); returns
    how many arrived."""
    deadline = clock.now + duration
    index = 0
    while clock.now < deadline:
        yield Sleep(rng.expovariate(rate))
        arrive(index)
        index += 1
    return index


# -- the engine -------------------------------------------------------------


class LoadHarness:
    """Owns the sessions, their targets, and the client task generators.

    ``server``, ``path``, ``location``, ``queue`` and ``handles`` are
    the first target's (the only one unless *targets* is given).
    """

    def __init__(self, config: LoadConfig, location: str = "load.sfs.test",
                 world: World | None = None, server=None,
                 targets: "list[Target] | None" = None) -> None:
        self.config = config
        #: Composition: pass an existing *world* (and optionally a
        #: *server* in it, or one *target* per client) to drive load
        #: against machinery someone else built — shared clock,
        #: scheduler, control plane and all.  Default: a self-contained
        #: world with one seeded server, as always.
        self.world = world if world is not None else World(seed=config.seed)
        self.scheduler = self.world.enable_pipelining(
            depth=config.pipeline_depth)
        if targets is None:
            targets = [self._seed_server(server, location)] * config.clients
        if len(targets) != config.clients:
            raise ValueError(f"{len(targets)} targets for "
                             f"{config.clients} clients")
        self.targets = list(targets)
        #: Location -> its server's request queue, in target order.
        self.queues = {
            target.location:
                self.world.servers[target.location].master.request_queue
            for target in self.targets}
        first = self.targets[0]
        self.path, self.location = first.path, first.location
        self.server = self.world.servers[self.location]
        self.queue = self.queues[self.location]
        self.sessions: list[ServerSession] = []
        self._target_of: dict[ServerSession, Target] = {}
        self._handles: dict[Target, list[bytes]] = {}
        #: Load-shedding hook (control plane): closed-loop clients
        #: multiply every think-time draw by this factor, so raising it
        #: lowers the offered rate without disturbing the rng sequence.
        self.think_scale = 1.0
        self._m_op_seconds = self.world.metrics.histogram("load.op_seconds")
        self._m_shed = self.world.metrics.gauge("load.think_scale")
        self._m_shed.set(1.0)
        self._connect_sessions()
        self._resolve_handles()

    @property
    def handles(self) -> list[bytes]:
        return self._handles[self.targets[0]]

    # -- setup -------------------------------------------------------------

    def _seed_server(self, server, location: str) -> Target:
        """The default target: *server* (or a new one at *location*)
        with ``file_count`` seeded files at its export root, its request
        queue configured with this config's admission parameters.  (A
        given target's server keeps whatever queue it has.)"""
        config = self.config
        if server is None:
            server = self.world.add_server(location)
        path = (server.path if "default" in server.exports
                else server.export_fs())
        files = tuple(f"load{index}" for index in range(config.file_count))
        for name in files:
            seed_file(server.fs, name, FILE_CONTENT)
        server.master.request_queue.configure(
            max_depth=(config.max_depth if config.max_depth is not None
                       else NO_ADMISSION_LIMIT),
            workers=config.workers, policy=config.queue_policy,
            service_time=config.service_time,
        )
        return Target(path, files)

    def _connect_sessions(self) -> None:
        """Dial every client's session, sequentially and synchronously
        (each handshake pumps the scheduler while it waits on the queued
        server)."""
        config = self.config
        keys = EphemeralKeyCache(self.world.rng)
        retry = RetryPolicy(base_delay=config.rpc_timeout, multiplier=2.0,
                            max_delay=4.0 * config.rpc_timeout)
        for target in self.targets:
            session = dial(self.world, target.path, keys, config.encrypt)
            session.peer.retry_policy = retry
            if config.failover:
                session.enable_reconnect(self.world.connector)
            self._target_of[session] = target
            self.sessions.append(session)

    def _resolve_handles(self) -> None:
        """Look each target's files up once, on the first session that
        goes there; the export's handle map is a pure function of its
        durable key, so the handles are valid on every session to it
        (and across a crash/restart)."""
        for session, target in zip(self.sessions, self.targets):
            if target not in self._handles:
                self._handles[target] = session.peer.drive(
                    resolve_task(session, target.files))

    def refresh_task(self, session: ServerSession):
        """Re-resolve *session*'s target through it (``yield from``),
        after a retarget: a new HostID means a new handle map.  The
        list is updated in place, and op streams hold the list itself,
        so every client sees the fresh handles at once."""
        target = self._target_of[session]
        self._handles[target][:] = yield from resolve_task(
            session, target.files)

    # -- one operation, as task steps --------------------------------------

    def _run_op(self, session: ServerSession, stream: OpStream,
                report: LoadReport):
        """Issue one operation; yields while it is in flight."""
        proc, args = stream.next_op()
        clock = self.world.clock
        start = clock.now
        ok = yield from self._call(session, proc, args)
        where = report.at(self._target_of[session].location)
        if not ok:
            report.op_errors += 1
            where.op_errors += 1
            return False
        latency = clock.now - start
        report.latencies.append(latency)
        where.latencies.append(latency)
        self._m_op_seconds.observe(latency)
        return True

    def _call(self, session: ServerSession, proc: int, args):
        """One NFS call; True if it returned NFS3_OK.

        A transport failure (server crash) runs the session's reconnect
        engine — redial with backoff, re-verify the HostID, renegotiate
        keys, yielding throughout so the other clients keep running —
        and then replays the operation once on the fresh connection.
        Backoff exhausted against a persistently full queue, or a
        rejection: the op failed, the client moves on.
        """
        try:
            status, _body = yield from session.call_nfs_task(proc, args, 0)
        except RpcTransportDown:
            if not (self.config.failover
                    and (yield from session.reconnect_task())):
                return False
            try:
                status, _body = yield from session.call_nfs_task(
                    proc, args, 0)
            except RpcError:
                return False
        except RpcError:
            return False
        return status == nfs_const.NFS3_OK

    def set_think_scale(self, scale: float) -> float:
        """Shed (scale > 1) or restore (1.0) closed-loop offered load.

        The control plane's load-shedding actuator calls this when a
        fleet SLO breaches; clients pick the new factor up on their next
        think-time draw.  Never drops below 1.0 — shedding can only
        slow clients down, not speed them past the configured load.
        """
        self.think_scale = max(1.0, float(scale))
        self._m_shed.set(self.think_scale)
        return self.think_scale

    def _phased_client(self, index: int, phases: "list[WorkloadPhase]",
                       reports: "dict[str, LoadReport]"):
        """One client running every phase in order, no barrier between
        clients: a fast client may be two phases ahead of a slow one,
        like real traffic shifting shape rather than stopping."""
        config = self.config
        session = self.sessions[index]
        handles = self._handles[self.targets[index]]
        think_rng = random.Random((config.seed << 16) ^ index)
        for number, phase in enumerate(phases):
            stream = OpStream(
                handles,
                phase.mix if phase.mix is not None else config.mix,
                phase.io_size if phase.io_size is not None
                else config.io_size,
                seed=((config.seed << 8) ^ index) + 0x51C0 * number,
            )
            report = reports[phase.name]
            think = (config.think_time if phase.think_time is None
                     else phase.think_time)
            for _op in range(phase.ops_per_client):
                if think > 0:
                    yield Sleep(think_rng.expovariate(1.0 / think)
                                * self.think_scale)
                yield from self._run_op(session, stream, report)

    def spawn_phased_clients(self, phases: "list[WorkloadPhase]",
                             reports: "dict[str, LoadReport] | None" = None
                             ) -> "dict[str, LoadReport]":
        """Spawn (without running) one phased task per configured client.

        The caller owns the scheduler run — that is the point: a
        scenario engine runs these tasks alongside its own event
        timeline and other harnesses, then reads the per-phase reports
        back.  Pass *reports* to share accumulators across harnesses.
        """
        if reports is None:
            reports = {}
        for phase in phases:
            if phase.name not in reports:
                reports[phase.name] = LoadReport(clients=self.config.clients)
        for index in range(self.config.clients):
            self.scheduler.spawn(
                self._phased_client(index, phases, reports),
                name=f"{self.targets[index].location}-client-{index}",
            )
        return reports

    # -- run loops ---------------------------------------------------------

    def run_closed_loop(self) -> LoadReport:
        """Every client issues ops_per_client operations: a phased run
        with one phase."""
        phase = WorkloadPhase("run", self.config.ops_per_client)
        return self._run(lambda report: self.spawn_phased_clients(
            [phase], {"run": report}))

    def run_open_loop(self) -> LoadReport:
        """Poisson arrivals at ``arrival_rate`` for ``duration`` seconds.

        Each arrival is its own task on a round-robin session — many
        operations in flight per transport, not one."""
        config = self.config

        def spawn(report: LoadReport) -> None:
            def arrive(index: int) -> None:
                session = self.sessions[index % len(self.sessions)]
                stream = OpStream(
                    self._handles[self._target_of[session]], config.mix,
                    config.io_size, seed=(config.seed << 8) ^ (0xA5A5 + index),
                )
                self.scheduler.spawn(self._run_op(session, stream, report),
                                     name=f"op-{index}")

            self.scheduler.spawn(poisson_arrivals(
                self.world.clock, random.Random(config.seed ^ 0x9E3779B9),
                config.arrival_rate, config.duration, arrive,
            ), name="arrivals")

        return self._run(spawn)

    def _run(self, spawn) -> LoadReport:
        """Spawn a run's tasks, run the scheduler dry, and book what
        *this* run did: busy retries, admission rejects and queue peaks
        are deltas, not the harness's lifetime."""
        report = LoadReport(clients=self.config.clients)
        for target in self.targets:
            report.at(target.location).clients += 1
        retries = {session: session.busy_retries for session in self.sessions}
        rejected = {location: queue.rejected
                    for location, queue in self.queues.items()}
        for queue in self.queues.values():
            queue.reset_peak()
        start = self.world.clock.now
        spawn(report)
        run_to_report(self.scheduler, report)
        for session, target in zip(self.sessions, self.targets):
            retried = session.busy_retries - retries[session]
            report.busy_retries += retried
            report.at(target.location).busy_retries += retried
        for location, queue in self.queues.items():
            where = report.at(location)
            where.admission_rejects = queue.rejected - rejected[location]
            where.max_queue_depth = queue.peak_depth
            report.admission_rejects += where.admission_rejects
            report.max_queue_depth = max(report.max_queue_depth,
                                         where.max_queue_depth)
        report.finish(self.world.clock.now - start)
        return report
