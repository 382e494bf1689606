"""The multi-client load harness: full SFS stacks under the scheduler.

Builds one :class:`~repro.kernel.world.World` with a queued server and N
client sessions, then drives them as cooperative tasks:

* **closed loop** — each of N clients runs think-time → one call →
  repeat, for a fixed number of operations.  Offered load scales with N
  against the server's fixed capacity (workers × 1/service_time), which
  is what makes tail latency degrade super-linearly once the queue is
  the bottleneck.
* **open loop** — operations arrive by a Poisson process at a target
  rate and each runs as its own task over a shared session pool, so one
  transport carries many concurrent in-flight calls (the RPC layer's
  ``call_task`` multiplexing).

Latencies are *simulated* seconds (clock deltas around each call), so a
report is a pure function of the configuration and seed.  Each latency
also lands in the world registry's ``load.op_seconds`` histogram, whose
snapshot now carries interpolated p50/p95/p99 — the exact percentiles
reported here double as a cross-check of that estimator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..core import proto
from ..core.client import ServerSession
from ..core.keyneg import EphemeralKeyCache
from ..fs.memfs import Cred
from ..kernel.world import World
from ..nfs3 import const as nfs_const
from ..rpc.peer import RetryPolicy, RpcError, RpcTransportDown
from ..sim.sched import Sleep
from .workload import DEFAULT_MIX, FILE_SIZE, OpMix, OpStream

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
    contention: bool = True
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

    def finish(self, duration: float) -> None:
        self.duration = duration
        self.ops_completed = len(self.latencies)
        if duration > 0:
            self.throughput = self.ops_completed / duration
        if self.latencies:
            ordered = sorted(self.latencies)
            self.mean = sum(ordered) / len(ordered)
            self.p50 = _percentile(ordered, 0.50)
            self.p95 = _percentile(ordered, 0.95)
            self.p99 = _percentile(ordered, 0.99)


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


def _percentile(ordered: list[float], q: float) -> float:
    """Exact nearest-rank percentile of pre-sorted values."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


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


class LoadHarness:
    """Owns the world, the sessions, and the client task generators."""

    def __init__(self, config: LoadConfig, location: str = "load.sfs.test",
                 world: World | None = None, server=None) -> None:
        self.config = config
        #: Scenario composition: pass an existing *world* (and
        #: optionally a *server* in it) to drive load against machinery
        #: someone else built — shared clock, scheduler, control plane
        #: and all.  Default: a self-contained world, as always.
        self.world = world if world is not None else World(seed=config.seed)
        self.scheduler = self.world.enable_pipelining(
            depth=config.pipeline_depth, seed=config.seed)
        if config.contention:
            self.world.enable_contention()
        if server is not None:
            self.server = server
            self.location = server.location
        else:
            self.server = self.world.add_server(location)
            self.location = location
        self.path = (self.server.path if "default" in self.server.exports
                     else self.server.export_fs())
        self._seed_files()
        depth = (config.max_depth if config.max_depth is not None
                 else NO_ADMISSION_LIMIT)
        if self.server.master.request_queue is not None:
            self.queue = self.server.master.request_queue
        else:
            self.queue = self.server.enable_queueing(
                max_depth=depth, workers=config.workers,
                policy=config.queue_policy,
                service_time=config.service_time,
            )
        self.sessions: list[ServerSession] = []
        self.handles: list[bytes] = []
        #: Load-shedding hook (control plane): closed-loop clients
        #: multiply every think-time draw by this factor, so raising it
        #: lowers the offered rate without disturbing the rng sequence.
        self.think_scale = 1.0
        self._m_op_seconds = self.world.metrics.histogram("load.op_seconds")
        self._m_shed = self.world.metrics.gauge("load.think_scale")
        self._m_shed.set(1.0)
        self._connect_sessions()
        self._resolve_handles()

    # -- setup -------------------------------------------------------------

    def _seed_files(self) -> None:
        """World-accessible files so anonymous (authno 0) clients can
        GETATTR/READ/WRITE without running the login protocol — the load
        engine measures the data path, not authentication."""
        fs = self.server.fs
        owner = Cred(uid=0, gid=0)
        content = bytes(range(256)) * (FILE_SIZE // 256)
        for index in range(self.config.file_count):
            inode = fs.create(fs.root_ino, f"load{index}", owner,
                              mode=0o666)
            fs.write(inode.ino, 0, content, owner)
            fs.commit(inode.ino)

    def _connect_sessions(self) -> None:
        """Establish one session per client, sequentially and
        synchronously (each handshake pumps the scheduler while it waits
        on the queued server).  One shared ephemeral-key cache plays the
        role of N identically configured client machines without paying
        N key generations."""
        shared_keys = EphemeralKeyCache(self.world.rng)
        for index in range(self.config.clients):
            link = self.world.connector(self.location,
                                        proto.SERVICE_FILESERVER)
            outcome = ServerSession.connect(
                link, self.path, shared_keys, self.world.rng,
                encrypt=self.config.encrypt,
            )
            assert isinstance(outcome, ServerSession)
            outcome.peer.retry_policy = RetryPolicy(
                base_delay=self.config.rpc_timeout, multiplier=2.0,
                max_delay=4.0 * self.config.rpc_timeout,
            )
            if self.config.failover:
                outcome.enable_reconnect(self.world.connector)
            self.sessions.append(outcome)

    def _resolve_handles(self) -> None:
        """Look the seeded files up once; the export's handle map is a
        pure function of its durable key, so the handles are valid on
        every session (and across a crash/restart)."""
        from ..nfs3 import types as nfs_types

        session = self.sessions[0]

        def lookup(dir_handle: bytes, name: str):
            status, body = session.call_nfs(
                nfs_const.NFSPROC3_LOOKUP,
                nfs_types.LookupArgs.make(
                    what=nfs_types.DirOpArgs.make(dir=dir_handle, name=name)
                ),
                authno=0,
            )
            assert status == nfs_const.NFS3_OK, f"lookup({name}): {status}"
            return body.object

        root = lookup(bytes(24), ".")  # the RW dialect's mount convention
        for index in range(self.config.file_count):
            self.handles.append(lookup(root, f"load{index}"))

    # -- one operation, as task steps --------------------------------------

    def _run_op(self, session: ServerSession, stream: OpStream,
                report: LoadReport):
        """Issue one operation; yields while it is in flight.

        A transport failure (server crash) runs the session's reconnect
        engine — redial with backoff, re-verify the HostID, renegotiate
        keys, yielding throughout so the other clients keep running —
        and then replays the operation once on the fresh connection.
        """
        config = self.config
        proc, args = stream.next_op()
        clock = self.world.clock
        start = clock.now
        try:
            status, _body = yield from session.call_nfs_task(proc, args, 0)
        except RpcTransportDown:
            if not (config.failover
                    and (yield from session.reconnect_task())):
                report.op_errors += 1
                return False
            try:
                status, _body = yield from session.call_nfs_task(
                    proc, args, 0)
            except RpcError:
                report.op_errors += 1
                return False
        except RpcError:
            # Backoff exhausted against a persistently full queue, or a
            # rejection: the op failed, the client moves on.
            report.op_errors += 1
            return False
        if status != nfs_const.NFS3_OK:
            report.op_errors += 1
            return False
        latency = clock.now - start
        report.latencies.append(latency)
        self._m_op_seconds.observe(latency)
        return True

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

    def _closed_loop_client(self, index: int, report: LoadReport):
        config = self.config
        session = self.sessions[index]
        stream = OpStream(self.handles, config.mix, config.io_size,
                          seed=(config.seed << 8) ^ index)
        think_rng = random.Random((config.seed << 16) ^ index)
        for _op in range(config.ops_per_client):
            if config.think_time > 0:
                yield Sleep(think_rng.expovariate(1.0 / config.think_time)
                            * self.think_scale)
            yield from self._run_op(session, stream, report)

    def _phased_client(self, index: int, phases: "list[WorkloadPhase]",
                       reports: "dict[str, LoadReport]"):
        """One client running every phase in order, no barrier between
        clients: a fast client may be two phases ahead of a slow one,
        like real traffic shifting shape rather than stopping."""
        config = self.config
        session = self.sessions[index]
        think_rng = random.Random((config.seed << 16) ^ index)
        for number, phase in enumerate(phases):
            stream = OpStream(
                self.handles,
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
                name=f"{self.location}-client-{index}",
            )
        return reports

    # -- run loops ---------------------------------------------------------

    def run_closed_loop(self) -> LoadReport:
        """N clients, each issuing ops_per_client operations."""
        config = self.config
        report = LoadReport(clients=config.clients)
        start = self.world.clock.now
        for index in range(config.clients):
            self.scheduler.spawn(
                self._closed_loop_client(index, report),
                name=f"client-{index}",
            )
        run_to_report(self.scheduler, report)
        self._finish(report, start)
        return report

    def run_open_loop(self) -> LoadReport:
        """Poisson arrivals at ``arrival_rate`` for ``duration`` seconds.

        Each arrival is its own task on a round-robin session — many
        operations in flight per transport, not one."""
        config = self.config
        report = LoadReport(clients=config.clients)
        clock = self.world.clock
        start = clock.now

        def arrivals():
            rng = random.Random(config.seed ^ 0x9E3779B9)
            deadline = clock.now + config.duration
            index = 0
            while clock.now < deadline:
                yield Sleep(rng.expovariate(config.arrival_rate))
                session = self.sessions[index % len(self.sessions)]
                stream = OpStream(
                    self.handles, config.mix, config.io_size,
                    seed=(config.seed << 8) ^ (0xA5A5 + index),
                )
                self.scheduler.spawn(
                    self._run_op(session, stream, report),
                    name=f"op-{index}",
                )
                index += 1

        self.scheduler.spawn(arrivals(), name="arrivals")
        run_to_report(self.scheduler, report)
        self._finish(report, start)
        return report

    def _finish(self, report: LoadReport, start: float) -> None:
        report.busy_retries = sum(s.busy_retries for s in self.sessions)
        report.admission_rejects = self.world.metrics.counter(
            "server.queue.rejected"
        ).value
        report.max_queue_depth = self.queue.peak_depth
        report.finish(self.world.clock.now - start)
