"""The ``bench control`` figure: a hot shard, with and without the loop.

Topology: 16 closed-loop clients against a 4-shard fleet where one
shard is deliberately **hot** — its per-request service time is several
times its siblings' and most of the client population is pinned to
names it owns.  Unmanaged, the hot shard's bounded queue saturates:
admission control sheds arrivals as SERVER_BUSY, clients burn backoff
retries, and the fleet p99 is the hot shard's misery.

The managed run builds the identical world (same seed, same topology,
same client scripts) and closes the loop: the control plane's
collector pulls every shard's per-source registry each period, the SLO
engine watches windowed wait-time p99 and busy-reject rate per shard,
and two actuators respond —

* :class:`~repro.control.policy.LoadShedder` raises the clients'
  think-time multiplier while the fleet latency SLO breaches (and
  eases it back when it recovers);
* :class:`~repro.control.policy.AimdAdmission` retunes each shard's
  queue depth, shrinking it while that shard's latency breaches and
  re-growing it while the shard rejects with healthy latency.

Acceptance is comparative and deterministic per seed: the managed run
must beat the unmanaged one on *both* fleet p99 and busy-rejects.  The
figure also emits the fleet-level artifact — per-source and merged
snapshots, SLO breach events, and the policy action log — which CI
uploads from the control-smoke job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..core import proto
from ..core.client import ServerSession
from ..core.keyneg import EphemeralKeyCache
from ..fs import pathops
from ..fs.memfs import Cred
from ..kernel.world import World
from ..load.harness import run_to_report
from ..load.workload import DEFAULT_MIX, FILE_SIZE, OpMix, OpStream
from ..nfs3 import const as nfs_const
from ..nfs3 import types as nfs_types
from ..rpc.peer import RetryPolicy, RpcError
from ..sim.sched import Sleep
from .policy import AimdAdmission, LoadShedder
from .slo import SloSpec


@dataclass
class ControlBenchConfig:
    """One hot-shard run; the managed/unmanaged pair shares one config."""

    servers: int = 4
    clients: int = 16
    ops_per_client: int = 30
    seed: int = 2026
    think_time: float = 0.002
    io_size: int = 4096
    mix: OpMix = DEFAULT_MIX
    names: int = 24
    workers: int = 2
    service_time: float = 0.004
    #: The hot shard serves this many times slower than its siblings.
    hot_factor: float = 4.0
    #: Clients pinned to hot-shard names (the rest spread elsewhere).
    hot_clients: int = 10
    max_depth: int = 6
    rpc_timeout: float = 1.0
    encrypt: bool = True
    # -- the control loop --
    period: float = 0.020
    #: Per-shard windowed wait-seconds p99 objective.
    wait_p99_slo: float = 0.025
    #: Per-shard busy-reject rate objective (rejects per second).
    reject_rate_slo: float = 0.5
    slo_window: int = 5
    shed_step: float = 2.0
    shed_max: float = 64.0
    aimd_increase: int = 2
    aimd_decrease: float = 0.5
    aimd_floor: int = 2


@dataclass
class ShardOutcome:
    """One shard's slice of a run, from its per-source registry."""

    location: str
    hot: bool = False
    names: int = 0
    clients: int = 0
    ops_completed: int = 0
    p99: float = 0.0
    busy_rejects: int = 0
    peak_queue_depth: int = 0
    final_max_depth: int = 0
    latencies: list[float] = field(default_factory=list, repr=False)

    def finish(self) -> None:
        self.ops_completed = len(self.latencies)
        if self.latencies:
            self.p99 = _percentile(sorted(self.latencies), 0.99)


@dataclass
class ControlReport:
    """One run's outcome, all figures in simulated seconds."""

    controlled: bool
    clients: int
    servers: int
    hot_shard: str = ""
    ops_completed: int = 0
    op_errors: int = 0
    busy_rejects: int = 0
    busy_retries: int = 0
    duration: float = 0.0
    throughput: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    unfinished_tasks: int = 0
    final_think_scale: float = 1.0
    policy_actions: int = 0
    slo_events: int = 0
    shards: list[ShardOutcome] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list, repr=False)

    def finish(self, duration: float) -> None:
        self.duration = duration
        self.ops_completed = len(self.latencies)
        if duration > 0:
            self.throughput = self.ops_completed / duration
        if self.latencies:
            ordered = sorted(self.latencies)
            self.p50 = _percentile(ordered, 0.50)
            self.p95 = _percentile(ordered, 0.95)
            self.p99 = _percentile(ordered, 0.99)
        for shard in self.shards:
            shard.finish()


def _percentile(ordered: list[float], q: float) -> float:
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class ControlHarness:
    """One hot-shard world; ``controlled`` decides if the loop closes."""

    def __init__(self, config: ControlBenchConfig,
                 controlled: bool) -> None:
        self.config = config
        self.controlled = controlled
        self.world = World(seed=config.seed)
        self.scheduler = self.world.enable_concurrency(seed=config.seed)
        self.world.enable_contention()
        # Control first: machines built afterwards get per-source tee
        # registries, which is what makes scope="sources" SLOs real.
        self.plane = self.world.enable_control(
            period=config.period,
            ring_size=max(64, 4 * config.slo_window),
        )
        self.fleet = self.world.add_fleet(config.servers)
        self.names = [f"proj{index:02d}" for index in range(config.names)]
        for name in self.names:
            self.fleet.provision(name)
            self._seed_file(name)
        self.hot_shard = self._pick_hot_shard()
        self.queues = {
            shard.location: shard.server.enable_queueing(
                max_depth=config.max_depth, workers=config.workers,
                service_time=(config.service_time * config.hot_factor
                              if shard.location == self.hot_shard
                              else config.service_time),
            )
            for shard in self.fleet.shards
        }
        self._outcomes = {
            shard.location: ShardOutcome(
                location=shard.location,
                hot=(shard.location == self.hot_shard),
            )
            for shard in self.fleet.shards
        }
        for location in self.fleet.assignments.values():
            self._outcomes[location].names += 1
        #: Load-shedding hook, same contract as LoadHarness.
        self.think_scale = 1.0
        self._g_shed = self.world.metrics.gauge("load.think_scale")
        self._g_shed.set(1.0)
        self._m_op_seconds = self.world.metrics.histogram("load.op_seconds")
        self._declare_slos()
        if controlled:
            self._attach_actuators()
        self._clients: list[tuple[ServerSession, ShardOutcome, bytes]] = []
        self._connect_clients()

    # -- setup -------------------------------------------------------------

    def _seed_file(self, name: str) -> None:
        shard = self.fleet.shard_for(name)
        fs = shard.fs
        owner = Cred(uid=0, gid=0)
        directory = pathops.resolve(fs, "/" + name)
        content = bytes(range(256)) * (FILE_SIZE // 256)
        inode = fs.create(directory.ino, "data", owner, mode=0o666)
        fs.write(inode.ino, 0, content, owner)
        fs.commit(inode.ino)

    def _pick_hot_shard(self) -> str:
        """The shard owning the most names heats up (ties: first by
        location sort) — determinism needs no coin flips here."""
        counts: dict[str, int] = {
            shard.location: 0 for shard in self.fleet.shards}
        for location in self.fleet.assignments.values():
            counts[location] += 1
        return max(sorted(counts), key=lambda loc: counts[loc])

    def _declare_slos(self) -> None:
        config = self.config
        self.plane.add_slo(SloSpec(
            "shard-wait-p99", metric="server.queue.wait_seconds",
            reduce="p99", threshold=config.wait_p99_slo, scope="sources",
            window=config.slo_window,
            description="windowed queue-wait p99, per shard",
        ))
        self.plane.add_slo(SloSpec(
            "shard-busy-rate", metric="server.queue.rejected",
            reduce="rate", threshold=config.reject_rate_slo,
            scope="sources", window=config.slo_window,
            description="busy-reject rate, per shard",
        ))
        self.plane.add_slo(SloSpec(
            "fleet-wait-p99", metric="server.queue.wait_seconds",
            reduce="p99", threshold=config.wait_p99_slo, scope="merged",
            window=config.slo_window,
            description="windowed queue-wait p99, fleet-merged",
        ))

    def _attach_actuators(self) -> None:
        config = self.config
        self.plane.add_actuator(LoadShedder(
            [self], slo="fleet-wait-p99", step=config.shed_step,
            max_scale=config.shed_max,
        ))
        self.plane.add_actuator(AimdAdmission(
            self.queues, latency_slo="shard-wait-p99",
            reject_slo="shard-busy-rate", increase=config.aimd_increase,
            decrease=config.aimd_decrease, floor=config.aimd_floor,
        ))

    def _client_names(self) -> list[str]:
        """Per-client name assignment: ``hot_clients`` of them pinned
        to hot-shard names, the rest round-robin over the cold ones."""
        hot_names = [name for name in self.names
                     if self.fleet.assignments[name] == self.hot_shard]
        cold_names = [name for name in self.names
                      if self.fleet.assignments[name] != self.hot_shard]
        if not cold_names:          # degenerate placement: all hot
            cold_names = hot_names
        assigned = []
        for index in range(self.config.clients):
            if index < min(self.config.hot_clients, self.config.clients):
                assigned.append(hot_names[index % len(hot_names)])
            else:
                assigned.append(cold_names[index % len(cold_names)])
        return assigned

    def _connect_clients(self) -> None:
        config = self.config
        shared_keys = EphemeralKeyCache(self.world.rng)
        handles: dict[str, bytes] = {}
        for index, name in enumerate(self._client_names()):
            shard = self.fleet.shard_for(name)
            link = self.world.connector(shard.location,
                                        proto.SERVICE_FILESERVER)
            outcome = ServerSession.connect(
                link, shard.path, shared_keys, self.world.rng,
                encrypt=config.encrypt,
            )
            assert isinstance(outcome, ServerSession)
            outcome.peer.retry_policy = RetryPolicy(
                base_delay=config.rpc_timeout, multiplier=2.0,
                max_delay=4.0 * config.rpc_timeout,
            )
            if name not in handles:
                handles[name] = self._lookup_data(outcome, name)
            report = self._outcomes[shard.location]
            report.clients += 1
            self._clients.append((outcome, report, handles[name]))

    def _lookup_data(self, session: ServerSession, name: str) -> bytes:
        def lookup(dir_handle: bytes, entry: str) -> bytes:
            status, body = session.call_nfs(
                nfs_const.NFSPROC3_LOOKUP,
                nfs_types.LookupArgs.make(
                    what=nfs_types.DirOpArgs.make(dir=dir_handle,
                                                  name=entry)
                ),
                authno=0,
            )
            assert status == nfs_const.NFS3_OK, f"lookup({entry}): {status}"
            return body.object

        root = lookup(bytes(24), ".")  # the RW dialect's mount convention
        return lookup(lookup(root, name), "data")

    # -- the shedding hook -------------------------------------------------

    def set_think_scale(self, scale: float) -> float:
        """LoadShedder target; see LoadHarness.set_think_scale."""
        self.think_scale = max(1.0, float(scale))
        self._g_shed.set(self.think_scale)
        return self.think_scale

    # -- the closed loop ---------------------------------------------------

    def _run_op(self, session: ServerSession, stream: OpStream,
                report: ControlReport, shard: ShardOutcome):
        proc, args = stream.next_op()
        clock = self.world.clock
        start = clock.now
        try:
            status, _body = yield from session.call_nfs_task(proc, args, 0)
        except RpcError:
            report.op_errors += 1
            return
        if status != nfs_const.NFS3_OK:
            report.op_errors += 1
            return
        latency = clock.now - start
        report.latencies.append(latency)
        shard.latencies.append(latency)
        self._m_op_seconds.observe(latency)

    def _client(self, index: int, report: ControlReport):
        config = self.config
        session, shard, handle = self._clients[index]
        stream = OpStream([handle], config.mix, config.io_size,
                          seed=(config.seed << 8) ^ index)
        think_rng = random.Random((config.seed << 16) ^ index)
        for _op in range(config.ops_per_client):
            if config.think_time > 0:
                yield Sleep(think_rng.expovariate(1.0 / config.think_time)
                            * self.think_scale)
            yield from self._run_op(session, stream, report, shard)

    def run(self) -> ControlReport:
        config = self.config
        report = ControlReport(controlled=self.controlled,
                               clients=config.clients,
                               servers=config.servers,
                               hot_shard=self.hot_shard)
        report.shards = [self._outcomes[shard.location]
                         for shard in self.fleet.shards]
        start = self.world.clock.now
        for index in range(config.clients):
            self.scheduler.spawn(self._client(index, report),
                                 name=f"control-client-{index}")
        run_to_report(self.scheduler, report)
        for shard in self.fleet.shards:
            outcome = self._outcomes[shard.location]
            queue = self.queues[shard.location]
            outcome.peak_queue_depth = queue.peak_depth
            outcome.final_max_depth = queue.max_depth
            # Per-shard rejects come from the shard's own registry —
            # the tee makes this split possible at all.
            outcome.busy_rejects = shard.server.registry.counter(
                "server.queue.rejected").value
        report.busy_rejects = self.world.metrics.counter(
            "server.queue.rejected").value
        report.busy_retries = sum(s.busy_retries
                                  for s, _r, _h in self._clients)
        report.final_think_scale = self.think_scale
        report.policy_actions = len(self.plane.policy.actions)
        report.slo_events = len(self.plane.slos.events)
        report.finish(self.world.clock.now - start)
        return report


def run_control_comparison(config: ControlBenchConfig
                           ) -> tuple[ControlReport, ControlReport, dict]:
    """(unmanaged, managed, artifact): the same world twice, the second
    time with the actuators attached.  Both runs carry the collector
    and SLO engine so the artifact can show the baseline breaching."""
    baseline = ControlHarness(config, controlled=False).run()
    managed_harness = ControlHarness(config, controlled=True)
    managed = managed_harness.run()
    artifact = managed_harness.plane.artifact()
    artifact["summary"] = {
        "config": {
            "servers": config.servers, "clients": config.clients,
            "ops_per_client": config.ops_per_client, "seed": config.seed,
            "hot_factor": config.hot_factor,
            "hot_clients": config.hot_clients,
            "max_depth": config.max_depth, "period": config.period,
        },
        "baseline": _summary(baseline),
        "managed": _summary(managed),
    }
    return baseline, managed, artifact


def _summary(report: ControlReport) -> dict:
    return {
        "controlled": report.controlled,
        "hot_shard": report.hot_shard,
        "ops_completed": report.ops_completed,
        "op_errors": report.op_errors,
        "busy_rejects": report.busy_rejects,
        "busy_retries": report.busy_retries,
        "p50_ms": report.p50 * 1000,
        "p95_ms": report.p95 * 1000,
        "p99_ms": report.p99 * 1000,
        "throughput": report.throughput,
        "final_think_scale": report.final_think_scale,
        "policy_actions": report.policy_actions,
        "slo_events": report.slo_events,
        "shards": [{
            "location": shard.location, "hot": shard.hot,
            "names": shard.names, "clients": shard.clients,
            "ops": shard.ops_completed, "p99_ms": shard.p99 * 1000,
            "busy_rejects": shard.busy_rejects,
            "peak_queue_depth": shard.peak_queue_depth,
            "final_max_depth": shard.final_max_depth,
        } for shard in report.shards],
    }
