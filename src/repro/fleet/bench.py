"""The ``bench fleet`` figure: aggregate throughput vs. fleet size.

Not a paper figure — the paper measures one server — but the paper's
architecture *predicts* this one: because the namespace composes out of
ordinary symlinks and no server knows the others exist, capacity should
scale by adding servers, with clients spread across shards by the
consistent-hash placement.  The figure fixes the client population and
sweeps the server count; aggregate ops/s rises until the clients (not
the servers) are the bottleneck, and per-shard p99 falls as each shard's
queue drains faster than it fills.

Two phases per run, both fully simulated and deterministic per seed:

* **namespace** — a real client machine mounts the fleet's signed
  namespace through the untrusted replica tier and resolves every
  provisioned name, verifying each symlink against the placement the
  fleet recorded at provision time.
* **data path** — N closed-loop clients (the PR-4 load harness pattern:
  think, call, repeat) drive their names' owning shards through each
  shard's bounded request queue.

:func:`run_tamper_demo` is the security half of the figure: the fastest
mirror of the namespace serves bit-flipped blobs, and the client bans it
on the first digest mismatch while every resolved link stays correct —
demotion costs a round trip, never a byte.
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
from ..sim.network import NetworkParameters
from ..sim.sched import Sleep


@dataclass
class FleetLoadConfig:
    """One fleet run: topology, namespace size, and the offered load."""

    servers: int = 4
    clients: int = 16
    ops_per_client: int = 20
    seed: int = 2026
    #: Mean think time between a client's operations.  Short on purpose:
    #: the sweep wants the *servers* to be the bottleneck at small fleet
    #: sizes, so adding shards shows up as aggregate throughput.
    think_time: float = 0.002
    io_size: int = 4096
    mix: OpMix = DEFAULT_MIX
    #: Provisioned names (directories spread over shards by the ring).
    names: int = 32
    #: Untrusted mirrors of the namespace image.
    mirrors: int = 2
    workers: int = 2
    service_time: float = 0.005
    max_depth: int = 64
    rpc_timeout: float = 1.0
    encrypt: bool = True


@dataclass
class ShardReport:
    """One shard's share of a run."""

    location: str
    names: int = 0
    clients: int = 0
    ops_completed: int = 0
    p50: float = 0.0
    p99: float = 0.0
    peak_queue_depth: int = 0
    latencies: list[float] = field(default_factory=list, repr=False)

    def finish(self) -> None:
        self.ops_completed = len(self.latencies)
        if self.latencies:
            ordered = sorted(self.latencies)
            self.p50 = _percentile(ordered, 0.50)
            self.p99 = _percentile(ordered, 0.99)


@dataclass
class FleetReport:
    """One fleet run's outcome, all figures in simulated seconds."""

    servers: int
    clients: int
    ops_completed: int = 0
    op_errors: int = 0
    duration: float = 0.0
    throughput: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    unfinished_tasks: int = 0
    shards: list[ShardReport] = field(default_factory=list)
    #: Namespace-tier counters (fleet.replica.*) from the resolve phase.
    namespace: dict = field(default_factory=dict)
    #: Symlinks resolved through the replica tier, all verified.
    names_resolved: int = 0
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

    def worst_shard_p99(self) -> float:
        return max((s.p99 for s in self.shards if s.latencies), default=0.0)


def _percentile(ordered: list[float], q: float) -> float:
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class FleetHarness:
    """Owns the world, the fleet, and the per-shard client sessions."""

    def __init__(self, config: FleetLoadConfig) -> None:
        self.config = config
        self.world = World(seed=config.seed)
        self.scheduler = self.world.enable_concurrency(seed=config.seed)
        self.world.enable_contention()
        self.fleet = self.world.add_fleet(config.servers)
        self.names = [f"proj{index:02d}" for index in range(config.names)]
        self.targets: dict[str, str] = {}
        for name in self.names:
            self.targets[name] = self.fleet.provision(name)
            self._seed_file(name)
        self.fleet.publish(mirrors=config.mirrors)
        self.names_resolved = self._resolve_namespace()
        self.queues = {
            shard.location: shard.server.enable_queueing(
                max_depth=config.max_depth, workers=config.workers,
                service_time=config.service_time,
            )
            for shard in self.fleet.shards
        }
        self._shard_reports = {
            shard.location: ShardReport(location=shard.location)
            for shard in self.fleet.shards
        }
        for location in self.fleet.assignments.values():
            self._shard_reports[location].names += 1
        self._m_shard_ops = self.world.metrics.family("fleet.shard.ops")
        self._m_op_seconds = self.world.metrics.histogram("fleet.op_seconds")
        #: client index -> (session, shard report, file handle)
        self._clients: list[tuple[ServerSession, ShardReport, bytes]] = []
        self._connect_clients()

    # -- setup -------------------------------------------------------------

    def _seed_file(self, name: str) -> None:
        """A world-accessible data file in the name's directory, so the
        anonymous (authno 0) load clients skip the login protocol — the
        figure measures the data path, not authentication."""
        shard = self.fleet.shard_for(name)
        fs = shard.fs
        owner = Cred(uid=0, gid=0)
        directory = pathops.resolve(fs, "/" + name)
        content = bytes(range(256)) * (FILE_SIZE // 256)
        inode = fs.create(directory.ino, "data", owner, mode=0o666)
        fs.write(inode.ino, 0, content, owner)
        fs.commit(inode.ino)

    def _resolve_namespace(self) -> int:
        """Mount the namespace through the replica tier and resolve
        every provisioned name, verifying each link against the
        placement recorded at provision time."""
        client = self.world.add_client("bench-client", with_disk=False)
        self.fleet.attach(client)
        process = client.root_process()
        prefix = f"/sfs/{self.fleet.namespace_path.mount_name}"
        resolved = 0
        for name in self.names:
            link = process.readlink(f"{prefix}/{name}")
            if link != self.targets[name]:
                raise AssertionError(
                    f"namespace resolved {name} to {link}, "
                    f"expected {self.targets[name]}"
                )
            resolved += 1
        return resolved

    def _connect_clients(self) -> None:
        """One session per load client, dialed at its name's owning
        shard.  A shared ephemeral-key cache plays N identical client
        machines without paying N key generations."""
        config = self.config
        shared_keys = EphemeralKeyCache(self.world.rng)
        handles: dict[str, bytes] = {}
        for index in range(config.clients):
            name = self.names[index % len(self.names)]
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
            report = self._shard_reports[shard.location]
            report.clients += 1
            self._clients.append((outcome, report, handles[name]))

    def _lookup_data(self, session: ServerSession, name: str) -> bytes:
        """Resolve /<name>/data once; the export's handle map is a pure
        function of its durable key, so the handle works on every
        session to the same shard."""

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

    # -- the closed loop ---------------------------------------------------

    def _run_op(self, session: ServerSession, stream: OpStream,
                report: FleetReport, shard: ShardReport):
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
        self._m_shard_ops.labels(shard.location).inc()

    def _client(self, index: int, report: FleetReport):
        config = self.config
        session, shard, handle = self._clients[index]
        stream = OpStream([handle], config.mix, config.io_size,
                          seed=(config.seed << 8) ^ index)
        think_rng = random.Random((config.seed << 16) ^ index)
        for _op in range(config.ops_per_client):
            if config.think_time > 0:
                yield Sleep(think_rng.expovariate(1.0 / config.think_time))
            yield from self._run_op(session, stream, report, shard)

    def run(self) -> FleetReport:
        config = self.config
        report = FleetReport(servers=config.servers, clients=config.clients)
        report.shards = [self._shard_reports[shard.location]
                         for shard in self.fleet.shards]
        report.names_resolved = self.names_resolved
        start = self.world.clock.now
        for index in range(config.clients):
            self.scheduler.spawn(self._client(index, report),
                                 name=f"fleet-client-{index}")
        run_to_report(self.scheduler, report)
        for location, queue in self.queues.items():
            self._shard_reports[location].peak_queue_depth = queue.peak_depth
        metrics = self.world.metrics
        report.namespace = {
            key: metrics.counter(f"fleet.replica.{key}").value
            for key in ("fetches", "failovers", "demotions", "bans",
                        "corrupt_blobs", "backoff_waits")
        }
        report.finish(self.world.clock.now - start)
        return report


# -- the tamper demonstration ----------------------------------------------


@dataclass
class TamperReport:
    """Outcome of resolving the namespace past a tampering mirror."""

    names_resolved: int = 0
    wrong_links: int = 0
    corrupt_blobs: int = 0
    bans: int = 0
    failovers: int = 0
    banned_replicas: list[str] = field(default_factory=list)
    replicas: list[dict] = field(default_factory=list)


def run_tamper_demo(seed: int = 2026, names: int = 6,
                    mirrors: int = 2) -> TamperReport:
    """The fastest mirror serves bit-flipped blobs; the client bans it
    on the first digest mismatch and every resolved link stays correct.

    The tampering mirror is *preferred* by construction — the CA and the
    honest mirrors sit behind WAN links while the tamperer is on the
    LAN — so the demotion is exercised on the primary path, not a
    fallback nobody takes.
    """
    world = World(seed=seed)
    fleet = world.add_fleet(2, name="fleet")
    expected = {}
    for index in range(names):
        name = f"proj{index:02d}"
        expected[name] = fleet.provision(name)
    fleet.publish(mirrors=mirrors)
    wan = NetworkParameters.wan()
    world.set_link_params(fleet.ca.location, wan)
    for location in fleet.mirror_locations[1:]:
        world.set_link_params(location, wan)
    tamperer = fleet.mirror_locations[0]
    store = world.servers[tamperer].master._ro[
        fleet.namespace_path.hostid].store.image.store
    for digest, blob in list(store.items()):
        store[digest] = bytes([blob[0] ^ 0x01]) + blob[1:]

    client = world.add_client("victim", with_disk=False)
    fleet.attach(client)
    process = client.root_process()
    prefix = f"/sfs/{fleet.namespace_path.mount_name}"
    report = TamperReport()
    for name, target in expected.items():
        link = process.readlink(f"{prefix}/{name}")
        if link == target:
            report.names_resolved += 1
        else:
            report.wrong_links += 1
    replica_set = client.sfscd.replica_sets[fleet.namespace_path.hostid]
    report.replicas = replica_set.stats()
    report.banned_replicas = [entry["name"] for entry in report.replicas
                              if entry["banned"]]
    metrics = world.metrics
    report.corrupt_blobs = metrics.counter(
        "fleet.replica.corrupt_blobs").value
    report.bans = metrics.counter("fleet.replica.bans").value
    report.failovers = metrics.counter("fleet.replica.failovers").value
    return report
