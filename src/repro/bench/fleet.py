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
* **data path** — the client engine (:class:`~repro.load.LoadHarness`)
  runs N closed-loop clients, client *i* against the ``data`` file of
  name *i* on that name's owning shard, through each shard's bounded
  request queue; the report's per-location slices are the shard rows.

:func:`run_tamper_demo` is the security half of the figure: the fastest
mirror of the namespace serves bit-flipped blobs, and the client bans it
on the first digest mismatch while every resolved link stays correct —
demotion costs a round trip, never a byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..kernel.world import World
from ..load.harness import LoadConfig, LoadHarness, LoadReport, Target, \
    seed_file
from ..load.workload import FILE_CONTENT
from ..sim.network import NetworkParameters

#: The figure's clients.  Think time is short on purpose: the sweep
#: wants the *servers* to be the bottleneck at small fleet sizes, so
#: adding shards shows up as aggregate throughput.
FLEET_LOAD = LoadConfig(clients=16, ops_per_client=20, think_time=0.002,
                        service_time=0.005, max_depth=64)


@dataclass
class FleetConfig:
    """One fleet run: the clients, and the topology they run against."""

    load: LoadConfig = field(default_factory=lambda: replace(FLEET_LOAD))
    servers: int = 4
    #: Provisioned names (directories spread over shards by the ring).
    names: int = 32
    #: Untrusted mirrors of the namespace image.
    mirrors: int = 2


def provision_data(fleet, names: list[str]) -> dict[str, str]:
    """Provision each name, with a world-readable ``data`` file in its
    directory on its shard; returns name -> certified link target."""
    links = {}
    for name in names:
        links[name] = fleet.provision(name)
        seed_file(fleet.shard_for(name).fs, f"/{name}/data", FILE_CONTENT)
    return links


def data_target(fleet, name: str) -> Target:
    """Where a client of *name* goes: its shard's export, its file."""
    return Target(fleet.shard_for(name).path, (f"{name}/data",))


class FleetBench:
    """A fleet world, its namespace resolved, and the clients' harness."""

    def __init__(self, config: FleetConfig) -> None:
        load = config.load
        self.config = config
        self.world = World(seed=load.seed)
        self.fleet = self.world.add_fleet(config.servers)
        names = [f"proj{index:02d}" for index in range(config.names)]
        links = provision_data(self.fleet, names)
        self.fleet.publish(mirrors=config.mirrors)
        self.names_resolved = self._resolve_namespace(links)
        for shard in self.fleet.shards:
            shard.server.master.request_queue.configure(
                max_depth=load.max_depth, workers=load.workers,
                service_time=load.service_time)
        self.harness = LoadHarness(load, world=self.world, targets=[
            data_target(self.fleet, names[index % len(names)])
            for index in range(load.clients)
        ])

    def _resolve_namespace(self, links: dict[str, str]) -> int:
        """Mount the namespace through the replica tier and resolve
        every provisioned name, verifying each link against the
        placement recorded at provision time."""
        client = self.world.add_client("bench-client", with_disk=False)
        self.fleet.attach(client)
        process = client.root_process()
        prefix = f"/sfs/{self.fleet.namespace_path.mount_name}"
        for name, target in links.items():
            link = process.readlink(f"{prefix}/{name}")
            if link != target:
                raise AssertionError(
                    f"namespace resolved {name} to {link}, "
                    f"expected {target}")
        return len(links)

    def run(self) -> LoadReport:
        return self.harness.run_closed_loop()

    def shard_rows(self, report: LoadReport) -> list[dict]:
        """One row per shard, in fleet order (shards no client went to
        included)."""
        placement = self.fleet.placement()
        rows = []
        for shard in self.fleet.shards:
            where = report.locations.get(shard.location,
                                         LoadReport(clients=0))
            rows.append({
                "location": shard.location,
                "names": placement[shard.location],
                "clients": where.clients, "ops": where.ops_completed,
                "p50_ms": where.p50 * 1000, "p99_ms": where.p99 * 1000,
                "peak_queue_depth": where.max_queue_depth,
            })
        return rows

    def namespace_counters(self) -> dict:
        """The replica tier's fleet.replica.* counters."""
        metrics = self.world.metrics
        return {key: metrics.counter(f"fleet.replica.{key}").value
                for key in ("fetches", "failovers", "demotions", "bans",
                            "corrupt_blobs", "backoff_waits")}


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
