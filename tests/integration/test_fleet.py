"""Fleet federation end to end: sharded namespace, mirrors, demotion."""

import os
from dataclasses import replace

import pytest

from repro.bench.fleet import FLEET_LOAD, FleetBench, FleetConfig, \
    run_tamper_demo
from repro.fs import pathops
from repro.kernel.world import World
from repro.sim.network import NetworkParameters


@pytest.fixture
def world():
    return World(seed=43)


NAMES = ["alice", "bob", "carol", "dave", "erin", "frank"]


def build_fleet(world, shards=3, mirrors=1, names=NAMES):
    fleet = world.add_fleet(shards)
    targets = {name: fleet.provision(name) for name in names}
    for name in names:
        shard = fleet.shard_for(name)
        pathops.write_file(shard.fs, f"/{name}/README",
                           f"{name} on {shard.location}".encode())
    fleet.publish(mirrors=mirrors)
    return fleet, targets


def test_namespace_resolves_and_data_path_works(world):
    fleet, targets = build_fleet(world)
    client = world.add_client("laptop")
    fleet.attach(client)
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    prefix = f"/sfs/{fleet.namespace_path.mount_name}"
    for name, target in targets.items():
        # The CA symlink comes through the replica tier, verified.
        assert proc.readlink(f"{prefix}/{name}") == target
        # Following it lands on the owning shard with RW security.
        shard = fleet.shard_for(name)
        assert proc.read_file(f"{prefix}/{name}/README") == (
            f"{name} on {shard.location}".encode()
        )


def test_placement_spreads_names_and_is_recorded(world):
    fleet, _targets = build_fleet(world, shards=3, names=NAMES)
    placement = fleet.placement()
    assert sum(placement.values()) == len(NAMES)
    assert set(placement) == {shard.location for shard in fleet.shards}
    assert fleet.assignments["alice"] == fleet.shard_for("alice").location


def test_growth_moves_a_minority_of_names(world):
    fleet = world.add_fleet(4)
    names = [f"proj{index:03d}" for index in range(200)]
    before = {name: fleet.shard_for(name).location for name in names}
    newcomer = fleet.add_shard("shard-new.fleet")
    moved = [name for name in names
             if fleet.shard_for(name).location != before[name]]
    assert 0 < len(moved) < 100  # ~1/5 expected, never a reshuffle
    for name in moved:
        assert fleet.shard_for(name).location == newcomer.location


def test_republish_after_certify_is_incremental(world):
    fleet, _targets = build_fleet(world, mirrors=0)
    first = fleet.image
    fleet.provision("grace")
    fleet.publish()
    assert fleet.image.serial == first.serial + 1
    # Only the blobs the new link touched were re-created; the rest of
    # the link farm carried over from the previous image.
    assert 0 < fleet.image.new_blobs < len(fleet.image.store)


def test_tampering_mirror_demoted_with_zero_wrong_links(world):
    """The preferred (fastest) mirror serves bit-flipped blobs: it gets
    banned on the first digest mismatch and every link still resolves
    to exactly what was provisioned."""
    fleet, targets = build_fleet(world, shards=2, mirrors=2)
    wan = NetworkParameters.wan()
    # Leave mirror0 on the LAN so selection prefers it; everyone honest
    # is far away.
    world.set_link_params(fleet.ca.location, wan)
    world.set_link_params(fleet.mirror_locations[1], wan)
    tamperer = fleet.mirror_locations[0]
    store = world.servers[tamperer].master._ro[
        fleet.namespace_path.hostid].store.image.store
    for digest, blob in list(store.items()):
        store[digest] = bytes([blob[0] ^ 0x01]) + blob[1:]

    client = world.add_client("victim")
    fleet.attach(client)
    proc = client.root_process()
    prefix = f"/sfs/{fleet.namespace_path.mount_name}"
    for name, target in targets.items():
        assert proc.readlink(f"{prefix}/{name}") == target
    replica_set = client.sfscd.replica_sets[fleet.namespace_path.hostid]
    stats = {entry["name"]: entry for entry in replica_set.stats()}
    assert stats[tamperer]["banned"]
    assert world.metrics.counter("fleet.replica.bans").value == 1
    assert world.metrics.counter("fleet.replica.corrupt_blobs").value >= 1


def test_dead_mirror_fails_over_not_up(world):
    """Crashing the preferred mirror sidelines it; resolution continues
    from the remaining replicas with no client-visible error."""
    fleet, targets = build_fleet(world, shards=2, mirrors=1)
    client = world.add_client("laptop")
    fleet.attach(client)
    proc = client.root_process()
    prefix = f"/sfs/{fleet.namespace_path.mount_name}"
    first = NAMES[0]
    assert proc.readlink(f"{prefix}/{first}") == targets[first]
    replica_set = client.sfscd.replica_sets[fleet.namespace_path.hostid]
    # Kill whichever replica the set currently prefers.
    preferred = replica_set.select()
    world.servers[preferred.name].crash()
    for name in NAMES[1:]:
        assert proc.readlink(f"{prefix}/{name}") == targets[name]
    assert world.metrics.counter("fleet.replica.demotions").value >= 1


def test_fleet_bench_harness_smoke():
    """The bench harness end to end at a tiny scale: every op succeeds,
    per-shard accounting adds up, namespace counters populated."""
    config = FleetConfig(load=replace(FLEET_LOAD, clients=4,
                                      ops_per_client=3, seed=11),
                         servers=2, names=4, mirrors=1)
    bench = FleetBench(config)
    report = bench.run()
    assert report.op_errors == 0 and report.unfinished_tasks == 0
    assert report.ops_completed == 12
    assert bench.names_resolved == 4
    assert sum(row["ops"] for row in bench.shard_rows(report)) == 12
    assert bench.namespace_counters()["fetches"] > 0
    assert report.throughput > 0
    assert report.p99 >= report.p50 > 0


def test_fleet_bench_tamper_demo():
    report = run_tamper_demo(seed=13, names=4, mirrors=2)
    assert report.wrong_links == 0
    assert report.names_resolved == 4
    assert report.bans >= 1 and report.corrupt_blobs >= 1
    assert report.banned_replicas == ["mirror0.fleet"]


def test_fleet_smoke_run():
    """16 closed-loop clients x 20 ops against a 4-shard fleet, the
    namespace resolved through the untrusted replica tier, drain with
    zero errors and hung tasks, and the tamper demonstration bans the
    bit-flipped mirror with zero wrong links.  CI's figure-smoke job
    sets ``SFS_FLEET_SEED`` to each of its matrix seeds."""
    seed = int(os.environ.get("SFS_FLEET_SEED", "2026"))
    config = FleetConfig(load=replace(FLEET_LOAD, seed=seed))
    bench = FleetBench(config)
    report = bench.run()
    worst = max(row["p99_ms"] for row in bench.shard_rows(report))
    print(f"seed {seed}: {report.ops_completed} ops over "
          f"{config.servers} shards, {report.throughput:.1f} ops/s, "
          f"p50 {report.p50 * 1e3:.2f} ms, p99 {report.p99 * 1e3:.2f} ms, "
          f"worst shard p99 {worst:.2f} ms")
    assert report.unfinished_tasks == 0, "tasks hung at drain"
    assert report.op_errors == 0
    assert report.ops_completed == 16 * 20
    assert bench.names_resolved == config.names
    tamper = run_tamper_demo(seed=seed)
    print(f"tamper: {tamper.corrupt_blobs} corrupt blob(s) rejected, "
          f"banned {tamper.banned_replicas}")
    assert tamper.wrong_links == 0 and tamper.bans >= 1
