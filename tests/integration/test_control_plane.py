"""Integration: the fleet control plane inside a real World.

These tests exercise the whole adoption path — per-machine tee
registries, heartbeat liveness through crash/restart, the daemon loop
on the virtual clock — and the headline closed-loop claim: with the
control plane steering admission and offered load, the same overloaded
fleet run finishes with both a lower fleet p99 and fewer busy-rejects
than the open-loop baseline.
"""

import pytest

from repro.control.bench import ControlBenchConfig, run_control_comparison
from repro.kernel.world import World
from repro.sim.sched import Sleep


def make_world():
    return World(seed=7)


# -- adoption and tee registries --------------------------------------------


def test_machines_added_after_enable_control_get_per_source_registries():
    world = make_world()
    world.enable_control(start=False)
    s1 = world.add_server("alpha.example.com")
    s2 = world.add_server("beta.example.com")
    # Writes through the machine's metrics handle land in BOTH views.
    s1.metrics.counter("demo.ops").inc(3)
    s2.metrics.counter("demo.ops").inc(4)
    assert world.metrics.counter("demo.ops").value == 7   # fleet total
    assert s1.registry.counter("demo.ops").value == 3     # per-source
    assert s2.registry.counter("demo.ops").value == 4
    world.clock.advance(0.01)
    merged = world.control.collector.tick()
    sources = world.control.collector.sources
    assert sources["alpha.example.com"].latest["metrics"]["demo.ops"] == 3
    assert sources["beta.example.com"].latest["metrics"]["demo.ops"] == 4
    assert merged["metrics"]["demo.ops"] == 7


def test_machines_created_before_enable_control_are_still_adopted():
    world = make_world()
    world.add_server("early.example.com")
    world.enable_control(start=False)
    assert "early.example.com" in world.control.collector.sources
    world.clock.advance(0.01)
    world.control.collector.tick()
    # Pre-existing machines heartbeat (liveness) even though their
    # instruments were already bound to the world registry.
    assert world.control.collector.states()["early.example.com"] == "live"


def test_server_instruments_tee_through_to_the_collector():
    world = make_world()
    world.enable_control(start=False)
    server = world.add_server("files.example.com")
    server.export_fs()
    queue = server.enable_queueing(max_depth=2, workers=1,
                                   service_time=0.001)
    conn = object()
    for _ in range(4):                        # 2 admitted + 2 rejected
        queue.submit(conn, lambda: None)
    world.clock.advance(0.01)
    world.control.collector.tick()
    per_source = world.control.collector.sources[
        "files.example.com"].latest["metrics"]
    assert per_source["server.queue.rejected"] == 2
    assert world.metrics.counter("server.queue.rejected").value == 2


# -- heartbeat liveness -----------------------------------------------------


def test_crash_marks_source_stale_then_dead_and_restart_revives():
    world = make_world()
    world.enable_control(start=False, stale_after=1, dead_after=3)
    server = world.add_server("flaky.example.com")
    collector = world.control.collector

    def tick():
        world.clock.advance(0.01)
        collector.tick()
        return collector.states()["flaky.example.com"]

    assert tick() == "live"
    server.crash()
    assert tick() == "stale"                  # down master misses beats
    assert tick() == "stale"
    assert tick() == "dead"
    server.restart()
    assert tick() == "live"                   # one good beat revives it


def test_clients_heartbeat_too():
    world = make_world()
    world.enable_control(start=False)
    world.add_server("srv.example.com").export_fs()
    world.add_client("laptop")
    world.clock.advance(0.01)
    world.control.collector.tick()
    states = world.control.collector.states()
    assert states == {"laptop": "live", "srv.example.com": "live"}
    assert world.control.collector.sources["laptop"].kind == "client"


# -- the daemon loop --------------------------------------------------------


def test_control_daemon_ticks_on_the_virtual_clock():
    world = make_world()
    world.enable_control(period=0.010)        # start=True spawns the daemon
    scheduler = world.enable_concurrency()

    def workload():
        yield Sleep(0.1)

    scheduler.spawn(workload(), name="workload")
    scheduler.run()
    # ~10 periods elapsed; the daemon ticked once per period.
    assert 8 <= world.control.collector.ticks <= 12


def test_enable_control_is_idempotent():
    world = make_world()
    plane = world.enable_control(start=False)
    assert world.enable_control(start=False) is plane


# -- the closed loop --------------------------------------------------------


@pytest.fixture(scope="module")
def comparison():
    config = ControlBenchConfig(ops_per_client=10, max_depth=4,
                                hot_clients=12, hot_factor=6.0, seed=2026)
    return run_control_comparison(config)


def test_closed_loop_beats_open_loop_on_latency_and_rejects(comparison):
    baseline, managed, _artifact = comparison
    assert managed.op_errors == 0
    assert managed.unfinished_tasks == 0
    # The managed run completes every op; the baseline may drop some.
    assert managed.ops_completed == 16 * 10
    assert managed.ops_completed >= baseline.ops_completed
    assert managed.p99 < baseline.p99
    assert managed.busy_rejects < baseline.busy_rejects
    assert managed.policy_actions > 0


def test_policy_saturates_on_the_hot_shard(comparison):
    baseline, managed, artifact = comparison
    hot = managed.hot_shard
    # Per-shard registries attribute rejects: the hot shard dominates
    # the open-loop baseline, and the AIMD actuator grew its depth.
    baseline_hot = next(s for s in baseline.shards if s.location == hot)
    managed_hot = next(s for s in managed.shards if s.location == hot)
    assert baseline_hot.busy_rejects == max(
        s.busy_rejects for s in baseline.shards)
    # Grew from the configured 4: the queue can only ever have held more
    # than 4 after AIMD raised the bound.  (Re-pinned from
    # final_max_depth > 4: the bound saws between 2 and 16 for the whole
    # run, and where the run happens to end on that sawtooth moved from
    # 12 to 2 when contended links became store-and-forward.)
    assert managed_hot.peak_queue_depth > 4
    assert managed_hot.busy_rejects < baseline_hot.busy_rejects
    # The artifact ships the full control story.
    assert artifact["actions"], "policy action log must not be empty"
    assert artifact["collector"]["merged"] is not None
    assert set(artifact["summary"]) == {"config", "baseline", "managed"}


def test_comparison_is_deterministic_per_seed():
    config = ControlBenchConfig(ops_per_client=6, max_depth=4,
                                hot_clients=10, hot_factor=4.0, seed=31337)
    first_baseline, first_managed, _ = run_control_comparison(config)
    second_baseline, second_managed, _ = run_control_comparison(config)
    assert first_baseline.latencies == second_baseline.latencies
    assert first_managed.latencies == second_managed.latencies
    assert first_managed.busy_rejects == second_managed.busy_rejects
