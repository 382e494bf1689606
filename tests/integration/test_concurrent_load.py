"""Integration tests for the concurrent-client load engine.

These drive full SFS stacks — self-certifying handshake, key
negotiation, encrypted channels, NFS3 — with N clients as cooperative
tasks against one queued server, and pin down the two load-engine
acceptance properties:

* **without** admission control, tail latency degrades super-linearly
  once offered load crosses the server's service capacity;
* **with** admission control, rejected requests are counted, retried
  through the client's backoff policy, and the queue depth stays
  bounded.
"""

import os

import pytest

from repro.load import LoadConfig, LoadHarness


def run_closed(**overrides):
    config = LoadConfig(**overrides)
    return LoadHarness(config).run_closed_loop()


# --- determinism ---------------------------------------------------------

def test_same_seed_reproduces_the_whole_report():
    kwargs = dict(clients=8, ops_per_client=8, seed=42, workers=1,
                  service_time=0.001, max_depth=8)
    first = run_closed(**kwargs)
    second = run_closed(**kwargs)
    assert first.latencies == second.latencies
    assert first.ops_completed == second.ops_completed
    assert first.busy_retries == second.busy_retries
    assert first.admission_rejects == second.admission_rejects
    assert first.duration == second.duration
    assert first.throughput == second.throughput


def test_different_seeds_give_different_interleavings():
    reports = [
        run_closed(clients=8, ops_per_client=8, seed=seed, workers=1,
                   service_time=0.001)
        for seed in (1, 2)
    ]
    assert reports[0].latencies != reports[1].latencies


# --- correctness under concurrency ---------------------------------------

def test_all_clients_complete_all_ops():
    report = run_closed(clients=16, ops_per_client=10, seed=5,
                        workers=2, service_time=0.001)
    assert report.ops_completed == 16 * 10
    assert report.op_errors == 0
    assert report.unfinished_tasks == 0


def test_reused_harness_reports_only_this_runs_dead_tasks():
    """``op_errors`` is per run: a client task that died in run 1 is
    not billed again to run 2 of the same harness."""
    harness = LoadHarness(LoadConfig(clients=4, ops_per_client=2, seed=5))
    victim = harness.sessions[0]
    run_op = harness._run_op

    def exploding_op(session, stream, report):
        if session is victim:
            raise RuntimeError("planted fault")
        return (yield from run_op(session, stream, report))

    harness._run_op = exploding_op
    first = harness.run_closed_loop()
    assert first.op_errors == 1
    assert first.ops_completed == 6
    del harness._run_op
    second = harness.run_closed_loop()
    assert second.op_errors == 0
    assert second.ops_completed == 8
    assert second.unfinished_tasks == 0


def test_reused_harness_reports_only_this_runs_backpressure():
    """Busy retries, admission rejects and the queue's peak are per run
    too: run 2 of one harness books what happened in run 2, not the
    harness's lifetime."""
    harness = LoadHarness(LoadConfig(clients=16, ops_per_client=10, seed=3,
                                     workers=1, service_time=0.004,
                                     max_depth=2))
    metrics = harness.world.metrics
    first = harness.run_closed_loop()
    retries = metrics.counter("client.busy_retries").value
    rejects = metrics.counter("server.queue.rejected").value
    second = harness.run_closed_loop()
    assert second.admission_rejects > 0
    assert second.busy_retries == (
        metrics.counter("client.busy_retries").value - retries)
    assert second.admission_rejects == (
        metrics.counter("server.queue.rejected").value - rejects)
    # Clients ten thousand times slower never find a request waiting
    # ahead of theirs, nor the slot busy: each call starts at once, so
    # none ever counts as queued.
    harness.set_think_scale(10_000.0)
    idle = harness.run_closed_loop()
    assert first.max_queue_depth == 2
    assert idle.max_queue_depth == 0
    assert idle.admission_rejects == idle.busy_retries == 0


def test_open_loop_completes_every_arrival():
    config = LoadConfig(clients=4, seed=9, workers=2, service_time=0.001,
                        arrival_rate=300.0, duration=0.5)
    report = LoadHarness(config).run_open_loop()
    assert report.ops_completed > 50          # Poisson(300 × 0.5) ≈ 150
    assert report.op_errors == 0
    assert report.unfinished_tasks == 0
    # Concurrent arrivals shared 4 transports (taking turns at each
    # one's send window of 1).
    assert report.ops_completed > config.clients


def test_scale_smoke_run():
    """16 closed-loop clients against a queued server finish every
    operation with no hung tasks.  CI's scale-smoke job sets
    ``SFS_SCALE_SEED`` to each of its matrix seeds and
    ``SFS_SCALE_METRICS_OUT`` to export the metrics snapshot it
    uploads."""
    seed = int(os.environ.get("SFS_SCALE_SEED", "2026"))
    harness = LoadHarness(LoadConfig(clients=16, ops_per_client=20,
                                     seed=seed, workers=2,
                                     service_time=0.001, max_depth=32))
    report = harness.run_closed_loop()
    assert report.unfinished_tasks == 0, "tasks hung at drain"
    assert report.op_errors == 0
    assert report.ops_completed == 16 * 20
    out = os.environ.get("SFS_SCALE_METRICS_OUT")
    if out:
        from repro.obs.export import write_snapshot

        write_snapshot(out, harness.world.metrics,
                       meta={"seed": seed, "clients": 16})


def test_256_pipelined_clients_drain_cleanly():
    """256 closed-loop clients at pipeline depth 8: every op completes,
    none errors, no task is left hanging.  One seed here; CI's
    pipeline-smoke job sets ``SFS_PIPELINE_SEED`` to run each of its
    matrix seeds."""
    seed = int(os.environ.get("SFS_PIPELINE_SEED", "2026"))
    report = run_closed(clients=256, ops_per_client=6, seed=seed,
                        workers=2, service_time=0.001, think_time=0.010,
                        max_depth=None, pipeline_depth=8)
    assert report.op_errors == 0
    assert report.unfinished_tasks == 0
    assert report.ops_completed == 256 * 6


def test_unencrypted_mode_also_runs_concurrently():
    report = run_closed(clients=8, ops_per_client=5, seed=3,
                        encrypt=False, workers=2, service_time=0.0005)
    assert report.ops_completed == 40
    assert report.op_errors == 0


# --- acceptance: tail latency without admission control ------------------

def test_p99_degrades_superlinearly_without_admission_control():
    """Offered load 4× capacity vs well under capacity: closed-loop
    clients pile onto the unbounded queue, so p99 grows faster than the
    client count does."""
    def at(clients):
        return run_closed(clients=clients, ops_per_client=10, seed=7,
                          workers=1, service_time=0.001,
                          think_time=0.010, max_depth=None)

    light, heavy = at(4), at(64)
    assert light.op_errors == 0 and heavy.op_errors == 0
    assert light.admission_rejects == 0 and heavy.admission_rejects == 0
    load_ratio = 64 / 4
    latency_ratio = heavy.p99 / light.p99
    assert latency_ratio > load_ratio, (
        f"p99 grew {latency_ratio:.1f}x for a {load_ratio:.0f}x load "
        f"increase — queueing delay is not compounding"
    )
    # The unbounded queue really was unbounded: depth tracked the
    # client count, far past any sane admission limit.
    assert heavy.max_queue_depth > 32


def test_throughput_saturates_at_service_capacity():
    """Closed-loop throughput cannot exceed workers / service_time."""
    report = run_closed(clients=64, ops_per_client=10, seed=7,
                        workers=1, service_time=0.001,
                        think_time=0.010, max_depth=None)
    capacity = 1 / 0.001
    assert report.throughput <= capacity * 1.05
    assert report.throughput > capacity * 0.5


# --- acceptance: admission control bounds the queue ----------------------

def test_admission_control_rejects_retries_and_bounds_depth():
    report = run_closed(clients=64, ops_per_client=10, seed=7,
                        workers=1, service_time=0.001,
                        think_time=0.010, max_depth=8)
    # Backpressure engaged: rejections happened and were counted...
    assert report.admission_rejects > 0
    # ...each surfaced to a client as SERVER_BUSY and retried through
    # its BackoffPolicy rather than failing the operation...
    assert report.busy_retries > 0
    assert report.op_errors == 0
    assert report.ops_completed == 64 * 10
    # ...and the queue never grew past its configured bound.
    assert report.max_queue_depth <= 8
    assert report.unfinished_tasks == 0


def test_fair_share_policy_serves_all_clients():
    report = run_closed(clients=16, ops_per_client=10, seed=11,
                        workers=1, service_time=0.001,
                        queue_policy="fair", max_depth=16)
    assert report.ops_completed == 160
    assert report.op_errors == 0


# --- composition with the metrics pipeline -------------------------------

def test_histogram_percentiles_track_exact_report_percentiles():
    """The obs histogram's interpolated p95 and the report's exact
    nearest-rank p95 are two estimators over the same latencies; the
    interpolated one must land within the exact value's bucket."""
    from bisect import bisect_left

    config = LoadConfig(clients=16, ops_per_client=10, seed=7,
                        workers=1, service_time=0.001)
    harness = LoadHarness(config)
    report = harness.run_closed_loop()
    histogram = harness.world.metrics.histogram("load.op_seconds")
    assert histogram.count == report.ops_completed
    estimate = histogram.quantile(0.95)
    index = bisect_left(histogram.bounds, report.p95)
    lo = histogram.bounds[index - 1] if index else 0.0
    hi = (histogram.bounds[index] if index < len(histogram.bounds)
          else histogram.bounds[-1])
    assert lo <= estimate <= hi


def test_queue_metrics_are_exported():
    config = LoadConfig(clients=16, ops_per_client=5, seed=7,
                        workers=1, service_time=0.001, max_depth=4)
    harness = LoadHarness(config)
    harness.run_closed_loop()
    metrics = harness.world.metrics
    assert metrics.counter("server.queue.admitted").value > 0
    assert metrics.counter("server.queue.rejected").value > 0
    assert metrics.counter("rpc.busy_replies").value == (
        metrics.counter("server.queue.rejected").value
    )
    assert metrics.counter("client.busy_retries").value > 0
    assert metrics.histogram("server.queue.wait_seconds").count > 0
    assert metrics.counter("sched.tasks_spawned").value > 0


def test_contention_charges_medium_waits():
    config = LoadConfig(clients=16, ops_per_client=10, seed=7,
                        workers=2, service_time=0.0,
                        think_time=0.0005, io_size=32768)
    harness = LoadHarness(config)
    report = harness.run_closed_loop()
    assert report.op_errors == 0
    assert harness.world.metrics.counter("net.medium_waits").value > 0
