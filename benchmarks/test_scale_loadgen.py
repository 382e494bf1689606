"""Scale benchmark: closed-loop load from 1 to 64 concurrent clients.

Not a figure from the paper — the paper measured one client against one
server — but the natural scale-out question its architecture raises:
what happens to an SFS server (user-level crypto relay and all) as
concurrent clients multiply?  Each level runs N closed-loop clients
(think time → call → repeat) against one queued server with a fixed
worker pool, and reports throughput plus p50/p95/p99 operation latency
in simulated time.  Everything is deterministic per seed.

The shape asserted: throughput grows with N until it saturates at the
server's service capacity, after which tail latency compounds —
queueing delay, not service time, dominates p99.
"""

from __future__ import annotations

import pytest

from repro.bench.timing import format_table
from repro.load import LoadConfig, LoadHarness

from conftest import emit_table

LEVELS = [1, 4, 16, 64]
_SEED = 2026
_OPS = 20

_results: dict[int, object] = {}


def run_level(clients: int):
    config = LoadConfig(
        clients=clients, ops_per_client=_OPS, seed=_SEED,
        workers=2, service_time=0.001, think_time=0.010,
        max_depth=None,           # measure raw queueing, not backpressure
    )
    return LoadHarness(config).run_closed_loop()


@pytest.mark.parametrize("clients", LEVELS)
def test_scale_level(clients, benchmark):
    report = benchmark.pedantic(
        lambda: run_level(clients), rounds=1, iterations=1
    )
    assert report.op_errors == 0
    assert report.unfinished_tasks == 0
    assert report.ops_completed == clients * _OPS
    _results[clients] = report


def test_scale_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(_results) == set(LEVELS)
    rows = [
        (
            str(n),
            _results[n].throughput,
            _results[n].p50 * 1000,
            _results[n].p95 * 1000,
            _results[n].p99 * 1000,
            str(_results[n].max_queue_depth),
        )
        for n in LEVELS
    ]
    table = format_table(
        f"Scale: closed-loop clients vs one queued SFS server "
        f"(2 workers x 1 ms service, {_OPS} ops/client, seed {_SEED})",
        ["Clients", "ops/s", "p50 ms", "p95 ms", "p99 ms", "peak queue"],
        rows,
    )
    emit_table("scale_loadgen", table, capsys)

    # Throughput scales while the server has headroom...
    assert _results[4].throughput > 2.0 * _results[1].throughput
    # ...then saturates at service capacity (2 workers / 1 ms = 2000/s).
    assert _results[64].throughput <= 2000 * 1.05
    # Across saturation, tail latency compounds super-linearly: p99
    # grows faster than the client count does.  (Re-pinned from 4 -> 64
    # to 16 -> 64, the step that crosses the knee: from 4 to 16 the
    # server has headroom and latency is flat, and the old 24x over
    # 4 -> 64 owed half of itself to inline delivery queueing every
    # client's wire time on the one global clock.  16 -> 64 was 7.9x
    # then and is 8.3x now.)
    assert (_results[64].p99 / _results[16].p99) > (64 / 16)
    # Determinism: the same seed reproduces the same report exactly.
    again = run_level(16)
    assert again.latencies == _results[16].latencies
    assert again.throughput == _results[16].throughput
