"""Ablation: the cost of SFS's cryptography.

Two design choices the paper calls out:

* the secure channel's ARC4 + re-keyed SHA-1 MAC (section 3.1.3) — we
  measure raw channel goodput with encryption on and off;
* eksblowfish password hardening (section 2.5.2): "Eksblowfish takes a
  cost parameter that one can increase as computers get faster" — we
  measure the exponential scaling that makes off-line guessing expensive.
"""

from __future__ import annotations

import time

import pytest

from repro.core.channel import SecureChannel
from repro.crypto.eksblowfish import bcrypt_raw
from repro.sim.clock import Clock
from repro.sim.network import NetworkParameters, link_pair
from repro.bench.timing import format_table

from conftest import emit_table

_RECORD = bytes(8192)
_N_RECORDS = 128

_results: dict[str, float] = {}


def _channel_goodput(encrypt: bool) -> float:
    """MB/s through a SecureChannel pair over an instant link."""
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    received = []
    sender = SecureChannel(a, send_key=b"k" * 20, recv_key=b"r" * 20,
                           encrypt=encrypt)
    receiver = SecureChannel(b, send_key=b"r" * 20, recv_key=b"k" * 20,
                             encrypt=encrypt)
    receiver.on_receive(received.append)
    sender.on_receive(lambda data: None)
    start = time.perf_counter()
    for _ in range(_N_RECORDS):
        sender.send(_RECORD)
    clock.advance(0.0)  # arrivals (the receiver's crypto) run from the clock
    elapsed = time.perf_counter() - start
    assert len(received) == _N_RECORDS
    return (_N_RECORDS * len(_RECORD) / (1 << 20)) / elapsed


@pytest.mark.parametrize("encrypt", [True, False], ids=["arc4+mac", "plain"])
def test_channel_goodput(encrypt, benchmark):
    rate = benchmark.pedantic(
        lambda: _channel_goodput(encrypt), rounds=1, iterations=1
    )
    _results["enc" if encrypt else "plain"] = rate


def test_channel_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = format_table(
        "Ablation: secure channel goodput",
        ["Channel", "MB/s"],
        [("ARC4 + MAC", _results["enc"]), ("plaintext", _results["plain"])],
    )
    emit_table("ablation_channel", table, capsys)
    assert _results["plain"] > 2 * _results["enc"]


def test_eksblowfish_cost_scaling(benchmark, capsys):
    """Doubling the cost parameter roughly doubles hashing time."""
    timings: list[tuple[int, float]] = []

    def run() -> None:
        for cost in (2, 4, 6):
            start = time.perf_counter()
            bcrypt_raw(b"hunter2\x00", b"0123456789abcdef", cost)
            timings.append((cost, time.perf_counter() - start))

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        "Ablation: eksblowfish cost scaling (paper section 2.5.2)",
        ["cost (2^c expansions)", "seconds"],
        [(str(c), t) for c, t in timings],
    )
    emit_table("ablation_eksblowfish", table, capsys)
    by_cost = dict(timings)
    # cost+2 => 4x the expansions; allow slack for constant overhead.
    assert by_cost[4] > 2.0 * by_cost[2]
    assert by_cost[6] > 2.0 * by_cost[4]
