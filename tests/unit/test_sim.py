"""Tests for the simulation substrate (repro.sim)."""

import pytest

from tests.helpers import settle
from repro.sim.clock import Clock, Stopwatch
from repro.sim.disk import Disk, DiskParameters
from repro.sim.network import (
    DropAdversary,
    LinkDown,
    NetworkParameters,
    RecordingAdversary,
    ReplayAdversary,
    TamperAdversary,
    link_pair,
)


# --- clock ---------------------------------------------------------------

def test_clock_accumulates():
    clock = Clock()
    clock.advance(0.5)
    clock.advance(0.25)
    assert clock.now == pytest.approx(0.75)
    clock.reset()
    assert clock.now == 0.0


def test_clock_rejects_negative():
    with pytest.raises(ValueError):
        Clock().advance(-1)


def test_stopwatch():
    clock = Clock()
    watch = Stopwatch(clock)
    clock.advance(1.0)
    assert watch.elapsed() == pytest.approx(1.0)
    watch.restart()
    assert watch.elapsed() == 0.0


# --- disk ---------------------------------------------------------------

def test_sequential_reads_cheaper_than_random():
    params = DiskParameters()
    clock_seq = Clock()
    disk_seq = Disk(clock_seq, params)
    disk_seq.read(0, 8192)
    for block in range(1, 20):
        disk_seq.read(block, 8192)

    clock_rand = Clock()
    disk_rand = Disk(clock_rand, params)
    for block in range(0, 200, 10):
        disk_rand.read(block, 8192)
    assert clock_seq.now < clock_rand.now


def test_async_writes_free_sync_writes_cost():
    clock = Clock()
    disk = Disk(clock)
    disk.write(0, 8192, sync=False)
    assert clock.now == 0.0
    disk.write(1, 8192, sync=True)
    assert clock.now > 0.0
    assert disk.writes == 2
    assert disk.syncs == 1


def test_explicit_sync_charges_seek():
    clock = Clock()
    disk = Disk(clock)
    disk.sync(65536)
    assert clock.now > 0.0
    assert disk.syncs == 1


def test_transfer_time_scales_with_size():
    clock = Clock()
    disk = Disk(clock)
    disk.read(0, 8192)
    small = clock.now
    clock2 = Clock()
    disk2 = Disk(clock2)
    disk2.read(0, 8192 * 100)
    assert clock2.now > small


# --- network --------------------------------------------------------------

def test_link_delivers_and_charges():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.lan_100mbit())
    inbox = []
    b.on_receive(inbox.append)
    a.on_receive(lambda data: None)
    a.send(b"hello")
    settle(clock)
    assert inbox == [b"hello"]
    assert clock.now > 0.0
    assert a.link.messages == 1


def test_instant_network_is_free():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    b.on_receive(lambda data: None)
    a.send(b"x" * 10000)
    settle(clock)
    assert clock.now == 0.0


def test_closed_link_raises():
    clock = Clock()
    a, b = link_pair(clock)
    b.on_receive(lambda data: None)
    a.close()
    with pytest.raises(LinkDown):
        a.send(b"data")


def test_missing_handler_raises():
    clock = Clock()
    a, _b = link_pair(clock)
    with pytest.raises(LinkDown):
        a.send(b"data")


def test_tamper_adversary_flips_one_bit():
    clock = Clock()
    adversary = TamperAdversary(target_index=1)
    a, b = link_pair(clock, NetworkParameters.instant(), adversary)
    inbox = []
    b.on_receive(inbox.append)
    a.send(b"\x00\x00")
    a.send(b"\x00\x00")
    a.send(b"\x00\x00")
    settle(clock)
    assert inbox[0] == b"\x00\x00"
    assert inbox[1] != b"\x00\x00"
    assert inbox[2] == b"\x00\x00"
    assert adversary.tampered == 1


def test_tamper_adversary_direction_filter():
    clock = Clock()
    adversary = TamperAdversary(target_index=0, direction="b->a")
    a, b = link_pair(clock, NetworkParameters.instant(), adversary)
    a_in, b_in = [], []
    a.on_receive(a_in.append)
    b.on_receive(b_in.append)
    a.send(b"\x00")          # a->b untouched
    b.send(b"\x00")          # b->a tampered
    settle(clock)
    assert b_in == [b"\x00"]
    assert a_in[0] != b"\x00"


def test_replay_adversary_duplicates():
    clock = Clock()
    adversary = ReplayAdversary(replay_after=1, replay_index=0)
    a, b = link_pair(clock, NetworkParameters.instant(), adversary)
    inbox = []
    b.on_receive(inbox.append)
    a.send(b"one")
    a.send(b"two")
    settle(clock)
    assert inbox == [b"one", b"two", b"one"]
    assert adversary.replayed == 1


def test_drop_adversary():
    clock = Clock()
    adversary = DropAdversary(target_index=0)
    a, b = link_pair(clock, NetworkParameters.instant(), adversary)
    inbox = []
    b.on_receive(inbox.append)
    a.send(b"lost")
    a.send(b"kept")
    settle(clock)
    assert inbox == [b"kept"]
    assert adversary.dropped == 1


def test_recording_adversary_transcript():
    clock = Clock()
    adversary = RecordingAdversary()
    a, b = link_pair(clock, NetworkParameters.instant(), adversary)
    b.on_receive(lambda d: None)
    a.on_receive(lambda d: None)
    a.send(b"request")
    b.send(b"response")
    assert adversary.transcript == [
        ("a->b", b"request"), ("b->a", b"response"),
    ]


def test_random_drop_adversary_is_seeded():
    import random

    from repro.sim.network import RandomDropAdversary

    def run(seed):
        adversary = RandomDropAdversary(rate=0.3, rng=random.Random(seed))
        survived = []
        for index in range(50):
            survived.extend(adversary.process(bytes([index]), "a->b"))
        return survived, adversary.dropped

    first, dropped_first = run(42)
    second, dropped_second = run(42)
    assert first == second  # same seed, same loss pattern
    assert dropped_first == dropped_second > 0
    third, _ = run(43)
    assert third != first


def test_burst_loss_adversary_drops_in_runs():
    import random

    from repro.sim.network import BurstLossAdversary

    adversary = BurstLossAdversary(
        enter_rate=0.2, exit_rate=0.3, rng=random.Random(7)
    )
    for index in range(200):
        adversary.process(bytes([index % 256]), "a->b")
    assert adversary.bursts > 0
    # Gilbert-Elliott: more drops than entries into the bad state means
    # losses arrive in runs, not independently.
    assert adversary.dropped > adversary.bursts


def test_bitflip_adversary_corrupts_without_resizing():
    import random

    from repro.sim.network import BitFlipAdversary

    adversary = BitFlipAdversary(rate=1.0, rng=random.Random(3))
    original = b"payload bytes"
    (result,) = adversary.process(original, "a->b")
    assert len(result) == len(original)
    assert result != original
    assert adversary.corrupted == 1


def test_duplicate_adversary_repeats_record():
    import random

    from repro.sim.network import DuplicateAdversary

    adversary = DuplicateAdversary(rate=1.0, rng=random.Random(5))
    assert adversary.process(b"once", "a->b") == [b"once", b"once"]
    assert adversary.duplicated == 1


def test_chaos_adversary_mixes_faults():
    import random

    from repro.sim.network import ChaosAdversary

    adversary = ChaosAdversary(
        random.Random(9), drop_rate=0.2, corrupt_rate=0.2,
        duplicate_rate=0.2,
    )
    out = 0
    for index in range(300):
        out += len(adversary.process(bytes([index % 256]) * 8, "a->b"))
    assert adversary.dropped > 0
    assert adversary.corrupted > 0
    assert adversary.duplicated > 0
    assert adversary.faults == (
        adversary.dropped + adversary.corrupted + adversary.duplicated
    )
    assert out == 300 - adversary.dropped + adversary.duplicated


# --- timer re-entrancy ---------------------------------------------------

def test_callback_advancing_clock_fires_later_timer_exactly_once():
    """A timer callback that itself advances the clock (a device charge
    inside a restart handler) must not re-enter ``_fire_due``: the
    now-due later timer fires once, from the outer drain loop."""
    clock = Clock()
    fired = []

    def first():
        fired.append("first")
        clock.advance(1.0)          # re-entrant advance crosses t=2

    clock.call_at(1.0, first)
    clock.call_at(2.0, lambda: fired.append("second"))
    clock.advance(1.0)
    assert fired == ["first", "second"]
    assert clock.now == pytest.approx(2.0)


def test_callback_registering_already_due_timer_fires_in_same_drain():
    """A callback that registers a timer whose deadline has already
    passed must see it fire during the same advance, not get dropped."""
    clock = Clock()
    fired = []

    def first():
        fired.append("first")
        clock.call_at(clock.now - 0.5, lambda: fired.append("past-due"))

    clock.call_at(1.0, first)
    clock.advance(2.0)
    assert fired == ["first", "past-due"]


def test_chained_reentrant_callbacks_never_double_fire():
    clock = Clock()
    count = {"n": 0}

    def tick():
        count["n"] += 1
        if count["n"] < 5:
            # Each firing both advances (re-entrantly, a no-op drain)
            # and schedules the next tick at an already-passed instant.
            clock.advance(0.0)
            clock.call_at(clock.now, tick)

    clock.call_at(0.5, tick)
    clock.advance(1.0)
    assert count["n"] == 5


def test_ties_fire_in_registration_order_under_reentrancy():
    clock = Clock()
    fired = []
    clock.call_at(1.0, lambda: (fired.append("a"), clock.advance(0.0)))
    clock.call_at(1.0, lambda: fired.append("b"))
    clock.call_at(1.0, lambda: fired.append("c"))
    clock.advance(1.0)
    assert fired == ["a", "b", "c"]


# --- shared-medium contention --------------------------------------------

def test_medium_occupy_accumulates_queueing_delay():
    from repro.sim.network import Medium

    medium = Medium("nic")
    assert medium.occupy(0.0, 0.010) == pytest.approx(0.0)
    # Second record sent at t=0.002 queues behind the first.
    assert medium.occupy(0.002, 0.010) == pytest.approx(0.008)
    assert medium.busy_until == pytest.approx(0.020)
    # After the medium drains, no wait.
    assert medium.occupy(0.5, 0.010) == pytest.approx(0.0)
    assert medium.busy_until == pytest.approx(0.510)


def test_links_sharing_a_medium_contend_for_bandwidth():
    """Two links into the same server NIC: the second record pays the
    first one's residual transmission time.

    Re-pinned when inline delivery went: the medium is store-and-forward
    (a record arrives after its *own* transmission too), where the
    inline model charged the sender latency only and let transmission
    accrue on the medium unseen (cut-through).  So 0.001 became 0.101
    and 0.101 became 0.201; the 0.1 s of queueing between them is the
    same."""
    from repro.sim.network import Medium, NetworkParameters, link_pair

    clock = Clock()
    params = NetworkParameters(latency=0.001, bandwidth=1000.0,
                               per_message_overhead=0)
    rx = Medium("server:rx")
    seen = []
    a1, b1 = link_pair(clock, params, media={"a->b": rx})
    a2, b2 = link_pair(clock, params, media={"a->b": rx})
    b1.on_receive(lambda data: seen.append(clock.now))
    b2.on_receive(lambda data: seen.append(clock.now))

    a1.send(b"x" * 100)             # tx = 0.1s on the shared medium
    a2.send(b"y" * 100)             # queues behind link 1's record
    settle(clock)
    assert len(seen) == 2
    first_done, second_done = seen
    assert first_done == pytest.approx(0.1 + 0.001)   # tx + latency
    # Second record: 0.1s residual wait for the medium, then its own.
    assert second_done == pytest.approx(first_done + 0.1)


def test_link_without_medium_keeps_original_charge():
    """No medium means the original independent latency +
    serialization charge, bit for bit."""
    from repro.sim.network import NetworkParameters, link_pair

    params = NetworkParameters(latency=0.001, bandwidth=1000.0,
                               per_message_overhead=0)
    plain_clock = Clock()
    a, b = link_pair(plain_clock, params)
    b.on_receive(lambda data: None)
    a.send(b"x" * 100)
    settle(plain_clock)
    assert plain_clock.now == pytest.approx(0.001 + 0.1)


def test_medium_wait_metrics():
    from repro.obs.registry import MetricsRegistry
    from repro.sim.network import Medium, NetworkParameters, link_pair

    clock = Clock()
    registry = MetricsRegistry()
    params = NetworkParameters(latency=0.0, bandwidth=1000.0,
                               per_message_overhead=0)
    rx = Medium("rx")
    a, b = link_pair(clock, params, metrics=registry, media={"a->b": rx})
    b.on_receive(lambda data: None)
    a.send(b"x" * 100)
    a.send(b"y" * 100)
    assert registry.counter("net.medium_waits").value == 1
    snapshot = registry.histogram("net.medium_wait_seconds").snapshot()
    assert snapshot["count"] == 1
    assert snapshot["sum"] == pytest.approx(0.1)
