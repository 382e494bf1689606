"""Replica-tier tests: latency-ranked selection, demotion, tamper bans.

All transports are fakes — a "mirror" is a dict of blobs plus a
simulated fetch latency — so these tests pin the *policy*: who gets
selected, who gets sidelined vs banned, and the invariant that a
tampering mirror never gets a wrong byte past the set.
"""

import random

import pytest

from repro.core.backoff import BackoffPolicy
from repro.core.readonly import ReadOnlyError
from repro.crypto.sha1 import sha1
from repro.fleet.replicas import (
    Replica,
    ReplicaMisconductError,
    ReplicaSet,
)
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import Clock
from repro.sim.sched import Sleep
from tests.helpers import run

BLOB = b"the signed namespace blob"
DIGEST = sha1(BLOB)
ROOT = object()  # ReplicaSet passes GETROOT results through untouched


class FakeMirror:
    """A scriptable mirror: latency, payload overrides, dial failures."""

    def __init__(self, clock, latency=0.001, blob=BLOB,
                 dial_errors=0, missing=False):
        self.clock = clock
        self.latency = latency
        self.blob = blob
        self.dial_errors = dial_errors
        self.missing = missing
        self.dials = 0

    def dial(self):
        yield from ()
        self.dials += 1
        if self.dial_errors > 0:
            self.dial_errors -= 1
            raise ConnectionError("mirror down")

        def fetch_root():
            yield Sleep(self.latency)
            return ROOT

        def fetch_data(digest):
            yield Sleep(self.latency)
            if self.missing:
                return None
            return self.blob

        return fetch_root, fetch_data


def make_set(mirrors, seed=7, **kwargs):
    clock = mirrors[0].clock
    replicas = [Replica(name, mirror.dial, clock)
                for name, mirror in mirrors_named(mirrors)]
    metrics = MetricsRegistry(clock=clock)
    replica_set = ReplicaSet(replicas, clock, random.Random(seed),
                             metrics=metrics, **kwargs)
    return replica_set, metrics


def mirrors_named(mirrors):
    return [(f"m{index}", mirror) for index, mirror in enumerate(mirrors)]


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        ReplicaSet([], Clock(), random.Random(1))


def test_selection_prefers_measured_latency():
    clock = Clock()
    fast = FakeMirror(clock, latency=0.001)
    slow = FakeMirror(clock, latency=0.100)
    replica_set, _ = make_set([fast, slow])
    # Unprobed replicas rank first, so both get measured once.
    for _ in range(2):
        assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert fast.dials == 1 and slow.dials == 1
    # From here on the fast mirror wins every selection.
    chosen = replica_set.select()
    assert chosen.name == "m0"
    before = fast.dials
    for _ in range(5):
        assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert fast.dials == before  # same connection, same mirror
    assert slow.dials == 1


def test_tampering_mirror_banned_never_a_wrong_byte():
    clock = Clock()
    evil = FakeMirror(clock, latency=0.001,
                      blob=bytes([BLOB[0] ^ 1]) + BLOB[1:])
    honest = FakeMirror(clock, latency=0.050)
    replica_set, metrics = make_set([evil, honest])
    # m0 (evil) is probed first and answers fastest — and is banned the
    # moment its blob fails the digest check, without the caller ever
    # seeing the corrupt bytes.
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    stats = {entry["name"]: entry for entry in replica_set.stats()}
    assert stats["m0"]["banned"] and not stats["m1"]["banned"]
    assert metrics.counter("fleet.replica.corrupt_blobs").value == 1
    assert metrics.counter("fleet.replica.bans").value == 1
    assert metrics.counter("fleet.replica.failovers").value == 1
    # A ban is permanent: time does not rehabilitate a tamperer.
    clock.advance(3600.0)
    assert not replica_set.replicas[0].usable()
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert evil.dials == 1


def test_missing_blob_sidelines_not_bans():
    clock = Clock()
    stale = FakeMirror(clock, latency=0.001, missing=True)
    full = FakeMirror(clock, latency=0.050)
    replica_set, metrics = make_set([stale, full])
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    stats = {entry["name"]: entry for entry in replica_set.stats()}
    assert not stats["m0"]["banned"]  # stale, not malicious
    assert not stats["m0"]["usable"]  # but in cooldown right now
    assert metrics.counter("fleet.replica.demotions").value == 1
    assert metrics.counter("fleet.replica.bans").value == 0
    clock.advance(2.0)  # cooldown elapses
    assert replica_set.replicas[0].usable()


def test_dead_mirror_waits_out_cooldown_under_backoff():
    clock = Clock()
    flaky = FakeMirror(clock, latency=0.001, dial_errors=1)
    replica_set, metrics = make_set([flaky])
    # The only replica fails to dial, gets sidelined, and the set backs
    # off (advancing the clock) until the cooldown expires — then the
    # redial succeeds and the fetch completes.
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert flaky.dials == 2
    assert metrics.counter("fleet.replica.backoff_waits").value > 0
    assert clock.now >= 1.0  # waited at least the cooldown


def test_all_mirrors_banned_is_an_error_not_garbage():
    clock = Clock()
    evil = FakeMirror(clock, blob=b"x" * len(BLOB))
    replica_set, metrics = make_set([evil])
    with pytest.raises(ReadOnlyError):
        run(replica_set.fetch_data(DIGEST), clock)
    assert metrics.counter("fleet.replica.corrupt_blobs").value == 1
    # Still dead after any amount of time: bans are permanent.
    clock.advance(3600.0)
    with pytest.raises(ReadOnlyError):
        run(replica_set.fetch_data(DIGEST), clock)


def test_misconduct_on_dial_is_banned():
    clock = Clock()
    honest = FakeMirror(clock, latency=0.050)

    def impostor_dial():
        raise ReplicaMisconductError("key does not hash to HostID")

    replicas = [Replica("m0", impostor_dial, clock),
                Replica("m1", honest.dial, clock)]
    metrics = MetricsRegistry(clock=clock)
    replica_set = ReplicaSet(replicas, clock, random.Random(3),
                             metrics=metrics)
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert replicas[0].banned
    assert metrics.counter("fleet.replica.bans").value == 1


def test_fetch_root_fails_over_past_dead_mirror():
    clock = Clock()
    dead = FakeMirror(clock, latency=0.001, dial_errors=99)
    alive = FakeMirror(clock, latency=0.050)
    replica_set, metrics = make_set([dead, alive])
    assert run(replica_set.fetch_root(), clock) is ROOT
    assert metrics.counter("fleet.replica.failovers").value == 1
    assert metrics.counter("fleet.replica.fetches").value == 1


def test_cooldown_expiry_reprobes_a_sidelined_mirror():
    clock = Clock()
    flaky = FakeMirror(clock, latency=0.001, dial_errors=1)
    steady = FakeMirror(clock, latency=0.050)
    replica_set, _metrics = make_set([flaky, steady])
    # m0 is probed first, fails its dial, and is sidelined; the fetch
    # fails over to m1.
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert flaky.dials == 1
    assert not replica_set.replicas[0].usable()
    # Inside the cooldown the set leaves the sidelined mirror alone.
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert flaky.dials == 1
    # Cooldown elapses: the mirror is re-probed with a *fresh* dial —
    # and, being fast, wins the ranking back.
    clock.advance(1.5)
    assert replica_set.replicas[0].usable()
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert flaky.dials == 2
    assert replica_set.select().name == "m0"


def test_ewma_reranks_when_the_fast_mirror_degrades():
    clock = Clock()
    fickle = FakeMirror(clock, latency=0.001)
    steady = FakeMirror(clock, latency=0.050)
    replica_set, _ = make_set([fickle, steady])
    for _ in range(2):                        # probe both once
        assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert replica_set.select().name == "m0"
    # The fast mirror turns slow; its EWMA absorbs the new latency and
    # selection flips to the mirror whose old measurement now wins.
    fickle.latency = 0.500
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert replica_set.select().name == "m1"
    # ...and recovery is symmetric: once it is fast again, fetches it
    # does serve (none right now) would pull its EWMA back down.  The
    # demoted rank persists until re-measured — ranking uses memory,
    # not wishes.
    fickle.latency = 0.001
    assert replica_set.select().name == "m1"


def test_steering_bias_flips_selection_between_healthy_mirrors():
    clock = Clock()
    fast = FakeMirror(clock, latency=0.001)
    slow = FakeMirror(clock, latency=0.050)
    replica_set, metrics = make_set([fast, slow])
    for _ in range(2):
        assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert replica_set.select().name == "m0"
    # Bias the fast mirror away (control plane saw its shard breaching).
    replica_set.set_steering_bias("m0", 1.0)
    assert replica_set.select().name == "m1"
    assert metrics.counter("fleet.replica.steering_updates").value == 1
    # Same bias again is a no-op, not another update.
    replica_set.set_steering_bias("m0", 1.0)
    assert metrics.counter("fleet.replica.steering_updates").value == 1
    replica_set.clear_steering()
    assert replica_set.select().name == "m0"
    with pytest.raises(KeyError):
        replica_set.set_steering_bias("nonesuch", 0.5)


def test_steering_bias_composes_with_permanent_ban():
    clock = Clock()
    evil = FakeMirror(clock, latency=0.001,
                      blob=bytes([BLOB[0] ^ 1]) + BLOB[1:])
    honest = FakeMirror(clock, latency=0.050)
    replica_set, _ = make_set([evil, honest])
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB   # bans m0
    assert replica_set.replicas[0].banned
    # No amount of bias in the banned mirror's favor (or against the
    # honest one) re-admits it: bias tunes ranking among usable
    # replicas, it never overrides the health machinery.
    replica_set.set_steering_bias("m1", 100.0)
    assert replica_set.select().name == "m1"
    assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
    assert evil.dials == 1                    # never dialed again


def test_backoff_policy_is_shared_and_jittered():
    """Two sets with different seeds do not advance in lockstep while
    waiting out the same outage — the thundering-herd satellite, seen
    from the replica tier."""
    waits = []
    for seed in (1, 2):
        clock = Clock()
        down = FakeMirror(clock, dial_errors=2)
        replicas = [Replica("m0", down.dial, clock)]
        replica_set = ReplicaSet(
            replicas, clock, random.Random(seed),
            backoff=BackoffPolicy(),  # jittered by default
        )
        assert run(replica_set.fetch_data(DIGEST), clock) == BLOB
        waits.append(clock.now)
    assert waits[0] != waits[1]
