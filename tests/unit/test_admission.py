"""Tests for server request queueing and admission control."""

import pytest

from repro.core.admission import FAIR_SHARE, FIFO, RequestQueue
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import Clock
from repro.sim.sched import Scheduler, SchedulerStalled, Sleep
from tests.helpers import job


def pump_all(sched):
    """Run until stalled.  The queue's workers are daemons, so they do
    not hold ``Scheduler.run`` open on their own — real deployments
    always have live client tasks; these tests do not."""
    while True:
        try:
            sched.pump_once()
        except SchedulerStalled:
            return


def make(max_depth=4, workers=1, policy=FIFO, service_time=0.0):
    clock = Clock()
    registry = MetricsRegistry()
    sched = Scheduler(clock, seed=0, metrics=registry)
    queue = RequestQueue(clock, max_depth=max_depth, workers=workers,
                         policy=policy, metrics=registry,
                         service_time=service_time)
    return clock, sched, registry, queue


def test_rejects_bad_configuration():
    clock = Clock()
    with pytest.raises(ValueError):
        RequestQueue(clock, policy="lifo")
    with pytest.raises(ValueError):
        RequestQueue(clock, max_depth=0)
    with pytest.raises(ValueError):
        RequestQueue(clock, workers=0)


def test_submit_bounded_by_max_depth():
    _clock, _sched, registry, queue = make(max_depth=2)
    assert queue.submit("c1", job()) is True
    assert queue.submit("c1", job()) is True
    assert queue.submit("c1", job()) is False
    assert queue.depth == 2
    assert queue.peak_depth == 2
    assert registry.counter("server.queue.admitted").value == 2
    assert registry.counter("server.queue.rejected").value == 1
    assert registry.gauge("server.queue.depth").value == 2


def test_workers_drain_fifo_in_arrival_order():
    _clock, sched, _registry, queue = make()
    queue.start(sched, name="q")
    served = []
    for index in range(3):
        queue.submit("c1", job(lambda i=index: served.append(i)))
    pump_all(sched)
    assert served == [0, 1, 2]
    assert queue.depth == 0


def test_fair_share_round_robins_across_connections():
    """An aggressive connection cannot monopolize the workers: service
    alternates across connections no matter the arrival pattern."""
    _clock, sched, _registry, queue = make(max_depth=16, policy=FAIR_SHARE)
    queue.start(sched, name="q")
    served = []
    for index in range(6):                    # greedy client first
        queue.submit("greedy", job(lambda i=index: served.append(("g", i))))
    queue.submit("meek", job(lambda: served.append(("m", 0))))
    queue.submit("meek", job(lambda: served.append(("m", 1))))
    pump_all(sched)
    # Round-robin: g0 m0 g1 m1 g2 g3 g4 g5 — the meek connection's two
    # requests are served 2nd and 4th, not behind all six greedy ones.
    assert served.index(("m", 0)) == 1
    assert served.index(("m", 1)) == 3
    assert [entry for entry in served if entry[0] == "g"] == [
        ("g", i) for i in range(6)
    ]


def test_fifo_makes_the_meek_wait():
    """The contrast case: under FIFO the greedy client's backlog is
    served first."""
    _clock, sched, _registry, queue = make(max_depth=16, policy=FIFO)
    queue.start(sched, name="q")
    served = []
    for index in range(6):
        queue.submit("greedy", job(lambda i=index: served.append(("g", i))))
    queue.submit("meek", job(lambda: served.append(("m", 0))))
    pump_all(sched)
    assert served.index(("m", 0)) == 6


def test_service_time_occupies_workers():
    clock, sched, _registry, queue = make(workers=2, service_time=0.010)
    queue.start(sched, name="q")
    done = []
    for index in range(4):
        queue.submit("c", job(lambda i=index: done.append((i, clock.now))))
    pump_all(sched)
    # 4 requests, 2 workers, 10 ms each: two service waves.
    assert [t for _i, t in done] == pytest.approx([0.01, 0.01, 0.02, 0.02])


def test_wait_histogram_measures_queueing_delay():
    clock, sched, registry, queue = make(workers=1, service_time=0.005)
    queue.start(sched, name="q")
    queue.submit("c", job())
    queue.submit("c", job())
    pump_all(sched)
    snapshot = registry.histogram("server.queue.wait_seconds").snapshot()
    assert snapshot["count"] == 2
    # First request waited 0; second waited one service time.
    assert snapshot["sum"] == pytest.approx(0.005)


def test_worker_survives_failing_jobs():
    _clock, sched, registry, queue = make()
    queue.start(sched, name="q")
    served = []
    queue.submit("c", job(lambda: (_ for _ in ()).throw(RuntimeError("boom"))))
    queue.submit("c", job(lambda: served.append("after")))
    pump_all(sched)
    assert served == ["after"]
    assert registry.counter("server.queue.job_failures").value == 1


def test_workers_wake_for_requests_submitted_later():
    clock, sched, _registry, queue = make()
    queue.start(sched, name="q")
    served = []

    def late_submitter():
        yield Sleep(1.0)
        queue.submit("c", job(lambda: served.append(clock.now)))

    sched.spawn(late_submitter())
    pump_all(sched)
    assert served == pytest.approx([1.0])


def test_clear_drops_waiting_requests():
    _clock, sched, registry, queue = make(max_depth=8)
    queue.start(sched, name="q")
    served = []
    for index in range(3):
        queue.submit("c", job(lambda i=index: served.append(i)))
    assert queue.clear() == 3
    pump_all(sched)
    assert served == []
    assert queue.depth == 0
    assert registry.gauge("server.queue.depth").value == 0
    # The queue still works after a clear (server restart).
    queue.submit("c", job(lambda: served.append("fresh")))
    pump_all(sched)
    assert served == ["fresh"]


def test_fair_share_clear_resets_rotation():
    _clock, sched, _registry, queue = make(max_depth=8, policy=FAIR_SHARE)
    queue.start(sched, name="q")
    queue.submit("a", job())
    queue.submit("b", job())
    queue.clear()
    served = []
    queue.submit("c", job(lambda: served.append("c")))
    pump_all(sched)
    assert served == ["c"]


def test_crash_with_deep_fair_share_queue_leaves_no_stale_state():
    """Regression: a server crash (clear) mid-rotation must drop every
    piece of volatile accounting — per-connection queues, the rotation,
    the depth gauge AND its peak — or a restarted server inherits
    phantom connections and a watermark from its previous life."""
    _clock, sched, registry, queue = make(max_depth=16, policy=FAIR_SHARE)
    for conn in ("a", "b", "c"):
        for index in range(3):
            queue.submit(conn, job())
    # Serve a couple so the rotation is mid-cycle when the crash hits.
    assert queue._pop() is not None
    assert queue._pop() is not None
    assert queue.peak_depth == 9
    assert queue.clear() == 7
    assert queue.depth == 0
    assert queue._per_conn == {}
    assert len(queue._rotation) == 0
    assert queue.peak_depth == 0              # watermark died with the box
    snapshot = registry.gauge("server.queue.depth").snapshot()
    assert snapshot == {"type": "gauge", "value": 0.0, "peak": 0.0}
    # The reborn server serves fresh connections and re-tracks its peak
    # from scratch.
    queue.start(sched, name="q")
    served = []
    queue.submit("d", job(lambda: served.append("d")))
    assert queue.peak_depth == 1
    pump_all(sched)
    assert served == ["d"]


def test_fair_share_drain_drops_empty_connection_queues():
    """Serving a connection dry removes its per-conn entry, so conn_ids
    from long-gone dials do not accumulate on a long-lived server."""
    _clock, sched, _registry, queue = make(max_depth=16, policy=FAIR_SHARE)
    queue.start(sched, name="q")
    queue.submit("a", job())
    queue.submit("a", job())
    queue.submit("b", job())
    pump_all(sched)
    assert queue.depth == 0
    assert queue._per_conn == {}
    assert len(queue._rotation) == 0


def test_set_max_depth_retunes_admission_at_runtime():
    _clock, _sched, registry, queue = make(max_depth=2)
    assert queue.submit("c", job())
    assert queue.submit("c", job())
    assert not queue.submit("c", job())
    # Raise the bound: the very next submit is admitted.
    assert queue.set_max_depth(4) == 4
    assert registry.gauge("server.queue.max_depth").value == 4
    assert queue.submit("c", job())
    # Shrink below the current depth: existing requests stay queued,
    # new ones are rejected until the queue drains under the bound.
    assert queue.set_max_depth(1) == 1
    assert queue.depth == 3
    assert not queue.submit("c", job())
    # Values below 1 clamp (an admission bound of 0 would deadlock).
    assert queue.set_max_depth(0) == 1
    assert queue.set_max_depth(-7) == 1


# -- bind: the peer dispatcher hook -----------------------------------------


class FakeHeader:
    def __init__(self, prog, proc, xid=1):
        self.prog = prog
        self.proc = proc
        self.xid = xid


class FakePeer:
    """Records what bind()'s dispatcher did with each call."""

    def __init__(self):
        self.dispatcher = None
        self.served = []
        self.busied = []

    def serve(self, header, body, request):
        self.served.append((header.prog, header.proc))

    def serve_queued(self, header, body, request):
        self.serve(header, body, request)
        yield from ()

    def send_busy(self, xid):
        self.busied.append(xid)


def test_bind_queues_calls_and_busies_overflow():
    _clock, sched, _registry, queue = make(max_depth=1)
    queue.start(sched)
    peer = FakePeer()
    queue.bind(peer, "conn")
    peer.dispatcher(FakeHeader(100, 1, xid=1), b"", None)
    peer.dispatcher(FakeHeader(100, 2, xid=2), b"", None)   # over depth
    assert peer.served == []                # nothing ran inline
    assert peer.busied == [2]
    pump_all(sched)
    assert peer.served == [(100, 1)]


def test_bind_absorbs_retransmits_of_queued_calls():
    """Regression: a client whose retransmit timer is shorter than the
    queue wait re-sends a call that is still *waiting*.  The peer's
    duplicate-reply cache only covers completed calls, so without the
    dedup set the retransmit would be admitted as a second queue entry
    and executed twice — breaking at-most-once under load."""
    _clock, sched, registry, queue = make(max_depth=4)
    queue.start(sched)
    peer = FakePeer()
    queue.bind(peer, "conn")
    peer.dispatcher(FakeHeader(100, 1, xid=5), b"", None)
    peer.dispatcher(FakeHeader(100, 1, xid=5), b"", None)   # retransmit
    peer.dispatcher(FakeHeader(100, 1, xid=5), b"", None)   # and again
    assert registry.counter(
        "server.queue.retransmits_absorbed").value == 2
    assert peer.busied == []                # absorbed, not rejected
    pump_all(sched)
    assert peer.served == [(100, 1)]        # executed exactly once
    # The dedup slot is per *queued* call: once executed, responsibility
    # passes to the peer's duplicate-reply cache, and a later call
    # reusing the xid (a new connection epoch) queues normally.
    peer.dispatcher(FakeHeader(100, 1, xid=5), b"", None)
    pump_all(sched)
    assert peer.served == [(100, 1), (100, 1)]


def test_clear_also_drops_retransmit_dedup_state():
    _clock, sched, _registry, queue = make(max_depth=4)
    queue.start(sched)
    peer = FakePeer()
    queue.bind(peer, "conn")
    peer.dispatcher(FakeHeader(100, 1, xid=9), b"", None)
    assert queue.clear() == 1
    assert queue._queued_xids == set()
    # A post-restart retransmit of the dropped call is a fresh request.
    peer.dispatcher(FakeHeader(100, 1, xid=9), b"", None)
    pump_all(sched)
    assert peer.served == [(100, 1)]


def test_bind_inline_calls_bypass_the_queue():
    """The REKEY deadlock regression: a channel-state call listed in
    inline_calls must execute during record delivery — even with the
    queue full and every worker wedged — because the worker may itself
    be blocked on the desynchronized client that sent it."""
    _clock, _sched, registry, queue = make(max_depth=1)
    # No workers pumping: the queue is wedged on purpose.
    peer = FakePeer()
    queue.bind(peer, "conn", inline_calls=frozenset({(344440, 3)}))
    assert queue.submit("other", job())      # fill the queue
    peer.dispatcher(FakeHeader(344440, 3, xid=7), b"", None)
    assert peer.served == [(344440, 3)]             # served immediately
    assert peer.busied == []
    assert registry.counter("server.queue.admitted").value == 1
    # A non-listed call still goes through admission (and is rejected).
    peer.dispatcher(FakeHeader(100, 1, xid=8), b"", None)
    assert peer.busied == [8]
