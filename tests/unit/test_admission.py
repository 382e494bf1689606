"""Tests for server request queueing and admission control."""

import pytest

from repro.core.admission import FAIR_SHARE, FIFO, RequestQueue
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import Clock
from repro.sim.sched import Future, Scheduler, SchedulerStalled, Sleep
from tests.helpers import job


def pump_all(sched):
    """Run until stalled: fire every timer (service times, sleeps) and
    step every task the test left pending."""
    while True:
        try:
            sched.pump_once()
        except SchedulerStalled:
            return


def held(gate, action=None):
    """An ``execute`` whose call holds its slot until *gate* resolves,
    then runs *action* (if any) — how a test keeps the slots busy so
    that the calls it submits next wait in the queue."""
    def execute():
        yield gate
        if action is not None:
            action()
    return execute


def occupy(queue, conn_id="hog"):
    """Fill every slot of *queue* with a held call; returns the gate
    that releases them all."""
    gate = Future("gate")
    for _ in range(queue.workers):
        assert queue.submit(conn_id, held(gate))
    assert queue.depth == 0
    return gate


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


def test_configure_retunes_in_place_only_while_idle():
    _clock, sched, registry, queue = make(max_depth=4, workers=1)
    gate = occupy(queue)
    with pytest.raises(RuntimeError):           # a call in service
        queue.configure(workers=2)
    assert queue.submit("c", job())
    with pytest.raises(RuntimeError):           # and one waiting
        queue.configure(workers=2)
    assert queue.workers == 1
    gate.resolve(None)
    pump_all(sched)
    assert queue.busy == 0 and queue.depth == 0
    with pytest.raises(ValueError):             # the constructor's checks
        queue.configure(max_depth=0)
    queue.configure(max_depth=8, workers=3, policy=FAIR_SHARE,
                    service_time=0.5)
    assert (queue.max_depth, queue.workers, queue.policy,
            queue.service_time) == (8, 3, FAIR_SHARE, 0.5)
    assert registry.gauge("server.queue.max_depth").value == 8


def test_submit_bounded_by_max_depth():
    _clock, _sched, registry, queue = make(max_depth=2)
    occupy(queue)
    assert queue.submit("c1", job()) is True
    assert queue.submit("c1", job()) is True
    assert queue.submit("c1", job()) is False
    assert queue.depth == 2
    assert queue.peak_depth == 2
    # The call in service was admitted too; max_depth bounds the two
    # that wait.
    assert registry.counter("server.queue.admitted").value == 3
    assert registry.counter("server.queue.rejected").value == 1
    assert registry.gauge("server.queue.depth").value == 2


def test_workers_drain_fifo_in_arrival_order():
    _clock, sched, _registry, queue = make()
    gate = occupy(queue)
    served = []
    for index in range(3):
        queue.submit("c1", job(lambda i=index: served.append(i)))
    assert served == []
    gate.resolve(None)
    pump_all(sched)
    assert served == [0, 1, 2]
    assert queue.depth == 0


def test_fair_share_round_robins_across_connections():
    """An aggressive connection cannot monopolize the workers: service
    alternates across connections no matter the arrival pattern."""
    _clock, sched, _registry, queue = make(max_depth=16, policy=FAIR_SHARE)
    gate = occupy(queue)
    served = []
    for index in range(6):                    # greedy client first
        queue.submit("greedy", job(lambda i=index: served.append(("g", i))))
    queue.submit("meek", job(lambda: served.append(("m", 0))))
    queue.submit("meek", job(lambda: served.append(("m", 1))))
    gate.resolve(None)
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
    gate = occupy(queue)
    served = []
    for index in range(6):
        queue.submit("greedy", job(lambda i=index: served.append(("g", i))))
    queue.submit("meek", job(lambda: served.append(("m", 0))))
    gate.resolve(None)
    pump_all(sched)
    assert served.index(("m", 0)) == 6


def test_service_time_occupies_workers():
    clock, sched, _registry, queue = make(workers=2, service_time=0.010)
    done = []
    for index in range(4):
        queue.submit("c", job(lambda i=index: done.append((i, clock.now))))
    pump_all(sched)
    # 4 requests, 2 workers, 10 ms each: two service waves.
    assert [t for _i, t in done] == pytest.approx([0.01, 0.01, 0.02, 0.02])


def test_wait_histogram_measures_queueing_delay():
    clock, sched, registry, queue = make(workers=1, service_time=0.005)
    queue.submit("c", job())
    queue.submit("c", job())
    pump_all(sched)
    snapshot = registry.histogram("server.queue.wait_seconds").snapshot()
    assert snapshot["count"] == 2
    # First request waited 0; second waited one service time.
    assert snapshot["sum"] == pytest.approx(0.005)


def test_worker_survives_failing_jobs():
    """A slot whose call fails still hands itself to the next call."""
    _clock, sched, registry, queue = make()
    gate = Future("gate")
    served = []
    queue.submit("c", held(gate, lambda: (_ for _ in ()).throw(
        RuntimeError("boom"))))
    queue.submit("c", job(lambda: served.append("after")))
    gate.resolve(None)
    pump_all(sched)
    assert served == ["after"]
    assert registry.counter("server.queue.job_failures").value == 1


def test_workers_wake_for_requests_submitted_later():
    clock, sched, _registry, queue = make()
    served = []

    def late_submitter():
        yield Sleep(1.0)
        queue.submit("c", job(lambda: served.append(clock.now)))

    sched.spawn(late_submitter())
    pump_all(sched)
    assert served == pytest.approx([1.0])


def test_clear_drops_waiting_requests():
    _clock, sched, registry, queue = make(max_depth=8)
    occupy(queue)
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
    occupy(queue)
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
    occupy(queue)
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
    gate = occupy(queue)
    served = []
    queue.submit("d", job(lambda: served.append("d")))
    assert queue.peak_depth == 1
    gate.resolve(None)
    pump_all(sched)
    assert served == ["d"]


def test_fair_share_drain_drops_empty_connection_queues():
    """Serving a connection dry removes its per-conn entry, so conn_ids
    from long-gone dials do not accumulate on a long-lived server."""
    _clock, sched, _registry, queue = make(max_depth=16, policy=FAIR_SHARE)
    gate = occupy(queue)
    queue.submit("a", job())
    queue.submit("a", job())
    queue.submit("b", job())
    assert queue.depth == 3
    gate.resolve(None)
    pump_all(sched)
    assert queue.depth == 0
    assert queue._per_conn == {}
    assert len(queue._rotation) == 0


def test_set_max_depth_retunes_admission_at_runtime():
    _clock, _sched, registry, queue = make(max_depth=2)
    occupy(queue)
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
    gate = occupy(queue)
    peer = FakePeer()
    queue.bind(peer, "conn")
    peer.dispatcher(FakeHeader(100, 1, xid=1), b"", None)
    peer.dispatcher(FakeHeader(100, 2, xid=2), b"", None)   # over depth
    assert peer.served == []                # nothing ran inline
    assert peer.busied == [2]
    gate.resolve(None)
    pump_all(sched)
    assert peer.served == [(100, 1)]


def test_bind_absorbs_retransmits_of_queued_calls():
    """Regression: a client whose retransmit timer is shorter than the
    queue wait re-sends a call that is still *waiting*.  The peer's
    duplicate-reply cache only covers completed calls, so without the
    dedup set the retransmit would be admitted as a second queue entry
    and executed twice — breaking at-most-once under load."""
    _clock, sched, registry, queue = make(max_depth=4)
    gate = occupy(queue)
    peer = FakePeer()
    queue.bind(peer, "conn")
    peer.dispatcher(FakeHeader(100, 1, xid=5), b"", None)
    peer.dispatcher(FakeHeader(100, 1, xid=5), b"", None)   # retransmit
    peer.dispatcher(FakeHeader(100, 1, xid=5), b"", None)   # and again
    assert registry.counter(
        "server.queue.retransmits_absorbed").value == 2
    assert peer.busied == []                # absorbed, not rejected
    gate.resolve(None)
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
    occupy(queue)
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
    queue full and every slot wedged — because the slot's call may
    itself be blocked on the desynchronized client that sent it."""
    _clock, _sched, registry, queue = make(max_depth=1)
    occupy(queue)                            # the slot is wedged on purpose
    peer = FakePeer()
    queue.bind(peer, "conn", inline_calls=frozenset({(344440, 3)}))
    assert queue.submit("other", job())      # fill the queue
    peer.dispatcher(FakeHeader(344440, 3, xid=7), b"", None)
    assert peer.served == [(344440, 3)]             # served immediately
    assert peer.busied == []
    # The wedged call and the waiting one; the REKEY took no admission.
    assert registry.counter("server.queue.admitted").value == 2
    # A non-listed call still goes through admission (and is rejected).
    peer.dispatcher(FakeHeader(100, 1, xid=8), b"", None)
    assert peer.busied == [8]


# -- the slot rule ------------------------------------------------------------


def test_a_call_that_finds_a_free_slot_starts_in_its_own_delivery():
    """No queue hop: the call runs inside the dispatch that delivered it,
    at the same virtual instant, and never counts as waiting."""
    clock, _sched, registry, queue = make(workers=2)
    peer = FakePeer()
    queue.bind(peer, "conn")
    peer.dispatcher(FakeHeader(100, 1, xid=1), b"", None)
    assert peer.served == [(100, 1)]        # before dispatch returned
    assert clock.now == 0.0
    assert queue.busy == 0                  # done, slot given back
    assert queue.peak_depth == 0
    assert registry.gauge("server.queue.depth").snapshot()["peak"] == 0.0
    wait = registry.histogram("server.queue.wait_seconds").snapshot()
    assert (wait["count"], wait["sum"]) == (1, 0.0)


@pytest.mark.parametrize("policy, order", [
    (FIFO, ["a0", "a1", "b0"]),
    (FAIR_SHARE, ["a0", "b0", "a1"]),
])
def test_a_finished_call_hands_its_slot_to_the_next_by_policy(policy,
                                                                order):
    """The slot passes on inside the finishing call's own step, at its
    instant, to the call the policy picks; it frees only when none
    waits."""
    clock, sched, _registry, queue = make(max_depth=8, policy=policy)
    gate = Future("gate")
    served = []
    queue.submit("hog", held(gate))
    for name in ("a0", "a1", "b0"):
        queue.submit(name[0], job(lambda n=name: served.append(
            (n, clock.now))))
    assert served == [] and queue.busy == 1 and queue.depth == 3
    sched.timer(0.25).add_done_callback(lambda _f: gate.resolve(None))
    pump_all(sched)
    assert served == [(name, 0.25) for name in order]
    assert queue.busy == 0 and queue.depth == 0


def test_service_time_is_charged_once_per_call():
    """The service sleep opens each call's turn in its slot, once: not
    again when the handler waits on a hop of its own, nor when the slot
    passes to the next call."""
    clock, sched, _registry, queue = make(service_time=0.010)
    done = []

    def relaying():
        yield Sleep(0.005)                  # the handler's own hop
        done.append(("relay", clock.now))

    queue.submit("c", relaying)
    queue.submit("c", job(lambda: done.append(("next", clock.now))))
    pump_all(sched)
    assert done == [("relay", pytest.approx(0.015)),
                    ("next", pytest.approx(0.025))]


def test_crash_frees_every_slot_and_old_calls_release_none():
    """After clear() with calls in service and waiting, all ``workers``
    slots are free and the next call starts at once.  A call that was in
    service across the crash and finishes after the restart gives back
    no slot: a third new call still waits."""
    _clock, sched, _registry, queue = make(workers=2, max_depth=4)
    old = occupy(queue)
    served = []
    queue.submit("c", job(lambda: served.append("dropped")))
    assert queue.depth == 1
    assert queue.clear() == 1
    assert queue.busy == 0 and queue.depth == 0
    fresh = Future("fresh")
    queue.submit("d", held(fresh, lambda: served.append("d0")))
    queue.submit("d", held(fresh, lambda: served.append("d1")))
    assert queue.busy == 2 and queue.depth == 0   # both started at once
    old.resolve(None)                       # pre-crash calls finish now
    assert queue.busy == 2
    queue.submit("d", job(lambda: served.append("d2")))
    assert queue.depth == 1 and served == []
    fresh.resolve(None)
    pump_all(sched)
    # d0's slot passes to d2 inside d0's own step, before d1 resumes.
    assert served == ["d0", "d2", "d1"]
    assert queue.busy == 0


def test_rekey_bypasses_full_slots_and_queue_and_takes_neither():
    _clock, _sched, registry, queue = make(workers=2, max_depth=1)
    occupy(queue)
    assert queue.submit("other", job())
    peer = FakePeer()
    queue.bind(peer, "conn", inline_calls=frozenset({(344440, 3)}))
    peer.dispatcher(FakeHeader(344440, 3, xid=7), b"", None)
    assert peer.served == [(344440, 3)]
    assert (queue.busy, queue.depth) == (2, 1)
    assert registry.counter("server.queue.admitted").value == 3
    peer.dispatcher(FakeHeader(100, 1, xid=8), b"", None)
    assert peer.busied == [8]
