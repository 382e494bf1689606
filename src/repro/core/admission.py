"""Server-side request queueing and admission control.

Every SFS server master serves its inbound calls through one of these
queues, from construction until the machine is gone (PROTOCOLS.md §12):

* ``workers`` **busy slots** bound concurrent service.  A call that
  finds a slot free runs at once, in the record delivery that brought
  it (per RPC peer's ``dispatcher`` hook), optionally after a fixed
  service time; it holds its slot until its handler returns, waits on
  a hop of its own included.  A server's queue starts with no slot
  limit (``workers=math.inf``), so until :meth:`RequestQueue.configure`
  says otherwise every call starts the instant it arrives;
* a call that finds every slot busy **waits** in a bounded queue, and a
  finishing call hands its slot to the next waiting one;
* when the queue is full, admission control **rejects** the call with a
  ``SERVER_BUSY`` reply — backpressure the client's
  :class:`~repro.core.backoff.BackoffPolicy` turns into a delayed retry.

No task runs here: a slot is the call's own generator, stepped from the
futures it yields like any served call (:class:`repro.rpc.peer.Runner`).

Two scheduling policies pick which waiting call gets a freed slot:

``fifo``
    One global arrival-order queue.  Simple, but a single aggressive
    client can monopolize the slots.
``fair``
    Per-connection queues drained round-robin, so each connection gets
    an equal share of service capacity regardless of its arrival rate.

Metrics (see docs/OBSERVABILITY.md): ``server.queue.depth`` gauge
(calls waiting for a slot), ``server.queue.admitted`` /
``server.queue.rejected`` / ``server.queue.job_failures`` counters,
``server.queue.wait_seconds`` histogram of time spent waiting before
service.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Iterator

from ..obs.registry import NULL_REGISTRY, Gauge
from ..rpc.peer import Runner
from ..sim.clock import Clock
from ..sim.sched import Sleep

FIFO = "fifo"
FAIR_SHARE = "fair"


#: A waiting call: ``(execute, enqueued_at)``.
Waiting = tuple[Callable[[], Iterator], float]


class RequestQueue:
    """``workers`` busy slots with a bounded queue and admission control.

    ``max_depth`` bounds *waiting* requests (a call in service holds a
    slot, not a queue place); ``workers`` bounds concurrent service
    (``math.inf``: no call ever waits); ``service_time`` is the
    simulated seconds each request occupies its slot before its handler
    runs (0 = slots are infinitely fast and only the queue's ordering
    matters).
    """

    def __init__(
        self,
        clock: Clock,
        max_depth: int = 32,
        workers: float = 4,
        policy: str = FIFO,
        metrics=None,
        service_time: float = 0.0,
    ) -> None:
        self._clock = clock
        #: Steps each slot from the futures and sleeps it yields.
        self._runner = Runner(clock)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: Calls waiting for a slot, and slots in service.  A slot is
        #: free only while nothing waits.
        self.depth = 0
        self.busy = 0
        self._fifo: deque[Waiting] = deque()
        #: fair-share state: per-connection queues + round-robin order.
        self._per_conn: dict[object, deque[Waiting]] = {}
        self._rotation: deque[object] = deque()
        #: (conn_id, xid) pairs admitted but not yet executed — the
        #: window the peer's duplicate-reply cache cannot cover.
        self._queued_xids: set[tuple[object, int]] = set()
        #: Bumped by :meth:`clear`; a slot that was in service across a
        #: crash finds its call belongs to a machine that no longer
        #: exists, and gives back no slot.
        self._boots = 0
        self._g_depth = self.metrics.gauge("server.queue.depth",
                                           track_peak=True)
        #: Private watermark: the registry gauge can be shared by every
        #: queue in a World (same dotted name), so its peak is the
        #: *world-wide* depth watermark; this one is exactly this
        #: queue's, whatever registry (even a disabled one) is in use.
        self._watermark = Gauge("server.queue.depth#local", track_peak=True)
        #: This queue's busy-rejects, for the same reason.
        self.rejected = 0
        self._g_max_depth = self.metrics.gauge("server.queue.max_depth")
        self._m_admitted = self.metrics.counter("server.queue.admitted")
        self._m_rejected = self.metrics.counter("server.queue.rejected")
        self._m_absorbed = self.metrics.counter(
            "server.queue.retransmits_absorbed")
        self._m_failures = self.metrics.counter("server.queue.job_failures")
        self._m_wait = self.metrics.histogram("server.queue.wait_seconds")
        self.configure(max_depth, workers, policy, service_time)

    def configure(self, max_depth: int = 32, workers: float = 4,
                  policy: str = FIFO, service_time: float = 0.0) -> None:
        """Set the queue's four parameters in place.

        The queue, its instruments and the connections bound to it stay
        as they are; only what the next call finds changes.  Raises
        unless the queue is idle (no call in service or waiting), so no
        admitted call ever sees two configurations.
        """
        if self.busy or self.depth:
            raise RuntimeError(
                f"configure() on a busy queue ({self.busy} in service, "
                f"{self.depth} waiting)")
        if policy not in (FIFO, FAIR_SHARE):
            raise ValueError(f"unknown queue policy {policy!r}")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if workers < 1:
            raise ValueError("need at least one worker")
        self.max_depth = max_depth
        self.workers = workers
        self.policy = policy
        self.service_time = service_time
        self._g_max_depth.set(max_depth)

    @property
    def peak_depth(self) -> int:
        """High-water mark of :attr:`depth` — the depth gauge's peak."""
        return int(self._watermark.peak)

    def reset_peak(self) -> None:
        """Restart :attr:`peak_depth` from the current depth (a load run
        reporting its own peak); the registry gauge keeps its own."""
        self._watermark.reset_peak()

    def _set_depth(self, depth: int) -> None:
        self._g_depth.set(depth)
        self._watermark.set(depth)

    # -- admission ---------------------------------------------------------

    def submit(self, conn_id: object, execute: Callable[[], Iterator]) -> bool:
        """Admit a request, or return False (caller sends SERVER_BUSY).

        A slot serves it by ``yield from execute()``.  With a slot free
        it starts before this returns and runs to its first wait;
        otherwise it waits for a finishing call to hand it one."""
        if self.busy < self.workers:
            self.busy += 1
            self._m_admitted.inc()
            self._runner.step(self._slot(execute, self._clock.now))
            return True
        if self.depth >= self.max_depth:
            self.rejected += 1
            self._m_rejected.inc()
            return False
        request = (execute, self._clock.now)
        if self.policy == FAIR_SHARE:
            queue = self._per_conn.get(conn_id)
            if queue is None:
                queue = self._per_conn[conn_id] = deque()
            if not queue:
                self._rotation.append(conn_id)
            queue.append(request)
        else:
            self._fifo.append(request)
        self.depth += 1
        self._set_depth(self.depth)  # the gauges track the peak too
        self._m_admitted.inc()
        return True

    def bind(self, peer, conn_id: object,
             inline_calls: frozenset = frozenset()) -> None:
        """Route *peer*'s inbound calls through this queue.

        Installs the peer's ``dispatcher`` hook: an admitted call runs
        in a slot via ``serve_queued``; a rejected one gets a busy reply
        immediately (never cached — the retry must execute for real).

        ``(prog, proc)`` pairs in *inline_calls* bypass the queue and
        execute during record delivery without a slot.  The REKEY that
        completes a channel resync must go here: it has to stay ordered
        with the channel state machine, and a queued REKEY can deadlock
        against a slot that is itself blocked waiting on a reply from
        the desynchronized client — the client cannot answer until its
        REKEY is served, and the REKEY waits behind the blocked slot.

        Retransmissions of a call that is *still waiting* in the queue
        are absorbed (dropped, counted in
        ``server.queue.retransmits_absorbed``): the peer's
        duplicate-reply cache only covers calls that already executed,
        so without this a client whose retransmit timer is shorter than
        the queue wait would get the same call admitted — and executed
        — twice, breaking at-most-once exactly when the server is
        congested.  The original's eventual reply resolves the client's
        future for that xid.
        """
        def dispatch(header, body, request) -> None:
            if (header.prog, header.proc) in inline_calls:
                peer.serve(header, body, request)
                return
            if self.busy < self.workers and not self.service_time:
                # Served from here to its reply without waiting, so no
                # retransmission can find it unexecuted: no absorb entry.
                self.busy += 1
                self._m_admitted.inc()
                self._runner.step(self._slot(
                    partial(peer.serve_queued, header, body, request),
                    self._clock.now))
                return
            key = (conn_id, header.xid)
            if key in self._queued_xids:
                self._m_absorbed.inc()
                return
            def execute():
                self._queued_xids.discard(key)
                return peer.serve_queued(header, body, request)
            self._queued_xids.add(key)
            if not self.submit(conn_id, execute):
                self._queued_xids.discard(key)
                peer.send_busy(header.xid)
        peer.dispatcher = dispatch

    # -- service -----------------------------------------------------------

    def _pop(self) -> Waiting:
        """The waiting call the policy serves next (one must wait)."""
        if self.policy == FAIR_SHARE:
            while True:
                conn_id = self._rotation.popleft()
                queue = self._per_conn.get(conn_id)
                if not queue:
                    # A cleared (or never-refilled) connection: drop its
                    # per-conn entry so dead conn_ids do not accumulate
                    # across redials on a long-lived server.
                    self._per_conn.pop(conn_id, None)
                    continue
                request = queue.popleft()
                if queue:
                    self._rotation.append(conn_id)
                else:
                    del self._per_conn[conn_id]
                break
        else:
            request = self._fifo.popleft()
        self.depth -= 1
        self._set_depth(self.depth)
        return request

    def _slot(self, execute: Callable[[], Iterator], enqueued_at: float):
        """One busy slot: serve a call, then each waiting call the
        policy hands the slot to, and free it when none waits.  A crash
        (:meth:`clear`) freed every slot, so one in service across it
        just ends."""
        boot = self._boots
        while True:
            self._m_wait.observe(self._clock.now - enqueued_at)
            try:
                if self.service_time > 0.0:
                    yield Sleep(self.service_time)
                    if boot != self._boots:
                        return  # the machine crashed mid-service
                yield from execute()
            except AssertionError:
                raise  # a broken invariant fails the run
            except Exception:  # noqa: BLE001 - a slot must not die
                # E.g. the caller's link died while its request waited
                # (or mid-reply, a server crash): the reply has nowhere
                # to go, and the client's retry machinery owns recovery.
                self._m_failures.inc()
            if boot != self._boots:
                return
            if not self.depth:
                self.busy -= 1
                return
            execute, enqueued_at = self._pop()

    # -- dynamic control ---------------------------------------------------

    def set_max_depth(self, max_depth: int) -> int:
        """Retune the admission bound at runtime; returns the new value.

        Values below 1 clamp to 1.  Shrinking below the current depth is
        safe by construction: already-admitted requests stay queued and
        get served, and only *new* admissions see the tighter bound
        (``submit`` compares against ``max_depth`` at admission time).
        The control plane's AIMD actuator drives this.
        """
        self.max_depth = max(1, int(max_depth))
        self._g_max_depth.set(self.max_depth)
        return self.max_depth

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> int:
        """Drop every waiting request and free every slot (server
        crash); returns the count of waiting ones.

        Clients learn the same way they learn about any crash: their
        link closes and their in-flight futures fail with
        ``RpcTransportDown``, so no busy replies are sent here.  All
        volatile accounting dies with the machine: the depth gauge, its
        peak watermark, and the fair-share per-connection queues and
        rotation (whose conn_ids name connections that no longer exist).
        """
        dropped = self.depth
        self._boots += 1
        self._fifo.clear()
        self._per_conn.clear()
        self._rotation.clear()
        self._queued_xids.clear()
        self.depth = 0
        self.busy = 0
        self._set_depth(0)
        self._g_depth.reset_peak()
        self._watermark.reset_peak()
        return dropped
