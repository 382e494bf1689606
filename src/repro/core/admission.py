"""Server-side request queueing and admission control.

With one synchronous client the server could execute every call inline,
inside record delivery.  Under concurrent load that model breaks: every
client's call would be serviced instantly regardless of how many others
are in flight, so contention — the thing the scale benchmarks measure —
would never appear.  This module gives the server a real queue:

* inbound calls are **admitted** into a bounded queue (per RPC peer's
  ``dispatcher`` hook) instead of executing inline;
* a small pool of **worker tasks** (daemons on the cooperative
  scheduler) drains the queue, optionally charging a fixed service time
  per request so server capacity is finite;
* when the queue is full, admission control **rejects** the call with a
  ``SERVER_BUSY`` reply — backpressure the client's
  :class:`~repro.core.backoff.BackoffPolicy` turns into a delayed retry.

Two scheduling policies:

``fifo``
    One global arrival-order queue.  Simple, but a single aggressive
    client can monopolize the workers.
``fair``
    Per-connection queues drained round-robin, so each connection gets
    an equal share of worker capacity regardless of its arrival rate.

Metrics (see docs/OBSERVABILITY.md): ``server.queue.depth`` gauge,
``server.queue.admitted`` / ``server.queue.rejected`` /
``server.queue.job_failures`` counters, ``server.queue.wait_seconds``
histogram of time spent queued before service.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..obs.registry import NULL_REGISTRY, Gauge
from ..sim.clock import Clock
from ..sim.sched import Future, Scheduler, Sleep

FIFO = "fifo"
FAIR_SHARE = "fair"


class QueuedRequest:
    """One admitted call waiting for a worker."""

    __slots__ = ("conn_id", "execute", "enqueued_at")

    def __init__(self, conn_id: object, execute: Callable[[], None],
                 enqueued_at: float) -> None:
        self.conn_id = conn_id
        self.execute = execute
        self.enqueued_at = enqueued_at


class RequestQueue:
    """A bounded request queue with a worker pool and admission control.

    ``max_depth`` bounds *waiting* requests (in-service requests have
    already left the queue); ``workers`` bounds concurrent service;
    ``service_time`` is the simulated seconds each request occupies a
    worker (0 = workers are infinitely fast and only the queue's FIFO
    ordering matters).
    """

    def __init__(
        self,
        clock: Clock,
        max_depth: int = 32,
        workers: int = 4,
        policy: str = FIFO,
        metrics=None,
        service_time: float = 0.0,
    ) -> None:
        if policy not in (FIFO, FAIR_SHARE):
            raise ValueError(f"unknown queue policy {policy!r}")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if workers < 1:
            raise ValueError("need at least one worker")
        self._clock = clock
        self.max_depth = max_depth
        self.workers = workers
        self.policy = policy
        self.service_time = service_time
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.depth = 0
        self._fifo: deque[QueuedRequest] = deque()
        #: fair-share state: per-connection queues + round-robin order.
        self._per_conn: dict[object, deque[QueuedRequest]] = {}
        self._rotation: deque[object] = deque()
        #: (conn_id, xid) pairs admitted but not yet executed — the
        #: window the peer's duplicate-reply cache cannot cover.
        self._queued_xids: set[tuple[object, int]] = set()
        self._wakeup: Future | None = None
        #: Bumped by :meth:`clear`; a worker that slept through a crash
        #: finds its request belongs to a machine that no longer exists.
        self._boots = 0
        self._g_depth = self.metrics.gauge("server.queue.depth",
                                           track_peak=True)
        #: Private watermark: the registry gauge can be shared by every
        #: queue in a World (same dotted name), so its peak is the
        #: *world-wide* depth watermark; this one is exactly this
        #: queue's, whatever registry (even a disabled one) is in use.
        self._watermark = Gauge("server.queue.depth#local", track_peak=True)
        self._g_max_depth = self.metrics.gauge("server.queue.max_depth")
        self._g_max_depth.set(max_depth)
        self._m_admitted = self.metrics.counter("server.queue.admitted")
        self._m_rejected = self.metrics.counter("server.queue.rejected")
        self._m_absorbed = self.metrics.counter(
            "server.queue.retransmits_absorbed")
        self._m_failures = self.metrics.counter("server.queue.job_failures")
        self._m_wait = self.metrics.histogram("server.queue.wait_seconds")

    @property
    def peak_depth(self) -> int:
        """High-water mark of :attr:`depth` — the depth gauge's peak."""
        return int(self._watermark.peak)

    def _set_depth(self, depth: int) -> None:
        self._g_depth.set(depth)
        self._watermark.set(depth)

    # -- admission ---------------------------------------------------------

    def submit(self, conn_id: object, execute: Callable[[], None]) -> bool:
        """Admit a request, or return False (caller sends SERVER_BUSY)."""
        if self.depth >= self.max_depth:
            self._m_rejected.inc()
            return False
        request = QueuedRequest(conn_id, execute, self._clock.now)
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
        if self._wakeup is not None:
            self._wakeup.resolve()
        return True

    def bind(self, peer, conn_id: object,
             inline_calls: frozenset = frozenset()) -> None:
        """Route *peer*'s inbound calls through this queue.

        Installs the peer's ``dispatcher`` hook: admitted calls run
        later via ``serve_queued``; rejected ones get a busy reply
        immediately (never cached — the retry must execute for real).

        ``(prog, proc)`` pairs in *inline_calls* bypass the queue and
        execute during record delivery, like the classic model.  The
        REKEY that completes a channel resync must go here: it has to
        stay ordered with the channel state machine, and a queued REKEY
        can deadlock against a worker that is itself blocked waiting on
        a reply from the desynchronized client — the client cannot
        answer until its REKEY is served, and the REKEY waits behind
        the blocked worker.

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
                peer.serve_queued(header, body, request)
                return
            key = (conn_id, header.xid)
            if key in self._queued_xids:
                self._m_absorbed.inc()
                return
            def execute() -> None:
                self._queued_xids.discard(key)
                peer.serve_queued(header, body, request)
            if self.submit(conn_id, execute):
                self._queued_xids.add(key)
            else:
                peer.send_busy(header.xid)
        peer.dispatcher = dispatch

    # -- service -----------------------------------------------------------

    def _pop(self) -> QueuedRequest | None:
        if self.policy == FAIR_SHARE:
            while self._rotation:
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
                self.depth -= 1
                self._set_depth(self.depth)
                return request
            return None
        if not self._fifo:
            return None
        request = self._fifo.popleft()
        self.depth -= 1
        self._set_depth(self.depth)
        return request

    def _arrival(self) -> Future:
        if self._wakeup is None or self._wakeup.done:
            self._wakeup = Future("queue-arrival")
        return self._wakeup

    def start(self, scheduler: Scheduler, name: str = "queue") -> None:
        """Spawn the worker pool as daemon tasks on *scheduler*."""
        for index in range(self.workers):
            scheduler.spawn(self._worker(), name=f"{name}-worker-{index}",
                            daemon=True)

    def _worker(self):
        while True:
            request = self._pop()
            if request is None:
                # All workers may share one arrival future; whoever
                # wakes first wins the request, the rest re-wait.
                yield self._arrival()
                continue
            self._m_wait.observe(self._clock.now - request.enqueued_at)
            if self.service_time > 0.0:
                boot = self._boots
                yield Sleep(self.service_time)
                if boot != self._boots:
                    continue  # the machine crashed mid-service
            try:
                request.execute()
            except ConnectionError:
                # The caller's link died while its request waited (or
                # mid-reply, e.g. a server crash): the reply has nowhere
                # to go, and the client's retry machinery owns recovery.
                self._m_failures.inc()
            except Exception:  # noqa: BLE001 - a worker must not die
                self._m_failures.inc()

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
        """Drop every waiting request, and whatever the workers have in
        service (server crash); returns the count of waiting ones.

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
        self._set_depth(0)
        self._g_depth.reset_peak()
        self._watermark.reset_peak()
        return dropped
