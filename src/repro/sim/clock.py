"""Virtual clock for the simulated machine.

The paper's evaluation ran on real hardware (550 MHz Pentium IIIs, 100
Mbit Ethernet, SCSI disks).  Our substrate is a simulator, so benchmark
time is accounted as:

    reported time = measured CPU time + accumulated simulated device time

Components (the disk model, the network links) charge their latencies to
the clock with :meth:`Clock.advance`; CPU work simply takes real time that
the harness measures around the workload.  This keeps benchmarks fast to
run while preserving the *shape* of the paper's results: latency-bound
phases are dominated by network round trips, sync-write phases by disk
time, and crypto/user-level relay costs show up as genuine Python CPU
time.
"""

from __future__ import annotations

import heapq
from typing import Callable


class Clock:
    """Accumulates simulated time, in seconds.

    Callbacks registered with :meth:`call_at` fire from inside
    :meth:`advance` once the clock passes their deadline.  That is the
    only notion of "elapsed wall time" a single-threaded simulation has:
    a server restart scheduled for t=5 happens during whatever sleep or
    device charge crosses t=5 (e.g. a client's reconnect backoff).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = 0

    @property
    def now(self) -> float:
        """Total simulated seconds advanced so far."""
        return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run when simulated time reaches *when*.

        Deadlines already in the past fire on the next :meth:`advance`
        (including ``advance(0)``).  Ties fire in registration order.
        """
        self._timer_seq += 1
        heapq.heappush(self._timers, (when, self._timer_seq, callback))

    def next_deadline(self) -> float | None:
        """The earliest pending timer deadline, or None when idle.

        The cooperative scheduler (:mod:`repro.sim.sched`) uses this to
        jump virtual time forward when every task is waiting on a timer:
        it advances straight to the next deadline rather than polling.
        """
        return self._timers[0][0] if self._timers else None

    def advance(self, seconds: float) -> None:
        """Charge *seconds* of simulated device time."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += seconds
        self._fire_due()

    def _fire_due(self) -> None:
        # Re-entrant by design: a callback that advances the clock (a
        # disk charge inside the NFS server's handler, say) drains the
        # newly-due timers right there, from the inner frame.  Each
        # timer is popped before its callback runs, so no frame can
        # double-fire one, and the heap hands out deadlines
        # earliest-first no matter which frame is draining — global
        # firing order is exactly what a single flat drain would give.
        # The relays do not nest here: their handlers yield.
        while self._timers and self._timers[0][0] <= self._now:
            _when, _seq, callback = heapq.heappop(self._timers)
            callback()

    def reset(self) -> None:
        self._now = 0.0
        self._timers.clear()


class Stopwatch:
    """Captures a span of simulated time against a clock."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._start = clock.now

    def elapsed(self) -> float:
        return self._clock.now - self._start

    def restart(self) -> None:
        self._start = self._clock.now
