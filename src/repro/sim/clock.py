"""Virtual clock for the simulated machines.

The paper's evaluation ran on real hardware (550 MHz Pentium IIIs, 100
Mbit Ethernet, SCSI disks).  Our substrate is a simulator: every
machine in a World shares one virtual clock, and virtual time passes
only by timers.  Devices do not stall the clock to charge their
latency; they book it.  A link or NIC occupies a
:class:`~repro.sim.network.Medium` and delivers each record from a
timer at its arrival time; a disk occupies its arm the same way, and the
NFS call that booked it sleeps until the disk is done.  The clock is
advanced only by whoever waits at top level (a synchronous RPC caller,
the World's pump, the scheduler), to the next timer's deadline.

Benchmarks report virtual seconds (what the modelled 1999 testbed would
see: network round trips, disk seeks and transfers) next to host CPU
seconds (what the Python simulator costs per operation; see
:mod:`repro.bench.timing`), so latency-bound phases are dominated by
round trips, sync-write phases by disk time, and crypto/user-level
relay costs show up as genuine CPU time.
"""

from __future__ import annotations

import heapq
from typing import Callable


class Clock:
    """Accumulates simulated time, in seconds.

    Callbacks registered with :meth:`call_at` fire from inside
    :meth:`advance` once the clock passes their deadline.  That is the
    only notion of "elapsed wall time" a single-threaded simulation has:
    a server restart scheduled for t=5 happens during whatever wait
    crosses t=5 (e.g. a client's reconnect backoff).
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
        """Move time forward *seconds*, firing the timers that fall due."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += seconds
        self._fire_due()

    def _fire_due(self) -> None:
        # Re-entrant: a callback that waits synchronously drains the
        # newly-due timers from its inner frame.  Devices book time and
        # every RPC handler on the file-system paths yields, so the
        # waits that still nest here are the agent's reads through the
        # kernel, the agent proxy's calls and the unmount after a
        # revocation.  Each timer is popped before its callback runs,
        # so no frame can double-fire one, and the heap hands out
        # deadlines earliest-first no matter which frame is draining —
        # global firing order is exactly what a single flat drain would
        # give.
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
