"""Virtual clock for the simulated machines.

The paper's evaluation ran on real hardware (550 MHz Pentium IIIs, 100
Mbit Ethernet, SCSI disks).  Our substrate is a simulator: every
machine in a World shares one virtual clock, and virtual time passes
only by timers.  Devices do not stall the clock to charge their
latency; they book it.  A link or NIC occupies a
:class:`~repro.sim.network.Medium` and delivers each record from a
timer at its arrival time; a disk occupies its arm the same way, and the
NFS call that booked it sleeps until the disk is done.  Each clock has
one :class:`~repro.sim.sched.Scheduler` (:attr:`Clock.scheduler`), and
only its pump advances the clock, to the next timer's deadline, for
whoever waits at top level (a synchronous RPC caller, a top-level
sleep, a system call); never from inside a timer callback, where every
handler and task yields instead.

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
        self._firing: Callable[[], None] | None = None
        self._scheduler = None

    @property
    def scheduler(self):
        """This clock's one :class:`~repro.sim.sched.Scheduler`: the one
        built on it (a World's), else one made now.  Every synchronous
        wait on this clock pumps it."""
        if self._scheduler is None:
            from .sched import Scheduler  # sched builds on this module

            Scheduler(self)
        return self._scheduler

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
        self._fire_due(self._now + seconds)

    def _fire_due(self, now: float) -> None:
        # A flat drain: devices book their time and handlers and tasks
        # yield, so a callback that runs the clock (and would fire later
        # timers inside its own frame) is refused, by name.
        if self._firing is not None:
            named = getattr(self._firing, "func", self._firing)
            raise AssertionError(
                "clock advanced inside timer callback "
                f"{getattr(named, '__qualname__', named)}: yield instead")
        self._now = now
        timers = self._timers
        try:
            while timers and timers[0][0] <= now:
                _when, _seq, callback = heapq.heappop(timers)
                self._firing = callback
                callback()
        finally:
            self._firing = None

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
