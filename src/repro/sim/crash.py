"""Crash-point fault injection: whole-server failures on a schedule.

PR 1's adversaries corrupt the *wire*; this module kills the *machine*.
A :class:`CrashInjector` is armed with a schedule of named crash points
— places in the server code annotated with ``injector.hit(point)`` — and
when an armed hit count is reached it first runs the crash callback
(which closes every link the server holds, exactly what power loss does
to TCP connections) and then raises :class:`ServerCrashed` to unwind the
server out of whatever it was doing.

The unwind stops at the dead machine's own wire: the server's attempt
to reply over the now-closed link goes nowhere, and the arrival timer
that delivered the fatal record absorbs whatever is left of the
``ConnectionError``.  The client sees its link's close hook fire
(``RpcTransportDown`` for every call in flight).  No reply is ever
generated — the same observable as a real crash, where the response
packet simply never arrives.

Crash points are deliberately few and named for the protocol window they
interrupt (see docs/PROTOCOLS.md, "Crash and recovery semantics"):

* ``mid-handshake``  — inside ENCRYPT, after key agreement, before the
  reply carrying the server's key halves is sent;
* ``after-write``    — after a WRITE has been applied to the file
  system, before its reply (client must replay; data was volatile);
* ``before-commit``  — just before a COMMIT executes (preceding
  unstable writes are provably lost);
* ``lease-fanout``   — while invalidation callbacks are being sent to
  lease holders;
* ``mid-resync``     — while serving a channel resync control record.
"""

from __future__ import annotations

from typing import Callable, Iterable

#: The named crash points the server code instruments.
CRASH_POINTS = (
    "mid-handshake",
    "after-write",
    "before-commit",
    "lease-fanout",
    "mid-resync",
)


class ServerCrashed(ConnectionError):
    """The simulated server lost power at a crash point.

    A :class:`ConnectionError` because that is what the failure looks
    like from every observer's perspective: connections are gone and
    nothing on the machine answers.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"server crashed at {point} (hit {hit})")
        self.point = point
        self.hit = hit


class CrashInjector:
    """Schedules :class:`ServerCrashed` faults at named crash points.

    *schedule* is an iterable of ``(point, nth)`` pairs: crash on the
    *nth* time (1-based) execution reaches *point*.  The same point may
    appear several times with different counts (crash, recover, crash
    again).  ``on_crash(point)`` runs before the exception is raised so
    the machine's links are already dead when the unwind starts.
    """

    def __init__(self, schedule: Iterable[tuple[str, int]] = (),
                 on_crash: Callable[[str], None] | None = None) -> None:
        self._armed: dict[str, list[int]] = {}
        for point, nth in schedule:
            if point not in CRASH_POINTS:
                raise ValueError(f"unknown crash point: {point!r}")
            if nth < 1:
                raise ValueError("hit counts are 1-based")
            self._armed.setdefault(point, []).append(nth)
        for counts in self._armed.values():
            counts.sort()
        self.on_crash = on_crash
        self.hits: dict[str, int] = {}
        self.fired: list[tuple[str, int]] = []

    def arm(self, point: str, nth: int = 1) -> None:
        """Add one more scheduled crash (e.g. between test phases)."""
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point: {point!r}")
        counts = self._armed.setdefault(point, [])
        counts.append(nth)
        counts.sort()

    @property
    def pending(self) -> int:
        """Scheduled crashes that have not fired yet."""
        return sum(len(counts) for counts in self._armed.values())

    def hit(self, point: str) -> None:
        """Record that execution reached *point*; crash if scheduled."""
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        counts = self._armed.get(point)
        if not counts or counts[0] != count:
            return
        counts.pop(0)
        self.fired.append((point, count))
        if self.on_crash is not None:
            self.on_crash(point)
        raise ServerCrashed(point, count)
