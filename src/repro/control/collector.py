"""Central metrics aggregation: heartbeat pulls into bounded rings.

The collector is the control plane's *see* stage.  Every machine (and
any other interesting source, like a load generator) registers a
**reporter**: a zero-argument callable that returns a registry snapshot
dict, or ``None`` when the source is down.  Each collector tick pulls
every reporter once — that pull is the heartbeat:

* a snapshot → the source is **live**; the snapshot is appended to the
  source's bounded time-series ring (old entries fall off the far end,
  so collector memory is O(sources × ring), never O(run length));
* ``None`` → a missed heartbeat; after ``stale_after`` consecutive
  misses the source is **stale** (its last snapshot still contributes
  to the fleet view — a silent server's counters did happen), and after
  ``dead_after`` it is **dead** and excluded from the merged view.

After pulling, the collector folds the freshest snapshot of every
non-dead source through :func:`repro.obs.merge.merge_snapshots` into
one fleet-level snapshot, itself kept in a ring — so fleet-wide rates
and windowed quantiles are just diffs of adjacent merged entries.

Everything runs on the virtual clock; a tick is triggered by the
control plane's daemon task, never by wall time.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..obs.merge import diff_snapshots, merge_snapshots
from ..obs.registry import NULL_REGISTRY

LIVE = "live"
STALE = "stale"
DEAD = "dead"


def _ring_window(ring, span: int) -> tuple[float, dict] | None:
    """(dt, diff) across the newest *span* intervals of a snapshot ring."""
    if len(ring) < 2:
        return None
    span = min(max(1, span), len(ring) - 1)
    t0, before = ring[-1 - span]
    t1, after = ring[-1]
    dt = t1 - t0
    if dt <= 0:
        return None
    return dt, diff_snapshots(before, after)


class SourceRecord:
    """One registered source: its reporter, ring, and liveness state."""

    __slots__ = ("name", "kind", "report", "ring", "last_seen", "missed",
                 "state", "boots", "flaps")

    def __init__(self, name: str, kind: str,
                 report: Callable[[], dict | None], ring_size: int) -> None:
        self.name = name
        self.kind = kind
        self.report = report
        #: (virtual time, snapshot) pairs, newest last.
        self.ring: deque[tuple[float, dict]] = deque(maxlen=ring_size)
        self.last_seen: float | None = None
        self.missed = 0
        self.state = LIVE
        #: Boot notifications received (see :meth:`Collector.notify_boot`).
        self.boots = 0
        #: Boots that cleared pending missed-heartbeat debt — the
        #: machine was down at pull instants but provably came back.
        self.flaps = 0

    @property
    def latest(self) -> dict | None:
        """Most recent snapshot, or None if never heard from."""
        return self.ring[-1][1] if self.ring else None

    def window(self, span: int = 1) -> tuple[float, dict] | None:
        """The delta across the newest *span* ring intervals.

        Returns ``(dt, diff_snapshot)`` where the diff subtracts the
        monotonic instruments (counters, histograms, families) and
        carries gauges at their newer values — the recent activity of
        this source.  A ring shorter than *span* + 1 uses what it has
        (a partial window beats none); with fewer than two entries
        there is no window yet and callers fall back to the cumulative
        snapshot.
        """
        return _ring_window(self.ring, span)


class Collector:
    """Pull-based snapshot aggregation over registered sources."""

    def __init__(self, clock, metrics=None, ring_size: int = 64,
                 stale_after: int = 2, dead_after: int = 5) -> None:
        if ring_size < 2:
            raise ValueError("ring_size must be at least 2 (windows need "
                             "two entries)")
        if not 0 < stale_after <= dead_after:
            raise ValueError("need 0 < stale_after <= dead_after")
        self.clock = clock
        self.ring_size = ring_size
        self.stale_after = stale_after
        self.dead_after = dead_after
        self.sources: dict[str, SourceRecord] = {}
        #: Fleet-level merged snapshots, same ring discipline.
        self.merged_ring: deque[tuple[float, dict]] = deque(maxlen=ring_size)
        self.ticks = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_ticks = metrics.counter("control.collector.ticks")
        self._m_pulls = metrics.counter("control.collector.pulls")
        self._m_misses = metrics.counter("control.collector.missed_beats")
        self._g_sources = metrics.gauge("control.collector.sources")
        self._g_stale = metrics.gauge("control.collector.stale")
        self._g_dead = metrics.gauge("control.collector.dead")
        self._m_boots = metrics.counter("control.collector.boots")
        self._m_flaps = metrics.counter("control.collector.flaps")

    # -- registration ------------------------------------------------------

    def register(self, name: str, report: Callable[[], dict | None],
                 kind: str = "machine") -> SourceRecord:
        """Add a source; *report* is pulled once per tick."""
        if name in self.sources:
            raise ValueError(f"source {name!r} already registered")
        record = SourceRecord(name, kind, report, self.ring_size)
        self.sources[name] = record
        self._g_sources.set(len(self.sources))
        return record

    def notify_boot(self, name: str) -> None:
        """A machine restarted: clear its missed-heartbeat debt.

        The heartbeat pull samples liveness at tick instants, so a
        machine that crashes and restarts *between* pulls — or is
        unluckily down at several consecutive pull instants while
        flapping — would accumulate misses and be declared dead despite
        being up most of the time.  A restart is positive proof of life;
        wiring the machine's boot beacon here makes such a source
        **alive-with-reset**: state back to live, missed debt forgiven,
        the episode counted as a flap instead of a death.  The next
        successful pull repopulates its ring.
        """
        record = self.sources.get(name)
        if record is None:
            return
        record.boots += 1
        self._m_boots.inc()
        if record.missed or record.state != LIVE:
            record.flaps += 1
            self._m_flaps.inc()
        record.missed = 0
        record.state = LIVE
        record.last_seen = self.clock.now

    # -- the heartbeat pull ------------------------------------------------

    def tick(self) -> dict | None:
        """Pull every source once and refresh the merged fleet view.

        Returns the new merged snapshot (None until some source has
        reported).  Reporter exceptions count as missed heartbeats —
        a crashing reporter must not take the control loop down.
        """
        now = self.clock.now
        self.ticks += 1
        self._m_ticks.inc()
        stale = dead = 0
        contributing: dict[str, dict] = {}
        for name in sorted(self.sources):
            record = self.sources[name]
            try:
                snapshot = record.report()
            except Exception:  # noqa: BLE001 - reporter = untrusted input
                snapshot = None
            self._m_pulls.inc()
            if snapshot is None:
                record.missed += 1
                self._m_misses.inc()
                if record.missed >= self.dead_after:
                    record.state = DEAD
                elif record.missed >= self.stale_after:
                    record.state = STALE
            else:
                record.missed = 0
                record.state = LIVE
                record.last_seen = now
                record.ring.append((now, snapshot))
            if record.state == STALE:
                stale += 1
            elif record.state == DEAD:
                dead += 1
            if record.state != DEAD and record.latest is not None:
                contributing[name] = record.latest
        self._g_stale.set(stale)
        self._g_dead.set(dead)
        if not contributing:
            return None
        merged = merge_snapshots(contributing, meta={"t": now})
        self.merged_ring.append((now, merged))
        return merged

    # -- views -------------------------------------------------------------

    @property
    def merged(self) -> dict | None:
        """Freshest fleet-level snapshot (None before any tick heard a
        source)."""
        return self.merged_ring[-1][1] if self.merged_ring else None

    def merged_window(self, span: int = 1) -> tuple[float, dict] | None:
        """Fleet-level recent delta; see :meth:`SourceRecord.window`."""
        return _ring_window(self.merged_ring, span)

    def states(self) -> dict[str, str]:
        """{source name: live|stale|dead} for display and assertions."""
        return {name: record.state
                for name, record in sorted(self.sources.items())}

    def artifact(self) -> dict:
        """Per-source latest snapshots + liveness, JSON-ready."""
        return {
            "sources": {
                name: {
                    "kind": record.kind,
                    "state": record.state,
                    "last_seen": record.last_seen,
                    "missed": record.missed,
                    "boots": record.boots,
                    "flaps": record.flaps,
                    "snapshot": record.latest,
                }
                for name, record in sorted(self.sources.items())
            },
            "merged": self.merged,
            "ticks": self.ticks,
        }
