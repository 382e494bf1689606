"""A simple disk timing model.

Models a late-90s SCSI disk (the paper used an IBM 18ES): average seek,
half-rotation latency, and sequential transfer bandwidth, with a
write-back cache so that only synchronous operations (file closes, NFS
COMMIT, metadata updates in FFS) pay the mechanical cost immediately.

The model does not simulate data placement; it distinguishes sequential
from random access by whether the accessed block follows the previous
one, which captures the paper's observation that "disk seeks push
throughput below 1 Mbyte/sec on anything but sequential accesses".

The disk is a device, like a network link: each request books the arm
on a :class:`~repro.sim.network.Medium`, queueing behind whatever it is
still doing, and nothing stalls the clock.  The NFS server brackets
each call it serves with :meth:`Disk.start_call` /
:meth:`Disk.finish_call` and waits out what the call booked before it
replies; a request made outside any served call (a test or a bench
seeding the file system directly) books nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.registry import NULL_REGISTRY
from .clock import Clock
from .network import Medium


@dataclass
class DiskParameters:
    """Timing constants (seconds / bytes-per-second)."""

    average_seek: float = 0.0065
    rotational_latency: float = 0.003
    transfer_rate: float = 12_500_000.0  # ~12.5 MB/s sequential media rate
    block_size: int = 8192

    @classmethod
    def ibm_18es(cls) -> "DiskParameters":
        """The 9 GB SCSI disk from the paper's testbed (approximate)."""
        return cls()


class Disk:
    """One machine's disk: requests occupy its arm until
    :attr:`busy_until` on the *clock*'s time line.

    The write-back cache is modelled explicitly: asynchronous writes
    enter a dirty set (keyed by caller-supplied *tag*, typically an
    inode number) and leave it only when a sync covers their tag.  A
    :meth:`crash` empties the cache, so whatever was dirty is counted
    as lost — the honest version of "async writes cost nothing now".
    """

    def __init__(self, clock: Clock, params: DiskParameters | None = None,
                 metrics=None) -> None:
        self._clock = clock
        self._params = params or DiskParameters()
        self._arm = Medium("disk")
        #: True between start_call and finish_call: requests book time.
        self._in_call = False
        #: When the disk is done with the served call's requests.
        self._call_done = 0.0
        self._last_block: int | None = None
        self.reads = 0
        self.writes = 0
        self.syncs = 0
        #: dirty write-back cache: tag -> count of un-flushed writes
        self._dirty: dict[int, int] = {}
        self._torn_countdown = 0
        self._torn_pending = False
        self.torn_syncs = 0
        self.lost_writes = 0
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_reads = self._metrics.counter("disk.reads")
        self._m_writes = self._metrics.counter("disk.writes")
        self._m_syncs = self._metrics.counter("disk.syncs")
        self._m_lost = self._metrics.counter("disk.lost_writes")
        self._m_torn = self._metrics.counter("disk.torn_syncs")

    @property
    def params(self) -> DiskParameters:
        return self._params

    @property
    def busy_until(self) -> float:
        """When the arm finishes the last request booked on it."""
        return self._arm.busy_until

    def start_call(self) -> None:
        """A served call begins: its requests book the arm."""
        self._in_call = True
        self._call_done = self._clock.now

    def finish_call(self) -> float:
        """The served call's handler is done: stop booking.  Returns the
        seconds until the disk completes the call's requests, which the
        call waits out before it replies (0.0: it booked nothing)."""
        self._in_call = False
        return self._call_done - self._clock.now

    def wait_until(self, when: float) -> None:
        """The served call needs data an earlier request is still
        reading, which is in memory at *when*: it replies no sooner."""
        if self._in_call and when > self._call_done:
            self._call_done = when

    def _book(self, seconds: float) -> None:
        """Occupy the arm for *seconds* after what it is doing already."""
        if self._in_call:
            self._arm.occupy(self._clock.now, seconds)
            until = self._arm.busy_until
            if until > self._call_done:
                self._call_done = until
            self._metrics.layers.book(seconds, until)

    def _access(self, block: int, nbytes: int) -> float:
        layers = self._metrics.layers
        layers.push("disk")
        try:
            params = self._params
            sequential = (self._last_block is not None
                          and block == self._last_block + 1)
            if not sequential:
                self._book(params.average_seek + params.rotational_latency)
            self._book(nbytes / params.transfer_rate)
            self._last_block = block + max(0, (nbytes - 1) // params.block_size)
        finally:
            layers.pop()
        return self._arm.busy_until if self._in_call else self._clock.now

    def read(self, block: int, nbytes: int) -> float:
        """Book a read of *nbytes* starting at *block*; returns when its
        data is in memory."""
        self.reads += 1
        self._m_reads.inc()
        return self._access(block, nbytes)

    def write(self, block: int, nbytes: int, sync: bool = False,
              tag: int = 0) -> None:
        """Book a write; asynchronous writes cost nothing now.

        Asynchronous writes land in the write-back cache (dirty under
        *tag*) and are assumed to be flushed during otherwise-idle
        rotations, mirroring how the paper's FFS hides async data
        writes but pays for sync metadata.  They stay dirty until a
        :meth:`sync` covers them — or a :meth:`crash` loses them.
        """
        self.writes += 1
        self._m_writes.inc()
        if sync:
            self.syncs += 1
            self._m_syncs.inc()
            self._access(block, nbytes)
        else:
            self._dirty[tag] = self._dirty.get(tag, 0) + 1

    def sync(self, nbytes: int = 0, tag: int | None = None) -> None:
        """Book an explicit flush of *nbytes* of dirty data.

        With *tag* given only that tag's dirty writes are flushed (an
        NFS COMMIT covers one file); without it the whole cache drains.
        """
        self.syncs += 1
        self._m_syncs.inc()
        if not self._mark_synced():
            if tag is None:
                self._dirty.clear()
            else:
                self._dirty.pop(tag, None)
        layers = self._metrics.layers
        layers.push("disk")
        try:
            params = self._params
            self._book(params.average_seek + params.rotational_latency)
            if nbytes:
                self._book(nbytes / params.transfer_rate)
            self._last_block = None
        finally:
            layers.pop()

    # -- failure model --

    def arm_torn_write(self, countdown: int = 1) -> None:
        """Make the *countdown*-th subsequent explicit :meth:`sync` tear.

        A torn flush charges its full mechanical cost but does not make
        the data durable: the dirty set keeps its entries and the
        caller can observe the tear with :meth:`consume_torn` (MemFs
        marks the matching journal record so recovery discards it).
        Synchronous writes (metadata, FILE_SYNC data) never tear — only
        the multi-block cache flush behind COMMIT is at risk, which is
        the scenario journaling exists for.
        """
        if countdown < 1:
            raise ValueError("countdown is 1-based")
        self._torn_countdown = countdown

    def _mark_synced(self) -> bool:
        """Account one flush against the torn-write schedule.

        Returns True if this flush tore (in which case the dirty set
        must NOT be cleared by the caller path).
        """
        if self._torn_countdown > 0:
            self._torn_countdown -= 1
            if self._torn_countdown == 0:
                self._torn_pending = True
                self.torn_syncs += 1
                self._m_torn.inc()
                return True
        return False

    def consume_torn(self) -> bool:
        """Report and clear whether the last sync tore."""
        torn = self._torn_pending
        self._torn_pending = False
        return torn

    def dirty_writes(self, tag: int | None = None) -> int:
        """Count of un-flushed writes (for *tag*, or in total)."""
        if tag is not None:
            return self._dirty.get(tag, 0)
        return sum(self._dirty.values())

    def mark_flushed(self, tag: int) -> None:
        """Bookkeeping only: *tag*'s dirty writes became durable via a
        path that already charged its own time (a FILE_SYNC data write,
        a file removal freeing the blocks)."""
        self._dirty.pop(tag, None)

    def crash(self) -> int:
        """Power loss: the write-back cache evaporates.

        Returns the number of dirty writes lost (also counted on the
        ``disk.lost_writes`` metric).  The arm stops: whatever was
        booked on it is abandoned, and the disk comes back idle.
        """
        lost = sum(self._dirty.values())
        self._dirty.clear()
        self._arm.busy_until = self._clock.now
        self._last_block = None
        self._torn_pending = False
        if lost:
            self.lost_writes += lost
            self._m_lost.inc(lost)
        return lost
