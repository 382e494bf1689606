"""The four workloads: what each one runs and why it exists.

Every workload is a closed loop driven from this process on one OS
thread.  A batch's inputs (names, sizes, contents, read order) are drawn
from ``(seed, batch index)`` before the batch's timers start, so the
program only ever sees generated operations and the same seed replays
the same bytes.  Sizes are drawn, not fixed: the simulated testbed has
no jitter of its own, so drawn sizes are the only way its virtual-clock
numbers become a function of the seed like every other input.

Nothing here imports ``repro``; stacks come from :mod:`adapter`.
"""

from __future__ import annotations

import errno
import hashlib
import random
import traceback
from dataclasses import dataclass
from time import perf_counter, process_time

from . import adapter

#: Largest single I/O, the NFS rsize/wsize of the paper's testbed.
IO_MAX = 8192
#: Per-file I/O sizes are drawn from [IO_MAX - IO_JITTER, IO_MAX].  One
#: size per file keeps every read the size the readahead detector saw.
IO_JITTER = 128


class Sample:
    """What one timed batch measured."""

    __slots__ = ("ops", "failed", "cpu_s", "wall_s", "virt_s", "lat",
                 "phases", "error")

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.virt_s = 0.0
        #: Virtual-clock latency of each op, in issue order.
        self.lat: list[float] = []
        #: phase name -> (ops, cpu seconds, virtual seconds)
        self.phases: dict[str, tuple[int, float, float]] = {}
        #: First failure's traceback, for the report.
        self.error: str | None = None

    def fail(self, count: int = 1) -> None:
        self.failed += count
        if self.error is None:
            self.error = traceback.format_exc(limit=4)


def _phase(sample: Sample, name: str, now, items, op) -> None:
    """Run ``op(item)`` per item: per-op virtual latency, per-phase CPU.

    An op fails when it raises or returns false; either way the loop
    goes on, so one bad file cannot hide the rest of the batch.
    """
    lat = sample.lat
    done = 0
    virt0 = now()
    cpu0 = process_time()
    for item in items:
        start = now()
        try:
            if not op(item):
                raise AssertionError(f"{name}: wrong result for {item!r}")
        except Exception:  # noqa: BLE001 - counted and reported, not hidden
            sample.fail()
        lat.append(now() - start)
        done += 1
    cpu1 = process_time()
    sample.phases[name] = (done, cpu1 - cpu0, now() - virt0)
    sample.ops += done


def _glue(sample: Sample, call, *args):
    """A call the op stream needs but does not count (open, fsync)."""
    try:
        return call(*args)
    except Exception:  # noqa: BLE001 - counted and reported, not hidden
        sample.fail()
        return None


class _Timers:
    """CPU, wall and virtual time of one batch, into its Sample."""

    def __init__(self, sample: Sample, now) -> None:
        self._sample = sample
        self._now = now

    def __enter__(self) -> None:
        self._virt = self._now()
        self._wall = perf_counter()
        self._cpu = process_time()

    def __exit__(self, *exc) -> None:
        sample = self._sample
        sample.cpu_s = process_time() - self._cpu
        sample.wall_s = perf_counter() - self._wall
        sample.virt_s = self._now() - self._virt


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _name(rng: random.Random, index: int, serial: int) -> str:
    # Unique by (batch, serial); the drawn tail varies the name length,
    # and with it every LOOKUP's size on the wire.
    return f"b{index}-{serial}-{rng.getrandbits(4 * rng.randint(1, 8)):x}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Phase names in run order; also the ``phase.*`` metrics it fills.
    phases: tuple[str, ...]
    #: Timed batches whose virtual-clock results are pinned (full, smoke).
    pinned: tuple[int, int]
    #: Whether the same op stream also runs on plain NFS 3 over UDP.
    has_reference: bool = False

    def build(self, seed: int, smoke: bool, variant: str = "sfs"):
        raise NotImplementedError

    def run_batch(self, stack, seed: int, index: int, smoke: bool) -> Sample:
        raise NotImplementedError


class SmallFile(Workload):
    """Sprite-LFS-style small files: per-message cost dominates."""

    FILES = (20, 4)  # per batch: full, smoke

    def build(self, seed, smoke, variant="sfs"):
        return adapter.FileStack(seed, variant)

    def run_batch(self, stack, seed, index, smoke):
        rng = _rng(seed, index)
        files = []
        for serial in range(self.FILES[smoke]):
            data = rng.randbytes(rng.randint(512, 1536))
            files.append((f"{stack.workdir}/{_name(rng, index, serial)}",
                          data))
        proc = stack.proc
        denied = adapter.kernel_error()

        def create(item):
            proc.write_file(item[0], item[1])
            return True

        def stat(item):
            return proc.stat(item[0]).size == len(item[1])

        def read(item):
            return proc.read_file(item[0]) == item[1]

        def chown_denied(item):
            # The paper's Fig. 5 op: one RPC, no disk, must be refused.
            try:
                proc.chown(item[0], 0)
            except denied as exc:
                return exc.errno == errno.EPERM
            return False

        def unlink(item):
            proc.unlink(item[0])
            return True

        sample = Sample()
        with _Timers(sample, stack.now):
            for name, op in zip(self.phases, (create, stat, read,
                                              chown_denied, unlink)):
                _phase(sample, name, stack.now, files, op)
        return sample


@dataclass(frozen=True)
class Bulk(Workload):
    """One large file written, read back in order, read at random."""

    #: Pipeline depth over WAN links; None = synchronous core on the LAN.
    wan_depth: int | None = None

    CHUNKS = (128, 8)  # I/Os per phase: full, smoke

    def build(self, seed, smoke, variant="sfs"):
        return adapter.FileStack(seed, variant, wan_depth=self.wan_depth)

    def run_batch(self, stack, seed, index, smoke):
        rng = _rng(seed, index)
        count = self.CHUNKS[smoke]
        size = IO_MAX - rng.randrange(0, IO_JITTER + 1, 4)
        data = rng.randbytes(size * count)
        chunks = [data[i * size:(i + 1) * size] for i in range(count)]
        order = list(range(count))
        rng.shuffle(order)
        path = f"{stack.workdir}/{_name(rng, index, 0)}"
        proc = stack.proc
        got: list[bytes] = []

        def seq_write(i):
            return proc.write(fd, chunks[i]) == size

        def seq_read(i):
            got.append(proc.read(fd, size))
            return len(got[-1]) == size

        def rand_read(i):
            proc.lseek(fd, i * size)
            return proc.read(fd, size) == chunks[i]

        sample = Sample()
        with _Timers(sample, stack.now):
            fd = _glue(sample, proc.open, path, "w")
            _phase(sample, "seq-write", stack.now, range(count), seq_write)
            _glue(sample, proc.fsync, fd)
            _glue(sample, proc.close, fd, False)
            fd = _glue(sample, proc.open, path, "r")
            _phase(sample, "seq-read", stack.now, range(count), seq_read)
            _phase(sample, "rand-read", stack.now, order, rand_read)
            _glue(sample, proc.close, fd)
            _glue(sample, proc.unlink, path)
        # Checked after the timers: hashing a megabyte is the
        # benchmark's cost, not the program's.
        if hashlib.sha1(b"".join(got)).digest() != hashlib.sha1(data).digest():
            sample.failed += count
            sample.error = sample.error or "seq-read: SHA-1 mismatch"
        return sample


class Fanout(Workload):
    """Many concurrent sessions: scheduler, timers, admission queue."""

    CLIENTS = (1024, 32)  # full, smoke

    def build(self, seed, smoke, variant="sfs"):
        return adapter.FanoutStack(seed, self.CLIENTS[smoke])

    def run_batch(self, stack, seed, index, smoke):
        sample = Sample()
        attempted = self.CLIENTS[smoke]
        report = None
        with _Timers(sample, stack.now):
            try:
                report = stack.run_rep(seed * 1_000_003 + index)
            except Exception:  # noqa: BLE001 - counted and reported
                sample.fail(attempted)
        sample.ops = attempted
        if report is not None:
            sample.lat = list(report.latencies)
            # An op that errored or never finished has no latency entry.
            missing = attempted - len(report.latencies)
            if missing or report.op_errors or report.unfinished_tasks:
                sample.failed += max(missing, report.op_errors
                                     + report.unfinished_tasks)
                sample.error = sample.error or (
                    f"op_errors={report.op_errors} "
                    f"unfinished_tasks={report.unfinished_tasks}")
        return sample


_BULK_PHASES = ("seq-write", "seq-read", "rand-read")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    SmallFile(
        "smallfile-lan",
        "Small files through the whole kernel-to-disk stack on the "
        "synchronous core: per-message cost (rpc relay, marshal) dominates.",
        ("create", "stat", "read", "chown-denied", "unlink"),
        pinned=(24, 3), has_reference=True,
    ),
    Bulk(
        "bulk-lan",
        "1 MB files in 8 KB I/Os on the same stack and core: per-byte "
        "cost (stream cipher, MAC, copies) dominates; writes sit beside reads.",
        _BULK_PHASES, pinned=(16, 3), has_reference=True,
    ),
    Bulk(
        "bulk-wan-d8",
        "The bulk op stream on the pipelined core over WAN links at depth 8: "
        "timer delivery, send window, READV/WRITEV, readahead, write-gathering.",
        _BULK_PHASES, pinned=(32, 3), wan_depth=8,
    ),
    Fanout(
        "fanout-1024",
        "1,024 closed-loop sessions against one queued server: scheduler, "
        "timers, admission queue and per-session peers; kernel and relay bypassed.",
        (), pinned=(6, 2),
    ),
)}
