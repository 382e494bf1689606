"""Figures 8 and 9: the Sprite LFS microbenchmarks.

Small-file test (figure 8): "creates, reads, and unlinks 1,000 1 Kbyte
files", flushing to disk at the end of the write phase.

Large-file test (figure 9): "writes a large (40,000 Kbyte) file
sequentially, reads from it sequentially, then writes it randomly, reads
it randomly, and finally reads it sequentially.  Data is flushed to disk
at the end of each write phase."  The file size is a parameter (scaled
down by default — the phase *ratios* are what the figure shows).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .setups import BenchSetup
from .timing import Measurement, Timer

SMALL_PHASES = ["create", "read", "unlink"]
LARGE_PHASES = ["seq write", "seq read", "rand write", "rand read", "seq read2"]

DEFAULT_SMALL_COUNT = 1000
DEFAULT_LARGE_BYTES = 4 << 20   # scaled stand-in for 40,000 KB
_CHUNK = 8192


@dataclass
class SpriteResult:
    name: str
    phases: dict[str, Measurement] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(m.total for m in self.phases.values())


def run_small_file(setup: BenchSetup,
                   count: int = DEFAULT_SMALL_COUNT) -> SpriteResult:
    proc = setup.process
    work = setup.workdir
    proc.makedirs(f"{work}/small")
    body = bytes(range(256)) * 4  # 1 KB
    timer = Timer(setup.clock)
    result = SpriteResult(setup.name)

    def create() -> None:
        for index in range(count):
            proc.write_file(f"{work}/small/f{index}", body)

    def read() -> None:
        for index in range(count):
            data = proc.read_file(f"{work}/small/f{index}")
            assert len(data) == 1024

    def unlink() -> None:
        for index in range(count):
            proc.unlink(f"{work}/small/f{index}")

    result.phases["create"] = timer.measure("create", create)
    result.phases["read"] = timer.measure("read", read)
    result.phases["unlink"] = timer.measure("unlink", unlink)
    return result


def run_large_file(setup: BenchSetup,
                   size: int = DEFAULT_LARGE_BYTES,
                   seed: int = 17) -> SpriteResult:
    rng = random.Random(seed)
    proc = setup.process
    work = setup.workdir
    path = f"{work}/large"
    nchunks = size // _CHUNK
    chunk = bytes(range(256)) * (_CHUNK // 256)
    order = list(range(nchunks))
    rng.shuffle(order)
    timer = Timer(setup.clock)
    result = SpriteResult(setup.name)

    def seq_write() -> None:
        fd = proc.open(path, "w")
        for _ in range(nchunks):
            proc.write(fd, chunk)
        proc.fsync(fd)
        proc.close(fd)

    def seq_read() -> None:
        fd = proc.open(path, "r")
        for _ in range(nchunks):
            proc.read(fd, _CHUNK)
        proc.close(fd)

    def rand_write() -> None:
        fd = proc.open(path, "a")
        for index in order:
            proc.lseek(fd, index * _CHUNK)
            proc.write(fd, chunk)
        proc.fsync(fd)
        proc.close(fd)

    def rand_read() -> None:
        fd = proc.open(path, "r")
        for index in order:
            proc.lseek(fd, index * _CHUNK)
            proc.read(fd, _CHUNK)
        proc.close(fd)

    result.phases["seq write"] = timer.measure("seq write", seq_write)
    result.phases["seq read"] = timer.measure("seq read", seq_read)
    result.phases["rand write"] = timer.measure("rand write", rand_write)
    result.phases["rand read"] = timer.measure("rand read", rand_read)
    result.phases["seq read2"] = timer.measure("seq read2", seq_read)
    return result
