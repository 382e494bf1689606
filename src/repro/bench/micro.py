"""Figure 5: micro-benchmarks for basic operations.

Latency: "we measured the cost of a file system operation that always
requires a remote RPC but never requires a disk access — an unauthorized
fchown system call."

Throughput: "we measured the speed of streaming data from the server
without going to disk.  We sequentially read a sparse, 1,000 Mbyte
file."  We default to a scaled-down sparse file (the ratio between
configurations is what the figure shows); the size is a parameter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..kernel.vfs import KernelError
from .setups import BenchSetup

DEFAULT_LATENCY_OPS = 200
DEFAULT_THROUGHPUT_BYTES = 2 << 20  # scaled stand-in for 1,000 MB
_CHUNK = 8192


@dataclass
class MicroResult:
    """One row of figure 5."""

    name: str
    latency_usec: float
    throughput_mbs: float
    attribution: dict[str, float] | None = None
    headline_seconds: float = 0.0


def measure_latency(setup: BenchSetup, ops: int = DEFAULT_LATENCY_OPS) -> float:
    """Mean microseconds for an unauthorized fchown round trip.

    The file is opened once; each iteration is exactly one SETATTR RPC
    that fails with EPERM — a remote round trip with no disk access,
    matching the paper's methodology.
    """
    proc = setup.process
    target = f"{setup.workdir}/chown-target"
    proc.write_file(target, b"x")
    fd = proc.open(target, "r")
    for _ in range(3):  # warm every cache on the path
        _unauthorized_fchown(proc, fd)
    sim_start = setup.clock.now
    cpu_start = time.perf_counter()
    for _ in range(ops):
        _unauthorized_fchown(proc, fd)
    cpu = time.perf_counter() - cpu_start
    sim = setup.clock.now - sim_start
    proc.close(fd)
    return (cpu + sim) / ops * 1e6


def _unauthorized_fchown(proc, fd: int) -> None:
    try:
        proc.fchown(fd, 0)  # non-owner chown to root: always EPERM
    except KernelError:
        pass
    else:
        raise AssertionError("unauthorized fchown unexpectedly succeeded")


def measure_throughput(setup: BenchSetup,
                       size: int = DEFAULT_THROUGHPUT_BYTES) -> float:
    """Sequential sparse-file read rate in MB/s."""
    proc = setup.process
    path = f"{setup.workdir}/sparse"
    fd = proc.open(path, "w")
    proc.close(fd)
    proc.truncate(path, size)  # sparse: no blocks allocated
    fd = proc.open(path, "r")
    sim_start = setup.clock.now
    cpu_start = time.perf_counter()
    remaining = size
    while remaining > 0:
        data = proc.read(fd, min(_CHUNK, remaining))
        if not data:
            break
        remaining -= len(data)
    cpu = time.perf_counter() - cpu_start
    sim = setup.clock.now - sim_start
    proc.close(fd)
    total = cpu + sim
    return (size / (1 << 20)) / total


def run_micro(setup: BenchSetup, ops: int = DEFAULT_LATENCY_OPS,
              size: int = DEFAULT_THROUGHPUT_BYTES) -> MicroResult:
    """Run both micro-benchmarks, attributing time to protocol layers.

    The layer tracker is reset right as the headline timers start, so
    the exclusive per-layer times it accumulates sum to the headline by
    construction (gaps land in "other").
    """
    layers = setup.metrics.layers
    layers.reset()
    sim_start = setup.clock.now
    cpu_start = time.perf_counter()
    latency_usec = measure_latency(setup, ops)
    throughput_mbs = measure_throughput(setup, size)
    headline = ((time.perf_counter() - cpu_start)
                + (setup.clock.now - sim_start))
    breakdown = layers.breakdown()
    attribution = ({name: cpu + sim for name, (cpu, sim) in breakdown.items()}
                   if setup.metrics.enabled else None)
    return MicroResult(
        name=setup.name,
        latency_usec=latency_usec,
        throughput_mbs=throughput_mbs,
        attribution=attribution,
        headline_seconds=headline,
    )
