"""The client engine: multi-client load on the concurrent simulation.

:mod:`repro.load.workload` defines *what* each simulated client does
(operation mixes, seeded operation streams); :mod:`repro.load.harness`
builds full SFS stacks — client *i* → target *i* (an export and the
files it reads), N sessions against one queued server by default or
spread over a fleet's shards — on the cooperative scheduler, drives
them closed- or open-loop, and reports throughput plus latency
percentiles, overall and per target location.  It is the one engine
every client-driving figure in :mod:`repro.bench` runs on.  Everything
is deterministic per seed: latencies are simulated time, interleavings
come from the scheduler's seeded rng, and no wall-clock value enters a
report.
"""

from .workload import OpMix, OpStream
from .harness import (
    LoadConfig,
    LoadHarness,
    LoadReport,
    Target,
    WorkloadPhase,
)

__all__ = [
    "LoadConfig",
    "LoadHarness",
    "LoadReport",
    "OpMix",
    "OpStream",
    "Target",
    "WorkloadPhase",
]
