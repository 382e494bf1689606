"""Cross-layer observability: metrics registry, tracing, exporters.

The paper's evaluation (section 4) attributes SFS overhead to specific
layers — software encryption, user-level RPC relaying, NFS round trips.
This package is the measurement substrate that makes the same
decomposition possible in the reproduction:

* :mod:`repro.obs.registry` — counters, gauges, and fixed-bucket
  histograms under hierarchical names (``rpc.calls``,
  ``channel.mac_reject``, ``nfs3.ops.read``).  Registries are
  instance-scoped: each :class:`repro.kernel.world.World` owns one, so
  parallel tests never share state.  :data:`NULL_REGISTRY` disables
  everything at near-zero cost.
* :mod:`repro.obs.trace` — nested spans recording both CPU time
  (``time.perf_counter``) and simulated time (:mod:`repro.sim.clock`),
  plus the :class:`~repro.obs.trace.Attribution` window behind the
  figures' per-layer split, one clock at a time.
* :mod:`repro.obs.export` — JSON snapshots and paper-style text tables
  (imported on demand; ``python -m repro.obs snapshot.json`` pretty-
  prints a file).

Determinism: nothing here reads wall-clock time except through
``time.perf_counter`` for CPU measurement — the same dependency
:mod:`repro.bench.timing` already has.  Counter values depend only on
the instrumented code path.
"""

from .registry import (
    Counter,
    CounterFamily,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    ScopedRegistry,
)
from .trace import Span, Tracer

__all__ = [
    "Counter",
    "CounterFamily",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "ScopedRegistry",
    "Span",
    "Tracer",
]
