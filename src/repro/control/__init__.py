"""The fleet control plane: see → judge → steer, on the virtual clock.

Everything the fleet does is already measured — each World carries a
metrics registry, and (since this subsystem) each simulated machine a
per-source one — but measurement alone cannot *steer*.  This package is
the star-topology single enforcement point over those silos:

* :mod:`collector` — heartbeat-driven snapshot aggregation with
  bounded per-source time-series rings and stale/dead marking;
* :mod:`slo` — declarative fleet-wide SLO specs (windowed histogram
  quantiles, counter rates, gauge watermarks) evaluated every tick;
* :mod:`policy` — closed-loop actuators feeding decisions back into
  the mechanisms earlier PRs built: dynamic admission depth (AIMD),
  replica steering biases, and closed-loop load shedding;
* :mod:`plane` — the ControlPlane wiring all three into one daemon
  task per World (``World.enable_control()``).

The ``bench control`` figure — a hot-shard fleet with and without the
loop closed — is :mod:`repro.bench.control`.

Nothing here adds trust: the control plane reads metrics and tunes
*availability* policy — admission bounds, replica preference, offered
load — never keys, signatures, or verification (the paper's separation
applies to the management plane too).
"""

from .collector import Collector, SourceRecord
from .plane import ControlPlane
from .policy import (
    AimdAdmission,
    LoadShedder,
    PolicyAction,
    PolicyEngine,
    ReplicaSteerer,
)
from .slo import SloEngine, SloSpec, SloStatus

__all__ = [
    "AimdAdmission",
    "Collector",
    "ControlPlane",
    "LoadShedder",
    "PolicyAction",
    "PolicyEngine",
    "ReplicaSteerer",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "SourceRecord",
]
