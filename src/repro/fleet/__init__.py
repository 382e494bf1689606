"""Fleet federation: sharded namespace + untrusted replica tier.

See :mod:`repro.fleet.fleet` for the big picture.  The pieces:

* :mod:`~repro.fleet.sharding` — consistent hashing over HostIDs.
* :mod:`~repro.fleet.fleet` — N shard servers behind one CA namespace.
* :mod:`~repro.fleet.replicas` — verified fetching over untrusted
  mirrors with latency-ranked selection and tamper demotion.

The ``bench fleet`` scaling figure is :mod:`repro.bench.fleet`.
"""

from .fleet import Fleet, Shard
from .replicas import (
    Replica,
    ReplicaMisconductError,
    ReplicaSet,
    dial_readonly,
)
from .sharding import HashRing

__all__ = [
    "Fleet",
    "HashRing",
    "Replica",
    "ReplicaMisconductError",
    "ReplicaSet",
    "Shard",
    "dial_readonly",
]
