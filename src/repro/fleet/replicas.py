"""The untrusted read-only replica tier: client-side mirror selection.

"It also frees read-only servers from the need to keep any on-line
copies of their private keys, which in turn allows read-only file
systems to be replicated on untrusted machines" (paper section 2.4).
This module is the client half of that claim at fleet scale: a
:class:`ReplicaSet` fronts N mirrors of one signed image and picks the
one to fetch from by *observed* latency and health.

The security model does not change one bit — every blob is still
verified against its digest (here, *before* the byte leaves this
module) and the root signature is still checked against the pathname's
HostID by :class:`~repro.core.readonly.ReadOnlyClient`.  What the set
adds is availability policy:

* **selection** — healthy replicas are ranked by an EWMA of observed
  fetch latency; an unprobed replica ranks first so every mirror gets
  measured once.  Ties break by the caller's seeded RNG.
* **demotion** — a dead mirror (transport error) or one missing a blob
  is demoted for a cooldown and redialed later; a *tampering* mirror
  (digest mismatch on a blob it did return) is banned outright.  A
  tampered blob never escapes: the fetch fails over to the next mirror
  and the caller sees correct bytes or ReadOnlyError, never garbage.
* **reselection** — when every replica is down, the shared
  :class:`~repro.core.backoff.BackoffPolicy` paces re-probing (with
  jitter, so a fleet of clients does not stampede recovering mirrors),
  exactly like the read-write failover engine it composes with.

Dialing and fetching are task generators (``yield from``): a fetch
yields while its RPC is out and a backoff is ``yield Sleep(delay)``, so
the read-only mount's handlers wait without running the clock.
"""

from __future__ import annotations

import random
from typing import Callable, Generator

from ..core import proto
from ..core.backoff import BackoffPolicy
from ..core.readonly import ReadOnlyError
from ..crypto.sha1 import sha1
from ..obs.registry import NULL_REGISTRY
from ..rpc.peer import RpcError
from ..sim.clock import Clock
from ..sim.sched import Sleep

#: A transient failure sidelines a replica for this many (simulated)
#: seconds before it becomes eligible for redial.
DEFAULT_COOLDOWN = 1.0

#: EWMA smoothing for observed fetch latency.
LATENCY_ALPHA = 0.3

#: dial() -> a task (``yield from``) returning (fetch_root, fetch_data),
#: themselves generator functions; raises ConnectionError/RpcError.
Dialer = Callable[[], Generator]


class ReplicaMisconductError(Exception):
    """A mirror answered with something no honest-but-stale mirror
    could: a public key that does not hash to the pathname's HostID.
    The replica set treats this like a digest mismatch — permanent ban."""


def dial_readonly(connector, location: str, path, ephemeral_keys, rng):
    """Dial *location* and speak the read-only dialect for *path*
    (``yield from``; returns the session's fetchers).

    The dial location and the pathname's Location may differ — that is
    the whole replica tier: an untrusted mirror at ``mirror7.volunteer``
    serves an image published for ``sfs.lcs.mit.edu``, and the client
    still verifies against the original name (the ServInfo carries the
    *publisher's* key, which must hash to the pathname's HostID).
    """
    # Runtime import: core.client lazily imports this module too.
    from ..core.client import (MountError, SecurityError, ServerSession,
                               readonly_fetchers)

    link = connector(location, proto.SERVICE_READONLY)
    peer, pipe = ServerSession._transport(link, path)
    try:
        outcome = yield from ServerSession.connect_task(
            peer, pipe, path, ephemeral_keys, rng,
            service=proto.SERVICE_READONLY, encrypt=False)
    except SecurityError as exc:
        # Wrong key for the HostID: an impostor, not an outage.
        raise ReplicaMisconductError(f"{location}: {exc}") from None
    except MountError as exc:
        # The mirror is up but no longer carries the export — stale,
        # which is an availability problem, not a security one.
        raise ConnectionError(f"{location}: {exc}") from None
    if not isinstance(outcome, ServerSession) \
            or outcome.servinfo.dialect != proto.DIALECT_RO:
        raise ConnectionError(
            f"{location} does not serve the read-only dialect for "
            f"{path.mount_name}"
        )
    return readonly_fetchers(outcome)


class Replica:
    """One mirror: a dialer, its health state, and latency history."""

    def __init__(self, name: str, dial: Dialer, clock: Clock,
                 cooldown: float = DEFAULT_COOLDOWN) -> None:
        self.name = name
        self._dial = dial
        self.clock = clock
        self.cooldown = cooldown
        self._fetchers = None
        #: EWMA of observed fetch latency; None until first probe.
        self.latency: float | None = None
        #: Additive rank penalty (simulated seconds) steered in by the
        #: control plane: a positive bias makes this mirror look slower
        #: than measured, shifting selection toward its peers without
        #: touching health state (a ban still trumps any bias).
        self.steering_bias = 0.0
        self.fetches = 0
        self.failures = 0
        self.banned = False
        self.down_until = 0.0

    def usable(self) -> bool:
        return not self.banned and self.clock.now >= self.down_until

    def rank(self) -> float:
        """Selection score: lower is better; unprobed ranks first."""
        base = -1.0 if self.latency is None else self.latency
        return base + self.steering_bias

    def _connected(self):
        if self._fetchers is None:
            self._fetchers = yield from self._dial()
        return self._fetchers

    def _observe(self, seconds: float) -> None:
        if self.latency is None:
            self.latency = seconds
        else:
            self.latency = (LATENCY_ALPHA * seconds
                            + (1.0 - LATENCY_ALPHA) * self.latency)

    def fetch_root(self):
        fetch_root, _ = yield from self._connected()
        start = self.clock.now
        res = yield from fetch_root()
        self._observe(self.clock.now - start)
        self.fetches += 1
        return res

    def fetch_data(self, digest: bytes):
        _, fetch_data = yield from self._connected()
        start = self.clock.now
        blob = yield from fetch_data(digest)
        self._observe(self.clock.now - start)
        self.fetches += 1
        return blob

    def sideline(self) -> None:
        """Transient demotion: cooldown, then eligible for redial."""
        self.failures += 1
        self.down_until = self.clock.now + self.cooldown
        self._fetchers = None  # force a fresh dial on reuse

    def ban(self) -> None:
        """Permanent demotion: the mirror returned a digest-mismatched
        blob, which no network fault can explain."""
        self.failures += 1
        self.banned = True
        self._fetchers = None

    def stats(self) -> dict:
        return {
            "name": self.name,
            "latency_ewma": self.latency,
            "steering_bias": self.steering_bias,
            "fetches": self.fetches,
            "failures": self.failures,
            "banned": self.banned,
            "usable": self.usable(),
        }


class ReplicaSet:
    """Verified fetching with latency-ranked selection over mirrors.

    Drop-in transport for :class:`~repro.core.readonly.ReadOnlyClient`:
    give it what :meth:`fetch_root` returns and :meth:`fetch_data`, both
    task generators (``yield from``).
    ``fetch_data`` verifies the digest *before* returning, so a
    tampering mirror costs one extra round trip, never a wrong byte
    (the ReadOnlyClient re-checks, making the invariant double-entry).
    """

    def __init__(self, replicas: list[Replica], clock: Clock,
                 rng: random.Random,
                 backoff: BackoffPolicy | None = None,
                 metrics=NULL_REGISTRY) -> None:
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.replicas = list(replicas)
        self.clock = clock
        self.rng = rng
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._m_fetches = metrics.counter("fleet.replica.fetches")
        self._m_failovers = metrics.counter("fleet.replica.failovers")
        self._m_demotions = metrics.counter("fleet.replica.demotions")
        self._m_bans = metrics.counter("fleet.replica.bans")
        self._m_corrupt = metrics.counter("fleet.replica.corrupt_blobs")
        self._m_backoff_waits = metrics.counter(
            "fleet.replica.backoff_waits"
        )
        self._m_steering = metrics.counter("fleet.replica.steering_updates")

    # -- steering ------------------------------------------------------------

    def set_steering_bias(self, name: str, bias: float) -> None:
        """Steer selection away from (bias > 0) or back toward (0) the
        named replica.  The bias composes with, never overrides, health
        state: a banned mirror stays banned and a sidelined one stays
        sidelined no matter the bias — steering is a *preference*, the
        demotion rules are *policy* (PROTOCOLS.md §13/§14).
        """
        for replica in self.replicas:
            if replica.name == name:
                if replica.steering_bias != bias:
                    replica.steering_bias = bias
                    self._m_steering.inc()
                return
        raise KeyError(f"no replica named {name!r} in this set")

    def clear_steering(self) -> None:
        """Drop every steering bias (rankings return to raw EWMA)."""
        for replica in self.replicas:
            if replica.steering_bias:
                replica.steering_bias = 0.0
                self._m_steering.inc()

    # -- selection ----------------------------------------------------------

    def select(self) -> Replica | None:
        """The healthy replica with the best observed latency."""
        usable = [replica for replica in self.replicas if replica.usable()]
        if not usable:
            return None
        best = min(replica.rank() for replica in usable)
        tied = [replica for replica in usable if replica.rank() == best]
        return tied[0] if len(tied) == 1 else self.rng.choice(tied)

    def _candidate(self, tried: set[str]):
        """The best usable replica not in *tried*, which it joins, or
        None when none is left (``yield from``).  A full-set outage is
        paced by the jittered backoff policy: wait out cooldowns, then
        start a fresh round over anything that recovered."""
        while True:
            usable = sorted(
                (replica for replica in self.replicas
                 if replica.usable() and replica.name not in tried),
                key=lambda replica: (replica.rank(), replica.name),
            )
            if usable:
                tried.add(usable[0].name)
                return usable[0]
            for delay in self.backoff.delays(self.rng):
                if delay:
                    self._m_backoff_waits.inc()
                    yield Sleep(delay)
                if any(replica.usable() for replica in self.replicas):
                    break
            else:
                return None
            tried.clear()

    # -- the ReadOnlyClient transport surface -------------------------------

    def fetch_root(self):
        """GETROOT from the best mirror, failing over past dead ones."""
        tried: set[str] = set()
        first = True
        while (replica := (yield from self._candidate(tried))) is not None:
            if not first:
                self._m_failovers.inc()
            first = False
            try:
                res = yield from replica.fetch_root()
            except (ConnectionError, OSError, RpcError):
                self._demote(replica)
                continue
            except ReplicaMisconductError:
                self._ban(replica)
                continue
            self._m_fetches.inc()
            return res
        raise ReadOnlyError("no replica answered GETROOT")

    def fetch_data(self, digest: bytes):
        """One verified blob: correct bytes from *some* mirror, or an
        error — never unverified data, whatever any mirror does."""
        tried: set[str] = set()
        first = True
        while (replica := (yield from self._candidate(tried))) is not None:
            if not first:
                self._m_failovers.inc()
            first = False
            try:
                blob = yield from replica.fetch_data(digest)
            except (ConnectionError, OSError, RpcError):
                self._demote(replica)
                continue
            except ReplicaMisconductError:
                self._ban(replica)
                continue
            if blob is None:
                # A mirror of a signed image that lacks one of its
                # blobs is stale or lying; either way, not servable.
                self._demote(replica)
                continue
            if sha1(blob) != digest:
                self._m_corrupt.inc()
                self._ban(replica)
                continue
            self._m_fetches.inc()
            return blob
        raise ReadOnlyError(
            f"no healthy replica holds {digest.hex()[:12]} "
            f"({sum(r.banned for r in self.replicas)} banned, "
            f"{len(self.replicas)} total)"
        )

    # -- demotion ------------------------------------------------------------

    def _demote(self, replica: Replica) -> None:
        replica.sideline()
        self._m_demotions.inc()

    def _ban(self, replica: Replica) -> None:
        replica.ban()
        self._m_demotions.inc()
        self._m_bans.inc()

    def stats(self) -> list[dict]:
        return [replica.stats() for replica in self.replicas]
