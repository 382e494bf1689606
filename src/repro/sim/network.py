"""A virtual network implementing the paper's threat model.

"SFS assumes that malicious parties entirely control the network.
Attackers can intercept packets, tamper with them, and inject new packets
onto the network." (paper section 2.1.2)

The network carries framed records between endpoint pairs (one
:class:`Link` per TCP-connection analogue).  There is one delivery rule:
*a record arrives when the virtual clock reaches its arrival time* —
``send`` schedules a clock timer at ``depart + transmission + latency``
and returns; whoever is waiting yields, or pumps the clock's scheduler,
which advances it.  Every record is routed through an optional
:class:`Adversary` that may observe, modify, drop, reorder, or inject
records.  Security tests use adversaries to prove that the SFS secure
channel rejects all of this; benchmarks use a passive network with the
paper's 100 Mbit switched-Ethernet timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from ..obs.registry import NULL_REGISTRY
from .clock import Clock

#: A message handler: receives raw record bytes.
Handler = Callable[[bytes], None]


class Transport(NamedTuple):
    """What a pipe tells the peers and channels built over it.

    Every pipe offers this as its one ``transport`` attribute; a
    wrapper pipe (secure channel, switchable pipe) forwards its lower
    pipe's, and :class:`~repro.rpc.peer.RpcPeer` reads it once, at
    construction.  A synchronous caller waits by pumping
    ``clock.scheduler``; a transport without a clock names its own
    *wait* (a TCP socket's loop).  A pipe with neither offers nothing
    to wait on.
    """

    #: The virtual clock records arrive by; retry backoff runs on it.
    clock: Clock | None = None
    #: The registry the peer's and channel's counters land in.
    metrics: Any = None
    #: Advisory RPC send-window depth (None = unwindowed).
    window_depth: int | None = None
    #: Round-trip propagation estimate; retransmission timers are
    #: floored at twice it, so a WAN reply still in flight is not
    #: mistaken for a lost one.
    rtt: float = 0.0
    #: Bytes per second in one direction (0.0 = unknown); with *rtt*,
    #: how many bytes in flight fill the path.
    bandwidth: float = 0.0
    #: One round of progress for a transport without a clock.
    wait: Callable[[], None] | None = None


@dataclass
class NetworkParameters:
    """Per-message latency and bandwidth of a link."""

    latency: float = 0.0001  # 100 usec switched-Ethernet round-trip half
    bandwidth: float = 12_500_000.0  # 100 Mbit/s in bytes/sec
    per_message_overhead: int = 100  # Ethernet/IP/TCP framing bytes

    @classmethod
    def lan_100mbit(cls) -> "NetworkParameters":
        return cls()

    @classmethod
    def nfs_udp(cls) -> "NetworkParameters":
        """NFS-over-UDP timing: minimal framing, lowest latency."""
        return cls(latency=0.00008, bandwidth=12_500_000.0,
                   per_message_overhead=50)

    @classmethod
    def nfs_tcp(cls) -> "NetworkParameters":
        """NFS-over-TCP timing: ack/stream overheads cost a little more.

        The paper measured 220 usec vs UDP's 200 usec for a null-ish RPC
        and lower streaming throughput on FreeBSD 3.3.
        """
        return cls(latency=0.00009, bandwidth=10_500_000.0,
                   per_message_overhead=90)

    @classmethod
    def wan(cls) -> "NetworkParameters":
        """Cross-Internet timing: ~20 ms one-way, T3-ish bandwidth.

        The paper's motivation is a file system that spans the Internet;
        at WAN latencies the lease caches are what make that usable.
        """
        return cls(latency=0.020, bandwidth=5_000_000.0,
                   per_message_overhead=100)

    @classmethod
    def instant(cls) -> "NetworkParameters":
        """Zero-cost network for pure protocol tests."""
        return cls(latency=0.0, bandwidth=float("inf"), per_message_overhead=0)


class Adversary:
    """Base adversary: sees every record, passes it through unchanged.

    Subclasses override :meth:`process` to tamper, drop (return None),
    replay, or inject (return multiple records).  The adversary sits on
    the wire *outside* the secure channel, exactly where the paper's
    attacker lives.
    """

    def process(self, data: bytes, direction: str) -> list[bytes]:
        """Return the records to deliver in place of *data*.

        *direction* is ``"a->b"`` or ``"b->a"`` so an adversary can target
        one flow.  Return ``[]`` to drop, ``[data]`` to pass through,
        multiple entries to inject.
        """
        return [data]


class TamperAdversary(Adversary):
    """Flips a bit in the Nth record matching a direction filter."""

    def __init__(self, target_index: int = 0, direction: str | None = None,
                 bit: int = 0) -> None:
        self._target = target_index
        self._direction = direction
        self._bit = bit
        self._seen = 0
        self.tampered = 0

    def process(self, data: bytes, direction: str) -> list[bytes]:
        if self._direction is not None and direction != self._direction:
            return [data]
        index = self._seen
        self._seen += 1
        if index != self._target or not data:
            return [data]
        corrupted = bytearray(data)
        corrupted[(self._bit // 8) % len(corrupted)] ^= 1 << (self._bit % 8)
        self.tampered += 1
        return [bytes(corrupted)]


class ReplayAdversary(Adversary):
    """Records every message and replays an earlier one after the Nth."""

    def __init__(self, replay_after: int = 2, replay_index: int = 0,
                 direction: str | None = None) -> None:
        self._replay_after = replay_after
        self._replay_index = replay_index
        self._direction = direction
        self._log: list[bytes] = []
        self.replayed = 0

    def process(self, data: bytes, direction: str) -> list[bytes]:
        if self._direction is not None and direction != self._direction:
            return [data]
        self._log.append(data)
        if len(self._log) - 1 == self._replay_after and self._replay_index < len(self._log):
            self.replayed += 1
            return [data, self._log[self._replay_index]]
        return [data]


class DropAdversary(Adversary):
    """Silently drops the Nth record (denial of service)."""

    def __init__(self, target_index: int, direction: str | None = None) -> None:
        self._target = target_index
        self._direction = direction
        self._seen = 0
        self.dropped = 0

    def process(self, data: bytes, direction: str) -> list[bytes]:
        if self._direction is not None and direction != self._direction:
            return [data]
        index = self._seen
        self._seen += 1
        if index == self._target:
            self.dropped += 1
            return []
        return [data]


class RandomDropAdversary(Adversary):
    """Drops each record independently with probability *rate*.

    Seeded with a caller-supplied ``random.Random`` so every run of a
    fault-injection test sees exactly the same loss pattern.
    """

    def __init__(self, rate: float, rng: random.Random,
                 direction: str | None = None) -> None:
        self._rate = rate
        self._rng = rng
        self._direction = direction
        self.seen = 0
        self.dropped = 0

    def process(self, data: bytes, direction: str) -> list[bytes]:
        if self._direction is not None and direction != self._direction:
            return [data]
        self.seen += 1
        if self._rng.random() < self._rate:
            self.dropped += 1
            return []
        return [data]


class BurstLossAdversary(Adversary):
    """Gilbert-Elliott burst loss: correlated outages, not lone drops.

    In the good state each record enters a burst with probability
    *enter_rate*; during a burst every record is dropped and the burst
    ends with probability *exit_rate* per record.  Models the cable-pull
    / route-flap failures that defeat naive single-retransmit schemes.
    """

    def __init__(self, enter_rate: float, exit_rate: float,
                 rng: random.Random, direction: str | None = None) -> None:
        self._enter = enter_rate
        self._exit = exit_rate
        self._rng = rng
        self._direction = direction
        self.in_burst = False
        self.bursts = 0
        self.dropped = 0

    def process(self, data: bytes, direction: str) -> list[bytes]:
        if self._direction is not None and direction != self._direction:
            return [data]
        if self.in_burst:
            self.dropped += 1
            if self._rng.random() < self._exit:
                self.in_burst = False
            return []
        if self._rng.random() < self._enter:
            self.in_burst = True
            self.bursts += 1
            self.dropped += 1
            return []
        return [data]


class BitFlipAdversary(Adversary):
    """Flips one seeded-random bit per record with probability *rate*.

    Unlike :class:`TamperAdversary` (which targets one chosen record for
    protocol tests), this models a lossy medium corrupting records at a
    steady background rate.
    """

    def __init__(self, rate: float, rng: random.Random,
                 direction: str | None = None) -> None:
        self._rate = rate
        self._rng = rng
        self._direction = direction
        self.corrupted = 0

    def process(self, data: bytes, direction: str) -> list[bytes]:
        if self._direction is not None and direction != self._direction:
            return [data]
        if not data or self._rng.random() >= self._rate:
            return [data]
        corrupted = bytearray(data)
        bit = self._rng.randrange(len(corrupted) * 8)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        self.corrupted += 1
        return [bytes(corrupted)]


class DuplicateAdversary(Adversary):
    """Delivers a record twice, back to back, with probability *rate*.

    A duplicated record pushes the receiver's streams *ahead* of the
    sender — the mirror image of a drop — so recovery must handle both.
    """

    def __init__(self, rate: float, rng: random.Random,
                 direction: str | None = None) -> None:
        self._rate = rate
        self._rng = rng
        self._direction = direction
        self.duplicated = 0

    def process(self, data: bytes, direction: str) -> list[bytes]:
        if self._direction is not None and direction != self._direction:
            return [data]
        if self._rng.random() < self._rate:
            self.duplicated += 1
            return [data, data]
        return [data]


class ChaosAdversary(Adversary):
    """A composite hostile network: drop, corrupt, and duplicate at
    independent seeded rates.  One shared rng keeps the whole fault
    schedule reproducible from a single seed."""

    def __init__(self, rng: random.Random, drop_rate: float = 0.0,
                 corrupt_rate: float = 0.0, duplicate_rate: float = 0.0,
                 direction: str | None = None) -> None:
        self._rng = rng
        self._drop = drop_rate
        self._corrupt = corrupt_rate
        self._duplicate = duplicate_rate
        self._direction = direction
        self.seen = 0
        self.dropped = 0
        self.corrupted = 0
        self.duplicated = 0

    @property
    def faults(self) -> int:
        return self.dropped + self.corrupted + self.duplicated

    def process(self, data: bytes, direction: str) -> list[bytes]:
        if self._direction is not None and direction != self._direction:
            return [data]
        self.seen += 1
        if self._rng.random() < self._drop:
            self.dropped += 1
            return []
        if data and self._rng.random() < self._corrupt:
            corrupted = bytearray(data)
            bit = self._rng.randrange(len(corrupted) * 8)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            self.corrupted += 1
            data = bytes(corrupted)
        if self._rng.random() < self._duplicate:
            self.duplicated += 1
            return [data, data]
        return [data]


class RecordingAdversary(Adversary):
    """A passive eavesdropper; keeps a transcript for offline analysis.

    Used by tests that check forward secrecy and that no plaintext
    appears on the wire.
    """

    def __init__(self) -> None:
        self.transcript: list[tuple[str, bytes]] = []

    def process(self, data: bytes, direction: str) -> list[bytes]:
        self.transcript.append((direction, data))
        return [data]


class LinkDown(ConnectionError):
    """Raised when sending on a closed link.

    Subclasses :class:`ConnectionError` so transport-level failure is
    distinguishable from protocol errors: the RPC layer converts it to
    an immediate :class:`~repro.rpc.peer.RpcTransportDown` rather than
    retransmitting into a dead link.
    """


class Medium:
    """Shared serialization state: one transmission on the wire at a time.

    Links that share a Medium (all the links terminating at one server's
    NIC) contend for its bandwidth: a record sent while the medium is
    still carrying an earlier record queues behind it, store-and-forward
    — its arrival is pushed back by the queueing delay plus its own
    transmission time.  A link given no shared medium has a private one
    per direction, and a disk (:mod:`repro.sim.disk`) books its arm on
    one the same way: one device model.
    """

    __slots__ = ("name", "busy_until")

    def __init__(self, name: str = "medium") -> None:
        self.name = name
        self.busy_until = 0.0

    def occupy(self, now: float, tx_seconds: float) -> float:
        """Claim the medium for *tx_seconds*; returns the queueing wait."""
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + tx_seconds
        return start - now


@dataclass
class _Endpoint:
    handler: Handler | None = None


class Link:
    """A bidirectional record pipe between two endpoints ("a" and "b").

    ``send_a(data)`` costs the sender nothing inline: the record departs
    now and b's handler runs from a clock timer at its arrival time
    (once per record the adversary lets through or injects).
    Transmissions in one direction serialize on the wire; propagation,
    remote processing and the return path overlap across in-flight
    records.  A zero-latency, infinite-bandwidth link (the loopbacks)
    arrives at ``now``: the clock does not move, but the handler still
    runs from the timer, not from inside ``send``.
    """

    def __init__(
        self,
        clock: Clock,
        params: NetworkParameters | None = None,
        adversary: Adversary | None = None,
        metrics=None,
        media: "dict[str, Medium] | None" = None,
    ) -> None:
        self._clock = clock
        self._params = params or NetworkParameters.instant()
        self._adversary = adversary
        self._a = _Endpoint()
        self._b = _Endpoint()
        self._open = True
        #: Advisory RPC send-window depth for peers built over this
        #: link; World gives every wire link its pipeline depth (None =
        #: unwindowed).
        self.window_depth: "int | None" = None
        #: The medium each direction transmits on ({"a->b": ..., "b->a":
        #: ...}): a shared one where given (see :class:`Medium`), else
        #: this link's own.
        self._media = {"a->b": Medium("a->b"), "b->a": Medium("b->a"),
                       **(media or {})}
        #: Called (once each) when the link closes; RpcPeer hangs the
        #: failure of its in-flight call futures here.
        self._close_handlers: list[Callable[[], None]] = []
        self.messages = 0
        self.bytes_carried = 0
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_messages = self._metrics.counter("net.messages")
        self._m_bytes = self._metrics.counter("net.bytes")
        # Fault-injection visibility: adversaries stay metrics-agnostic;
        # the link infers what happened by diffing their output.
        self._m_dropped = self._metrics.counter("net.faults.dropped")
        self._m_injected = self._metrics.counter("net.faults.injected")
        self._m_tampered = self._metrics.counter("net.faults.tampered")
        self._m_medium_waits = self._metrics.counter("net.medium_waits")
        self._m_medium_wait_s = self._metrics.histogram(
            "net.medium_wait_seconds"
        )
        # Wire visibility: total time records spent on the wire
        # (queueing + transmission + propagation), record count, and
        # records lost because the link closed while they were in
        # flight.  ``wire_seconds`` is what the bench attribution table
        # cites to show the network time that a depth-N window
        # overlapped instead of serializing.
        self._m_wire_records = self._metrics.counter("net.pipelined.records")
        self._m_wire_seconds = self._metrics.counter(
            "net.pipelined.wire_seconds"
        )
        self._m_inflight_lost = self._metrics.counter(
            "net.pipelined.lost_in_flight"
        )

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def metrics(self):
        return self._metrics

    #: Location name this link was dialed to, tagged by World.connector;
    #: lets scenario events re-profile "every open link to host X".
    location: str | None = None

    def set_adversary(self, adversary: Adversary | None) -> None:
        self._adversary = adversary

    def set_params(self, params: NetworkParameters) -> None:
        """Re-time this link in place (a route change mid-connection).

        Records already delivered keep their original charges; every
        later record pays the new latency/bandwidth.  This is how a
        scenario turns a LAN link into a lossy WAN link mid-run without
        tearing the connection down.
        """
        self._params = params

    def on_receive_a(self, handler: Handler) -> None:
        """Install the handler for records arriving at endpoint a."""
        self._a.handler = handler

    def on_receive_b(self, handler: Handler) -> None:
        """Install the handler for records arriving at endpoint b."""
        self._b.handler = handler

    def on_close(self, handler: Callable[[], None]) -> None:
        """Register a handler to run when the link closes."""
        self._close_handlers.append(handler)

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        handlers, self._close_handlers = self._close_handlers, []
        for handler in handlers:
            handler()

    @property
    def is_open(self) -> bool:
        return self._open

    def _deliver(self, endpoint: _Endpoint, data: bytes, direction: str) -> None:
        if not self._open:
            raise LinkDown("link is closed")
        if endpoint.handler is None:
            raise LinkDown("no handler installed at destination")
        records = [data]
        if self._adversary is not None:
            records = self._adversary.process(data, direction)
            if not records:
                self._m_dropped.inc()
            else:
                if len(records) > 1:
                    self._m_injected.inc(len(records) - 1)
                if records[0] != data:
                    self._m_tampered.inc()
        for record in records:
            self.messages += 1
            self.bytes_carried += len(record)
            self._m_messages.inc()
            self._m_bytes.inc(len(record))
            self._schedule_arrival(endpoint, record, direction)

    def _schedule_arrival(self, endpoint: _Endpoint, record: bytes,
                          direction: str) -> None:
        """Depart now, arrive via a clock timer.

        The sender pays nothing inline.  Transmission serializes per
        direction on that direction's :class:`Medium`, then the record
        propagates for ``latency`` and is handed to the destination
        handler when the clock crosses the arrival time.  Records in flight when the
        link closes are lost silently — exactly a cable pull.
        """
        params = self._params
        # (x / inf is 0.0: the instant profile transmits in no time.)
        tx = (len(record) + params.per_message_overhead) / params.bandwidth
        now = self._clock.now
        wait = self._media[direction].occupy(now, tx)
        if wait > 0:
            self._m_medium_waits.inc()
            self._m_medium_wait_s.observe(wait)
        arrival = now + wait + tx + params.latency
        self._m_wire_records.inc()
        self._m_wire_seconds.inc(arrival - now)

        def arrive() -> None:
            if not self._open or endpoint.handler is None:
                self._m_inflight_lost.inc()
                return
            try:
                endpoint.handler(record)
            except ConnectionError:
                # The receiving machine died handling the record (a
                # crash closes its links, then unwinds it).  The unwind
                # stops at its own wire: whoever is advancing the clock
                # is some other endpoint, which learns of the death
                # from its close hook.
                pass

        self._clock.call_at(arrival, arrive)

    def send_a(self, data: bytes) -> None:
        """Send from endpoint a to endpoint b."""
        self._deliver(self._b, data, "a->b")

    def send_b(self, data: bytes) -> None:
        """Send from endpoint b to endpoint a."""
        self._deliver(self._a, data, "b->a")


class LinkSide:
    """One side of a link presented as a simple send/receive object."""

    def __init__(self, link: Link, side: str) -> None:
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        self._link = link
        self._side = side

    @property
    def link(self) -> Link:
        return self._link

    @property
    def transport(self) -> Transport:
        """This link as its peers see it, as of now: its clock and
        registry, window depth, and round trip (2x one-way latency)
        and bandwidth."""
        link = self._link
        return Transport(link.clock, link.metrics, link.window_depth,
                         2.0 * link._params.latency, link._params.bandwidth)

    def send(self, data: bytes) -> None:
        if self._side == "a":
            self._link.send_a(data)
        else:
            self._link.send_b(data)

    def on_receive(self, handler: Handler) -> None:
        if self._side == "a":
            self._link.on_receive_a(handler)
        else:
            self._link.on_receive_b(handler)

    def on_close(self, handler: Callable[[], None]) -> None:
        self._link.on_close(handler)

    def close(self) -> None:
        self._link.close()

    @property
    def is_open(self) -> bool:
        return self._link.is_open


def link_pair(
    clock: Clock,
    params: NetworkParameters | None = None,
    adversary: Adversary | None = None,
    metrics=None,
    media: dict[str, Medium] | None = None,
) -> tuple[LinkSide, LinkSide]:
    """Create a link and return its two sides (client side first)."""
    link = Link(clock, params, adversary, metrics, media=media)
    return LinkSide(link, "a"), LinkSide(link, "b")
