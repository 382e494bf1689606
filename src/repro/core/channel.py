"""The SFS secure channel.

"Clients and read-write servers always communicate over a low-level
secure channel that guarantees secrecy, data integrity, freshness
(including replay prevention), and forward secrecy." (paper 2.1.2)

Mechanics (paper section 3.1.3): traffic is encrypted with ARC4 (20-byte
session keys, key schedule spun once per 128 key bits) and authenticated
with a SHA-1-based MAC re-keyed per message from keystream bytes not used
for encryption.  "The MAC is computed on the length and plaintext
contents of each RPC message.  The length, message, and MAC all get
encrypted."

Each direction has its own key and its own continuously-running streams,
so replayed, reordered, or dropped records desynchronize the cipher state
and fail the MAC.  Failed records are *dropped* (and counted), which
degrades an attack to denial of service — exactly the paper's guarantee
that "attackers can do no worse than delay the file system's operation".

Because a *dropped* record leaves the receiver permanently behind the
sender, the channel also supervises its own health: a burst of
consecutive rejections flips the :attr:`desynchronized` signal, and the
session layer responds by re-running key negotiation and calling
:meth:`rekey` to swap fresh streams in — turning permanent loss back
into mere delay.  The resynchronization handshake itself must work when
the streams are useless, so a reserved plaintext *control record* format
(prefix :data:`CONTROL_PREFIX`) bypasses the crypto entirely; forging
one buys an attacker nothing beyond another denial-of-service lever.
"""

from __future__ import annotations

from typing import Callable

from ..crypto.arc4 import ARC4
from ..crypto.mac import MAC_LEN, SessionMAC
from ..obs.registry import NULL_REGISTRY
from ..sim.network import Transport

_LEN_BYTES = 4

#: Plaintext control records start with this marker.  The first byte is
#: 0xFF, so a control record can never collide with an RPC message: the
#: xid would have to exceed 0xFF000000, far above any xid either side
#: ever assigns.
CONTROL_PREFIX = b"\xffSFS-CTRL\xff"

#: Control payloads of the resynchronization handshake.  The client asks
#: the server to fall back to plaintext for a re-keying exchange; the
#: server acknowledges once it has.  Neither carries authority — the
#: REKEY RPC that follows is what proves session continuity.
RESYNC_REQUEST = b"RESYNC-REQ"
RESYNC_ACK = b"RESYNC-ACK"

#: Consecutive rejected records before the channel reports desync.  One
#: rejection can be a lone tampered record (streams still aligned, only
#: that record lost); two in a row means the streams themselves are bad.
DESYNC_THRESHOLD = 2


def make_control_record(payload: bytes) -> bytes:
    """Frame *payload* as a plaintext control record."""
    return CONTROL_PREFIX + payload


def parse_control_record(record: bytes) -> bytes | None:
    """The control payload, or None if *record* is not a control record.

    Accepts any bytes-like *record* — record routers sit both below the
    channel (raw transport, bytes) and above it (verified plaintext,
    delivered as a zero-copy view).
    """
    if record[:len(CONTROL_PREFIX)] == CONTROL_PREFIX:
        tail = record[len(CONTROL_PREFIX):]
        return tail if tail.__class__ is bytes else bytes(tail)
    return None


class SecureChannel:
    """Wraps a pipe; presents the same pipe interface with crypto inside.

    *send_key* keys the outbound stream and MAC, *recv_key* the inbound
    ones; a client passes (k_CS, k_SC) and a server (k_SC, k_CS).

    ``encrypt=False`` turns the channel into a transparent pass-through —
    the paper's "SFS w/o encryption" configuration used to isolate the
    cost of cryptography in section 4.
    """

    def __init__(self, pipe, send_key: bytes, recv_key: bytes,
                 encrypt: bool = True) -> None:
        self._pipe = pipe
        self._encrypt = encrypt
        self._handler: Callable[[bytes], None] | None = None
        #: Receives control-record payloads (resync handshake).  Control
        #: records never reach the data handler; with no control handler
        #: installed they are counted and dropped like any junk.
        self.control_handler: Callable[[bytes], None] | None = None
        #: The lower pipe's description, passed on to the peer above.
        self.transport = getattr(pipe, "transport", None) or Transport()
        self.metrics = self.transport.metrics or NULL_REGISTRY
        self._m_sent = self.metrics.counter("channel.records_sent")
        self._m_received = self.metrics.counter("channel.records_received")
        self._m_rejects = self.metrics.counter("channel.mac_reject")
        self._m_desyncs = self.metrics.counter("channel.desyncs")
        self._m_rekeys = self.metrics.counter("channel.rekeys")
        self._m_unhandled = self.metrics.counter("channel.unhandled")
        self.rejected_records = 0
        self.records_sent = 0
        self.records_received = 0
        #: Records dropped because nothing was listening above us.
        self.unhandled_records = 0
        self.consecutive_rejects = 0
        self.rekeys = 0
        self._desync_reported = False
        if encrypt:
            self._init_streams(send_key, recv_key)
        pipe.on_receive(self._on_record)

    def _init_streams(self, send_key: bytes, recv_key: bytes) -> None:
        self._send_stream = ARC4(send_key)
        self._recv_stream = ARC4(recv_key)
        self._send_mac = SessionMAC(send_key)
        self._recv_mac = SessionMAC(recv_key)

    # --- supervision ---------------------------------------------------------

    @property
    def desynchronized(self) -> bool:
        """True once enough consecutive records failed that the stream
        state itself — not any individual record — must be bad."""
        return self.consecutive_rejects >= DESYNC_THRESHOLD

    def rekey(self, send_key: bytes, recv_key: bytes) -> None:
        """Swap in fresh streams from newly negotiated session keys.

        Both endpoints must rekey from the same negotiation; the old
        stream positions are abandoned, which is the whole point — the
        new streams start aligned no matter how far apart loss pushed
        the old ones.
        """
        if not self._encrypt:
            return
        self._init_streams(send_key, recv_key)
        self.consecutive_rejects = 0
        self._desync_reported = False
        self.rekeys += 1
        self._m_rekeys.inc()

    def attach(self) -> None:
        """(Re-)point the underlying pipe's delivery at this channel.

        Needed when a supervising pipe temporarily took the raw transport
        back (plaintext resync phase) and now restores the channel.
        """
        self._pipe.on_receive(self._on_record)

    def send_control(self, payload: bytes) -> None:
        """Send a plaintext control record, bypassing the streams."""
        self._pipe.send(make_control_record(payload))

    def _reject(self) -> None:
        self.rejected_records += 1
        self._m_rejects.inc()
        self.consecutive_rejects += 1
        if self.desynchronized and not self._desync_reported:
            self._desync_reported = True
            self._m_desyncs.inc()

    # --- pipe interface ------------------------------------------------------

    def send(self, data: bytes) -> None:
        self.records_sent += 1
        self._m_sent.inc()
        if not self._encrypt:
            self._pipe.send(data)
            return
        # Seal in one buffer: length‖payload‖MAC assembled once, then
        # encrypted where it lies, in one pass.
        mac = self._send_mac.compute(data)
        n = len(data)
        record = bytearray(_LEN_BYTES + n + len(mac))
        record[:_LEN_BYTES] = n.to_bytes(_LEN_BYTES, "big")
        record[_LEN_BYTES:_LEN_BYTES + n] = data
        record[_LEN_BYTES + n:] = mac
        self._send_stream.encrypt(record, record)
        self._pipe.send(record)

    def on_receive(self, handler: Callable[[bytes], None]) -> None:
        self._handler = handler

    def _on_record(self, record: bytes) -> None:
        control = parse_control_record(record)
        if control is not None:
            # Control records are plaintext and unauthenticated by
            # design (they must survive a desynchronized channel); they
            # carry no data-path authority, so routing them to a
            # dedicated handler keeps injected ones away from RPC.
            if self.control_handler is not None:
                self.control_handler(control)
            else:
                self.rejected_records += 1
            return
        if not self._encrypt:
            self._deliver(record)
            return
        plaintext = None
        body = self._recv_stream.decrypt(record)
        if len(body) < _LEN_BYTES + MAC_LEN:
            # The cipher stream consumed this record's bytes; burn the
            # matching MAC slot so the two receive streams stay in
            # lock-step (they must desynchronize together or not at
            # all).
            self._recv_mac.skip()
        else:
            length = int.from_bytes(body[:_LEN_BYTES], "big")
            if length != len(body) - _LEN_BYTES - MAC_LEN:
                self._recv_mac.skip()
            else:
                # Views, not slices: the payload is verified and
                # delivered without ever being copied out of the
                # decrypted record (the RPC layer accepts views).
                view = memoryview(body)
                candidate = view[_LEN_BYTES : _LEN_BYTES + length]
                tag = view[_LEN_BYTES + length :]
                if self._recv_mac.verify(candidate, tag):
                    plaintext = candidate
        if plaintext is None:
            self._reject()
            return
        self.records_received += 1
        self._m_received.inc()
        self.consecutive_rejects = 0
        self._deliver(plaintext)

    def _deliver(self, plaintext: bytes) -> None:
        if self._handler is None:
            # A verified record with nobody listening (or hostile
            # plaintext-mode traffic) must never unwind the delivery
            # stack: count it and move on.  Decryption already ran, so
            # the streams stay aligned for when a handler appears.
            self.unhandled_records += 1
            self._m_unhandled.inc()
            return
        self._handler(plaintext)
