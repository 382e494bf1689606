"""SHA-1-based message authentication, including SFS's re-keyed MAC.

Two constructions live here:

* :func:`hmac_sha1` — standard HMAC over our from-scratch SHA-1, used
  where a conventional keyed MAC is wanted (tested against RFC 2202
  vectors).
* :class:`SessionMAC` — the paper's construction (section 3.1.3): the MAC
  is re-keyed *for each message* with 32 bytes pulled from a dedicated
  ARC4 keystream (bytes that are never used for encryption), and is
  computed over the length and plaintext contents of each RPC message.
"""

from __future__ import annotations

from . import backend
from .arc4 import ARC4
from .sha1 import sha1
from .util import constant_time_eq

MAC_LEN = 20
_REKEY_BYTES = 32
_BLOCK = 64
#: Per-message keys drawn from the MAC stream at once.  One keystream
#: call per record cost three times a slot served from four drawn
#: ahead, and 128 B a stream keeps ``fanout-1024``'s 4,096 small.
_LOOKAHEAD = 4 * _REKEY_BYTES


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """RFC 2104 HMAC with SHA-1.

    Uses the accelerated backend when enabled (identical output; see
    :mod:`repro.crypto.backend`), else the from-scratch construction.
    """
    if backend.use_fast_sha1:
        return backend.fast_hmac_sha1_parts(key, message)
    if not isinstance(message, bytes):
        message = bytes(message)  # from-scratch sha1 wants real bytes
    if len(key) > _BLOCK:
        key = sha1(key)
    key = key.ljust(_BLOCK, b"\x00")
    inner = sha1(bytes(b ^ 0x36 for b in key) + message)
    return sha1(bytes(b ^ 0x5C for b in key) + inner)


class SessionMAC:
    """Per-message re-keyed MAC fed from an ARC4 stream.

    Both channel endpoints construct a SessionMAC from the same session
    key; every :meth:`compute`, :meth:`verify` (successful *or not*), and
    :meth:`skip` consumes exactly 32 keystream bytes, so the two sides
    stay in lock-step exactly as the long-running ARC4 stream does in
    SFS.  Consuming on failed verification is deliberate: the record
    occupied a message slot on the wire whether or not its tag checked
    out, and rewinding the keystream for bad records would let an
    attacker probe tags against a stationary key.
    """

    def __init__(self, key: bytes) -> None:
        # A separate ARC4 instance from the encryption stream: the paper
        # pulls MAC keys from the same stream, "not used for the purposes
        # of encryption"; a dedicated keystream keyed by a derived key is
        # the cleanest equivalent that keeps MAC and cipher independent.
        self._stream = ARC4(sha1(b"SFS-MAC-stream" + key))
        #: Keystream drawn ahead, and the offset of the next unused key.
        self._keys = b""
        self._next = 0
        #: Message slots consumed so far (compute + verify + skip).
        self.slots_consumed = 0

    def _draw(self) -> bytes:
        """The next 32-byte per-message key: one message slot."""
        self.slots_consumed += 1
        at = self._next
        if at == len(self._keys):
            self._keys = self._stream.keystream(_LOOKAHEAD)
            at = 0
        self._next = at + _REKEY_BYTES
        return self._keys[at : at + _REKEY_BYTES]

    def compute(self, message: bytes) -> bytes:
        """MAC over the length and plaintext of *message*.

        The fast backend streams length and message into the HMAC
        separately, so sealing a record never copies the payload just to
        prepend four bytes; output is identical either way.
        """
        per_message_key = self._draw()
        length = len(message).to_bytes(4, "big")
        if backend.use_fast_sha1:
            return backend.fast_hmac_sha1_parts(per_message_key, length,
                                                message)
        return hmac_sha1(per_message_key, length + bytes(message))

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Verify *tag*; consumes the message slot whether or not it
        matches (see the class docstring for why)."""
        expected = self.compute(message)
        return constant_time_eq(tag, expected)

    def skip(self) -> None:
        """Burn one message slot without computing a MAC.

        The channel calls this for records it rejects *before* MAC
        verification (short body, bad length field) so the MAC keystream
        advances in lock-step with the cipher keystream, which already
        consumed the record's bytes during decryption.
        """
        self._draw()
