"""The ARC4 stream cipher, including SFS's key-schedule variant.

The paper assumes ARC4 (alleged RC4) is a pseudo-random generator and uses
it to encrypt all read-write file system traffic.  Section 3.1.3 notes two
implementation particulars which we reproduce:

* SFS uses 20-byte keys "by spinning the ARC4 key schedule once for each
  128 bits of key data" — i.e. a 160-bit key runs the key-setup loop twice.
* SFS keeps one ARC4 stream running for the whole session, pulling 32 bytes
  of MAC key per message from the same stream (see :mod:`repro.crypto.mac`).

Where :mod:`repro.crypto.arc4kernel` found a usable libcrypto, a stream's
state lives in an ``RC4_KEY`` of its own, and OpenSSL's ``RC4()`` cranks
and XORs each record in C, in one pass.  Otherwise the state is a Python
``bytearray`` cranked by the pure-Python block loop; with
:func:`repro.crypto.backend.set_fast` switched off, every byte instead
comes from the reference per-byte loop, which remains the ground truth
the kernels are tested against.  A stream keeps exactly one copy of its
state and moves it across when the flag flips, so all three advance the
identical (state, i, j) machine and the choice can never change a wire
byte — only speed.
"""

from __future__ import annotations

from . import arc4kernel, backend


class ARC4:
    """ARC4 keystream generator / stream cipher.

    *spins* controls how many times the key-schedule loop runs; ``None``
    selects the SFS rule of one spin per 128 bits of key material (so a
    standard 16-byte key gets the classic single spin and the 20-byte SFS
    session keys get two).
    """

    __slots__ = ("_key", "_state", "_i", "_j")

    def __init__(self, key: bytes, spins: int | None = None) -> None:
        if not key:
            raise ValueError("ARC4 key must be non-empty")
        if len(key) > 256:
            raise ValueError("ARC4 key must be at most 256 bytes")
        if spins is None:
            spins = max(1, (len(key) * 8 + 127) // 128)
        #: The machine, in Python: ``None`` while libcrypto holds it.
        self._state = arc4kernel.key_schedule(key, spins)
        self._i = 0
        self._j = 0
        #: The machine, in C: the stream's own ``RC4_KEY``, or ``None``.
        self._key = None

    def _resident(self):
        """The ``RC4_KEY`` to crank in C, or None to crank in Python.

        Moves the state to the side the backend flag selects, so the
        stream stays continuous across a flip and only one copy exists.
        """
        key = self._key
        if backend.use_fast_arc4 and arc4kernel.LIBCRYPTO is not None:
            if key is None:
                key = self._key = arc4kernel.load(self._state, self._i,
                                                  self._j)
                self._state = None
            return key
        if key is not None:
            self._state, self._i, self._j = arc4kernel.unload(key)
            self._key = None
        return None

    def _crank(self, length: int) -> bytes:
        """*length* keystream bytes from the Python state."""
        if backend.use_fast_arc4:
            out, self._i, self._j = arc4kernel.pyblock_crank(
                self._state, self._i, self._j, length
            )
            return out
        arc4kernel.STATS.reference_bytes += length
        out, self._i, self._j = arc4kernel.reference_crank(
            self._state, self._i, self._j, length
        )
        return out

    def keystream(self, length: int) -> bytes:
        """Produce *length* keystream bytes, advancing the cipher state."""
        return bytes(self.process(bytes(length)))

    def process(self, data, out: bytearray | None = None) -> bytearray:
        """Encrypt or decrypt *data* (XOR with the keystream).

        Returns a new ``bytearray``, or *out* — a writable buffer of
        ``len(data)`` bytes, possibly *data* itself (the channel seals a
        record in place) — holding the result.  Nothing else is written.
        """
        if out is None:
            out = bytearray(data)
        elif out is not data:
            out[:] = data
        key = self._key
        if key is None or not backend.use_fast_arc4:
            key = self._resident()
            if key is None:
                n = len(out)
                if n:
                    value = (int.from_bytes(out, "big")
                             ^ int.from_bytes(self._crank(n), "big"))
                    out[:] = value.to_bytes(n, "big")
                return out
        return arc4kernel.LIBCRYPTO.xor_into(key, out)

    # Encryption and decryption are the same operation for a stream cipher,
    # but both names read better at call sites.
    encrypt = process
    decrypt = process
