"""Accelerated backends for the from-scratch primitives.

Every algorithm in :mod:`repro.crypto` is implemented from scratch and
those implementations are the *reference*: the test suite verifies them
against published vectors and, where possible, against the standard
library.  Where a bit-identical faster implementation exists, this
module lets the hot paths delegate to it so that benchmark results
reflect the paper's relative costs rather than pure-Python speed:

* ``use_fast_sha1`` — one-shot SHA-1/HMAC go through hashlib's C code.
* ``use_fast_arc4`` — ARC4 streams run on :mod:`repro.crypto.arc4kernel`
  (each in an ``RC4_KEY`` of its own under OpenSSL's RC4 when its
  layout self-check passes, else the unrolled pure-Python block loop)
  instead of the reference per-byte loop.
* ``use_fast_marshal`` — every XDR codec marshals through the flat
  function :mod:`repro.rpc.xdr` compiles from its declaration
  (precompiled struct formats) instead of interpreting the declaration
  field by field.

The delegation is sound precisely because the outputs are identical —
``tests/unit/test_sha1.py`` asserts equality between the from-scratch
SHA-1 and hashlib on randomized inputs, and the golden wire-vector
suite (``tests/unit/test_wire_vectors.py``) asserts that channel records
and NFS3 marshals are bit-for-bit the same under both settings, and
``tests/unit/test_xdr_compiled.py`` that every declared codec is — so
flipping these flags cannot change any protocol bytes, only speed.

Call :func:`set_fast` to switch globally (e.g. ``set_fast(False)`` in
tests that exercise the reference implementations end to end).
"""

from __future__ import annotations

import hashlib

#: When True (default), one-shot SHA-1/HMAC use hashlib's C implementation.
use_fast_sha1 = True

#: When True (default), ARC4 keystream generation uses the block kernel.
use_fast_arc4 = True

#: When True (default), codecs run their compiled flat marshals.
use_fast_marshal = True


def set_fast(enabled: bool, *, sha1: bool | None = None,
             arc4: bool | None = None,
             marshal: bool | None = None) -> None:
    """Globally enable/disable the accelerated backends.

    The positional flag flips everything at once (the common case in
    tests); keyword overrides pin individual backends, e.g.
    ``set_fast(True, arc4=False)`` to benchmark the pure-Python cipher
    under fast hashing.
    """
    global use_fast_sha1, use_fast_arc4, use_fast_marshal
    use_fast_sha1 = enabled if sha1 is None else sha1
    use_fast_arc4 = enabled if arc4 is None else arc4
    use_fast_marshal = enabled if marshal is None else marshal


def fast_sha1(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def fast_hmac_sha1_parts(key: bytes, *parts: bytes) -> bytes:
    """HMAC over the concatenation of *parts* without concatenating.

    RFC 2104 over hashlib's SHA-1, with the pads XORed in by
    ``bytes.translate``: bit-identical to ``hmac.new`` without its
    per-call Python wrapper.  The channel MAC uses it to authenticate
    length‖message without building a copy of every payload.
    """
    if len(key) > 64:
        key = hashlib.sha1(key).digest()
    key = key.ljust(64, b"\0")
    inner = hashlib.sha1(key.translate(_IPAD))
    for part in parts:
        inner.update(part)
    return hashlib.sha1(key.translate(_OPAD) + inner.digest()).digest()
