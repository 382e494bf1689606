"""Block keystream kernels behind :class:`repro.crypto.arc4.ARC4`.

The per-byte PRGA loop in :mod:`repro.crypto.arc4` is the *reference*
implementation; it stays the testable ground truth.  This module holds
the two interchangeable fast kernels the wire path uses instead, both of
which advance the identical (state, i, j) machine and therefore produce
bit-identical keystream:

* :data:`LIBCRYPTO` — OpenSSL's C implementation, driven through ctypes.
  ARC4's state machine is fully described by the 256-byte permutation
  (held as a ``bytearray``: 342 B a cipher where a list of ints took
  2,104 B, and a session owns eight) plus the two indices, and
  OpenSSL's ``RC4_KEY`` struct is exactly that
  (``{RC4_INT x, y; RC4_INT data[256]}``), so we can run *our* key
  schedule — including SFS's one-spin-per-128-key-bits rule, which no
  library KSA implements — in Python, inject the resulting state, and
  let C crank the stream.  The struct layout is probed **empirically**
  at load time: we call ``RC4_set_key`` with a known key and check the
  buffer against our own single-spin schedule, then run a PRGA vector
  through ``RC4`` and compare it with the reference loop.  If either
  check fails (different RC4_INT width, RC4 compiled out, no libcrypto),
  the kernel reports unavailable and the pure-Python block kernel is
  used instead.  This is the same soundness argument as
  :mod:`repro.crypto.backend`'s hashlib delegation: equivalence is
  verified, not assumed.

* :data:`PYBLOCK` — a locals-bound, partially unrolled pure-Python loop.
  Same machine, fewer interpreter touches per byte than the reference
  loop (single-assignment swap instead of tuple packing, one state
  lookup per index).  It is the fallback wherever libcrypto is missing.

Both kernels share the module-level :class:`KernelStats`, which the
bench layer surfaces (keystream bytes per kernel) so Fig. 5's
attribution can say *which* crank generated the bytes.
"""

from __future__ import annotations

import ctypes
import struct

_STATE_WORDS = struct.Struct("<258I")  # x, y, data[256] as 32-bit ints


class KernelStats:
    """Process-wide keystream production counters (all ARC4 streams)."""

    __slots__ = ("libcrypto_bytes", "pyblock_bytes", "reference_bytes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.libcrypto_bytes = 0
        self.pyblock_bytes = 0
        self.reference_bytes = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "libcrypto_bytes": self.libcrypto_bytes,
            "pyblock_bytes": self.pyblock_bytes,
            "reference_bytes": self.reference_bytes,
        }


STATS = KernelStats()


def reference_crank(state: bytearray, i: int, j: int,
                    n: int) -> tuple[bytes, int, int]:
    """The ground-truth per-byte PRGA loop (also the probe oracle)."""
    out = bytearray(n)
    for k in range(n):
        i = (i + 1) & 0xFF
        j = (j + state[i]) & 0xFF
        state[i], state[j] = state[j], state[i]
        out[k] = state[(state[i] + state[j]) & 0xFF]
    return bytes(out), i, j


def key_schedule(key: bytes, spins: int) -> bytearray:
    """The KSA, including SFS's multi-spin variant (arc4.py's rules)."""
    state = bytearray(range(256))
    stretched = (key * (256 // len(key) + 1))[:256]
    j = 0
    for _ in range(spins):
        for i, k in enumerate(stretched):
            si = state[i]
            j = (j + si + k) & 0xFF
            state[i] = state[j]
            state[j] = si
    return state


# ---------------------------------------------------------------------------
# Pure-Python block kernel
# ---------------------------------------------------------------------------

def _pyblock_crank(state: bytearray, i: int, j: int,
                   n: int) -> tuple[bytes, int, int]:
    """Locals-bound, reduced-op PRGA: one lookup per index, plain-store
    swap, list-append output.  Bit-identical to :func:`reference_crank`
    (the swap leaves ``state[i] == sj`` and ``state[j] == si``, so the
    output index ``(si + sj) & 255`` reads the same cell)."""
    s = state
    out: list[int] = []
    append = out.append
    for _ in range(n):
        i = (i + 1) & 255
        si = s[i]
        j = (j + si) & 255
        sj = s[j]
        s[i] = sj
        s[j] = si
        append(s[(si + sj) & 255])
    return bytes(out), i, j


def pyblock_crank(state: bytearray, i: int, j: int,
                  n: int) -> tuple[bytes, int, int]:
    STATS.pyblock_bytes += n
    return _pyblock_crank(state, i, j, n)


# ---------------------------------------------------------------------------
# libcrypto kernel
# ---------------------------------------------------------------------------

class _LibcryptoKernel:
    """ctypes binding to OpenSSL's RC4, state round-tripped per crank."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._rc4 = lib.RC4
        self._rc4.argtypes = [ctypes.c_char_p, ctypes.c_size_t,
                              ctypes.c_char_p, ctypes.c_char_p]
        self._rc4.restype = None
        self._set_key = lib.RC4_set_key
        self._set_key.argtypes = [ctypes.c_char_p, ctypes.c_int,
                                  ctypes.c_char_p]
        self._set_key.restype = None
        self._zeros = bytes(65536)

    def self_check(self) -> bool:
        """Prove the struct layout and the PRGA match the reference.

        Layout: RC4_set_key with a known single-spin key must leave
        ``x = y = 0`` and ``data[]`` equal to our own KSA when read as
        little-endian 32-bit words.  PRGA: an injected two-spin SFS
        state must produce the reference keystream and leave the same
        (i, j).  Any mismatch disables the kernel.
        """
        try:
            probe = ctypes.create_string_buffer(4096)  # any RC4_INT fits
            probe_key = bytes(range(1, 17))
            self._set_key(probe, len(probe_key), probe_key)
            words = _STATE_WORDS.unpack_from(probe.raw, 0)
            if words[0] != 0 or words[1] != 0:
                return False
            if bytes(words[2:]) != key_schedule(probe_key, 1):
                return False
            state = key_schedule(b"arc4-kernel-probe-20", 2)
            expected, exp_i, exp_j = reference_crank(bytearray(state),
                                                     0, 0, 512)
            got, got_i, got_j = self._crank(state, 0, 0, 512)
            return got == expected and (got_i, got_j) == (exp_i, exp_j)
        except Exception:  # noqa: BLE001 - any ctypes surprise: fall back
            return False

    def _crank(self, state: bytearray, i: int, j: int,
               n: int) -> tuple[bytes, int, int]:
        # A buffer per crank: ctypes drops the GIL in RC4(), so a shared
        # one would let two threads crank each other's state.
        buf = ctypes.create_string_buffer(_STATE_WORDS.size)
        _STATE_WORDS.pack_into(buf, 0, i, j, *state)
        zeros = self._zeros if n <= len(self._zeros) else bytes(n)
        out = ctypes.create_string_buffer(n)
        self._rc4(buf, n, zeros, out)
        words = _STATE_WORDS.unpack_from(buf.raw, 0)
        state[:] = words[2:]
        return out.raw, words[0], words[1]

    def crank(self, state: bytearray, i: int, j: int,
              n: int) -> tuple[bytes, int, int]:
        STATS.libcrypto_bytes += n
        return self._crank(state, i, j, n)


def _load_libcrypto() -> _LibcryptoKernel | None:
    for name in ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.so",
                 "libcrypto.dylib"):
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        if not (hasattr(lib, "RC4") and hasattr(lib, "RC4_set_key")):
            continue
        kernel = _LibcryptoKernel(lib)
        if kernel.self_check():
            return kernel
    return None


_LIBCRYPTO = _load_libcrypto()

#: Name of the kernel block generation goes through when the fast path
#: is enabled ("libcrypto" or "pyblock") — surfaced in bench output.
FAST_KERNEL = "libcrypto" if _LIBCRYPTO is not None else "pyblock"


def fast_crank(state: bytearray, i: int, j: int,
               n: int) -> tuple[bytes, int, int]:
    """Generate *n* keystream bytes with the best available kernel."""
    if _LIBCRYPTO is not None:
        return _LIBCRYPTO.crank(state, i, j, n)
    return pyblock_crank(state, i, j, n)
