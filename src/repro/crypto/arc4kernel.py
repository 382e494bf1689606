"""Keystream kernels behind :class:`repro.crypto.arc4.ARC4`.

The per-byte PRGA loop :func:`reference_crank` is the *reference*
implementation; it stays the testable ground truth.  This module holds
the two fast kernels the wire path uses instead, both of which advance
the identical (state, i, j) machine and therefore produce bit-identical
keystream:

* :data:`LIBCRYPTO` — OpenSSL's C implementation, driven through ctypes.
  ARC4's state machine is fully described by the 256-byte permutation
  plus the two indices, and OpenSSL's ``RC4_KEY`` struct is exactly that
  (``{RC4_INT x, y; RC4_INT data[256]}``), so we run *our* key schedule
  — including SFS's one-spin-per-128-key-bits rule, which no library KSA
  implements — in Python, :func:`load` the result into an ``RC4_KEY``
  the stream then owns, and let ``RC4()`` crank and XOR records in C,
  in place, for as long as the stream lives.  The struct layout is
  probed **empirically** at load time: we call ``RC4_set_key`` with a
  known key and check the buffer against our own single-spin schedule,
  then run a PRGA vector through ``RC4`` on a loaded state and compare
  it, and the state :func:`unload` reads back, with the reference loop.
  If either check fails (different RC4_INT width, RC4 compiled out, no
  libcrypto), :data:`LIBCRYPTO` is None and the pure-Python block kernel
  is used instead.  This is the same soundness argument as
  :mod:`repro.crypto.backend`'s hashlib delegation: equivalence is
  verified, not assumed.

* :func:`pyblock_crank` — a locals-bound, partially unrolled pure-Python
  loop over a ``bytearray`` state.  Same machine, fewer interpreter
  touches per byte than the reference loop (single-assignment swap
  instead of tuple packing, one state lookup per index).  It is the
  fallback wherever libcrypto is missing.

All kernels count into the module-level :class:`KernelStats`, which the
bench layer surfaces (keystream bytes per kernel) so Fig. 5's
attribution can say *which* kernel generated the bytes.
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

def load(state: bytearray, i: int, j: int) -> ctypes.Array:
    """A fresh ``RC4_KEY`` holding the machine (state, i, j)."""
    key = ctypes.create_string_buffer(_STATE_WORDS.size)
    _STATE_WORDS.pack_into(key, 0, i, j, *state)
    return key


def unload(key: ctypes.Array) -> tuple[bytearray, int, int]:
    """The machine an ``RC4_KEY`` holds, as (state, i, j)."""
    words = _STATE_WORDS.unpack_from(key)
    return bytearray(words[2:]), words[0], words[1]


class _LibcryptoKernel:
    """ctypes binding to OpenSSL's RC4 over states :func:`load` made.

    Each stream owns its ``RC4_KEY`` and nothing else touches it, so
    ctypes dropping the GIL inside ``RC4()`` shares no state.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._rc4 = lib.RC4
        self._rc4.argtypes = [ctypes.c_void_p, ctypes.c_size_t,
                              ctypes.c_void_p, ctypes.c_void_p]
        self._rc4.restype = None
        self._set_key = lib.RC4_set_key
        self._set_key.argtypes = [ctypes.c_char_p, ctypes.c_int,
                                  ctypes.c_char_p]
        self._set_key.restype = None

    def self_check(self) -> bool:
        """Prove the struct layout and the PRGA match the reference.

        Layout: RC4_set_key with a known single-spin key must leave
        ``x = y = 0`` and ``data[]`` equal to our own KSA when read as
        little-endian 32-bit words.  PRGA: a loaded two-spin SFS state
        must produce the reference keystream and leave the same
        (i, j) and permutation.  Any mismatch disables the kernel.
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
            key = load(state, 0, 0)
            got = self.xor_into(key, bytearray(512))
            STATS.libcrypto_bytes -= 512  # a probe, not traffic
            expected, i, j = reference_crank(state, 0, 0, 512)
            return (got, *unload(key)) == (expected, state, i, j)
        except Exception:  # noqa: BLE001 - any ctypes surprise: fall back
            return False

    def xor_into(self, key: ctypes.Array, buf: bytearray) -> bytearray:
        """XOR the next ``len(buf)`` keystream bytes into *buf*, in C."""
        n = len(buf)
        STATS.libcrypto_bytes += n
        if n:
            pinned = ctypes.c_char.from_buffer(buf)
            at = ctypes.addressof(pinned)
            self._rc4(key, n, at, at)
        return buf


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


#: The libcrypto kernel, or None where its self-check failed.
LIBCRYPTO = _load_libcrypto()

#: Name of the kernel block generation goes through when the fast path
#: is enabled ("libcrypto" or "pyblock") — surfaced in bench output.
FAST_KERNEL = "libcrypto" if LIBCRYPTO is not None else "pyblock"
