"""NFS file handle construction, plain and SFS-hardened.

NFS identifies files by server-chosen opaque handles which "must remain
secret; an attacker who learns the file handle of even a single directory
can access any part of the file system as any user."  SFS servers, in
contrast, hand their handles to anonymous clients, so they generate
handles "by adding redundancy to NFS handles and encrypting them in CBC
mode with a 20-byte Blowfish key" (paper section 3.3).

Both schemes live here:

* :class:`PlainHandles` — the guessable struct-packed handles a vanilla
  NFS server uses (fsid, inode, generation).
* :class:`EncryptedHandles` — SFS's scheme: 8 bytes of SHA-1 redundancy
  appended, then Blowfish-CBC under a per-server 20-byte key.  Tampered
  or guessed handles fail the redundancy check and surface as
  NFS3ERR_BADHANDLE.
"""

from __future__ import annotations

import struct

from ..crypto.blowfish import Blowfish
from ..crypto.sha1 import sha1
from ..crypto.util import constant_time_eq


class BadHandle(Exception):
    """The handle failed to decode (stale, corrupt, or forged)."""


class PlainHandles:
    """Transparent handles: fsid + inode + generation, struct-packed."""

    size = 16

    def encode(self, fsid: int, ino: int, generation: int) -> bytes:
        return struct.pack(">IQI", fsid & 0xFFFFFFFF, ino, generation)

    def decode(self, handle: bytes) -> tuple[int, int, int]:
        if len(handle) != self.size:
            raise BadHandle(f"handle must be {self.size} bytes")
        fsid, ino, generation = struct.unpack(">IQI", handle)
        return fsid, ino, generation


_REDUNDANCY = 8
#: Handles each :class:`EncryptedHandles` remembers in each direction
#: (the oldest goes first).
_MEMO_MAX = 4096


class EncryptedHandles:
    """SFS handles: plain handle + redundancy, Blowfish-CBC encrypted.

    The IV is derived from the key, keeping handles deterministic so a
    client can compare handles for equality; secrecy of the NFS handle
    inside comes from the cipher, integrity from the redundancy bytes.
    Being deterministic, a handle's ciphertext is memoised both ways:
    every handle this instance encoded, and every one that passed the
    redundancy check, so forged handles never enter the tables.
    """

    size = 24

    def __init__(self, key: bytes) -> None:
        if len(key) != 20:
            raise ValueError("SFS handle keys are 20 bytes")
        self._cipher = Blowfish(key)
        self._iv = sha1(b"SFS-handle-iv" + key)[:8]
        self._inner = PlainHandles()
        #: Public digest of the (secret) handle key.  The key is derived
        #: deterministically from the server's durable private key, so
        #: handles clients cached before a crash must still decode after
        #: a restart; the restart path asserts fingerprint equality to
        #: pin that invariant without exposing key bytes.
        self.fingerprint = sha1(b"SFS-handle-fingerprint" + key)[:8]
        self._handles: dict[tuple[int, int, int], bytes] = {}
        self._files: dict[bytes, tuple[int, int, int]] = {}

    def encode(self, fsid: int, ino: int, generation: int) -> bytes:
        handle = self._handles.get((fsid, ino, generation))
        if handle is None:
            plain = self._inner.encode(fsid, ino, generation)
            redundancy = sha1(b"SFS-handle-check" + plain)[:_REDUNDANCY]
            handle = self._cipher.encrypt_cbc(plain + redundancy, self._iv)
            _remember(self._files, handle, self._inner.decode(plain))
            _remember(self._handles, (fsid, ino, generation), handle)
        return handle

    def decode(self, handle: bytes) -> tuple[int, int, int]:
        file = self._files.get(handle)
        if file is not None:
            return file
        if len(handle) != self.size:
            raise BadHandle(f"handle must be {self.size} bytes")
        decrypted = self._cipher.decrypt_cbc(handle, self._iv)
        plain, redundancy = decrypted[:16], decrypted[16:]
        expected = sha1(b"SFS-handle-check" + plain)[:_REDUNDANCY]
        if not constant_time_eq(redundancy, expected):
            raise BadHandle("handle redundancy check failed")
        return _remember(self._files, handle, self._inner.decode(plain))


def _remember(table: dict, key, value):
    if len(table) >= _MEMO_MAX:
        del table[next(iter(table))]
    table[key] = value
    return value
