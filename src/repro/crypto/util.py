"""Small cryptographic utilities shared across the crypto package.

This module provides the byte/integer conversions used throughout the
protocol code, a constant-time comparison primitive, and the SFS base-32
encoding used for HostIDs in self-certifying pathnames.

The paper (section 2.3) specifies the base-32 alphabet precisely: the 32
digits and lower-case letters remaining after omitting the easily confused
characters ``l`` (lower-case L), ``1`` (one), ``0`` (zero) and ``o``.
"""

from __future__ import annotations

import hmac as _hmac

#: The SFS base-32 alphabet: digits and lower-case letters minus l, 1, 0, o.
SFS_BASE32_ALPHABET = "23456789abcdefghijkmnpqrstuvwxyz"

assert len(SFS_BASE32_ALPHABET) == 32

_B32_VALUE = {char: index for index, char in enumerate(SFS_BASE32_ALPHABET)}


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Convert a non-negative integer to big-endian bytes.

    If *length* is omitted the minimal number of bytes is used (at least
    one, so ``int_to_bytes(0) == b"\\x00"``).
    """
    if value < 0:
        raise ValueError("cannot convert negative integer to bytes")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Convert big-endian bytes to a non-negative integer."""
    return int.from_bytes(data, "big")


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking where they differ."""
    return _hmac.compare_digest(a, b)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal-length inputs")
    return bytes(x ^ y for x, y in zip(a, b))


def sfs_base32_encode(data: bytes) -> str:
    """Encode bytes with the SFS base-32 alphabet.

    A 20-byte HostID (160 bits) encodes to exactly 32 characters.  The
    encoding is a straight big-endian base conversion with the bit count
    preserved by left-padding, so it round-trips for any input length.
    """
    if not data:
        return ""
    value = bytes_to_int(data)
    top = (len(data) * 8 - 1) // 5 * 5    # shift of the leading digit
    return "".join([SFS_BASE32_ALPHABET[(value >> shift) & 0x1F]
                    for shift in range(top, -1, -5)])


def sfs_base32_decode(text: str, length: int | None = None) -> bytes:
    """Decode an SFS base-32 string back to bytes.

    *length* gives the expected byte count; if omitted it is inferred as
    ``floor(5 * ndigits / 8)`` which matches the inverse of
    :func:`sfs_base32_encode` for all byte lengths.
    """
    value = 0
    for char in text:
        try:
            value = (value << 5) | _B32_VALUE[char]
        except KeyError:
            raise ValueError(f"invalid SFS base-32 character {char!r}") from None
    if length is None:
        length = (len(text) * 5) // 8
    if value >> (length * 8):
        raise ValueError("SFS base-32 value overflows the expected length")
    return int_to_bytes(value, length) if length else b""
