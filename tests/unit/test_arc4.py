"""Tests for ARC4 (repro.crypto.arc4), including the SFS key-schedule
variant for 20-byte keys."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import arc4kernel, backend
from repro.crypto.arc4 import ARC4

# RFC 6229 test vectors (single-spin keystreams).
RFC6229 = [
    (bytes.fromhex("0102030405"), 0,
     "b2396305f03dc027ccc3524a0a1118a8"),
    (bytes.fromhex("0102030405060708"), 0,
     "97ab8a1bf0afb96132f2f67258da15a8"),
    (bytes.fromhex("0102030405060708090a0b0c0d0e0f10"), 0,
     "9ac7cc9a609d1ef7b2932899cde41b97"),
    (bytes.fromhex("0102030405060708090a0b0c0d0e0f101112131415161718"
                   "191a1b1c1d1e1f20"), 0,
     "eaa6bd25880bf93d3f5d1e4ca2611d91"),
]


@pytest.mark.parametrize("key,offset,expected", RFC6229)
def test_rfc6229_keystream(key, offset, expected):
    cipher = ARC4(key, spins=1)
    cipher.keystream(offset)
    assert cipher.keystream(16).hex() == expected


def test_sfs_20_byte_key_spins_twice():
    key = b"K" * 20
    double = ARC4(key)                 # default: ceil(160/128) = 2 spins
    single = ARC4(key, spins=1)
    explicit = ARC4(key, spins=2)
    assert double.keystream(32) == explicit.keystream(32)
    assert ARC4(key).keystream(32) != single.keystream(32)


def test_16_byte_key_defaults_to_single_spin():
    key = b"k" * 16
    assert ARC4(key).keystream(16) == ARC4(key, spins=1).keystream(16)


def test_encrypt_decrypt_are_symmetric():
    data = b"the length, message, and MAC all get encrypted"
    ciphertext = ARC4(b"secret key").encrypt(data)
    assert ciphertext != data
    assert ARC4(b"secret key").decrypt(ciphertext) == data


def test_stream_is_stateful():
    cipher = ARC4(b"secret key")
    first = cipher.process(b"AAAA")
    second = cipher.process(b"AAAA")
    assert first != second  # keystream advanced


def test_empty_input():
    assert ARC4(b"k").process(b"") == b""


@pytest.mark.parametrize("key", [b"", b"x" * 257])
def test_invalid_keys_rejected(key):
    with pytest.raises(ValueError):
        ARC4(key)


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=512))
def test_roundtrip_property(key, data):
    assert ARC4(key).decrypt(ARC4(key).encrypt(data)) == data


@given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=256))
def test_process_equals_bytewise_xor(key, data):
    stream = ARC4(key).keystream(len(data))
    expected = bytes(a ^ b for a, b in zip(data, stream))
    assert ARC4(key).process(data) == expected


@given(st.binary(min_size=1, max_size=32),
       st.lists(st.integers(min_value=0, max_value=64), max_size=6))
def test_keystream_chunking_invariance(key, chunks):
    total = sum(chunks)
    whole = ARC4(key).keystream(total)
    cipher = ARC4(key)
    pieces = b"".join(cipher.keystream(n) for n in chunks)
    assert pieces == whole


_SIZES = st.one_of(
    st.sampled_from([0, 1, 31, 32, 1023, 1024, 1025, 8192, 65537]),
    st.integers(min_value=0, max_value=300),
)
_OPS = st.lists(
    st.tuples(st.sampled_from(["keystream", "encrypt-bytes",
                               "encrypt-bytearray", "decrypt-memoryview"]),
              _SIZES,
              st.sampled_from([None, True, False])),  # backend flip first
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=64), _OPS, st.randoms())
def test_resident_stream_matches_one_reference_stream(key, ops, rng):
    """However draws, encrypts, decrypts and backend flips interleave,
    the outputs are one reference keystream and no input changes."""
    spins = max(1, (len(key) * 8 + 127) // 128)
    expected, _i, _j = arc4kernel.reference_crank(
        arc4kernel.key_schedule(key, spins), 0, 0,
        sum(size for _kind, size, _flip in ops))
    cipher = ARC4(key)
    at = 0
    try:
        for kind, size, flip in ops:
            if flip is not None:
                backend.set_fast(flip)
            stream = expected[at : at + size]
            at += size
            if kind == "keystream":
                assert cipher.keystream(size) == stream
                continue
            data = rng.randbytes(size)
            if kind == "encrypt-bytes":
                given_in = data
                got = cipher.encrypt(given_in)
            elif kind == "encrypt-bytearray":
                given_in = bytearray(data)
                got = cipher.encrypt(given_in)
            else:
                owner = bytearray(data)
                given_in = memoryview(owner)
                got = cipher.decrypt(given_in)
                assert owner == data
            assert bytes(given_in) == data
            assert got is not given_in
            assert got == bytes(a ^ b for a, b in zip(data, stream))
    finally:
        backend.set_fast(True)


@pytest.mark.parametrize("fast", [True, False])
def test_process_writes_into_out(fast):
    data = bytes(range(200))
    expected = ARC4(b"k" * 20).encrypt(data)
    backend.set_fast(fast)
    try:
        buf = bytearray(data)
        assert ARC4(b"k" * 20).encrypt(buf, buf) is buf
        assert buf == expected
        out = bytearray(len(data))
        assert ARC4(b"k" * 20).encrypt(data, out) is out
        assert out == expected
    finally:
        backend.set_fast(True)


@pytest.mark.skipif(arc4kernel.FAST_KERNEL != "libcrypto",
                    reason="no libcrypto RC4")
def test_libcrypto_cranks_keep_their_own_state_across_threads():
    """ctypes drops the GIL inside RC4(): streams encrypting in four
    threads at once must each run on their own state."""
    cranks, size = 300, 4096
    keys = [bytes([n + 1]) * 20 for n in range(4)]
    got: dict[bytes, list[bytes]] = {}

    def crank(key: bytes) -> None:
        cipher = ARC4(key)
        got[key] = [cipher.encrypt(bytes(size)) for _ in range(cranks)]

    threads = [threading.Thread(target=crank, args=(key,)) for key in keys]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for key in keys:
        state, i, j = arc4kernel.key_schedule(key, 2), 0, 0
        expected, _i, _j = arc4kernel.pyblock_crank(state, i, j,
                                                     cranks * size)
        assert b"".join(got[key]) == expected
