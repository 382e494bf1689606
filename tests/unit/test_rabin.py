"""Tests for the Rabin-Williams cryptosystem (repro.crypto.rabin)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rabin
from repro.crypto.numtheory import jacobi


@pytest.fixture(scope="module")
def key():
    return rabin.generate_key(768, random.Random(42))


@pytest.fixture(scope="module")
def other_key():
    return rabin.generate_key(768, random.Random(43))


def test_key_structure(key):
    assert key.p % 8 == 3
    assert key.q % 8 == 7
    assert key.n == key.p * key.q
    assert key.public_key.n == key.n
    assert key.public_key.bits in (767, 768)


def test_private_key_validates_congruences():
    with pytest.raises(rabin.RabinError):
        rabin.PrivateKey(7, 7)  # 7 % 8 == 7, but p must be 3 mod 8


def test_encrypt_decrypt_roundtrip(key):
    rng = random.Random(1)
    for size in (0, 1, 20, 54):
        message = bytes(rng.getrandbits(8) for _ in range(size))
        ciphertext = key.public_key.encrypt(message, rng)
        assert key.decrypt(ciphertext) == message


def test_encryption_is_randomized(key):
    rng = random.Random(2)
    c1 = key.public_key.encrypt(b"same message", rng)
    c2 = key.public_key.encrypt(b"same message", rng)
    assert c1 != c2
    assert key.decrypt(c1) == key.decrypt(c2) == b"same message"


def test_message_too_long_rejected(key):
    rng = random.Random(3)
    limit = key.public_key.size - 42
    key.public_key.encrypt(b"x" * limit, rng)  # exactly at the limit
    with pytest.raises(rabin.RabinError):
        key.public_key.encrypt(b"x" * (limit + 1), rng)


def test_tampered_ciphertext_rejected(key):
    rng = random.Random(4)
    ciphertext = bytearray(key.public_key.encrypt(b"secret", rng))
    ciphertext[10] ^= 1
    with pytest.raises(rabin.RabinError):
        key.decrypt(bytes(ciphertext))


def test_wrong_key_cannot_decrypt(key, other_key):
    rng = random.Random(5)
    ciphertext = key.public_key.encrypt(b"secret", rng)
    padded = other_key.public_key.encrypt(b"x", rng)  # right length source
    with pytest.raises(rabin.RabinError):
        other_key.decrypt(ciphertext[: other_key.public_key.size]
                          if len(ciphertext) != other_key.public_key.size
                          else ciphertext)


def test_sign_verify(key):
    signature = key.sign(b"a message")
    assert key.public_key.verify(b"a message", signature)
    assert not key.public_key.verify(b"another message", signature)


def test_signature_tamper_rejected(key):
    signature = bytearray(key.sign(b"m"))
    signature[5] ^= 1
    assert not key.public_key.verify(b"m", bytes(signature))


def test_signature_wrong_key_rejected(key, other_key):
    signature = key.sign(b"m")
    assert not other_key.public_key.verify(b"m", signature)


def test_signature_malformed_rejected(key):
    assert not key.public_key.verify(b"m", b"")
    assert not key.public_key.verify(b"m", b"\x07" + b"\x00" * key.public_key.size)
    too_big = bytes([0]) + b"\xff" * key.public_key.size
    assert not key.public_key.verify(b"m", too_big)


def test_signing_is_deterministic(key):
    assert key.sign(b"stable") == key.sign(b"stable")


def test_tweak_covers_all_jacobi_cases(key):
    # Find messages hitting each (jp, jq) combination and check each
    # signature verifies (the e/f tweak logic must handle all four).
    seen = set()
    counter = 0
    while len(seen) < 4 and counter < 200:
        message = f"msg{counter}".encode()
        m = rabin._fdh_encode(message, key.n)
        case = (jacobi(m % key.p, key.p), jacobi(m % key.q, key.q))
        if case not in seen:
            seen.add(case)
            assert key.public_key.verify(message, key.sign(message))
        counter += 1
    assert len(seen) == 4, f"only exercised {seen}"


def test_serialization_roundtrip(key):
    assert rabin.PublicKey.from_bytes(key.public_key.to_bytes()) == key.public_key
    assert rabin.PrivateKey.from_bytes(key.to_bytes()) == key


def test_public_key_deserialization_errors():
    with pytest.raises(rabin.RabinError):
        rabin.PublicKey.from_bytes(b"")
    with pytest.raises(rabin.RabinError):
        rabin.PublicKey.from_bytes((99).to_bytes(4, "big") + b"xx")
    even = (1).to_bytes(4, "big") + bytes([4])
    with pytest.raises(rabin.RabinError):
        rabin.PublicKey.from_bytes(even)


def test_mgf1_expands_deterministically():
    out1 = rabin.mgf1(b"seed", 100)
    out2 = rabin.mgf1(b"seed", 100)
    assert out1 == out2
    assert len(out1) == 100
    assert rabin.mgf1(b"seed", 50) == out1[:50]
    assert rabin.mgf1(b"other", 100) != out1


def test_fdh_below_modulus_and_odd(key):
    for counter in range(20):
        value = rabin._fdh_encode(f"m{counter}".encode(), key.n)
        assert 0 < value < key.n
        assert value % 2 == 1


@given(st.binary(max_size=40))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(message):
    key = _cached_key()
    rng = random.Random(7)
    assert key.decrypt(key.public_key.encrypt(message, rng)) == message
    assert key.public_key.verify(message, key.sign(message))


_KEY_CACHE = []


def _cached_key():
    if not _KEY_CACHE:
        _KEY_CACHE.append(rabin.generate_key(768, random.Random(99)))
    return _KEY_CACHE[0]


def test_crt_coefficient_is_paid_once_per_key(monkeypatch):
    from repro.crypto import numtheory

    built = rabin.generate_key(768, random.Random(44))
    calls = []

    def counting_modinv(a, m):
        calls.append((a, m))
        return numtheory.egcd(a, m)[1] % m

    monkeypatch.setattr(numtheory, "modinv", counting_modinv)
    monkeypatch.setattr(rabin, "modinv", counting_modinv, raising=False)
    rng = random.Random(2)
    ciphertext = built.public_key.encrypt(b"session key half", rng)
    assert built.decrypt(ciphertext) == b"session key half"
    assert built.public_key.verify(b"m", built.sign(b"m"))
    assert calls == []
    # A key rebuilt from its bytes pays once, on construction.
    rabin.PrivateKey.from_bytes(built.to_bytes())
    assert len(calls) == 1
