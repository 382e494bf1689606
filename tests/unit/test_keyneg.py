"""Tests for SFS key negotiation (repro.core.keyneg)."""

import random

import pytest

from repro.core.keyneg import (
    EphemeralKeyCache,
    KeyNegotiationError,
    decrypt_key_halves,
    derive_session_keys,
    encrypt_key_halves,
    make_key_halves,
)
from repro.crypto.rabin import generate_key


@pytest.fixture(scope="module")
def server_key():
    return generate_key(768, random.Random(50))


@pytest.fixture(scope="module")
def client_key():
    return generate_key(640, random.Random(51))


def test_full_negotiation_both_sides_agree(server_key, client_key):
    rng = random.Random(1)
    kc1, kc2 = make_key_halves(rng)
    ks1, ks2 = make_key_halves(rng)
    # client -> server
    sealed_c = encrypt_key_halves(server_key.public_key, kc1, kc2, rng)
    got_kc1, got_kc2 = decrypt_key_halves(server_key, sealed_c)
    assert (got_kc1, got_kc2) == (kc1, kc2)
    # server -> client
    sealed_s = encrypt_key_halves(client_key.public_key, ks1, ks2, rng)
    got_ks1, got_ks2 = decrypt_key_halves(client_key, sealed_s)
    assert (got_ks1, got_ks2) == (ks1, ks2)
    client_view = derive_session_keys(
        server_key.public_key, client_key.public_key, kc1, kc2, ks1, ks2
    )
    server_view = derive_session_keys(
        server_key.public_key, client_key.public_key,
        got_kc1, got_kc2, ks1, ks2,
    )
    assert client_view == server_view
    assert len(client_view.kcs) == 20
    assert client_view.kcs != client_view.ksc


def test_session_id_binds_both_directions(server_key, client_key):
    rng = random.Random(2)
    kc1, kc2 = make_key_halves(rng)
    ks1, ks2 = make_key_halves(rng)
    keys = derive_session_keys(
        server_key.public_key, client_key.public_key, kc1, kc2, ks1, ks2
    )
    other = derive_session_keys(
        server_key.public_key, client_key.public_key, kc2, kc1, ks1, ks2
    )
    assert keys.session_id != other.session_id
    assert len(keys.session_id) == 20


def test_derivation_matches_the_from_scratch_sha1(server_key, client_key):
    """Figure 3's hashes, spelled out against the reference SHA-1: the
    session keys and the SessionID go through the one-shot (hashlib-
    backed) path, which must stay the same function."""
    from repro.crypto.sha1 import SHA1

    rng = random.Random(3)
    kc1, kc2 = make_key_halves(rng)
    ks1, ks2 = make_key_halves(rng)
    ks, kc = server_key.public_key, client_key.public_key
    keys = derive_session_keys(ks, kc, kc1, kc2, ks1, ks2)
    assert keys.kcs == SHA1(
        b"KCS" + ks.to_bytes() + kc1 + kc.to_bytes() + ks1).digest()
    assert keys.ksc == SHA1(
        b"KSC" + ks.to_bytes() + kc2 + kc.to_bytes() + ks2).digest()
    assert keys.session_id == SHA1(
        b"SessionInfo" + keys.ksc + keys.kcs).digest()


def test_any_half_changes_keys(server_key, client_key):
    rng = random.Random(3)
    halves = [make_key_halves(rng)[0] for _ in range(4)]
    base = derive_session_keys(
        server_key.public_key, client_key.public_key, *halves
    )
    for index in range(4):
        mutated = list(halves)
        mutated[index] = bytes(20 - 4)[:16] or b"\x00" * 16
        mutated[index] = bytes(b ^ 1 for b in halves[index])
        changed = derive_session_keys(
            server_key.public_key, client_key.public_key, *mutated
        )
        assert (changed.kcs, changed.ksc) != (base.kcs, base.ksc)


def test_bad_ciphertext_rejected(server_key):
    with pytest.raises(KeyNegotiationError):
        decrypt_key_halves(server_key, bytes(server_key.public_key.size))


def test_wrong_length_plaintext_rejected(server_key):
    rng = random.Random(4)
    sealed = server_key.public_key.encrypt(b"too short", rng)
    with pytest.raises(KeyNegotiationError):
        decrypt_key_halves(server_key, sealed)


def test_key_halves_are_16_bytes_and_random():
    rng = random.Random(5)
    h1, h2 = make_key_halves(rng)
    assert len(h1) == len(h2) == 16
    assert h1 != h2


def test_ephemeral_cache_rotates():
    rng = random.Random(6)
    cache = EphemeralKeyCache(rng, max_uses=3, bits=640)
    first = cache.current()
    assert cache.current() is first
    assert cache.current() is first
    rotated = cache.current()  # 4th use triggers regeneration
    assert rotated is not first
    assert rotated.n != first.n
