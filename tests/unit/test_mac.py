"""Tests for HMAC-SHA1 and the SFS session MAC (repro.crypto.mac)."""

import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

from repro.crypto import backend
from repro.crypto.mac import MAC_LEN, SessionMAC, hmac_sha1

# RFC 2202 HMAC-SHA1 test vectors.
RFC2202 = [
    (b"\x0b" * 20, b"Hi There",
     "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
]


@pytest.mark.parametrize("key,message,expected", RFC2202)
def test_rfc2202_vectors(key, message, expected):
    assert hmac_sha1(key, message).hex() == expected


@pytest.mark.parametrize("key,message,expected", RFC2202)
def test_rfc2202_vectors_pure_backend(key, message, expected):
    backend.set_fast(False)
    try:
        assert hmac_sha1(key, message).hex() == expected
    finally:
        backend.set_fast(True)


@given(st.one_of(st.binary(min_size=1, max_size=100),
                 st.sampled_from([0, 20, 32, 64, 65, 200]).flatmap(
                     lambda n: st.binary(min_size=n, max_size=n))),
       st.lists(st.binary(max_size=200), max_size=4))
def test_backends_agree(key, parts):
    """The hashlib HMAC, fed whole or in parts, matches the from-scratch
    one and the standard library's, for keys on both sides of the
    64-byte block (longer keys are hashed first)."""
    message = b"".join(parts)
    fast = hmac_sha1(key, message)
    assert backend.fast_hmac_sha1_parts(key, *parts) == fast
    assert fast == hmac.new(key, message, hashlib.sha1).digest()
    backend.set_fast(False)
    try:
        pure = hmac_sha1(key, message)
    finally:
        backend.set_fast(True)
    assert fast == pure


def test_session_mac_lockstep():
    sender = SessionMAC(b"k" * 20)
    receiver = SessionMAC(b"k" * 20)
    for index in range(10):
        message = f"record {index}".encode()
        tag = sender.compute(message)
        assert len(tag) == MAC_LEN
        assert receiver.verify(message, tag)


def test_session_mac_rekeys_per_message():
    mac = SessionMAC(b"k" * 20)
    tag1 = mac.compute(b"same")
    tag2 = mac.compute(b"same")
    assert tag1 != tag2  # a fresh 32-byte key per message


def test_session_mac_detects_tampering():
    sender = SessionMAC(b"k" * 20)
    receiver = SessionMAC(b"k" * 20)
    tag = sender.compute(b"payload")
    assert not receiver.verify(b"payloaX", tag)


def test_session_mac_detects_replay():
    # Replaying an old (message, tag) fails: the receiver's stream has
    # advanced, so the re-keyed MAC no longer matches.
    sender = SessionMAC(b"k" * 20)
    receiver = SessionMAC(b"k" * 20)
    message, tag = b"first", sender.compute(b"first")
    assert receiver.verify(message, tag)
    assert not receiver.verify(message, tag)


def test_session_mac_detects_reordering():
    sender = SessionMAC(b"k" * 20)
    receiver = SessionMAC(b"k" * 20)
    tag1 = sender.compute(b"one")
    tag2 = sender.compute(b"two")
    assert not receiver.verify(b"two", tag2)  # out of order


def test_session_mac_length_framing():
    # The MAC covers the length: message a||b with split (1,2) differs
    # from (2,1) even when concatenations match.
    m1 = SessionMAC(b"k" * 20).compute(b"abc")
    m2 = SessionMAC(b"k" * 20).compute(b"ab")
    assert m1 != m2


def test_different_keys_differ():
    t1 = SessionMAC(b"a" * 20).compute(b"m")
    t2 = SessionMAC(b"b" * 20).compute(b"m")
    assert t1 != t2


def test_session_mac_failed_verify_consumes_slot():
    # Regression for the docstring's promise: a failed verify burns the
    # message slot too, keeping both endpoints in lock-step afterwards.
    sender = SessionMAC(b"k" * 20)
    receiver = SessionMAC(b"k" * 20)
    tag1 = sender.compute(b"one")
    assert not receiver.verify(b"tampered", tag1)
    tag2 = sender.compute(b"two")
    assert receiver.verify(b"two", tag2)


def test_session_mac_skip_keeps_lockstep():
    # skip() stands in for a record rejected before verification: the
    # receiver burns the slot and the next record still checks out.
    sender = SessionMAC(b"k" * 20)
    receiver = SessionMAC(b"k" * 20)
    sender.compute(b"record the receiver rejected early")
    receiver.skip()
    tag = sender.compute(b"next")
    assert receiver.verify(b"next", tag)


def test_session_mac_counts_slots():
    mac = SessionMAC(b"k" * 20)
    mac.compute(b"a")
    mac.verify(b"b", b"\x00" * MAC_LEN)  # fails, still a slot
    mac.skip()
    assert mac.slots_consumed == 3
