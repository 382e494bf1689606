"""Tests for NFS file handle schemes (repro.nfs3.handles)."""

import pytest
from hypothesis import given, strategies as st

from repro.nfs3 import handles as handles_module
from repro.nfs3.handles import BadHandle, EncryptedHandles, PlainHandles

KEY = b"k" * 20


def test_plain_roundtrip():
    handles = PlainHandles()
    encoded = handles.encode(7, 123456, 3)
    assert len(encoded) == handles.size
    assert handles.decode(encoded) == (7, 123456, 3)


def test_plain_rejects_wrong_length():
    with pytest.raises(BadHandle):
        PlainHandles().decode(b"short")


def test_encrypted_roundtrip():
    handles = EncryptedHandles(KEY)
    encoded = handles.encode(7, 123456, 3)
    assert len(encoded) == handles.size
    assert handles.decode(encoded) == (7, 123456, 3)


def test_encrypted_is_deterministic():
    handles = EncryptedHandles(KEY)
    assert handles.encode(1, 2, 3) == handles.encode(1, 2, 3)


def test_encrypted_hides_structure():
    handles = EncryptedHandles(KEY)
    plain = PlainHandles().encode(7, 123456, 3)
    encrypted = handles.encode(7, 123456, 3)
    assert plain not in encrypted
    # Near-identical inputs produce wildly different handles.
    other = handles.encode(7, 123457, 3)
    differing = sum(a != b for a, b in zip(encrypted, other))
    assert differing > 8


def test_tampered_handle_rejected():
    handles = EncryptedHandles(KEY)
    encoded = bytearray(handles.encode(1, 2, 3))
    encoded[5] ^= 1
    with pytest.raises(BadHandle):
        handles.decode(bytes(encoded))


def test_guessed_handle_rejected():
    handles = EncryptedHandles(KEY)
    with pytest.raises(BadHandle):
        handles.decode(b"\x00" * handles.size)


def test_wrong_key_rejected():
    encoded = EncryptedHandles(KEY).encode(1, 2, 3)
    with pytest.raises(BadHandle):
        EncryptedHandles(b"x" * 20).decode(encoded)


def test_key_length_enforced():
    with pytest.raises(ValueError):
        EncryptedHandles(b"short")


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
       st.integers(0, 2**32 - 1))
def test_encrypted_roundtrip_property(fsid, ino, generation):
    handles = EncryptedHandles(KEY)
    assert handles.decode(handles.encode(fsid, ino, generation)) == (
        fsid, ino, generation
    )


# --- the memo tables --------------------------------------------------------

def _table_sizes(handles):
    return len(handles._handles), len(handles._files)


def test_forged_handles_raise_every_time_and_are_not_remembered():
    handles = EncryptedHandles(KEY)
    good = handles.encode(1, 2, 3)
    sizes = _table_sizes(handles)
    flipped = bytearray(good)
    flipped[7] ^= 0x20
    for forged in (bytes(flipped), b"\x00" * handles.size, b"short"):
        for _ in range(3):
            with pytest.raises(BadHandle):
                handles.decode(forged)
    assert _table_sizes(handles) == sizes
    assert handles.decode(good) == (1, 2, 3)


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(handles_module, "_MEMO_MAX", 16)
    handles = EncryptedHandles(KEY)
    encoded = [handles.encode(1, ino, 0) for ino in range(160)]
    assert max(_table_sizes(handles)) <= 16
    # Evicted handles still decode, from the cipher, and the table holds.
    fresh = EncryptedHandles(KEY)
    for ino, handle in enumerate(encoded):
        assert fresh.decode(handle) == (1, ino, 0)
        assert max(_table_sizes(fresh)) <= 16


def test_instances_never_share_entries():
    ours, theirs = EncryptedHandles(KEY), EncryptedHandles(b"x" * 20)
    mine = ours.encode(1, 2, 3)
    assert theirs.encode(1, 2, 3) != mine
    with pytest.raises(BadHandle):
        theirs.decode(mine)
    assert ours.decode(mine) == (1, 2, 3)


def test_restart_from_the_same_key_decodes_old_handles():
    before = EncryptedHandles(KEY)
    old = [before.encode(7, ino, 1) for ino in range(8)]
    after = EncryptedHandles(KEY)
    assert [after.decode(handle) for handle in old] == [
        (7, ino, 1) for ino in range(8)]
    assert [after.encode(7, ino, 1) for ino in range(8)] == old
