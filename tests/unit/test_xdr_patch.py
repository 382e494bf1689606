"""The compiled wire patch equals decode → translate → encode.

The relays forward patched bytes (:func:`repro.core.handlemap.patch_args`,
``patch_result``): each procedure's patch is compiled from its XDR
declaration.  Over values drawn from the declarations themselves (the
strategy of ``test_xdr_compiled.py``), for every NFS 3 procedure's
arguments and every result arm — READDIRPLUS entries, wcc attributes
and absent optionals included — the patched image must be the bytes
of the decoded value with its handles translated and its fsids set,
the handles it reports must be :func:`handlemap.handles`' list, and a
damaged image must raise exactly when decoding it raises.  Both marshal
lanes run: with the fast lane off the patch *is* the reference path.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import handlemap
from repro.crypto import backend
from repro.nfs3 import const
from repro.nfs3.types import PROC_CODECS
from repro.rpc.xdr import XdrError
from tests.unit.test_xdr_compiled import values_of

PROCS = sorted(proc for proc in PROC_CODECS if proc != const.NFSPROC3_NULL)


def _grow(handle: bytes) -> bytes:
    """A translation that changes every handle's length."""
    return b"T" + handle[:40]


def _expected(proc, side, wire, fsid):
    """encode(translate(decode(wire))) and the handles it held."""
    codec = PROC_CODECS[proc][side]
    value = codec.unpack(wire)
    found = []

    def grow(handle):
        found.append(handle)
        return _grow(handle)

    if side == 0:
        handlemap.translate_args(proc, value, grow)
    else:
        status, body = value
        handlemap.translate_result(proc, status, body, grow)
        sites = handlemap.ATTR_SITES[proc][status != const.NFS3_OK]
        if body is not None:
            for path, _optional in sites[0]:
                target = body
                for attr in path:
                    target = getattr(target, attr)
                if target is not None:
                    target.fsid = fsid
            for path, inner in sites[1]:
                for entry in getattr(body, path[0]):
                    for site, _ in inner:
                        if getattr(entry, site[0]) is not None:
                            getattr(entry, site[0]).fsid = fsid
    return codec.pack(value), found


def _patch(proc, side, wire, fsid):
    if side == 0:
        return handlemap.patch_args(proc, wire, _grow)
    return handlemap.patch_result(proc, wire, _grow, fsid)


@pytest.fixture(autouse=True)
def _fast_restored():
    yield
    backend.set_fast(True)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("proc", PROCS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_patch_equals_decode_translate_encode(proc, fast, data):
    for side in (0, 1):
        codec = PROC_CODECS[proc][side]
        wire = codec.pack(data.draw(values_of(codec)))
        backend.set_fast(True)
        expected, found = _expected(proc, side, wire, 0x5A5A)
        backend.set_fast(fast)
        patched, seen = _patch(proc, side, wire, 0x5A5A)
        assert bytes(patched) == expected
        assert seen == found
        if side == 0:
            assert seen == handlemap.handles(proc, PROC_CODECS[proc][0]
                                             .unpack(wire))


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("proc", PROCS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_image_raises_exactly_when_decode_does(proc, fast, data):
    side = data.draw(st.sampled_from([0, 1]))
    codec = PROC_CODECS[proc][side]
    wire = bytearray(codec.pack(data.draw(values_of(codec))))
    damage = data.draw(st.sampled_from(["cut", "flip", "trail", "pad"]))
    if damage == "cut":
        wire = wire[:data.draw(st.integers(0, max(0, len(wire) - 1)))]
    elif damage == "flip" and wire:
        at = data.draw(st.integers(0, len(wire) - 1))
        wire[at] ^= data.draw(st.integers(1, 255))
    elif damage == "trail":
        wire += b"\x00" * data.draw(st.integers(1, 4))
    elif wire:
        wire[-1] |= 1  # the last byte: often zero fill
    wire = bytes(wire)
    backend.set_fast(fast)
    try:
        codec.unpack(wire)
    except XdrError:
        with pytest.raises(XdrError):
            _patch(proc, side, wire, 7)
    else:
        _patch(proc, side, wire, 7)
