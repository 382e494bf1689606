"""Tests for Sun RPC message framing (repro.rpc.rpcmsg)."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.server import make_sfs_cred
from repro.rpc import rpcmsg
from repro.rpc.rpcmsg import (
    AuthSys,
    CallHeader,
    NULL_AUTH,
    OpaqueAuth,
    ReplyHeader,
    RpcMsgError,
    XdrError,
    pack_call,
    pack_reply,
    parse_message,
)
from tests.helpers import count_calls


def test_call_roundtrip():
    header = CallHeader(xid=7, prog=100003, vers=3, proc=1)
    parsed = parse_message(pack_call(header, b"ARGS"))
    assert parsed.mtype == rpcmsg.CALL
    assert parsed.call == header
    assert parsed.body == b"ARGS"


def test_call_with_authsys():
    cred = AuthSys(stamp=5, machinename="host", uid=10, gid=20,
                   gids=(30, 40)).to_auth()
    header = CallHeader(xid=1, prog=2, vers=3, proc=4, cred=cred)
    parsed = parse_message(pack_call(header, b""))
    decoded = AuthSys.from_auth(parsed.call.cred)
    assert decoded == AuthSys(5, "host", 10, 20, (30, 40))


def test_authsys_rejects_wrong_flavor():
    with pytest.raises(RpcMsgError):
        AuthSys.from_auth(NULL_AUTH)


def test_authsys_group_limit():
    auth = AuthSys(gids=tuple(range(20))).to_auth()
    decoded = AuthSys.from_auth(auth)
    assert len(decoded.gids) == 16


def test_success_reply_roundtrip():
    reply = ReplyHeader(xid=9)
    parsed = parse_message(pack_reply(reply, b"RESULT"))
    assert parsed.mtype == rpcmsg.REPLY
    assert parsed.reply.successful
    assert parsed.body == b"RESULT"


@pytest.mark.parametrize("accept_stat", [
    rpcmsg.PROG_UNAVAIL, rpcmsg.PROC_UNAVAIL,
    rpcmsg.GARBAGE_ARGS, rpcmsg.SYSTEM_ERR,
])
def test_error_replies(accept_stat):
    reply = ReplyHeader(xid=3, accept_stat=accept_stat)
    parsed = parse_message(pack_reply(reply))
    assert not parsed.reply.successful
    assert parsed.reply.accept_stat == accept_stat
    assert parsed.body == b""


def test_prog_mismatch_carries_versions():
    reply = ReplyHeader(xid=3, accept_stat=rpcmsg.PROG_MISMATCH,
                        mismatch_low=2, mismatch_high=4)
    parsed = parse_message(pack_reply(reply))
    assert parsed.reply.mismatch_low == 2
    assert parsed.reply.mismatch_high == 4


def test_denied_reply():
    reply = ReplyHeader(xid=5, reply_stat=rpcmsg.MSG_DENIED,
                        reject_stat=rpcmsg.AUTH_ERROR, auth_stat=1)
    parsed = parse_message(pack_reply(reply))
    assert parsed.reply.reply_stat == rpcmsg.MSG_DENIED
    assert parsed.reply.auth_stat == 1


def test_wrong_rpc_version_rejected():
    header = CallHeader(xid=1, prog=2, vers=3, proc=4)
    raw = bytearray(pack_call(header, b""))
    raw[11] = 9  # rpcvers field
    with pytest.raises(RpcMsgError):
        parse_message(bytes(raw))


def test_garbage_rejected():
    with pytest.raises(RpcMsgError):
        parse_message(b"\x00\x01")
    bad_mtype = (1).to_bytes(4, "big") + (5).to_bytes(4, "big")
    with pytest.raises(RpcMsgError):
        parse_message(bad_mtype)


# ---------------------------------------------------------------------------
# Strictness: every record parses to what was packed, and every damaged
# record parses or raises XdrError.  RpcPeer drops only XdrError; any
# other exception would escape into the timer that delivered the record.
# ---------------------------------------------------------------------------

u32 = st.integers(0, 0xFFFFFFFF)
auth_sys = st.builds(
    AuthSys, u32, st.text(max_size=20), u32, u32,
    st.lists(u32, max_size=16).map(tuple),
)
creds = st.one_of(
    st.just(NULL_AUTH),
    auth_sys.map(AuthSys.to_auth),
    u32.map(make_sfs_cred),
)
verifiers = st.one_of(
    st.just(NULL_AUTH),
    st.builds(OpaqueAuth, u32, st.binary(max_size=rpcmsg._MAX_AUTH_BODY)),
)
bodies = st.binary(max_size=64)

calls = st.tuples(
    st.builds(CallHeader, u32, u32, u32, u32, creds, verifiers), bodies)
accepted = st.one_of(
    st.builds(lambda xid, verf, body: (ReplyHeader(xid, verf=verf), body),
              u32, verifiers, bodies),
    st.builds(lambda xid, verf, low, high: (ReplyHeader(
        xid, accept_stat=rpcmsg.PROG_MISMATCH, verf=verf,
        mismatch_low=low, mismatch_high=high), b""),
        u32, verifiers, u32, u32),
    st.builds(lambda xid, stat, verf: (ReplyHeader(
        xid, accept_stat=stat, verf=verf), b""),
        u32, st.sampled_from([
            rpcmsg.PROG_UNAVAIL, rpcmsg.PROC_UNAVAIL, rpcmsg.GARBAGE_ARGS,
            rpcmsg.SYSTEM_ERR, rpcmsg.SERVER_BUSY]), verifiers),
)
denied = st.one_of(
    st.builds(lambda xid, low, high: (ReplyHeader(
        xid, rpcmsg.MSG_DENIED, reject_stat=rpcmsg.RPC_MISMATCH,
        mismatch_low=low, mismatch_high=high), b""), u32, u32, u32),
    st.builds(lambda xid, stat: (ReplyHeader(
        xid, rpcmsg.MSG_DENIED, reject_stat=rpcmsg.AUTH_ERROR,
        auth_stat=stat), b""), u32, u32),
)
messages = st.one_of(calls, accepted, denied)


def _pack(header, body):
    if isinstance(header, CallHeader):
        return pack_call(header, body)
    return pack_reply(header, body)


def _raw_auth(flavor, body, pad):
    return struct.pack(">II", flavor, len(body)) + body + pad


@st.composite
def bad_auth_calls(draw):
    """CALLs whose credential breaks a rule no packer would: a body over
    400 bytes, or nonzero padding."""
    if draw(st.booleans()):
        body = draw(st.binary(min_size=401, max_size=420))
        pad = bytes(-len(body) % 4)
    else:
        body = draw(st.binary(max_size=40).filter(lambda b: len(b) % 4))
        pad = draw(st.binary(min_size=-len(body) % 4, max_size=-len(body) % 4)
                   .filter(any))
    head = struct.pack(">6I", draw(u32), rpcmsg.CALL, rpcmsg.RPC_VERSION,
                       draw(u32), draw(u32), draw(u32))
    return head + _raw_auth(rpcmsg.AUTH_SYS, body, pad) + bytes(8)


def _parses_or_xdr_error(record):
    try:
        rpcmsg.parse_message(record)
    except XdrError:
        pass


@given(messages)
@settings(max_examples=300, deadline=None)
def test_every_branch_roundtrips(message):
    header, body = message
    parsed = parse_message(_pack(header, body))
    assert (parsed.call or parsed.reply) == header
    assert bytes(parsed.body) == body


@given(bad_auth_calls())
@settings(max_examples=100, deadline=None)
def test_bad_authenticator_rejected(record):
    with pytest.raises(RpcMsgError):
        parse_message(record)


@given(st.one_of(messages.map(lambda m: _pack(*m)), bad_auth_calls()),
       st.data())
@settings(max_examples=500, deadline=None)
def test_damaged_record_parses_or_raises_xdr_error(record, data):
    record = bytearray(record)
    cut = data.draw(st.integers(0, len(record)))
    _parses_or_xdr_error(bytes(record[:cut]))
    flip = data.draw(st.integers(0, len(record) - 1))
    flipped = bytearray(record)
    flipped[flip] ^= data.draw(st.integers(1, 255))
    _parses_or_xdr_error(bytes(flipped))
    word = data.draw(st.integers(0, len(record) // 4 - 1))
    value = data.draw(st.one_of(
        st.sampled_from([0, 1, 2, 3, 400, 401, 0x7FFFFFFF, 0xFFFFFFFF]), u32))
    record[4 * word : 4 * word + 4] = value.to_bytes(4, "big")
    _parses_or_xdr_error(bytes(record))


# ---------------------------------------------------------------------------
# The envelope's cost, as a count: the Python and C functions one warm
# round trip calls (host time is too noisy to gate).  The Packer-based
# envelope this replaced made 134, 98 and 62, the struct-packed one 22,
# 18 and 14; building the parsed named tuples in one C call each made
# them 20, 16 and 12, pinned here.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("budget,round_trip", [
    pytest.param(20, lambda: parse_message(pack_call(CallHeader(
        1, 100003, 3, 3,
        AuthSys(uid=1000, gid=100, gids=(100,)).to_auth()), b"ARGS")),
        id="auth_sys-call"),
    pytest.param(16, lambda: parse_message(pack_call(CallHeader(
        2, 344444, 1, 3, make_sfs_cred(5)), b"ARGS")),
        id="auth_sfs-call"),
    pytest.param(12, lambda: parse_message(pack_reply(
        ReplyHeader(3), b"RESULT")),
        id="success-reply"),
])
def test_envelope_call_budget(budget, round_trip):
    assert count_calls(round_trip) <= budget
