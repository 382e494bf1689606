"""Sun RPC version 2 message format (RFC 1831), from scratch.

Only the pieces SFS needs: CALL and REPLY messages, AUTH_NONE and
AUTH_SYS credential flavors, and the accept/reject status hierarchy.
Argument and result bodies are carried as raw trailing bytes so each
program's codecs stay independent of the envelope.

Every record on every hop pays for its envelope, so the envelope is a
handful of ``struct`` calls: a CALL's fixed words, and those of an
accepted SUCCESS reply, pack in one; an authenticator's wire bytes are
computed once, a parsed one is interned by those bytes, and an AUTH_SYS
body is marshalled once per identity.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .xdr import Packer, Unpacker, XdrError

RPC_VERSION = 2

CALL = 0
REPLY = 1

# Reply status
MSG_ACCEPTED = 0
MSG_DENIED = 1

# Accept status
SUCCESS = 0
PROG_UNAVAIL = 1
PROG_MISMATCH = 2
PROC_UNAVAIL = 3
GARBAGE_ARGS = 4
SYSTEM_ERR = 5
#: SFS extension (outside RFC 1831's 0-5 range): the server's request
#: queue is full and the call was never executed.  Retryable — the
#: client backs off and resends; admission control's backpressure path.
SERVER_BUSY = 102

# Reject status
RPC_MISMATCH = 0
AUTH_ERROR = 1

# Auth flavors
AUTH_NONE = 0
AUTH_SYS = 1

_MAX_AUTH_BODY = 400

#: Entries each credential memo keeps (least recently used go first).
CRED_MEMO = 256

_WORD = struct.Struct(">I")
_PAIR = struct.Struct(">II")
_TRIPLE = struct.Struct(">III")
#: xid, CALL, rpcvers, prog, vers, proc — and also xid, REPLY,
#: MSG_ACCEPTED, an AUTH_NONE verifier (flavor, length), SUCCESS.
_SIX = struct.Struct(">6I")


class RpcMsgError(XdrError):
    """Raised on malformed RPC envelopes."""


def _words(*words: int) -> bytes:
    return struct.pack(f">{len(words)}I", *words)


@dataclass(frozen=True)
class OpaqueAuth:
    """An RPC authenticator: flavor + opaque body."""

    flavor: int = AUTH_NONE
    body: bytes = b""

    @cached_property
    def wire(self) -> bytes:
        """Flavor, length, body and zero padding: the envelope's bytes."""
        body = self.body
        if len(body) > _MAX_AUTH_BODY:
            raise RpcMsgError(f"auth body exceeds {_MAX_AUTH_BODY} bytes")
        return _words(self.flavor, len(body)) + body + bytes(-len(body) % 4)


NULL_AUTH = OpaqueAuth()


@lru_cache(maxsize=CRED_MEMO)
def _interned(raw: bytes) -> OpaqueAuth:
    """The authenticator whose wire bytes are *raw*: built and checked
    once per distinct credential (the caller checked its length)."""
    flavor, length = _PAIR.unpack_from(raw)
    if any(raw[8 + length:]):
        raise RpcMsgError("nonzero auth padding")
    return OpaqueAuth(flavor, raw[8 : 8 + length])


def _auth_at(data: bytes, off: int) -> tuple[OpaqueAuth, int]:
    """The authenticator at *off* in *data*, and the offset past it."""
    flavor, length = _PAIR.unpack_from(data, off)
    if not (flavor or length):
        return NULL_AUTH, off + 8
    if length > _MAX_AUTH_BODY:
        raise RpcMsgError(f"auth body of {length} bytes")
    end = off + 8 + length + (-length % 4)
    if end > len(data):
        raise RpcMsgError("truncated authenticator")
    raw = data[off:end]
    return _interned(raw if raw.__class__ is bytes else bytes(raw)), end


@dataclass(frozen=True)
class AuthSys:
    """AUTH_SYS (a.k.a. AUTH_UNIX) credentials: the classic NFS identity."""

    stamp: int = 0
    machinename: str = "localhost"
    uid: int = 0
    gid: int = 0
    gids: tuple[int, ...] = ()

    @lru_cache(maxsize=CRED_MEMO)
    def to_auth(self) -> OpaqueAuth:
        packer = Packer()
        packer.pack_uint32(self.stamp)
        packer.pack_string(self.machinename, 255)
        packer.pack_uint32(self.uid)
        packer.pack_uint32(self.gid)
        gids = self.gids[:16]
        packer.pack_uint32(len(gids))
        for gid in gids:
            packer.pack_uint32(gid)
        return OpaqueAuth(AUTH_SYS, packer.detach())

    @staticmethod
    def from_auth(auth: OpaqueAuth) -> "AuthSys":
        if auth.flavor != AUTH_SYS:
            raise RpcMsgError("not an AUTH_SYS credential")
        return _authsys(auth.body)


@lru_cache(maxsize=CRED_MEMO)
def _authsys(body: bytes) -> AuthSys:
    unpacker = Unpacker(body)
    stamp = unpacker.unpack_uint32()
    machinename = unpacker.unpack_string(255)
    uid = unpacker.unpack_uint32()
    gid = unpacker.unpack_uint32()
    count = unpacker.unpack_uint32()
    if count > 16:
        raise RpcMsgError("too many groups in AUTH_SYS")
    gids = tuple(unpacker.unpack_uint32() for _ in range(count))
    unpacker.done()
    return AuthSys(stamp, machinename, uid, gid, gids)


class CallHeader(NamedTuple):
    """A parsed RPC CALL envelope (argument bytes carried separately)."""

    xid: int
    prog: int
    vers: int
    proc: int
    cred: OpaqueAuth = NULL_AUTH
    verf: OpaqueAuth = NULL_AUTH


def pack_call(header: CallHeader, args: bytes) -> bytes:
    xid, prog, vers, proc, cred, verf = header
    head = _SIX.pack(xid, CALL, RPC_VERSION, prog, vers, proc)
    # envelope + body leave as one buffer
    return b"".join((head, cred.wire, verf.wire, args))


class ReplyHeader(NamedTuple):
    """A parsed RPC REPLY envelope (result bytes carried separately)."""

    xid: int
    reply_stat: int = MSG_ACCEPTED
    accept_stat: int = SUCCESS
    reject_stat: int = RPC_MISMATCH
    auth_stat: int = 0
    verf: OpaqueAuth = NULL_AUTH
    mismatch_low: int = 0
    mismatch_high: int = 0

    @property
    def successful(self) -> bool:
        return self.reply_stat == MSG_ACCEPTED and self.accept_stat == SUCCESS


def pack_reply(header: ReplyHeader, results: bytes = b"") -> bytes:
    xid, reply_stat, accept_stat, reject_stat, auth_stat, verf, low, high = header
    if reply_stat != MSG_ACCEPTED:
        if reject_stat == RPC_MISMATCH:
            return _words(xid, REPLY, reply_stat, reject_stat, low, high)
        return _words(xid, REPLY, reply_stat, reject_stat, auth_stat)
    if accept_stat == SUCCESS and verf is NULL_AUTH:
        return _SIX.pack(xid, REPLY, MSG_ACCEPTED, AUTH_NONE, 0, SUCCESS) + results
    head = _words(xid, REPLY, MSG_ACCEPTED) + verf.wire
    if accept_stat == PROG_MISMATCH:
        return head + _words(accept_stat, low, high)
    return head + _words(accept_stat) + (results if accept_stat == SUCCESS else b"")


class ParsedMessage(NamedTuple):
    """Either a CALL or a REPLY, with the trailing body bytes.

    ``body`` is a ``memoryview`` over the record's tail, not a copy —
    an 8 KB READ payload crosses three RPC hops in the SFS
    configuration, and slicing it out of every envelope showed up in
    profiles.  The codec layer accepts views everywhere and copies only
    the opaque payloads it hands to callers as real ``bytes``.
    """

    mtype: int
    call: CallHeader | None
    reply: ReplyHeader | None
    body: bytes


def peek_message(data: bytes) -> tuple[int, int] | None:
    """Cheaply read ``(mtype, xid)`` off a record without full parsing.

    The duplicate-reply cache consults this on every inbound record to
    spot retransmitted calls before paying for header/auth unpacking.
    Returns None for records too short or of unknown type.
    """
    if len(data) < 8:
        return None
    xid, mtype = _PAIR.unpack_from(data)
    if mtype not in (CALL, REPLY):
        return None
    return mtype, xid


#: Builds a named tuple from its items in one C call, without the
#: generated ``__new__`` in between (every record parses through here).
_new = tuple.__new__


def parse_message(data: bytes) -> ParsedMessage:
    """Parse an RPC record into its envelope + trailing body bytes."""
    try:
        xid, mtype, word = _TRIPLE.unpack_from(data)
        if mtype == CALL:
            if word != RPC_VERSION:
                raise RpcMsgError(f"unsupported RPC version {word}")
            prog, vers, proc = _TRIPLE.unpack_from(data, 12)
            cred, off = _auth_at(data, 24)
            verf, off = _auth_at(data, off)
            return _new(ParsedMessage, (
                CALL, _new(CallHeader, (xid, prog, vers, proc, cred, verf)),
                None, memoryview(data)[off:]))
        if mtype != REPLY:
            raise RpcMsgError(f"bad message type {mtype}")
        if word == MSG_ACCEPTED:
            verf, off = _auth_at(data, 12)
            (stat,) = _WORD.unpack_from(data, off)
            low = high = 0
            if stat == PROG_MISMATCH:
                low, high = _PAIR.unpack_from(data, off + 4)
                off += 8
            return _new(ParsedMessage, (
                REPLY, None,
                _new(ReplyHeader, (xid, MSG_ACCEPTED, stat, RPC_MISMATCH, 0,
                                   verf, low, high)),
                memoryview(data)[off + 4 :]))
        if word == MSG_DENIED:
            reject_stat, value = _PAIR.unpack_from(data, 12)
            if reject_stat == RPC_MISMATCH:
                (high,) = _WORD.unpack_from(data, 20)
                header = ReplyHeader(xid, MSG_DENIED, reject_stat=reject_stat,
                                     mismatch_low=value, mismatch_high=high)
            else:
                header = ReplyHeader(xid, MSG_DENIED, reject_stat=reject_stat,
                                     auth_stat=value)
            return ParsedMessage(REPLY, None, header, b"")
        raise RpcMsgError(f"bad reply_stat {word}")
    except struct.error:
        raise RpcMsgError("truncated RPC message") from None
