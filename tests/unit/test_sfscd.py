"""Unit tests for sfscd internals (repro.core.client): the synthetic
/sfs program, SwitchablePipe, and fsid rewriting."""

import pytest

from repro.core.client import SfsClientDaemon
from repro.core.handlemap import patch_result
from repro.core.server import SwitchablePipe
from repro.core.channel import SecureChannel
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.rpc.peer import CallContext, RpcPeer
from repro.core import proto
from repro.rpc import rpcmsg
from repro.rpc.rpcmsg import AuthSys, CallHeader
from repro.rpc.xdr import Record
from repro.sim.clock import Clock
from repro.sim.network import NetworkParameters, link_pair
from tests.helpers import settle


class _NoMounter:
    def mount(self, *args): ...
    def unmount(self, *args): ...


def make_daemon():
    import random

    clock = Clock()
    return SfsClientDaemon(
        clock, random.Random(5),
        connector=lambda location, service: (_ for _ in ()).throw(
            ConnectionError("unreachable in unit tests")
        ),
        mounter=_NoMounter(),
    )


def lookup(daemon, args, ctx):
    """Run the /sfs LOOKUP handler, a generator, to its reply: each
    back-off sleep between dials is spent on the daemon's clock."""
    gen = daemon._lookup(args, ctx)
    try:
        waited = next(gen)
        while True:
            daemon.clock.advance(waited.seconds)
            waited = gen.send(None)
    except StopIteration as stop:
        return stop.value


def ctx_for(daemon, uid):
    cred = AuthSys(uid=uid, gid=100).to_auth()
    header = CallHeader(xid=1, prog=nfs_const.NFS3_PROGRAM,
                        vers=3, proc=3, cred=cred)
    return CallContext(peer=None, header=header)


def test_root_getattr():
    daemon = make_daemon()
    args = Record(object=daemon.root_handle())
    status, body = daemon._getattr(args, ctx_for(daemon, 1000))
    assert status == nfs_const.NFS3_OK
    assert body.obj_attributes.type == nfs_const.NF3DIR


def test_lookup_in_non_root_rejected():
    daemon = make_daemon()
    args = Record(what=Record(dir=b"SOMETHINGELSE", name="x"))
    status, _body = lookup(daemon, args, ctx_for(daemon, 1000))
    assert status == nfs_const.NFS3ERR_NOTDIR


def test_lookup_unreachable_mount_is_noent():
    daemon = make_daemon()
    name = "unreachable.example.com:" + "2" * 32
    args = Record(what=Record(dir=daemon.root_handle(), name=name))
    status, _body = lookup(daemon, args, ctx_for(daemon, 1000))
    assert status == nfs_const.NFS3ERR_NOENT


def test_lookup_plain_name_without_agent_is_noent():
    daemon = make_daemon()
    args = Record(what=Record(dir=daemon.root_handle(), name="plainname"))
    status, _body = lookup(daemon, args, ctx_for(daemon, 1000))
    assert status == nfs_const.NFS3ERR_NOENT


def test_agent_symlink_manufactured_and_scoped():
    import random
    from repro.core.agent import Agent

    daemon = make_daemon()
    agent = Agent("u", random.Random(6))
    agent.add_link("mit", "/sfs/target:" + "2" * 32)
    daemon.attach_agent(1000, agent)
    args = Record(what=Record(dir=daemon.root_handle(), name="mit"))
    status, body = lookup(daemon, args, ctx_for(daemon, 1000))
    assert status == nfs_const.NFS3_OK
    assert body.obj_attributes.type == nfs_const.NF3LNK
    # readlink through the daemon
    link_args = Record(symlink=body.object)
    status, link_body = daemon._readlink(link_args, ctx_for(daemon, 1000))
    assert status == nfs_const.NFS3_OK
    assert link_body.data == "/sfs/target:" + "2" * 32
    # another uid does not see it
    status, _ = lookup(daemon, args, ctx_for(daemon, 2000))
    assert status == nfs_const.NFS3ERR_NOENT


def test_readdir_lists_per_agent_views():
    import random
    from repro.core.agent import Agent

    daemon = make_daemon()
    agent = Agent("u", random.Random(7))
    agent.add_link("work", "/sfs/x:" + "3" * 32)
    daemon.attach_agent(1000, agent)
    args = Record(what=Record(dir=daemon.root_handle(), name="work"))
    lookup(daemon, args, ctx_for(daemon, 1000))
    rd_args = Record(dir=daemon.root_handle(), cookie=0,
                     cookieverf=b"\x00" * 8, count=4096)
    status, body = daemon._readdir(rd_args, ctx_for(daemon, 1000))
    names = [e.name for e in body.entries]
    assert "work" in names
    status, body = daemon._readdir(rd_args, ctx_for(daemon, 2000))
    assert "work" not in [e.name for e in body.entries]


def test_fsinfo_and_access():
    daemon = make_daemon()
    status, body = daemon._fsinfo(
        Record(fsroot=daemon.root_handle()), ctx_for(daemon, 1000)
    )
    assert status == nfs_const.NFS3_OK
    assert body.rtpref == 8192
    status, body = daemon._access(
        Record(object=daemon.root_handle(),
               access=nfs_const.ACCESS3_READ | nfs_const.ACCESS3_MODIFY),
        ctx_for(daemon, 1000),
    )
    assert body.access == nfs_const.ACCESS3_READ  # read-only namespace


# --- fsids, patched in the reply's bytes ---------------------------------------

def _fattr(fsid):
    zero = nfs_types.NfsTime.make(seconds=0, nseconds=0)
    return nfs_types.Fattr.make(
        type=1, mode=0o644, nlink=1, uid=0, gid=0, size=0, used=0,
        rdev=nfs_types.SpecData.make(major=0, minor=0),
        fsid=fsid, fileid=9, atime=zero, mtime=zero, ctime=zero,
    )


def _patched(proc, value, fsid):
    """*value*, a result of *proc*, after sfscd's patch sets *fsid*."""
    codec = nfs_types.PROC_CODECS[proc][1]
    wire, _ = patch_result(proc, codec.pack(value), None, fsid)
    return codec.unpack(wire)


def test_patched_fsids_deep():
    _status, body = _patched(nfs_const.NFSPROC3_CREATE, (nfs_const.NFS3_OK, Record(
        obj=b"h", obj_attributes=_fattr(111),
        dir_wcc=nfs_types.WccData.make(before=None, after=_fattr(222)))),
        777)
    assert body.obj_attributes.fsid == 777
    assert body.dir_wcc.after.fsid == 777
    _status, body = _patched(nfs_const.NFSPROC3_READDIRPLUS, (
        nfs_const.NFS3_OK, Record(
            dir_attributes=None, cookieverf=bytes(8), eof=True,
            entries=[Record(name_attributes=_fattr(333), name_handle=None,
                            fileid=1, name="x", cookie=1)])), 777)
    assert body.entries[0].name_attributes.fsid == 777
    assert body.entries[0].name_attributes.fileid == 9  # untouched


def test_patched_fsids_in_failure_arms_and_absent_attributes():
    assert _patched(nfs_const.NFSPROC3_GETATTR,
                    (nfs_const.NFS3ERR_STALE, None), 7) == \
        (nfs_const.NFS3ERR_STALE, None)
    _status, body = _patched(nfs_const.NFSPROC3_LOOKUP, (
        nfs_const.NFS3ERR_NOENT, Record(dir_attributes=_fattr(5))), 7)
    assert body.dir_attributes.fsid == 7
    _status, body = _patched(nfs_const.NFSPROC3_LOOKUP, (
        nfs_const.NFS3_OK, Record(object=b"o", obj_attributes=_fattr(5),
                                  dir_attributes=None)), 7)
    assert body.obj_attributes.fsid == 7 and body.dir_attributes is None


# --- SwitchablePipe -----------------------------------------------------------

def test_switchable_pipe_switch_after_reply():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    pipe_a = SwitchablePipe(a)
    received_b = []
    b.on_receive(received_b.append)
    pipe_a.on_receive(lambda d: None)
    channel = SecureChannel.__new__(SecureChannel)  # placeholder w/ api
    sent = []

    class FakeChannel:
        def __init__(self):
            self.sent = []

        def send(self, data):
            sent.append(data)

        def on_receive(self, handler):
            self.handler = handler

        def attach(self): ...

    fake = FakeChannel()
    pipe_a.switch_after_reply(fake)
    pipe_a.send(b"the plaintext reply")      # goes out raw, then switch
    settle(clock)
    assert received_b == [b"the plaintext reply"]
    pipe_a.send(b"now encrypted")
    assert sent == [b"now encrypted"]


def test_switchable_pipe_switch_now():
    clock = Clock()
    a, _b = link_pair(clock, NetworkParameters.instant())
    pipe = SwitchablePipe(a)
    seen = []
    pipe.on_receive(seen.append)

    class FakeChannel:
        def send(self, data): ...
        def on_receive(self, handler):
            self.handler = handler

        def attach(self): ...

    fake = FakeChannel()
    pipe.switch_now(fake)
    fake.handler(b"via channel")
    assert seen == [b"via channel"]


class _SealingChannel:
    """Stands in for a SecureChannel: what it would seal, it keeps."""

    def __init__(self):
        self.sealed = []

    def send(self, data):
        self.sealed.append(data)

    def on_receive(self, handler): ...

    def attach(self): ...


def _call(xid, prog, proc):
    return rpcmsg.pack_call(CallHeader(xid, prog, proto.SFS_VERSION, proc),
                            b"")


def test_withdrawn_pipe_passes_only_the_rekey_exchange():
    """While withdrawn, a pipe lets out and in only a REKEY CALL and the
    REPLY to its xid; a REKEY CALL let in gets one reply out, sent while
    it is dispatched.  Other sends wait parked, in order, for the next
    channel to seal them; other records that arrive are dropped and
    counted, and a closed link drops what is parked."""
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    pipe = SwitchablePipe(a)
    seen, wire = [], []
    pipe.on_receive(seen.append)
    b.on_receive(wire.append)
    pipe.switch_now(_SealingChannel())
    rekey = _call(7, proto.SFS_CONNECT_PROGRAM, proto.PROC_REKEY)
    siblings = [_call(8, proto.SFS_RW_PROGRAM, nfs_const.NFSPROC3_GETATTR),
                _call(9, proto.SFS_RW_PROGRAM, nfs_const.NFSPROC3_READ)]

    pipe.reset_to_plaintext()
    assert pipe.lower is pipe.raw
    pipe.send(siblings[0])
    pipe.send(rekey)
    pipe.send(siblings[1])
    settle(clock)
    assert wire == [rekey]
    rekey_reply = rpcmsg.pack_reply(rpcmsg.ReplyHeader(7))
    b.send(rpcmsg.pack_reply(rpcmsg.ReplyHeader(8)))    # a sibling's
    b.send(_call(5, proto.SFS_CB_PROGRAM, proto.PROC_INVALIDATE))
    b.send(rekey_reply)
    settle(clock)
    assert seen == [rekey_reply]
    assert pipe.withdrawn_drops == 2
    channel = _SealingChannel()
    pipe.switch_now(channel)
    assert pipe.lower is channel and channel.sealed == siblings

    pipe.reset_to_plaintext()                # the server's end of it
    answer, other = (rpcmsg.pack_reply(rpcmsg.ReplyHeader(xid))
                     for xid in (11, 12))

    def serve(record):       # a REKEY is answered before its dispatch ends
        seen.append(record)
        pipe.send(answer)
        pipe.send(answer)                    # ... once
        pipe.send(other)                     # ... and under its xid only

    pipe.on_receive(serve)
    served = _call(11, proto.SFS_CONNECT_PROGRAM, proto.PROC_REKEY)
    b.send(served)
    settle(clock)
    assert seen[-1] == served and wire[1:] == [answer]
    pipe.send(answer)                        # after it: parked
    pipe.send(siblings[0])
    settle(clock)
    assert wire[1:] == [answer]
    a.close()
    pipe.switch_now(channel)
    assert channel.sealed == siblings                   # nothing more
