"""The full SFS stack over real localhost TCP sockets."""

import random

import pytest

from repro.core import proto
from repro.core.agent import Agent
from repro.core.client import ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.core.server import SfsServerMaster
from repro.core.tcpstack import TcpConnector, TcpServerHost
from repro.core.authserv import AuthServer
from repro.crypto.rabin import generate_key
from repro.fs import pathops
from repro.fs.memfs import Cred, MemFs
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.sim.clock import Clock
from repro.sim.disk import Disk


@pytest.fixture
def tcp_server():
    clock = Clock()
    rng = random.Random(101)
    master = SfsServerMaster("tcp.example.com", clock, rng)
    fs = MemFs(disk=Disk(clock))
    authserver = AuthServer(rng)
    key = generate_key(768, rng)
    path = master.add_rw_export(key, fs, authserver)
    pathops.write_file(fs, "/hello.txt", b"over real sockets")
    alice = generate_key(768, rng)
    record = authserver.add_account("alice", 1000, 100)
    record.public_key_bytes = alice.public_key.to_bytes()
    authserver.local_db.add_user(record)
    home = pathops.mkdirs(fs, "/home/alice")
    fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    host = TcpServerHost(master)
    connector = TcpConnector()
    connector.route("tcp.example.com", host)
    yield master, path, alice, connector, rng
    host.close()


def test_key_negotiation_over_tcp(tcp_server):
    _master, path, _alice, connector, rng = tcp_server
    pipe = connector(path.location, proto.SERVICE_FILESERVER)
    session = ServerSession.connect(
        pipe, path, EphemeralKeyCache(rng), rng
    )
    assert isinstance(session, ServerSession)
    assert session.session_keys is not None


def test_read_write_over_tcp(tcp_server):
    _master, path, alice, connector, rng = tcp_server
    pipe = connector(path.location, proto.SERVICE_FILESERVER)
    session = ServerSession.connect(
        pipe, path, EphemeralKeyCache(rng), rng
    )
    agent = Agent("alice", rng)
    agent.add_key(alice)
    authno = session.login(agent)
    assert authno != 0
    # Fetch the root handle and read a file through the secure channel.
    zero = bytes(24)
    status, body = session.call_nfs(
        nfs_const.NFSPROC3_LOOKUP,
        nfs_types.LookupArgs.make(
            what=nfs_types.DirOpArgs.make(dir=zero, name=".")
        ),
        authno,
    )
    assert status == nfs_const.NFS3_OK
    root = body.object
    status, body = session.call_nfs(
        nfs_const.NFSPROC3_LOOKUP,
        nfs_types.LookupArgs.make(
            what=nfs_types.DirOpArgs.make(dir=root, name="hello.txt")
        ),
        authno,
    )
    assert status == nfs_const.NFS3_OK
    status, body = session.call_nfs(
        nfs_const.NFSPROC3_READ,
        nfs_types.ReadArgs.make(file=body.object, offset=0, count=100),
        authno,
    )
    assert status == nfs_const.NFS3_OK
    assert body.data == b"over real sockets"
    # And a write as alice.
    status, body = session.call_nfs(
        nfs_const.NFSPROC3_LOOKUP,
        nfs_types.LookupArgs.make(
            what=nfs_types.DirOpArgs.make(dir=root, name="home")
        ),
        authno,
    )
    home = body.object
    status, body = session.call_nfs(
        nfs_const.NFSPROC3_LOOKUP,
        nfs_types.LookupArgs.make(
            what=nfs_types.DirOpArgs.make(dir=home, name="alice")
        ),
        authno,
    )
    alice_home = body.object
    status, body = session.call_nfs(
        nfs_const.NFSPROC3_CREATE,
        nfs_types.CreateArgs.make(
            where=nfs_types.DirOpArgs.make(dir=alice_home, name="tcp-file"),
            how=(nfs_const.UNCHECKED, nfs_types.sattr(mode=0o644)),
        ),
        authno,
    )
    assert status == nfs_const.NFS3_OK
    fh = body.obj
    status, body = session.call_nfs(
        nfs_const.NFSPROC3_WRITE,
        nfs_types.WriteArgs.make(
            file=fh, offset=0, count=9, stable=nfs_const.FILE_SYNC,
            data=b"via tcp!!",
        ),
        authno,
    )
    assert status == nfs_const.NFS3_OK
    assert body.count == 9


def test_wrong_hostid_rejected_over_tcp(tcp_server):
    from repro.core.client import SecurityError
    from repro.core.pathnames import SelfCertifyingPath

    master, path, _alice, connector, rng = tcp_server
    master.config.prepend_rule("hijack", "default", lambda s, h, e: True)
    fake_path = SelfCertifyingPath(path.location, b"\x07" * 20)
    pipe = connector(path.location, proto.SERVICE_FILESERVER)
    with pytest.raises(SecurityError):
        ServerSession.connect(pipe, fake_path, EphemeralKeyCache(rng), rng)
