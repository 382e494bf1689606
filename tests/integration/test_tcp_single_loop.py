"""Several SFS sessions and their server in one thread, over real sockets.

The server host's scheduler runs the sockets and the master's clock;
client sessions run as its tasks.  Nothing here may hang: every test
bounds its wall time.
"""

import random

import pytest

from repro.core import proto
from repro.core.agent import Agent
from repro.core.authserv import AuthServer
from repro.core.client import ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.core.server import SfsServerMaster
from repro.core.tcpstack import TcpConnector, TcpServerHost
from repro.crypto.rabin import generate_key
from repro.fs import pathops
from repro.fs.memfs import Cred, MemFs
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.rpc.peer import RpcTransportDown
from repro.sim.clock import Clock
from repro.sim.disk import Disk

from tests.helpers import wall_bound

SESSIONS = 4
READS = 20
BLOCK = 512


@pytest.fixture(scope="module")
def keys():
    """Generated once: the server's key, alice's, and one ephemeral key."""
    rng = random.Random(36)
    return (generate_key(768, rng), generate_key(768, rng),
            EphemeralKeyCache(rng, max_uses=10**6))


def _serve(keys, seed):
    server_key, alice, _ephemeral = keys
    clock = Clock()
    master = SfsServerMaster("tcp.example.com", clock, random.Random(seed))
    fs = MemFs(disk=Disk(clock))
    authserver = AuthServer(random.Random(seed))
    path = master.add_rw_export(server_key, fs, authserver)
    record = authserver.add_account("alice", 1000, 100)
    record.public_key_bytes = alice.public_key.to_bytes()
    authserver.local_db.add_user(record)
    home = pathops.mkdirs(fs, "/home/alice")
    fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    data = random.Random(seed).randbytes(READS * BLOCK)
    pathops.write_file(fs, "/data", data)
    for n in range(SESSIONS):
        made = pathops.write_file(fs, f"/home/alice/s{n}", b"")
        fs.setattr(made.ino, Cred(0, 0), uid=1000, gid=100)
    host = TcpServerHost(master)
    connector = TcpConnector()
    connector.route(path.location, host)
    return master, fs, path, host, connector, data


def _lookup(session, authno, directory, name):
    status, body = yield from session.call_nfs_task(
        nfs_const.NFSPROC3_LOOKUP,
        nfs_types.LookupArgs.make(
            what=nfs_types.DirOpArgs.make(dir=directory, name=name)),
        authno)
    assert status == nfs_const.NFS3_OK
    return body.object


def _client(keys, path, connector, data, n, seed, sessions):
    _server_key, alice, ephemeral = keys
    rng = random.Random(seed * SESSIONS + n)
    peer, pipe = ServerSession._transport(
        connector(path.location, proto.SERVICE_FILESERVER), path)
    session = yield from ServerSession.connect_task(peer, pipe, path,
                                                    ephemeral, rng)
    sessions.append(session)
    agent = Agent("alice", rng)
    agent.add_key(alice)
    authno = yield from session.login_task(agent)
    assert authno != 0
    root = yield from _lookup(session, authno, bytes(24), ".")
    handle = yield from _lookup(session, authno, root, "data")
    for block in rng.sample(range(READS), READS):
        status, body = yield from session.call_nfs_task(
            nfs_const.NFSPROC3_READ,
            nfs_types.ReadArgs.make(file=handle, offset=block * BLOCK,
                                    count=BLOCK),
            authno)
        assert status == nfs_const.NFS3_OK
        assert body.data == data[block * BLOCK:(block + 1) * BLOCK]
    home = yield from _lookup(session, authno, root, "home")
    mine = yield from _lookup(session, authno, home, "alice")
    mine = yield from _lookup(session, authno, mine, f"s{n}")
    payload = f"session {n} of seed {seed}".encode()
    status, body = yield from session.call_nfs_task(
        nfs_const.NFSPROC3_WRITE,
        nfs_types.WriteArgs.make(file=mine, offset=0, count=len(payload),
                                 stable=nfs_const.FILE_SYNC, data=payload),
        authno)
    assert status == nfs_const.NFS3_OK
    assert body.count == len(payload)


def test_four_sessions_as_tasks_against_one_host_over_fifty_seeds(keys):
    with wall_bound(30):
        for seed in range(50):
            master, fs, path, host, connector, data = _serve(keys, seed)
            host.scheduler.rng.seed(seed)
            sessions = []
            try:
                tasks = host.scheduler.run_all(
                    (_client(keys, path, connector, data, n, seed, sessions)
                     for n in range(SESSIONS)), name=f"seed{seed}")
                for task in tasks:
                    if task.exception is not None:
                        raise task.exception
                    assert task.finished
                for n in range(SESSIONS):
                    assert pathops.read_file(fs, f"/home/alice/s{n}") \
                        == f"session {n} of seed {seed}".encode()
                connections = list(master.connections)
                assert len(connections) == SESSIONS
                for connection in connections:
                    assert connection.channel.rejected_records == 0
                for session in sessions:
                    assert session.channel.rejected_records == 0
            finally:
                for session in sessions:
                    session.pipe.raw.close()
                host.close()


def test_a_client_hanging_up_leaves_the_masters_books(keys):
    master, _fs, path, host, connector, data = _serve(keys, 7)
    sessions = []
    try:
        with wall_bound(10):
            host.scheduler.run_all(
                [_client(keys, path, connector, data, 0, 7, sessions)])
            [connection] = master.connections
            export = connection.export
            assert any(connection in lessees
                       for lessees in export.leases.values())
            sessions[0].pipe.raw.close()
            while master.connections:
                host.scheduler.pump_once()
        assert not connection.alive
        assert not any(connection in lessees
                       for lessees in export.leases.values())
    finally:
        host.close()


def test_a_server_hanging_up_fails_the_clients_calls(keys):
    _master, _fs, path, host, connector, _data = _serve(keys, 8)
    _server_key, alice, ephemeral = keys
    rng = random.Random(8)
    try:
        with wall_bound(10):
            session = ServerSession.connect(
                connector(path.location, proto.SERVICE_FILESERVER), path,
                ephemeral, rng)
            agent = Agent("alice", rng)
            agent.add_key(alice)
            authno = session.login(agent)
            [connection] = _master.connections
            connection.pipe.raw.close()
            with pytest.raises(RpcTransportDown):
                session.call_nfs(
                    nfs_const.NFSPROC3_LOOKUP,
                    nfs_types.LookupArgs.make(
                        what=nfs_types.DirOpArgs.make(dir=bytes(24),
                                                      name=".")),
                    authno)
        assert not session.pipe.raw.is_open
    finally:
        session.pipe.raw.close()
        host.close()
