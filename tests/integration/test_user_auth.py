"""User authentication through the full stack (paper section 2.5 and
figure 4)."""

import errno

import pytest

from repro.core import proto
from repro.core.agent import Agent
from repro.core.client import ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.crypto.rabin import generate_key
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from tests.helpers import job, run


@pytest.fixture
def auth_world():
    world = World(seed=21)
    server = world.add_server("auth.example.com")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    return world, server, path, alice


def connect_session(world, path):
    link = world.connector(path.location, proto.SERVICE_FILESERVER)
    session = ServerSession.connect(
        link, path, EphemeralKeyCache(world.rng), world.rng
    )
    assert isinstance(session, ServerSession)
    return session


def test_login_maps_key_to_credentials(auth_world):
    world, server, path, alice = auth_world
    agent = Agent("alice", world.rng)
    agent.add_key(alice.key)
    session = connect_session(world, path)
    authno = session.login(agent)
    assert authno != 0
    # The authno carries alice's uid on the server side.
    connection = list(server.master.rw_export(path.hostid).connections)[-1]
    assert connection._authnos[authno].uid == 1000


def test_login_with_unknown_key_falls_back_anonymous(auth_world):
    world, _server, path, _alice = auth_world
    agent = Agent("stranger", world.rng)
    agent.add_key(generate_key(768, world.rng))
    session = connect_session(world, path)
    assert session.login(agent) == 0


def test_login_with_no_keys_is_anonymous(auth_world):
    world, _server, path, _alice = auth_world
    agent = Agent("keyless", world.rng)
    session = connect_session(world, path)
    assert session.login(agent) == 0


def test_agent_tries_multiple_keys(auth_world):
    """"If the authserver rejects an authentication request, the agent
    can try again using different credentials.""" """"""
    world, _server, path, alice = auth_world
    agent = Agent("alice", world.rng)
    agent.add_key(generate_key(768, world.rng))  # wrong key first
    agent.add_key(alice.key)                     # right key second
    session = connect_session(world, path)
    assert session.login(agent) != 0
    assert len(agent.audit_log) == 2  # two signing operations


def test_seqno_replay_rejected_by_server(auth_world):
    """Sequence numbers prevent one agent from reusing another's signed
    request on the same client."""
    world, server, path, alice = auth_world
    agent = Agent("alice", world.rng)
    agent.add_key(alice.key)
    session = connect_session(world, path)
    info = session.authinfo_bytes()
    authmsg = run(agent.sign_request(info, seqno=1), world.clock)
    disc, body = session.peer.call(
        proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGIN,
        proto.LoginArgs, proto.LoginArgs.make(seqno=1, authmsg=authmsg),
        proto.LoginRes,
    )
    assert disc == proto.LOGIN_OK
    # Replaying the very same signed request: rejected (seqno seen).
    disc2, _ = session.peer.call(
        proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGIN,
        proto.LoginArgs, proto.LoginArgs.make(seqno=1, authmsg=authmsg),
        proto.LoginRes,
    )
    assert disc2 == proto.LOGIN_FAILED


def test_authmsg_not_transferable_across_sessions(auth_world):
    """AuthID binds the SessionID, so a signed request from one session
    fails validation on another."""
    world, _server, path, alice = auth_world
    agent = Agent("alice", world.rng)
    agent.add_key(alice.key)
    session1 = connect_session(world, path)
    session2 = connect_session(world, path)
    stolen = run(agent.sign_request(session1.authinfo_bytes(), seqno=1),
                 world.clock)
    disc, _ = session2.peer.call(
        proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGIN,
        proto.LoginArgs, proto.LoginArgs.make(seqno=1, authmsg=stolen),
        proto.LoginRes,
    )
    assert disc == proto.LOGIN_FAILED


def test_logout_invalidates_authno(auth_world):
    world, server, path, alice = auth_world
    agent = Agent("alice", world.rng)
    agent.add_key(alice.key)
    session = connect_session(world, path)
    authno = session.login(agent)
    connection = list(server.master.rw_export(path.hostid).connections)[-1]
    assert authno in connection._authnos
    from repro.rpc.xdr import VOID
    session.peer.call(
        proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGOUT,
        proto.LogoutArgs, proto.LogoutArgs.make(authno=authno), VOID,
    )
    assert authno not in connection._authnos


def test_kernel_level_auth_selection(auth_world):
    """Requests from different local uids map to different agents and
    therefore different server credentials."""
    world, server, path, alice = auth_world
    bob = server.add_user("bob", uid=2000)
    bob_home = pathops.mkdirs(server.fs, "/home/bob")
    server.fs.setattr(bob_home.ino, Cred(0, 0), uid=2000, gid=100)

    client = world.add_client("shared-workstation")
    alice_proc = client.login_user("alice", alice.key, uid=1000)
    bob_proc = client.login_user("bob", bob.key, uid=2000)

    alice_proc.write_file(f"{path}/home/alice/a", b"alice's")
    bob_proc.write_file(f"{path}/home/bob/b", b"bob's")
    assert alice_proc.stat(f"{path}/home/alice/a").uid == 1000
    assert bob_proc.stat(f"{path}/home/bob/b").uid == 2000
    # And they cannot write into each other's (0755) homes.
    with pytest.raises(KernelError):
        bob_proc.write_file(f"{path}/home/alice/intrusion", b"x")


def test_kernel_login_backs_off_when_the_admission_queue_is_full(auth_world):
    """The LOGIN a first file access triggers meets SERVER_BUSY: the
    client backs off, signs a fresh seqno and gets in — the user is
    authenticated, not handed EIO (or silently left anonymous)."""
    world, server, path, alice = auth_world
    queue = server.master.request_queue
    queue.configure(max_depth=1, workers=1, service_time=0.010)
    client = world.add_client("workstation")
    client.process(uid=4000).stat(f"{path}/home")   # mount; no agent
    session = client.sfscd._mounts[path.hostid].session
    # One filler in service (its slot sleeps on it), one waiting: the
    # queue is full when alice's LOGIN arrives.  The first filler starts
    # at once and the pump runs the clock to its end, so the second
    # takes the free slot and a third is the one that waits.
    assert queue.submit("filler", job())
    world.scheduler.pump_once()
    assert queue.submit("filler", job())
    queue.submit("filler", job())
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.write_file(f"{path}/home/alice/note", b"signed in")
    assert proc.stat(f"{path}/home/alice/note").uid == 1000
    assert session.busy_retries >= 1
    assert world.metrics.counter("server.queue.rejected").value >= 1


def test_user_authentication_over_secure_channel_only(auth_world):
    """LOGIN is part of the post-negotiation program: before ENCRYPT
    there is no RW program to call."""
    world, _server, path, _alice = auth_world
    link = world.connector(path.location, proto.SERVICE_FILESERVER)
    from repro.core.server import SwitchablePipe
    from repro.rpc.peer import RpcPeer, RpcRejected

    pipe = SwitchablePipe(link)
    peer = RpcPeer(pipe, "probe")
    peer.call(
        proto.SFS_CONNECT_PROGRAM, proto.SFS_VERSION, proto.PROC_CONNECT,
        proto.ConnectArgs,
        proto.ConnectArgs.make(
            service=proto.SERVICE_FILESERVER, location=path.location,
            hostid=path.hostid, extensions=[],
        ),
        proto.ConnectRes,
    )
    with pytest.raises(RpcRejected):
        peer.call(
            proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGIN,
            proto.LoginArgs,
            proto.LoginArgs.make(seqno=1, authmsg=b""),
            proto.LoginRes,
        )
