"""The extensibility claim, exercised: a brand-new multi-round user
authentication protocol added with zero file system changes (paper 2.5)."""

import pytest

from repro.core import proto
from repro.core.authplugins import (
    HMAC_PROTOCOL,
    HmacPasswordAgent,
    HmacPasswordProtocol,
    HmacRound1,
    wrap_envelope,
)
from repro.core.client import ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from tests.helpers import run


@pytest.fixture
def world():
    return World(seed=91)


@pytest.fixture
def hmac_setup(world):
    server = world.add_server("plug.example.com")
    path = server.export_fs()
    server.authserver.add_account("dana", 1400, 100)
    home = pathops.mkdirs(server.fs, "/home/dana")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1400, gid=100)
    plugin = HmacPasswordProtocol(server.authserver, world.rng)
    plugin.enroll("dana", b"danas password")
    server.authserver.register_protocol(plugin)
    return server, path, plugin


def _session(world, path):
    link = world.connector(path.location, proto.SERVICE_FILESERVER)
    session = ServerSession.connect(
        link, path, EphemeralKeyCache(world.rng), world.rng
    )
    assert isinstance(session, ServerSession)
    return session


def test_multi_round_login_succeeds(world, hmac_setup):
    server, path, _plugin = hmac_setup
    agent = HmacPasswordAgent("dana", b"danas password")
    session = _session(world, path)
    authno = session.login(agent)
    assert authno != 0
    assert agent.rounds == 2  # round 1 + challenge response
    connection = list(server.master.rw_export(path.hostid).connections)[-1]
    assert connection._authnos[authno].uid == 1400


def test_wrong_password_fails_and_logs(world, hmac_setup):
    server, path, _plugin = hmac_setup
    agent = HmacPasswordAgent("dana", b"wrong guess")
    session = _session(world, path)
    assert session.login(agent) == 0
    assert any("dana" in line for line in server.authserver.security_log)


def test_unknown_user_fails(world, hmac_setup):
    _server, path, _plugin = hmac_setup
    agent = HmacPasswordAgent("nobody", b"x")
    session = _session(world, path)
    assert session.login(agent) == 0


def test_unregistered_protocol_fails(world):
    server = world.add_server("bare.example.com")
    path = server.export_fs()
    agent = HmacPasswordAgent("dana", b"pw")  # server has no plugin
    session = _session(world, path)
    assert session.login(agent) == 0


def test_challenge_response_not_replayable(world, hmac_setup):
    """A recorded round-2 answer fails on a fresh session: the MAC binds
    the challenge, the AuthID, and the sequence number."""
    server, path, _plugin = hmac_setup
    agent = HmacPasswordAgent("dana", b"danas password")
    session1 = _session(world, path)
    # Drive round 1 by hand to capture the round-2 message.
    info = session1.authinfo_bytes()
    session1.auth_seqno += 1
    seqno1 = session1.auth_seqno
    disc, challenge = session1.peer.call(
        proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGIN,
        proto.LoginArgs,
        proto.LoginArgs.make(
            seqno=seqno1,
            authmsg=run(agent.sign_request(info, seqno1), world.clock),
        ),
        proto.LoginRes,
    )
    assert disc == proto.LOGIN_MORE
    session1.auth_seqno += 1
    seqno2 = session1.auth_seqno
    round2 = agent.continue_auth(challenge, info, seqno2)
    # Replay the captured round-2 message on a NEW session.
    session2 = _session(world, path)
    disc, _ = session2.peer.call(
        proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGIN,
        proto.LoginArgs,
        proto.LoginArgs.make(seqno=seqno2, authmsg=round2),
        proto.LoginRes,
    )
    assert disc == proto.LOGIN_FAILED


def test_full_stack_with_plugin_agent(world, hmac_setup):
    """The kernel/automounter path works unchanged with the new agent."""
    _server, path, _plugin = hmac_setup
    client = world.add_client("laptop")
    client.sfscd.attach_agent(1400, HmacPasswordAgent("dana",
                                                      b"danas password"))
    proc = client.process(uid=1400)
    proc.write_file(f"{path}/home/dana/doc", b"via a protocol the file "
                                             b"system has never heard of")
    assert proc.stat(f"{path}/home/dana/doc").uid == 1400


def test_both_protocols_coexist(world, hmac_setup):
    """Public-key users and hmac-password users share one server."""
    server, path, _plugin = hmac_setup
    pk_user = server.add_user("pk-user", uid=1500)
    home = pathops.mkdirs(server.fs, "/home/pk-user")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1500, gid=100)
    client = world.add_client("shared")
    client.sfscd.attach_agent(1400, HmacPasswordAgent("dana",
                                                      b"danas password"))
    pk_proc = client.login_user("pk-user", pk_user.key, uid=1500)
    dana_proc = client.process(uid=1400)
    pk_proc.write_file(f"{path}/home/pk-user/a", b"1")
    dana_proc.write_file(f"{path}/home/dana/b", b"2")
    assert pk_proc.stat(f"{path}/home/pk-user/a").uid == 1500
    assert dana_proc.stat(f"{path}/home/dana/b").uid == 1400


def test_garbage_envelope_fails_cleanly(world, hmac_setup):
    _server, path, _plugin = hmac_setup
    session = _session(world, path)
    disc, _ = session.peer.call(
        proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGIN,
        proto.LoginArgs,
        proto.LoginArgs.make(
            seqno=1, authmsg=wrap_envelope(HMAC_PROTOCOL, b"not xdr"),
        ),
        proto.LoginRes,
    )
    assert disc == proto.LOGIN_FAILED
