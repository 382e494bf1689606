"""Integration tests for libsfs, ssu, and proxy agents (paper sections
2.3, 2.5.1, 3.3)."""

import pytest

from repro.core.agent import AgentRefused
from repro.core.agentproxy import AgentServer, RemoteAgent
from repro.core.libsfs import LibSfs, LocalAccounts
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.world import World
from repro.rpc.peer import RpcError, RpcPeer
from repro.sim.network import link_pair
from tests.helpers import run


@pytest.fixture
def world():
    return World(seed=71)


def make_standard(world):
    server = world.add_server("srv.example.com")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    return server, path, alice, client, proc


# --- libsfs -------------------------------------------------------------------

def test_libsfs_same_name_omits_percent(world):
    server, path, alice, client, proc = make_standard(world)
    proc.write_file(f"{path}/home/alice/f", b"x")
    mount = client.sfscd._mounts[path.hostid]
    local = LocalAccounts(users={1000: "alice"})
    libsfs = LibSfs(mount, local)
    st = proc.stat(f"{path}/home/alice/f")
    # Same name both sides: plain "alice".
    assert libsfs.display_user(st.uid) == "alice"
    assert libsfs.display_group(st.gid) == "users"


def test_libsfs_differing_name_gets_percent(world):
    server, path, alice, client, proc = make_standard(world)
    proc.write_file(f"{path}/home/alice/f", b"x")
    mount = client.sfscd._mounts[path.hostid]
    # Locally uid 1000 is "al" — remotely it is "alice".
    libsfs = LibSfs(mount, LocalAccounts(users={1000: "al"}))
    assert libsfs.display_user(1000) == "%alice"


def test_libsfs_unknown_id_shows_number(world):
    server, path, alice, client, proc = make_standard(world)
    proc.readdir(str(path))
    mount = client.sfscd._mounts[path.hostid]
    libsfs = LibSfs(mount, LocalAccounts())
    assert libsfs.display_user(54321) == "54321"


def test_libsfs_name_to_id(world):
    server, path, alice, client, proc = make_standard(world)
    proc.readdir(str(path))
    mount = client.sfscd._mounts[path.hostid]
    libsfs = LibSfs(mount, LocalAccounts())
    assert libsfs.remote_name_to_id("alice") == 1000
    assert libsfs.remote_name_to_id("users", is_group=True) == 100
    assert libsfs.remote_name_to_id("nobody-here") is None


def test_libsfs_caches_queries(world):
    server, path, alice, client, proc = make_standard(world)
    proc.readdir(str(path))
    mount = client.sfscd._mounts[path.hostid]
    libsfs = LibSfs(mount, LocalAccounts())
    before = mount.session.peer.calls_sent
    libsfs.display_user(1000)
    after_first = mount.session.peer.calls_sent
    libsfs.display_user(1000)
    assert mount.session.peer.calls_sent == after_first > before


# --- ssu -----------------------------------------------------------------------

def test_ssu_maps_root_to_user_agent(world):
    server, path, alice, client, proc = make_standard(world)
    root = client.ssu(1000)
    # Operations as local root authenticate as alice remotely.
    root.write_file(f"{path}/home/alice/by-root", b"x")
    assert proc.stat(f"{path}/home/alice/by-root").uid == 1000


def test_ssu_requires_existing_agent(world):
    make_standard(world)
    client = world.clients["laptop"]
    with pytest.raises(KeyError):
        client.ssu(4242)


# --- proxy agents ------------------------------------------------------------------

def test_agent_over_rpc(world):
    """An agent served over RPC behaves exactly like a local one."""
    server, path, alice, client, proc = make_standard(world)
    home_agent = client.sfscd.agents[1000]
    # Run the agent behind an RPC boundary.
    agent_side, client_side = link_pair(world.clock)
    AgentServer(home_agent, RpcPeer(agent_side, "agent-proc"))
    remote = RemoteAgent(RpcPeer(client_side, "sfscd-side"),
                         "alice", hop="laptop")
    blob = run(remote.sign_request(b"authinfo", 1), world.clock)
    from repro.core import proto
    msg = proto.AuthMsg.unpack(blob)
    assert msg.public_key == alice.key.public_key.to_bytes()
    home_agent.add_link("mit", "/sfs/somewhere")
    assert run(remote.resolve("mit"), world.clock) == "/sfs/somewhere"
    assert run(remote.resolve("nothing"), world.clock) is None
    disc, _cert = run(remote.check_revoked("srv.example.com", path.hostid),
                      world.clock)
    assert disc == proto.REVCHECK_CLEAR


def test_proxy_agent_remote_login(world):
    """The ssh scenario: alice logs into a remote workstation; the
    workstation's client master forwards authentication requests to her
    home agent, so her files are available there with no keys copied."""
    server, path, alice, home_client, _proc = make_standard(world)
    home_agent = home_client.sfscd.agents[1000]

    # The "ssh connection": an RPC link from the workstation back to
    # alice's home agent.
    agent_side, workstation_side = link_pair(world.clock)
    AgentServer(home_agent, RpcPeer(agent_side, "home-agent"))
    proxy = RemoteAgent(RpcPeer(workstation_side, "ssh-fwd"),
                        "alice", hop="workstation.lab.org")

    workstation = world.add_client("workstation")
    workstation.sfscd.attach_agent(1000, proxy)
    proc = workstation.process(uid=1000)
    proc.write_file(f"{path}/home/alice/from-the-lab", b"remote login!")
    assert proc.stat(f"{path}/home/alice/from-the-lab").uid == 1000
    # The home agent audited the proxied request with its hop path.
    proxied = [e for e in home_agent.audit_log if e.operation == "proxy"]
    assert proxied and "workstation.lab.org" in proxied[-1].detail


def test_chained_proxy_agents(world):
    """Two hops: laptop -> gateway -> workstation; the audit trail
    records the full path."""
    server, path, alice, home_client, _proc = make_standard(world)
    home_agent = home_client.sfscd.agents[1000]
    hop1_a, hop1_b = link_pair(world.clock)
    AgentServer(home_agent, RpcPeer(hop1_a, "home"))
    gateway_proxy = RemoteAgent(RpcPeer(hop1_b, "gw"), "alice",
                                hop="gateway.example.org")
    # The gateway re-serves the proxy it holds.
    hop2_a, hop2_b = link_pair(world.clock)
    gateway_server_peer = RpcPeer(hop2_a, "gateway-agentd")
    # Re-serve: wrap the proxy in an AgentServer-compatible shim by
    # serving a local Agent whose sign_request delegates.
    from repro.core import proto as _proto
    from repro.rpc.peer import Program

    program = Program("sfs-agent", _proto.SFS_AGENT_PROGRAM,
                      _proto.SFS_VERSION)

    def forward_sign(args, ctx):
        try:
            blob = yield from gateway_proxy.sign_request(
                args.authinfo_bytes, args.seqno, args.key_index
            )
        except (AgentRefused, RpcError):
            return _proto.SIGN_REFUSED, None
        return _proto.SIGN_OK, blob

    program.add_proc(_proto.PROC_SIGNREQ, "SIGNREQ",
                     _proto.SignReqArgs, _proto.SignReqRes, forward_sign)
    gateway_server_peer.register(program)
    final_proxy = RemoteAgent(RpcPeer(hop2_b, "ws"), "alice",
                              hop="workstation.far.org",
                              via=["gateway.example.org"])
    blob = run(final_proxy.sign_request(b"info", 1), world.clock)
    assert blob  # signature produced by the home agent two hops away
