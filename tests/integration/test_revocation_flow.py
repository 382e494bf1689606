"""Revocation, forwarding pointers, and HostID blocking, end to end
(paper section 2.6)."""

import errno

import pytest

from repro.core.agent import Agent
from repro.core.revocation import (
    REVOKED_LINK_TARGET,
    make_forwarding_pointer,
    make_revocation_certificate,
)
from repro.fs import pathops
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.keymgmt import (
    CertificationAuthority,
    install_link,
    set_revocation_directories,
)


@pytest.fixture
def world():
    return World(seed=41)


def make_server(world, location, files=None):
    server = world.add_server(location)
    path = server.export_fs()
    for name, body in (files or {}).items():
        pathops.write_file(server.fs, name, body)
    key = server.master.rw_export(path.hostid).key
    return server, path, key


def test_server_announced_revocation(world):
    server, path, key = make_server(world, "gone.example.com",
                                    {"/f": b"old"})
    cert = make_revocation_certificate(key, "gone.example.com")
    server.master.set_revocation(path.hostid, cert)
    client = world.add_client("c")
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    with pytest.raises(KernelError) as excinfo:
        proc.read_file(f"{path}/f")
    assert excinfo.value.errno == errno.ENOENT
    # "users who investigate further can easily notice that the pathname
    # has actually been revoked"
    assert proc.readlink(f"/sfs/{path.mount_name}") == REVOKED_LINK_TARGET


def test_revocation_applies_to_all_users(world):
    server, path, key = make_server(world, "gone.example.com", {"/f": b"x"})
    cert = make_revocation_certificate(key, "gone.example.com")
    server.master.set_revocation(path.hostid, cert)
    client = world.add_client("c")
    client.new_agent("u1", 1000)
    client.new_agent("u2", 2000)
    proc1 = client.process(uid=1000)
    proc2 = client.process(uid=2000)
    with pytest.raises(KernelError):
        proc1.read_file(f"{path}/f")
    # Revocation is global: user 2 sees the revoked link too.
    assert proc2.readlink(f"/sfs/{path.mount_name}") == REVOKED_LINK_TARGET


def test_revocation_after_mount_blocks_future_access(world):
    server, path, key = make_server(world, "later.example.com",
                                    {"/f": b"live"})
    client = world.add_client("c")
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/f") == b"live"
    # Now the owner revokes; a NEW client machine must refuse.
    cert = make_revocation_certificate(key, "later.example.com")
    server.master.set_revocation(path.hostid, cert)
    client2 = world.add_client("c2")
    client2.new_agent("u", 1000)
    proc2 = client2.process(uid=1000)
    with pytest.raises(KernelError):
        proc2.read_file(f"{path}/f")


def test_agent_revocation_directory(world):
    _victim, victim_path, victim_key = make_server(
        world, "victim.example.com", {"/f": b"x"}
    )
    ca = CertificationAuthority("rev.example.net", world.rng)
    cert = make_revocation_certificate(victim_key, "victim.example.com")
    ca.publish_revocation(cert)
    ca_host = world.add_server("rev.example.net")
    ca_path = ca_host.master.add_ro_export(ca.publish_image())

    client = world.add_client("c")
    install_link(client.root_process(), "/rev", ca_path)
    agent = client.new_agent("u", 1000)
    set_revocation_directories(agent, ["/rev/revocations"])
    proc = client.process(uid=1000)
    with pytest.raises(KernelError):
        proc.read_file(f"{victim_path}/f")
    # The revoked link appears for everyone on this client.
    assert proc.readlink(f"/sfs/{victim_path.mount_name}") == (
        REVOKED_LINK_TARGET
    )


def test_concurrent_lookups_of_a_revoked_path_wait_for_one_verdict(world):
    """Two processes of one user look up a path the agent's revocation
    directory revokes, at the same time.  The second waits for the
    first's check instead of passing it: both see the :REVOKED: link,
    and the victim is never mounted."""
    _victim, victim_path, victim_key = make_server(
        world, "victim.example.com", {"/f": b"x"}
    )
    ca = CertificationAuthority("rev.example.net", world.rng)
    ca.publish_revocation(
        make_revocation_certificate(victim_key, "victim.example.com"))
    ca_path = world.add_server("rev.example.net").master.add_ro_export(
        ca.publish_image())
    client = world.add_client("c")
    install_link(client.root_process(), "/rev", ca_path)
    agent = client.new_agent("u", 1000)
    set_revocation_directories(agent, ["/rev/revocations"])
    mounted = []
    mount = client.mounter.mount
    client.mounter.mount = lambda where, *rest: (mounted.append(where),
                                                 mount(where, *rest))[1]

    def look(proc):
        return (yield from proc.task.readlink(
            f"/sfs/{victim_path.mount_name}"))

    tasks = [world.scheduler.spawn(look(client.process(uid=1000)),
                                   name=f"lookup-{n}") for n in range(2)]
    assert world.scheduler.run() == []
    for task in tasks:
        assert not task.failed, task.exception
        assert task.result == REVOKED_LINK_TARGET
    assert mounted == [f"/sfs/{ca_path.mount_name}"]
    assert victim_path.hostid not in client.sfscd._mounts


def test_a_synchronous_read_inside_a_handler_fails_the_run(world):
    """An agent read that waits synchronously inside sfscd's LOOKUP
    handler (which runs from a clock timer) trips the clock's guard.
    The AssertionError reaches the caller: the handler does not turn it
    into SYSTEM_ERR, which the kernel would report as EIO and a reader
    would take for "no certificate here"."""
    _server, path, _key = make_server(world, "victim.example.com",
                                      {"/f": b"x"})
    client = world.add_client("c")
    reader_proc = client.process(uid=1000)

    class SynchronousReader:
        def readfile(self, name):
            yield from ()
            try:
                return reader_proc.read_file(name)
            except KernelError:
                return None

    agent = Agent("u", world.rng, fs_reader=SynchronousReader())
    agent.revocation_dirs = ["/"]
    client.sfscd.attach_agent(1000, agent)
    with pytest.raises(AssertionError, match="inside timer callback"):
        client.process(uid=1000).read_file(f"{path}/f")


def test_ca_rejects_forged_revocation(world):
    from repro.core.revocation import CertificateError
    from repro.crypto.rabin import generate_key

    ca = CertificationAuthority("rev.example.net", world.rng)
    attacker = generate_key(768, world.rng)
    body_forger = make_revocation_certificate(attacker, "victim.example.com")
    # The CA accepts it (it IS a valid cert for the attacker's own key)...
    ca.publish_revocation(body_forger)
    # ...but it is filed under the attacker's HostID, not the victim's.
    from repro.core.pathnames import compute_hostid, hostid_to_text
    filed = pathops.listdir(ca.fs, "/revocations")
    victim_like = hostid_to_text(
        compute_hostid("victim.example.com", attacker.public_key)
    )
    assert filed == [victim_like]
    # A corrupted certificate is rejected outright.
    from repro.rpc.xdr import Record
    with pytest.raises(CertificateError):
        ca.publish_revocation(Record(body=b"junk", public_key=b"", signature=b""))


def test_hostid_blocking_per_agent(world):
    _server, path, _key = make_server(world, "fine.example.com",
                                      {"/f": b"ok"})
    client = world.add_client("c")
    cautious = client.new_agent("cautious", 1000)
    cautious.block_hostid(path.hostid)
    normal = client.new_agent("normal", 2000)
    blocked_proc = client.process(uid=1000)
    normal_proc = client.process(uid=2000)
    with pytest.raises(KernelError):
        blocked_proc.read_file(f"{path}/f")
    assert normal_proc.read_file(f"{path}/f") == b"ok"
    # Unblocking restores access.
    cautious.unblock_hostid(path.hostid)
    assert blocked_proc.read_file(f"{path}/f") == b"ok"


def test_forwarding_pointer_redirects(world):
    old_server, old_path, old_key = make_server(world, "old.example.com")
    _new_server, new_path, _new_key = make_server(
        world, "new.example.com", {"/moved": b"new home"}
    )
    pointer = make_forwarding_pointer(old_key, "old.example.com",
                                      str(new_path))
    old_server.master.set_forwarding_pointer(old_path.hostid, pointer)
    client = world.add_client("c")
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{old_path}/moved") == b"new home"
    # The old mount name is a symlink to the new self-certifying path.
    assert proc.readlink(f"/sfs/{old_path.mount_name}") == str(new_path)


def test_revocation_overrules_forwarding_pointer(world):
    """"A revocation certificate always overrules a forwarding pointer
    for the same HostID.""" """"""
    server, path, key = make_server(world, "both.example.com", {"/f": b"x"})
    _other, other_path, _ok = make_server(world, "elsewhere.example.com")
    cert = make_revocation_certificate(key, "both.example.com")
    pointer = make_forwarding_pointer(key, "both.example.com",
                                      str(other_path))
    client = world.add_client("c")
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    # Revocation arrives first; a later forwarding pointer must not
    # displace it.
    server.master.set_revocation(path.hostid, cert)
    with pytest.raises(KernelError):
        proc.read_file(f"{path}/f")
    daemon = client.sfscd
    daemon._handle_certificate(path, pointer)
    assert proc.readlink(f"/sfs/{path.mount_name}") == REVOKED_LINK_TARGET


def test_forwarding_first_then_revocation_still_revokes(world):
    """The reverse arrival order: a forwarding pointer is installed and
    *working*, then the revocation lands — and wins, permanently."""
    old_server, old_path, old_key = make_server(world, "old.example.com")
    _new_server, new_path, _new_key = make_server(
        world, "new.example.com", {"/moved": b"new home"}
    )
    pointer = make_forwarding_pointer(old_key, "old.example.com",
                                      str(new_path))
    old_server.master.set_forwarding_pointer(old_path.hostid, pointer)
    client = world.add_client("c")
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    # The pointer is live: the old name redirects and resolves.
    assert proc.read_file(f"{old_path}/moved") == b"new home"
    assert proc.readlink(f"/sfs/{old_path.mount_name}") == str(new_path)
    # Now the revocation certificate arrives — later than the pointer.
    cert = make_revocation_certificate(old_key, "old.example.com")
    client.sfscd._handle_certificate(old_path, cert)
    assert proc.readlink(f"/sfs/{old_path.mount_name}") == (
        REVOKED_LINK_TARGET
    )
    # Re-delivering the pointer afterwards must not resurrect the name.
    client.sfscd._handle_certificate(old_path, pointer)
    assert proc.readlink(f"/sfs/{old_path.mount_name}") == (
        REVOKED_LINK_TARGET
    )


def test_server_with_both_certificates_serves_the_revocation(world):
    """A server that knows both certificates for one HostID must answer
    CONNECT with the revocation, whichever arrived first."""
    server, path, key = make_server(world, "both.example.com", {"/f": b"x"})
    _other, other_path, _ok = make_server(world, "elsewhere.example.com")
    pointer = make_forwarding_pointer(key, "both.example.com",
                                      str(other_path))
    cert = make_revocation_certificate(key, "both.example.com")
    # Forwarding installed first, revocation second.
    server.master.set_forwarding_pointer(path.hostid, pointer)
    server.master.set_revocation(path.hostid, cert)
    client = world.add_client("c")
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    with pytest.raises(KernelError):
        proc.read_file(f"{path}/f")
    assert proc.readlink(f"/sfs/{path.mount_name}") == REVOKED_LINK_TARGET


def test_revocation_mid_traffic_evicts_cached_mount(world):
    """Revocation propagating to a client that is actively using the
    file system (HostID cached, mount live) takes effect immediately:
    the mount is torn down, the revoked link appears, and a forwarding
    pointer arriving afterwards cannot bring the name back."""
    server, path, key = make_server(world, "live.example.com",
                                    {"/f": b"payload"})
    _other, other_path, _ok = make_server(world, "elsewhere.example.com")
    client = world.add_client("c")
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/f") == b"payload"  # mount is cached
    daemon = client.sfscd
    assert path.hostid in daemon._mounts
    cert = make_revocation_certificate(key, "live.example.com")
    daemon._handle_certificate(path, cert)
    # The cached mount is gone, not just future lookups.
    assert path.hostid not in daemon._mounts
    with pytest.raises(KernelError) as excinfo:
        proc.read_file(f"{path}/f")
    assert excinfo.value.errno == errno.ENOENT
    assert proc.readlink(f"/sfs/{path.mount_name}") == REVOKED_LINK_TARGET
    # A forwarding pointer arriving after the fact changes nothing.
    pointer = make_forwarding_pointer(key, "live.example.com",
                                      str(other_path))
    daemon._handle_certificate(path, pointer)
    assert proc.readlink(f"/sfs/{path.mount_name}") == REVOKED_LINK_TARGET
    with pytest.raises(KernelError):
        proc.read_file(f"{path}/f")
