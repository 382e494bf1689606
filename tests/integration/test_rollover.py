"""Server key rollover under live clients (paper section 2.6).

``rollover_export`` re-exports the same file system under a freshly
generated key and leaves a signed trail — forwarding pointer or
revocation certificate — behind the old HostID.  Established sessions
keep working untouched; what these tests pin is the *redial* path: a
client that reconnects after a crash must follow the pointer, re-verify
the NEW HostID against the embedded key, refresh its root handle (the
handle map derives from the key), and re-home the kernel mount — or,
for a revocation, refuse with SecurityError and never serve data.
"""

import errno

import pytest

from repro.core.client import SecurityError
from repro.core.revocation import REVOKED_LINK_TARGET
from repro.fs import pathops
from repro.fs.memfs import ERR_ISDIR, Cred, FsError
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.keymgmt import CertificationAuthority
from repro.keymgmt.rollover import (
    FORWARD,
    REVOKE,
    fan_out_revocations,
    revoke_export,
    rollover_export,
)

SEED = 2026


@pytest.fixture
def rolled():
    """A server with a mounted client, ready to roll its key."""
    world = World(seed=SEED)
    server = world.add_server("roll.example.com")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.write_file(f"{path}/home/alice/hello", b"hi there")
    return world, server, path, client, proc


def session_of(client, hostid):
    return client.sfscd._mounts[hostid].session


def test_established_session_survives_rollover_without_redial(rolled):
    """Live connections are untouched by a rollover: the session keys
    were negotiated already and nothing forces a redial."""
    world, server, path, client, proc = rolled
    result = rollover_export(server, mode=FORWARD)
    assert result.old_path == path
    assert result.new_path.hostid != path.hostid
    assert result.new_path.location == path.location
    assert proc.read_file(f"{path}/home/alice/hello") == b"hi there"
    session = session_of(client, path.hostid)
    assert session.reconnects == 0
    assert session.retargets == 0
    assert world.metrics.counter("server.rollovers").value == 1


def test_redial_after_rollover_follows_pointer_and_reverifies(rolled):
    """The satellite bugfix, end to end: crash the server after a
    forward rollover and the redialing session must chase the pointer,
    land on the new HostID, and re-verify the presented key against the
    NEW path — then the daemon re-homes the mount under the new name
    with a freshly fetched root handle."""
    world, server, path, client, proc = rolled
    session = session_of(client, path.hostid)
    result = rollover_export(server, mode=FORWARD)
    new = result.new_path
    server.crash()
    server.schedule_restart(world.clock.now + 0.05)
    # The next op rides the established session, finds the transport
    # dead, and reconnects — through the forwarding pointer.  The op
    # itself was built against the OLD handle map, and a new key means
    # a new handle map: that one op is the rollover's bounded casualty
    # (EBADF), never wrong data.
    with pytest.raises(KernelError) as excinfo:
        proc.read_file(f"{path}/home/alice/hello")
    assert excinfo.value.errno == errno.EBADF
    assert session.reconnects == 1
    assert session.retargets == 1
    assert session.path.hostid == new.hostid
    # HostID verification really happened against the new key.
    assert new.matches_key(session.server_public_key)
    assert not path.matches_key(session.server_public_key)
    # The daemon evicted the old name entirely and re-homed the mount.
    assert new.hostid in client.sfscd._mounts
    assert new.hostid in client.sfscd._mount_roots
    assert path.hostid not in client.sfscd._mounts
    assert path.hostid not in client.sfscd._mount_roots
    # The old name lives on as a forwarding symlink, so stale pathnames
    # still resolve — through the new mount.
    assert proc.readlink(f"/sfs/{path.mount_name}") == \
        f"/sfs/{new.mount_name}"
    assert proc.read_file(f"{new}/home/alice/hello") == b"hi there"
    assert world.metrics.counter("session.retargets").value == 1
    assert world.metrics.counter("client.mounts_retargeted").value == 1


def test_redial_after_revocation_refuses_with_security_error(rolled):
    """mode="revoke" leaves a tombstone, not a pointer: the redial must
    refuse loudly and never hand back data."""
    world, server, path, client, proc = rolled
    session = session_of(client, path.hostid)
    rollover_export(server, mode=REVOKE)
    server.crash()
    server.restart()
    with pytest.raises(SecurityError, match="revoked"):
        session.peer.drive(session.reconnect_task())
    assert session.reconnects == 0
    assert session.retargets == 0


def test_rollover_mode_and_state_validation(rolled):
    _world, server, _path, _client, _proc = rolled
    with pytest.raises(ValueError, match="unknown rollover mode"):
        rollover_export(server, mode="sideways")
    rollover_export(server, mode=FORWARD)
    # The old export is no longer served under its old HostID; rolling
    # the *same* name again rolls the new key, not the retired one.
    second = rollover_export(server, mode=FORWARD)
    assert second.old_path.hostid != _path.hostid


def test_rollover_with_ca_repoints_the_certified_name(rolled):
    """The certification-path step: clients resolving by human name
    land on the new HostID without ever seeing the old one."""
    world, server, path, client, proc = rolled
    ca = CertificationAuthority("ca.example.com", world.rng)
    ca.certify("files", path)
    result = rollover_export(server, mode=FORWARD, ca=ca, ca_name="files")
    link = pathops.resolve(ca.fs, "/files", follow=False)
    assert link.target == str(result.new_path)


def test_rollover_certifies_a_ca_name_never_certified(rolled):
    world, server, path, client, proc = rolled
    ca = CertificationAuthority("ca.example.com", world.rng)
    result = rollover_export(server, mode=FORWARD, ca=ca, ca_name="files")
    link = pathops.resolve(ca.fs, "/files", follow=False)
    assert link.target == str(result.new_path)


def test_rollover_surfaces_any_other_failure_to_decertify(rolled):
    """Only a missing name is expected; a CA entry that cannot be
    removed (here a directory) is an error the caller must see."""
    world, server, path, client, proc = rolled
    ca = CertificationAuthority("ca.example.com", world.rng)
    pathops.mkdirs(ca.fs, "/files")
    with pytest.raises(FsError) as failure:
        rollover_export(server, mode=FORWARD, ca=ca, ca_name="files")
    assert failure.value.code == ERR_ISDIR


def test_out_of_band_revocation_evicts_cached_mount(rolled):
    """The cache-eviction ordering fix: a revocation delivered straight
    to sfscd must drop the mount AND its cached root handle together —
    a surviving _mount_roots entry would let the old HostID resolve to
    a handle the re-keyed server cannot decrypt."""
    world, server, path, client, proc = rolled
    assert path.hostid in client.sfscd._mounts
    assert path.hostid in client.sfscd._mount_roots
    cert = revoke_export(server)
    assert client.sfscd.submit_certificate(cert) is True
    assert path.hostid not in client.sfscd._mounts
    assert path.hostid not in client.sfscd._mount_roots
    assert proc.readlink(f"/sfs/{path.mount_name}") == REVOKED_LINK_TARGET
    assert world.metrics.counter("client.certificates_accepted").value == 1


def test_fan_out_skips_forgeries_and_counts_deliveries(rolled):
    world, server, path, client, proc = rolled
    cert = revoke_export(server)
    from repro.rpc.xdr import Record
    tampered = bytes(cert.signature)
    forged = Record(**{**cert.__dict__,
                       "signature": tampered[:-1] +
                       bytes([tampered[-1] ^ 0xFF])})
    delivered = fan_out_revocations(
        [forged, cert],
        daemons=[client.sfscd],
        masters=[server.master],
        metrics=world.metrics,
    )
    # The forgery delivered nowhere; the real one hit master + daemon.
    assert delivered == 2
    assert world.metrics.counter(
        "keymgmt.revocations_fanned_out").value == 2
    assert path.hostid not in client.sfscd._mounts


def kernel_calls(world):
    """Every RPC the client kernels have sent, per mount and procedure
    (a mount that has sent none has an empty family)."""
    return {name: dict(family["values"])
            for name, family in world.metrics.snapshot()["metrics"].items()
            if name.startswith("rpc.peer.kernel:") and family["values"]}


def test_unmounts_after_a_revocation_or_a_retarget_send_no_kernel_rpc(rolled):
    """sfscd unmounts from inside its handlers: the graft recorded the
    directory it covers, so neither an eviction nor a re-homing walks a
    path through the kernel."""
    world, server, path, client, proc = rolled
    mount = client.sfscd._mounts[path.hostid]
    result = rollover_export(server, mode=FORWARD)
    before = kernel_calls(world)
    mount.session.peer.drive(client.sfscd._retarget_mount(
        mount, path, result.new_path))
    assert kernel_calls(world) == before
    assert client.mounter.mounted_paths() == [
        "/sfs", f"/sfs/{result.new_path.mount_name}"]
    cert = revoke_export(server)
    assert client.sfscd.submit_certificate(cert) is True
    assert kernel_calls(world) == before
    assert client.mounter.mounted_paths() == ["/sfs"]
