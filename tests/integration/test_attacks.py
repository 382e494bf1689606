"""The paper's threat model, enforced end to end (section 2.1.2).

"SFS assumes that malicious parties entirely control the network ...
attackers can do no worse than delay the file system's operation or
conceal the existence of servers."
"""

import errno

import pytest

from repro.core import proto
from repro.core.client import SecurityError, ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.fs import pathops
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.sim.network import (
    Adversary,
    DropAdversary,
    RecordingAdversary,
    ReplayAdversary,
    TamperAdversary,
)


def build_world(adversary_factory=None):
    world = World(seed=11)
    server = world.add_server("srv.example.com")
    path = server.export_fs()
    pathops.write_file(server.fs, "/data", b"protected contents")
    world.adversary_factory = adversary_factory
    client = world.add_client("victim")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    return world, server, path, proc


def test_clean_baseline():
    _world, _server, path, proc = build_world()
    assert proc.read_file(f"{path}/data") == b"protected contents"


def _session(world, path):
    """The live ServerSession behind the victim's mount."""
    return world.clients["victim"].sfscd._mounts[path.hostid].session


@pytest.mark.parametrize("target_index", [5, 6, 8])
def test_tampering_degrades_to_dos(target_index):
    """Bit-flips after channel setup never produce wrong data — the
    channel drops the record, the RPC layer retransmits it, and the
    operation completes.  The attacker bought delay, nothing more."""
    world, _server, path, proc = build_world(
        lambda: TamperAdversary(target_index=target_index)
    )
    assert proc.read_file(f"{path}/data") == b"protected contents"
    session = _session(world, path)
    assert session.peer.retransmissions >= 1


def test_tampering_during_key_negotiation_fails_setup():
    """Corrupting the CONNECT/ENCRYPT exchange prevents the mount (the
    Rabin ciphertext or reply fails to decode) — never a bad session."""
    _world, _server, path, proc = build_world(
        lambda: TamperAdversary(target_index=3)
    )
    with pytest.raises(KernelError):
        proc.read_file(f"{path}/data")


def test_replay_attack_rejected():
    _world, _server, path, proc = build_world(
        lambda: ReplayAdversary(replay_after=7, replay_index=6)
    )
    # The replayed record is dropped by the channel; the session then
    # either proceeds (replay ignored) or the flow errors out — but
    # never returns wrong data.
    try:
        data = proc.read_file(f"{path}/data")
        assert data == b"protected contents"
    except KernelError as exc:
        assert exc.errno == errno.EIO


def test_dropped_records_are_dos_only():
    """A dropped record permanently desynchronizes the cipher streams;
    the session detects the desync, re-keys over the same link, and the
    read still completes with the right bytes."""
    world, _server, path, proc = build_world(
        lambda: DropAdversary(target_index=6)
    )
    assert proc.read_file(f"{path}/data") == b"protected contents"
    session = _session(world, path)
    assert session.peer.retransmissions >= 1
    assert session.rekeys >= 1


def test_eavesdropper_sees_no_plaintext():
    recorder = RecordingAdversary()
    _world, server, path, proc = build_world(lambda: recorder)
    secret = b"extremely confidential bytes"
    pathops.write_file(server.fs, "/secret", secret)
    assert proc.read_file(f"{path}/secret") == secret
    wire = b"".join(record for _direction, record in recorder.transcript)
    assert secret not in wire
    assert b"confidential" not in wire


def test_encryption_off_leaks_plaintext():
    """Control experiment: with the channel in the paper's no-encryption
    evaluation mode, the same read IS visible on the wire."""
    world = World(seed=12)
    server = world.add_server("srv.example.com")
    path = server.export_fs()
    pathops.write_file(server.fs, "/secret", b"visible when unencrypted")
    recorder = RecordingAdversary()
    world.adversary_factory = lambda: recorder
    client = world.add_client("victim", encrypt=False)
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/secret") == b"visible when unencrypted"
    wire = b"".join(record for _direction, record in recorder.transcript)
    assert b"visible when unencrypted" in wire


def test_impersonating_server_rejected():
    """A server that answers with the wrong key fails the HostID check."""
    world = World(seed=13)
    real = world.add_server("real.example.com")
    real_path = real.export_fs()
    evil_world = World(seed=14)
    evil = evil_world.add_server("real.example.com")
    evil.export_fs()
    evil.master.config.prepend_rule("hijack", "default",
                                    lambda s, h, e: True)
    link = evil_world.connector("real.example.com", proto.SERVICE_FILESERVER)
    with pytest.raises(SecurityError):
        ServerSession.connect(
            link, real_path, EphemeralKeyCache(evil_world.rng),
            evil_world.rng,
        )


def test_forged_revocation_certificate_ignored():
    """An attacker without the private key cannot revoke a pathname."""
    from repro.core.revocation import make_revocation_certificate
    from repro.crypto.rabin import generate_key

    world = World(seed=15)
    server = world.add_server("victim.example.com")
    path = server.export_fs()
    pathops.write_file(server.fs, "/alive", b"still here")
    attacker_key = generate_key(768, world.rng)
    forged = make_revocation_certificate(attacker_key, "victim.example.com")
    # Even if the server operator is tricked into serving it, clients
    # verify: the embedded key does not hash to the victim's HostID.
    server.master._revocations[path.hostid] = forged
    client = world.add_client("c")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    with pytest.raises(KernelError):
        # The mount fails (the server refuses to serve while "revoked")
        # but crucially no :REVOKED: link appears for a forged cert.
        proc.read_file(f"{path}/alive")
    with pytest.raises(KernelError) as excinfo:
        proc.readlink(f"/sfs/{path.mount_name}")
    assert excinfo.value.errno in (errno.ENOENT, errno.EINVAL)


def test_forwarding_pointer_signed_by_a_foreign_key_fails_the_redial():
    """On a redial, a forwarding pointer counts only if its key hashes
    to the HostID being dialed.  An impostor at the crashed server's
    Location answers with a well-formed pointer signed by a key of its
    own: the redial fails with SecurityError and the mount stays on
    its self-certifying pathname."""
    from repro.core.revocation import make_forwarding_pointer
    from repro.crypto.rabin import generate_key

    world, server, path, proc = build_world()
    assert proc.read_file(f"{path}/data") == b"protected contents"
    client = world.clients["victim"]
    session = client.sfscd._mounts[path.hostid].session
    server.crash()
    impostor = world.add_server(path.location)
    elsewhere = impostor.export_fs()
    foreign = generate_key(768, world.rng)
    impostor.master.set_forwarding_pointer(path.hostid, make_forwarding_pointer(
        foreign, path.location, str(elsewhere)))
    with pytest.raises(SecurityError, match="wrong HostID"):
        session.peer.drive(session.reconnect_task())
    assert session.path == path
    assert session.reconnects == 0


def test_sfs_read_reply_with_a_flipped_payload_bit_never_delivers_it():
    """The SFS half of the contrast below: one ciphertext bit of the
    READ reply is flipped deep inside the sealed payload, far past the
    length word, so only the record MAC can catch it.  The relays
    forward the reply's bytes without decoding them, but behind the
    channel: the record is dropped, and the reader gets the file's true
    bytes (or an error), never the flipped one."""
    contents = bytes(range(256)) * 8
    armed = []

    class FlipReadReply(Adversary):
        def process(self, data, direction):
            if armed and direction == "b->a" and len(data) > len(contents):
                armed.clear()
                corrupted = bytearray(data)
                corrupted[len(data) - 64] ^= 0x10
                return [bytes(corrupted)]
            return [data]

    world = World(seed=11)
    server = world.add_server("srv.example.com")
    path = server.export_fs()
    pathops.write_file(server.fs, "/data", contents)
    world.adversary_factory = FlipReadReply
    client = world.add_client("victim")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    assert proc.stat(f"{path}/data").size == len(contents)
    armed.append(True)
    try:
        assert proc.read_file(f"{path}/data") == contents
    except KernelError:
        pass  # refused outright: still no wrong byte
    assert not armed, "no READ reply was tampered with"
    session = client.sfscd._mounts[path.hostid].session
    assert session.channel.rejected_records + session.rekeys >= 1


def test_nfs_baseline_is_tamperable_where_sfs_is_not():
    """Contrast: plain NFS accepts tampered data; SFS never does."""
    world = World(seed=16)
    server = world.add_server("srv.example.com")
    server.export_fs()
    pathops.write_file(server.fs, "/bench/data", b"A" * 64)

    from repro.sim.network import Adversary

    class PayloadFlipper(Adversary):
        """Flips bytes inside NFS READ replies (deep in the payload)."""

        def process(self, data, direction):
            if direction == "b->a" and len(data) > 120 and b"A" * 16 in data:
                index = data.index(b"A" * 16)
                corrupted = bytearray(data)
                corrupted[index] ^= 0xFF
                return [bytes(corrupted)]
            return [data]

    from repro.sim.network import link_pair
    from repro.nfs3.server import Nfs3Server
    from tests.helpers import SyncNfs3Client
    from repro.rpc.peer import RpcPeer
    from repro.rpc.rpcmsg import AuthSys

    nfsd = Nfs3Server(server.fs)
    kernel_side, server_side = link_pair(world.clock, adversary=PayloadFlipper())
    RpcPeer(server_side, "nfsd").register(nfsd.program)
    client = SyncNfs3Client(RpcPeer(kernel_side, "kernel"), AuthSys(uid=0, gid=0))
    root = nfsd.root_handle()
    bench = client.lookup(root, "bench").object
    fh = client.lookup(bench, "data").object
    data = client.read(fh, 0, 64).data
    assert data != b"A" * 64, "NFS delivered tampered data undetected"
