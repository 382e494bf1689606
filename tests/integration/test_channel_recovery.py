"""Dropped-record recovery, end to end.

The paper's threat model grants the attacker the whole network, and its
guarantee is that "attackers can do no worse than delay the file
system's operation".  A dropped or duplicated record permanently
desynchronizes the channel's cipher streams, so making that guarantee
real takes the whole recovery stack: MAC-failure detection, RPC
retransmission with a duplicate-reply cache, and the plaintext-control
resync handshake with an authenticated REKEY.  These tests run it all
together over seeded fault-injection adversaries.
"""

import math
import os
import random

import pytest

from repro.core import proto
from repro.core.channel import (
    RESYNC_ACK,
    RESYNC_REQUEST,
    make_control_record,
    parse_control_record,
)
from repro.core.keyneg import negotiate_client_keys
from repro.core.server import ZERO_HANDLE, make_sfs_cred
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.rpc import rpcmsg
from repro.rpc.peer import RpcRejected
from repro.rpc.xdr import XdrError
from tests.helpers import settle
from repro.sim.network import (
    Adversary,
    ChaosAdversary,
    DropAdversary,
    NetworkParameters,
    RandomDropAdversary,
    RecordingAdversary,
)


def lossy_world(seed, **rates):
    """A one-server world whose every dialed link runs a seeded
    ChaosAdversary.  Returns (world, server, path, proc, adversaries)."""
    world = World(seed=seed)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    adversaries = []

    def factory():
        adversary = ChaosAdversary(random.Random(seed + len(adversaries)),
                                   **rates)
        adversaries.append(adversary)
        return adversary

    world.adversary_factory = factory
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    return world, server, path, proc, adversaries


def session_for(world, path, hostname="laptop"):
    return world.clients[hostname].sfscd._mounts[path.hostid].session


def server_connections(server, path):
    return server.master._rw[path.hostid].connections


def test_workload_completes_over_lossy_network():
    """The acceptance scenario: ~1% of records dropped or corrupted, a
    full multi-file read/write workload still completes — no permanent
    RpcTimeout ever surfaces, because retransmission and re-keying
    absorb every loss."""
    world, server, path, proc, adversaries = lossy_world(
        30, drop_rate=0.01, corrupt_rate=0.01, duplicate_rate=0.005
    )
    base = f"{path}/home/alice"
    contents = {}
    for index in range(12):
        name = f"{base}/file-{index:02d}.dat"
        data = bytes((index * 37 + offset) % 256 for offset in range(512))
        proc.write_file(name, data)       # would raise KernelError on
        contents[name] = data             # an unrecovered RpcTimeout
    proc.makedirs(f"{base}/nested/deeper")
    proc.write_file(f"{base}/nested/deeper/leaf", b"still here")
    contents[f"{base}/nested/deeper/leaf"] = b"still here"
    for name, expected in contents.items():
        assert proc.read_file(name) == expected

    assert sum(a.faults for a in adversaries) > 0, "adversary never fired"
    session = session_for(world, path)
    rejected = session.channel.rejected_records + sum(
        connection.pipe.lower.rejected_records
        for connection in server_connections(server, path)
        if connection.pipe.lower is not connection.pipe.raw
    )
    assert rejected > 0
    assert session.peer.retransmissions > 0
    # At least one loss desynchronized the streams badly enough that
    # only a re-keying brought them back:
    assert session.rekeys >= 1


def test_recovery_events_visible_in_metrics_snapshot():
    """Every recovery event the surrounding tests assert on via object
    attributes also lands in the world registry's exported snapshot —
    the counters an operator would actually watch (see
    docs/OBSERVABILITY.md).  Channel objects are replaced on re-keying,
    so the registry, which outlives them, is the only place the full
    story accumulates."""
    world, server, path, proc, adversaries = lossy_world(
        30, drop_rate=0.01, corrupt_rate=0.01, duplicate_rate=0.005
    )
    base = f"{path}/home/alice"
    for index in range(12):
        data = bytes((index * 37 + offset) % 256 for offset in range(512))
        proc.write_file(f"{base}/file-{index:02d}.dat", data)
    session = session_for(world, path)
    metrics = world.metrics.snapshot()["metrics"]
    # Fault injection: the link diffs the adversary's output, so the
    # registry agrees exactly with the adversaries' own fault counts.
    assert metrics["net.faults.dropped"] == \
        sum(a.dropped for a in adversaries) > 0
    assert metrics["net.faults.tampered"] == \
        sum(a.corrupted for a in adversaries)
    assert metrics["net.faults.injected"] == \
        sum(a.duplicated for a in adversaries)
    # Client-side recovery, mirrored from the session's attributes.
    assert metrics["session.rekeys"] == session.rekeys >= 1
    assert metrics["session.resyncs"] >= session.rekeys
    assert metrics["rpc.retransmissions"] >= \
        session.peer.retransmissions > 0
    # MAC rejects accumulate across channel generations (each rekey
    # installs a fresh SecureChannel whose int counter restarts at 0).
    rejected_now = session.channel.rejected_records + sum(
        connection.pipe.lower.rejected_records
        for connection in server_connections(server, path)
        if connection.pipe.lower is not connection.pipe.raw
    )
    assert metrics["channel.mac_reject"] >= rejected_now
    assert metrics["channel.mac_reject"] > 0
    # Server-side view of the same recoveries.
    assert metrics["server.resyncs_served"] >= session.rekeys
    assert metrics["server.rekeys"] == sum(
        connection.rekeys for connection in server_connections(server, path)
    ) >= 1


def test_burst_loss_recovered_by_rekeying():
    """A burst that eats several records in a row is exactly the case
    plain retransmission cannot fix alone."""
    world, _server, path, proc, _adversaries = lossy_world(
        5, drop_rate=0.04
    )
    base = f"{path}/home/alice"
    for index in range(8):
        proc.write_file(f"{base}/burst-{index}", bytes([index]) * 128)
    for index in range(8):
        assert proc.read_file(f"{base}/burst-{index}") == bytes([index]) * 128
    assert session_for(world, path).rekeys >= 1


def test_resync_on_healthy_channel_swaps_keys():
    """resync() is safe to run at any time: fresh keys, same session."""
    world = World(seed=77)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    pathops.write_file(server.fs, "/data", b"before and after")
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/data") == b"before and after"
    session = session_for(world, path)
    old_keys = session.session_keys
    assert session.resync()
    assert session.rekeys == 1
    assert session.session_keys is not old_keys
    assert session.session_keys.kcs != old_keys.kcs
    (connection,) = server_connections(server, path)
    assert connection.rekeys == 1
    assert connection.resyncs_served == 1
    assert proc.read_file(f"{path}/data") == b"before and after"


def test_a_failure_to_void_leases_is_not_hidden():
    """Dropping the caches the old keys covered (``on_rekey``) is part
    of the resync: if it fails, the resync raises instead of reporting
    a rekey whose stale leases are still in use."""
    world = World(seed=77)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    pathops.write_file(server.fs, "/data", b"cached")
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    assert client.process(uid=1000).read_file(f"{path}/data") == b"cached"
    session = session_for(world, path)

    class VoidFailed(Exception):
        pass

    def void_fails():
        raise VoidFailed("could not drop the leased caches")

    session.on_rekey = void_fails
    with pytest.raises(VoidFailed):
        session.resync()


def test_authentication_survives_rekey():
    """Authnos persist across a re-keying: the REKEY was authenticated
    under the old SessionID, so the server knows it is the same client
    and no new LOGIN round is needed."""
    world = World(seed=78)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    private = f"{path}/home/alice/private"
    proc.write_file(private, b"alice only")
    proc.chmod(private, 0o600)

    session = session_for(world, path)
    mount = world.clients["laptop"].sfscd._mounts[path.hostid]
    authnos_before = dict(mount._authnos)
    assert authnos_before.get(1000, 0) != 0  # genuinely authenticated
    calls_before = session.peer.calls_sent
    assert session.resync()
    # The still-cached authno keeps working against the re-keyed channel:
    assert proc.read_file(private) == b"alice only"
    assert mount._authnos == authnos_before
    login_calls = [
        key for key in session.peer.proc_counts
        if key == (proto.SFS_RW_PROGRAM, proto.PROC_LOGIN)
    ]
    assert session.peer.proc_counts.get(
        (proto.SFS_RW_PROGRAM, proto.PROC_LOGIN), 0
    ) == 1, f"unexpected re-login after rekey ({login_calls})"
    assert session.peer.calls_sent > calls_before  # read really went out


def test_forged_rekey_denied():
    """An attacker who cannot compute the SessionID HMAC cannot swap
    their own keys into the session."""
    world = World(seed=79)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    pathops.write_file(server.fs, "/data", b"protected contents")
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/data") == b"protected contents"
    session = session_for(world, path)
    disc, body = session.peer.call(
        proto.SFS_CONNECT_PROGRAM, proto.SFS_VERSION, proto.PROC_REKEY,
        proto.RekeyArgs,
        proto.RekeyArgs.make(
            client_pubkey=b"\x07" * 64,
            encrypted_keyhalves=b"\x0b" * 64,
            auth=b"\x00" * 20,  # not the SessionID HMAC
        ),
        proto.RekeyRes,
    )
    assert disc == proto.REKEY_DENIED
    (connection,) = server_connections(server, path)
    assert connection.rekeys_denied == 1
    assert connection.rekeys == 0
    # Nothing changed: the original keys still carry traffic.
    assert proc.read_file(f"{path}/data") == b"protected contents"


def test_forged_resync_request_is_dos_only():
    """Anyone can inject the plaintext RESYNC-REQ — it is unauthenticated
    by design — but all it buys is a recoverable hiccup: the server
    falls back, the client notices, and the authenticated REKEY restores
    service with no attacker in the middle."""
    world = World(seed=80)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    pathops.write_file(server.fs, "/data", b"protected contents")
    pathops.write_file(server.fs, "/other", b"not read yet")
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/data") == b"protected contents"
    session = session_for(world, path)
    # Inject the forged control record straight onto the raw link, as a
    # network attacker would:
    session.pipe.raw.send(make_control_record(RESYNC_REQUEST))
    settle(world.clock)
    (connection,) = server_connections(server, path)
    assert connection.resyncs_served == 1  # server fell for it
    # ... yet the client recovers and the data is still right (a file
    # not read before, so the read goes to the wire):
    assert proc.read_file(f"{path}/other") == b"not read yet"
    assert session.rekeys >= 1


def _plaintext_lookup(session):
    """The session dialect in plaintext under a guessed authno (authnos
    are small sequential ints).  The mount-convention LOOKUP needs no
    stolen handle, so executed it would leak the root handle."""
    arg_codec, _res_codec = nfs_types.PROC_CODECS[nfs_const.NFSPROC3_LOOKUP]
    return rpcmsg.pack_call(
        rpcmsg.CallHeader(
            0xADBEEF, proto.SFS_RW_PROGRAM, proto.SFS_VERSION,
            nfs_const.NFSPROC3_LOOKUP, cred=make_sfs_cred(1),
        ),
        arg_codec.pack(nfs_types.LookupArgs.make(
            what=nfs_types.DirOpArgs.make(dir=ZERO_HANDLE, name=".")
        )),
    )


def _plaintext_encrypt(session):
    """A fresh figure-3 ENCRYPT with the attacker's own key halves.
    Executed, it would put keys the attacker can derive in front of
    the connection, and the authnos the real client logged in."""
    pubkey, sealed, _finish = negotiate_client_keys(
        session.server_public_key, session.ephemeral_keys.current(),
        random.Random(1))
    return rpcmsg.pack_call(
        rpcmsg.CallHeader(0xBADBAD, proto.SFS_CONNECT_PROGRAM,
                          proto.SFS_VERSION, proto.PROC_ENCRYPT),
        proto.EncryptArgs.pack(proto.EncryptArgs.make(
            client_pubkey=pubkey, encrypted_keyhalves=sealed)),
    )


def _forge_to_the_server(plaintext):
    def forge(world, server, path, mount, forger):
        """A forged RESYNC-REQ opens the server's window, and the
        attacker follows it with a plaintext call.  Returns the pipe
        whose gate must drop it."""
        (connection,) = server_connections(server, path)
        export = server.master._rw[path.hostid]

        def state():
            return (connection.peer.calls_served,
                    export.nfs_client.peer.calls_sent,
                    connection.session_keys)

        before = state()
        raw = mount.session.pipe.raw
        raw.send(make_control_record(RESYNC_REQUEST))
        settle(world.clock)
        assert connection.resyncs_served == 1
        raw.send(plaintext(mount.session))
        settle(world.clock)
        # Not executed: no procedure ran, nothing reached the local NFS
        # server and the session keys are the real client's.
        assert state() == before
        return connection.pipe
    return forge


def _forge_an_invalidate(world, server, path, mount, forger):
    """Behind the RESYNC-ACK of the client's own resync, a plaintext
    INVALIDATE for the handle the mount caches.  It is checked as the
    rekey lands, before the rekey voids the leases itself: executed, it
    would have dropped the entry and answered in the clear."""
    session = mount.session
    (handle,) = mount._ra_streams
    forger.forge = lambda: [rpcmsg.pack_call(
        rpcmsg.CallHeader(0xC0FFEE, proto.SFS_CB_PROGRAM, proto.SFS_VERSION,
                          proto.PROC_INVALIDATE),
        proto.InvalidateArgs.pack(proto.InvalidateArgs.make(handle=handle)),
    )]
    void_leases = session.on_rekey
    at_rekey = []

    def look_then_void():
        at_rekey.append(mount.caches.attrs.peek(handle))
        void_leases()

    session.on_rekey = look_then_void
    served_before = session.peer.calls_served
    assert session.resync()
    session.on_rekey = void_leases
    assert at_rekey and at_rekey[0] is not None     # the entry survived
    assert session.peer.calls_served == served_before   # and no reply left
    return session.pipe


def _forge_a_rekey_under_a_relayed_read(world, server, path, mount,
                                        forger):
    """Behind a READ the server is still relaying to its NFS server, a
    forged RESYNC-REQ and then a REKEY-shaped CALL under the READ's xid.
    The gate lets out only the forged call's own answer (GARBAGE_ARGS,
    nothing secret) and parks the READ's reply for the next channel to
    seal: the file's bytes never reach the wire in plaintext."""
    session = mount.session
    (handle,) = mount._ra_streams
    (connection,) = server_connections(server, path)
    read = session.peer.start(session.call_nfs_task(
        nfs_const.NFSPROC3_READ,
        nfs_types.ReadArgs.make(file=handle, offset=0, count=8192), 0))
    xid = session.peer._xid
    session.pipe.raw.send(make_control_record(RESYNC_REQUEST))
    session.pipe.raw.send(rpcmsg.pack_call(
        rpcmsg.CallHeader(xid, proto.SFS_CONNECT_PROGRAM, proto.SFS_VERSION,
                          proto.PROC_REKEY), b"junk"))
    session.peer.wait_for(read)
    assert read.value[1].data == b"protected contents"
    assert connection.resyncs_served >= 1
    answers = [rpcmsg.parse_message(record).reply.accept_stat
               for direction, record in forger.transcript
               if direction == "b->a"
               and rpcmsg.peek_message(record) == (rpcmsg.REPLY, xid)]
    assert answers == [rpcmsg.GARBAGE_ARGS]
    return connection.pipe


def _forge_replies_to(proc_no):
    def forge(world, server, path, mount, forger):
        """Behind the RESYNC-ACK of the client's own resync, a plaintext
        reply of this kind for every xid the session has used."""
        session = mount.session
        last_xid = session.peer._xid
        forger.forge = lambda: forged_replies(proc_no, last_xid)
        assert session.resync()
        return session.pipe
    return forge


def test_forged_resync_window_rejects_plaintext_session_calls():
    """A case table: each row forges one kind of plaintext record into
    an open resync window.  The withdrawn pipe's gate drops it (and
    counts it), it executes nothing, and the real client recovers with
    the true bytes: the window is DoS-only, not an authentication,
    integrity or confidentiality hole (PROTOCOLS.md §10)."""
    cases = {
        "session call": _forge_to_the_server(_plaintext_lookup),
        "ENCRYPT": _forge_to_the_server(_plaintext_encrypt),
        "INVALIDATE": _forge_an_invalidate,
        "READV reply": _forge_replies_to(nfs_const.NFSPROC3_READV),
        "READ reply": _forge_replies_to(nfs_const.NFSPROC3_READ),
        "REKEY under a relayed READ's xid":
            _forge_a_rekey_under_a_relayed_read,
    }
    for name, forge in cases.items():
        world = World(seed=82)
        # Records sent in one instant arrive in one instant, so what is
        # forged behind a call reaches the server while it relays that
        # call to its NFS server.
        world.lan_params = NetworkParameters(bandwidth=math.inf)
        server = world.add_server("sfs.lcs.mit.edu")
        path = server.export_fs()
        pathops.write_file(server.fs, "/data", b"protected contents")
        pathops.write_file(server.fs, "/other", b"not read yet")
        forger = ForgeBehindAck()
        world.adversary_factory = lambda: forger
        client = world.add_client("laptop")
        client.new_agent("user", 1000)
        proc = client.process(uid=1000)
        assert proc.read_file(f"{path}/data") == b"protected contents"
        mount = client.sfscd._mounts[path.hostid]
        pipe = forge(world, server, path, mount, forger)
        assert pipe.withdrawn_drops >= max(1, forger.forged), name
        # The attacker bought only delay.
        assert proc.read_file(f"{path}/other") == b"not read yet", name
        assert mount.session.rekeys >= 1, name


def test_failed_resync_never_downgrades_to_plaintext():
    """When every resync round fails — an attacker can force this by
    denying the REKEYs — the session must reinstall the channel and
    surface an error, never keep relaying calls over the raw transport
    in cleartext."""
    world = World(seed=83)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    secret = b"never in the clear"
    pathops.write_file(server.fs, "/secret", secret)
    pathops.write_file(server.fs, "/unread", secret)
    recorder = RecordingAdversary()
    world.adversary_factory = lambda: recorder
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/secret") == secret
    session = session_for(world, path)
    good_key = session.server_public_key
    # Sabotage every REKEY: key halves sealed to the wrong public key
    # are rejected by the server, so each round ends REKEY_DENIED.
    session.server_public_key = session.ephemeral_keys.current().public_key
    assert session.resync() is False
    assert session.resyncs_failed >= 1
    # The channel — broken or not — is back in front of the raw
    # transport, so data records cannot flow in plaintext ...
    assert session.pipe.lower is session.channel
    # ... and calls fail with an error instead of silently downgrading
    # (a file not read before, so the read goes to the wire).
    with pytest.raises(KernelError):
        proc.read_file(f"{path}/unread")
    # No session-dialect RPC ever crossed the wire in the clear:
    wire = b"".join(record for _direction, record in recorder.transcript)
    assert secret not in wire
    for _direction, record in recorder.transcript:
        try:
            message = rpcmsg.parse_message(record)
        except Exception:  # noqa: BLE001 - ciphertext does not parse
            continue
        if message.mtype == rpcmsg.CALL and message.call is not None:
            assert message.call.prog != proto.SFS_RW_PROGRAM, \
                "session call left the client in plaintext"
    # Repair the key and the same session recovers on the same link.
    session.server_public_key = good_key
    assert session.resync()
    assert proc.read_file(f"{path}/secret") == secret


def test_abandoned_handshake_link_is_closed_and_pruned():
    """A handshake stranded by a lost ENCRYPT reply is redialed from
    scratch; the abandoned link is closed, and the server drops its
    half-open connection at the next lease fan-out instead of
    broadcasting invalidations to a dead link forever."""
    world = World(seed=84)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    adversaries = []

    def factory():
        # First dial: eat the ENCRYPT reply (the second server->client
        # record) after the server has already armed its channel and
        # listed the connection; every later dial runs clean.
        adversary = (DropAdversary(target_index=1, direction="b->a")
                     if not adversaries else Adversary())
        adversaries.append(adversary)
        return adversary

    world.adversary_factory = factory
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.write_file(f"{path}/home/alice/file", b"contents")
    assert len(adversaries) >= 2, "the redial never happened"
    assert not world.links[0].is_open, "abandoned link left open"
    # The write's lease fan-out pruned the half-open ghost connection:
    export = server.master._rw[path.hostid]
    assert len(export.connections) == 1
    assert all(connection.alive for connection in export.connections)


def test_eavesdropper_sees_no_plaintext_across_rekey():
    """Records before and after a re-keying leak nothing: the new keys
    come from a full re-run of the figure-3 negotiation."""
    world = World(seed=81)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    recorder = RecordingAdversary()
    world.adversary_factory = lambda: recorder
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    secret_before = b"confidential before rekey"
    secret_after = b"confidential after rekey"
    pathops.write_file(server.fs, "/one", secret_before)
    pathops.write_file(server.fs, "/two", secret_after)
    assert proc.read_file(f"{path}/one") == secret_before
    session = session_for(world, path)
    assert session.resync()
    assert proc.read_file(f"{path}/two") == secret_after
    wire = b"".join(record for _direction, record in recorder.transcript)
    assert secret_before not in wire
    assert secret_after not in wire
    assert b"confidential" not in wire


def test_lossy_depth_8_closed_loop_recovers_inside_its_tasks():
    """Recovery on the engine the pipelined workloads run: 15 % of
    records vanish once the handshakes are done, and every op of a
    depth-8 closed loop still completes, because resync runs as part of
    the task whose call timed out (it yields for the ACK and the REKEY)
    instead of pumping from inside it."""
    from repro.load import LoadConfig, LoadHarness

    harness = LoadHarness(LoadConfig(clients=4, ops_per_client=30,
                                     seed=2026, pipeline_depth=8))
    seeds = random.Random(2026)
    harness.world.set_wire_adversary(
        lambda: RandomDropAdversary(0.15, random.Random(seeds.random())))
    report = harness.run_closed_loop()
    assert report.ops_completed == 4 * 30
    assert report.op_errors == 0
    assert report.unfinished_tasks == 0
    assert sum(session.rekeys for session in harness.sessions) > 0
    harness.scheduler.drain()


#: Programs whose records carry a session's content: every CALL of
#: these, and every REPLY but a REKEY's, must cross the wire sealed.
SESSION_PROGRAMS = frozenset({proto.SFS_RW_PROGRAM,
                              proto.SFS_AUTHSERV_PROGRAM,
                              proto.SFS_CB_PROGRAM})


def plaintext_session_records(transcript):
    """The session records of a ``(direction, record)`` transcript that
    parse as plaintext RPC.  (A sealed record parses only by a 2^-31
    coincidence of its mtype word.)"""
    rekeys, found = set(), []
    for direction, record in transcript:
        try:
            message = rpcmsg.parse_message(record)
        except XdrError:
            continue                     # sealed, or a control record
        if message.mtype == rpcmsg.CALL:
            call = message.call
            if (call.prog, call.proc) == (proto.SFS_CONNECT_PROGRAM,
                                          proto.PROC_REKEY):
                rekeys.add((direction, call.xid))
            elif call.prog in SESSION_PROGRAMS:
                found.append((direction, "CALL", call.prog, call.proc))
        else:
            back = "b->a" if direction == "a->b" else "a->b"
            if (back, message.reply.xid) not in rekeys:
                found.append((direction, "REPLY", message.reply.xid))
    return found


class RecordThenDrop(RandomDropAdversary):
    """A wire recorder in front of seeded random loss: the transcript
    holds every record a sender put on the wire, lost or not."""

    def __init__(self, rate, rng, transcript):
        super().__init__(rate, rng)
        self.transcript = transcript

    def process(self, data, direction):
        self.transcript.append((direction, bytes(data)))
        return super().process(data, direction)


#: Recipe (b)'s ops_completed (of 210 arrivals at seed 2026, 203 at
#: 31337) before the resync window had its gate, when sibling calls
#: crossed it in plaintext and came back PROG_UNAVAIL.
OPEN_LOOP_BEFORE_THE_GATE = {
    2026: {0.01: 205, 0.05: 108, 0.15: 38},
    31337: {0.01: 145, 0.05: 169, 0.15: 119},
}


@pytest.mark.parametrize("loss", [0.01, 0.05, 0.15])
def test_lossy_open_loop_sends_no_session_record_in_the_clear(loss):
    """Recipe (b), secrecy: an open loop of 400 arrivals/s for 0.5 s on
    two depth-8 sessions, with *loss* of the records dropped once the
    handshakes are done.  Every resync window withdraws the channel on
    both ends, so no session record crosses the wire in plaintext in
    either direction, no sibling call meets a withdrawn dialect
    (PROG_UNAVAIL), and the loop completes at least as many ops as it
    did before the gate.  Ops still lost are RPC timeouts, the
    retransmission timer's business (ROADMAP item 1)."""
    from repro.load import LoadConfig, LoadHarness

    seed = int(os.environ.get("SFS_PIPELINE_SEED", "2026"))
    harness = LoadHarness(LoadConfig(clients=2, seed=seed, pipeline_depth=8,
                                     arrival_rate=400.0, duration=0.5))
    transcript, rejected = [], []
    seeds = random.Random(seed)
    harness.world.set_wire_adversary(lambda: RecordThenDrop(
        loss, random.Random(seeds.random()), transcript))

    def recording(call_nfs_task):
        def call(*args, **kwargs):
            try:
                return (yield from call_nfs_task(*args, **kwargs))
            except RpcRejected as exc:
                rejected.append(exc.header.accept_stat)
                raise
        return call

    for session in harness.sessions:
        session.call_nfs_task = recording(session.call_nfs_task)
    report = harness.run_open_loop()
    assert sum(session.rekeys for session in harness.sessions) > 0
    assert plaintext_session_records(transcript) == []
    assert rpcmsg.PROG_UNAVAIL not in rejected
    assert report.ops_completed >= \
        OPEN_LOOP_BEFORE_THE_GATE.get(seed, {}).get(loss, 0)
    assert report.unfinished_tasks == 0


@pytest.mark.parametrize("seed", range(8))
def test_lossy_depth_1_write_and_read_back_completes(seed):
    """A window of 1 on a LAN that loses 5 % of records.  The call that
    timed out holds the only slot while its recovery rekeys; the REKEY
    takes the slot reserved for it, so the first desync does not park
    the session for good, and a 64 KB write and its read-back complete
    with the right bytes."""
    world = World(seed=seed)
    world.enable_pipelining(depth=1, seed=seed)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.stat(f"{path}/home/alice")           # mounted before the loss
    seeds = random.Random(seed)
    world.set_wire_adversary(
        lambda: RandomDropAdversary(0.05, random.Random(seeds.random())))
    data = random.Random(seed).randbytes(64 * 1024)
    name = f"{path}/home/alice/f"
    proc.write_file(name, data)
    assert proc.read_file(name) == data
    session = session_for(world, path)
    assert session.peer.window_depth == 1
    assert session.peer._window_in_flight == 0



@pytest.mark.parametrize("seed", [1, 4, 6, 7])
def test_lossy_wan_readahead_never_crosses_the_plaintext_window(seed):
    """5 % of records vanish on a WAN link at depth 8 while the kernel
    writes and reads back four files.  Prefetches are speculative: one
    attempt each, none retransmitted, none the caller of the recovery
    hook.  A reply that reaches a withdrawn pipe is dropped by its gate
    whatever it answers, so a prefetch pending across a resync ends
    with the true bytes or none.  The reads that waited for a lost one
    fall back to plain READs, whose retransmissions recover as they
    always did: every file completes with the right bytes.  Whatever the seed's losses hit, one READV is
    lost by construction: the first one's record is dropped as it
    leaves, so a prefetch is known to be pending when a record goes."""
    import re

    world = World(seed=seed)
    world.lan_params = NetworkParameters.wan()
    world.enable_pipelining(depth=8, seed=seed)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.stat(f"{path}/home/alice")           # mounted before the loss
    session = session_for(world, path)
    peer = session.peer
    proc_of_xid, retransmitted = {}, []

    first_readv = []

    def trace(line):
        if ": call " in line:
            proc = int(re.search(r"proc=(\d+)", line)[1])
            proc_of_xid[peer._xid] = proc
            if proc == nfs_const.NFSPROC3_READV and not first_readv:
                first_readv.append(peer._xid)   # its record leaves next
        elif ": retransmit " in line:
            retransmitted.append(
                proc_of_xid[int(re.search(r"xid=(\d+)", line)[1])])

    peer.trace = trace
    seeds = random.Random(seed)

    class LoseTheFirstReadv(RandomDropAdversary):
        def process(self, data, direction):
            delivered = super().process(data, direction)
            if direction == "a->b" and len(first_readv) == 1:
                first_readv.append("lost")
                return []
            return delivered

    world.set_wire_adversary(
        lambda: LoseTheFirstReadv(0.05, random.Random(seeds.random())))

    for i in range(4):
        data = random.Random(seed * 10 + i).randbytes(24 * 8192)
        name = f"{path}/home/alice/f{i}"
        proc.write_file(name, data)
        fd = proc.open(name)
        got = bytearray()
        while piece := proc.read(fd, 8192):
            got += piece
        proc.close(fd)
        assert bytes(got) == data

    assert session.peer is peer               # recovered in place
    assert session.rekeys >= 1
    assert retransmitted                      # foreground calls recovered
    assert nfs_const.NFSPROC3_READV not in retransmitted
    assert proc_of_xid and nfs_const.NFSPROC3_READV in proc_of_xid.values()
    assert not peer._call_futures
    assert first_readv[1:] == ["lost"]
    assert world.metrics.counter("client.readahead.abandoned").value >= 1


EVIL = b"\xee" * 8192


def forged_replies(proc_no, last_xid):
    """Plaintext NFS3_OK replies to READ or READV for xids 1 to
    *last_xid*, each offering attacker bytes as file data (ROADMAP item
    1, recipe (a))."""
    _args, res_codec = nfs_types.PROC_CODECS[proc_no]
    if proc_no == nfs_const.NFSPROC3_READV:
        result = nfs_types.Record(
            file_attributes=None,
            segments=[nfs_types.Record(count=8192, eof=False, data=EVIL)
                      for _ in range(8)])
    else:
        result = nfs_types.Record(file_attributes=None, count=8192,
                                  eof=False, data=EVIL)
    body = res_codec.pack((nfs_const.NFS3_OK, result))
    return [rpcmsg.pack_reply(rpcmsg.ReplyHeader(xid), body)
            for xid in range(1, last_xid + 1)]


class ForgeBehindAck(Adversary):
    """Behind each RESYNC-ACK from the server, the plaintext records
    ``forge()`` makes then: an attacker writing into the client's
    resync window.  Passes everything through until ``forge`` is set."""

    def __init__(self):
        self.forge = list
        self.forged = 0
        #: Every ``(direction, record)`` put on the wire, forgeries too.
        self.transcript = []

    def process(self, data, direction):
        records = [data]
        if direction == "b->a" and parse_control_record(data) == RESYNC_ACK:
            forged = self.forge()
            self.forged += len(forged)
            records += forged
        self.transcript += [(direction, record) for record in records]
        return records


def kept_chunks(mount):
    return [chunk for stream in mount._ra_streams.values()
            for chunk, _eof, _expires in stream.chunks.values()]


def test_resync_abandons_prefetches_before_the_pipe_goes_plaintext():
    """With READVs in flight the session resyncs, and an attacker
    answers every xid sent so far in plaintext behind the RESYNC-ACK.
    The withdrawn pipe's gate drops each forgery, so none resolves a
    prefetch and no attacker byte reaches the readahead buffer: a
    prefetch pending across the window ends with the true bytes, sealed
    by the new channel, or with none, and the file reads back whole."""
    world = World(seed=85)
    world.lan_params = NetworkParameters.wan()
    world.enable_pipelining(depth=8, seed=85)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    data = random.Random(85).randbytes(48 * 8192)
    pathops.write_file(server.fs, "/big", data)
    forger = ForgeBehindAck()
    world.adversary_factory = lambda: forger
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    fd = proc.open(f"{path}/big")
    assert proc.read(fd, 2 * 8192) == data[:2 * 8192]   # the window opens
    mount = client.sfscd._mounts[path.hostid]
    session = mount.session
    assert len(mount._background) >= 2
    last_xid = session.peer._xid              # every call sent so far
    forger.forge = lambda: forged_replies(nfs_const.NFSPROC3_READV, last_xid)
    assert session.resync()
    assert forger.forged == last_xid
    assert session.pipe.withdrawn_drops >= forger.forged
    assert EVIL not in kept_chunks(mount)
    assert proc.read(fd, len(data)) == data[2 * 8192:]
    proc.close(fd)
    assert not mount._background and not session.peer._call_futures
    assert session.peer._window_in_flight == 0


#: The block cache is one at every depth; its tests run at both.
CACHE_DEPTHS = (1, 8)


def _wan_world(seed, adversary, data, depth=8):
    """A WAN world at *depth* with *data* at /big, every dialed link
    under *adversary*.  Returns (world, path, proc)."""
    world = World(seed=seed)
    world.lan_params = NetworkParameters.wan()
    world.enable_pipelining(depth=depth, seed=seed)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    pathops.write_file(server.fs, "/big", data)
    world.adversary_factory = lambda: adversary
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    return world, path, client.process(uid=1000)


def test_a_read_resolved_inside_the_resync_window_is_not_kept():
    """Recipe (a), inverted: a plain READ is on the wire when the
    session starts a resync, and the forger answers its xid, and every
    older one, in plaintext behind the RESYNC-ACK.  The withdrawn
    pipe's gate drops every forgery, so nothing resolves the READ inside
    the window: it returns the true bytes once the new channel carries
    its reply, never the attacker's, and nothing it brings is EVIL.  At
    depth 1 the REKEY takes its reserved slot beside the READ holding
    the only one."""
    data = random.Random(87).randbytes(8 * 8192)
    for depth in CACHE_DEPTHS:
        forger = ForgeBehindAck()
        world, path, proc = _wan_world(87, forger, data, depth)
        fd = proc.open(f"{path}/big")
        mount = world.clients["laptop"].sfscd._mounts[path.hostid]
        session = mount.session
        relay_task = session.relay_task
        resyncs = []

        def read_then_resync(proc_no, args, authno, speculative=False):
            if proc_no != nfs_const.NFSPROC3_READ or resyncs:
                return (yield from relay_task(proc_no, args, authno,
                                              speculative))
            pending = session.peer.start(
                relay_task(proc_no, args, authno))
            last_xid = session.peer._xid     # the READ's, and older
            forger.forge = lambda: forged_replies(nfs_const.NFSPROC3_READ,
                                                  last_xid)
            resyncs.append(session.peer.start(session.resync_task()))
            return (yield pending)

        session.relay_task = read_then_resync
        assert proc.read(fd, 8192) == data[:8192], depth
        (resync,) = resyncs
        while not resync.done:
            world.clock.advance(0.01)
        assert resync.value is True, depth
        assert forger.forged and session.pipe.withdrawn_drops >= forger.forged
        assert EVIL not in kept_chunks(mount)
        # The rekey voided the stream the READ left under, so the re-read
        # goes to the wire.  (At depth 8 a READV rides along: the true
        # reply's attributes say the file is longer than one chunk.)
        read = (proto.SFS_RW_PROGRAM, nfs_const.NFSPROC3_READ)
        reads = session.peer.proc_counts[read]
        proc.lseek(fd, 0)
        assert proc.read(fd, 8192) == data[:8192]
        assert session.peer.proc_counts[read] == reads + 1
        proc.close(fd)


class ForgeRekeyReplyOnce(Adversary):
    """Behind the first RESYNC-ACK, a plaintext reply for *xid* — the
    one the REKEY call is about to take — whose body does not decode."""

    def __init__(self):
        self.xid = None
        self.forged = 0

    def process(self, data, direction):
        if (self.xid is None or self.forged or direction != "b->a"
                or parse_control_record(data) != RESYNC_ACK):
            return [data]
        self.forged += 1
        return [data, rpcmsg.pack_reply(rpcmsg.ReplyHeader(self.xid),
                                        b"\xff\xff")]


def test_a_rekey_reply_that_does_not_decode_costs_one_round():
    """A forged REKEY reply inside the window need not even be XDR: the
    round it lands in fails like a lost one, and the next round — the
    server still accepts the SessionID it just replaced — recovers."""
    forger = ForgeRekeyReplyOnce()
    world, path, proc = _wan_world(89, forger, b"still here")
    assert proc.read_file(f"{path}/big") == b"still here"
    session = session_for(world, path)
    forger.xid = session.peer._xid + 1
    assert session.resync()
    assert forger.forged == 1
    assert session.rekeys == 1
    assert world.metrics.counter("session.resyncs_failed").value == 0
    assert proc.read_file(f"{path}/big") == b"still here"
