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

import random

import pytest

from repro.core import proto
from repro.core.channel import (
    RESYNC_ACK,
    RESYNC_REQUEST,
    make_control_record,
    parse_control_record,
)
from repro.core.server import ZERO_HANDLE, make_sfs_cred
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.rpc import rpcmsg
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
    # ... yet the client recovers and the data is still right:
    assert proc.read_file(f"{path}/data") == b"protected contents"
    assert session.rekeys >= 1


def test_forged_resync_window_rejects_plaintext_session_calls():
    """While the plaintext fallback a forged RESYNC-REQ opens is in
    effect, the session dialect is withdrawn: an attacker who follows
    the forgery with a plaintext NFS call under a guessed authno gets
    PROG_UNAVAIL, never file service — the fallback window really is
    DoS-only, not an authentication or confidentiality hole."""
    world = World(seed=82)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    pathops.write_file(server.fs, "/data", b"protected contents")
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/data") == b"protected contents"
    session = session_for(world, path)
    (connection,) = server_connections(server, path)
    export = server.master._rw[path.hostid]
    served_before = connection.peer.calls_served
    relayed_before = export.nfs_client.peer.calls_sent
    # Step 1: the forged control record drops the server to plaintext.
    session.pipe.raw.send(make_control_record(RESYNC_REQUEST))
    settle(world.clock)
    assert connection.resyncs_served == 1
    # Step 2: the attacker speaks the session dialect in plaintext with
    # a guessed authno (authnos are small sequential ints).  The
    # mount-convention LOOKUP needs no stolen handle, so before the
    # fallback window withdrew the dialect it leaked the root handle.
    arg_codec, _res_codec = proto.NFS_PROC_CODECS[nfs_const.NFSPROC3_LOOKUP]
    forged = rpcmsg.pack_call(
        rpcmsg.CallHeader(
            0xADBEEF, proto.SFS_RW_PROGRAM, proto.SFS_VERSION,
            nfs_const.NFSPROC3_LOOKUP, cred=make_sfs_cred(1),
        ),
        arg_codec.pack(nfs_types.LookupArgs.make(
            what=nfs_types.DirOpArgs.make(dir=ZERO_HANDLE, name=".")
        )),
    )
    session.pipe.raw.send(forged)
    settle(world.clock)
    # Not executed: no registered procedure ran and nothing reached the
    # local NFS server, so no reply can have carried file system state.
    assert connection.peer.calls_served == served_before
    assert export.nfs_client.peer.calls_sent == relayed_before
    # The real client still recovers; the attacker bought only delay.
    assert proc.read_file(f"{path}/data") == b"protected contents"
    assert session.rekeys >= 1
    assert connection.peer.calls_served > served_before


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
    # ... and calls fail with an error instead of silently downgrading.
    with pytest.raises(KernelError):
        proc.read_file(f"{path}/secret")
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



@pytest.mark.parametrize("seed", [1, 4, 6, 7])
def test_lossy_wan_readahead_never_crosses_the_plaintext_window(seed):
    """5 % of records vanish on a WAN link at depth 8 while the kernel
    writes and reads back four files.  Prefetches are speculative: one
    attempt each, none retransmitted, none the caller of the recovery
    hook, and — checked at the moment the pipe drops to plaintext —
    none pending while an unauthenticated record could resolve it.  The
    reads that waited for a lost one fall back to plain READs, whose
    retransmissions recover as they always did: every file completes
    with the right bytes."""
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
    peer, pipe = session.peer, session.pipe

    plaintext_windows = []
    reset_to_plaintext = pipe.reset_to_plaintext

    def checked_reset():
        plaintext_windows.append(sorted(peer._speculative))
        reset_to_plaintext()

    pipe.reset_to_plaintext = checked_reset
    proc_of_xid, retransmitted = {}, []

    def trace(line):
        if ": call " in line:
            proc_of_xid[peer._xid] = int(re.search(r"proc=(\d+)", line)[1])
        elif ": retransmit " in line:
            retransmitted.append(
                proc_of_xid[int(re.search(r"xid=(\d+)", line)[1])])

    peer.trace = trace
    seeds = random.Random(seed)
    world.set_wire_adversary(
        lambda: RandomDropAdversary(0.05, random.Random(seeds.random())))

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
    assert session.rekeys >= 1 and plaintext_windows
    assert not any(plaintext_windows)         # no prefetch xid pending
    assert retransmitted                      # foreground calls recovered
    assert nfs_const.NFSPROC3_READV not in retransmitted
    assert proc_of_xid and nfs_const.NFSPROC3_READV in proc_of_xid.values()
    assert not peer._speculative
    assert world.metrics.counter("client.readahead.abandoned").value >= 1


class ForgeReadvReplies(Adversary):
    """ROADMAP item 1(a) aimed at the readahead buffer: behind the
    server's RESYNC-ACK, a plaintext READV reply for every xid up to
    *last_xid*, each offering attacker bytes as chunks of the file."""

    EVIL = b"\xee" * 8192

    def __init__(self):
        self.forged = 0
        self.last_xid = 0

    def process(self, data, direction):
        if direction != "b->a" or parse_control_record(data) != RESYNC_ACK:
            return [data]
        _args, res_codec = proto.NFS_PROC_CODECS[nfs_const.NFSPROC3_READV]
        body = res_codec.pack((nfs_const.NFS3_OK, nfs_types.Record(
            file_attributes=None,
            segments=[nfs_types.Record(count=8192, eof=False, data=self.EVIL)
                      for _ in range(8)])))
        forged = [rpcmsg.pack_reply(rpcmsg.ReplyHeader(xid), body)
                  for xid in range(1, self.last_xid + 1)]
        self.forged += len(forged)
        return [data] + forged


def test_resync_abandons_prefetches_before_the_pipe_goes_plaintext():
    """With READVs in flight the session resyncs, and an attacker
    answers every pending xid in plaintext.  Prefetches were abandoned
    before the pipe dropped its channel — xid gone, future failed, slot
    released — so the forgeries resolve nothing and no attacker byte
    reaches the readahead buffer."""
    world = World(seed=85)
    world.lan_params = NetworkParameters.wan()
    world.enable_pipelining(depth=8, seed=85)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    data = random.Random(85).randbytes(48 * 8192)
    pathops.write_file(server.fs, "/big", data)
    forger = ForgeReadvReplies()
    world.adversary_factory = lambda: forger
    client = world.add_client("laptop")
    client.new_agent("user", 1000)
    proc = client.process(uid=1000)
    fd = proc.open(f"{path}/big")
    assert proc.read(fd, 2 * 8192) == data[:2 * 8192]   # the window opens
    mount = client.sfscd._mounts[path.hostid]
    session = mount.session
    assert mount._ra_in_flight >= 2 and session.peer._speculative
    counter = world.metrics.counter
    batches = counter("client.readahead.batches").value
    pending_at_reset = []
    reset_to_plaintext = session.pipe.reset_to_plaintext

    def checked_reset():
        pending_at_reset.append(sorted(session.peer._speculative))
        reset_to_plaintext()

    session.pipe.reset_to_plaintext = checked_reset
    forger.last_xid = session.peer._xid       # every call sent so far
    assert session.resync()
    assert forger.forged and pending_at_reset == [[]]
    assert counter("client.readahead.batches").value == batches
    assert counter("client.readahead.abandoned").value >= 2
    assert mount._ra_in_flight == 0
    assert session.peer._window_in_flight == 0
    assert not session.peer._call_futures
    assert proc.read(fd, len(data)) == data[2 * 8192:]
    proc.close(fd)
