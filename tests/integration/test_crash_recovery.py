"""End-to-end crash/restart survival.

The tentpole scenario of the robustness PR: a server machine loses power
at a named protocol window (sim/crash.py), comes back with the same
keypair and exports, and the client — without any ceremony beyond
re-verifying that the presented key still hashes to the HostID in the
pathname — redials with exponential backoff, renegotiates session keys,
re-authenticates lazily, and replays the interrupted call.

What must hold afterwards:

* committed data is intact, un-committed writes are provably lost;
* recovery counters match the injected schedule deterministically;
* the handle map survives (it derives from the durable private key);
* an impostor answering the redial raises SecurityError, never data.

Run under different seeds with ``SFS_CRASH_SEED``; set
``SFS_CRASH_METRICS_OUT`` to export a metrics snapshot (the CI crash
suite uploads it as an artifact).
"""

import errno
import os

import pytest

from repro.core import proto
from repro.core.client import SecurityError
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World

SEED = int(os.environ.get("SFS_CRASH_SEED", "2026"))


@pytest.fixture
def crashy():
    """A server worth crashing, and a client logged in as alice."""
    world = World(seed=SEED)
    server = world.add_server("crashy.example.com")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    return world, server, path, alice, client, proc


def mount_of(client, path):
    return client.sfscd._mounts[path.hostid]


def session_of(client, path):
    return mount_of(client, path).session


# ---------------------------------------------------------------------------
# The named crash points
# ---------------------------------------------------------------------------


def test_crash_mid_handshake_mount_retries_until_restart(crashy):
    """Satellite 2 turned tentpole: a server that dies *inside* the
    ENCRYPT exchange must not hang the mount — the handshake RPC fails
    fast and the redial loop backs off until the machine is back."""
    world, server, path, alice, client, proc = crashy
    seeded = pathops.write_file(server.fs, "/home/alice/hello", b"hi there")
    server.fs.commit(seeded.ino)  # pathops leaves the write un-committed
    injector = server.install_crash_injector([("mid-handshake", 1)])
    server.schedule_restart(world.clock.now + 0.5)
    # First touch of the pathname automounts: CONNECT succeeds, ENCRYPT
    # crashes the server, the mount redials through the backoff policy.
    assert proc.read_file(f"{path}/home/alice/hello") == b"hi there"
    assert injector.fired == [("mid-handshake", 1)]
    assert world.metrics.counter("client.backoff_sleeps").value >= 1
    assert world.metrics.counter("server.crashes").value == 1
    assert world.metrics.counter("server.restarts").value == 1
    # This was a mount-time redial, not a session failover.
    assert session_of(client, path).reconnects == 0


def test_crash_before_commit_loses_uncommitted_keeps_committed(crashy):
    """The durability split, end to end: UNSTABLE writes whose COMMIT
    never ran are rolled back by the crash; committed files survive."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/keep", b"safe across reboot")
    injector = server.install_crash_injector([("before-commit", 1)])
    server.schedule_restart(world.clock.now + 0.5)
    # write_file = CREATE + UNSTABLE WRITE + close-triggered COMMIT; the
    # crash lands just before the COMMIT executes, so the bytes existed
    # only in volatile state.  Recovery is transparent to the caller.
    proc.write_file(f"{home}/doomed", b"these bytes must not survive")
    assert injector.fired == [("before-commit", 1)]
    session = session_of(client, path)
    mount = mount_of(client, path)
    assert session.reconnects == 1
    assert session.backoff_sleeps >= 1
    assert mount.replayed_calls >= 1
    # Committed data intact; un-committed data provably lost.
    assert proc.read_file(f"{home}/keep") == b"safe across reboot"
    assert proc.read_file(f"{home}/doomed") == b""
    assert pathops.read_file(server.fs, "/home/alice/doomed") == b""
    assert server.fs.lost_writes >= 1
    assert world.metrics.counter("fs.lost_writes").value >= 1
    assert world.metrics.counter("session.reconnects").value == 1


def test_crash_after_write_replays_transparently(crashy):
    """A WRITE that executed but whose reply died with the server is
    replayed on the fresh connection; the file converges."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/a", b"baseline")
    injector = server.install_crash_injector([("after-write", 1)])
    server.schedule_restart(world.clock.now + 0.5)
    proc.write_file(f"{home}/b", b"written twice, visible once")
    assert injector.fired == [("after-write", 1)]
    session = session_of(client, path)
    assert session.reconnects == 1
    assert mount_of(client, path).replayed_calls >= 1
    # The first execution was rolled back by the crash; the replay's
    # execution was committed by the close.
    assert server.fs.lost_writes >= 1
    assert proc.read_file(f"{home}/b") == b"written twice, visible once"
    assert pathops.read_file(server.fs, "/home/alice/b") \
        == b"written twice, visible once"
    assert proc.read_file(f"{home}/a") == b"baseline"


def test_crash_during_lease_fanout_every_client_recovers(crashy):
    """A crash while invalidations fan out kills every connection; both
    the writer and the lease holder fail over and converge."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/shared", b"v1")
    client2 = world.add_client("desktop")
    proc2 = client2.login_user("alice", alice.key, uid=1000)
    assert proc2.read_file(f"{home}/shared") == b"v1"  # takes the lease
    injector = server.install_crash_injector([("lease-fanout", 1)])
    server.schedule_restart(world.clock.now + 0.5)
    proc.write_file(f"{home}/shared", b"v2 after the crash")
    assert injector.fired == [("lease-fanout", 1)]
    assert session_of(client, path).reconnects == 1
    assert proc.read_file(f"{home}/shared") == b"v2 after the crash"
    # The second client's connection died too, and the invalidation for
    # its lease died with the server — so until it next goes to the wire
    # its cached attributes are the stale ones (len("v1") == 2 bytes).
    assert proc2.stat(f"{home}/shared").size == 2
    assert session_of(client2, path).reconnects == 0
    # read_file reads to eof, not to the cached size: the READ fails
    # over, flushes the caches, and returns everything.
    assert proc2.read_file(f"{home}/shared") == b"v2 after the crash"
    assert session_of(client2, path).reconnects == 1
    assert proc2.stat(f"{home}/shared").size == len(b"v2 after the crash")


def test_crash_mid_resync_fails_over_to_fresh_connection(crashy):
    """If the server dies while serving the resync control handshake,
    the resync fails cleanly and the next call reconnects instead."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/r", b"resilient")
    session = session_of(client, path)
    injector = server.install_crash_injector([("mid-resync", 1)])
    server.schedule_restart(world.clock.now + 0.5)
    assert session.resync() is False
    assert injector.fired == [("mid-resync", 1)]
    assert session.resyncs_failed == 1
    assert proc.read_file(f"{home}/r") == b"resilient"
    assert session.reconnects == 1


# ---------------------------------------------------------------------------
# Restart invariants
# ---------------------------------------------------------------------------


def test_restart_keeps_hostid_and_handles_fresh_write_verifier(crashy):
    """Durable vs volatile, itemized: same HostID and handle map after
    the reboot (both derive from the durable private key), but a fresh
    per-boot write verifier (unstable-write state is volatile)."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/data", b"persistent")
    session = session_of(client, path)
    export = server.master.rw_export(path.hostid)
    old_fingerprint = export.handles.fingerprint
    old_verf = export.nfs_server.write_verf
    old_key = bytes(session.servinfo.public_key)
    server.crash()
    server.restart()
    export = server.master.rw_export(path.hostid)
    assert export.handles.fingerprint == old_fingerprint
    assert export.nfs_server.write_verf != old_verf
    # The client's next call fails over; CONNECT re-runs the HostID
    # check and the same public key comes back.
    assert proc.read_file(f"{home}/data") == b"persistent"
    assert session.reconnects == 1
    assert bytes(session.servinfo.public_key) == old_key
    assert world.metrics.counter("server.crashes").value == 1
    assert world.metrics.counter("server.restarts").value == 1


def test_journal_recovery_verifies_committed_files(crashy):
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/data", b"x" * 4000)
    server.crash()
    # restart() runs fs.recover() and would refuse a mismatch; reaching
    # steady state again proves the journal agreed with the data.
    server.restart()
    assert proc.read_file(f"{home}/data") == b"x" * 4000
    assert world.metrics.counter("fs.torn_records_dropped").value == 0


def test_reconnect_refuses_an_impostor(crashy):
    """The security half of failover: a different machine answering the
    redial with a different key cannot satisfy the HostID check."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/s", b"secret")
    session = session_of(client, path)
    server.crash()
    # An impostor captures the Location and routes the victim's HostID
    # to its own export (the server-side dispatch permits this; the
    # client's check is what must not).
    impostor = world.add_server(path.location)
    impostor.export_fs()
    impostor.master.config.add_export("default", path.hostid,
                                      proto.DIALECT_RW)
    with pytest.raises(SecurityError):
        session.reconnect()
    assert session.reconnects == 0
    assert world.metrics.counter("session.reconnects_failed").value == 0


# ---------------------------------------------------------------------------
# Satellites: at-least-once degradation, dead-connection pruning
# ---------------------------------------------------------------------------


def test_nonidempotent_replay_degrades_to_at_least_once(crashy):
    """Satellite 4: the restarted server has an empty duplicate-request
    cache, so the replay of a non-idempotent REMOVE re-executes instead
    of being answered from cache — the caller sees ENOENT even though
    the remove succeeded.  At-most-once degraded to at-least-once."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/victim", b"doomed file")
    client2 = world.add_client("desktop")
    proc2 = client2.login_user("alice", alice.key, uid=1000)
    assert proc2.read_file(f"{home}/victim") == b"doomed file"
    injector = server.install_crash_injector([("lease-fanout", 1)])
    server.schedule_restart(world.clock.now + 0.5)
    duplicates_before = world.metrics.counter("rpc.duplicates_served").value
    # The REMOVE executes, then crashes the server while fanning out
    # invalidations — after execution, before the reply.
    with pytest.raises(KernelError) as excinfo:
        proc.unlink(f"{home}/victim")
    assert excinfo.value.errno == errno.ENOENT
    assert injector.fired == [("lease-fanout", 1)]
    mount = mount_of(client, path)
    assert mount.replayed_calls == 1
    assert session_of(client, path).reconnects == 1
    # The file IS gone — the first execution did the work; the replay
    # found no cached reply to shield it from re-execution.
    assert "victim" not in pathops.listdir(server.fs, "/home/alice")
    assert world.metrics.counter("rpc.duplicates_served").value \
        == duplicates_before


def test_dead_connection_is_pruned_when_its_link_closes(crashy):
    """A connection that died *silently* (no redial) is pruned — and
    counted — the moment its link closes, leases and all, so the next
    fan-out reaches the survivors without looking for the corpse."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/shared", b"v1")
    client2 = world.add_client("desktop")
    proc2 = client2.login_user("alice", alice.key, uid=1000)
    assert proc2.read_file(f"{home}/shared") == b"v1"
    export = server.master.rw_export(path.hostid)
    _laptop, ghost = export.connections
    assert any(ghost in lessees for lessees in export.leases.values())
    before = world.metrics.counter("server.dead_connections_pruned").value
    # The desktop vanishes without a word.
    session_of(client2, path).pipe.raw.close()
    assert world.metrics.counter("server.dead_connections_pruned").value \
        == before + 1
    assert server.master.dead_connections_pruned == before + 1
    assert len(export.connections) == 1
    assert ghost not in server.master.connections
    assert not any(ghost in lessees for lessees in export.leases.values())
    invalidations = ghost.invalidations_sent
    proc.write_file(f"{home}/shared", b"v2")
    assert ghost.invalidations_sent == invalidations
    assert world.metrics.counter("server.dead_connections_pruned").value \
        == before + 1
    assert proc.read_file(f"{home}/shared") == b"v2"


# ---------------------------------------------------------------------------
# Deterministic schedules and the CI metrics artifact
# ---------------------------------------------------------------------------


def test_recovery_counters_match_schedule(crashy):
    """Two scheduled crashes at different points; every recovery counter
    lands exactly where the schedule says, for any SFS_CRASH_SEED."""
    world, server, path, alice, client, proc = crashy
    home = f"{path}/home/alice"
    proc.write_file(f"{home}/warm", b"warm-up")  # mount established
    injector = server.install_crash_injector(
        [("after-write", 1), ("before-commit", 2)]
    )
    server.schedule_restart(world.clock.now + 0.5)
    proc.write_file(f"{home}/x", b"xx")  # WRITE #1 crashes; replayed
    server.schedule_restart(world.clock.now + 0.5)
    proc.write_file(f"{home}/y", b"yy")  # its COMMIT (#2) crashes; replayed
    assert injector.fired == [("after-write", 1), ("before-commit", 2)]
    assert injector.pending == 0
    session = session_of(client, path)
    mount = mount_of(client, path)
    assert session.reconnects == 2
    assert mount.replayed_calls == 2
    assert world.metrics.counter("server.crashes").value == 2
    assert world.metrics.counter("server.restarts").value == 2
    assert world.metrics.counter("session.reconnects").value == 2
    assert world.metrics.counter("client.replayed_calls").value == 2
    assert world.metrics.counter("session.backoff_sleeps").value \
        == session.backoff_sleeps
    # x converged: the after-write crash rolled back WRITE #1, and the
    # replay re-executed it before the close-time COMMIT.  y is provably
    # lost: the before-commit crash rolled back its UNSTABLE write, and
    # the replayed COMMIT cannot resurrect bytes the undo log erased.
    assert proc.read_file(f"{home}/x") == b"xx"
    assert proc.read_file(f"{home}/y") == b""
    assert pathops.read_file(server.fs, "/home/alice/y") == b""
    out = os.environ.get("SFS_CRASH_METRICS_OUT")
    if out:
        from repro.obs.export import write_snapshot

        write_snapshot(out, registry=world.metrics)


def test_same_seed_same_recovery_trace():
    """The whole recovery dance — backoff sleeps included — is a pure
    function of the seed."""
    def run(seed: int):
        world = World(seed=seed)
        server = world.add_server("crashy.example.com")
        path = server.export_fs()
        alice = server.add_user("alice", uid=1000)
        home = pathops.mkdirs(server.fs, "/home/alice")
        server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
        client = world.add_client("laptop")
        proc = client.login_user("alice", alice.key, uid=1000)
        proc.write_file(f"{path}/home/alice/f", b"before")
        server.install_crash_injector([("before-commit", 1)])
        server.schedule_restart(world.clock.now + 0.5)
        proc.write_file(f"{path}/home/alice/g", b"after")
        session = client.sfscd._mounts[path.hostid].session
        return (session.reconnects, session.backoff_sleeps,
                world.clock.now)

    assert run(7) == run(7)
    trace_a, trace_b = run(7), run(8)
    assert trace_a[0] == trace_b[0]  # same reconnect count either way


# --- crash under concurrent queued load ----------------------------------

def _crash_load_run(seed: int, pipeline_depth=None):
    """8 concurrent clients against a queued server that power-fails
    mid-run with requests still waiting in its queue."""
    from repro.load import LoadConfig, LoadHarness

    config = LoadConfig(clients=8, ops_per_client=12, seed=seed,
                        workers=1, service_time=0.002, think_time=0.004,
                        max_depth=16, failover=True,
                        pipeline_depth=pipeline_depth)
    harness = LoadHarness(config)
    server = harness.server
    clock = harness.world.clock
    state = {}

    def crash():
        state["depth_at_crash"] = harness.queue.depth
        server.crash()

    # Deep enough into the run that the queue has backlog, early enough
    # that plenty of operations remain to exercise failover.
    clock.call_at(clock.now + 0.040, crash)
    server.schedule_restart(clock.now + 0.090)
    report = harness.run_closed_loop()
    return harness, report, state


@pytest.mark.parametrize("pipeline_depth", [None, 8])
def test_server_crash_mid_queue_under_concurrent_clients(pipeline_depth):
    harness, report, state = _crash_load_run(
        seed=7, pipeline_depth=pipeline_depth)
    # The crash really did catch requests waiting in the queue.
    assert state["depth_at_crash"] > 0
    assert harness.world.metrics.counter("server.crashes").value == 1
    assert harness.world.metrics.counter("server.restarts").value == 1
    # Every client completed every operation — via failover (session
    # reconnect + replay) or an undisturbed path — or failed *cleanly*;
    # nothing hung.
    assert report.unfinished_tasks == 0
    total = 8 * 12
    assert report.ops_completed + report.op_errors == total
    assert report.ops_completed == total
    assert report.op_errors == 0
    # At least one session actually exercised the failover engine.
    assert sum(s.reconnects for s in harness.sessions) >= 1
    # And the scheduler drains clean: no task still parked on a future.
    harness.scheduler.drain()


def test_crash_mid_queue_is_deterministic_per_seed():
    _h1, first, s1 = _crash_load_run(seed=21)
    _h2, second, s2 = _crash_load_run(seed=21)
    assert s1 == s2
    assert first.latencies == second.latencies
    assert first.ops_completed == second.ops_completed
    assert first.duration == second.duration


def test_reconnect_backoff_yields_to_the_other_clients():
    """One session's link dies and its first two redials are refused:
    while that client backs off, the other clients' operations keep
    completing — the reconnect engine sleeps as a task instead of
    advancing the clock from inside its scheduler step."""
    from repro.load import LoadConfig, LoadHarness

    harness = LoadHarness(LoadConfig(clients=3, ops_per_client=12, seed=11,
                                     think_time=0.004, failover=True))
    clock = harness.world.clock
    victim = harness.sessions[0]
    refusals = [ConnectionError("still down")] * 2
    window = {}

    def dial(location, service):
        window.setdefault("backoff_from", clock.now)
        if refusals:
            raise refusals.pop()
        window["backoff_until"] = clock.now
        return harness.world.connector(location, service)

    victim.enable_reconnect(dial)
    clock.call_at(clock.now + 0.010, victim.pipe.raw.close)
    completions = []
    run_op = harness._run_op

    def logged_op(session, stream, report):
        ok = yield from run_op(session, stream, report)
        if ok and session is not victim:
            completions.append(clock.now)
        return ok

    harness._run_op = logged_op
    report = harness.run_closed_loop()
    assert report.ops_completed == 3 * 12
    assert report.op_errors == 0
    assert victim.reconnects == 1 and victim.backoff_sleeps == 2
    during_backoff = [t for t in completions
                      if window["backoff_from"] < t < window["backoff_until"]]
    assert during_backoff, "nobody else ran while the victim backed off"



def test_crash_with_a_readahead_window_in_flight_fails_over():
    """The server dies with several READV prefetches on the wire: they
    are speculative, so nobody replays them; the read that was waiting
    for one falls back to a plain READ, which fails over and replays.
    Every byte is right and no call is left pending on either peer."""
    from repro.sim.network import NetworkParameters

    world = World(seed=SEED)
    world.lan_params = NetworkParameters.wan()
    world.enable_pipelining(depth=8, seed=SEED)
    server = world.add_server("crashy.example.com")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    name = f"{path}/home/alice/big"
    data = bytes(range(256)) * 32 * 64        # 64 x 8 KB
    proc.write_file(name, data)               # committed by the close

    fd = proc.open(name)
    assert proc.read(fd, 2 * 8192) == data[:2 * 8192]   # the window opens
    mount = mount_of(client, path)
    old_peer = mount.session.peer
    assert mount._ra_in_flight >= 2
    world.clock.call_at(world.clock.now + 0.001, server.crash)
    server.schedule_restart(world.clock.now + 0.5)
    assert proc.read(fd, len(data)) == data[2 * 8192:]
    proc.close(fd)

    session = mount.session
    assert session.reconnects == 1
    assert mount.replayed_calls >= 1
    assert world.metrics.counter("client.readahead.abandoned").value >= 2
    assert mount._ra_in_flight == 0
    for peer in (old_peer, session.peer):
        assert not peer._call_futures and not peer._speculative
    assert world.metrics.counter("client.readahead.hits").value > 32
