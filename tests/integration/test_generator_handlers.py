"""Handlers that yield: sfscd and sfssd relay by ``yield from``.

A relay handler is a generator the serving peer steps like any task, so
no handler on the read-write path waits for its next hop inside the
clock timer that delivered its call — and two relays can be in flight
on one export at once, each carrying its originator with its call.
"""

import math

import pytest

from repro.core.keyneg import EphemeralKeyCache
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.world import World
from repro.load.harness import dial, resolve_task, seed_file
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.rpc.peer import RpcPeer
from repro.sim.clock import Clock
from repro.sim.network import NetworkParameters
from repro.sim.sched import Sleep


def _nested_waits(monkeypatch) -> list[str]:
    """Names of the peers that wait for a reply (or sleep) from inside a
    clock timer callback — a handler driving a nested wait."""
    firing = [0]
    nested: list[str] = []
    fire_due = Clock._fire_due

    def counted_fire_due(clock, now):
        firing[0] += 1
        try:
            fire_due(clock, now)
        finally:
            firing[0] -= 1

    def watch(method):
        def watched(peer, *args):
            if firing[0]:
                nested.append(peer.name)
            return method(peer, *args)
        return watched

    monkeypatch.setattr(Clock, "_fire_due", counted_fire_due)
    monkeypatch.setattr(RpcPeer, "wait_for", watch(RpcPeer.wait_for))
    monkeypatch.setattr(RpcPeer, "_sleep_sync", watch(RpcPeer._sleep_sync))
    return nested


@pytest.mark.parametrize("depth", [1, 8])
def test_read_write_path_never_waits_inside_a_timer(monkeypatch, depth):
    """Automount, LOGIN, a write, a read (through readahead at depth 8
    over a WAN), a stat and an unlink: every wait is the system call's
    own, at top level."""
    nested = _nested_waits(monkeypatch)
    world = World(seed=7)
    if depth > 1:
        world.lan_params = NetworkParameters.wan()
        world.enable_pipelining(depth=depth)
    server = world.add_server("rw.example.com")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    name = f"{path}/home/alice/f"
    data = bytes(range(256)) * 1024
    proc.write_file(name, data)
    assert proc.read_file(name) == data
    assert proc.stat(name).uid == 1000          # logged in, not anonymous
    proc.unlink(name)
    if depth > 1:
        counts = world.metrics.snapshot()["metrics"]
        assert counts["client.readahead.waits"] > 0
    assert nested == []


def test_two_relays_in_flight_each_invalidate_the_other():
    """Two sessions hold leases on two files, and each WRITEs its own
    file at the same instant.  Both relays are in flight at sfssd
    together; each write calls back the *other* lessee, before that
    one's reply, and neither writer hears of its own write.  The links
    charge no per-byte time: both sessions share the server's NIC, which
    would otherwise put one WRITE a transmission time behind the other."""
    world = World(seed=11)
    world.lan_params = NetworkParameters(bandwidth=math.inf)
    server = world.add_server("lease.example.com")
    path = server.export_fs(lease_duration=1000.0)
    seed_file(server.fs, "/one", b"v0" * 256)
    seed_file(server.fs, "/two", b"v0" * 256)
    keys = EphemeralKeyCache(world.rng)
    first, second = dial(world, path, keys), dial(world, path, keys)
    handles = first.peer.drive(resolve_task(first, ["one", "two"]))
    for session in (first, second):
        for handle in handles:
            status, _body = session.call_nfs(
                nfs_const.NFSPROC3_GETATTR,
                nfs_types.GetAttrArgs.make(object=handle), authno=0)
            assert status == nfs_const.NFS3_OK
    heard = {first: [], second: []}
    for session in (first, second):
        session.invalidate_handler = heard[session].append

    def write(session, handle):
        data = b"x" * 64
        status, _body = yield from session.call_nfs_task(
            nfs_const.NFSPROC3_WRITE,
            nfs_types.WriteArgs.make(file=handle, offset=0, count=len(data),
                                     stable=nfs_const.UNSTABLE, data=data),
            authno=0)
        assert status == nfs_const.NFS3_OK
        heard[session].append("reply")

    def linger():
        yield Sleep(0.05)       # let any later callback land

    writes = [session.peer.start(write(session, handle))
              for session, handle in zip(heard, handles)]
    for done in writes:
        first.peer.wait_for(done)
        assert done.value is None
    first.peer.drive(linger())
    one, two = handles
    assert heard == {first: [two, "reply"], second: [one, "reply"]}


@pytest.mark.parametrize("leased", [False, True])
def test_a_reply_overtaken_by_another_write_is_called_back(leased):
    """One session's GETATTR and another's UNSTABLE WRITE to the same
    file reach a queued export in the same instant (the links charge no
    per-byte time).  Two workers relay them at once: the GETATTR executes
    first and is answered after the write, so its attributes are stale
    the moment they are cached.  Whether or not the reader already held
    a lease, it must not end up holding them — the server calls it back
    after that reply."""
    world = World(seed=11)
    world.lan_params = NetworkParameters(bandwidth=math.inf)
    server = world.add_server("lease.example.com")
    server.master.request_queue.configure(workers=2)
    path = server.export_fs(lease_duration=1000.0)
    seed_file(server.fs, "/shared", b"v0" * 256)
    keys = EphemeralKeyCache(world.rng)
    reader, writer = dial(world, path, keys), dial(world, path, keys)
    handle, = reader.peer.drive(resolve_task(reader, ["shared"]))
    cached = {}                     # the reader's attribute cache
    reader.invalidate_handler = lambda dropped: cached.pop(dropped, None)

    def read_attributes():
        status, body = yield from reader.call_nfs_task(
            nfs_const.NFSPROC3_GETATTR,
            nfs_types.GetAttrArgs.make(object=handle), authno=0)
        assert status == nfs_const.NFS3_OK
        cached[handle] = body.obj_attributes

    def linger():
        yield Sleep(0.05)       # let any callback reach the reader

    if leased:
        reader.peer.drive(read_attributes())
    data = b"x" * 64
    read = reader.peer.start(read_attributes())
    write = writer.peer.start(writer.call_nfs_task(
        nfs_const.NFSPROC3_WRITE,
        nfs_types.WriteArgs.make(file=handle, offset=512, count=len(data),
                                 stable=nfs_const.UNSTABLE, data=data),
        authno=0))
    reader.peer.wait_for(read)
    writer.peer.wait_for(write)
    assert read.value is None and write.value[0] == nfs_const.NFS3_OK
    reader.peer.drive(linger())
    assert cached.get(handle) is None or cached[handle].size == 512 + 64
