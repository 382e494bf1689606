"""Lease caching and server invalidation callbacks (paper section 3.3)."""

import errno
import random

import pytest

from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.world import World
from repro.sim.network import NetworkParameters


@pytest.fixture
def two_clients():
    return _two_clients()


def _two_clients(pipeline_depth=1):
    world = World(seed=61)
    if pipeline_depth > 1:
        world.enable_pipelining(depth=pipeline_depth)
    server = world.add_server("cache.example.com")
    path = server.export_fs(lease_duration=1000.0)
    work = pathops.mkdirs(server.fs, "/shared")
    server.fs.setattr(work.ino, Cred(0, 0), mode=0o777)
    c1 = world.add_client("c1")
    c1.new_agent("u", 1000)
    p1 = c1.process(uid=1000)
    c2 = world.add_client("c2")
    c2.new_agent("u", 1000)
    p2 = c2.process(uid=1000)
    return world, server, path, c1, p1, c2, p2


def _mount_of(client, path):
    return client.sfscd._mounts[path.hostid]


def test_attribute_cache_absorbs_repeat_stats(two_clients):
    _world, _server, path, c1, p1, _c2, _p2 = two_clients
    p1.write_file(f"{path}/shared/f", b"data")
    mount = _mount_of(c1, path)
    before = mount.rpcs_relayed
    for _ in range(10):
        p1.stat(f"{path}/shared/f")
    absorbed = mount.caches.attrs.hits + mount.caches.lookups.hits
    assert absorbed > 0
    # Far fewer wire RPCs than the 10 stats would naively need.
    assert mount.rpcs_relayed - before < 10


def test_invalidation_callback_on_remote_write(two_clients):
    """When client 2 writes, the server calls back to client 1 (which
    has a lease) without waiting for acknowledgment."""
    _world, server, path, c1, p1, _c2, p2 = two_clients
    p1.write_file(f"{path}/shared/f", b"version 1")
    p1.stat(f"{path}/shared/f")  # c1 now caches attributes
    mount1 = _mount_of(c1, path)
    invalidations_before = mount1.caches.attrs.invalidations

    p2.write_file(f"{path}/shared/f", b"version 2 is longer")

    connection_count = len(server.master.rw_export(path.hostid).connections)
    assert connection_count == 2
    sent = sum(
        conn.invalidations_sent
        for conn in server.master.rw_export(path.hostid).connections
    )
    assert sent > 0, "server must have issued callbacks"
    # And client 1 sees fresh data + fresh attributes immediately.
    assert p1.read_file(f"{path}/shared/f") == b"version 2 is longer"
    assert p1.stat(f"{path}/shared/f").size == 19


@pytest.mark.parametrize("pipeline_depth", [1, 8])
def test_truncating_create_invalidates_the_file_lease(pipeline_depth):
    """``open(f, "w")`` truncates by name, inside CREATE: the server
    must call back whoever holds a lease on the *file*, not only on the
    directory, and at depth 8 their readahead chunks must go too."""
    _world, server, path, c1, p1, _c2, p2 = _two_clients(pipeline_depth)
    name = f"{path}/shared/f"
    p1.write_file(name, bytes(range(256)) * 256)  # 64 KB, c1 joins first
    assert p1.stat(name).size == 65536            # c1 takes the lease
    mount1 = _mount_of(c1, path)
    fd = p1.open(name)
    assert len(p1.read(fd, 3 * 8192)) == 3 * 8192
    holding_readahead = bool(mount1._ra_streams)
    assert holding_readahead == (pipeline_depth > 1)
    c1_connection = next(iter(server.master.rw_export(path.hostid).connections))
    sent_before = c1_connection.invalidations_sent

    p2.close(p2.open(name, "w"))

    assert c1_connection.invalidations_sent > sent_before
    assert not mount1._ra_streams
    assert p1.stat(name).size == 0
    assert p1.read_file(name) == b""
    assert p1.read(fd, 8192) == b""  # not a prefetched chunk of the old file
    p1.close(fd)


def test_create_that_changes_an_existing_file_notifies_its_lessees(two_clients):
    """An UNCHECKED CREATE over an existing file applies its sattr3;
    lessees of the file hear about it, as they would for a SETATTR."""
    _world, _server, path, _c1, p1, _c2, p2 = two_clients
    name = f"{path}/shared/m"
    p1.write_file(name, b"x", mode=0o644)
    fd = p1.open(name)
    assert p1.fstat_fd(fd).mode == 0o644  # c1 takes the lease
    p2.close(p2.open(name, "a", mode=0o600))
    # By handle, not by name: the directory's invalidation (which CREATE
    # always sent) refreshes a path walk, never an open descriptor.
    assert p1.fstat_fd(fd).mode == 0o600
    assert p1.stat(name).mode == 0o600
    p1.close(fd)


def test_close_raises_when_the_flush_fails(two_clients):
    """"Flush on close" that fails must say so: the data is gone."""
    _world, server, path, _c1, p1, _c2, _p2 = two_clients
    fd = p1.open(f"{path}/shared/doomed", "w")
    p1.write(fd, b"never durable")
    shared = pathops.resolve(server.fs, "/shared")
    server.fs.remove(shared.ino, "doomed", Cred(0, 0))
    with pytest.raises(OSError) as stale:
        p1.close(fd)
    assert stale.value.errno == errno.ESTALE
    with pytest.raises(OSError) as gone:  # the descriptor went regardless
        p1.close(fd)
    assert gone.value.errno == errno.EBADF


def test_fanout_looks_only_at_the_lessees(monkeypatch):
    """A mutation costs what its lease holders cost, not what the
    server's connection count costs: with 50 sessions and one lessee,
    exactly one connection is examined and called back."""
    from repro.core.server import ServerConnection
    from repro.load import LoadConfig, LoadHarness
    from repro.nfs3 import const as nfs_const
    from repro.nfs3 import types as nfs_types

    harness = LoadHarness(LoadConfig(clients=50, seed=9))
    export = harness.server.master.rw_export(harness.path.hostid)
    assert len(export.connections) == 50
    # Session 0 looked every file up while the harness was built, so it
    # is the one lessee of each; session 7 now writes one of them.
    lessee = next(iter(export.connections))
    examined = []
    alive = ServerConnection.alive
    monkeypatch.setattr(
        ServerConnection, "alive",
        property(lambda self: examined.append(self) or alive.fget(self)))
    data = b"x" * 512
    status, _body = harness.sessions[7].call_nfs(
        nfs_const.NFSPROC3_WRITE,
        nfs_types.WriteArgs.make(file=harness.handles[3], offset=0,
                                 count=len(data),
                                 stable=nfs_const.UNSTABLE, data=data),
        authno=0,
    )
    assert status == nfs_const.NFS3_OK
    assert examined == [lessee]
    assert [c.invalidations_sent for c in export.connections] \
        == [1] + [0] * 49


def test_fanout_order_is_admission_order_not_lease_order(two_clients):
    """Invalidations go out in the order the lessees joined the export,
    whatever order they took their leases in — the order every seed's
    interleaving was recorded with."""
    world, server, path, _c1, p1, _c2, p2 = two_clients
    c3 = world.add_client("c3")
    c3.new_agent("u", 1000)
    p3 = c3.process(uid=1000)
    for proc in (p1, p2, p3):        # automount, in this order
        proc.stat(f"{path}/shared")
    p3.write_file(f"{path}/shared/h", b"v1")
    export = server.master.rw_export(path.hostid)
    first, second, writer = export.connections
    # Leases taken in the reverse of admission order.
    p2.stat(f"{path}/shared/h")
    p1.stat(f"{path}/shared/h")
    sent = []

    def spy_on(connection):
        send = connection.send_invalidate

        def send_invalidate(handle):
            sent.append(connection)
            send(handle)
        connection.send_invalidate = send_invalidate

    for connection in (first, second, writer):
        spy_on(connection)
    p3.write_file(f"{path}/shared/h", b"v2 is longer")
    assert sent[:2] == [first, second]
    assert writer not in sent


def test_leases_expire_with_clock(two_clients):
    world, _server, path, c1, p1, _c2, _p2 = two_clients
    p1.write_file(f"{path}/shared/g", b"x")
    p1.stat(f"{path}/shared/g")
    fd = p1.open(f"{path}/shared/g")
    caches = _mount_of(c1, path).caches
    lookup_hits, attr_hits = caches.lookups.hits, caches.attrs.hits
    p1.stat(f"{path}/shared/g")
    p1.fstat_fd(fd)
    assert caches.lookups.hits > lookup_hits  # the walk is served locally
    assert caches.attrs.hits > attr_hits      # and so is GETATTR
    world.clock.advance(2000.0)  # beyond the lease
    lookup_misses, attr_misses = caches.lookups.misses, caches.attrs.misses
    p1.fstat_fd(fd)
    assert caches.attrs.misses > attr_misses      # lease expired
    p1.stat(f"{path}/shared/g")
    assert caches.lookups.misses > lookup_misses  # for names too
    p1.close(fd)


def test_local_writes_invalidate_own_cache(two_clients):
    _world, _server, path, c1, p1, _c2, _p2 = two_clients
    p1.write_file(f"{path}/shared/h", b"short")
    assert p1.stat(f"{path}/shared/h").size == 5
    p1.write_file(f"{path}/shared/h", b"much longer contents")
    assert p1.stat(f"{path}/shared/h").size == 20


def test_caching_disabled_goes_to_server_every_time():
    world = World(seed=62)
    server = world.add_server("nocache.example.com")
    path = server.export_fs()
    work = pathops.mkdirs(server.fs, "/w")
    server.fs.setattr(work.ino, Cred(0, 0), mode=0o777)
    client = world.add_client("c", caching=False)
    client.new_agent("u", 1000)
    proc = client.process(uid=1000)
    proc.write_file(f"{path}/w/f", b"1")
    mount = client.sfscd._mounts[path.hostid]
    before = mount.rpcs_relayed
    for _ in range(5):
        proc.stat(f"{path}/w/f")
    assert mount.caches.attrs.hits == 0
    assert mount.rpcs_relayed - before >= 5


def test_access_cache_is_per_uid(two_clients):
    _world, _server, path, c1, p1, c2, _p2 = two_clients
    p1.write_file(f"{path}/shared/k", b"x")
    mount = _mount_of(c1, path)
    p1.access(f"{path}/shared/k", 0x1)
    hits_before = mount.caches.access.hits
    p1.access(f"{path}/shared/k", 0x1)
    assert mount.caches.access.hits > hits_before
    # A different uid's identical access query is a separate entry.
    c1.new_agent("v", 2000)
    other = c1.process(uid=2000)
    misses_before = mount.caches.access.misses
    other.access(f"{path}/shared/k", 0x1)
    assert mount.caches.access.misses > misses_before


# --- readahead under leases (pipeline depth 8) -------------------------------

CHUNK = 8192


def test_remote_write_drops_prefetches_still_on_the_wire():
    """Client 2 writes while one of client 1's READVs is still crossing
    a slow link: the INVALIDATE reaches client 1 ahead of that READV's
    reply, which then belongs to a discarded stream and is dropped —
    nothing read ahead outlives the callback."""
    world, _server, path, c1, p1, _c2, p2 = _two_clients(pipeline_depth=8)
    name = f"{path}/shared/big"
    old = random.Random(61).randbytes(64 * CHUNK)
    lan, world.lan_params = world.lan_params, NetworkParameters.wan()
    p1.write_file(name, old)           # c1 dials over the WAN ...
    world.lan_params = lan
    assert p2.stat(name).size == len(old)  # ... c2 over the LAN
    reader = p1.open(name)
    at = 2 * CHUNK
    assert p1.read(reader, at) == old[:at]  # the window opens
    world.clock.advance(0.5)           # and every READV of it lands
    mount1 = _mount_of(c1, path)
    (stream,) = mount1._ra_streams.values()
    assert not stream.pending
    while not stream.pending:          # read on until a top-up goes out
        assert p1.read(reader, CHUNK) == old[at:at + CHUNK]
        at += CHUNK
    target = max(stream.pending)       # requested, 20 ms from the server
    fresh = bytes(CHUNK)
    writer = p2.open(name)
    p2.lseek(writer, target)
    p2.write(writer, fresh, sync=True)  # gets there first
    p2.close(writer)
    expected = old[:target] + fresh + old[target + CHUNK:]
    assert p1.read(reader, len(old)) == expected[at:]
    assert world.metrics.counter("client.readahead.stale_replies").value >= 1
    assert stream.pending == {} and mount1._ra_in_flight == 0
    assert mount1._ra_streams[next(iter(mount1._ra_streams))] is not stream
    p1.close(reader)


def test_buffered_chunks_do_not_outlive_the_lease():
    """Invalidations are one-way and best-effort; a chunk read ahead is
    vouched for by the lease it arrived under and no longer."""
    world, _server, path, c1, p1, _c2, _p2 = _two_clients(pipeline_depth=8)
    name = f"{path}/shared/big"
    data = random.Random(62).randbytes(32 * CHUNK)
    p1.write_file(name, data)
    fd = p1.open(name)
    assert p1.read(fd, 3 * CHUNK) == data[:3 * CHUNK]
    (stream,) = _mount_of(c1, path)._ra_streams.values()
    assert stream.chunks               # chunk 3 onwards, buffered
    hit_count = world.metrics.counter("client.readahead.hits")
    discard_count = world.metrics.counter("client.readahead.discarded")
    hits, discarded = hit_count.value, discard_count.value
    world.clock.advance(2000.0)        # beyond the 1,000 s lease
    assert p1.read(fd, CHUNK) == data[3 * CHUNK:4 * CHUNK]
    assert hit_count.value == hits
    assert discard_count.value == discarded + 1
    assert p1.read(fd, len(data)) == data[4 * CHUNK:]
    p1.close(fd)
