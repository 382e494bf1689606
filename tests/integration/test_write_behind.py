"""Write-behind at depth 8 over a WAN (PROTOCOLS.md §17).

sfscd answers an UNSTABLE WRITE at once and sends a full gather buffer
as a background WRITEV.  What must hold, against a server whose two
queued workers run calls side by side:

* a write over bytes still on the wire goes out after them, so the
  later write is what reads back;
* a flush that fails is reported once, at the next barrier on its file
  (the ``fsync``/``close`` COMMIT), and never lost;
* dirty data is bounded: at most ``depth - 2`` background calls.

Each test runs at both pipeline-smoke seeds.
"""

import errno

import pytest

from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.sim.network import NetworkParameters

SEEDS = [2026, 31337]
DEPTH = 8
CHUNK = 8192
#: What fills one gather buffer at depth 8 (bytes for depth chunks).
BATCH = DEPTH * 65536


def _wan(seed):
    """alice on a depth-8 WAN mount of a server with two queued workers."""
    world = World(seed=seed)
    world.lan_params = NetworkParameters.wan()
    world.enable_pipelining(depth=DEPTH)
    server = world.add_server("behind.example.com")
    server.master.request_queue.configure(workers=2)
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.stat(f"{path}/home/alice")                  # mounted
    mount = client.sfscd._mounts[path.hostid]
    return world, server, f"{path}/home/alice", mount, proc


def _write(proc, fd, data):
    for at in range(0, len(data), CHUNK):
        proc.write(fd, data[at:at + CHUNK])


def _spy_on_flushes(mount):
    """Record, as each flush leaves, the byte ranges of its handle's
    flushes still on the wire and how many background calls are."""
    seen = []
    start = mount._flush_start

    def flush_start(handle, ctx):
        leaving = [(at, at + size)
                   for at, _parts, size in mount._gather_segs[handle]]
        on_wire = [r for f in mount._flushes.get(handle, ()) for r in f.ranges]
        seen.append((leaving, on_wire, len(mount._background)))
        return start(handle, ctx)

    mount._flush_start = flush_start
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_overlapping_writes_read_back_as_the_later_one(seed):
    """A gather buffer's worth of "a" leaves as a background WRITEV;
    "b" over part of it is written while that is on the wire.  The "b"
    bytes wait for the "a" flush to land, so the last writer wins
    whatever order the workers would run two WRITEVs in: no flush ever
    leaves beside one it overlaps, and the file reads back "b" where
    both wrote."""
    _world, _server, home, mount, proc = _wan(seed)
    seen = _spy_on_flushes(mount)
    name = f"{home}/overlap"
    fd = proc.open(name, "w")
    _write(proc, fd, b"a" * BATCH)                   # first flush leaves
    assert mount._flushes                            # ... and is on the wire
    proc.lseek(fd, CHUNK)
    _write(proc, fd, b"b" * 2 * CHUNK)               # over bytes on the wire
    proc.fsync(fd)
    proc.close(fd)
    assert len(seen) == 2
    for leaving, on_wire, _background in seen:
        assert not any(a < d and c < b
                       for a, b in leaving for c, d in on_wire)
    expected = b"a" * CHUNK + b"b" * 2 * CHUNK + b"a" * (BATCH - 3 * CHUNK)
    assert proc.read_file(name) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_a_failed_flush_is_reported_once_at_the_next_barrier(seed):
    """Another client removes the file while its background WRITEV is
    on the wire.  Every write() was answered already; the failure comes
    back as the fsync's error, from the barrier in front of the COMMIT,
    and that barrier is the only one that reports it."""
    world, server, home, mount, proc = _wan(seed)
    name = f"{home}/doomed"
    fd = proc.open(name, "w")
    _write(proc, fd, b"x" * BATCH)                   # the flush leaves ...
    assert mount._flushes
    home_ino = pathops.resolve(server.fs, "/home/alice").ino
    server.fs.remove(home_ino, "doomed", Cred(0, 0))  # ... at a dead file
    reported = []
    barrier = mount._write_barrier

    def write_barrier(handle, ctx):
        status = yield from barrier(handle, ctx)
        reported.append(status)
        return status

    mount._write_barrier = write_barrier
    commits = world.metrics.counter("client.rpcs_relayed").value
    with pytest.raises(KernelError) as failed:
        proc.fsync(fd)
    assert failed.value.errno == errno.ESTALE
    assert not mount._flushes and not mount._flush_errors
    # The barrier answered for the COMMIT, which never left ...
    assert world.metrics.counter("client.rpcs_relayed").value == commits + 1
    # ... and the close's COMMIT is the server's own ESTALE, not a
    # second report of the flush.
    with pytest.raises(KernelError) as closed:
        proc.close(fd)
    assert closed.value.errno == errno.ESTALE
    assert [status for status in reported if status is not None] \
        == [reported[0]] and reported[0] is not None


@pytest.mark.parametrize("seed", SEEDS)
def test_a_4_mb_write_holds_at_most_depth_minus_2_flushes(seed):
    """4 MB reaches sfscd far faster than 5 MB/s drains it: the writer
    waits for its oldest flush whenever depth - 2 background calls are
    on the wire, so no more than that ever are, and every byte lands."""
    _world, _server, home, mount, proc = _wan(seed)
    seen = _spy_on_flushes(mount)
    name = f"{home}/four"
    data = bytes(range(256)) * (4 * 1024 * 1024 // 256)
    fd = proc.open(name, "w")
    _write(proc, fd, data)
    proc.fsync(fd)
    proc.close(fd)
    before = [background for _leaving, _on_wire, background in seen]
    assert len(before) == len(data) // BATCH
    # The writer's flushes fill the cap, and never pass it: at most
    # depth - 3 are on the wire as a writer's flush leaves.
    assert max(before[:-1]) == DEPTH - 3
    assert not mount._background
    assert proc.read_file(name) == data
