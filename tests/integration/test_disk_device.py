"""The disk is a device: a request occupies one machine's disk arm, and
the NFS call that made it waits for it before replying.

Nothing stalls the clock, so a seek on one server leaves every other
machine running, and two requests on one disk queue one behind the
other, each call replying when its own request is done.
"""

import pytest

from repro.fs import pathops
from repro.fs.memfs import BufferCache
from repro.kernel.world import World
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.nfs3.handles import PlainHandles
from tests.helpers import settle

#: One random access of the IBM 18ES model: average seek plus half a
#: rotation, the whole cost of a COMMIT of an empty file.
SEEK = 0.0065 + 0.003


def _local_nfs(server, path):
    """*server*'s local NFS server and the loopback client sfssd relays
    through, on the World's clock."""
    export = server.master.rw_export(path.hostid)
    return export.nfs_server, export.nfs_client.peer


def _handle(server, nfsd, name):
    inode = pathops.write_file(server.fs, f"/{name}", b"")
    return PlainHandles().encode(nfsd.fs.fsid, inode.ino, inode.generation)


def _start(peer, proc, args, finished, label):
    """Send one NFS3 call now; note when its reply lands."""
    arg_codec, res_codec = nfs_types.PROC_CODECS[proc]
    done = peer.start(peer.call_task(
        nfs_const.NFS3_PROGRAM, nfs_const.NFS3_VERSION, proc,
        arg_codec, args, res_codec))
    clock = peer.backoff_clock
    done.add_done_callback(
        lambda done: finished.append((label, clock.now, done.value[0])))


def test_a_seek_on_one_server_does_not_delay_another():
    """A COMMIT's seek occupies server A's disk; a GETATTR that reaches
    server B in the same instant is answered at once."""
    world = World(seed=3)
    a = world.add_server("a.example.com")
    b = world.add_server("b.example.com")
    nfsd_a, peer_a = _local_nfs(a, a.export_fs())
    nfsd_b, peer_b = _local_nfs(b, b.export_fs())
    file_a = _handle(a, nfsd_a, "a")
    file_b = _handle(b, nfsd_b, "b")
    start = world.clock.now
    finished = []
    _start(peer_a, nfs_const.NFSPROC3_COMMIT,
           nfs_types.CommitArgs.make(file=file_a, offset=0, count=0),
           finished, "commit on A")
    _start(peer_b, nfs_const.NFSPROC3_GETATTR,
           nfs_types.GetAttrArgs.make(object=file_b),
           finished, "getattr on B")
    settle(world.clock)
    assert [(label, status) for label, _t, status in finished] == [
        ("getattr on B", nfs_const.NFS3_OK),
        ("commit on A", nfs_const.NFS3_OK),
    ]
    assert finished[0][1] == start
    assert finished[1][1] == pytest.approx(start + SEEK)
    # The op_seconds histogram holds each call's virtual time from
    # dispatch to reply: the disk wait, and nothing for the GETATTR.
    seconds = world.metrics.histogram("nfs3.op_seconds")
    assert seconds.count == 2
    assert seconds.sum == pytest.approx(SEEK)


def test_two_syncs_on_one_disk_queue_one_behind_the_other():
    """Two COMMITs reach one server in the same instant: the first is
    answered when its seek is done, the second after its own seek,
    queued behind the first."""
    world = World(seed=3)
    server = world.add_server("disk.example.com")
    nfsd, peer = _local_nfs(server, server.export_fs())
    handles = [_handle(server, nfsd, name) for name in ("one", "two")]
    start = world.clock.now
    finished = []
    for name, handle in zip(("one", "two"), handles):
        _start(peer, nfs_const.NFSPROC3_COMMIT,
               nfs_types.CommitArgs.make(file=handle, offset=0, count=0),
               finished, name)
    settle(world.clock)
    assert [label for label, _t, _status in finished] == ["one", "two"]
    assert finished[0][1] == pytest.approx(start + SEEK)
    assert finished[1][1] == pytest.approx(start + 2 * SEEK)


def test_a_read_of_a_block_on_its_way_from_the_disk_waits_for_it():
    """Two READs of one block not in memory reach the server in the
    same instant: the first books the disk, the second finds the block
    in the buffer cache but still being read, and is answered with the
    first, not before it."""
    world = World(seed=3)
    server = world.add_server("disk.example.com")
    nfsd, peer = _local_nfs(server, server.export_fs())
    inode = pathops.write_file(server.fs, "/cold", b"c" * 8192)
    handle = PlainHandles().encode(nfsd.fs.fsid, inode.ino, inode.generation)
    server.fs.buffer_cache = BufferCache()      # evicted: the block is cold
    start = world.clock.now
    finished = []
    for name in ("first", "second"):
        _start(peer, nfs_const.NFSPROC3_READ,
               nfs_types.ReadArgs.make(file=handle, offset=0, count=8192),
               finished, name)
    settle(world.clock)
    read = SEEK + 8192 / server.fs.disk.params.transfer_rate
    assert [(label, status) for label, _t, status in finished] == [
        ("first", nfs_const.NFS3_OK), ("second", nfs_const.NFS3_OK)]
    assert [t for _label, t, _status in finished] == pytest.approx(
        [start + read, start + read])
    assert server.fs.disk.reads == 1
