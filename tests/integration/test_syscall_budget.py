"""Every syscall's budget of NFS calls and synchronous disk writes.

The paper's small-file result is an attribution: create and unlink are
"almost completely dominated by synchronous writes to the disk".  That
only reproduces if the kernel NFS client asks for nothing it will not
use, so the budget is pinned here, per syscall and exactly, on a warm
SFS mount and on plain NFS 3 over UDP: kernel RPCs by procedure (the
``rpc.peer.kernel:*`` call families), RPCs sfscd relayed to the server
(``client.rpcs_relayed``) and synchronous disk writes (``disk.syncs``).
"""

import ast
import errno
from collections import Counter

import pytest

from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.nfs3 import const as nfs_const
from repro.sim.network import NetworkParameters

NFS_MOUNT = "/mnt/nfs"


@pytest.fixture(scope="module")
def machines():
    """One server exported twice to one client: over SFS, and over
    NFS/UDP at a mount point as deep as the self-certifying one, so the
    same path shape costs the same walk in both configurations."""
    world = World(seed=2026)
    server = world.add_server("sfs.lcs.mit.edu")
    sfs = str(server.export_fs())
    alice = server.add_user("alice", uid=1000)
    work = pathops.mkdirs(server.fs, "/work")
    server.fs.setattr(work.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    client.mount_nfs(NFS_MOUNT, server, params=NetworkParameters.nfs_udp())
    proc = client.login_user("alice", alice.key, uid=1000)
    # Warm: automount, log in, take the leases the walks below sit on.
    proc.write_file(f"{sfs}/work/warm", b"w")
    proc.stat(f"{sfs}/work/warm")
    return world, server, proc, sfs


@pytest.fixture(params=["sfs", "nfs-udp"])
def mounted(request, machines):
    """(world, server, proc, mount root, is_sfs) for each configuration;
    every test gets file names of its own under ``<root>/work``."""
    world, server, proc, sfs = machines
    is_sfs = request.param == "sfs"
    return world, server, proc, sfs if is_sfs else NFS_MOUNT, is_sfs


def spent(world, syscall):
    """Run *syscall*; return what it cost as (kernel RPCs by procedure
    name, RPCs relayed by sfscd, synchronous disk writes)."""
    def books():
        metrics = world.metrics.snapshot()["metrics"]
        calls = Counter()
        for name, family in metrics.items():
            if name.startswith("rpc.peer.kernel:"):
                for key, count in family["values"].items():
                    prog, proc = ast.literal_eval(key)  # "(100003, 3)"
                    if prog == nfs_const.NFS3_PROGRAM:  # not MOUNT's MNT
                        calls[nfs_const.PROC_NAMES[proc]] += count
        return calls, metrics["client.rpcs_relayed"], metrics["disk.syncs"]

    calls0, relayed0, syncs0 = books()
    syscall()
    calls1, relayed1, syncs1 = books()
    return dict(calls1 - calls0), relayed1 - relayed0, syncs1 - syncs0


def test_small_file_life_cycle_budget(mounted):
    """The five smallfile phases, in order, each at its exact price."""
    world, _server, proc, root, is_sfs = mounted
    name = f"{root}/work/life"
    data = b"x" * 1000

    def relayed(count):
        return count if is_sfs else 0

    assert spent(world, lambda: proc.write_file(name, data)) == (
        {"LOOKUP": 3, "CREATE": 1, "WRITE": 1, "COMMIT": 1}, relayed(3), 2)
    # sfscd's own CREATE put the new name in its lookup cache, and the
    # WRITE reply its attributes: the first stat relays nothing either.
    assert spent(world, lambda: proc.stat(name)) == ({"LOOKUP": 4}, 0, 0)
    assert spent(world, lambda: proc.stat(name)) == ({"LOOKUP": 4}, 0, 0)
    assert spent(world, lambda: proc.read_file(name)) == (
        {"LOOKUP": 4, "ACCESS": 1, "READ": 1}, relayed(2), 0)

    def chown_denied():
        with pytest.raises(KernelError) as denied:
            proc.chown(name, 0)
        assert denied.value.errno == errno.EPERM

    assert spent(world, chown_denied) == (
        {"LOOKUP": 4, "SETATTR": 1}, relayed(1), 0)
    assert spent(world, lambda: proc.unlink(name)) == (
        {"LOOKUP": 3, "REMOVE": 1}, relayed(1), 1)


def test_mkdir_budget(mounted):
    world, _server, proc, root, is_sfs = mounted
    assert spent(world, lambda: proc.mkdir(f"{root}/work/dir")) == (
        {"LOOKUP": 3, "MKDIR": 1}, 1 if is_sfs else 0, 1)
    proc.rmdir(f"{root}/work/dir")


def test_open_w_over_existing_file_truncates_inside_create(mounted):
    """O_TRUNC of a non-empty file: still one CREATE, no SETATTR call,
    and exactly one metadata write — the server-side truncation."""
    world, _server, proc, root, is_sfs = mounted
    name = f"{root}/work/again"
    proc.write_file(name, b"not empty")
    proc.stat(name)

    def reopen():
        proc.close(proc.open(name, "w"))

    assert spent(world, reopen) == (
        {"LOOKUP": 3, "CREATE": 1}, 1 if is_sfs else 0, 1)
    assert proc.stat(name).size == 0
    assert proc.read_file(name) == b""
    proc.unlink(name)


def test_commit_only_for_unstable_bytes(mounted):
    """close()/fsync() COMMIT the file's outstanding UNSTABLE bytes and
    nothing else: no second flush after fsync or a FILE_SYNC write."""
    world, _server, proc, root, _is_sfs = mounted
    name = f"{root}/work/flush"

    def fsync_then_close():
        fd = proc.open(name, "w")
        proc.write(fd, b"a" * 100)
        proc.fsync(fd)
        proc.fsync(fd)
        proc.close(fd)

    calls, _relayed, syncs = spent(world, fsync_then_close)
    assert calls == {"LOOKUP": 3, "CREATE": 1, "WRITE": 1, "COMMIT": 1}
    assert syncs == 2  # the new inode, one flush

    def sync_write_then_close():
        fd = proc.open(name, "w")
        proc.write(fd, b"b" * 100, sync=True)
        proc.close(fd)

    calls, _relayed, syncs = spent(world, sync_write_then_close)
    assert calls == {"LOOKUP": 3, "CREATE": 1, "WRITE": 1}
    assert syncs == 2  # the truncation, the FILE_SYNC write
    assert proc.read_file(name) == b"b" * 100
    proc.unlink(name)


def test_any_descriptor_flushes_the_files_unstable_bytes(mounted):
    """Dirty state is the file's: fsync through a second descriptor,
    opened after the writer, still owes (and sends) the COMMIT."""
    world, _server, proc, root, _is_sfs = mounted
    name = f"{root}/work/shared"
    writer = proc.open(name, "w")
    proc.write(writer, b"c" * 100)
    reader = proc.open(name, "r")

    calls, _relayed, syncs = spent(world, lambda: proc.fsync(reader))
    assert calls == {"COMMIT": 1} and syncs == 1
    # ... and then neither descriptor has anything left to flush.
    calls, _relayed, syncs = spent(
        world, lambda: (proc.close(writer), proc.close(reader)))
    assert calls == {} and syncs == 0
    assert proc.read_file(name) == b"c" * 100

    # A close told not to flush leaves the debt with the file, for the
    # next descriptor that is asked to.
    writer = proc.open(name, "a")
    proc.write(writer, b"d")
    proc.close(writer, sync_on_close=False)
    later = proc.open(name, "r")
    calls, _relayed, syncs = spent(world, lambda: proc.fsync(later))
    assert calls == {"COMMIT": 1} and syncs == 1
    proc.close(later)
    proc.unlink(name)


def test_exclusive_create_and_append_budget(mounted):
    world, _server, proc, root, _is_sfs = mounted
    name = f"{root}/work/excl"

    def create_exclusive():
        proc.close(proc.open(name, "wx"))

    # EXCLUSIVE guarantees the file is new: nothing to truncate.
    calls, _relayed, syncs = spent(world, create_exclusive)
    assert calls == {"LOOKUP": 3, "CREATE": 1} and syncs == 1
    with pytest.raises(KernelError) as exists:
        proc.open(name, "wx")
    assert exists.value.errno == errno.EEXIST

    def append():
        fd = proc.open(name, "a")
        proc.write(fd, b"tail")
        proc.close(fd)

    proc.write_file(name, b"head ")
    calls, _relayed, _syncs = spent(world, append)
    assert calls == {"LOOKUP": 3, "CREATE": 1, "GETATTR": 1, "WRITE": 1,
                     "COMMIT": 1}
    assert proc.read_file(name) == b"head tail"
    proc.unlink(name)


# --- path-walk edges lazy attributes must not change -------------------------


def test_walks_that_end_on_a_root_return_real_attributes(machines):
    """"/" and mount roots carry no attributes during a walk; a walk
    that *ends* there fetches them."""
    _world, server, proc, sfs = machines
    for path in ("/", "/sfs", sfs, NFS_MOUNT):
        st = proc.stat(path)
        assert st.is_dir and st.nlink >= 2, path
        assert proc.lstat(path) == st, path
    exported_root = server.fs.get_inode(server.fs.root_ino)
    for path in (sfs, NFS_MOUNT):
        assert proc.stat(path).fileid == exported_root.ino
        assert proc.stat(path).mode == exported_root.mode
    # Each mount is its own device, and none of them is "/"'s.
    devices = {proc.stat(path).fsid for path in ("/", "/sfs", sfs)}
    assert len(devices) == 3
    assert sorted(proc.readdir(NFS_MOUNT)) == sorted(proc.readdir(sfs))


def test_file_as_directory_is_enotdir(mounted):
    _world, _server, proc, root, _is_sfs = mounted
    proc.write_file(f"{root}/work/plain", b"f")
    for path in (f"{root}/work/plain/x", f"{root}/work/plain/x/y"):
        with pytest.raises(KernelError) as notdir:
            proc.stat(path)
        assert notdir.value.errno == errno.ENOTDIR
    with pytest.raises(KernelError) as notdir:
        proc.write_file(f"{root}/work/plain/x", b"")
    assert notdir.value.errno == errno.ENOTDIR
    proc.unlink(f"{root}/work/plain")


def test_dotdot_across_two_mounts(machines):
    _world, _server, proc, sfs = machines
    assert proc.stat(f"{sfs}/work/../..") == proc.stat("/sfs")
    assert proc.stat(f"{sfs}/work/../../..") == proc.stat("/")
    assert proc.stat(f"{sfs}/work/../../../../..") == proc.stat("/")
    # Down one mount chain, up through both, down the other.
    assert (proc.stat(f"{sfs}/work/../../..{NFS_MOUNT}/work")
            == proc.stat(f"{NFS_MOUNT}/work"))
    assert (proc.stat(f"{NFS_MOUNT}/work/../../..{sfs}/work/warm")
            == proc.stat(f"{sfs}/work/warm"))


def test_symlink_whose_target_is_a_mount_point(machines):
    _world, _server, proc, sfs = machines
    link = f"{sfs}/work/to-nfs"
    proc.symlink(NFS_MOUNT, link)
    assert proc.lstat(link).is_symlink
    assert proc.stat(link) == proc.stat(NFS_MOUNT)       # ends on the root
    assert proc.stat(f"{link}/work/warm") == proc.stat(  # walks through it
        f"{NFS_MOUNT}/work/warm")
    assert proc.read_file(f"{link}/work/warm") == b"w"
    assert proc.realpath(f"{link}/work") == f"{NFS_MOUNT}/work"
    proc.unlink(link)


def test_chdir_and_realpath_under_sfs(machines):
    _world, _server, proc, sfs = machines
    proc.chdir(f"{sfs}/work")
    try:
        assert proc.getcwd() == f"{sfs}/work"
        assert proc.realpath("warm") == f"{sfs}/work/warm"
        assert proc.realpath("..") == sfs
        assert proc.stat("warm") == proc.stat(f"{sfs}/work/warm")
        proc.chdir("..")
        assert proc.getcwd() == sfs
        with pytest.raises(KernelError) as notdir:
            proc.chdir("work/warm")
        assert notdir.value.errno == errno.ENOTDIR
    finally:
        proc.chdir("/")
