"""Tests for the NFS3 server over MemFs, through real RPC, and for the
NFS 3 programs every daemon builds."""

import struct

import pytest

from repro.core import proto
from repro.core.readonly import publish
from repro.crypto.rabin import generate_key
from repro.fs.memfs import Cred, MemFs
from repro.fs import pathops
from repro.kernel.mounter import _stale_program
from repro.kernel.world import World
from repro.nfs3 import const, types
from repro.nfs3.client import Nfs3Error
from repro.nfs3.handles import EncryptedHandles
from repro.nfs3.server import Nfs3Server, authsys_cred_mapper
from repro.rpc.peer import CallContext, RpcPeer
from repro.rpc.rpcmsg import AuthSys, CallHeader, NULL_AUTH
from repro.rpc.xdr import RAW
from repro.sim.clock import Clock
from repro.sim.disk import Disk
from repro.sim.network import NetworkParameters, link_pair
from tests.helpers import SyncNfs3Client

ROOT = AuthSys(uid=0, gid=0)
ALICE = AuthSys(uid=1000, gid=100)


@pytest.fixture
def stack():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    fs = MemFs(fsid=9)
    server = Nfs3Server(fs)
    server_peer = RpcPeer(b, "nfsd")
    server_peer.register(server.program)
    client = SyncNfs3Client(RpcPeer(a, "kernel"), ROOT)
    return fs, server, client


def test_null(stack):
    _fs, _server, client = stack
    client.null()


def test_getattr_root(stack):
    _fs, server, client = stack
    attrs = client.getattr(server.root_handle())
    assert attrs.type == const.NF3DIR
    assert attrs.fsid == 9
    assert attrs.fileid == 2


def test_create_write_read(stack):
    _fs, server, client = stack
    root = server.root_handle()
    created = client.create(root, "file", mode=0o640)
    fh = created.obj
    assert created.obj_attributes.mode == 0o640
    write_res = client.write(fh, 0, b"hello world", stable=const.FILE_SYNC)
    assert write_res.count == 11
    assert write_res.committed != const.UNSTABLE
    read_res = client.read(fh, 6, 100)
    assert read_res.data == b"world"
    assert read_res.eof


def test_wcc_data_present(stack):
    _fs, server, client = stack
    root = server.root_handle()
    fh = client.create(root, "f").obj
    res = client.write(fh, 0, b"data")
    assert res.file_wcc.before is not None
    assert res.file_wcc.after is not None
    assert res.file_wcc.after.size == 4


def test_lookup_and_noent(stack):
    _fs, server, client = stack
    root = server.root_handle()
    client.mkdir(root, "dir")
    found = client.lookup(root, "dir")
    assert found.obj_attributes.type == const.NF3DIR
    with pytest.raises(Nfs3Error) as excinfo:
        client.lookup(root, "missing")
    assert excinfo.value.status == const.NFS3ERR_NOENT
    # the failure arm decodes to the LOOKUP3resfail shape (post-op
    # attributes are optional and this server omits them)
    assert hasattr(excinfo.value.body, "dir_attributes")


def test_exclusive_create(stack):
    _fs, server, client = stack
    root = server.root_handle()
    client.create(root, "f", exclusive=True)
    with pytest.raises(Nfs3Error) as excinfo:
        client.create(root, "f", exclusive=True)
    assert excinfo.value.status == const.NFS3ERR_EXIST


def test_setattr_guard(stack):
    fs, server, client = stack
    root = server.root_handle()
    fh = client.create(root, "f").obj
    attrs = client.getattr(fh)
    from repro.nfs3.types import sattr
    client.setattr(fh, sattr(mode=0o600), guard_ctime=attrs.ctime.seconds)
    stale_guard = attrs.ctime.seconds  # ctime moved; guard now stale
    with pytest.raises(Nfs3Error) as excinfo:
        client.setattr(fh, sattr(mode=0o644), guard_ctime=stale_guard)
    assert excinfo.value.status == const.NFS3ERR_NOT_SYNC


def test_symlink_readlink(stack):
    _fs, server, client = stack
    root = server.root_handle()
    res = client.symlink(root, "link", "/somewhere/else")
    assert client.readlink(res.obj) == "/somewhere/else"


def test_remove_rename_link(stack):
    _fs, server, client = stack
    root = server.root_handle()
    fh = client.create(root, "a").obj
    client.link(fh, root, "b")
    assert client.getattr(fh).nlink == 2
    client.rename(root, "a", root, "c")
    client.remove(root, "b")
    assert client.getattr(fh).nlink == 1
    assert client.lookup(root, "c").object == fh


def test_rmdir_notempty(stack):
    _fs, server, client = stack
    root = server.root_handle()
    dir_fh = client.mkdir(root, "d").obj
    client.create(dir_fh, "child")
    with pytest.raises(Nfs3Error) as excinfo:
        client.rmdir(root, "d")
    assert excinfo.value.status == const.NFS3ERR_NOTEMPTY


def test_readdir_and_readdirplus(stack):
    _fs, server, client = stack
    root = server.root_handle()
    for index in range(5):
        client.create(root, f"f{index}")
    plain = client.readdir(root)
    names = {entry.name for entry in plain.entries}
    assert names == {".", ".."} | {f"f{i}" for i in range(5)}
    plus = client.readdirplus(root)
    for entry in plus.entries:
        assert entry.name_attributes is not None
        assert entry.name_handle is not None
        assert client.getattr(entry.name_handle).fileid == entry.fileid


def test_access_respects_credentials(stack):
    _fs, server, client = stack
    root = server.root_handle()
    fh = client.create(root, "private", mode=0o600).obj
    mask = const.ACCESS3_READ | const.ACCESS3_MODIFY
    assert client.access(fh, mask) == mask
    alice_view = client.with_cred(ALICE)
    assert alice_view.access(fh, mask) == 0
    with pytest.raises(Nfs3Error) as excinfo:
        alice_view.read(fh, 0, 10)
    assert excinfo.value.status == const.NFS3ERR_ACCES


def test_anonymous_without_authsys(stack):
    _fs, server, client = stack
    root = server.root_handle()
    fh = client.create(root, "public", mode=0o644).obj
    client.write(fh, 0, b"visible")
    anon = client.with_cred(NULL_AUTH)
    assert anon.read(fh, 0, 10).data == b"visible"
    with pytest.raises(Nfs3Error):
        anon.write(fh, 0, b"nope")


def test_stale_handle(stack):
    _fs, server, client = stack
    root = server.root_handle()
    fh = client.create(root, "gone").obj
    client.remove(root, "gone")
    with pytest.raises(Nfs3Error) as excinfo:
        client.getattr(fh)
    assert excinfo.value.status == const.NFS3ERR_STALE


def test_bad_handle(stack):
    _fs, _server, client = stack
    with pytest.raises(Nfs3Error) as excinfo:
        client.getattr(b"\x01" * 16)
    assert excinfo.value.status in (const.NFS3ERR_BADHANDLE, const.NFS3ERR_STALE)


def test_fsstat_fsinfo_pathconf_commit(stack):
    _fs, server, client = stack
    root = server.root_handle()
    stat = client.fsstat(root)
    assert stat.tbytes > 0
    info = client.fsinfo(root)
    assert info.rtpref == 8192
    conf = client.pathconf(root)
    assert conf.name_max == 255
    fh = client.create(root, "f").obj
    client.write(fh, 0, b"x" * 100)
    commit = client.commit(fh)
    assert len(commit.verf) == 8


def test_encrypted_handles_end_to_end():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    fs = MemFs(fsid=3)
    server = Nfs3Server(fs, handles=EncryptedHandles(b"h" * 20))
    RpcPeer(b, "nfsd").register(server.program)
    client = SyncNfs3Client(RpcPeer(a, "kernel"), ROOT)
    root = server.root_handle()
    assert len(root) == 24
    fh = client.create(root, "f").obj
    client.write(fh, 0, b"enc handles")
    assert client.read(fh, 0, 100).data == b"enc handles"
    with pytest.raises(Nfs3Error) as excinfo:
        client.getattr(bytes(24))
    assert excinfo.value.status == const.NFS3ERR_BADHANDLE


def test_mutation_hook_fires():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    fs = MemFs()
    events = []
    server = Nfs3Server(fs, mutation_hook=events.append)
    RpcPeer(b, "nfsd").register(server.program)
    client = SyncNfs3Client(RpcPeer(a, "kernel"), ROOT)
    root = server.root_handle()
    fh = client.create(root, "f").obj
    assert events[-1] == root  # directory changed
    client.write(fh, 0, b"x")
    assert events[-1] == fh
    client.read(fh, 0, 1)
    assert events[-1] == fh  # reads do not notify
    assert len(events) == 2


def test_create_costs_one_metadata_write_and_setattrs_only_what_changes():
    """A new inode is born with its mode and empty; the rest of CREATE's
    sattr3 is applied (a second write, and a notify on the *file*) only
    where it would change a file that already existed."""
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    disk = Disk(clock)
    fs = MemFs(disk=disk)
    events = []
    server = Nfs3Server(fs, mutation_hook=events.append)
    RpcPeer(b, "nfsd").register(server.program)
    client = SyncNfs3Client(RpcPeer(a, "kernel"), ROOT)
    root = server.root_handle()

    created = client.create(root, "f", mode=0o600, size=0)
    fh = created.obj
    assert created.obj_attributes.mode == 0o600
    assert disk.syncs == 1 and events == [root]

    client.write(fh, 0, b"payload", stable=const.FILE_SYNC)
    syncs = disk.syncs
    del events[:]
    again = client.create(root, "f", mode=0o600)  # nothing differs
    assert again.obj == fh and again.obj_attributes.size == 7
    assert disk.syncs == syncs and events == [root]

    truncated = client.create(root, "f", mode=0o600, size=0)  # O_TRUNC
    assert truncated.obj == fh and truncated.obj_attributes.size == 0
    assert disk.syncs == syncs + 1 and events == [root, fh, root]

    chmodded = client.create(root, "f", mode=0o640)
    assert chmodded.obj_attributes.mode == 0o640
    assert disk.syncs == syncs + 2 and events[-2:] == [fh, root]

    # Truncation by name is a write even when the file is already
    # empty: it needs write permission and it costs the inode update.
    with pytest.raises(Nfs3Error) as excinfo:
        client.with_cred(ALICE).create(root, "f", mode=0o640, size=0)
    assert excinfo.value.status == const.NFS3ERR_ACCES
    client.create(root, "f", mode=0o640, size=0)
    assert disk.syncs == syncs + 3


# --- the six NFS 3 programs --------------------------------------------------

ALL_PROCS = frozenset(types.PROC_CODECS) - {const.NFSPROC3_NULL}
SYNTHETIC = frozenset({
    const.NFSPROC3_GETATTR, const.NFSPROC3_LOOKUP, const.NFSPROC3_ACCESS,
    const.NFSPROC3_READLINK, const.NFSPROC3_READDIR, const.NFSPROC3_FSINFO,
})
ROFS = frozenset({
    const.NFSPROC3_SETATTR, const.NFSPROC3_WRITE, const.NFSPROC3_CREATE,
    const.NFSPROC3_MKDIR, const.NFSPROC3_SYMLINK, const.NFSPROC3_REMOVE,
    const.NFSPROC3_RMDIR, const.NFSPROC3_RENAME, const.NFSPROC3_LINK,
})

#: Which NFS 3 procedures each program serves; the rest answer
#: PROC_UNAVAIL (MKNOD, 11, is served nowhere).
REGISTERED = {
    "nfsd": ALL_PROCS,
    "sfssd-relay": ALL_PROCS,
    "sfscd-relay": ALL_PROCS,
    "sfs-root": SYNTHETIC,
    "ro-mount": SYNTHETIC | {const.NFSPROC3_READ} | ROFS,
    "nfsmounter-stale": ALL_PROCS,
}

#: proc -> the absent optionals its failure arm packs (RFC 1813: a
#: post_op_attr is one, a wcc_data two).
FAILURE_ABSENT = {
    const.NFSPROC3_GETATTR: 0, const.NFSPROC3_SETATTR: 2,
    const.NFSPROC3_LOOKUP: 1, const.NFSPROC3_ACCESS: 1,
    const.NFSPROC3_READLINK: 1, const.NFSPROC3_READ: 1,
    const.NFSPROC3_WRITE: 2, const.NFSPROC3_CREATE: 2,
    const.NFSPROC3_MKDIR: 2, const.NFSPROC3_SYMLINK: 2,
    const.NFSPROC3_REMOVE: 2, const.NFSPROC3_RMDIR: 2,
    const.NFSPROC3_RENAME: 4, const.NFSPROC3_LINK: 3,
    const.NFSPROC3_READDIR: 1, const.NFSPROC3_READDIRPLUS: 1,
    const.NFSPROC3_FSSTAT: 1, const.NFSPROC3_FSINFO: 1,
    const.NFSPROC3_PATHCONF: 1, const.NFSPROC3_COMMIT: 2,
    const.NFSPROC3_READV: 1, const.NFSPROC3_WRITEV: 2,
}


def _failure_bytes(proc: int, status: int) -> bytes:
    return struct.pack(">I", status) + bytes(4 * FAILURE_ABSENT[proc])


@pytest.fixture(scope="module")
def nfs3_programs():
    """Each daemon's NFS 3 program, from one world with a read-write and
    a read-only export both mounted."""
    world = World(seed=40)
    server = world.add_server("rw.example.com")
    rw_path = server.export_fs()
    image = publish(MemFs(), generate_key(768, world.rng), "ro.example.com")
    ro_path = world.add_server("ro.example.com").master.add_ro_export(image)
    client = world.add_client("laptop")
    client.new_agent("u", 1000)
    process = client.process(uid=1000)
    process.stat(str(rw_path))
    process.stat(str(ro_path))
    export = server.master.rw_export(rw_path.hostid)
    (connection,) = export.connections
    return {
        "nfsd": export.nfs_server.program,
        "sfssd-relay": connection._rw_program(),
        "sfscd-relay": client.sfscd._mounts[rw_path.hostid].program,
        "sfs-root": client.sfscd.program,
        "ro-mount": client.sfscd._mounts[ro_path.hostid].program,
        "nfsmounter-stale": _stale_program(),
    }


@pytest.mark.parametrize("name", sorted(REGISTERED))
def test_each_program_registers_its_procedures(nfs3_programs, name):
    program = nfs3_programs[name]
    served = {proc for proc in range(1, 24) if proc in program.procedures}
    assert served == REGISTERED[name]
    assert program.idempotent == const.IDEMPOTENT_PROCS
    for proc in served:
        procedure = program.procedures[proc]
        assert procedure.name == const.PROC_NAMES[proc]
        # sfssd's relay patches the bytes it forwards: it is served raw.
        assert (procedure.arg_codec, procedure.res_codec) \
            == ((RAW, RAW) if name == "sfssd-relay"
                else types.PROC_CODECS[proc])


@pytest.mark.parametrize("name, status, proc", [
    *(("ro-mount", const.NFS3ERR_ROFS, proc) for proc in sorted(ROFS)),
    *(("nfsmounter-stale", const.NFS3ERR_STALE, proc)
      for proc in sorted(ALL_PROCS)),
])
def test_refusals_reply_status_and_empty_failure_arm(nfs3_programs, name,
                                                    status, proc):
    procedure = nfs3_programs[name].procedures[proc]
    ctx = CallContext(peer=None, header=CallHeader(
        xid=1, prog=const.NFS3_PROGRAM, vers=const.NFS3_VERSION, proc=proc))
    reply = procedure.handler(None, ctx)
    assert reply[0] == status
    assert procedure.res_codec.pack(reply) == _failure_bytes(proc, status)


@pytest.mark.parametrize("proc", sorted(ALL_PROCS))
def test_failure_arm_packs_under_a_failing_status(proc):
    _args, res_codec = types.PROC_CODECS[proc]
    arm = types.failure_arm(proc)
    assert res_codec.pack((const.NFS3ERR_IO, arm)) \
        == _failure_bytes(proc, const.NFS3ERR_IO)
    if arm is not None:  # relays rewrite replies in place
        assert types.failure_arm(proc) is not arm
