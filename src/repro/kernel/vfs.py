"""The simulated kernel: VFS mount table, path walking, POSIX facade.

This plays the role FreeBSD played on the paper's client machines.  The
kernel owns a mount table whose entries are NFS3 client connections —
the root file system is a local NFS server (the local-FS baseline), and
SFS grafts itself in exactly as in the paper: sfscd serves ``/sfs`` over
an NFS loopback, and every remote file system gets *its own* mount point
and device number served directly by a subordinate daemon ("Using
multiple mount points also prevents one slow server from affecting the
performance of other servers").

User code talks to :class:`Process`, which provides the POSIX-style
syscalls benchmarks and examples use (open/read/write/stat/readdir/...),
tagging every NFS call with the process's AUTH_SYS credentials — which is
how sfscd knows which user's agent to consult.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Iterator

from ..nfs3 import const as nfs_const
from ..nfs3 import types as nfs_types
from ..nfs3.client import Nfs3Client, Nfs3Error
from ..rpc.peer import Program, RpcPeer
from ..rpc.rpcmsg import AuthSys
from ..rpc.xdr import Record
from ..sim.clock import Clock
from ..sim.network import link_pair

_SYMLINK_MAX = 40
_IO_CHUNK = 8192
#: A read count no file reaches (FSINFO's maxfilesize): "until eof".
_TO_EOF = 1 << 62

_NFS_TO_ERRNO = {
    nfs_const.NFS3ERR_PERM: errno.EPERM,
    nfs_const.NFS3ERR_NOENT: errno.ENOENT,
    nfs_const.NFS3ERR_IO: errno.EIO,
    nfs_const.NFS3ERR_ACCES: errno.EACCES,
    nfs_const.NFS3ERR_EXIST: errno.EEXIST,
    nfs_const.NFS3ERR_NOTDIR: errno.ENOTDIR,
    nfs_const.NFS3ERR_ISDIR: errno.EISDIR,
    nfs_const.NFS3ERR_INVAL: errno.EINVAL,
    nfs_const.NFS3ERR_FBIG: errno.EFBIG,
    nfs_const.NFS3ERR_NOSPC: errno.ENOSPC,
    nfs_const.NFS3ERR_ROFS: errno.EROFS,
    nfs_const.NFS3ERR_NAMETOOLONG: errno.ENAMETOOLONG,
    nfs_const.NFS3ERR_NOTEMPTY: errno.ENOTEMPTY,
    nfs_const.NFS3ERR_STALE: errno.ESTALE,
    nfs_const.NFS3ERR_BADHANDLE: errno.EBADF,
}


class KernelError(OSError):
    """A syscall failure with a POSIX errno."""

    def __init__(self, err: int, path: str = "") -> None:
        super().__init__(err, errno.errorcode.get(err, str(err)), path or None)


def _raise_from_nfs(exc: Nfs3Error, path: str = "") -> "KernelError":
    raise KernelError(_NFS_TO_ERRNO.get(exc.status, errno.EIO), path) from None


@dataclass
class Mount:
    """One mounted file system: an NFS connection plus its root handle.

    *program*/*server_peer* are set for daemon loopback mounts (the
    kernel talking to a local user-level daemon) and None for mounts
    whose NFS traffic goes straight over a network link.
    """

    mount_id: int
    name: str
    client: Nfs3Client
    root_fh: bytes
    program: Program | None = None
    server_peer: RpcPeer | None = None


def _normalize(path: str) -> str:
    """Lexically clean a path ('.' and empty components only)."""
    parts = [p for p in path.split("/") if p and p != "."]
    return "/" + "/".join(parts)


class Kernel:
    """Mount table + path walking."""

    def __init__(self, clock: Clock, hostname: str = "client",
                 metrics=None) -> None:
        self.clock = clock
        self.hostname = hostname
        self.metrics = metrics
        self._mounts: list[Mount] = []
        self._mountpoints: dict[tuple[int, bytes], Mount] = {}
        self._next_mount_id = 1
        self.root: Mount | None = None
        #: Files, as (mount id, handle), with UNSTABLE bytes no COMMIT
        #: has covered yet: what close()/fsync() on *any* descriptor of
        #: the file owe the server.  Dirty state is the file's, not the
        #: descriptor's.
        self.unstable: set[tuple[int, bytes]] = set()

    # --- mount management -----------------------------------------------

    def _attach_program(self, name: str, program: Program,
                        root_fh: bytes) -> Mount:
        """Create the kernel<->daemon NFS loopback for one mount."""
        kernel_side, daemon_side = link_pair(self.clock, metrics=self.metrics)
        server_peer = RpcPeer(daemon_side, f"daemon:{name}")
        server_peer.register(program)
        client = Nfs3Client(RpcPeer(kernel_side, f"kernel:{name}"))
        mount = Mount(self._next_mount_id, name, client, root_fh,
                      program, server_peer)
        self._next_mount_id += 1
        self._mounts.append(mount)
        return mount

    def mount_root(self, program: Program, root_fh: bytes) -> Mount:
        """Mount the root file system."""
        self.root = self._attach_program("/", program, root_fh)
        return self.root

    def add_mount(self, path: str, program: Program, root_fh: bytes,
                  cred: AuthSys | None = None) -> Mount:
        """Graft *program* over the directory at *path* (nfsmounter's job)."""
        cred = cred or AuthSys(uid=0, gid=0)
        mount_at, fh, _attrs = self.resolve(path, cred, follow=False)
        new_mount = self._attach_program(path, program, root_fh)
        self._mountpoints[(mount_at.mount_id, fh)] = new_mount
        return new_mount

    def add_mount_link(self, path: str, pipe, root_fh: bytes,
                       cred: AuthSys | None = None) -> Mount:
        """Mount an NFS server reached over *pipe* (a network link side).

        This is how the plain-NFS baselines mount remote servers: the
        kernel's NFS client speaks directly over the wire, with no
        user-level daemon in between.
        """
        return self.add_mount_peer(
            path, RpcPeer(pipe, f"kernel:{path}"), root_fh, cred
        )

    def add_mount_peer(self, path: str, peer: RpcPeer, root_fh: bytes,
                       cred: AuthSys | None = None) -> Mount:
        """Mount over an existing RPC peer (e.g. after a MOUNT exchange)."""
        cred = cred or AuthSys(uid=0, gid=0)
        mount_at, fh, _attrs = self.resolve(path, cred, follow=False)
        mount = Mount(self._next_mount_id, path, Nfs3Client(peer), root_fh)
        self._next_mount_id += 1
        self._mounts.append(mount)
        self._mountpoints[(mount_at.mount_id, fh)] = mount
        return mount

    def remove_mount(self, path: str, cred: AuthSys | None = None) -> bool:
        cred = cred or AuthSys(uid=0, gid=0)
        try:
            # Resolve to the *covered* directory, not across the mount:
            # walk to the parent, then look the leaf up directly.
            parent_mount, parent_fh, leaf = self.resolve_parent(path, cred)
            res = parent_mount.client.with_cred(cred).lookup(parent_fh, leaf)
        except (KernelError, Nfs3Error):
            return False
        removed = self._mountpoints.pop(
            (parent_mount.mount_id, res.object), None
        )
        if removed is not None:
            self._mounts = [m for m in self._mounts if m is not removed]
            return True
        return False

    def mounts(self) -> list[str]:
        return [mount.name for mount in self._mounts]

    # --- path walking ------------------------------------------------------

    def resolve(self, path: str, cred: AuthSys, follow: bool = True
                ) -> tuple[Mount, bytes, Record]:
        """Walk *path* to (mount, handle, attributes).

        Follows symlinks (including the on-the-fly ones sfscd
        manufactures under /sfs) and crosses mount points.  ".." is
        handled with an ancestor stack so it behaves across mounts.

        "/" and every mount root are directories by construction, so
        the walk carries ``attrs=None`` for them and asks for their
        attributes only if it ends there; LOOKUP's post-op attributes
        cover every other component.
        """
        if not path.startswith("/"):
            raise KernelError(errno.EINVAL, path)
        if self.root is None:
            raise KernelError(errno.ENOENT, path)
        budget = _SYMLINK_MAX
        mount = self.root
        fh = mount.root_fh
        attrs: Record | None = None
        # Ancestor stack of (mount, fh, attrs) above the current node.
        stack: list[tuple[Mount, bytes, Record | None]] = []
        parts = [p for p in path.split("/") if p and p != "."]
        index = 0
        while index < len(parts):
            part = parts[index]
            if part == "..":
                if stack:
                    mount, fh, attrs = stack.pop()
                index += 1
                continue
            if attrs is not None and attrs.type != nfs_const.NF3DIR:
                raise KernelError(errno.ENOTDIR, path)
            try:
                res = mount.client.with_cred(cred).lookup(fh, part)
            except Nfs3Error as exc:
                _raise_from_nfs(exc, path)
            child_fh = res.object
            child_attrs = res.obj_attributes
            if child_attrs is None:
                child_attrs = self._getattr(mount, child_fh, cred, path)
            child_mount = mount
            crossing = self._mountpoints.get((mount.mount_id, child_fh))
            if crossing is not None:
                child_mount = crossing
                child_fh = crossing.root_fh
                child_attrs = None
            is_last = index == len(parts) - 1
            if (child_attrs is not None
                    and child_attrs.type == nfs_const.NF3LNK
                    and (follow or not is_last)):
                budget -= 1
                if budget <= 0:
                    raise KernelError(errno.ELOOP, path)
                try:
                    target = mount.client.with_cred(cred).readlink(child_fh)
                except Nfs3Error as exc:
                    _raise_from_nfs(exc, path)
                new_parts = [p for p in target.split("/") if p and p != "."]
                parts = new_parts + parts[index + 1 :]
                index = 0
                if target.startswith("/"):
                    stack.clear()
                    mount = self.root
                    fh = mount.root_fh
                    attrs = None
                continue
            stack.append((mount, fh, attrs))
            mount, fh, attrs = child_mount, child_fh, child_attrs
            index += 1
        if attrs is None:
            attrs = self._getattr(mount, fh, cred, path)
        return mount, fh, attrs

    def resolve_parent(self, path: str, cred: AuthSys
                       ) -> tuple[Mount, bytes, str]:
        """Resolve the parent directory of *path*; returns (mount, fh, leaf)."""
        normalized = _normalize(path)
        if normalized == "/":
            raise KernelError(errno.EINVAL, path)
        parent, _, leaf = normalized.rpartition("/")
        mount, fh, attrs = self.resolve(parent or "/", cred)
        if attrs.type != nfs_const.NF3DIR:
            raise KernelError(errno.ENOTDIR, path)
        return mount, fh, leaf

    def _getattr(self, mount: Mount, fh: bytes, cred: AuthSys,
                 path: str) -> Record:
        try:
            return mount.client.with_cred(cred).getattr(fh)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)


@dataclass
class FileHandle:
    """An open file description."""

    mount: Mount
    fh: bytes
    offset: int = 0
    path: str = ""


@dataclass
class StatResult:
    """What stat() returns: a friendly view of fattr3."""

    mode: int
    ftype: int
    nlink: int
    uid: int
    gid: int
    size: int
    used: int
    fsid: int
    fileid: int
    atime: int
    mtime: int
    ctime: int

    @property
    def is_dir(self) -> bool:
        return self.ftype == nfs_const.NF3DIR

    @property
    def is_symlink(self) -> bool:
        return self.ftype == nfs_const.NF3LNK

    @property
    def is_file(self) -> bool:
        return self.ftype == nfs_const.NF3REG


def _stat_from_fattr(attrs: Record) -> StatResult:
    return StatResult(
        mode=attrs.mode, ftype=attrs.type, nlink=attrs.nlink,
        uid=attrs.uid, gid=attrs.gid, size=attrs.size, used=attrs.used,
        fsid=attrs.fsid, fileid=attrs.fileid,
        atime=attrs.atime.seconds, mtime=attrs.mtime.seconds,
        ctime=attrs.ctime.seconds,
    )


class Process:
    """A user process: credentials, cwd, fd table, POSIX syscalls."""

    def __init__(self, kernel: Kernel, uid: int = 0, gid: int = 0,
                 groups: tuple[int, ...] = ()) -> None:
        self.kernel = kernel
        self.cred = AuthSys(uid=uid, gid=gid, gids=groups,
                            machinename=kernel.hostname)
        self._cwd = "/"
        self._fds: dict[int, FileHandle] = {}
        self._next_fd = 3

    @property
    def uid(self) -> int:
        return self.cred.uid

    # --- paths ------------------------------------------------------------

    def _abspath(self, path: str) -> str:
        if not path.startswith("/"):
            path = self._cwd.rstrip("/") + "/" + path
        return _normalize(path)

    def realpath(self, path: str) -> str:
        """Resolve symlinks and ".." to a canonical absolute path.

        Under /sfs this yields the full self-certifying pathname — the
        property the paper's pwd-based secure bookmarks rely on.
        """
        budget = _SYMLINK_MAX
        resolved: list[str] = []
        pending = [p for p in self._abspath(path).split("/") if p and p != "."]
        while pending:
            part = pending.pop(0)
            if part == "..":
                if resolved:
                    resolved.pop()
                continue
            candidate = "/" + "/".join(resolved + [part])
            try:
                st = self.lstat(candidate)
            except KernelError:
                resolved.append(part)
                continue
            if st.is_symlink:
                budget -= 1
                if budget <= 0:
                    raise KernelError(errno.ELOOP, path)
                target = self.readlink(candidate)
                new_parts = [p for p in target.split("/") if p and p != "."]
                if target.startswith("/"):
                    resolved = []
                pending = new_parts + pending
            else:
                resolved.append(part)
        return "/" + "/".join(resolved)

    def chdir(self, path: str) -> None:
        absolute = self._abspath(path)
        _mount, _fh, attrs = self.kernel.resolve(absolute, self.cred)
        if attrs.type != nfs_const.NF3DIR:
            raise KernelError(errno.ENOTDIR, path)
        # Canonicalize so getcwd() prints the real (self-certifying,
        # when under /sfs) pathname, as the paper's pwd does.
        self._cwd = self.realpath(absolute)

    def getcwd(self) -> str:
        return self._cwd

    # --- file I/O -----------------------------------------------------------

    def open(self, path: str, flags: str = "r", mode: int = 0o644) -> int:
        """Open a file.  *flags*: r, w (truncate+create), a, rw, x (excl).

        Create-and-truncate is one UNCHECKED CREATE whose ``sattr3``
        carries both *mode* and ``size=0`` (RFC 1813): no SETATTR
        follows a file that was born empty, and an existing file is
        truncated by the server inside the same call.
        """
        absolute = self._abspath(path)
        create = any(f in flags for f in ("w", "a", "x"))
        client_cred = self.cred
        if create:
            mount, dir_fh, leaf = self.kernel.resolve_parent(absolute, client_cred)
            try:
                res = mount.client.with_cred(client_cred).create(
                    dir_fh, leaf, mode=mode, exclusive="x" in flags,
                    size=0 if "w" in flags else None,
                )
            except Nfs3Error as exc:
                _raise_from_nfs(exc, path)
            fh = res.obj
            if fh is None:
                raise KernelError(errno.EIO, path)
        else:
            mount, fh, attrs = self.kernel.resolve(absolute, client_cred)
            if attrs.type == nfs_const.NF3DIR:
                raise KernelError(errno.EISDIR, path)
            # Like a real NFS client, check permissions with ACCESS at
            # open time (this is the call SFS's access cache absorbs).
            try:
                granted = mount.client.with_cred(client_cred).access(
                    fh, nfs_const.ACCESS3_READ
                )
            except Nfs3Error as exc:
                _raise_from_nfs(exc, path)
            if not granted & nfs_const.ACCESS3_READ:
                raise KernelError(errno.EACCES, path)
        handle = FileHandle(mount, fh, path=absolute)
        fd = self._register(handle)
        if "a" in flags:
            handle.offset = self.fstat_fd(fd).size
        return fd

    def _register(self, handle: FileHandle) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = handle
        return fd

    def _handle(self, fd: int) -> FileHandle:
        try:
            return self._fds[fd]
        except KeyError:
            raise KernelError(errno.EBADF) from None

    def read(self, fd: int, count: int) -> bytes:
        handle = self._handle(fd)
        out = bytearray()
        while count > 0:
            chunk = min(count, _IO_CHUNK)
            try:
                res = handle.mount.client.with_cred(self.cred).read(
                    handle.fh, handle.offset, chunk
                )
            except Nfs3Error as exc:
                _raise_from_nfs(exc, handle.path)
            out += res.data
            handle.offset += len(res.data)
            count -= len(res.data)
            if res.eof or not res.data:
                break
        return bytes(out)

    def write(self, fd: int, data: bytes, sync: bool = False) -> int:
        handle = self._handle(fd)
        stable = nfs_const.FILE_SYNC if sync else nfs_const.UNSTABLE
        written = 0
        view = memoryview(data)
        while written < len(data):
            chunk = view[written : written + _IO_CHUNK]
            try:
                res = handle.mount.client.with_cred(self.cred).write(
                    handle.fh, handle.offset, bytes(chunk), stable=stable
                )
            except Nfs3Error as exc:
                _raise_from_nfs(exc, handle.path)
            handle.offset += res.count
            written += res.count
            if not sync:
                self.kernel.unstable.add((handle.mount.mount_id, handle.fh))
            if res.count == 0:
                raise KernelError(errno.EIO, handle.path)
        return written

    def lseek(self, fd: int, offset: int) -> int:
        handle = self._handle(fd)
        handle.offset = offset
        return offset

    def fchown(self, fd: int, uid: int, gid: int | None = None) -> None:
        """chown on an open descriptor: exactly one SETATTR RPC.

        This is the paper's latency micro-benchmark operation — "a file
        system operation that always requires a remote RPC but never
        requires a disk access — an unauthorized fchown system call."
        """
        handle = self._handle(fd)
        try:
            handle.mount.client.with_cred(self.cred).setattr(
                handle.fh, nfs_types.sattr(uid=uid, gid=gid)
            )
        except Nfs3Error as exc:
            _raise_from_nfs(exc, handle.path)

    def fsync(self, fd: int) -> None:
        self._commit(self._handle(fd))

    def _commit(self, handle: FileHandle) -> None:
        """COMMIT the file's UNSTABLE bytes, whichever descriptor wrote
        them; nothing when it has none outstanding."""
        key = (handle.mount.mount_id, handle.fh)
        if key not in self.kernel.unstable:
            return
        try:
            handle.mount.client.with_cred(self.cred).commit(handle.fh)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, handle.path)
        self.kernel.unstable.discard(key)

    def close(self, fd: int, sync_on_close: bool = True) -> None:
        """Close; like NFS clients, flush dirty data synchronously.

        The paper notes NFS "flushes data to disk on file closes", which
        is what makes the Sprite create phase disk-bound.  The
        descriptor is gone either way; a failed flush is raised, as
        close(2) reports the write-behind error it is the last to see.
        """
        handle = self._fds.pop(fd, None)
        if handle is None:
            raise KernelError(errno.EBADF)
        if sync_on_close:
            self._commit(handle)

    def read_file(self, path: str) -> bytes:
        """Convenience: whole-file read, ended by READ's eof flag."""
        fd = self.open(path, "r")
        try:
            return self.read(fd, _TO_EOF)
        finally:
            self.close(fd)

    def write_file(self, path: str, data: bytes, mode: int = 0o644,
                   sync: bool = False) -> None:
        """Convenience: create/truncate + write + close."""
        fd = self.open(path, "w", mode)
        try:
            self.write(fd, data, sync=sync)
        finally:
            self.close(fd)

    def _truncate(self, mount: Mount, fh: bytes, size: int, path: str) -> None:
        try:
            mount.client.with_cred(self.cred).setattr(
                fh, nfs_types.sattr(size=size)
            )
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    # --- metadata --------------------------------------------------------------

    def stat(self, path: str) -> StatResult:
        _mount, _fh, attrs = self.kernel.resolve(self._abspath(path), self.cred)
        return _stat_from_fattr(attrs)

    def lstat(self, path: str) -> StatResult:
        _mount, _fh, attrs = self.kernel.resolve(
            self._abspath(path), self.cred, follow=False
        )
        return _stat_from_fattr(attrs)

    def fstat_fd(self, fd: int) -> StatResult:
        handle = self._handle(fd)
        try:
            attrs = handle.mount.client.with_cred(self.cred).getattr(handle.fh)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, handle.path)
        return _stat_from_fattr(attrs)

    def access(self, path: str, mask: int) -> int:
        mount, fh, _attrs = self.kernel.resolve(self._abspath(path), self.cred)
        try:
            return mount.client.with_cred(self.cred).access(fh, mask)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    def chmod(self, path: str, mode: int) -> None:
        mount, fh, _attrs = self.kernel.resolve(self._abspath(path), self.cred)
        try:
            mount.client.with_cred(self.cred).setattr(
                fh, nfs_types.sattr(mode=mode)
            )
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    def chown(self, path: str, uid: int, gid: int | None = None) -> None:
        mount, fh, _attrs = self.kernel.resolve(self._abspath(path), self.cred)
        try:
            mount.client.with_cred(self.cred).setattr(
                fh, nfs_types.sattr(uid=uid, gid=gid)
            )
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    def truncate(self, path: str, size: int) -> None:
        mount, fh, _attrs = self.kernel.resolve(self._abspath(path), self.cred)
        self._truncate(mount, fh, size, path)

    def utimes(self, path: str, atime: int, mtime: int) -> None:
        mount, fh, _attrs = self.kernel.resolve(self._abspath(path), self.cred)
        try:
            mount.client.with_cred(self.cred).setattr(
                fh, nfs_types.sattr(atime=atime, mtime=mtime)
            )
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    # --- namespace ops ------------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        mount, dir_fh, leaf = self.kernel.resolve_parent(
            self._abspath(path), self.cred
        )
        try:
            mount.client.with_cred(self.cred).mkdir(dir_fh, leaf, mode)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        absolute = self._abspath(path)
        parts = [p for p in absolute.split("/") if p]
        so_far = ""
        for part in parts:
            so_far += "/" + part
            try:
                self.stat(so_far)
                continue
            except KernelError as exc:
                if exc.errno != errno.ENOENT:
                    raise
            try:
                self.mkdir(so_far, mode)
            except KernelError as exc:
                if exc.errno != errno.EEXIST:
                    raise

    def rmdir(self, path: str) -> None:
        mount, dir_fh, leaf = self.kernel.resolve_parent(
            self._abspath(path), self.cred
        )
        try:
            mount.client.with_cred(self.cred).rmdir(dir_fh, leaf)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    def unlink(self, path: str) -> None:
        mount, dir_fh, leaf = self.kernel.resolve_parent(
            self._abspath(path), self.cred
        )
        try:
            mount.client.with_cred(self.cred).remove(dir_fh, leaf)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    def rename(self, old: str, new: str) -> None:
        from_mount, from_fh, from_leaf = self.kernel.resolve_parent(
            self._abspath(old), self.cred
        )
        to_mount, to_fh, to_leaf = self.kernel.resolve_parent(
            self._abspath(new), self.cred
        )
        if from_mount.mount_id != to_mount.mount_id:
            raise KernelError(errno.EXDEV, new)
        try:
            from_mount.client.with_cred(self.cred).rename(
                from_fh, from_leaf, to_fh, to_leaf
            )
        except Nfs3Error as exc:
            _raise_from_nfs(exc, new)

    def symlink(self, target: str, path: str) -> None:
        mount, dir_fh, leaf = self.kernel.resolve_parent(
            self._abspath(path), self.cred
        )
        try:
            mount.client.with_cred(self.cred).symlink(dir_fh, leaf, target)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    def readlink(self, path: str) -> str:
        mount, fh, attrs = self.kernel.resolve(
            self._abspath(path), self.cred, follow=False
        )
        if attrs.type != nfs_const.NF3LNK:
            raise KernelError(errno.EINVAL, path)
        try:
            return mount.client.with_cred(self.cred).readlink(fh)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, path)

    def link(self, existing: str, new: str) -> None:
        file_mount, file_fh, _attrs = self.kernel.resolve(
            self._abspath(existing), self.cred
        )
        dir_mount, dir_fh, leaf = self.kernel.resolve_parent(
            self._abspath(new), self.cred
        )
        if file_mount.mount_id != dir_mount.mount_id:
            raise KernelError(errno.EXDEV, new)
        try:
            file_mount.client.with_cred(self.cred).link(file_fh, dir_fh, leaf)
        except Nfs3Error as exc:
            _raise_from_nfs(exc, new)

    def readdir(self, path: str) -> list[str]:
        mount, fh, attrs = self.kernel.resolve(self._abspath(path), self.cred)
        if attrs.type != nfs_const.NF3DIR:
            raise KernelError(errno.ENOTDIR, path)
        names: list[str] = []
        cookie = 0
        while True:
            try:
                res = mount.client.with_cred(self.cred).readdir(fh, cookie)
            except Nfs3Error as exc:
                _raise_from_nfs(exc, path)
            for entry in res.entries:
                if entry.name not in (".", ".."):
                    names.append(entry.name)
                cookie = entry.cookie
            if res.eof or not res.entries:
                return names

    def walk(self, top: str) -> Iterator[tuple[str, list[str], list[str]]]:
        """os.walk lookalike over the simulated namespace."""
        dirs: list[str] = []
        files: list[str] = []
        for name in self.readdir(top):
            child = top.rstrip("/") + "/" + name
            if self.lstat(child).is_dir:
                dirs.append(name)
            else:
                files.append(name)
        yield top, dirs, files
        for name in dirs:
            yield from self.walk(top.rstrip("/") + "/" + name)
