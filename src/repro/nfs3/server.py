"""A complete NFS version 3 server over :class:`repro.fs.MemFs`.

This plays the role of the kernel NFS server on the paper's machines: the
SFS read-write server "acts as an NFS client, passing the request to an
NFS server on the same machine", and the plain-NFS baselines in the
benchmarks talk to this server directly.

Credentials come from the RPC layer: AUTH_SYS credentials map directly to
:class:`repro.fs.Cred`; a custom ``cred_mapper`` lets the SFS server
substitute the credentials established by user authentication instead
("The server modifies requests slightly and tags them with appropriate
credentials", paper section 3).
"""

from __future__ import annotations

from typing import Callable

from ..fs.memfs import ANONYMOUS, Cred, FsError, Inode, MemFs
from ..obs.registry import NULL_REGISTRY
from ..rpc.peer import CallContext, Program
from ..rpc.rpcmsg import AUTH_SYS, AuthSys, RpcMsgError
from ..rpc.xdr import Record
from ..sim.sched import Sleep
from . import const, types
from .handles import BadHandle, PlainHandles

_COOKIE_VERF = b"\x00" * 8

#: Monotonic boot count; each Nfs3Server instance gets a distinct write
#: verifier, as the NFS3 spec requires across server reboots — a client
#: comparing verifiers can detect that un-committed writes may be gone.
_BOOT_COUNTER = 0


def _next_write_verf() -> bytes:
    global _BOOT_COUNTER
    _BOOT_COUNTER += 1
    return b"SFSW" + _BOOT_COUNTER.to_bytes(4, "big")

CredMapper = Callable[[CallContext], Cred]


def _reply_after(seconds: float, result):
    """A served call's tail: wait *seconds* for the disk, then reply."""
    yield Sleep(seconds)
    return result


def authsys_cred_mapper(ctx: CallContext) -> Cred:
    """Map AUTH_SYS RPC credentials to file system credentials."""
    if ctx.cred.flavor != AUTH_SYS:
        return ANONYMOUS
    try:
        parms = AuthSys.from_auth(ctx.cred)
    except RpcMsgError:
        return ANONYMOUS
    return Cred(uid=parms.uid, gid=parms.gid, groups=parms.gids)


class Nfs3Server:
    """Dispatches NFS3 procedures against a MemFs.

    ``mutation_hook(handle)`` fires after any operation that changes the
    object or directory identified by *handle* — the SFS server uses it
    to drive lease-invalidation callbacks, and reads :attr:`caller` to
    tell whose call made the change.
    """

    def __init__(
        self,
        fs: MemFs,
        handles: PlainHandles | None = None,
        cred_mapper: CredMapper = authsys_cred_mapper,
        mutation_hook: Callable[[bytes], None] | None = None,
        metrics=None,
    ) -> None:
        self.fs = fs
        self.handles = handles or PlainHandles()
        self._cred_mapper = cred_mapper
        self._mutation_hook = mutation_hook
        #: The call whose procedure is executing, while one is.  A
        #: procedure runs to its end without waiting, so no other call
        #: can start inside it.
        self.caller: CallContext | None = None
        #: Per-op counts land in ``nfs3.ops.<op>`` / ``nfs3.errors.<op>``
        #: and each call's virtual seconds from dispatch to reply (its
        #: disk wait) in the ``nfs3.op_seconds`` histogram; servers
        #: sharing a registry (client loopback, export relay target)
        #: aggregate into the same names.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._op_seconds = self.metrics.histogram("nfs3.op_seconds")
        #: Changes every boot (every instance): WRITE/COMMIT return it so
        #: clients can tell when a restart may have lost unstable writes.
        self.write_verf = _next_write_verf()
        self.program = self._build_program()

    # --- handle and attribute helpers --------------------------------------

    def root_handle(self) -> bytes:
        root = self.fs.get_inode(self.fs.root_ino)
        return self._encode_handle(root)

    def _encode_handle(self, inode: Inode) -> bytes:
        return self.handles.encode(self.fs.fsid, inode.ino, inode.generation)

    def _decode_handle(self, handle: bytes) -> Inode:
        try:
            fsid, ino, generation = self.handles.decode(handle)
        except BadHandle:
            raise FsError(const.NFS3ERR_BADHANDLE) from None
        if fsid != self.fs.fsid:
            raise FsError(const.NFS3ERR_BADHANDLE, "wrong fsid")
        inode = self.fs.get_inode(ino)  # raises ERR_STALE if gone
        if inode.generation != generation:
            raise FsError(const.NFS3ERR_STALE, "generation mismatch")
        return inode

    def _fattr(self, inode: Inode) -> Record:
        data_used = (
            inode.data.allocated_bytes
            if inode.data is not None
            else inode.size
        )
        return types.Fattr.make(
            type=inode.ftype,
            mode=inode.mode,
            nlink=inode.nlink,
            uid=inode.uid,
            gid=inode.gid,
            size=inode.size,
            used=data_used,
            rdev=types.SpecData.make(major=inode.rdev[0], minor=inode.rdev[1]),
            fsid=self.fs.fsid,
            fileid=inode.ino,
            atime=self._time(inode.atime),
            mtime=self._time(inode.mtime),
            ctime=self._time(inode.ctime),
        )

    @staticmethod
    def _time(stamp: int) -> Record:
        return types.NfsTime.make(seconds=stamp & 0xFFFFFFFF, nseconds=0)

    def _wcc_attr(self, inode: Inode) -> Record:
        return types.WccAttr.make(
            size=inode.size,
            mtime=self._time(inode.mtime),
            ctime=self._time(inode.ctime),
        )

    def _wcc(self, before: Record | None, inode: Inode | None) -> Record:
        return types.WccData.make(
            before=before,
            after=self._fattr(inode) if inode is not None else None,
        )

    def _notify(self, inode: Inode) -> None:
        if self._mutation_hook is not None:
            self._mutation_hook(self._encode_handle(inode))

    @staticmethod
    def _sattr_fields(attrs: Record) -> dict[str, int | None]:
        def time_field(arm: tuple[int, Record | None]) -> int | None:
            disc, value = arm
            if disc == types.SET_TO_CLIENT_TIME and value is not None:
                return value.seconds
            if disc == types.SET_TO_SERVER_TIME:
                return 0
            return None

        return {
            "mode": attrs.mode,
            "uid": attrs.uid,
            "gid": attrs.gid,
            "size": attrs.size,
            "atime": time_field(attrs.atime),
            "mtime": time_field(attrs.mtime),
        }

    # --- program ------------------------------------------------------------

    def _build_program(self) -> Program:
        program = Program("nfs3", const.NFS3_PROGRAM, const.NFS3_VERSION)
        program.idempotent = const.IDEMPOTENT_PROCS
        handlers = {
            const.NFSPROC3_GETATTR: self._getattr,
            const.NFSPROC3_SETATTR: self._setattr,
            const.NFSPROC3_LOOKUP: self._lookup,
            const.NFSPROC3_ACCESS: self._access,
            const.NFSPROC3_READLINK: self._readlink,
            const.NFSPROC3_READ: self._read,
            const.NFSPROC3_WRITE: self._write,
            const.NFSPROC3_CREATE: self._create,
            const.NFSPROC3_MKDIR: self._mkdir,
            const.NFSPROC3_SYMLINK: self._symlink,
            const.NFSPROC3_REMOVE: self._remove,
            const.NFSPROC3_RMDIR: self._rmdir,
            const.NFSPROC3_RENAME: self._rename,
            const.NFSPROC3_LINK: self._link,
            const.NFSPROC3_READDIR: self._readdir,
            const.NFSPROC3_READDIRPLUS: self._readdirplus,
            const.NFSPROC3_FSSTAT: self._fsstat,
            const.NFSPROC3_FSINFO: self._fsinfo,
            const.NFSPROC3_PATHCONF: self._pathconf,
            const.NFSPROC3_COMMIT: self._commit,
            const.NFSPROC3_READV: self._readv,
            const.NFSPROC3_WRITEV: self._writev,
        }
        for proc, handler in handlers.items():
            arg_codec, res_codec = types.PROC_CODECS[proc]
            program.add_proc(
                proc, const.PROC_NAMES[proc], arg_codec, res_codec,
                self._wrap(handler, const.PROC_NAMES[proc]),
            )
        return program

    def _wrap(self, handler, name: str = "?"):
        op_counter = self.metrics.counter(f"nfs3.ops.{name.lower()}")
        err_counter = self.metrics.counter(f"nfs3.errors.{name.lower()}")

        def dispatch(args, ctx: CallContext):
            # The procedure runs without waiting; what it booked on the
            # disk it waits out before replying, so that wait is the
            # call's whole virtual time from dispatch to reply.
            disk = self.fs.disk
            self.caller = ctx
            if disk is not None:
                disk.start_call()
            try:
                result = serve(args, ctx)
            finally:
                self.caller = None
                wait = disk.finish_call() if disk is not None else 0.0
            if self.metrics.enabled:
                self._op_seconds.observe(wait)
            if wait > 0.0:
                return _reply_after(wait, result)
            return result

        def serve(args, ctx: CallContext):
            if not self.metrics.enabled:
                cred = self._cred_mapper(ctx)
                try:
                    return handler(args, cred)
                except FsError as exc:
                    return exc.code, self._failure_body(args, handler)
            op_counter.inc()
            layers = self.metrics.layers
            layers.push("nfs3")
            try:
                cred = self._cred_mapper(ctx)
                try:
                    return handler(args, cred)
                except FsError as exc:
                    err_counter.inc()
                    return exc.code, self._failure_body(args, handler)
            finally:
                layers.pop()
        return dispatch

    def _failure_body(self, args, handler):
        """Best-effort failure arms (attributes omitted)."""
        empty_wcc = types.WccData.make(before=None, after=None)
        failure_shapes = {
            self._getattr: None,
            self._setattr: types.Record(obj_wcc=empty_wcc),
            self._lookup: types.Record(dir_attributes=None),
            self._access: types.Record(obj_attributes=None),
            self._readlink: types.Record(symlink_attributes=None),
            self._read: types.Record(file_attributes=None),
            self._write: types.Record(file_wcc=empty_wcc),
            self._create: types.Record(dir_wcc=empty_wcc),
            self._mkdir: types.Record(dir_wcc=empty_wcc),
            self._symlink: types.Record(dir_wcc=empty_wcc),
            self._remove: types.Record(dir_wcc=empty_wcc),
            self._rmdir: types.Record(dir_wcc=empty_wcc),
            self._rename: types.Record(fromdir_wcc=empty_wcc, todir_wcc=empty_wcc),
            self._link: types.Record(file_attributes=None, linkdir_wcc=empty_wcc),
            self._readdir: types.Record(dir_attributes=None),
            self._readdirplus: types.Record(dir_attributes=None),
            self._fsstat: types.Record(obj_attributes=None),
            self._fsinfo: types.Record(obj_attributes=None),
            self._pathconf: types.Record(obj_attributes=None),
            self._commit: types.Record(file_wcc=empty_wcc),
            self._readv: types.Record(file_attributes=None),
            self._writev: types.Record(file_wcc=empty_wcc),
        }
        return failure_shapes[handler]

    # --- procedures ---------------------------------------------------------

    def _getattr(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.object)
        return const.NFS3_OK, types.Record(obj_attributes=self._fattr(inode))

    def _setattr(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.object)
        before = self._wcc_attr(inode)
        if args.guard is not None and args.guard.seconds != inode.ctime & 0xFFFFFFFF:
            return const.NFS3ERR_NOT_SYNC, types.Record(
                obj_wcc=self._wcc(before, inode)
            )
        self.fs.setattr(inode.ino, cred, **self._sattr_fields(args.new_attributes))
        self._notify(inode)
        return const.NFS3_OK, types.Record(obj_wcc=self._wcc(before, inode))

    def _lookup(self, args: Record, cred: Cred):
        directory = self._decode_handle(args.what.dir)
        child = self.fs.lookup(directory.ino, args.what.name, cred)
        return const.NFS3_OK, types.Record(
            object=self._encode_handle(child),
            obj_attributes=self._fattr(child),
            dir_attributes=self._fattr(directory),
        )

    def _access(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.object)
        granted = self.fs.access(inode.ino, cred, args.access)
        return const.NFS3_OK, types.Record(
            obj_attributes=self._fattr(inode), access=granted
        )

    def _readlink(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.symlink)
        target = self.fs.readlink(inode.ino, cred)
        return const.NFS3_OK, types.Record(
            symlink_attributes=self._fattr(inode), data=target
        )

    def _read(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.file)
        data, eof = self.fs.read(inode.ino, args.offset, args.count, cred)
        return const.NFS3_OK, types.Record(
            file_attributes=self._fattr(inode),
            count=len(data),
            eof=eof,
            data=data,
        )

    def _write(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.file)
        before = self._wcc_attr(inode)
        data = args.data[: args.count]
        written = self.fs.write(
            inode.ino, args.offset, data, cred,
            sync=args.stable != const.UNSTABLE,
        )
        self._notify(inode)
        return const.NFS3_OK, types.Record(
            file_wcc=self._wcc(before, inode),
            count=written,
            committed=args.stable if args.stable != const.UNSTABLE else const.UNSTABLE,
            verf=self.write_verf,
        )

    def _readv(self, args: Record, cred: Cred):
        """Vectored READ (SFS extension): every segment against one file.

        Segments are independent reads; a failure (bad handle, EACCES)
        fails the whole call, matching the all-or-nothing semantics the
        client's readahead machinery expects.
        """
        inode = self._decode_handle(args.file)
        segments = []
        for seg in args.segments:
            data, eof = self.fs.read(inode.ino, seg.offset, seg.count, cred)
            segments.append(
                types.ReadvSegRes.make(count=len(data), eof=eof, data=data)
            )
        return const.NFS3_OK, types.Record(
            file_attributes=self._fattr(inode), segments=segments
        )

    def _writev(self, args: Record, cred: Cred):
        """Vectored WRITE (SFS extension): gathered dirty ranges.

        All segments share one stability level and one wcc/verf result,
        like a single WRITE covering the gathered bytes.
        """
        inode = self._decode_handle(args.file)
        before = self._wcc_attr(inode)
        sync = args.stable != const.UNSTABLE
        total = 0
        for seg in args.segments:
            total += self.fs.write(
                inode.ino, seg.offset, seg.data, cred, sync=sync
            )
        self._notify(inode)
        return const.NFS3_OK, types.Record(
            file_wcc=self._wcc(before, inode),
            count=total,
            committed=args.stable,
            verf=self.write_verf,
        )

    def _create(self, args: Record, cred: Cred):
        directory = self._decode_handle(args.where.dir)
        before = self._wcc_attr(directory)
        how_disc, how_body = args.how
        exclusive = how_disc == const.EXCLUSIVE
        fields = ({} if exclusive or how_body is None
                  else self._sattr_fields(how_body))
        mode = fields.get("mode")
        if mode is not None:
            fields["mode"] = mode = mode & 0o7777
        existed = args.where.name in (directory.entries or ())
        inode = self.fs.create(directory.ino, args.where.name, cred,
                               mode=0o644 if mode is None else mode,
                               exclusive=exclusive)
        # A new inode is born with its mode, and empty, in one metadata
        # write.  What is left of the sattr3 is what changes a file that
        # already existed (UNCHECKED returns it; a size is O_TRUNC, a
        # permission-checked write even of an empty file): only that
        # costs a second write, and only then does anyone hold a lease
        # on the file that must hear about it.
        changes = {
            name: value for name, value in fields.items()
            if value is not None
            and (name in ("atime", "mtime") or (name == "size" and existed)
                 or value != getattr(inode, name))
        }
        if changes:
            self.fs.setattr(inode.ino, cred, **changes)
            self._notify(inode)
        self._notify(directory)
        return const.NFS3_OK, types.Record(
            obj=self._encode_handle(inode),
            obj_attributes=self._fattr(inode),
            dir_wcc=self._wcc(before, directory),
        )

    def _mkdir(self, args: Record, cred: Cred):
        directory = self._decode_handle(args.where.dir)
        before = self._wcc_attr(directory)
        fields = self._sattr_fields(args.attributes)
        mode = fields["mode"] if fields["mode"] is not None else 0o755
        inode = self.fs.mkdir(directory.ino, args.where.name, cred, mode)
        self._notify(directory)
        return const.NFS3_OK, types.Record(
            obj=self._encode_handle(inode),
            obj_attributes=self._fattr(inode),
            dir_wcc=self._wcc(before, directory),
        )

    def _symlink(self, args: Record, cred: Cred):
        directory = self._decode_handle(args.where.dir)
        before = self._wcc_attr(directory)
        inode = self.fs.symlink(
            directory.ino, args.where.name, args.symlink.symlink_data, cred
        )
        self._notify(directory)
        return const.NFS3_OK, types.Record(
            obj=self._encode_handle(inode),
            obj_attributes=self._fattr(inode),
            dir_wcc=self._wcc(before, directory),
        )

    def _remove(self, args: Record, cred: Cred):
        directory = self._decode_handle(args.object.dir)
        before = self._wcc_attr(directory)
        self.fs.remove(directory.ino, args.object.name, cred)
        self._notify(directory)
        return const.NFS3_OK, types.Record(dir_wcc=self._wcc(before, directory))

    def _rmdir(self, args: Record, cred: Cred):
        directory = self._decode_handle(args.object.dir)
        before = self._wcc_attr(directory)
        self.fs.rmdir(directory.ino, args.object.name, cred)
        self._notify(directory)
        return const.NFS3_OK, types.Record(dir_wcc=self._wcc(before, directory))

    def _rename(self, args: Record, cred: Cred):
        from_dir = self._decode_handle(args.from_.dir)
        to_dir = self._decode_handle(args.to.dir)
        before_from = self._wcc_attr(from_dir)
        before_to = self._wcc_attr(to_dir)
        self.fs.rename(from_dir.ino, args.from_.name, to_dir.ino, args.to.name, cred)
        self._notify(from_dir)
        self._notify(to_dir)
        return const.NFS3_OK, types.Record(
            fromdir_wcc=self._wcc(before_from, from_dir),
            todir_wcc=self._wcc(before_to, to_dir),
        )

    def _link(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.file)
        directory = self._decode_handle(args.link.dir)
        before = self._wcc_attr(directory)
        self.fs.link(inode.ino, directory.ino, args.link.name, cred)
        self._notify(directory)
        self._notify(inode)
        return const.NFS3_OK, types.Record(
            file_attributes=self._fattr(inode),
            linkdir_wcc=self._wcc(before, directory),
        )

    def _readdir(self, args: Record, cred: Cred):
        directory = self._decode_handle(args.dir)
        entries, eof = self.fs.readdir(
            directory.ino, cred, cookie=args.cookie, count=args.count
        )
        records = [
            types.DirEntry.make(fileid=ino, name=name, cookie=cookie)
            for name, ino, cookie in entries
        ]
        return const.NFS3_OK, types.Record(
            dir_attributes=self._fattr(directory),
            cookieverf=_COOKIE_VERF,
            entries=records,
            eof=eof,
        )

    def _readdirplus(self, args: Record, cred: Cred):
        directory = self._decode_handle(args.dir)
        entries, eof = self.fs.readdir(
            directory.ino, cred, cookie=args.cookie, count=args.dircount
        )
        records = []
        for name, ino, cookie in entries:
            child = self.fs.get_inode(ino)
            records.append(
                types.DirEntryPlus.make(
                    fileid=ino,
                    name=name,
                    cookie=cookie,
                    name_attributes=self._fattr(child),
                    name_handle=self._encode_handle(child),
                )
            )
        return const.NFS3_OK, types.Record(
            dir_attributes=self._fattr(directory),
            cookieverf=_COOKIE_VERF,
            entries=records,
            eof=eof,
        )

    def _fsstat(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.fsroot)
        stats = self.fs.statfs()
        return const.NFS3_OK, types.Record(
            obj_attributes=self._fattr(inode), invarsec=0, **stats
        )

    def _fsinfo(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.fsroot)
        return const.NFS3_OK, types.Record(
            obj_attributes=self._fattr(inode),
            rtmax=65536, rtpref=8192, rtmult=512,
            wtmax=65536, wtpref=8192, wtmult=512,
            dtpref=8192,
            maxfilesize=1 << 62,
            time_delta=types.NfsTime.make(seconds=0, nseconds=1),
            properties=(
                const.FSF3_LINK | const.FSF3_SYMLINK
                | const.FSF3_HOMOGENEOUS | const.FSF3_CANSETTIME
            ),
        )

    def _pathconf(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.object)
        return const.NFS3_OK, types.Record(
            obj_attributes=self._fattr(inode),
            linkmax=32767, name_max=255,
            no_trunc=True, chown_restricted=True,
            case_insensitive=False, case_preserving=True,
        )

    def _commit(self, args: Record, cred: Cred):
        inode = self._decode_handle(args.file)
        before = self._wcc_attr(inode)
        self.fs.commit(inode.ino)
        return const.NFS3_OK, types.Record(
            file_wcc=self._wcc(before, inode), verf=self.write_verf
        )
