"""A typed NFS version 3 client.

This is the piece the simulated kernel uses to talk to file servers —
both directly (the plain-NFS baselines) and to the local SFS client
daemon over the loopback (the paper's portability trick: "We achieved
portability by running in user space and speaking an existing network
file system protocol (NFS 3) to the local machine").
"""

from __future__ import annotations

from ..rpc.peer import RpcError, RpcPeer
from ..rpc.rpcmsg import AuthSys, NULL_AUTH, OpaqueAuth
from ..rpc.xdr import Record, VOID
from . import const, types


class Nfs3Error(Exception):
    """A non-OK NFS status, carrying the numeric code and failure body."""

    def __init__(self, status: int, body: Record | None = None) -> None:
        super().__init__(f"NFS3 error {status}")
        self.status = status
        self.body = body


class Nfs3Client:
    """Typed procedure stubs over an :class:`RpcPeer`: generators over
    :meth:`RpcPeer.call_task` (``yield from client.read(...)``)."""

    def __init__(self, peer: RpcPeer, cred: OpaqueAuth | AuthSys = NULL_AUTH) -> None:
        self.peer = peer
        self.cred = cred.to_auth() if isinstance(cred, AuthSys) else cred

    def with_cred(self, cred: OpaqueAuth | AuthSys) -> "Nfs3Client":
        """A view of the same connection under different credentials."""
        return Nfs3Client(self.peer, cred)

    def _call(self, proc: int, args):
        arg_codec, res_codec = types.PROC_CODECS[proc]
        try:
            result = yield from self.peer.call_task(
                const.NFS3_PROGRAM, const.NFS3_VERSION, proc,
                arg_codec, args, res_codec, cred=self.cred,
            )
        except RpcError:
            # Dropped/rejected records (e.g. an attacker tampering below
            # the secure channel) surface as I/O errors — the paper's
            # "attackers can do no worse than delay operation".
            raise Nfs3Error(const.NFS3ERR_IO) from None
        if proc == const.NFSPROC3_NULL:
            return None
        status, body = result
        if status != const.NFS3_OK:
            raise Nfs3Error(status, body)
        return body

    # --- procedures --------------------------------------------------------

    def null(self):
        yield from self.peer.call_task(
            const.NFS3_PROGRAM, const.NFS3_VERSION, const.NFSPROC3_NULL,
            VOID, None, VOID, cred=self.cred,
        )

    def getattr(self, handle: bytes) -> Record:
        body = yield from self._call(
            const.NFSPROC3_GETATTR, types.GetAttrArgs.make(object=handle)
        )
        return body.obj_attributes

    def setattr(self, handle: bytes, attrs: Record,
                guard_ctime: int | None = None) -> Record:
        guard = (
            types.NfsTime.make(seconds=guard_ctime, nseconds=0)
            if guard_ctime is not None
            else None
        )
        return self._call(
            const.NFSPROC3_SETATTR,
            types.SetAttrArgs.make(object=handle, new_attributes=attrs, guard=guard),
        )

    def lookup(self, dir_handle: bytes, name: str) -> Record:
        return self._call(
            const.NFSPROC3_LOOKUP,
            types.LookupArgs.make(
                what=types.DirOpArgs.make(dir=dir_handle, name=name)
            ),
        )

    def access(self, handle: bytes, mask: int) -> int:
        body = yield from self._call(
            const.NFSPROC3_ACCESS, types.AccessArgs.make(object=handle, access=mask)
        )
        return body.access

    def readlink(self, handle: bytes) -> str:
        body = yield from self._call(
            const.NFSPROC3_READLINK, types.ReadlinkArgs.make(symlink=handle)
        )
        return body.data

    def read(self, handle: bytes, offset: int, count: int) -> Record:
        return self._call(
            const.NFSPROC3_READ,
            types.ReadArgs.make(file=handle, offset=offset, count=count),
        )

    def write(self, handle: bytes, offset: int, data: bytes,
              stable: int = const.UNSTABLE) -> Record:
        return self._call(
            const.NFSPROC3_WRITE,
            types.WriteArgs.make(
                file=handle, offset=offset, count=len(data),
                stable=stable, data=data,
            ),
        )

    def readv(self, handle: bytes,
              segments: list[tuple[int, int]]) -> Record:
        """Vectored READ (SFS extension): ``segments`` is a list of
        ``(offset, count)`` pairs fetched in one RPC."""
        return self._call(
            const.NFSPROC3_READV,
            types.ReadvArgs.make(
                file=handle,
                segments=[
                    types.ReadvSeg.make(offset=offset, count=count)
                    for offset, count in segments
                ],
            ),
        )

    def writev(self, handle: bytes, segments: list[tuple[int, bytes]],
               stable: int = const.UNSTABLE) -> Record:
        """Vectored WRITE (SFS extension): ``segments`` is a list of
        ``(offset, data)`` pairs written in one RPC under one stability
        level."""
        return self._call(
            const.NFSPROC3_WRITEV,
            types.WritevArgs.make(
                file=handle,
                stable=stable,
                segments=[
                    types.WritevSeg.make(offset=offset, data=data)
                    for offset, data in segments
                ],
            ),
        )

    def create(self, dir_handle: bytes, name: str, mode: int = 0o644,
               exclusive: bool = False, size: int | None = None) -> Record:
        """CREATE; UNCHECKED unless *exclusive*.  *size* rides in the
        same ``sattr3`` as *mode* (``size=0`` is O_TRUNC); an EXCLUSIVE
        create carries a verifier instead of attributes."""
        if exclusive:
            how = (const.EXCLUSIVE, b"\x00" * 8)
        else:
            how = (const.UNCHECKED, types.sattr(mode=mode, size=size))
        return self._call(
            const.NFSPROC3_CREATE,
            types.CreateArgs.make(
                where=types.DirOpArgs.make(dir=dir_handle, name=name), how=how
            ),
        )

    def mkdir(self, dir_handle: bytes, name: str, mode: int = 0o755) -> Record:
        return self._call(
            const.NFSPROC3_MKDIR,
            types.MkdirArgs.make(
                where=types.DirOpArgs.make(dir=dir_handle, name=name),
                attributes=types.sattr(mode=mode),
            ),
        )

    def symlink(self, dir_handle: bytes, name: str, target: str) -> Record:
        return self._call(
            const.NFSPROC3_SYMLINK,
            types.SymlinkArgs.make(
                where=types.DirOpArgs.make(dir=dir_handle, name=name),
                symlink=types.SymlinkData.make(
                    symlink_attributes=types.sattr(), symlink_data=target
                ),
            ),
        )

    def remove(self, dir_handle: bytes, name: str) -> Record:
        return self._call(
            const.NFSPROC3_REMOVE,
            types.RemoveArgs.make(
                object=types.DirOpArgs.make(dir=dir_handle, name=name)
            ),
        )

    def rmdir(self, dir_handle: bytes, name: str) -> Record:
        return self._call(
            const.NFSPROC3_RMDIR,
            types.RemoveArgs.make(
                object=types.DirOpArgs.make(dir=dir_handle, name=name)
            ),
        )

    def rename(self, from_dir: bytes, from_name: str,
               to_dir: bytes, to_name: str) -> Record:
        return self._call(
            const.NFSPROC3_RENAME,
            types.RenameArgs.make(
                from_=types.DirOpArgs.make(dir=from_dir, name=from_name),
                to=types.DirOpArgs.make(dir=to_dir, name=to_name),
            ),
        )

    def link(self, file_handle: bytes, dir_handle: bytes, name: str) -> Record:
        return self._call(
            const.NFSPROC3_LINK,
            types.LinkArgs.make(
                file=file_handle,
                link=types.DirOpArgs.make(dir=dir_handle, name=name),
            ),
        )

    def readdir(self, dir_handle: bytes, cookie: int = 0,
                count: int = 65536) -> Record:
        return self._call(
            const.NFSPROC3_READDIR,
            types.ReaddirArgs.make(
                dir=dir_handle, cookie=cookie,
                cookieverf=b"\x00" * 8, count=count,
            ),
        )

    def readdirplus(self, dir_handle: bytes, cookie: int = 0,
                    dircount: int = 65536, maxcount: int = 65536) -> Record:
        return self._call(
            const.NFSPROC3_READDIRPLUS,
            types.ReaddirPlusArgs.make(
                dir=dir_handle, cookie=cookie, cookieverf=b"\x00" * 8,
                dircount=dircount, maxcount=maxcount,
            ),
        )

    def fsstat(self, root_handle: bytes) -> Record:
        return self._call(
            const.NFSPROC3_FSSTAT, types.FsStatArgs.make(fsroot=root_handle)
        )

    def fsinfo(self, root_handle: bytes) -> Record:
        return self._call(
            const.NFSPROC3_FSINFO, types.FsInfoArgs.make(fsroot=root_handle)
        )

    def pathconf(self, handle: bytes) -> Record:
        return self._call(
            const.NFSPROC3_PATHCONF, types.PathConfArgs.make(object=handle)
        )

    def commit(self, handle: bytes, offset: int = 0, count: int = 0) -> Record:
        return self._call(
            const.NFSPROC3_COMMIT,
            types.CommitArgs.make(file=handle, offset=offset, count=count),
        )
