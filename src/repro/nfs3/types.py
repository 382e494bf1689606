"""NFS version 3 data types as XDR codecs (RFC 1813 section 2.5/3.3).

Every procedure's argument and result structure is defined here with the
codec combinators from :mod:`repro.rpc.xdr`.  Results follow the RFC's
discriminated-union convention: ``(NFS3_OK, ok_body)`` or
``(errstat, fail_body)``.

XDR linked lists (READDIR entries) are :class:`~repro.rpc.xdr.LinkedList`:
a Python list as the bool-chained representation the RFC specifies.

The declarations are the only description of NFS 3 in the tree: each
procedure's failure arm (:func:`failure_arm`) and where its file
handles sit (:data:`ARG_HANDLES`, :data:`RES_HANDLES`,
:data:`ENTRY_HANDLES`) are derived from them at import.
"""

from __future__ import annotations

from ..rpc.xdr import (
    Array,
    Bool,
    Codec,
    Enum,
    FixedOpaque,
    LinkedList,
    Opaque,
    Optional,
    Record,
    String,
    Struct,
    UHyper,
    UInt32,
    Union,
    VOID,
)
from . import const

NfsFh = Opaque(const.NFS3_FHSIZE)
Filename = String()
NfsPath = String()
Cookieverf = FixedOpaque(const.NFS3_COOKIEVERFSIZE)
Createverf = FixedOpaque(const.NFS3_CREATEVERFSIZE)
Writeverf = FixedOpaque(const.NFS3_WRITEVERFSIZE)

NfsTime = Struct("nfstime3", [("seconds", UInt32), ("nseconds", UInt32)])

SpecData = Struct("specdata3", [("major", UInt32), ("minor", UInt32)])

Fattr = Struct(
    "fattr3",
    [
        ("type", UInt32),
        ("mode", UInt32),
        ("nlink", UInt32),
        ("uid", UInt32),
        ("gid", UInt32),
        ("size", UHyper),
        ("used", UHyper),
        ("rdev", SpecData),
        ("fsid", UHyper),
        ("fileid", UHyper),
        ("atime", NfsTime),
        ("mtime", NfsTime),
        ("ctime", NfsTime),
    ],
)

PostOpAttr = Optional(Fattr)

WccAttr = Struct(
    "wcc_attr",
    [("size", UHyper), ("mtime", NfsTime), ("ctime", NfsTime)],
)

PreOpAttr = Optional(WccAttr)

WccData = Struct("wcc_data", [("before", PreOpAttr), ("after", PostOpAttr)])

PostOpFh = Optional(NfsFh)

# sattr3: six independently-optional fields; atime/mtime use the
# three-way time union (DONT_CHANGE / SET_TO_SERVER_TIME / SET_TO_CLIENT_TIME).
DONT_CHANGE = 0
SET_TO_SERVER_TIME = 1
SET_TO_CLIENT_TIME = 2

SetTime = Union(
    "set_time",
    {DONT_CHANGE: None, SET_TO_SERVER_TIME: None, SET_TO_CLIENT_TIME: NfsTime},
)

Sattr = Struct(
    "sattr3",
    [
        ("mode", Optional(UInt32)),
        ("uid", Optional(UInt32)),
        ("gid", Optional(UInt32)),
        ("size", Optional(UHyper)),
        ("atime", SetTime),
        ("mtime", SetTime),
    ],
)


def sattr(mode: int | None = None, uid: int | None = None, gid: int | None = None,
          size: int | None = None, atime: int | None = None,
          mtime: int | None = None) -> Record:
    """Convenience builder for sattr3 records."""
    def time_arm(value: int | None):
        if value is None:
            return (DONT_CHANGE, None)
        return (SET_TO_CLIENT_TIME, NfsTime.make(seconds=value, nseconds=0))

    return Sattr.make(
        mode=mode, uid=uid, gid=gid, size=size,
        atime=time_arm(atime), mtime=time_arm(mtime),
    )


DirOpArgs = Struct("diropargs3", [("dir", NfsFh), ("name", Filename)])


def _result(name: str, ok: Codec | None, fail: Codec | None) -> Union:
    """Standard NFS3 result union: OK arm + default failure arm."""
    return Union(name, {const.NFS3_OK: ok}, default=fail)


# GETATTR
GetAttrArgs = Struct("GETATTR3args", [("object", NfsFh)])
GetAttrRes = _result("GETATTR3res", Struct("GETATTR3resok", [("obj_attributes", Fattr)]), None)

# SETATTR
SetAttrArgs = Struct(
    "SETATTR3args",
    [
        ("object", NfsFh),
        ("new_attributes", Sattr),
        ("guard", Optional(NfsTime)),
    ],
)
SetAttrRes = _result(
    "SETATTR3res",
    Struct("SETATTR3resok", [("obj_wcc", WccData)]),
    Struct("SETATTR3resfail", [("obj_wcc", WccData)]),
)

# LOOKUP
LookupArgs = Struct("LOOKUP3args", [("what", DirOpArgs)])
LookupRes = _result(
    "LOOKUP3res",
    Struct(
        "LOOKUP3resok",
        [
            ("object", NfsFh),
            ("obj_attributes", PostOpAttr),
            ("dir_attributes", PostOpAttr),
        ],
    ),
    Struct("LOOKUP3resfail", [("dir_attributes", PostOpAttr)]),
)

# ACCESS
AccessArgs = Struct("ACCESS3args", [("object", NfsFh), ("access", UInt32)])
AccessRes = _result(
    "ACCESS3res",
    Struct("ACCESS3resok", [("obj_attributes", PostOpAttr), ("access", UInt32)]),
    Struct("ACCESS3resfail", [("obj_attributes", PostOpAttr)]),
)

# READLINK
ReadlinkArgs = Struct("READLINK3args", [("symlink", NfsFh)])
ReadlinkRes = _result(
    "READLINK3res",
    Struct(
        "READLINK3resok",
        [("symlink_attributes", PostOpAttr), ("data", NfsPath)],
    ),
    Struct("READLINK3resfail", [("symlink_attributes", PostOpAttr)]),
)

# READ
ReadArgs = Struct(
    "READ3args", [("file", NfsFh), ("offset", UHyper), ("count", UInt32)]
)
ReadRes = _result(
    "READ3res",
    Struct(
        "READ3resok",
        [
            ("file_attributes", PostOpAttr),
            ("count", UInt32),
            ("eof", Bool),
            ("data", Opaque()),
        ],
    ),
    Struct("READ3resfail", [("file_attributes", PostOpAttr)]),
)

# WRITE
WriteArgs = Struct(
    "WRITE3args",
    [
        ("file", NfsFh),
        ("offset", UHyper),
        ("count", UInt32),
        ("stable", Enum(const.UNSTABLE, const.DATA_SYNC, const.FILE_SYNC)),
        ("data", Opaque()),
    ],
)
WriteRes = _result(
    "WRITE3res",
    Struct(
        "WRITE3resok",
        [
            ("file_wcc", WccData),
            ("count", UInt32),
            ("committed", UInt32),
            ("verf", Writeverf),
        ],
    ),
    Struct("WRITE3resfail", [("file_wcc", WccData)]),
)

# CREATE
CreateHow = Union(
    "createhow3",
    {
        const.UNCHECKED: Sattr,
        const.GUARDED: Sattr,
        const.EXCLUSIVE: Createverf,
    },
)
CreateArgs = Struct("CREATE3args", [("where", DirOpArgs), ("how", CreateHow)])
CreateRes = _result(
    "CREATE3res",
    Struct(
        "CREATE3resok",
        [("obj", PostOpFh), ("obj_attributes", PostOpAttr), ("dir_wcc", WccData)],
    ),
    Struct("CREATE3resfail", [("dir_wcc", WccData)]),
)

# MKDIR
MkdirArgs = Struct("MKDIR3args", [("where", DirOpArgs), ("attributes", Sattr)])
MkdirRes = CreateRes  # same shape

# SYMLINK
SymlinkData = Struct(
    "symlinkdata3", [("symlink_attributes", Sattr), ("symlink_data", NfsPath)]
)
SymlinkArgs = Struct("SYMLINK3args", [("where", DirOpArgs), ("symlink", SymlinkData)])
SymlinkRes = CreateRes  # same shape

# REMOVE / RMDIR
RemoveArgs = Struct("REMOVE3args", [("object", DirOpArgs)])
RemoveRes = _result(
    "REMOVE3res",
    Struct("REMOVE3resok", [("dir_wcc", WccData)]),
    Struct("REMOVE3resfail", [("dir_wcc", WccData)]),
)

# RENAME
RenameArgs = Struct("RENAME3args", [("from_", DirOpArgs), ("to", DirOpArgs)])
RenameRes = _result(
    "RENAME3res",
    Struct("RENAME3resok", [("fromdir_wcc", WccData), ("todir_wcc", WccData)]),
    Struct("RENAME3resfail", [("fromdir_wcc", WccData), ("todir_wcc", WccData)]),
)

# LINK
LinkArgs = Struct("LINK3args", [("file", NfsFh), ("link", DirOpArgs)])
LinkRes = _result(
    "LINK3res",
    Struct("LINK3resok", [("file_attributes", PostOpAttr), ("linkdir_wcc", WccData)]),
    Struct("LINK3resfail", [("file_attributes", PostOpAttr), ("linkdir_wcc", WccData)]),
)

# READDIR
ReaddirArgs = Struct(
    "READDIR3args",
    [
        ("dir", NfsFh),
        ("cookie", UHyper),
        ("cookieverf", Cookieverf),
        ("count", UInt32),
    ],
)
DirEntry = Struct(
    "entry3", [("fileid", UHyper), ("name", Filename), ("cookie", UHyper)]
)
ReaddirRes = _result(
    "READDIR3res",
    Struct(
        "READDIR3resok",
        [
            ("dir_attributes", PostOpAttr),
            ("cookieverf", Cookieverf),
            ("entries", LinkedList(DirEntry)),
            ("eof", Bool),
        ],
    ),
    Struct("READDIR3resfail", [("dir_attributes", PostOpAttr)]),
)

# READDIRPLUS
ReaddirPlusArgs = Struct(
    "READDIRPLUS3args",
    [
        ("dir", NfsFh),
        ("cookie", UHyper),
        ("cookieverf", Cookieverf),
        ("dircount", UInt32),
        ("maxcount", UInt32),
    ],
)
DirEntryPlus = Struct(
    "entryplus3",
    [
        ("fileid", UHyper),
        ("name", Filename),
        ("cookie", UHyper),
        ("name_attributes", PostOpAttr),
        ("name_handle", PostOpFh),
    ],
)
ReaddirPlusRes = _result(
    "READDIRPLUS3res",
    Struct(
        "READDIRPLUS3resok",
        [
            ("dir_attributes", PostOpAttr),
            ("cookieverf", Cookieverf),
            ("entries", LinkedList(DirEntryPlus)),
            ("eof", Bool),
        ],
    ),
    Struct("READDIRPLUS3resfail", [("dir_attributes", PostOpAttr)]),
)

# FSSTAT
FsStatArgs = Struct("FSSTAT3args", [("fsroot", NfsFh)])
FsStatRes = _result(
    "FSSTAT3res",
    Struct(
        "FSSTAT3resok",
        [
            ("obj_attributes", PostOpAttr),
            ("tbytes", UHyper),
            ("fbytes", UHyper),
            ("abytes", UHyper),
            ("tfiles", UHyper),
            ("ffiles", UHyper),
            ("afiles", UHyper),
            ("invarsec", UInt32),
        ],
    ),
    Struct("FSSTAT3resfail", [("obj_attributes", PostOpAttr)]),
)

# FSINFO
FsInfoArgs = Struct("FSINFO3args", [("fsroot", NfsFh)])
FsInfoRes = _result(
    "FSINFO3res",
    Struct(
        "FSINFO3resok",
        [
            ("obj_attributes", PostOpAttr),
            ("rtmax", UInt32),
            ("rtpref", UInt32),
            ("rtmult", UInt32),
            ("wtmax", UInt32),
            ("wtpref", UInt32),
            ("wtmult", UInt32),
            ("dtpref", UInt32),
            ("maxfilesize", UHyper),
            ("time_delta", NfsTime),
            ("properties", UInt32),
        ],
    ),
    Struct("FSINFO3resfail", [("obj_attributes", PostOpAttr)]),
)

# PATHCONF
PathConfArgs = Struct("PATHCONF3args", [("object", NfsFh)])
PathConfRes = _result(
    "PATHCONF3res",
    Struct(
        "PATHCONF3resok",
        [
            ("obj_attributes", PostOpAttr),
            ("linkmax", UInt32),
            ("name_max", UInt32),
            ("no_trunc", Bool),
            ("chown_restricted", Bool),
            ("case_insensitive", Bool),
            ("case_preserving", Bool),
        ],
    ),
    Struct("PATHCONF3resfail", [("obj_attributes", PostOpAttr)]),
)

# READV / WRITEV — SFS extension (procs 22/23): vectored READ/WRITE.
# One call carries a whole window of segments against one file handle,
# so the secure channel MACs/encrypts a single record instead of N and
# the per-RPC latency is paid once per window.  Wire format reuses the
# XDR optional-data chain (same encoding as READDIR entries), keeping
# the extension expressible in plain RFC-1813 XDR.
ReadvSeg = Struct("readv3seg", [("offset", UHyper), ("count", UInt32)])
ReadvArgs = Struct(
    "READV3args", [("file", NfsFh), ("segments", LinkedList(ReadvSeg))]
)
ReadvSegRes = Struct(
    "readv3segres", [("count", UInt32), ("eof", Bool), ("data", Opaque())]
)
ReadvRes = _result(
    "READV3res",
    Struct(
        "READV3resok",
        [
            ("file_attributes", PostOpAttr),
            ("segments", LinkedList(ReadvSegRes)),
        ],
    ),
    Struct("READV3resfail", [("file_attributes", PostOpAttr)]),
)

WritevSeg = Struct("writev3seg", [("offset", UHyper), ("data", Opaque())])
WritevArgs = Struct(
    "WRITEV3args",
    [
        ("file", NfsFh),
        ("stable", Enum(const.UNSTABLE, const.DATA_SYNC, const.FILE_SYNC)),
        ("segments", LinkedList(WritevSeg)),
    ],
)
WritevRes = _result(
    "WRITEV3res",
    Struct(
        "WRITEV3resok",
        [
            ("file_wcc", WccData),
            ("count", UInt32),
            ("committed", UInt32),
            ("verf", Writeverf),
        ],
    ),
    Struct("WRITEV3resfail", [("file_wcc", WccData)]),
)

# COMMIT
CommitArgs = Struct(
    "COMMIT3args", [("file", NfsFh), ("offset", UHyper), ("count", UInt32)]
)
CommitRes = _result(
    "COMMIT3res",
    Struct("COMMIT3resok", [("file_wcc", WccData), ("verf", Writeverf)]),
    Struct("COMMIT3resfail", [("file_wcc", WccData)]),
)

#: (arg_codec, res_codec) per procedure number, for generic relays.
PROC_CODECS: dict[int, tuple[Codec, Codec]] = {
    const.NFSPROC3_NULL: (VOID, VOID),
    const.NFSPROC3_GETATTR: (GetAttrArgs, GetAttrRes),
    const.NFSPROC3_SETATTR: (SetAttrArgs, SetAttrRes),
    const.NFSPROC3_LOOKUP: (LookupArgs, LookupRes),
    const.NFSPROC3_ACCESS: (AccessArgs, AccessRes),
    const.NFSPROC3_READLINK: (ReadlinkArgs, ReadlinkRes),
    const.NFSPROC3_READ: (ReadArgs, ReadRes),
    const.NFSPROC3_WRITE: (WriteArgs, WriteRes),
    const.NFSPROC3_CREATE: (CreateArgs, CreateRes),
    const.NFSPROC3_MKDIR: (MkdirArgs, MkdirRes),
    const.NFSPROC3_SYMLINK: (SymlinkArgs, SymlinkRes),
    const.NFSPROC3_REMOVE: (RemoveArgs, RemoveRes),
    const.NFSPROC3_RMDIR: (RemoveArgs, RemoveRes),
    const.NFSPROC3_RENAME: (RenameArgs, RenameRes),
    const.NFSPROC3_LINK: (LinkArgs, LinkRes),
    const.NFSPROC3_READDIR: (ReaddirArgs, ReaddirRes),
    const.NFSPROC3_READDIRPLUS: (ReaddirPlusArgs, ReaddirPlusRes),
    const.NFSPROC3_FSSTAT: (FsStatArgs, FsStatRes),
    const.NFSPROC3_FSINFO: (FsInfoArgs, FsInfoRes),
    const.NFSPROC3_PATHCONF: (PathConfArgs, PathConfRes),
    const.NFSPROC3_COMMIT: (CommitArgs, CommitRes),
    const.NFSPROC3_READV: (ReadvArgs, ReadvRes),
    const.NFSPROC3_WRITEV: (WritevArgs, WritevRes),
}


# --- facts derived from the declarations ------------------------------------

def _empty_shape(codec: Codec) -> tuple:
    """The field names of a *codec* struct with nothing known: an
    ``Optional`` field is absent (None), a ``Struct`` one emptied alike."""
    if not isinstance(codec, Struct):
        raise TypeError(f"no empty value for a failure arm's {codec!r}")
    return tuple((name, None if isinstance(field, Optional)
                  else _empty_shape(field)) for name, field in codec.fields)


def _fresh(shape: tuple) -> Record:
    return Record(**{name: None if inner is None else _fresh(inner)
                     for name, inner in shape})


#: proc -> the empty shape of its result union's default (failure) arm;
#: None for a void arm (GETATTR).
_FAILURE_SHAPES = {
    proc: None if res.default is None else _empty_shape(res.default)
    for proc, (_args, res) in PROC_CODECS.items() if isinstance(res, Union)
}


def failure_arm(proc: int) -> Record | None:
    """The body of *proc*'s failure arm with every attribute omitted: a
    fresh record on every call, since relays rewrite replies in place."""
    shape = _FAILURE_SHAPES[proc]
    return None if shape is None else _fresh(shape)


def _handle_sites(codec: Codec, path: tuple[str, ...] = ()):
    """Where a *codec* value carries file handles, in declaration order:
    ``(path, optional)`` for each ``NfsFh``/``PostOpFh`` reached through
    structs, and ``(path, sites)`` for each list whose elements carry
    some (*sites* within one element)."""
    if codec is NfsFh or codec is PostOpFh:
        return [(path, codec is PostOpFh)], []
    if isinstance(codec, LinkedList):
        inner, _lists = _handle_sites(codec.element)
        return [], [(path, tuple(inner))] if inner else []
    sites, lists = [], []
    for name, field in codec.fields if isinstance(codec, Struct) else ():
        more, more_lists = _handle_sites(field, path + (name,))
        sites += more
        lists += more_lists
    return sites, lists


#: proc -> its handle sites in the arguments, and in the OK result; and
#: the lists of handle-carrying entries in the OK result (READDIRPLUS).
#: Read only through :mod:`repro.core.handlemap`.
ARG_HANDLES: dict[int, tuple] = {}
RES_HANDLES: dict[int, tuple] = {}
ENTRY_HANDLES: dict[int, tuple] = {}
for _proc, (_args, _res) in PROC_CODECS.items():
    _ok = _res.arms[const.NFS3_OK] if isinstance(_res, Union) else VOID
    for _table, _found in ((ARG_HANDLES, _handle_sites(_args)[0]),
                           (RES_HANDLES, _handle_sites(_ok)[0]),
                           (ENTRY_HANDLES, _handle_sites(_ok)[1])):
        if _found:
            _table[_proc] = tuple(_found)
del _proc, _args, _res, _ok, _table, _found
