"""An in-memory Unix file system.

This is the storage substrate behind every NFS server in the repository —
the role FreeBSD's FFS played in the paper's testbed.  It implements
inodes, directories, symbolic links, Unix permission checks, atomic
rename, hard links, sparse files (block-granular, so the paper's
1,000-Mbyte sparse-read benchmark costs no memory), and device/inode
numbers "as many file utilities expect" (paper section 3.3).

Timing is optional: bind a :class:`repro.sim.disk.Disk` and the file
system charges simulated seek/transfer time, with synchronous metadata
updates (create/remove/rename pay a sync write, like FFS) and write-back
data.  Status codes deliberately match NFS version 3 error numbers so the
NFS server layer maps them one-to-one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from ..sim.disk import Disk

# File types (match NFS3 ftype3 values).
NF_REG = 1
NF_DIR = 2
NF_BLK = 3
NF_CHR = 4
NF_LNK = 5
NF_SOCK = 6
NF_FIFO = 7

# Status codes (match NFS3 nfsstat3 values).
OK = 0
ERR_PERM = 1
ERR_NOENT = 2
ERR_IO = 5
ERR_ACCES = 13
ERR_EXIST = 17
ERR_XDEV = 18
ERR_NOTDIR = 20
ERR_ISDIR = 21
ERR_INVAL = 22
ERR_FBIG = 27
ERR_NOSPC = 28
ERR_ROFS = 30
ERR_NAMETOOLONG = 63
ERR_NOTEMPTY = 66
ERR_STALE = 70
ERR_BADHANDLE = 10001
ERR_NOTSUPP = 10004

_NAME_MAX = 255
_BLOCK = 4096

# access() mask bits (match NFS3 ACCESS3_*).
ACCESS_READ = 0x01
ACCESS_LOOKUP = 0x02
ACCESS_MODIFY = 0x04
ACCESS_EXTEND = 0x08
ACCESS_DELETE = 0x10
ACCESS_EXECUTE = 0x20


class FsError(Exception):
    """A file system failure carrying an NFS3-compatible status code."""

    def __init__(self, code: int, message: str = "") -> None:
        super().__init__(message or f"fs error {code}")
        self.code = code


@dataclass(frozen=True)
class Cred:
    """Unix credentials used for permission checks."""

    uid: int = 0
    gid: int = 0
    groups: tuple[int, ...] = ()

    @property
    def is_superuser(self) -> bool:
        return self.uid == 0

    def in_group(self, gid: int) -> bool:
        return gid == self.gid or gid in self.groups


ANONYMOUS = Cred(uid=0xFFFE, gid=0xFFFE)


class FileData:
    """Sparse file contents stored as 4-KB blocks; holes read as zeros."""

    def __init__(self) -> None:
        self._blocks: dict[int, bytearray] = {}
        self.size = 0

    def read(self, offset: int, count: int) -> bytes:
        if offset >= self.size:
            return b""
        count = min(count, self.size - offset)
        out = bytearray(count)
        position = 0
        while position < count:
            absolute = offset + position
            block_index, block_offset = divmod(absolute, _BLOCK)
            take = min(_BLOCK - block_offset, count - position)
            block = self._blocks.get(block_index)
            if block is not None:
                out[position : position + take] = block[
                    block_offset : block_offset + take
                ]
            position += take
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        position = 0
        while position < len(data):
            absolute = offset + position
            block_index, block_offset = divmod(absolute, _BLOCK)
            take = min(_BLOCK - block_offset, len(data) - position)
            block = self._blocks.get(block_index)
            if block is None:
                block = bytearray(_BLOCK)
                self._blocks[block_index] = block
            block[block_offset : block_offset + take] = data[
                position : position + take
            ]
            position += take
        self.size = max(self.size, offset + len(data))

    def allocated_in(self, offset: int, count: int) -> int:
        """How many bytes in [offset, offset+count) are backed by blocks.

        Reads of holes cost no disk time — the paper's throughput test
        reads a sparse 1,000-MB file precisely to avoid the disk.
        """
        if count <= 0:
            return 0
        first = offset // _BLOCK
        last = (offset + count - 1) // _BLOCK
        return sum(
            _BLOCK for index in range(first, last + 1)
            if index in self._blocks
        )

    def truncate(self, size: int) -> None:
        if size < self.size:
            last_block, last_offset = divmod(size, _BLOCK)
            for index in [i for i in self._blocks if i > last_block]:
                del self._blocks[index]
            if last_offset and last_block in self._blocks:
                block = self._blocks[last_block]
                block[last_offset:] = bytes(_BLOCK - last_offset)
            elif not last_offset:
                self._blocks.pop(last_block, None)
        self.size = size

    @property
    def allocated_bytes(self) -> int:
        return len(self._blocks) * _BLOCK

    def checksum(self) -> int:
        """CRC-32 over size and allocated blocks (holes excluded).

        Walking only allocated blocks keeps this affordable for the
        paper's 1,000-MB sparse benchmark file.
        """
        crc = zlib.crc32(self.size.to_bytes(8, "big"))
        for index in sorted(self._blocks):
            crc = zlib.crc32(index.to_bytes(8, "big"), crc)
            crc = zlib.crc32(bytes(self._blocks[index]), crc)
        return crc


@dataclass
class Inode:
    """One file system object."""

    ino: int
    ftype: int
    mode: int
    uid: int
    gid: int
    nlink: int = 1
    atime: int = 0
    mtime: int = 0
    ctime: int = 0
    generation: int = 1
    data: FileData | None = None
    entries: dict[str, int] | None = None
    parent: int = 0  # directories remember their parent for ".."
    target: str = ""  # symlink target
    rdev: tuple[int, int] = (0, 0)

    @property
    def size(self) -> int:
        if self.ftype == NF_REG:
            assert self.data is not None
            return self.data.size
        if self.ftype == NF_LNK:
            return len(self.target)
        if self.ftype == NF_DIR:
            assert self.entries is not None
            return 512 + 24 * len(self.entries)
        return 0

    @property
    def is_dir(self) -> bool:
        return self.ftype == NF_DIR


@dataclass
class _UndoRecord:
    """Enough state to reverse one un-committed data write."""

    offset: int
    old_data: bytes
    old_size: int
    new_bytes: int


@dataclass
class JournalRecord:
    """One committed flush: what the file looked like when it became
    durable.  Recovery verifies the latest record per inode against the
    post-rollback contents — a torn record is discarded instead."""

    seq: int
    ino: int
    generation: int
    size: int
    crc: int
    torn: bool = field(default=False)


class BufferCache:
    """A block-granular buffer cache for disk-time accounting.

    Tracks which (inode, block) pairs are resident in server memory:
    reads of resident blocks cost no disk time; misses charge the disk
    and insert.  Simple FIFO eviction at a fixed capacity, standing in
    for the machine's page cache (the paper's server had 256 MB).
    """

    def __init__(self, capacity_blocks: int = 16384) -> None:
        self._capacity = capacity_blocks
        self._resident: dict[tuple[int, int], None] = {}

    def contains(self, ino: int, block: int) -> bool:
        return (ino, block) in self._resident

    def insert(self, ino: int, block: int) -> None:
        key = (ino, block)
        if key in self._resident:
            return
        if len(self._resident) >= self._capacity:
            oldest = next(iter(self._resident))
            del self._resident[oldest]
        self._resident[key] = None


class MemFs:
    """The file system proper; all methods take inode numbers."""

    def __init__(
        self,
        fsid: int = 1,
        disk: Disk | None = None,
        read_only: bool = False,
        total_bytes: int = 8 << 30,
    ) -> None:
        self.fsid = fsid
        self.disk = disk
        self.read_only = read_only
        self.total_bytes = total_bytes
        self.buffer_cache = BufferCache()
        self._inodes: dict[int, Inode] = {}
        self._next_ino = 2
        self._time = 1
        # Durability split: data writes are volatile until a flush
        # (COMMIT, FILE_SYNC write, or truncate) makes them durable.
        # The undo log reverses whatever a crash would lose; the
        # journal records what each flush made durable.
        self._uncommitted: dict[int, list[_UndoRecord]] = {}
        self._journal: list[JournalRecord] = []
        self._journal_seq = 0
        self.lost_writes = 0
        self.lost_bytes = 0
        self.torn_flushes = 0
        root = Inode(
            ino=2, ftype=NF_DIR, mode=0o755, uid=0, gid=0, nlink=2,
            entries={}, parent=2,
        )
        self._inodes[2] = root
        self.root_ino = 2

    # --- internals --------------------------------------------------------

    def _now(self) -> int:
        self._time += 1
        return self._time

    def _alloc_ino(self) -> int:
        self._next_ino += 1
        return self._next_ino

    def get_inode(self, ino: int) -> Inode:
        """Look up an inode by number (ERR_STALE if it no longer exists)."""
        inode = self._inodes.get(ino)
        if inode is None:
            raise FsError(ERR_STALE, f"stale inode {ino}")
        return inode

    def _check_name(self, name: str) -> None:
        if not name or name in (".", "..") or "/" in name or "\x00" in name:
            raise FsError(ERR_INVAL, f"invalid name {name!r}")
        if len(name) > _NAME_MAX:
            raise FsError(ERR_NAMETOOLONG, name)

    def _check_writable_fs(self) -> None:
        if self.read_only:
            raise FsError(ERR_ROFS, "read-only file system")

    def _permission_bits(self, inode: Inode, cred: Cred) -> int:
        """The rwx bits that apply to *cred* for *inode*."""
        if cred.uid == inode.uid:
            return (inode.mode >> 6) & 7
        if cred.in_group(inode.gid):
            return (inode.mode >> 3) & 7
        return inode.mode & 7

    def _require(self, inode: Inode, cred: Cred, want: int) -> None:
        """*want* is an rwx bitmask: 4 read, 2 write, 1 execute/search."""
        if want & 2:
            # Not even the superuser writes to a read-only file system.
            self._check_writable_fs()
        if cred.is_superuser:
            # Even root needs the file to be executable by someone for x.
            if want & 1 and inode.ftype == NF_REG and not inode.mode & 0o111:
                raise FsError(ERR_ACCES, "not executable")
            return
        bits = self._permission_bits(inode, cred)
        if want & ~bits:
            raise FsError(ERR_ACCES, f"need {want:o}, have {bits:o}")

    def _charge_read(self, inode: Inode, nbytes: int) -> None:
        if self.disk is not None:
            self.disk.read(inode.ino * 16, max(nbytes, 512))

    def _charge_write(self, inode: Inode, nbytes: int, sync: bool) -> None:
        if self.disk is not None:
            self.disk.write(inode.ino * 16, max(nbytes, 512), sync=sync,
                            tag=inode.ino)

    def _charge_meta(self) -> None:
        """Synchronous metadata update (FFS-style)."""
        if self.disk is not None:
            self.disk.write(1, 512, sync=True)

    # --- durability --------------------------------------------------------

    def _log_undo(self, inode: Inode, offset: int, length: int) -> None:
        """Capture the bytes an un-committed write is about to replace."""
        assert inode.data is not None
        old_size = inode.data.size
        overlap = max(0, min(old_size - offset, length))
        old_data = inode.data.read(offset, overlap) if overlap else b""
        self._uncommitted.setdefault(inode.ino, []).append(
            _UndoRecord(offset, old_data, old_size, length)
        )

    def _journal_append(self, inode: Inode) -> JournalRecord:
        assert inode.data is not None
        self._journal_seq += 1
        record = JournalRecord(
            seq=self._journal_seq, ino=inode.ino,
            generation=inode.generation, size=inode.data.size,
            crc=inode.data.checksum(),
        )
        self._journal.append(record)
        return record

    def _note_flush(self, inode: Inode) -> None:
        """Writes to *inode* just became durable (time already charged).

        Appends a journal record and clears the undo log — unless the
        disk reports the flush tore, in which case the record is marked
        torn and the undo log survives so a later crash still rolls the
        data back.
        """
        record = self._journal_append(inode)
        if self.disk is not None and self.disk.consume_torn():
            record.torn = True
            self.torn_flushes += 1
            return
        self._uncommitted.pop(inode.ino, None)
        if self.disk is not None:
            self.disk.mark_flushed(inode.ino)

    @property
    def dirty_inodes(self) -> frozenset[int]:
        """Inodes with writes a crash would lose."""
        return frozenset(self._uncommitted)

    @property
    def journal(self) -> tuple[JournalRecord, ...]:
        return tuple(self._journal)

    def crash(self) -> dict[str, int]:
        """Power failure: volatile state evaporates.

        Every un-committed write is rolled back (in reverse order, so
        overlapping writes unwind correctly), the buffer cache and the
        disk's write-back cache are dropped, and the loss is tallied.
        Returns a report; callers bridge it into their metrics.
        """
        lost_writes = lost_bytes = 0
        for ino, undos in list(self._uncommitted.items()):
            inode = self._inodes.get(ino)
            if inode is not None and inode.data is not None:
                for undo in reversed(undos):
                    if undo.old_data:
                        inode.data.write(undo.offset, undo.old_data)
                    inode.data.truncate(undo.old_size)
            lost_writes += len(undos)
            lost_bytes += sum(undo.new_bytes for undo in undos)
        self._uncommitted.clear()
        self.buffer_cache = BufferCache()
        disk_lost = self.disk.crash() if self.disk is not None else 0
        self.lost_writes += lost_writes
        self.lost_bytes += lost_bytes
        return {
            "lost_writes": lost_writes,
            "lost_bytes": lost_bytes,
            "disk_lost_writes": disk_lost,
        }

    def recover(self) -> dict[str, int]:
        """Journal recovery after a crash: drop torn records, verify
        that the latest surviving record per inode matches the data.

        A mismatch would mean the rollback left durable state that
        disagrees with what a flush promised — the invariant the
        crash-consistency tests pin down (``mismatched == 0``).
        """
        torn = [r for r in self._journal if r.torn]
        self._journal = [r for r in self._journal if not r.torn]
        latest: dict[int, JournalRecord] = {}
        for record in self._journal:
            latest[record.ino] = record
        verified = mismatched = 0
        for ino, record in latest.items():
            inode = self._inodes.get(ino)
            if (inode is None or inode.data is None
                    or inode.generation != record.generation):
                continue  # file since removed or replaced; record is moot
            if (inode.data.checksum() == record.crc
                    and inode.data.size == record.size):
                verified += 1
            else:
                mismatched += 1
        return {
            "verified": verified,
            "mismatched": mismatched,
            "dropped_torn": len(torn),
        }

    # --- lookups and attributes -------------------------------------------

    def lookup(self, dir_ino: int, name: str, cred: Cred) -> Inode:
        """Resolve *name* inside directory *dir_ino*."""
        directory = self.get_inode(dir_ino)
        if not directory.is_dir:
            raise FsError(ERR_NOTDIR)
        self._require(directory, cred, 1)
        if name == ".":
            return directory
        if name == "..":
            return self.get_inode(directory.parent)
        assert directory.entries is not None
        child_ino = directory.entries.get(name)
        if child_ino is None:
            raise FsError(ERR_NOENT, name)
        return self.get_inode(child_ino)

    def access(self, ino: int, cred: Cred, mask: int) -> int:
        """NFS3-style ACCESS: which of *mask*'s bits are granted."""
        inode = self.get_inode(ino)
        granted = 0
        if cred.is_superuser:
            granted = mask
            if inode.ftype == NF_REG and not inode.mode & 0o111:
                granted &= ~ACCESS_EXECUTE
            if self.read_only:
                granted &= ~(ACCESS_MODIFY | ACCESS_EXTEND | ACCESS_DELETE)
            return granted
        bits = self._permission_bits(inode, cred)
        if bits & 4:
            granted |= mask & ACCESS_READ
        if bits & 2 and not self.read_only:
            granted |= mask & (ACCESS_MODIFY | ACCESS_EXTEND | ACCESS_DELETE)
        if bits & 1:
            granted |= mask & (ACCESS_LOOKUP | ACCESS_EXECUTE)
        return granted

    def setattr(
        self,
        ino: int,
        cred: Cred,
        mode: int | None = None,
        uid: int | None = None,
        gid: int | None = None,
        size: int | None = None,
        atime: int | None = None,
        mtime: int | None = None,
    ) -> Inode:
        """chmod/chown/truncate/utimes in one call, like NFS SETATTR."""
        inode = self.get_inode(ino)
        self._check_writable_fs()
        is_owner = cred.is_superuser or cred.uid == inode.uid
        if mode is not None:
            if not is_owner:
                raise FsError(ERR_PERM, "chmod requires ownership")
            inode.mode = mode & 0o7777
        if uid is not None and uid != inode.uid:
            if not cred.is_superuser:
                raise FsError(ERR_PERM, "chown requires superuser")
            inode.uid = uid
        if gid is not None and gid != inode.gid:
            if not (cred.is_superuser or (cred.uid == inode.uid and cred.in_group(gid))):
                raise FsError(ERR_PERM, "chgrp requires ownership + membership")
            inode.gid = gid
        if size is not None:
            if inode.ftype != NF_REG:
                raise FsError(ERR_INVAL, "truncate on non-file")
            self._require(inode, cred, 2)
            assert inode.data is not None
            # Truncate is a synchronous metadata update, so pending
            # data writes ride to durability with it; flushing them
            # first keeps the undo log from spanning the size change.
            self._uncommitted.pop(inode.ino, None)
            if self.disk is not None:
                self.disk.mark_flushed(inode.ino)
            inode.data.truncate(size)
            inode.mtime = self._now()
            self._journal_append(inode)
        if atime is not None:
            if not is_owner:
                raise FsError(ERR_PERM)
            inode.atime = atime
        if mtime is not None:
            if not is_owner:
                raise FsError(ERR_PERM)
            inode.mtime = mtime
        inode.ctime = self._now()
        self._charge_meta()
        return inode

    # --- creation ----------------------------------------------------------

    def _add_entry(self, directory: Inode, name: str, child: Inode) -> None:
        assert directory.entries is not None
        directory.entries[name] = child.ino
        directory.mtime = directory.ctime = self._now()

    def _prepare_create(self, dir_ino: int, name: str, cred: Cred) -> Inode:
        self._check_name(name)
        self._check_writable_fs()
        directory = self.get_inode(dir_ino)
        if not directory.is_dir:
            raise FsError(ERR_NOTDIR)
        self._require(directory, cred, 3)  # write + search
        assert directory.entries is not None
        if name in directory.entries:
            raise FsError(ERR_EXIST, name)
        return directory

    def create(self, dir_ino: int, name: str, cred: Cred, mode: int = 0o644,
               exclusive: bool = False) -> Inode:
        """Create a regular file.  Non-exclusive create of an existing
        file returns the existing file (NFS UNCHECKED semantics)."""
        self._check_name(name)
        self._check_writable_fs()
        directory = self.get_inode(dir_ino)
        if not directory.is_dir:
            raise FsError(ERR_NOTDIR)
        assert directory.entries is not None
        if name in directory.entries:
            if exclusive:
                raise FsError(ERR_EXIST, name)
            existing = self.get_inode(directory.entries[name])
            if existing.is_dir:
                raise FsError(ERR_ISDIR, name)
            return existing
        self._require(directory, cred, 3)
        now = self._now()
        inode = Inode(
            ino=self._alloc_ino(), ftype=NF_REG, mode=mode & 0o7777,
            uid=cred.uid, gid=directory.gid, data=FileData(),
            atime=now, mtime=now, ctime=now,
        )
        self._inodes[inode.ino] = inode
        self._add_entry(directory, name, inode)
        self._charge_meta()
        return inode

    def mkdir(self, dir_ino: int, name: str, cred: Cred, mode: int = 0o755) -> Inode:
        directory = self._prepare_create(dir_ino, name, cred)
        now = self._now()
        inode = Inode(
            ino=self._alloc_ino(), ftype=NF_DIR, mode=mode & 0o7777,
            uid=cred.uid, gid=directory.gid, nlink=2, entries={},
            parent=directory.ino, atime=now, mtime=now, ctime=now,
        )
        self._inodes[inode.ino] = inode
        self._add_entry(directory, name, inode)
        directory.nlink += 1
        self._charge_meta()
        return inode

    def symlink(self, dir_ino: int, name: str, target: str, cred: Cred) -> Inode:
        directory = self._prepare_create(dir_ino, name, cred)
        now = self._now()
        inode = Inode(
            ino=self._alloc_ino(), ftype=NF_LNK, mode=0o777,
            uid=cred.uid, gid=directory.gid, target=target,
            atime=now, mtime=now, ctime=now,
        )
        self._inodes[inode.ino] = inode
        self._add_entry(directory, name, inode)
        self._charge_meta()
        return inode

    def link(self, file_ino: int, dir_ino: int, name: str, cred: Cred) -> Inode:
        """Create a hard link to an existing non-directory."""
        inode = self.get_inode(file_ino)
        if inode.is_dir:
            raise FsError(ERR_ISDIR, "cannot hard-link directories")
        directory = self._prepare_create(dir_ino, name, cred)
        self._add_entry(directory, name, inode)
        inode.nlink += 1
        inode.ctime = self._now()
        self._charge_meta()
        return inode

    def readlink(self, ino: int, cred: Cred) -> str:
        inode = self.get_inode(ino)
        if inode.ftype != NF_LNK:
            raise FsError(ERR_INVAL, "not a symlink")
        return inode.target

    # --- data --------------------------------------------------------------

    def read(self, ino: int, offset: int, count: int, cred: Cred) -> tuple[bytes, bool]:
        """Read file data; returns (data, eof)."""
        inode = self.get_inode(ino)
        if inode.is_dir:
            raise FsError(ERR_ISDIR)
        if inode.ftype != NF_REG:
            raise FsError(ERR_INVAL)
        self._require(inode, cred, 4)
        assert inode.data is not None
        data = inode.data.read(offset, count)
        inode.atime = self._now()
        self._charge_data_read(inode, offset, len(data))
        return data, offset + len(data) >= inode.data.size

    def _charge_data_read(self, inode: Inode, offset: int, count: int) -> None:
        """Charge disk time for allocated, non-resident blocks only.

        Holes cost nothing (sparse files never touch the disk) and
        buffer-cache hits cost nothing (reads of recently written or
        recently read data are served from server memory).
        """
        if self.disk is None or count <= 0:
            return
        assert inode.data is not None
        first = offset // _BLOCK
        last = (offset + count - 1) // _BLOCK
        miss_bytes = 0
        for block in range(first, last + 1):
            if block not in inode.data._blocks:
                continue
            if self.buffer_cache.contains(inode.ino, block):
                continue
            self.buffer_cache.insert(inode.ino, block)
            miss_bytes += _BLOCK
        if miss_bytes:
            self._charge_read(inode, miss_bytes)

    def write(self, ino: int, offset: int, data: bytes, cred: Cred,
              sync: bool = False) -> int:
        """Write file data; returns the byte count written."""
        inode = self.get_inode(ino)
        if inode.is_dir:
            raise FsError(ERR_ISDIR)
        if inode.ftype != NF_REG:
            raise FsError(ERR_INVAL)
        self._require(inode, cred, 2)
        assert inode.data is not None
        if offset + len(data) > self.total_bytes:
            raise FsError(ERR_FBIG)
        if not sync:
            self._log_undo(inode, offset, len(data))
        inode.data.write(offset, data)
        inode.mtime = inode.ctime = self._now()
        for block in range(offset // _BLOCK, (offset + len(data)) // _BLOCK + 1):
            self.buffer_cache.insert(inode.ino, block)
        self._charge_write(inode, len(data), sync)
        if sync:
            # FILE_SYNC makes the whole file's pending writes durable
            # (conservative: NFS3 only requires this write's bytes).
            self._note_flush(inode)
        return len(data)

    def commit(self, ino: int) -> None:
        """Flush cached writes for a file (NFS COMMIT)."""
        inode = self.get_inode(ino)
        if inode.ftype != NF_REG:
            return
        assert inode.data is not None
        if self.disk is not None:
            self.disk.sync(inode.data.allocated_bytes, tag=inode.ino)
        self._note_flush(inode)

    # --- removal and rename --------------------------------------------------

    def remove(self, dir_ino: int, name: str, cred: Cred) -> None:
        """Unlink a non-directory."""
        self._check_name(name)
        self._check_writable_fs()
        directory = self.get_inode(dir_ino)
        self._require(directory, cred, 3)
        assert directory.entries is not None
        child_ino = directory.entries.get(name)
        if child_ino is None:
            raise FsError(ERR_NOENT, name)
        child = self.get_inode(child_ino)
        if child.is_dir:
            raise FsError(ERR_ISDIR, name)
        del directory.entries[name]
        directory.mtime = directory.ctime = self._now()
        child.nlink -= 1
        child.ctime = self._now()
        if child.nlink == 0:
            del self._inodes[child_ino]
            # The blocks are freed durably with the metadata update;
            # there is nothing left for a crash to lose or roll back.
            self._uncommitted.pop(child_ino, None)
            if self.disk is not None:
                self.disk.mark_flushed(child_ino)
        self._charge_meta()

    def rmdir(self, dir_ino: int, name: str, cred: Cred) -> None:
        self._check_name(name)
        self._check_writable_fs()
        directory = self.get_inode(dir_ino)
        self._require(directory, cred, 3)
        assert directory.entries is not None
        child_ino = directory.entries.get(name)
        if child_ino is None:
            raise FsError(ERR_NOENT, name)
        child = self.get_inode(child_ino)
        if not child.is_dir:
            raise FsError(ERR_NOTDIR, name)
        assert child.entries is not None
        if child.entries:
            raise FsError(ERR_NOTEMPTY, name)
        del directory.entries[name]
        directory.nlink -= 1
        directory.mtime = directory.ctime = self._now()
        del self._inodes[child_ino]
        self._charge_meta()

    def rename(self, from_dir: int, from_name: str, to_dir: int, to_name: str,
               cred: Cred) -> None:
        """Atomic rename, replacing any compatible target."""
        self._check_name(from_name)
        self._check_name(to_name)
        self._check_writable_fs()
        source_dir = self.get_inode(from_dir)
        target_dir = self.get_inode(to_dir)
        if not source_dir.is_dir or not target_dir.is_dir:
            raise FsError(ERR_NOTDIR)
        self._require(source_dir, cred, 3)
        self._require(target_dir, cred, 3)
        assert source_dir.entries is not None and target_dir.entries is not None
        moving_ino = source_dir.entries.get(from_name)
        if moving_ino is None:
            raise FsError(ERR_NOENT, from_name)
        moving = self.get_inode(moving_ino)
        if moving.is_dir:
            # Refuse to move a directory into its own subtree.
            probe = target_dir
            while True:
                if probe.ino == moving.ino:
                    raise FsError(ERR_INVAL, "rename into own subtree")
                if probe.ino == probe.parent:
                    break
                probe = self.get_inode(probe.parent)
        existing_ino = target_dir.entries.get(to_name)
        if existing_ino is not None:
            if existing_ino == moving_ino:
                return
            existing = self.get_inode(existing_ino)
            if existing.is_dir:
                if not moving.is_dir:
                    raise FsError(ERR_ISDIR, to_name)
                assert existing.entries is not None
                if existing.entries:
                    raise FsError(ERR_NOTEMPTY, to_name)
                self.rmdir(to_dir, to_name, cred)
            else:
                if moving.is_dir:
                    raise FsError(ERR_NOTDIR, to_name)
                self.remove(to_dir, to_name, cred)
        del source_dir.entries[from_name]
        target_dir.entries[to_name] = moving_ino
        if moving.is_dir and from_dir != to_dir:
            moving.parent = target_dir.ino
            source_dir.nlink -= 1
            target_dir.nlink += 1
        now = self._now()
        source_dir.mtime = source_dir.ctime = now
        target_dir.mtime = target_dir.ctime = now
        moving.ctime = now
        self._charge_meta()

    # --- directory listing ----------------------------------------------------

    def readdir(self, dir_ino: int, cred: Cred, cookie: int = 0,
                count: int = 1 << 16) -> tuple[list[tuple[str, int, int]], bool]:
        """List entries; returns ([(name, ino, cookie)], eof).

        Cookies are 1-based positions in the (stable) insertion order;
        "." and ".." occupy cookies 1 and 2.
        """
        directory = self.get_inode(dir_ino)
        if not directory.is_dir:
            raise FsError(ERR_NOTDIR)
        self._require(directory, cred, 4)
        assert directory.entries is not None
        all_entries: list[tuple[str, int]] = [
            (".", directory.ino),
            ("..", directory.parent),
        ]
        all_entries.extend(directory.entries.items())
        out = []
        consumed = 0
        for position, (name, ino) in enumerate(all_entries, start=1):
            if position <= cookie:
                continue
            cost = 24 + len(name)
            if consumed + cost > count and out:
                return out, False
            out.append((name, ino, position))
            consumed += cost
        self._charge_read(directory, consumed or 512)
        return out, True

    def statfs(self) -> dict[str, int]:
        """Aggregate file system statistics (NFS FSSTAT)."""
        used = sum(
            inode.data.allocated_bytes
            for inode in self._inodes.values()
            if inode.ftype == NF_REG and inode.data is not None
        )
        return {
            "tbytes": self.total_bytes,
            "fbytes": max(0, self.total_bytes - used),
            "abytes": max(0, self.total_bytes - used),
            "tfiles": 1 << 20,
            "ffiles": (1 << 20) - len(self._inodes),
            "afiles": (1 << 20) - len(self._inodes),
        }
