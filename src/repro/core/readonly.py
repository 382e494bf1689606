"""The SFS read-only dialect: file systems proven by offline signatures.

"We implemented a dialect of the SFS protocol that allows servers to
prove the contents of public, read-only file systems using precomputed
digital signatures.  This dialect makes the amount of cryptographic
computation required from read-only servers proportional to the file
system's size and rate of change, rather than to the number of clients
connecting.  It also frees read-only servers from the need to keep any
on-line copies of their private keys, which in turn allows read-only file
systems to be replicated on untrusted machines." (paper section 2.4)

Mechanics: :func:`publish` walks a file system bottom-up, storing every
node (file chunk lists, directories, symlinks) in a content-addressed
store keyed by SHA-1 digest, and signs only the root digest — offline,
once per version.  A :class:`ReadOnlyServer` (or any untrusted mirror
holding the same image) answers two procedures: GETROOT (the signed root)
and GETDATA (bytes for a digest).  The :class:`ReadOnlyClient` verifies
the root signature against the self-certifying pathname and every fetched
blob against its digest, so a tampering mirror is always detected.  Its
reads are task generators (``yield from``) that wait as long as their
fetches do; a reader holding the image itself runs them with
:func:`run_local` over :func:`local_fetchers`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..crypto.rabin import PrivateKey, PublicKey, RabinError
from ..crypto.sha1 import sha1
from ..fs.memfs import Cred, MemFs, NF_DIR, NF_LNK, NF_REG
from ..obs.registry import NULL_REGISTRY
from ..rpc.xdr import (
    Array,
    FixedOpaque,
    Record,
    String,
    Struct,
    UHyper,
    UInt32,
    Union,
    XdrError,
)
from . import proto
from .pathnames import SelfCertifyingPath, compute_hostid, make_path

CHUNK_SIZE = 8192

RO_REG = 1
RO_DIR = 2
RO_LNK = 3

#: Default budget for a client's verified-blob cache.  Under the
#: replica tier a long-lived client would otherwise mirror the whole
#: image in memory; the LRU bound keeps the working set and re-verifies
#: anything evicted on refetch.
DEFAULT_CACHE_BYTES = 4 * 1024 * 1024

RoFile = Struct(
    "RoFile",
    [("size", UHyper), ("mode", UInt32), ("chunks", Array(FixedOpaque(20)))],
)
RoDirEntry = Struct(
    "RoDirEntry", [("name", String(255)), ("digest", FixedOpaque(20))]
)
RoDir = Struct("RoDir", [("mode", UInt32), ("entries", Array(RoDirEntry))])
RoLink = Struct("RoLink", [("target", String(1024))])

RoNode = Union("RoNode", {RO_REG: RoFile, RO_DIR: RoDir, RO_LNK: RoLink})


class ReadOnlyError(Exception):
    """Verification failure or malformed read-only data."""


@dataclass
class ReadOnlyImage:
    """A published, signed, content-addressed file system image."""

    location: str
    root_bytes: bytes            # marshaled proto.ReadOnlyRoot
    signature: bytes
    store: dict[bytes, bytes] = field(default_factory=dict)
    public_key_bytes: bytes = b""
    #: How many blobs this publication created that the previous image
    #: did not already hold (0 when published without a predecessor —
    #: then every blob is "new" and counted in len(store)).
    new_blobs: int = 0

    @property
    def root_digest(self) -> bytes:
        return proto.ReadOnlyRoot.unpack(self.root_bytes).root_digest

    @property
    def serial(self) -> int:
        return proto.ReadOnlyRoot.unpack(self.root_bytes).serial

    def path(self) -> SelfCertifyingPath:
        return make_path(self.location, PublicKey.from_bytes(self.public_key_bytes))

    def replicate(self) -> "ReadOnlyImage":
        """Copy the image, as an untrusted mirror would."""
        return ReadOnlyImage(
            self.location, self.root_bytes, self.signature,
            dict(self.store), self.public_key_bytes,
        )


def publish(fs: MemFs, key: PrivateKey, location: str,
            serial: int = 1,
            previous: "ReadOnlyImage | None" = None) -> ReadOnlyImage:
    """Sign a file system into a read-only image (run offline by the owner).

    This is the only step that touches the private key; the resulting
    image can be served by machines that never see it.

    Passing the *previous* image makes publication incremental: unchanged
    content hashes to the same digests and is carried over without
    re-serialization, so — as the paper puts it — the cryptographic
    computation is "proportional to the file system's size and rate of
    change".  The returned image's :attr:`ReadOnlyImage.new_blobs` counts
    what actually changed.
    """
    store: dict[bytes, bytes] = {}
    reused: dict[bytes, bytes] = dict(previous.store) if previous else {}
    cred = Cred(0, 0)
    new_blobs = 0

    def put(blob: bytes) -> bytes:
        nonlocal new_blobs
        digest = sha1(blob)
        if digest not in store:
            if digest not in reused:
                new_blobs += 1
            store[digest] = blob
        return digest

    def encode_inode(ino: int) -> bytes:
        inode = fs.get_inode(ino)
        if inode.ftype == NF_REG:
            data, _eof = fs.read(ino, 0, inode.size, cred)
            chunks = [
                put(data[i : i + CHUNK_SIZE])
                for i in range(0, len(data), CHUNK_SIZE)
            ]
            node = (RO_REG, RoFile.make(
                size=inode.size, mode=inode.mode, chunks=chunks
            ))
        elif inode.ftype == NF_DIR:
            assert inode.entries is not None
            entries = [
                RoDirEntry.make(name=name, digest=encode_inode(child))
                for name, child in sorted(inode.entries.items())
            ]
            node = (RO_DIR, RoDir.make(mode=inode.mode, entries=entries))
        elif inode.ftype == NF_LNK:
            node = (RO_LNK, RoLink.make(target=inode.target))
        else:
            raise ReadOnlyError(f"unsupported file type {inode.ftype}")
        return put(RoNode.pack(node))

    root_digest = encode_inode(fs.root_ino)
    root_bytes = proto.ReadOnlyRoot.pack(
        proto.ReadOnlyRoot.make(
            msg_type="RoRoot", location=location,
            root_digest=root_digest, serial=serial,
        )
    )
    image = ReadOnlyImage(
        location=location,
        root_bytes=root_bytes,
        signature=key.sign(root_bytes),
        store=store,
        public_key_bytes=key.public_key.to_bytes(),
    )
    image.new_blobs = new_blobs
    return image


class ReadOnlyStore:
    """Server-side answering machine for GETROOT / GETDATA.

    Holds no private key — this is the whole point of the dialect.
    """

    def __init__(self, image: ReadOnlyImage) -> None:
        self.image = image
        self.getdata_calls = 0

    def get_root(self) -> Record:
        return proto.GetRootRes.make(
            root_bytes=self.image.root_bytes, signature=self.image.signature
        )

    def get_data(self, digest: bytes) -> bytes | None:
        self.getdata_calls += 1
        return self.image.store.get(digest)


def local_fetchers(store: ReadOnlyStore, public_key_bytes: bytes):
    """GETROOT and GETDATA over a *store* this process holds, for a
    reader that has the image itself: ``(fetch_root, fetch_data)``, task
    generators that never wait.  The root carries *public_key_bytes*,
    which the reader still checks against the pathname."""
    def fetch_root():
        yield from ()
        res = store.get_root()
        res.public_key = public_key_bytes
        return res

    def fetch_data(digest: bytes):
        yield from ()
        return store.get_data(digest)

    return fetch_root, fetch_data


def run_local(task):
    """Run a read-only task over :func:`local_fetchers` to its result."""
    try:
        waited = task.send(None)
    except StopIteration as stop:
        return stop.value
    task.close()
    raise RuntimeError(f"a local read-only fetch waited on {waited!r}")


class ReadOnlyClient:
    """Verifying client view of a read-only file system.

    *root_res* is the GETROOT reply, with the server's public key
    attached as ``public_key``; *fetch_data* is the GETDATA transport, a
    generator function returning a blob or None (an RPC stub of the
    client daemon's, a replica set's, or :func:`local_fetchers`).  Every
    byte returned by this class has been verified against the signed
    root: the root signature is checked against the public key that the
    self-certifying pathname commits to, and every blob is re-hashed.
    """

    def __init__(self, path: SelfCertifyingPath, root_res: Record,
                 fetch_data, min_serial: int = 0,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 metrics=NULL_REGISTRY) -> None:
        self._path = path
        self._fetch_data = fetch_data
        #: LRU over verified blobs, bounded by total byte size; an
        #: evicted blob is re-verified against its digest on refetch.
        self._cache: OrderedDict[bytes, bytes] = OrderedDict()
        self._cache_limit = cache_bytes
        self._cached_bytes = 0
        self._m_cache_hits = metrics.counter("readonly.cache_hits")
        self._m_cache_misses = metrics.counter("readonly.cache_misses")
        self._m_cache_evictions = metrics.counter("readonly.cache_evictions")
        try:
            public_key = PublicKey.from_bytes(
                # The server's key arrives out of band in the connect
                # step; for the read-only dialect the key is committed to
                # by the signature check below against the pathname.
                self._expect_key_bytes(root_res)
            )
        except RabinError as exc:
            raise ReadOnlyError(f"bad public key: {exc}") from None
        if compute_hostid(path.location, public_key) != path.hostid:
            raise ReadOnlyError("server key does not match pathname HostID")
        if not public_key.verify(root_res.root_bytes, root_res.signature):
            raise ReadOnlyError("root signature does not verify")
        try:
            root = proto.ReadOnlyRoot.unpack(root_res.root_bytes)
        except XdrError as exc:
            raise ReadOnlyError(f"malformed signed root: {exc}") from None
        if root.msg_type != "RoRoot" or root.location != path.location:
            raise ReadOnlyError("signed root is for a different file system")
        if root.serial < min_serial:
            # Rollback protection: a mirror replaying a stale (but
            # correctly signed) image is detected when the client knows
            # a newer serial exists.
            raise ReadOnlyError(
                f"stale image: serial {root.serial} < expected {min_serial}"
            )
        self.root_digest = root.root_digest
        self.serial = root.serial

    @staticmethod
    def _expect_key_bytes(root_res: Record) -> bytes:
        key_bytes = getattr(root_res, "public_key", None)
        if key_bytes is None:
            raise ReadOnlyError("transport did not supply the server key")
        return key_bytes

    # --- verified fetching (each a task: ``yield from``) ----------------------

    def fetch(self, digest: bytes):
        """Fetch and verify one blob by digest."""
        cached = self._cache.get(digest)
        if cached is not None:
            self._cache.move_to_end(digest)
            self._m_cache_hits.inc()
            return cached
        self._m_cache_misses.inc()
        blob = yield from self._fetch_data(digest)
        if blob is None:
            raise ReadOnlyError(f"server has no data for {digest.hex()[:12]}")
        if sha1(blob) != digest:
            raise ReadOnlyError("blob digest mismatch (tampered mirror?)")
        self._cache[digest] = blob
        self._cached_bytes += len(blob)
        while self._cached_bytes > self._cache_limit and len(self._cache) > 1:
            _evicted, old = self._cache.popitem(last=False)
            self._cached_bytes -= len(old)
            self._m_cache_evictions.inc()
        return blob

    def node(self, digest: bytes):
        """Fetch and decode a file system node: ``(kind, body)``."""
        blob = yield from self.fetch(digest)
        try:
            return RoNode.unpack(blob)
        except XdrError as exc:
            raise ReadOnlyError(f"malformed node: {exc}") from None

    # --- navigation ------------------------------------------------------------

    def lookup(self, dir_digest: bytes, name: str):
        kind, body = yield from self.node(dir_digest)
        if kind != RO_DIR:
            raise ReadOnlyError("lookup in a non-directory")
        for entry in body.entries:
            if entry.name == name:
                return entry.digest
        raise ReadOnlyError(f"no entry {name!r}")

    def listdir(self, dir_digest: bytes):
        kind, body = yield from self.node(dir_digest)
        if kind != RO_DIR:
            raise ReadOnlyError("listdir on a non-directory")
        return [(entry.name, entry.digest) for entry in body.entries]

    def readlink(self, digest: bytes):
        kind, body = yield from self.node(digest)
        if kind != RO_LNK:
            raise ReadOnlyError("readlink on a non-symlink")
        return body.target

    def read_file(self, digest: bytes, offset: int = 0,
                  count: int | None = None):
        kind, body = yield from self.node(digest)
        if kind != RO_REG:
            raise ReadOnlyError("read of a non-file")
        # The root signature proves the publisher signed this node, not
        # that the publisher was honest: a malformed size/chunk-list
        # pair must surface as the tampered-mirror error contract, not
        # escape as an IndexError or as silently shifted bytes.
        size = body.size
        chunk_count = len(body.chunks)
        expected_chunks = (size + CHUNK_SIZE - 1) // CHUNK_SIZE
        if chunk_count != expected_chunks:
            raise ReadOnlyError(
                f"signed size {size} disagrees with chunk list "
                f"({chunk_count} chunks, expected {expected_chunks})"
            )
        if count is None:
            count = size
        end = min(size, offset + count)
        if offset >= end:
            return b""
        out = bytearray()
        first = offset // CHUNK_SIZE
        last = (end - 1) // CHUNK_SIZE
        for index in range(first, last + 1):
            chunk = yield from self.fetch(body.chunks[index])
            expected_len = (CHUNK_SIZE if index < chunk_count - 1
                            else size - (chunk_count - 1) * CHUNK_SIZE)
            if len(chunk) != expected_len:
                # An over- or under-length chunk (digest-valid, since
                # the publisher signed it) would shift every byte after
                # it; reject rather than deliver misaligned data.
                raise ReadOnlyError(
                    f"chunk {index} is {len(chunk)} bytes, "
                    f"expected {expected_len}"
                )
            out += chunk
        skip = offset - first * CHUNK_SIZE
        return bytes(out[skip : skip + (end - offset)])

    def resolve_path(self, rest: str):
        """Walk a /-separated path from the root; returns the digest."""
        digest = self.root_digest
        for part in rest.split("/"):
            if part:
                digest = yield from self.lookup(digest, part)
        return digest
