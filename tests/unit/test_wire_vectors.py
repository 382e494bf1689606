"""Golden wire vectors: the fast lane never changes a protocol byte.

The wire-path optimizations (block ARC4 kernels, compiled XDR marshals,
the single-buffer channel seal) are sound only if they are bit-identical to
the reference implementations — that is the invariant
:mod:`repro.crypto.backend` documents and docs/PERFORMANCE.md leans on.
This suite pins it three ways:

* **Golden digests** — seeded channel transcripts and NFS3 encodings
  must match constants frozen from the reference path, so a
  regression against *history* is caught even if both paths drift
  together.
* **Cross-path equality** — every vector is produced under
  ``set_fast(True)`` and ``set_fast(False)`` and compared bit for bit,
  with the marshal counters checked to prove the fast path actually ran.
* **Kernel equivalence** — the block ARC4 kernels advance the same
  (state, i, j) machine as the reference per-byte loop, including across
  a mid-stream flip of the backend flag.

Regenerate the golden constants (after a *deliberate* wire format
change) with ``PYTHONPATH=src:. python tests/unit/test_wire_vectors.py``.
"""

import hashlib
import random

import pytest

from repro.core import proto
from repro.core.channel import SecureChannel
from repro.core.server import make_sfs_cred
from repro.crypto import arc4kernel, backend
from repro.crypto.arc4 import ARC4
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.world import World
from repro.nfs3 import const, types
from repro.rpc import rpcmsg, xdr
from repro.rpc.rpcmsg import AuthSys, CallHeader, ReplyHeader
from repro.rpc.xdr import Record, XdrError
from tests.helpers import SyncNfs3Client

K_CS = bytes(range(1, 21))
K_SC = bytes(range(101, 121))

CHANNEL_PAYLOADS = [
    b"",
    b"x",
    b"NFS3 over a secure channel",
    bytes(range(256)),
    b"\x00" * 1000,
    bytes((i * 7 + 3) & 0xFF for i in range(8192)),
]

#: sha256 over len(record) ‖ record for every record of the seeded
#: transcript, both directions.  Frozen from the reference path.
GOLDEN_CHANNEL = (
    "129dd7f1900fa1928be597b90ba6f704db1715496d6662d9c8c31ffc08c7b0b9"
)

_FH = bytes(range(1, 33))
_FH2 = bytes(range(200, 240))
_VERF = bytes(range(8))


def _time(seconds):
    return types.NfsTime.make(seconds=seconds, nseconds=seconds * 1000 + 1)


def _fattr():
    return types.Fattr.make(
        type=const.NF3REG, mode=0o644, nlink=2, uid=10, gid=20,
        size=0x1_2345_6789, used=4096,
        rdev=types.SpecData.make(major=1, minor=2),
        fsid=7, fileid=42,
        atime=_time(1), mtime=_time(2), ctime=_time(3),
    )


def _wcc():
    return Record(
        before=types.WccAttr.make(size=100, mtime=_time(2), ctime=_time(3)),
        after=_fattr(),
    )


def _no_wcc():
    return Record(before=None, after=None)


def nfs3_vectors():
    """(name, codec, value) per pinned codec, OK and failure arms."""
    payload = bytes((i * 13 + 5) & 0xFF for i in range(1025))
    return [
        ("getattr_args", types.GetAttrArgs, Record(object=_FH)),
        ("getattr_res_ok", types.GetAttrRes,
         (const.NFS3_OK, Record(obj_attributes=_fattr()))),
        ("getattr_res_fail", types.GetAttrRes, (const.NFS3ERR_NOENT, None)),
        ("lookup_args", types.LookupArgs,
         Record(what=Record(dir=_FH, name="file.txt"))),
        ("lookup_res_ok", types.LookupRes,
         (const.NFS3_OK, Record(object=_FH2, obj_attributes=_fattr(),
                                dir_attributes=None))),
        ("lookup_res_fail", types.LookupRes,
         (const.NFS3ERR_NOENT, Record(dir_attributes=_fattr()))),
        ("read_args", types.ReadArgs,
         Record(file=_FH, offset=0x1_0000_0001, count=8192)),
        ("read_res_ok", types.ReadRes,
         (const.NFS3_OK, Record(file_attributes=_fattr(),
                                count=len(payload), eof=True,
                                data=payload))),
        ("read_res_fail", types.ReadRes,
         (const.NFS3ERR_IO, Record(file_attributes=None))),
        ("write_args", types.WriteArgs,
         Record(file=_FH, offset=4096, count=11,
                stable=const.FILE_SYNC, data=b"hello world")),
        ("write_res_ok", types.WriteRes,
         (const.NFS3_OK, Record(file_wcc=_wcc(), count=11,
                                committed=const.FILE_SYNC, verf=_VERF))),
        ("write_res_fail", types.WriteRes,
         (const.NFS3ERR_IO, Record(file_wcc=Record(before=None,
                                                   after=None)))),
        ("setattr_args", types.SetAttrArgs,
         Record(object=_FH,
                new_attributes=types.sattr(mode=0o600, uid=7, mtime=99),
                guard=_time(5))),
        ("setattr_res_ok", types.SetAttrRes,
         (const.NFS3_OK, Record(obj_wcc=_wcc()))),
        ("setattr_res_fail", types.SetAttrRes,
         (const.NFS3ERR_PERM, Record(obj_wcc=_no_wcc()))),
        ("access_args", types.AccessArgs, Record(object=_FH, access=0x2D)),
        ("access_res_ok", types.AccessRes,
         (const.NFS3_OK, Record(obj_attributes=_fattr(), access=0x0D))),
        ("access_res_fail", types.AccessRes,
         (const.NFS3ERR_STALE, Record(obj_attributes=None))),
        ("create_args", types.CreateArgs,
         Record(where=Record(dir=_FH, name="new"),
                how=(const.UNCHECKED, types.sattr(mode=0o644, size=0)))),
        ("create_res_ok", types.CreateRes,
         (const.NFS3_OK, Record(obj=_FH2, obj_attributes=_fattr(),
                                dir_wcc=_wcc()))),
        ("create_res_fail", types.CreateRes,
         (const.NFS3ERR_EXIST, Record(dir_wcc=_no_wcc()))),
        ("remove_args", types.RemoveArgs,
         Record(object=Record(dir=_FH, name="gone.txt"))),
        ("remove_res_ok", types.RemoveRes,
         (const.NFS3_OK, Record(dir_wcc=_wcc()))),
        ("remove_res_fail", types.RemoveRes,
         (const.NFS3ERR_NOENT, Record(dir_wcc=_no_wcc()))),
        ("commit_args", types.CommitArgs,
         Record(file=_FH, offset=0, count=0)),
        ("commit_res_ok", types.CommitRes,
         (const.NFS3_OK, Record(file_wcc=_wcc(), verf=_VERF))),
        ("commit_res_fail", types.CommitRes,
         (const.NFS3ERR_IO, Record(file_wcc=_no_wcc()))),
        ("readdir_args", types.ReaddirArgs,
         Record(dir=_FH, cookie=3, cookieverf=_VERF, count=65536)),
        ("readdir_res_ok", types.ReaddirRes,
         (const.NFS3_OK, Record(
             dir_attributes=_fattr(), cookieverf=_VERF,
             entries=[Record(fileid=2, name=".", cookie=1),
                      Record(fileid=42, name="file.txt", cookie=2)],
             eof=True))),
        ("readdir_res_fail", types.ReaddirRes,
         (const.NFS3ERR_NOTDIR, Record(dir_attributes=_fattr()))),
    ]


#: sha256 of each vector's encoding, frozen from the reference path.
GOLDEN_NFS3 = {
    "getattr_args":
        "004625dac81b0e938512c786ac38ce24501d5781bd114ac99b1842e2076490ca",
    "getattr_res_ok":
        "7afeb8996404de5e898988dbf0d29cbf97a4829f36d16b09c20ab3faf39e2e3d",
    "getattr_res_fail":
        "433ebf5bc03dffa38536673207a21281612cef5faa9bc7a4d5b9be2fdb12cf1a",
    "lookup_args":
        "ba9383526963e2ca128ac98a051043c840abb97583b2b8202592a3e87c8f7c71",
    "lookup_res_ok":
        "48ff72d6a105089ad9c25c03ba68221b5582c225c9e6f1f947262406d2314616",
    "lookup_res_fail":
        "246693d7dda43ec36bf46f7c3db1d0f915b8a959c4a74310630a96b481450d50",
    "read_args":
        "b2fa13a7e3f00b50f2959b8913e458811b500b8266b5e8bcbc993ae64287c0af",
    "read_res_ok":
        "d17444816735f663431971eb580cae4947bad230f4ca9b8897824fc936eec7d1",
    "read_res_fail":
        "0af69fc776f69eec4b68853316a041d0fdaea4665ec299fbc9283560a0a6f667",
    "write_args":
        "1a50a08970007140879081e2e654d1aa8a14b4cba4c12bdf79a83367dfebdb18",
    "write_res_ok":
        "a6d24f3cb51cba89b44db0a166a0a3a560fd5ce430d986512cc51b299cd3311a",
    "write_res_fail":
        "fa236c53c3c620a6d7a96ab6389430820cdbc0b22e73932bd36d3b5bc86df6c6",
    "setattr_args":
        "d3ea6a23e6e37db304b1230d2132f61c305ae546cb42aa2bb5ca516ee76a8653",
    "setattr_res_ok":
        "bd7f09980c2f7ced74ef1d05bf0aa38a9cddde86e98f72f3c59e61b54fdfcf52",
    "setattr_res_fail":
        "9cbc73d18d70c94fe366e696035c4f2cffdbab7ea6d6c2c039ca185f9c9f2746",
    "access_args":
        "123b6bb3b6a05201722f1a4714c72695f4a269ed74bdb9c75c96013ecd7200e2",
    "access_res_ok":
        "a7eba4e4aa2f7b14d5745a1842765a5cc4d9366f73a3fe669b6aa19a70280ed4",
    "access_res_fail":
        "902acf547ba173c4a6b61d917cc42ee63484d4b69e883bd45a4f42460bd95546",
    "create_args":
        "8bb145ba0f54981ca5490ab103589f2fd7804343ae965785a1e51e71841416d3",
    "create_res_ok":
        "fa43d891af057002a6b6291bae602d1ee9a4dd24d6f0d998b591add1422e04ea",
    "create_res_fail":
        "b2fe920c1679d88e17de63a558932deb693c394a989e91f657b1781038384cfb",
    "remove_args":
        "0aa6cd5f21b361f747f96903a6c8dce3ff60e0115ba67f46380ef8f7dfcc0a7f",
    "remove_res_ok":
        "bd7f09980c2f7ced74ef1d05bf0aa38a9cddde86e98f72f3c59e61b54fdfcf52",
    "remove_res_fail":
        "163e7f66d58036ccb1d0b0058d8f46e7cd639816f570e5eb32853ea73634e4cd",
    "commit_args":
        "40a8e1f20c48c1dc8432213c6428b7a69e2a4d24e582d1ec11c2470077a191f3",
    "commit_res_ok":
        "95dccf56b07fe2066d81d8c408286e9ddb6c67fa3702ab4e6edea7f74bdb9fd6",
    "commit_res_fail":
        "fa236c53c3c620a6d7a96ab6389430820cdbc0b22e73932bd36d3b5bc86df6c6",
    "readdir_args":
        "8f4116b1ec59d6d93886ed0db3d6a492e3beef3ce126650b1df0ba5a8c823e99",
    "readdir_res_ok":
        "ca0b0411509624d102f23cc8dac644b906845770085851a112be426e6177b10f",
    "readdir_res_fail":
        "5a172bdefee47bcda9403a06a1a647657b363d3c2aa10277e3dd57b14f8e2da8",
}


@pytest.fixture(autouse=True)
def _fast_flags_restored():
    yield
    backend.set_fast(True)


class _CapturePipe:
    """Minimal Pipe: records sends, hand-delivers on demand."""

    def __init__(self):
        self.sent = []
        self.handler = None

    def send(self, data):
        self.sent.append(bytes(data))

    def on_receive(self, handler):
        self.handler = handler


def channel_transcript():
    """Wire records of the seeded two-way conversation."""
    client_pipe, server_pipe = _CapturePipe(), _CapturePipe()
    client = SecureChannel(client_pipe, send_key=K_CS, recv_key=K_SC)
    server = SecureChannel(server_pipe, send_key=K_SC, recv_key=K_CS)
    for payload in CHANNEL_PAYLOADS:
        client.send(payload)
        server.send(payload[::-1])
    return client_pipe.sent + server_pipe.sent, client, server


def _digest(records):
    acc = hashlib.sha256()
    for record in records:
        acc.update(len(record).to_bytes(4, "big"))
        acc.update(record)
    return acc.hexdigest()


# ---------------------------------------------------------------------------
# Channel records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fast", [True, False])
def test_channel_transcript_matches_golden(fast):
    backend.set_fast(fast)
    records, _client, _server = channel_transcript()
    assert _digest(records) == GOLDEN_CHANNEL


def test_channel_records_identical_across_backends():
    backend.set_fast(True)
    fast_records, _c, _s = channel_transcript()
    backend.set_fast(False)
    slow_records, _c, _s = channel_transcript()
    assert fast_records == slow_records


@pytest.mark.parametrize("fast", [True, False])
def test_fast_sealed_records_decrypt_on_reference_receiver(fast):
    """Sender and receiver may disagree about the flag: same bytes."""
    backend.set_fast(fast)
    records, _client, _server = channel_transcript()
    backend.set_fast(not fast)
    pipe = _CapturePipe()
    receiver = SecureChannel(pipe, send_key=K_SC, recv_key=K_CS)
    delivered = []
    receiver.on_receive(lambda p: delivered.append(bytes(p)))
    for record in records[:len(CHANNEL_PAYLOADS)]:  # client->server half
        pipe.handler(record)
    assert delivered == CHANNEL_PAYLOADS
    assert receiver.rejected_records == 0


# ---------------------------------------------------------------------------
# Hot NFS3 marshals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fast", [True, False])
def test_nfs3_encodings_match_golden(fast):
    backend.set_fast(fast)
    for name, codec, value in nfs3_vectors():
        encoded = codec.pack(value)
        assert hashlib.sha256(encoded).hexdigest() == GOLDEN_NFS3[name], name
        assert codec.unpack(encoded) == value, name


def test_nfs3_fast_and_slow_encodings_identical():
    for name, codec, value in nfs3_vectors():
        backend.set_fast(True)
        fast_bytes = codec.pack(value)
        backend.set_fast(False)
        slow_bytes = codec.pack(value)
        assert fast_bytes == slow_bytes, name
        # Cross-decode: each path reads the other's bytes.
        assert codec.unpack(fast_bytes) == value, name
        backend.set_fast(True)
        assert codec.unpack(slow_bytes) == value, name


def test_fast_marshal_path_actually_runs():
    """Mount, log in and issue every NFS3 procedure through the whole
    stack (kernel -> sfscd -> sfssd -> server, READV/WRITEV at depth 8):
    every message of every protocol marshals through its compiled
    function.  The one reference-path decode is login's own: authplugins
    sniffs the legacy credential blob with ``AuthEnvelope.unpack`` and is
    turned away, once per login."""
    backend.set_fast(True)
    world = World(seed=42)
    world.enable_pipelining(depth=8)
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")

    before = xdr.STATS.snapshot()
    proc = client.login_user("alice", alice.key, uid=1000)
    logins = 1
    top = f"{path}/home/alice"
    big = bytes(range(256)) * 256       # 64 KB: full READV/WRITEV windows
    proc.write_file(f"{top}/f", big)
    assert proc.read_file(f"{top}/f") == big
    fd = proc.open(f"{top}/f", "r+")
    proc.write(fd, b"sync", sync=True)  # a lone FILE_SYNC write is a WRITE
    proc.fsync(fd)
    proc.close(fd)
    proc.stat(f"{top}/f")
    proc.chmod(f"{top}/f", 0o600)
    proc.access(f"{top}/f", 4)
    proc.mkdir(f"{top}/sub")
    proc.symlink("f", f"{top}/ln")
    assert proc.readlink(f"{top}/ln") == "f"
    proc.link(f"{top}/f", f"{top}/hard")
    proc.rename(f"{top}/hard", f"{top}/sub/moved")
    assert sorted(proc.readdir(top)) == ["f", "ln", "sub"]
    proc.unlink(f"{top}/sub/moved")
    proc.rmdir(f"{top}/sub")
    mount = client.kernel._mounts[-1]   # the /sfs/<host:hostid> mount
    nfs = SyncNfs3Client(mount.client.peer, proc.cred)
    nfs.null()
    nfs.fsstat(mount.root_fh)
    nfs.fsinfo(mount.root_fh)
    nfs.pathconf(mount.root_fh)
    nfs.readdirplus(mount.root_fh)
    after = xdr.STATS.snapshot()

    served = server.metrics.snapshot()["metrics"]
    for number in types.PROC_CODECS:
        if number != const.NFSPROC3_NULL:   # answered without an op count
            name = const.PROC_NAMES[number].lower()
            assert served[f"nfs3.ops.{name}"] >= 1, name
    assert after["slow_packs"] == before["slow_packs"]
    assert after["slow_unpacks"] - before["slow_unpacks"] == logins
    assert after["fast_packs"] - before["fast_packs"] > 200


def test_slow_marshal_path_counts_when_disabled():
    backend.set_fast(False)
    before = xdr.STATS.snapshot()
    vector = nfs3_vectors()[0]
    vector[1].unpack(vector[1].pack(vector[2]))
    delta = {k: xdr.STATS.snapshot()[k] - before[k] for k in before}
    assert delta["fast_packs"] == 0 and delta["slow_packs"] == 1
    assert delta["fast_unpacks"] == 0 and delta["slow_unpacks"] == 1


def test_non_canonical_values_fall_back_to_codec():
    """The fallback is an implementation detail: odd values still marshal."""
    backend.set_fast(True)
    # memoryview file handle: the flat function wants real bytes, the
    # interpreter copes.
    value = Record(object=memoryview(_FH))
    encoded = types.GetAttrArgs.pack(value)
    assert encoded == types.GetAttrArgs.pack(Record(object=_FH))


# ---------------------------------------------------------------------------
# XDR strictness: identical on both paths (the bugfix regression tests)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fast", [True, False])
def test_nonzero_string_padding_rejected(fast):
    backend.set_fast(fast)
    value = Record(what=Record(dir=_FH, name="abc"))
    encoded = bytearray(types.LookupArgs.pack(value))
    assert encoded[-1] == 0  # "abc" pads with one zero byte
    encoded[-1] = 0xAA
    with pytest.raises(XdrError):
        types.LookupArgs.unpack(bytes(encoded))


@pytest.mark.parametrize("fast", [True, False])
def test_nonzero_opaque_padding_rejected(fast):
    backend.set_fast(fast)
    ok = (const.NFS3_OK,
          Record(file_attributes=None, count=3, eof=False, data=b"abc"))
    encoded = bytearray(types.ReadRes.pack(ok))
    assert encoded[-1] == 0
    encoded[-1] = 0x01
    with pytest.raises(XdrError):
        types.ReadRes.unpack(bytes(encoded))


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("tail", [b"\x00" * 4, b"junk"])
def test_trailing_garbage_rejected(fast, tail):
    backend.set_fast(fast)
    encoded = types.GetAttrArgs.pack(Record(object=_FH)) + tail
    with pytest.raises(XdrError):
        types.GetAttrArgs.unpack(encoded)


@pytest.mark.parametrize("fast", [True, False])
def test_truncated_record_rejected(fast):
    backend.set_fast(fast)
    encoded = types.ReadArgs.pack(
        Record(file=_FH, offset=0, count=4096)
    )
    with pytest.raises(XdrError):
        types.ReadArgs.unpack(encoded[:-3])


# ---------------------------------------------------------------------------
# RPC envelopes (RFC 1831)
# ---------------------------------------------------------------------------

def envelope_vectors():
    """(name, header, body) for each envelope branch SFS puts on a wire."""
    sys_cred = AuthSys(stamp=7, machinename="laptop", uid=1000, gid=100,
                       gids=(100, 0xFFFD)).to_auth()
    return [
        ("call_auth_sys",
         CallHeader(0x01020304, 100003, 3, 3, cred=sys_cred),
         b"ARGS\x00\x00\x00\x01"),
        ("call_auth_sfs",
         CallHeader(0xCAFE0001, proto.SFS_RW_PROGRAM, proto.SFS_VERSION, 6,
                    cred=make_sfs_cred(5)),
         b"\x00\x00\x00\x02"),
        ("reply_success", ReplyHeader(0x01020304), b"RESULT\x00\x00"),
        ("reply_prog_mismatch",
         ReplyHeader(9, accept_stat=rpcmsg.PROG_MISMATCH,
                     mismatch_low=2, mismatch_high=3), b""),
        ("reply_auth_error",
         ReplyHeader(10, reply_stat=rpcmsg.MSG_DENIED,
                     reject_stat=rpcmsg.AUTH_ERROR, auth_stat=5), b""),
        ("reply_rpc_mismatch",
         ReplyHeader(11, reply_stat=rpcmsg.MSG_DENIED,
                     reject_stat=rpcmsg.RPC_MISMATCH,
                     mismatch_low=2, mismatch_high=2), b""),
    ]


#: The envelope bytes of each vector, in hex.  Frozen from the
#: ``Packer``-based envelope that the struct-packed one replaced.
GOLDEN_ENVELOPES = {
    "call_auth_sys":
        "010203040000000000000002000186a3000000030000000300000001000000240000"
        "0007000000066c6170746f700000000003e80000006400000002000000640000fffd"
        "00000000000000004152475300000001",
    "call_auth_sfs":
        "cafe000100000000000000020005417c00000001000000060005f370000000040000"
        "0005000000000000000000000002",
    "reply_success":
        "010203040000000100000000000000000000000000000000524553554c540000",
    "reply_prog_mismatch":
        "0000000900000001000000000000000000000000000000020000000200000003",
    "reply_auth_error": "0000000a00000001000000010000000100000005",
    "reply_rpc_mismatch":
        "0000000b0000000100000001000000000000000200000002",
}


@pytest.mark.parametrize("name,header,body", envelope_vectors(),
                         ids=[name for name, _h, _b in envelope_vectors()])
def test_envelope_bytes_match_golden(name, header, body):
    if isinstance(header, CallHeader):
        record = rpcmsg.pack_call(header, body)
    else:
        record = rpcmsg.pack_reply(header, body)
    assert record.hex() == GOLDEN_ENVELOPES[name]
    parsed = rpcmsg.parse_message(record)
    assert (parsed.call or parsed.reply) == header
    assert bytes(parsed.body) == body


# ---------------------------------------------------------------------------
# ARC4 kernels
# ---------------------------------------------------------------------------

def _random_draws(rng, total):
    sizes = []
    while total:
        n = min(total, rng.choice([1, 3, 20, 32, 64, 333, 1024, 4096]))
        sizes.append(n)
        total -= n
    return sizes


@pytest.mark.parametrize(
    "crank", [arc4kernel.fast_crank, arc4kernel.pyblock_crank],
    ids=[arc4kernel.FAST_KERNEL, "pyblock"],
)
def test_block_kernels_match_reference(crank):
    rng = random.Random(20260805)
    for _trial in range(10):
        key = bytes(rng.randrange(256)
                    for _ in range(rng.choice([1, 5, 16, 20, 24])))
        spins = max(1, (len(key) * 8 + 127) // 128)
        ref_state = arc4kernel.key_schedule(key, spins)
        fast_state = bytearray(ref_state)
        ri = rj = fi = fj = 0
        for n in _random_draws(rng, 6000):
            expected, ri, rj = arc4kernel.reference_crank(ref_state, ri,
                                                          rj, n)
            got, fi, fj = crank(fast_state, fi, fj, n)
            assert got == expected
            assert (fi, fj) == (ri, rj)
        assert fast_state == ref_state


def test_key_schedule_is_a_compact_permutation_of_the_textbook_ksa():
    """State is a 256-byte ``bytearray`` (eight ciphers a session), and
    the pre-stretched key walks the same bytes as ``key[i % len(key)]``
    for key lengths that do and do not divide 256."""
    for key, spins in ((b"k", 1), (b"five!", 1), (bytes(range(16)), 1),
                       (K_CS, 2), (bytes(range(255)), 16),
                       (bytes(range(256)), 16)):
        state = list(range(256))
        j = 0
        for _ in range(spins):
            for i in range(256):
                j = (j + state[i] + key[i % len(key)]) & 0xFF
                state[i], state[j] = state[j], state[i]
        scheduled = arc4kernel.key_schedule(key, spins)
        assert type(scheduled) is bytearray and len(scheduled) == 256
        assert list(scheduled) == state


def test_sfs_spin_rule_selects_two_spins_for_20_byte_keys():
    key = K_CS
    assert ARC4(key).keystream(64) == ARC4(key, spins=2).keystream(64)
    assert ARC4(key).keystream(64) != ARC4(key, spins=1).keystream(64)
    # Classic 128-bit keys keep the single-spin schedule.
    key16 = bytes(range(16))
    assert ARC4(key16).keystream(64) == ARC4(key16, spins=1).keystream(64)


def test_midstream_backend_flip_keeps_stream_continuous():
    key = b"flip-test-session-key"[:20]
    sizes = [5, 37, 1000, 64, 3, 2048, 31, 1, 1500]
    flipping = ARC4(key)
    out = bytearray()
    for index, n in enumerate(sizes):
        backend.set_fast(index % 2 == 0)
        out += flipping.keystream(n)
    backend.set_fast(False)
    assert bytes(out) == ARC4(key).keystream(sum(sizes))


def test_keystream_lookahead_buffer_is_exact():
    """Many small draws equal one big draw (buffered refill is seamless)."""
    backend.set_fast(True)
    key = K_SC
    small = ARC4(key)
    chunks = [small.keystream(n) for n in [1, 31, 32, 33, 900, 100, 1024]]
    backend.set_fast(False)
    assert b"".join(chunks) == ARC4(key).keystream(sum(
        [1, 31, 32, 33, 900, 100, 1024]))


def _regenerate():
    """Print fresh golden constants (reference path)."""
    backend.set_fast(False)
    records, _c, _s = channel_transcript()
    print(f'GOLDEN_CHANNEL = "{_digest(records)}"')
    print("GOLDEN_NFS3 = {")
    for name, codec, value in nfs3_vectors():
        digest = hashlib.sha256(codec.pack(value)).hexdigest()
        print(f'    "{name}":\n        "{digest}",')
    print("}")


if __name__ == "__main__":
    _regenerate()
