"""The compiled reading of every declared codec equals the interpreted one.

:mod:`repro.rpc.xdr` reads a declaration twice — ``encode``/``decode``
interpret it, ``emit_pack``/``emit_unpack`` compile it to one flat
function.  Nothing here lists messages by hand: the values come from a
hypothesis strategy built *from the declaration*, run over every codec
the protocol modules declare, and the strictness rules are written once
per combinator and run on both paths.
"""

import importlib
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import backend
from repro.nfs3.types import PROC_CODECS
from repro.rpc import xdr
from repro.rpc.xdr import (
    Array,
    Bool,
    Enum,
    FixedArray,
    FixedOpaque,
    LinkedList,
    Opaque,
    Optional,
    Record,
    String,
    Struct,
    UInt32,
    Union,
    VOID,
    XdrError,
)

MODULES = (
    "repro.nfs3.types", "repro.nfs3.mountproto", "repro.core.proto",
    "repro.core.readonly", "repro.core.authplugins", "repro.auth.fleet",
    "repro.keymgmt.extpki", "repro.rpc.portmap",
)


def declared_codecs():
    """Every distinct codec object a protocol module binds to a name,
    plus the per-procedure table (whose entries are all among them)."""
    found = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if isinstance(value, xdr.Codec):
                found.setdefault(id(value), (f"{module_name}.{name}", value))
    for proc, pair in PROC_CODECS.items():
        for codec in pair:
            assert id(codec) in found, f"procedure {proc} codec not declared"
    return sorted(found.values(), key=lambda item: item[0])


_RANGES = {"I": (0, 2**32 - 1), "i": (-2**31, 2**31 - 1),
           "Q": (0, 2**64 - 1), "q": (-2**63, 2**63 - 1)}


def values_of(codec):
    """A strategy for the values *codec* declares, sizes kept small."""
    if isinstance(codec, xdr._Bool):
        return st.booleans()
    if isinstance(codec, xdr._Simple):
        return st.integers(*_RANGES[codec._fmt])
    if isinstance(codec, xdr.Void):
        return st.none()
    if isinstance(codec, Enum):
        return st.sampled_from(sorted(codec._values))
    if isinstance(codec, FixedOpaque):
        return st.binary(min_size=codec.length, max_size=codec.length)
    if isinstance(codec, Opaque):
        return st.binary(max_size=min(codec.maximum, 9))
    if isinstance(codec, String):
        return st.text(max_size=min(codec.maximum // 4, 6))
    if isinstance(codec, Array):
        return st.lists(values_of(codec.element),
                        max_size=min(codec.maximum, 3))
    if isinstance(codec, FixedArray):
        return st.lists(values_of(codec.element), min_size=codec.length,
                        max_size=codec.length)
    if isinstance(codec, LinkedList):
        return st.lists(values_of(codec.element), max_size=3)
    if isinstance(codec, Optional):
        return st.none() | values_of(codec.element)
    if isinstance(codec, Struct):
        return st.builds(
            Record, **{name: values_of(field) for name, field in codec.fields})
    if isinstance(codec, Union):
        def arm(discs, body):
            return st.tuples(discs, st.none() if body is None
                             else values_of(body))
        arms = [arm(st.just(disc), body) for disc, body in codec.arms.items()]
        if codec.default is not Union._NO_DEFAULT:
            others = st.integers(0, 2**32 - 1).filter(
                lambda disc: disc not in codec.arms)
            arms.append(arm(others, codec.default))
        return st.one_of(arms)
    raise AssertionError(f"no strategy for {type(codec).__name__}")


@pytest.fixture(autouse=True)
def _fast_flags_restored():
    yield
    backend.set_fast(True)


def _delta(before):
    after = xdr.STATS.snapshot()
    return {key: after[key] - before[key] for key in before}


@pytest.mark.parametrize(
    "codec", [pytest.param(codec, id=name) for name, codec in declared_codecs()])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_compiled_equals_reference(codec, data):
    value = data.draw(values_of(codec))
    before = xdr.STATS.snapshot()
    backend.set_fast(True)
    compiled = codec.pack(value)
    from_compiled = codec.unpack(compiled)
    backend.set_fast(False)
    reference = codec.pack(value)
    assert compiled == reference
    # Each path decodes the other's output, to an equal value, and
    # consumes the whole buffer (unpack raises on a remainder).
    assert codec.unpack(compiled) == from_compiled == value
    delta = _delta(before)
    assert [delta[key] for key in ("fast_packs", "fast_unpacks",
                                   "slow_packs", "slow_unpacks")] == [1] * 4


# ---------------------------------------------------------------------------
# Strictness, once per combinator, on both paths
# ---------------------------------------------------------------------------

_Colour = Enum(-1, 2, 5)
_Choice = Union("choice", {0: None, 1: UInt32, 2: VOID})
_Everything = Struct("everything", [
    ("word", UInt32), ("wide", xdr.Hyper), ("flag", Bool),
    ("colour", _Colour), ("blob", Opaque(8)), ("name", String(8)),
    ("five", FixedOpaque(5)), ("maybe", Optional(xdr.UHyper)),
    ("some", Array(xdr.Int32, 4)), ("pair", FixedArray(UInt32, 2)),
    ("chain", LinkedList(Struct("link", [("n", UInt32)]))),
    ("choice", _Choice),
])
_EVERYTHING = Record(
    word=7, wide=-3, flag=True, colour=-1, blob=b"abc", name="héé",
    five=b"12345", maybe=9, some=[-1, 2], pair=[3, 4],
    chain=[Record(n=1), Record(n=2)], choice=(1, 6))


_ENCODED = _Everything.pack(_EVERYTHING)


def _word(value):
    return struct.pack(">I", value)


#: (what is wrong, codec, bytes that must not decode)
BAD_BYTES = [
    ("nonzero opaque padding", Opaque(), _word(3) + b"abc\x01"),
    ("nonzero string padding", String(), _word(2) + b"ab\x00\x01"),
    ("nonzero fixed-opaque padding", FixedOpaque(5), b"12345\x00\x01\x00"),
    ("trailing word", UInt32, _word(1) + _word(0)),
    ("trailing word after void", VOID, _word(0)),
    ("bool = 2", Bool, _word(2)),
    ("optional flag = 2", Optional(UInt32), _word(2) + _word(0)),
    ("list flag = 2", LinkedList(UInt32), _word(2) + _word(0) + _word(0)),
    ("enum outside its set", _Colour, _word(3)),
    ("opaque longer than maximum", Opaque(4), _word(5) + b"12345\0\0\0"),
    ("string longer than maximum", String(4), _word(5) + b"12345\0\0\0"),
    ("array longer than maximum", Array(UInt32, 1), _word(2) + _word(0) * 2),
    ("unknown discriminant, no default", _Choice, _word(9)),
    ("body on a void arm", _Choice, _word(0) + _word(6)),
    ("short fixed array", FixedArray(UInt32, 2), _word(1)),
    ("invalid UTF-8", String(), _word(2) + b"\xff\xfe\0\0"),
] + [
    (f"truncated at byte {cut}", _Everything, _ENCODED[:cut])
    for cut in range(0, len(_ENCODED), 4)
]

#: (what is wrong, codec, value that must not encode)
BAD_VALUES = [
    ("uint32 below range", UInt32, -1),
    ("uint32 above range", UInt32, 2**32),
    ("int32 above range", xdr.Int32, 2**31),
    ("uhyper above range", xdr.UHyper, 2**64),
    ("hyper below range", xdr.Hyper, -2**63 - 1),
    ("enum outside its set", _Colour, 3),
    ("wrong-length fixed opaque", FixedOpaque(5), b"1234"),
    ("opaque longer than maximum", Opaque(4), b"12345"),
    ("string longer than maximum", String(4), "12345"),
    ("string longer than maximum once encoded", String(4), "ééé"),
    ("array longer than maximum", Array(UInt32, 1), [1, 2]),
    ("wrong-length fixed array", FixedArray(UInt32, 2), [1]),
    ("value for void", VOID, 0),
    ("unknown discriminant, no default", _Choice, (9, None)),
    ("body on a void arm", _Choice, (0, 6)),
    ("body on a VOID arm", _Choice, (2, 6)),
    ("missing struct field", Struct("s", [("a", UInt32)]), Record(b=1)),
    ("out-of-range field deep inside", _Everything,
     Record(**{**_EVERYTHING._asdict(), "chain": [Record(n=-1)]})),
]


@pytest.mark.parametrize("fast", [True, False], ids=["compiled", "reference"])
@pytest.mark.parametrize("codec, raw",
                         [pytest.param(c, r, id=w) for w, c, r in BAD_BYTES])
def test_malformed_bytes_rejected(codec, raw, fast):
    backend.set_fast(fast)
    with pytest.raises(XdrError):
        codec.unpack(raw)
    with pytest.raises(XdrError):
        codec.unpack(memoryview(raw))


@pytest.mark.parametrize("fast", [True, False], ids=["compiled", "reference"])
@pytest.mark.parametrize("codec, value",
                         [pytest.param(c, v, id=w) for w, c, v in BAD_VALUES])
def test_illegal_value_rejected(codec, value, fast):
    backend.set_fast(fast)
    with pytest.raises(XdrError):
        codec.pack(value)


def test_everything_roundtrips_flat():
    """The strictness codec itself takes the compiled path, so the table
    above does exercise the generated checks rather than the fallback."""
    before = xdr.STATS.snapshot()
    encoded = _Everything.pack(_EVERYTHING)
    assert _Everything.unpack(encoded) == _EVERYTHING
    assert _Everything.unpack(memoryview(encoded)) == _EVERYTHING
    delta = _delta(before)
    assert (delta["fast_packs"], delta["fast_unpacks"]) == (1, 2)
    assert delta["slow_packs"] == delta["slow_unpacks"] == 0
    backend.set_fast(False)
    assert _Everything.pack(_EVERYTHING) == encoded


# ---------------------------------------------------------------------------
# The fallback: exotic values marshal, compiler bugs do not hide
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("exotic", [
    pytest.param({"word": 1, "blob": b"abc"}, id="dict"),
    pytest.param(Record(word=1, blob=memoryview(b"abc")), id="memoryview"),
    pytest.param(Record(word=1, blob=bytearray(b"abc")), id="bytearray"),
])
def test_exotic_but_legal_values_take_the_reference_path(exotic):
    codec = Struct("odd", [("word", UInt32), ("blob", Opaque(8))])
    before = xdr.STATS.snapshot()
    encoded = codec.pack(exotic)
    delta = _delta(before)
    assert (delta["fast_packs"], delta["slow_packs"]) == (0, 1)
    assert encoded == codec.pack(Record(word=1, blob=b"abc"))


def test_codec_without_emit_methods_fails_at_compile_time():
    class Bare(xdr.Codec):
        def encode(self, packer, value):
            packer.pack_uint32(value)

        def decode(self, unpacker):
            return unpacker.unpack_uint32()

    with pytest.raises(NotImplementedError, match="Bare"):
        Bare().pack(1)
    with pytest.raises(NotImplementedError, match="Bare"):
        Struct("holder", [("inner", Bare())]).unpack(_word(1))
    backend.set_fast(False)
    assert Bare().pack(1) == _word(1)


def test_compiler_bug_surfaces_as_itself():
    """Only the four not-the-canonical-shape exceptions fall back."""
    class Buggy(xdr.Codec):
        def encode(self, packer, value):
            packer.pack_uint32(value)

        def decode(self, unpacker):
            return unpacker.unpack_uint32()

        def emit_pack(self, src, expr):
            src.line("out += {}['missing']")

        def emit_unpack(self, src):
            src.line("[][1]")
            return "None"

    with pytest.raises(KeyError):
        Buggy().pack(1)
    with pytest.raises(IndexError):
        Buggy().unpack(_word(1))


def test_identical_layouts_share_one_struct_object():
    from repro.nfs3 import types
    used = [{id(v) for v in fn.__globals__.values()
             if isinstance(v, struct.Struct) and v.size == 88}
            for fn in (types.LookupRes.flat()[0], types.ReadRes.flat()[0],
                       types.AccessRes.flat()[0])]
    assert used[0] and used[0] == used[1] == used[2]


def test_struct_make_checks_field_names():
    point = Struct("point", [("x", UInt32), ("y", UInt32)])
    assert point.make(x=1, y=2) == Record(x=1, y=2)
    with pytest.raises(XdrError, match=r"point: bad fields "
                       r"\(missing=\['y'\], extra=\['z'\]\)"):
        point.make(x=1, z=2)
