"""XDR — External Data Representation (RFC 1832), from scratch.

All SFS programs "communicate with Sun RPC ... the exact bytes exchanged
between programs are clearly and unambiguously described in the XDR
protocol description language.  We also use XDR to define SFS's
cryptographic protocols.  Any data that SFS hashes, signs, or public-key
encrypts is defined as an XDR data structure; SFS computes the hash or
public key function on the raw, marshaled bytes." (paper section 3.2)

This module provides the byte-level :class:`Packer`/:class:`Unpacker`
pair plus a declarative codec-combinator layer (:class:`Struct`,
:class:`Union`, :class:`Array`, ...) used to describe every protocol in
the repository.  Structs decode to :class:`Record` objects that offer
attribute access, equality, and a readable repr — which also powers the
RPC library's traffic pretty-printer.

Marshaling is on the wire path of every RPC hop, so the byte layer is
built to avoid per-item allocation: a :class:`Packer` writes into a
pooled ``bytearray`` with ``struct.pack_into`` (the pool is recycled by
:meth:`Packer.detach`, the terminal snapshot-and-release used by the
one-shot helpers), and an :class:`Unpacker` reads numerics in place with
``struct.unpack_from`` — no intermediate 4/8-byte slices.  An Unpacker
also accepts ``memoryview`` input so record parsing never copies the
payload region just to decode it.

A declaration is the only description of a message.  Each combinator
has two readings of it: ``encode``/``decode`` *interpret* the
declaration against a Packer/Unpacker, field by field — the reference —
and ``emit_pack``/``emit_unpack`` *compile* it, writing the statements
of one flat function per codec into a :class:`_Source`, which gathers
consecutive fixed-width items across nesting into a single
``struct.Struct`` call.  :meth:`Codec.pack`/:meth:`Codec.unpack` build
the two flat functions on first use and run them when
:data:`repro.crypto.backend.use_fast_marshal` is on.  A flat function
handles the canonical shape only and raises on anything else; the
interpreter is then re-run, and either marshals the exotic-but-legal
value (a dict, a ``memoryview`` handle) or raises the canonical
:class:`XdrError`.  Both readings produce identical bytes and enforce
the same strictness (zero-filled padding, no trailing bytes, flags in
{0, 1}, enum membership, maxima, integer ranges) — the golden
wire-vector suite and ``tests/unit/test_xdr_compiled.py`` assert it for
every declared codec.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..crypto import backend

UNLIMITED = 0xFFFFFFFF

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")

_PAD = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")


class XdrError(Exception):
    """Raised on malformed XDR data or out-of-range values."""


def _padding(length: int) -> int:
    return (4 - length % 4) % 4


class MarshalStats:
    """Process-wide marshaling counters, surfaced by the bench layer."""

    __slots__ = ("fast_packs", "fast_unpacks", "slow_packs",
                 "slow_unpacks", "pool_hits", "pool_misses")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.fast_packs = 0
        self.fast_unpacks = 0
        self.slow_packs = 0
        self.slow_unpacks = 0
        self.pool_hits = 0
        self.pool_misses = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "fast_packs": self.fast_packs,
            "fast_unpacks": self.fast_unpacks,
            "slow_packs": self.slow_packs,
            "slow_unpacks": self.slow_unpacks,
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
        }


STATS = MarshalStats()

# Recycled Packer buffers.  Small stack: steady-state RPC traffic keeps
# a handful in flight (call pack + reply pack per hop).  Buffers above
# _MAX_POOLED (a full WRITE record is ~8.2 KB; 128 KB is far past any
# legal record) are dropped rather than hoarded.
_POOL: list[bytearray] = []
_POOL_MAX = 8
_MAX_POOLED = 1 << 17


class Packer:
    """Serializes primitive XDR items into a pooled, growing buffer."""

    __slots__ = ("_buf", "_len")

    def __init__(self) -> None:
        if _POOL:
            self._buf = _POOL.pop()
            STATS.pool_hits += 1
        else:
            self._buf = bytearray(256)
            STATS.pool_misses += 1
        self._len = 0

    def data(self) -> bytes:
        """Snapshot the packed bytes (non-destructive)."""
        return bytes(memoryview(self._buf)[: self._len])

    def detach(self) -> bytes:
        """Snapshot the packed bytes and recycle the buffer.

        Terminal: the Packer must not be used afterwards.  All one-shot
        pack helpers end with this so steady-state marshaling reuses the
        same few buffers instead of growing a fresh one per message.
        """
        buf = self._buf
        out = bytes(memoryview(buf)[: self._len])
        self._buf = None  # type: ignore[assignment] - poison further use
        if len(_POOL) < _POOL_MAX and len(buf) <= _MAX_POOLED:
            _POOL.append(buf)
        return out

    def _write(self, raw: bytes) -> None:
        off = self._len
        end = off + len(raw)
        # Slice assignment both overwrites reserved space and extends
        # past the end, so one statement covers the grow-or-fit cases.
        self._buf[off:end] = raw
        self._len = end

    def pack_raw(self, raw: bytes) -> None:
        """Append pre-marshaled bytes (an already-packed body)."""
        self._write(raw)

    def pack_uint32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise XdrError(f"uint32 out of range: {value}")
        off = self._len
        buf = self._buf
        if off + 4 > len(buf):
            buf.extend(bytes(len(buf) or 64))
        _U32.pack_into(buf, off, value)
        self._len = off + 4

    def pack_int32(self, value: int) -> None:
        if not -0x80000000 <= value <= 0x7FFFFFFF:
            raise XdrError(f"int32 out of range: {value}")
        off = self._len
        buf = self._buf
        if off + 4 > len(buf):
            buf.extend(bytes(len(buf) or 64))
        _I32.pack_into(buf, off, value)
        self._len = off + 4

    def pack_uhyper(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise XdrError(f"uhyper out of range: {value}")
        off = self._len
        buf = self._buf
        if off + 8 > len(buf):
            buf.extend(bytes(len(buf) or 64))
        _U64.pack_into(buf, off, value)
        self._len = off + 8

    def pack_hyper(self, value: int) -> None:
        if not -(1 << 63) <= value < (1 << 63):
            raise XdrError(f"hyper out of range: {value}")
        off = self._len
        buf = self._buf
        if off + 8 > len(buf):
            buf.extend(bytes(len(buf) or 64))
        _I64.pack_into(buf, off, value)
        self._len = off + 8

    def pack_bool(self, value: bool) -> None:
        self.pack_uint32(1 if value else 0)

    def pack_fixed_opaque(self, value: bytes, length: int) -> None:
        if len(value) != length:
            raise XdrError(f"fixed opaque must be {length} bytes, got {len(value)}")
        self._write(value)
        pad = _padding(length)
        if pad:
            self._write(_PAD[pad])

    def pack_opaque(self, value: bytes, maximum: int = UNLIMITED) -> None:
        if len(value) > maximum:
            raise XdrError(f"opaque exceeds maximum {maximum}")
        self.pack_uint32(len(value))
        self._write(value)
        pad = _padding(len(value))
        if pad:
            self._write(_PAD[pad])

    def pack_string(self, value: str, maximum: int = UNLIMITED) -> None:
        self.pack_opaque(value.encode(), maximum)


class Unpacker:
    """Deserializes primitive XDR items from a byte buffer.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` input; numerics
    are read in place with ``unpack_from`` and only opaque payloads are
    materialized as fresh ``bytes`` (callers hash them and use them as
    dict keys, so they must be real immutable bytes).
    """

    __slots__ = ("_data", "_offset", "_len")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0
        self._len = len(data)

    def done(self) -> None:
        """Assert the whole buffer was consumed."""
        if self._offset != self._len:
            raise XdrError(
                f"{self._len - self._offset} unconsumed bytes after decode"
            )

    def remaining(self) -> int:
        return self._len - self._offset

    def unpack_uint32(self) -> int:
        off = self._offset
        if off + 4 > self._len:
            raise XdrError("truncated XDR data")
        self._offset = off + 4
        return _U32.unpack_from(self._data, off)[0]

    def unpack_int32(self) -> int:
        off = self._offset
        if off + 4 > self._len:
            raise XdrError("truncated XDR data")
        self._offset = off + 4
        return _I32.unpack_from(self._data, off)[0]

    def unpack_uhyper(self) -> int:
        off = self._offset
        if off + 8 > self._len:
            raise XdrError("truncated XDR data")
        self._offset = off + 8
        return _U64.unpack_from(self._data, off)[0]

    def unpack_hyper(self) -> int:
        off = self._offset
        if off + 8 > self._len:
            raise XdrError("truncated XDR data")
        self._offset = off + 8
        return _I64.unpack_from(self._data, off)[0]

    def unpack_bool(self) -> bool:
        value = self.unpack_uint32()
        if value not in (0, 1):
            raise XdrError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    def unpack_fixed_opaque(self, length: int) -> bytes:
        off = self._offset
        end = off + length
        pad = _padding(length)
        if end + pad > self._len:
            raise XdrError("truncated XDR data")
        data = self._data
        for k in range(end, end + pad):
            if data[k]:
                raise XdrError("nonzero XDR padding")
        self._offset = end + pad
        chunk = data[off:end]
        return chunk if chunk.__class__ is bytes else bytes(chunk)

    def unpack_opaque(self, maximum: int = UNLIMITED) -> bytes:
        length = self.unpack_uint32()
        if length > maximum:
            raise XdrError(f"opaque length {length} exceeds maximum {maximum}")
        return self.unpack_fixed_opaque(length)

    def unpack_string(self, maximum: int = UNLIMITED) -> str:
        raw = self.unpack_opaque(maximum)
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise XdrError(f"string is not valid UTF-8: {exc}") from None


class Record:
    """A decoded XDR struct: attribute access, equality, readable repr."""

    def __init__(self, **fields: Any) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"Record({inner})"

    def _asdict(self) -> dict[str, Any]:
        return dict(self.__dict__)


# ---------------------------------------------------------------------------
# The compiled reading of a declaration
# ---------------------------------------------------------------------------

#: What a flat function raises on anything but the canonical shape; the
#: interpreter is re-run and is the authority on the value or the error.
_NOT_FLAT = (struct.error, ValueError, TypeError, AttributeError)

#: ``struct.Struct`` objects by format, shared by every flat function.
_STRUCTS: dict[str, struct.Struct] = {}


def _take(data: Any, off: int, length: int) -> bytes:
    """The opaque body at *off*, bounds and zero fill checked."""
    end = off + length
    stop = end + (-length & 3)
    if stop > len(data) or (stop != end and any(data[end:stop])):
        raise ValueError("truncated or nonzero padding")
    chunk = data[off:end]
    return chunk if chunk.__class__ is bytes else bytes(chunk)


class _Source:
    """The statements of one flat ``pack(value)`` or ``unpack(data)``.

    Fixed-width items are not written as they come: they queue (a format
    plus the expression to pack, or the name to unpack into) across any
    depth of struct nesting, and the run is written as one
    ``struct.Struct`` call when the first variable-length item, branch
    or loop needs the bytes in order.  ``pack`` appends to ``out``;
    ``unpack`` reads ``data`` at ``off``.
    """

    def __init__(self, unpacking: bool) -> None:
        self.unpacking = unpacking
        self.lines: list[str] = []
        self.depth = 1
        self.names: dict[str, Any] = {
            "Record": Record, "_take": _take, "_PAD": _PAD}
        self.locals = 0
        self.run: list[tuple[str, str, str | None]] = []

    def new(self) -> str:
        self.locals += 1
        return f"t{self.locals}"

    def local(self, expr: str) -> str:
        """A plain name for *expr*, so it is evaluated once."""
        if expr.isidentifier():
            return expr
        name = self.new()
        self.line(f"{name} = {expr}", flush=False)
        return name

    def bind(self, constant: Any) -> str:
        for name, bound in self.names.items():
            if bound is constant:
                return name
        name = f"k{len(self.names)}"
        self.names[name] = constant
        return name

    def line(self, text: str, flush: bool = True) -> None:
        """Add a statement; one that reads only the value being packed
        (``flush=False``) may overtake the queued run."""
        if flush:
            self.flush()
        self.lines.append("    " * self.depth + text)

    def put(self, fmt: str, expr: str) -> None:
        self.run.append((fmt, expr, None))

    def take(self, fmt: str, check: str | None = None) -> str:
        """Queue a read; *check* (``{}`` = the name) runs once it is done."""
        name = self.new()
        self.run.append((fmt, name, check and check.format(name)))
        return name

    def take_flag(self) -> str:
        return self.take("I", "if {} > 1: raise ValueError('flag not 0 or 1')")

    def flush(self) -> None:
        run, self.run = self.run, []
        if not run:
            return
        fmt = ">" + "".join(item[0] for item in run)
        if fmt not in _STRUCTS:
            _STRUCTS[fmt] = struct.Struct(fmt)
        packer = _STRUCTS[fmt]
        items = [item[1] for item in run]
        if self.unpacking:
            self.line(f"{', '.join(items)}, = "
                      f"{self.bind(packer)}.unpack_from(data, off)", False)
            self.line(f"off += {packer.size}", False)
            for _fmt, _name, check in run:
                if check:
                    self.line(check, False)
        elif all(item.isdigit() for item in items):
            self.line(f"out += {packer.pack(*map(int, items))!r}", False)
        else:
            self.line(f"out += {self.bind(packer)}.pack({', '.join(items)})",
                      False)

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.line(header)
        self.depth += 1
        mark = len(self.lines)
        yield
        self.flush()
        if len(self.lines) == mark:
            self.line("pass")
        self.depth -= 1

    def function(self, label: str, result: str = "") -> Callable[[Any], Any]:
        if self.unpacking:
            head = ["def unpack(data):", "    off = 0"]
            self.line("if off != len(data): raise ValueError('trailing bytes')")
            self.line(f"return {result}")
        else:
            head = ["def pack(value):", "    out = bytearray()"]
            self.line("return bytes(out)")
        source = "\n".join(head + self.lines) + "\n"
        exec(compile(source, f"<xdr {label}>", "exec"), self.names)
        function = self.names["unpack" if self.unpacking else "pack"]
        function.source = source
        return function


def _emit_pack_bytes(src: _Source, raw: str, maximum: int) -> None:
    """Length word, body and zero fill of the ``bytes`` named *raw*."""
    size = src.new()
    src.line(f"{size} = len({raw})", False)
    if maximum != UNLIMITED:
        src.line(f"if {size} > {maximum}: raise ValueError('too long')", False)
    src.put("I", size)
    src.line(f"out += {raw}")
    src.line(f"out += _PAD[-{size} & 3]")


def _emit_unpack_bytes(src: _Source, maximum: int) -> str:
    size = src.take("I", None if maximum == UNLIMITED else
                    f"if {{}} > {maximum}: raise ValueError('too long')")
    raw = src.new()
    src.line(f"{raw} = _take(data, off, {size})")
    src.line(f"off += {size} + 3 & -4")
    return raw


def _emit_pack_each(src: _Source, element: "Codec", items: str) -> None:
    item = src.new()
    with src.block(f"for {item} in {items}:"):
        element.emit_pack(src, item)


def _emit_unpack_each(src: _Source, element: "Codec", count: str | int) -> str:
    out = src.new()
    src.line(f"{out} = []")
    with src.block(f"for _ in range({count}):"):
        src.line(f"{out}.append({element.emit_unpack(src)})")
    return out


class Codec:
    """Base class for declarative XDR codecs.

    A combinator reads its declaration twice: ``encode``/``decode``
    interpret it (the reference), ``emit_pack``/``emit_unpack`` write
    the statements that do the same to a :class:`_Source`.
    ``emit_pack`` packs the value of a source expression;
    ``emit_unpack`` returns the expression holding the value read, which
    its caller uses exactly once.
    """

    _flat: tuple[Callable[[Any], bytes], Callable[[Any], Any]] | None = None

    def encode(self, packer: Packer, value: Any) -> None:
        raise NotImplementedError

    def decode(self, unpacker: Unpacker) -> Any:
        raise NotImplementedError

    def emit_pack(self, src: _Source, expr: str) -> None:
        raise NotImplementedError(f"{type(self).__name__} has no emit_pack")

    def emit_unpack(self, src: _Source) -> str:
        raise NotImplementedError(f"{type(self).__name__} has no emit_unpack")

    def flat(self) -> tuple[Callable[[Any], bytes], Callable[[Any], Any]]:
        """The compiled ``(pack, unpack)`` pair, built on first use."""
        if self._flat is None:
            label = getattr(self, "name", type(self).__name__)
            packing, unpacking = _Source(False), _Source(True)
            self.emit_pack(packing, "value")
            result = self.emit_unpack(unpacking)
            self._flat = (packing.function(label),
                          unpacking.function(label, result))
        return self._flat

    def pack(self, value: Any) -> bytes:
        """One-shot encode to bytes."""
        if backend.use_fast_marshal:
            flat = self._flat or self.flat()
            try:
                out = flat[0](value)
            except _NOT_FLAT:
                pass
            else:
                STATS.fast_packs += 1
                return out
        STATS.slow_packs += 1
        packer = Packer()
        self.encode(packer, value)
        return packer.detach()

    def unpack(self, data: bytes) -> Any:
        """One-shot decode from bytes (requires full consumption)."""
        if backend.use_fast_marshal:
            flat = self._flat or self.flat()
            try:
                value = flat[1](data)
            except _NOT_FLAT:
                pass
            else:
                STATS.fast_unpacks += 1
                return value
        STATS.slow_unpacks += 1
        unpacker = Unpacker(data)
        value = self.decode(unpacker)
        unpacker.done()
        return value


class _Simple(Codec):
    def __init__(self, packname: str, unpackname: str, fmt: str) -> None:
        self._packname = packname
        self._unpackname = unpackname
        self._fmt = fmt

    def encode(self, packer: Packer, value: Any) -> None:
        getattr(packer, self._packname)(value)

    def decode(self, unpacker: Unpacker) -> Any:
        return getattr(unpacker, self._unpackname)()

    def emit_pack(self, src: _Source, expr: str) -> None:
        src.put(self._fmt, expr)

    def emit_unpack(self, src: _Source) -> str:
        return src.take(self._fmt)


class _Bool(_Simple):
    def emit_pack(self, src: _Source, expr: str) -> None:
        src.put("I", f"(1 if {expr} else 0)")

    def emit_unpack(self, src: _Source) -> str:
        return f"({src.take_flag()} == 1)"


UInt32 = _Simple("pack_uint32", "unpack_uint32", "I")
Int32 = _Simple("pack_int32", "unpack_int32", "i")
UHyper = _Simple("pack_uhyper", "unpack_uhyper", "Q")
Hyper = _Simple("pack_hyper", "unpack_hyper", "q")
Bool = _Bool("pack_bool", "unpack_bool", "I")


class Void(Codec):
    """The XDR void type (no bytes on the wire)."""

    def encode(self, packer: Packer, value: Any) -> None:
        if value is not None:
            raise XdrError("void takes no value")

    def decode(self, unpacker: Unpacker) -> None:
        return None

    def emit_pack(self, src: _Source, expr: str) -> None:
        src.line(f"if {expr} is not None: raise ValueError('void')", False)

    def emit_unpack(self, src: _Source) -> str:
        return "None"


VOID = Void()


class Enum(Codec):
    """An int32 constrained to a set of allowed values."""

    def __init__(self, *values: int) -> None:
        self._values = frozenset(values)

    def encode(self, packer: Packer, value: int) -> None:
        if value not in self._values:
            raise XdrError(f"enum value {value} not allowed")
        packer.pack_int32(value)

    def decode(self, unpacker: Unpacker) -> int:
        value = unpacker.unpack_int32()
        if value not in self._values:
            raise XdrError(f"enum value {value} not allowed")
        return value

    def _check(self, src: _Source) -> str:
        return f"if {{}} not in {src.bind(self._values)}: raise ValueError('enum')"

    def emit_pack(self, src: _Source, expr: str) -> None:
        value = src.local(expr)
        src.line(self._check(src).format(value), False)
        src.put("i", value)

    def emit_unpack(self, src: _Source) -> str:
        return src.take("i", self._check(src))


class FixedOpaque(Codec):
    def __init__(self, length: int) -> None:
        self.length = length

    def encode(self, packer: Packer, value: bytes) -> None:
        packer.pack_fixed_opaque(value, self.length)

    def decode(self, unpacker: Unpacker) -> bytes:
        return unpacker.unpack_fixed_opaque(self.length)

    def emit_pack(self, src: _Source, expr: str) -> None:
        raw = src.local(expr)
        src.line(f"if {raw}.__class__ is not bytes or len({raw}) != "
                 f"{self.length}: raise ValueError('fixed opaque')", False)
        src.put(f"{self.length}s" + "x" * _padding(self.length), raw)

    def emit_unpack(self, src: _Source) -> str:
        raw = src.take(f"{self.length}s")
        pad = _padding(self.length)
        if pad:
            src.take(f"{pad}s", f"if {{}} != {_PAD[pad]!r}: "
                                "raise ValueError('nonzero padding')")
        return raw


class Opaque(Codec):
    def __init__(self, maximum: int = UNLIMITED) -> None:
        self.maximum = maximum

    def encode(self, packer: Packer, value: bytes) -> None:
        packer.pack_opaque(value, self.maximum)

    def decode(self, unpacker: Unpacker) -> bytes:
        return unpacker.unpack_opaque(self.maximum)

    def emit_pack(self, src: _Source, expr: str) -> None:
        raw = src.local(expr)
        src.line(f"if {raw}.__class__ is not bytes: raise TypeError('opaque')",
                 False)
        _emit_pack_bytes(src, raw, self.maximum)

    def emit_unpack(self, src: _Source) -> str:
        return _emit_unpack_bytes(src, self.maximum)


class String(Codec):
    def __init__(self, maximum: int = UNLIMITED) -> None:
        self.maximum = maximum

    def encode(self, packer: Packer, value: str) -> None:
        packer.pack_string(value, self.maximum)

    def decode(self, unpacker: Unpacker) -> str:
        return unpacker.unpack_string(self.maximum)

    def emit_pack(self, src: _Source, expr: str) -> None:
        raw = src.new()
        src.line(f"{raw} = {expr}.encode()", False)
        _emit_pack_bytes(src, raw, self.maximum)

    def emit_unpack(self, src: _Source) -> str:
        return f"{_emit_unpack_bytes(src, self.maximum)}.decode()"


class Array(Codec):
    """Variable-length XDR array."""

    def __init__(self, element: Codec, maximum: int = UNLIMITED) -> None:
        self.element = element
        self.maximum = maximum

    def encode(self, packer: Packer, value: Sequence[Any]) -> None:
        if len(value) > self.maximum:
            raise XdrError(f"array exceeds maximum {self.maximum}")
        packer.pack_uint32(len(value))
        for item in value:
            self.element.encode(packer, item)

    def decode(self, unpacker: Unpacker) -> list[Any]:
        length = unpacker.unpack_uint32()
        if length > self.maximum:
            raise XdrError(f"array length {length} exceeds maximum {self.maximum}")
        return [self.element.decode(unpacker) for _ in range(length)]

    def _check(self) -> str:
        return f"if {{}} > {self.maximum}: raise ValueError('too many')"

    def emit_pack(self, src: _Source, expr: str) -> None:
        items, size = src.local(expr), src.new()
        src.line(f"{size} = len({items})", False)
        src.line(self._check().format(size), False)
        src.put("I", size)
        _emit_pack_each(src, self.element, items)

    def emit_unpack(self, src: _Source) -> str:
        return _emit_unpack_each(src, self.element,
                                 src.take("I", self._check()))


class FixedArray(Codec):
    def __init__(self, element: Codec, length: int) -> None:
        self.element = element
        self.length = length

    def encode(self, packer: Packer, value: Sequence[Any]) -> None:
        if len(value) != self.length:
            raise XdrError(f"fixed array must have {self.length} elements")
        for item in value:
            self.element.encode(packer, item)

    def decode(self, unpacker: Unpacker) -> list[Any]:
        return [self.element.decode(unpacker) for _ in range(self.length)]

    def emit_pack(self, src: _Source, expr: str) -> None:
        items = src.local(expr)
        src.line(f"if len({items}) != {self.length}: "
                 "raise ValueError('fixed array')", False)
        _emit_pack_each(src, self.element, items)

    def emit_unpack(self, src: _Source) -> str:
        return _emit_unpack_each(src, self.element, self.length)


class Optional(Codec):
    """XDR optional data (``*`` in the language): bool + value-if-present."""

    def __init__(self, element: Codec) -> None:
        self.element = element

    def encode(self, packer: Packer, value: Any) -> None:
        if value is None:
            packer.pack_bool(False)
        else:
            packer.pack_bool(True)
            self.element.encode(packer, value)

    def decode(self, unpacker: Unpacker) -> Any:
        if unpacker.unpack_bool():
            return self.element.decode(unpacker)
        return None

    def emit_pack(self, src: _Source, expr: str) -> None:
        value = src.local(expr)
        with src.block(f"if {value} is None:"):
            src.put("I", "0")
        with src.block("else:"):
            src.put("I", "1")
            self.element.emit_pack(src, value)

    def emit_unpack(self, src: _Source) -> str:
        flag, out = src.take_flag(), src.new()
        src.line(f"{out} = None")
        with src.block(f"if {flag}:"):
            src.line(f"{out} = {self.element.emit_unpack(src)}")
        return out


class LinkedList(Codec):
    """XDR optional-data chain as a list: ``(true, element)* false``.

    The encoding of ``*entry`` where entry ends with its own ``*next``
    (READDIR entries, READV/WRITEV segments).
    """

    def __init__(self, element: Codec) -> None:
        self.element = element

    def encode(self, packer: Packer, value: Sequence[Any]) -> None:
        for item in value:
            packer.pack_bool(True)
            self.element.encode(packer, item)
        packer.pack_bool(False)

    def decode(self, unpacker: Unpacker) -> list[Any]:
        out = []
        while unpacker.unpack_bool():
            out.append(self.element.decode(unpacker))
        return out

    def emit_pack(self, src: _Source, expr: str) -> None:
        item = src.new()
        with src.block(f"for {item} in {expr}:"):
            src.put("I", "1")
            self.element.emit_pack(src, item)
        src.put("I", "0")

    def emit_unpack(self, src: _Source) -> str:
        out = src.new()
        src.line(f"{out} = []")
        with src.block("while True:"):
            src.line(f"if not {src.take_flag()}: break")
            src.line(f"{out}.append({self.element.emit_unpack(src)})")
        return out


class Struct(Codec):
    """Named XDR struct; decodes to :class:`Record`.

    Accepts either a mapping or any object with matching attributes when
    encoding, so callers can pass dicts, Records, or dataclasses.
    """

    def __init__(self, name: str, fields: Iterable[tuple[str, Codec]]) -> None:
        self.name = name
        self.fields = list(fields)
        self._names = frozenset(name for name, _ in self.fields)

    def encode(self, packer: Packer, value: Any) -> None:
        keyed = isinstance(value, Mapping)
        for field_name, codec in self.fields:
            try:
                item = value[field_name] if keyed else getattr(value, field_name)
            except (KeyError, AttributeError):
                raise XdrError(
                    f"{self.name}: missing field {field_name!r}"
                ) from None
            codec.encode(packer, item)

    def decode(self, unpacker: Unpacker) -> Record:
        return Record(
            **{name: codec.decode(unpacker) for name, codec in self.fields}
        )

    def emit_pack(self, src: _Source, expr: str) -> None:
        value = src.local(expr)
        for name, codec in self.fields:
            codec.emit_pack(src, f"{value}.{name}")

    def emit_unpack(self, src: _Source) -> str:
        fields = [f"{name}={codec.emit_unpack(src)}"
                  for name, codec in self.fields]
        return f"Record({', '.join(fields)})"

    def make(self, **fields: Any) -> Record:
        """Build a Record for this struct, checking the field names."""
        if fields.keys() != self._names:
            missing = self._names - fields.keys()
            extra = fields.keys() - self._names
            raise XdrError(
                f"{self.name}: bad fields (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        return Record(**fields)


class Union(Codec):
    """Discriminated XDR union.

    Values are ``(discriminant, body)`` tuples.  *arms* maps discriminant
    values to codecs (``None`` meaning void); *default* covers all other
    discriminants (omit it to make unknown discriminants an error).
    """

    _NO_DEFAULT = object()

    def __init__(
        self,
        name: str,
        arms: Mapping[int, Codec | None],
        default: Codec | None | object = _NO_DEFAULT,
    ) -> None:
        self.name = name
        self.arms = dict(arms)
        self.default = default

    def _arm(self, disc: int) -> Codec | None:
        if disc in self.arms:
            return self.arms[disc]
        if self.default is Union._NO_DEFAULT:
            raise XdrError(f"{self.name}: unknown union discriminant {disc}")
        return self.default  # type: ignore[return-value]

    def encode(self, packer: Packer, value: tuple[int, Any]) -> None:
        disc, body = value
        codec = self._arm(disc)
        packer.pack_uint32(disc)
        if codec is None:
            if body is not None:
                raise XdrError(f"{self.name}: void arm takes no body")
        else:
            codec.encode(packer, body)

    def decode(self, unpacker: Unpacker) -> tuple[int, Any]:
        disc = unpacker.unpack_uint32()
        codec = self._arm(disc)
        if codec is None:
            return disc, None
        return disc, codec.decode(unpacker)

    def _emit_arms(self, src: _Source, disc: str,
                   emit_arm: Callable[[Codec], None]) -> None:
        """An ``if``/``elif``/``else`` over *disc*, one test per distinct
        arm codec; a declared void arm (``None``) is :data:`VOID`."""
        by_arm: dict[int, list[int]] = {}
        for value, codec in self.arms.items():
            by_arm.setdefault(id(codec), []).append(int(value))
        keyword = "if"
        for values in by_arm.values():
            test = f"== {values[0]}" if len(values) == 1 else f"in {tuple(values)}"
            with src.block(f"{keyword} {disc} {test}:"):
                emit_arm(self.arms[values[0]] or VOID)
            keyword = "elif"
        with src.block("else:"):
            if self.default is Union._NO_DEFAULT:
                src.line("raise ValueError('unknown discriminant')")
            else:
                emit_arm(self.default or VOID)

    def emit_pack(self, src: _Source, expr: str) -> None:
        disc, body = src.new(), src.new()
        src.line(f"{disc}, {body} = {expr}", False)
        src.put("I", disc)
        self._emit_arms(src, disc, lambda arm: arm.emit_pack(src, body))

    def emit_unpack(self, src: _Source) -> str:
        disc, body = src.take("I"), src.new()
        self._emit_arms(
            src, disc,
            lambda arm: src.line(f"{body} = {arm.emit_unpack(src)}"))
        return f"({disc}, {body})"
