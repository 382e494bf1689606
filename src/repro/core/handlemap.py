"""Rewrite NFS file handles and attributes inside protocol messages.

The SFS server translates between the Blowfish-encrypted handles it
gives clients and the plain handles of its local NFS server (paper
3.3).  The SFS client translates no handle: it passes the server's to
the kernel as they are, and only sets the ``fsid`` of every fattr3 in a
reply to the device number it gave the mount.

Where the handles sit in each procedure's argument and (successful)
result records, and where its fattr3 records sit, is derived from the
XDR declarations (:data:`repro.nfs3.types.ARG_HANDLES`, ``RES_HANDLES``,
``ENTRY_HANDLES`` and ``ATTR_SITES``); this module is the one reader of
those tables.

The relays patch wire images (:func:`patch_args`, :func:`patch_result`)
and never build a record for it: each procedure's patch is compiled from
its declaration (:meth:`repro.rpc.xdr.Codec.patcher`).  With
:data:`repro.crypto.backend.use_fast_marshal` off — or where a compiled
patch refuses its input — the same patch is decode, then
:func:`translate_args` / :func:`translate_result` and the fsid sites on
the records, then encode: the reference, which raises the canonical
:class:`~repro.rpc.xdr.XdrError` on a malformed image.
"""

from __future__ import annotations

from typing import Any, Callable

from ..crypto import backend
from ..nfs3 import const
from ..nfs3.types import (
    ARG_HANDLES,
    ATTR_SITES,
    ENTRY_HANDLES,
    PATCH_SITES,
    PROC_CODECS,
    RES_HANDLES,
)
from ..rpc.xdr import _NOT_FLAT, Codec

HandleFn = Callable[[bytes], bytes]


def _apply(record: Any, path: tuple[str, ...], fn: HandleFn,
           optional: bool) -> None:
    target = record
    for attr in path[:-1]:
        target = getattr(target, attr)
    value = getattr(target, path[-1])
    if value is None and optional:
        return
    setattr(target, path[-1], fn(value))


def _apply_all(record: Any, sites, lists, fn) -> None:
    for path, optional in sites:
        _apply(record, path, fn, optional)
    for path, inner in lists:
        entries = record
        for attr in path:
            entries = getattr(entries, attr)
        for entry in entries:
            for site, optional in inner:
                _apply(entry, site, fn, optional)


def translate_args(proc: int, args: Any, fn: HandleFn) -> Any:
    """Rewrite every handle in a request record with *fn* (in place)."""
    _apply_all(args, ARG_HANDLES.get(proc, ()), (), fn)
    return args


def translate_result(proc: int, status: int, body: Any, fn: HandleFn) -> Any:
    """Rewrite every handle in a successful result record with *fn*."""
    if status != const.NFS3_OK or body is None:
        return body
    _apply_all(body, RES_HANDLES.get(proc, ()), ENTRY_HANDLES.get(proc, ()),
               fn)
    return body


def handles(proc: int, args: Any, body: Any = None) -> list[bytes]:
    """Every handle a request carries, then every handle present in its
    successful result *body* (if one is given)."""
    found: list[bytes] = []

    def collect(handle: bytes) -> bytes:
        found.append(handle)
        return handle

    translate_args(proc, args, collect)
    translate_result(proc, const.NFS3_OK, body, collect)
    return found


def patch_args(proc: int, data: bytes,
               fn: HandleFn | None) -> tuple[bytes, list[bytes]]:
    """*proc*'s argument image with each handle replaced by ``fn(handle)``
    (unchanged for a None *fn*), and the handles it held."""
    return _patch(proc, 0, data, fn, None)


def patch_result(proc: int, data: bytes, fn: HandleFn | None,
                 fsid: int | None) -> tuple[bytes, list[bytes]]:
    """*proc*'s result image with each handle replaced by ``fn(handle)``
    and each fattr3's ``fsid`` set to *fsid* (None leaves either as it
    is), and the handles it held."""
    return _patch(proc, 1, data, fn, fsid)


_PATCHERS: dict[Codec, Callable] = {}


def _patch(proc: int, side: int, data: bytes, fn: HandleFn | None,
           fsid: int | None) -> tuple[bytes, list[bytes]]:
    """Patch *data*, the arguments (*side* 0) or result (1) of *proc*."""
    codec = PROC_CODECS[proc][side]
    if backend.use_fast_marshal:
        patcher = _PATCHERS.get(codec)
        if patcher is None:
            patcher = _PATCHERS[codec] = codec.patcher(*PATCH_SITES)
        try:
            return patcher(data, fn, fsid)
        except _NOT_FLAT:
            pass  # the reference decides: an XdrError, or the image
    seen: list[bytes] = []

    def translate(handle: bytes) -> bytes:
        seen.append(handle)
        return handle if fn is None else fn(handle)

    value = codec.unpack(data)
    if not side:
        translate_args(proc, value, translate)
        return codec.pack(value), seen
    status, body = value
    translate_result(proc, status, body, translate)
    if fsid is not None and body is not None:
        def set_fsid(attrs: Any) -> Any:
            attrs.fsid = fsid
            return attrs
        _apply_all(body, *ATTR_SITES[proc][status != const.NFS3_OK],
                   set_fsid)
    return codec.pack(value), seen
