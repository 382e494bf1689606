"""Translate NFS file handles inside protocol messages.

Both SFS daemons rewrite handles as requests pass through them:

* the server translates between the Blowfish-encrypted handles it gives
  clients and the plain handles of its local NFS server (paper 3.3);
* the client translates between the remote server's handles and the
  handles it gives the local kernel.

Where the handles sit in each procedure's argument and (successful)
result records is derived from the XDR declarations
(:data:`repro.nfs3.types.ARG_HANDLES`, ``RES_HANDLES`` and
``ENTRY_HANDLES``, the last for READDIRPLUS's per-entry handles); this
module is the one reader of those tables.  It applies a translation
function to each handle, mutating the freshly-decoded records in place,
and lists them (:func:`handles`).
"""

from __future__ import annotations

from typing import Any, Callable

from ..nfs3 import const
from ..nfs3.types import ARG_HANDLES, ENTRY_HANDLES, RES_HANDLES

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


def translate_args(proc: int, args: Any, fn: HandleFn) -> Any:
    """Rewrite every handle in a request record with *fn* (in place)."""
    for path, optional in ARG_HANDLES.get(proc, ()):
        _apply(args, path, fn, optional)
    return args


def translate_result(proc: int, status: int, body: Any, fn: HandleFn) -> Any:
    """Rewrite every handle in a successful result record with *fn*."""
    if status != const.NFS3_OK or body is None:
        return body
    for path, optional in RES_HANDLES.get(proc, ()):
        _apply(body, path, fn, optional)
    for path, sites in ENTRY_HANDLES.get(proc, ()):
        entries = body
        for attr in path:
            entries = getattr(entries, attr)
        for entry in entries:
            for site, optional in sites:
                _apply(entry, site, fn, optional)
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
