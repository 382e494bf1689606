"""Every NFS 3 dispatch table, built one way.

nfsd, sfssd's relay, sfscd's relay, sfscd's ``/sfs`` root, the read-only
mount and nfsmounter's stale stub each serve some NFS 3 procedures.
:func:`nfs3_program` registers them with the declared codecs and names
(:mod:`.types`, :mod:`.const`); a procedure a table leaves out answers
PROC_UNAVAIL.
"""

from __future__ import annotations

from typing import Any, Callable

from ..rpc.peer import CallContext, Program
from ..rpc.xdr import RAW
from . import const, types

Handler = Callable[[Any, CallContext], Any]

#: Every procedure a table may serve (NULL comes with any Program).
PROCS = tuple(proc for proc in types.PROC_CODECS
              if proc != const.NFSPROC3_NULL)


def nfs3_program(name: str, handlers: dict[int, Handler],
                 prog: int = const.NFS3_PROGRAM,
                 vers: int = const.NFS3_VERSION,
                 wire: bool = False) -> Program:
    """A program serving *handlers* (proc -> handler) as NFS 3, under
    NFS 3's program number unless *prog*/*vers* say otherwise.  With
    *wire*, a handler takes its argument bytes and returns its result
    bytes (:data:`~repro.rpc.xdr.RAW`): sfssd's relay patches them.

    Each handler is registered as given, not wrapped, so whatever
    inspects a handler (a tracer filing it by module) sees its own.
    """
    program = Program(name, prog, vers)
    program.idempotent = const.IDEMPOTENT_PROCS
    for proc, handler in handlers.items():
        arg_codec, res_codec = (RAW, RAW) if wire else types.PROC_CODECS[proc]
        program.add_proc(proc, const.PROC_NAMES[proc], arg_codec, res_codec,
                         handler)
    return program


def refuse(status: int) -> Handler:
    """A handler failing any procedure with *status* and its empty
    failure arm."""
    def handler(args: Any, ctx: CallContext):
        return status, types.failure_arm(ctx.header.proc)
    return handler
