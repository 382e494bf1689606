"""sfssd — the SFS server master and its subsidiary servers.

"On the server side, a server master, sfssd, accepts all incoming
connections from clients.  sfssd passes each new connection to a
subordinate server based on the version of the client, the service it
requests (currently fileserver or authserver), the self-certifying
pathname it requests, and a currently unused 'extensions' string."
(paper section 3.2)

One :class:`SfsServerMaster` models one server machine (one Location).
It can export any number of file systems, each under its own key and
HostID:

* read-write exports run the figure-3 key negotiation, then relay the
  NFS3-shaped read-write dialect to a local NFS server over a loopback
  RPC connection ("the server acts as an NFS client, passing the request
  to an NFS server on the same machine"), tagging each request with the
  credentials established by user authentication and translating between
  its Blowfish-encrypted handles and the local server's plain ones;
* read-only exports serve signed data with no online private key;
* the authserver service answers sfskey (SRP) and the file server's
  validation requests.

Leases: the server remembers which handles each connection has seen and
calls back (without waiting for acknowledgment) when another connection
mutates them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator

from ..crypto.rabin import PrivateKey
from ..fs.memfs import ANONYMOUS, Cred, MemFs
from ..nfs3 import const as nfs_const
from ..nfs3 import types as nfs_types
from ..nfs3.client import Nfs3Client
from ..nfs3.handles import BadHandle, EncryptedHandles, PlainHandles
from ..nfs3.program import PROCS, nfs3_program
from ..nfs3.server import Nfs3Server
from ..obs.registry import NULL_REGISTRY
from ..rpc.peer import (CallContext, GarbageArgs, Program, Pipe, RpcPeer,
                        RpcTransportDown)
from ..rpc.rpcmsg import (CALL, CRED_MEMO, REPLY, AuthSys, OpaqueAuth,
                          peek_message)
from ..rpc.xdr import RAW, Record, VOID, XdrError
from ..sim.clock import Clock
from ..sim.crash import CrashInjector
from ..sim.network import LinkSide, link_pair
from ..crypto.util import constant_time_eq
from . import handlemap, proto
from .admission import RequestQueue
from .authserv import AuthServer, SrpSession
from .channel import (
    RESYNC_ACK,
    RESYNC_REQUEST,
    SecureChannel,
    make_control_record,
    parse_control_record,
)
from .config import DispatchConfig
from .keyneg import (
    KeyNegotiationError,
    decrypt_key_halves,
    derive_session_keys,
    encrypt_key_halves,
    make_key_halves,
    rekey_auth,
)
from .pathnames import SelfCertifyingPath, make_path
from .readonly import ReadOnlyImage, ReadOnlyStore

ANONYMOUS_AUTHNO = 0
_SEQNO_WINDOW = 64

#: Calls the admission queue must never hold back: the REKEY that
#: completes a channel resync is transport-layer work that has to stay
#: ordered with the channel state machine (CONNECT and ENCRYPT happen
#: on a fresh dial and queue like any other work).
CHANNEL_CALLS = frozenset({(proto.SFS_CONNECT_PROGRAM, proto.PROC_REKEY)})

#: LOOKUP of "." on this handle names an export's root (mount convention).
ZERO_HANDLE = bytes(24)
#: The arguments of the mount convention's LOOKUP of "." in ZERO_HANDLE.
_MOUNT_LOOKUP = nfs_types.LookupArgs.pack(nfs_types.LookupArgs.make(
    what=nfs_types.DirOpArgs.make(dir=ZERO_HANDLE, name=".")))
#: The first word of a successful NFS 3 result.
_NFS3_OK = nfs_const.NFS3_OK.to_bytes(4, "big")


@lru_cache(maxsize=CRED_MEMO)
def make_sfs_cred(authno: int) -> OpaqueAuth:
    """The AUTH_SFS credential carrying an authentication number."""
    return OpaqueAuth(proto.AUTH_SFS, authno.to_bytes(4, "big"))


def parse_sfs_cred(cred: OpaqueAuth) -> int:
    """Extract the authno; anything malformed is anonymous."""
    if cred.flavor != proto.AUTH_SFS or len(cred.body) != 4:
        return ANONYMOUS_AUTHNO
    return int.from_bytes(cred.body, "big")


#: A REKEY CALL's prog, vers and proc words, at byte 12 (RFC 5531).
_REKEY = b"".join(word.to_bytes(4, "big") for word in (
    proto.SFS_CONNECT_PROGRAM, proto.SFS_VERSION, proto.PROC_REKEY))


class _Withdrawn:
    """A :class:`SwitchablePipe`'s lower end while its channel is
    withdrawn for a resync, the one gate of PROTOCOLS.md §10: only
    control records and the REKEY exchange cross it; other sends are
    parked, in order, for the next channel installed to seal, and other
    records that arrive are dropped and counted.  A REPLY goes out only
    while the REKEY CALL it answers is dispatched (the server serves
    a REKEY inline, never yielding), so no forged REKEY-shaped CALL
    lets out a reply to another call under its xid."""

    def __init__(self, pipe: "SwitchablePipe") -> None:
        self.pipe = pipe
        self.parked: list[bytes] = []
        #: xids of the REKEY CALLs let out, whose replies may come in.
        self.sent: set[int] = set()
        #: xid of the REKEY CALL being dispatched, until its reply is out.
        self.answering: int | None = None

    def send(self, data: bytes) -> None:
        peeked = peek_message(data) or (None, None)
        if peeked == (REPLY, self.answering):
            self.answering = None
        elif peeked[0] == CALL and data[12:24] == _REKEY:
            self.sent.add(peeked[1])
        else:
            self.parked.append(data)
            return
        self.pipe.raw.send(data)

    def receive(self, data: bytes) -> None:
        pipe = self.pipe
        peeked = peek_message(data) or (None, None)
        if parse_control_record(data) is not None or (
                peeked[0] == REPLY and peeked[1] in self.sent):
            pipe._dispatch(data)
        elif peeked[0] == CALL and data[12:24] == _REKEY:
            self.answering = peeked[1]
            try:
                pipe._dispatch(data)
            finally:
                self.answering = None
        else:
            pipe.withdrawn_drops += 1
            pipe.metrics.counter("channel.withdrawn_drops").inc()


class SwitchablePipe:
    """A pipe whose lower transport can be swapped (plaintext <-> secure).

    The swap to a secure channel is requested *during* the ENCRYPT (or
    REKEY) RPC handler but must take effect only after the plaintext
    reply has been sent; ``send`` applies any pending switch after
    transmitting.  For channel resynchronization the pipe withdraws its
    channel (:meth:`reset_to_plaintext`) so the re-keying exchange runs
    below the broken streams, behind the gate :class:`_Withdrawn` until
    a channel is installed again.  Plaintext control records
    (:data:`repro.core.channel.CONTROL_PREFIX`) reach
    :attr:`control_handler` in every phase.
    """

    def __init__(self, lower: Pipe) -> None:
        self._raw = lower
        self._lower: Pipe = lower
        self._handler: Callable[[bytes], None] | None = None
        self._pending: SecureChannel | None = None
        self._withdrawn: _Withdrawn | None = None
        #: Receives control-record payloads (the resync handshake).
        self.control_handler: Callable[[bytes], None] | None = None
        self.transport = lower.transport
        self.metrics = self.transport.metrics or NULL_REGISTRY
        #: Records dropped while withdrawn (``channel.withdrawn_drops``).
        self.withdrawn_drops = 0
        lower.on_receive(self._dispatch)

    def _dispatch(self, data: bytes) -> None:
        payload = parse_control_record(data)
        if payload is not None:
            self._forward_control(payload)
            return
        if self._handler is not None:
            self._handler(data)

    def _forward_control(self, payload: bytes) -> None:
        if self.control_handler is not None:
            self.control_handler(payload)

    def send(self, data: bytes) -> None:
        self._lower.send(data)
        if self._pending is not None:
            channel, self._pending = self._pending, None
            self.switch_now(channel)

    def send_control(self, payload: bytes) -> None:
        """Send a plaintext control record on the raw transport."""
        self._raw.send(make_control_record(payload))

    def on_receive(self, handler: Callable[[bytes], None]) -> None:
        self._handler = handler

    def on_close(self, handler: Callable[[], None]) -> None:
        """Close notification always comes from the raw transport —
        channels are wrappers and never close independently."""
        self._raw.on_close(handler)

    def switch_now(self, channel: SecureChannel) -> None:
        """Put *channel* in front now (the client, after the ENCRYPT
        reply); it seals what a withdrawal parked, unless the link
        closed meanwhile."""
        self._lower = channel
        channel.control_handler = self._forward_control
        channel.attach()
        channel.on_receive(self._dispatch)
        withdrawn, self._withdrawn = self._withdrawn, None
        if withdrawn is not None and self._raw.is_open:
            for record in withdrawn.parked:
                channel.send(record)

    def switch_after_reply(self, channel: SecureChannel) -> None:
        """Arm a secure channel to take over after the next send."""
        self._pending = channel

    def reset_to_plaintext(self) -> None:
        """Withdraw the channel for a resynchronization phase: until the
        next switch, only control records and the REKEY exchange pass,
        in plaintext.  A reset inside the window keeps what it parked."""
        self._pending = None
        if self._withdrawn is None:
            self._withdrawn = self._lower = _Withdrawn(self)
        self._raw.on_receive(self._withdrawn.receive)

    @property
    def lower(self) -> Pipe:
        """The installed channel, or the raw transport while withdrawn."""
        return self._raw if self._withdrawn is not None else self._lower

    @property
    def raw(self) -> Pipe:
        """The underlying transport, regardless of any installed channel."""
        return self._raw


@dataclass
class RwExport:
    """One read-write file system behind this server master."""

    name: str
    key: PrivateKey
    path: SelfCertifyingPath
    fs: MemFs
    authserver: AuthServer
    lease_duration: float
    handles: EncryptedHandles
    nfs_client: Nfs3Client          # loopback to the local NFS server
    nfs_server: Nfs3Server
    #: Connections with a session on this export, as an insertion-
    #: ordered set; the value is the admission rank fan-out sorts by.
    connections: dict["ServerConnection", int] = field(default_factory=dict)
    #: The lease table: plain handle -> the connections caching
    #: attributes for it.  Volatile — a crash empties it.
    leases: dict[bytes, set["ServerConnection"]] = field(default_factory=dict)
    #: Relays waiting on the local NFS server, keyed by the id of their
    #: record: (connection, the plain handles other connections' calls
    #: changed meanwhile, in order).  See :meth:`relay_started`.
    in_flight: dict[int, tuple["ServerConnection", dict[bytes, None]]] = \
        field(default_factory=dict)
    #: Loopback transport behind nfs_client/nfs_server; a crash closes
    #: it along with every client-facing link.
    loop_links: "tuple[LinkSide, LinkSide] | None" = None
    master: "SfsServerMaster | None" = None
    _ranks: Iterator[int] = field(default_factory=itertools.count)

    def admit(self, connection: "ServerConnection") -> None:
        """List *connection* for fan-out (a REKEY re-admits: no-op)."""
        if connection not in self.connections:
            self.connections[connection] = next(self._ranks)

    def drop(self, connection: "ServerConnection") -> None:
        """Forget a dead connection and every lease it held."""
        if self.connections.pop(connection, None) is None:
            return
        for handle in [handle for handle, lessees in self.leases.items()
                       if connection in lessees]:
            self._release(handle, connection)
        if self.master is not None:
            self.master.note_pruned()

    def grant(self, plain_handle: bytes,
              connection: "ServerConnection") -> None:
        """*connection* now caches attributes for *plain_handle*.

        A dropped connection is granted nothing: a call it queued
        before its link closed may still execute afterwards.
        """
        if connection in self.connections:
            self.leases.setdefault(plain_handle, set()).add(connection)

    def _release(self, plain_handle: bytes,
                 connection: "ServerConnection") -> None:
        lessees = self.leases.get(plain_handle)
        if lessees is not None:
            lessees.discard(connection)
            if not lessees:
                del self.leases[plain_handle]

    def origin_stamp(self, connection: "ServerConnection") -> int:
        """The AUTH_SYS stamp *connection*'s relayed calls carry to the
        local NFS server: its admission rank + 1 (0 for one no longer
        listed), which is how :meth:`on_mutation` knows whose call made
        a change, however many relays are in flight."""
        return self.connections.get(connection, -1) + 1

    def relay_started(self, connection: "ServerConnection"
                      ) -> dict[bytes, None]:
        """*connection*'s relay is about to wait on the local NFS server.
        Returns the record that collects, until :meth:`relay_done`, each
        handle another connection's call changes meanwhile."""
        changed: dict[bytes, None] = {}
        self.in_flight[id(changed)] = (connection, changed)
        return changed

    def relay_done(self, changed: dict[bytes, None]) -> None:
        self.in_flight.pop(id(changed), None)

    def call_back_overtaken(self, connection: "ServerConnection",
                            changed: dict[bytes, None]) -> None:
        """*connection*'s relay has its reply, and another connection
        changed the handles in *changed* while it was out: the reply may
        describe them as they were.  Call *connection* back for each of
        them it holds a lease on (this reply's grants among them) — once
        the reply is out, since an INVALIDATE that overtook it would be
        undone by it.  The reply goes out in this same step; the timer
        at ``now`` runs after it."""
        stale = [handle for handle in changed
                 if connection in self.leases.get(handle, ())]
        if stale:
            clock = self.master.clock
            clock.call_at(clock.now, partial(self._call_back, connection,
                                             stale))

    def _call_back(self, connection: "ServerConnection",
                   plain_handles: list[bytes]) -> None:
        for plain_handle in plain_handles:
            if (connection.alive
                    and connection in self.leases.get(plain_handle, ())):
                self._release(plain_handle, connection)
                fsid, ino, generation = PlainHandles().decode(plain_handle)
                connection.send_invalidate(
                    self.handles.encode(fsid, ino, generation))

    def on_mutation(self, plain_handle: bytes) -> None:
        """Send lease invalidations to the handle's other lessees: all
        but the connection whose call made the change.  Other
        connections' relays in flight note the change too.

        Walks a snapshot in admission order: a send can kill a
        connection (closed link) and drop it mid-loop, and one crashed
        peer must not abort invalidations to the rest.
        """
        lessees = self.leases.get(plain_handle)
        if not lessees and len(self.in_flight) < 2:
            return  # the one relay in flight is the caller's own
        origin = AuthSys.from_auth(self.nfs_server.caller.cred).stamp - 1
        for connection, changed in self.in_flight.values():
            if self.connections.get(connection) != origin:
                changed[plain_handle] = None
        if not lessees:
            return
        encrypted = None
        for connection in sorted(lessees, key=self.connections.__getitem__):
            if self.connections.get(connection) == origin:
                continue
            if not connection.alive:
                # Closed while this loop was sending to the others; its
                # close hook has already dropped it.
                continue
            if self.master is not None:
                self.master.crashpoint("lease-fanout")
            if encrypted is None:
                fsid, ino, generation = PlainHandles().decode(plain_handle)
                encrypted = self.handles.encode(fsid, ino, generation)
            self._release(plain_handle, connection)
            connection.send_invalidate(encrypted)


@dataclass
class RoExport:
    """One read-only file system (no online private key)."""

    name: str
    path: SelfCertifyingPath
    store: ReadOnlyStore
    public_key_bytes: bytes


class SfsServerMaster:
    """One server machine: exports, dispatch, connection acceptance."""

    def __init__(self, location: str, clock: Clock, rng: random.Random,
                 config: DispatchConfig | None = None,
                 metrics=None) -> None:
        self.location = location
        self.clock = clock
        self.rng = rng
        self.config = config or DispatchConfig()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._rw: dict[bytes, RwExport] = {}
        self._ro: dict[bytes, RoExport] = {}
        self._authservers: dict[bytes, AuthServer] = {}
        self._revocations: dict[bytes, Record] = {}
        self._forwards: dict[bytes, Record] = {}
        self.connections_accepted = 0
        #: Live inbound connections (an insertion-ordered set; each
        #: leaves when its transport closes); volatile — a crash
        #: empties it.
        self.connections: dict["ServerConnection", None] = {}
        #: True between :meth:`crash` and :meth:`restart`; dials fail.
        self.down = False
        #: Optional scheduled-fault source (see :mod:`repro.sim.crash`).
        self.crash_injector: CrashInjector | None = None
        #: Every inbound client call is admitted here (the REKEY of a
        #: resync excepted).  With no slot limit until someone calls its
        #: :meth:`~repro.core.admission.RequestQueue.configure`, each
        #: call starts in the record delivery that brought it.  The
        #: loopback NFS connection is not a client's: its calls are
        #: issued from the slots, and queueing them behind the same
        #: slots would deadlock.
        self.request_queue = RequestQueue(clock, workers=math.inf,
                                          metrics=self.metrics)
        #: Zero-argument callables fired at the end of every
        #: :meth:`restart` — the machine's boot beacon.  The control
        #: plane hangs its alive-with-reset notification here so a
        #: crash+restart inside one heartbeat reads as a flap, not a
        #: death (see :meth:`repro.control.collector.Collector.notify_boot`).
        self.restart_hooks: list = []
        self.crashes = 0
        self.restarts = 0
        self.dead_connections_pruned = 0
        self._m_crashes = self.metrics.counter("server.crashes")
        self._m_restarts = self.metrics.counter("server.restarts")
        self._m_pruned = self.metrics.counter(
            "server.dead_connections_pruned"
        )
        self._m_lost_writes = self.metrics.counter("fs.lost_writes")
        self._m_lost_bytes = self.metrics.counter("fs.lost_bytes")
        self._m_torn_dropped = self.metrics.counter(
            "fs.torn_records_dropped"
        )

    # --- exports ---------------------------------------------------------

    def add_rw_export(self, key: PrivateKey, fs: MemFs,
                      authserver: AuthServer,
                      lease_duration: float = 30.0,
                      name: str = "default") -> SelfCertifyingPath:
        """Export *fs* read-write under *key*; returns its pathname."""
        path = make_path(self.location, key.public_key)
        export = RwExport(
            name=name, key=key, path=path, fs=fs, authserver=authserver,
            lease_duration=lease_duration,
            handles=self._derive_handles(key),
            nfs_client=None, nfs_server=None,  # set by _build_loopback
            master=self,
        )
        self._build_loopback(export)
        self._rw[path.hostid] = export
        self._authservers[path.hostid] = authserver
        if not authserver.pathname:
            authserver.pathname = str(path)
        self.config.add_export(name, path.hostid, proto.DIALECT_RW)
        return path

    def add_ro_export(self, image: ReadOnlyImage,
                      name: str = "readonly") -> SelfCertifyingPath:
        """Serve a published read-only image (possibly as a mirror)."""
        path = image.path()
        if path.location != self.location:
            # Untrusted mirrors serve images published for another
            # Location; clients still verify against the original name.
            path = SelfCertifyingPath(image.location, path.hostid)
        export = RoExport(
            name=name, path=path, store=ReadOnlyStore(image),
            public_key_bytes=image.public_key_bytes,
        )
        self._ro[path.hostid] = export
        self.config.add_export(name, path.hostid, proto.DIALECT_RO)
        return path

    def rw_export(self, hostid: bytes) -> RwExport | None:
        return self._rw.get(hostid)

    @staticmethod
    def _derive_handles(key: PrivateKey) -> EncryptedHandles:
        """The handle map is a pure function of the durable private key,
        so handles clients cached before a crash decode after restart."""
        handle_key = key.sign(b"SFS-handle-key")[:21][1:]  # 20 secret bytes
        return EncryptedHandles(handle_key)

    def _build_loopback(self, export: RwExport) -> None:
        """(Re)create an export's local NFS server and loopback RPC pair.

        Run at export time and again on every restart: the loopback is
        volatile machinery, and rebuilding the Nfs3Server gives it a
        fresh write verifier (NFS3's restart-detection signal).
        """
        loop_client_side, loop_server_side = link_pair(
            self.clock, metrics=self.metrics
        )
        export.loop_links = (loop_client_side, loop_server_side)
        export.nfs_server = Nfs3Server(export.fs, metrics=self.metrics)
        export.nfs_server._mutation_hook = export.on_mutation
        export.nfs_client = Nfs3Client(RpcPeer(loop_client_side,
                                               "sfssd-nfsc"))
        nfsd_peer = RpcPeer(loop_server_side, "nfsd")
        nfsd_peer.register(export.nfs_server.program)

    # --- crash and restart -------------------------------------------------

    def install_crash_injector(
        self, schedule: "list[tuple[str, int]]"
    ) -> CrashInjector:
        """Arm scheduled crashes; each fires a full :meth:`crash`."""
        self.crash_injector = CrashInjector(
            schedule, on_crash=lambda point: self.crash()
        )
        return self.crash_injector

    def crashpoint(self, point: str) -> None:
        """Annotate a named crash point (no-op without an injector)."""
        if self.crash_injector is not None:
            self.crash_injector.hit(point)

    def note_pruned(self) -> None:
        """A dead connection was dropped from an export's fan-out list."""
        self.dead_connections_pruned += 1
        self._m_pruned.inc()

    def crash(self) -> None:
        """Power failure: every connection dies, volatile state is gone.

        Durable state survives in place: each export's private key, its
        handle map (derived from the key), the authserver database, and
        whatever the file system had flushed.  Authnos, reply caches and
        session keys live on the ServerConnection objects discarded
        here, leases in each export's table emptied here — exactly the
        paper's split between long-lived key material and per-session
        state.
        """
        if self.down:
            return
        self.down = True
        self.crashes += 1
        self._m_crashes.inc()
        # Queued-but-unserved requests die with the machine; their
        # clients learn via the closing links, not busy replies.
        self.request_queue.clear()
        # Lists first: the close hooks below then find nothing to prune,
        # so a crash is not counted as dead connections.
        connections = list(self.connections)
        self.connections.clear()
        for export in self._rw.values():
            export.connections.clear()
            export.leases.clear()
        for connection in connections:
            connection.pipe.raw.close()
        for export in self._rw.values():
            if export.loop_links is not None:
                for side in export.loop_links:
                    side.close()
            report = export.fs.crash()
            self._m_lost_writes.inc(report["lost_writes"])
            self._m_lost_bytes.inc(report["lost_bytes"])

    def restart(self) -> None:
        """Boot the machine back up from durable state only.

        Re-registers the same keypair and exports (same HostIDs — the
        whole point of self-certifying pathnames is that clients need no
        new key-management step to trust the reborn server), replays the
        file system journal, and rebuilds the volatile loopback plumbing.
        """
        if not self.down:
            raise RuntimeError("restart() on a server that is not down")
        for export in self._rw.values():
            report = export.fs.recover()
            if report["mismatched"]:
                raise RuntimeError(
                    f"journal mismatch on export {export.name!r}: "
                    f"{report['mismatched']} records disagree with "
                    "recovered data"
                )
            self._m_torn_dropped.inc(report["dropped_torn"])
            rebuilt = self._derive_handles(export.key)
            # Same durable key => same handle map; clients' cached
            # handles (and their lease state, once re-established)
            # remain meaningful across the restart.
            assert rebuilt.fingerprint == export.handles.fingerprint
            export.handles = rebuilt
            self._build_loopback(export)
        self.down = False
        self.restarts += 1
        self._m_restarts.inc()
        for hook in list(self.restart_hooks):
            hook()

    # --- revocation state --------------------------------------------------

    def set_revocation(self, hostid: bytes, certificate: Record) -> None:
        """Serve *certificate* to clients that connect asking for hostid.

        "When SFS first connects to a server, it announces the Location
        and HostID of the file system it wishes to access.  The server
        can respond with a revocation certificate."
        """
        self._revocations[hostid] = certificate
        self._rw.pop(hostid, None)
        self._ro.pop(hostid, None)

    def set_forwarding_pointer(self, hostid: bytes, certificate: Record) -> None:
        self._forwards[hostid] = certificate
        self._rw.pop(hostid, None)
        self._ro.pop(hostid, None)

    # --- accepting connections ------------------------------------------------

    def accept(self, link: LinkSide) -> "ServerConnection":
        """Attach a new inbound connection (sfssd's accept loop)."""
        if self.down:
            raise ConnectionError(
                f"connection refused: {self.location} is down"
            )
        self.connections_accepted += 1
        connection = ServerConnection(self, link)
        self.connections[connection] = None
        self.request_queue.bind(connection.peer, connection,
                                inline_calls=CHANNEL_CALLS)
        return connection


class ServerConnection:
    """One client connection through its whole lifecycle."""

    def __init__(self, master: SfsServerMaster, link: LinkSide) -> None:
        self.master = master
        self.pipe = SwitchablePipe(link)
        self.peer = RpcPeer(self.pipe, f"sfssd@{master.location}")
        self.export: RwExport | None = None
        self.ro_export: RoExport | None = None
        self.service = 0
        self.session_keys = None
        self.encrypt_traffic = True
        self.channel: SecureChannel | None = None
        self._authnos: dict[int, Cred] = {ANONYMOUS_AUTHNO: ANONYMOUS}
        self._next_authno = 1
        self._seen_seqnos: set[int] = set()
        self._max_seqno = 0
        self._auth_protocol_states: dict[str, dict] = {}
        self._srp_session: SrpSession | None = None
        self.invalidations_sent = 0
        #: Session keys replaced by the last rekey; a client that never
        #: saw that rekey's reply still authenticates its next REKEY
        #: under these (see :meth:`_rekey`).
        self._prior_session_keys = None
        self.rekeys = 0
        self.rekeys_denied = 0
        self.resyncs_served = 0
        self.metrics = self.peer.metrics
        self._m_invalidations = self.metrics.counter(
            "server.invalidations_sent"
        )
        self._m_rekeys = self.metrics.counter("server.rekeys")
        self._m_rekeys_denied = self.metrics.counter("server.rekeys_denied")
        self._m_resyncs_served = self.metrics.counter("server.resyncs_served")
        self._m_logins_ok = self.metrics.counter("auth.logins_ok")
        self._m_logins_denied = self.metrics.counter("auth.logins_denied")
        self.pipe.control_handler = self._on_control
        self.pipe.on_close(self._on_transport_closed)
        self.peer.register(self._connect_program())

    # --- plaintext phase: CONNECT + ENCRYPT -----------------------------------

    def _connect_program(self) -> Program:
        program = Program("sfs-connect", proto.SFS_CONNECT_PROGRAM, proto.SFS_VERSION)
        program.add_proc(proto.PROC_CONNECT, "CONNECT",
                         proto.ConnectArgs, proto.ConnectRes, self._connect)
        program.add_proc(proto.PROC_ENCRYPT, "ENCRYPT",
                         proto.EncryptArgs, proto.EncryptRes, self._encrypt)
        program.add_proc(proto.PROC_REKEY, "REKEY",
                         proto.RekeyArgs, proto.RekeyRes, self._rekey)
        return program

    def _connect(self, args: Record, ctx: CallContext):
        master = self.master
        self.service = args.service
        if "noenc" in list(args.extensions):
            # The paper's "SFS w/o encryption" configuration (section 4):
            # key negotiation still runs, the channel passes plaintext.
            self.encrypt_traffic = False
        hostid = args.hostid
        revocation = master._revocations.get(hostid)
        if revocation is not None:
            return proto.CONNECT_REVOKED, revocation
        forward = master._forwards.get(hostid)
        if forward is not None:
            return proto.CONNECT_REDIRECT, forward
        export_name = master.config.dispatch(args.service, hostid,
                                             list(args.extensions))
        if export_name is None and args.service != proto.SERVICE_AUTHSERV:
            return proto.CONNECT_NOENT, None
        ro = master._ro.get(hostid)
        if ro is not None and args.service in (proto.SERVICE_READONLY,
                                               proto.SERVICE_FILESERVER):
            self.ro_export = ro
            self._register_readonly_program()
            return proto.CONNECT_OK, proto.ServInfo.make(
                location=ro.path.location,
                public_key=ro.public_key_bytes,
                dialect=proto.DIALECT_RO,
                lease_duration=0,
            )
        rw = master._rw.get(hostid)
        if rw is None and export_name is not None:
            # A custom dispatch rule can route a HostID the master does
            # not actually hold a key for (e.g. an impersonation attempt,
            # or a test harness).  The client's HostID check is what
            # keeps this from mattering.
            rw = next(
                (e for e in master._rw.values() if e.name == export_name),
                None,
            )
        if rw is None and args.service == proto.SERVICE_AUTHSERV:
            # sfskey connects for SRP *before* it knows any HostID — the
            # channel key is unverified and SRP provides the mutual
            # authentication (paper section 2.4).  Route to the default
            # export's authserver.
            rw = next(iter(master._rw.values()), None)
        if rw is None:
            return proto.CONNECT_NOENT, None
        self.export = rw
        return proto.CONNECT_OK, proto.ServInfo.make(
            location=rw.path.location,
            public_key=rw.key.public_key.to_bytes(),
            dialect=proto.DIALECT_RW,
            lease_duration=int(rw.lease_duration),
        )

    def _encrypt(self, args: Record, ctx: CallContext):
        """Figure 3 steps 3-4, server side."""
        if self.export is None:
            raise RuntimeError("ENCRYPT before a successful CONNECT")
        reply = self._negotiate(args.client_pubkey, args.encrypted_keyhalves)
        # Session keys derived, reply not yet sent: the window where a
        # crash leaves the client waiting on a handshake that will
        # never complete.
        self.master.crashpoint("mid-handshake")
        return reply

    def _negotiate(self, client_pubkey: bytes, sealed_halves: bytes) -> Record:
        """Derive fresh session keys and arm a new channel (ENCRYPT/REKEY)."""
        from ..crypto.rabin import PublicKey  # local import avoids cycle

        assert self.export is not None
        client_key = PublicKey.from_bytes(client_pubkey)
        kc1, kc2 = decrypt_key_halves(self.export.key, sealed_halves)
        ks1, ks2 = make_key_halves(self.master.rng)
        self.session_keys = derive_session_keys(
            self.export.key.public_key, client_key, kc1, kc2, ks1, ks2
        )
        reply = proto.EncryptRes.make(
            encrypted_keyhalves=encrypt_key_halves(
                client_key, ks1, ks2, self.master.rng
            )
        )
        # The new channel always sits on the raw transport: during a
        # rekey the pipe's current lower may be the dead old channel.
        channel = SecureChannel(
            self.pipe.raw,
            send_key=self.session_keys.ksc,
            recv_key=self.session_keys.kcs,
            encrypt=self.encrypt_traffic,
        )
        self.channel = channel
        self.pipe.switch_after_reply(channel)
        self._register_session_programs()
        return reply

    def _rekey(self, args: Record, ctx: CallContext):
        """Re-run key negotiation for an established session.

        The request must prove continuity with a tag only the session's
        real client can mint (HMAC under the SessionID — or the one it
        replaced, in case the client never saw the last rekey's reply).
        Authnos therefore survive: the entity on the new streams is
        cryptographically the entity that authenticated on the old ones.
        """
        if self.export is None or self.session_keys is None:
            return proto.REKEY_DENIED, None
        for candidate in (self.session_keys, self._prior_session_keys):
            if candidate is not None and constant_time_eq(
                args.auth,
                rekey_auth(candidate, args.client_pubkey,
                           args.encrypted_keyhalves),
            ):
                break
        else:
            self.rekeys_denied += 1
            self._m_rekeys_denied.inc()
            return proto.REKEY_DENIED, None
        try:
            reply = self._negotiate(args.client_pubkey,
                                    args.encrypted_keyhalves)
        except (KeyNegotiationError, ValueError):
            return proto.REKEY_DENIED, None
        self._prior_session_keys = candidate
        self.rekeys += 1
        self._m_rekeys.inc()
        return proto.REKEY_OK, reply

    def _on_control(self, payload: bytes) -> None:
        """Plaintext control records: the resync handshake.

        Control records are unauthenticated by necessity (they exist for
        when the streams are broken), so they must grant nothing.  A
        RESYNC-REQ, forged or not, withdraws the channel: until a REKEY
        proves continuity the pipe passes only that exchange, so a
        forgery buys no plaintext file service, only delay.
        """
        if payload == RESYNC_REQUEST:
            if self.session_keys is None:
                return  # nothing to resynchronize yet
            self.master.crashpoint("mid-resync")
            self.resyncs_served += 1
            self._m_resyncs_served.inc()
            self.pipe.reset_to_plaintext()
            self.pipe.send_control(RESYNC_ACK)
        # Unknown payloads (injected garbage) are ignored.

    # --- secure phase ------------------------------------------------------------

    def _register_session_programs(self) -> None:
        if self.service == proto.SERVICE_AUTHSERV:
            self.peer.register(self._authserv_program())
        else:
            self.peer.register(self._rw_program())
            assert self.export is not None
            self.export.admit(self)

    def _register_readonly_program(self) -> None:
        self.peer.register(self._readonly_program())

    # -- read-write dialect --

    def _rw_program(self) -> Program:
        program = nfs3_program(
            "sfs-rw", {proc: self._make_relay(proc) for proc in PROCS},
            proto.SFS_RW_PROGRAM, proto.SFS_VERSION, wire=True)
        program.add_proc(proto.PROC_LOGIN, "LOGIN",
                         proto.LoginArgs, proto.LoginRes, self._login)
        program.add_proc(proto.PROC_LOGOUT, "LOGOUT",
                         proto.LogoutArgs, VOID, self._logout)
        program.add_proc(proto.PROC_IDTONAME, "IDTONAME",
                         proto.IdToNameArgs, proto.IdToNameRes,
                         self._id_to_name)
        program.add_proc(proto.PROC_NAMETOID, "NAMETOID",
                         proto.NameToIdArgs, proto.NameToIdRes,
                         self._name_to_id)
        return program

    # -- libsfs id/name queries (paper section 3.3) --

    def _id_to_name(self, args: Record, ctx: CallContext):
        assert self.export is not None
        name = self.export.authserver.id_to_name(args.numeric_id,
                                                 args.is_group)
        if name is None:
            return proto.IDMAP_NOENT, None
        return proto.IDMAP_OK, name

    def _name_to_id(self, args: Record, ctx: CallContext):
        assert self.export is not None
        numeric_id = self.export.authserver.name_to_id(args.name,
                                                       args.is_group)
        if numeric_id is None:
            return proto.IDMAP_NOENT, None
        return proto.IDMAP_OK, numeric_id

    def _make_relay(self, proc: int):
        def relay(args: bytes, ctx: CallContext):
            return self._relay(proc, args, ctx)
        return relay

    def _relay(self, proc: int, args: bytes, ctx: CallContext):
        """Tag with credentials, translate handles, forward to local NFS.

        The call's bytes pass through both ways: the arguments' handles
        are decrypted and the result's encrypted in the wire images
        (:func:`handlemap.patch_args`, :func:`handlemap.patch_result`),
        so neither this relay nor its call to the local NFS server
        decodes or encodes a body.  A generator handler: it yields while
        the local NFS server answers, so relays from any number of
        connections can be in flight at once; each carries its
        originator in its credential (:meth:`RwExport.origin_stamp`)."""
        export = self.export
        assert export is not None
        authno = parse_sfs_cred(ctx.cred)
        cred = self._authnos.get(authno, ANONYMOUS)
        plain: list[bytes] = []
        if proc == nfs_const.NFSPROC3_LOOKUP and args == _MOUNT_LOOKUP:
            # Mount convention: hand out the export's root handle.
            plain.append(export.nfs_server.root_handle())
            args = nfs_types.LookupArgs.pack(nfs_types.LookupArgs.make(
                what=nfs_types.DirOpArgs.make(dir=plain[0], name=".")))
        else:
            def decrypt(handle: bytes) -> bytes:
                plain.append(self._decrypt_handle(handle))
                return plain[-1]
            try:
                args, _ = handlemap.patch_args(proc, args, decrypt)
            except BadHandle:
                return nfs_types.PROC_CODECS[proc][1].pack(
                    (nfs_const.NFS3ERR_BADHANDLE,
                     nfs_types.failure_arm(proc)))
            except XdrError:
                raise GarbageArgs(proc) from None
        auth_sys = AuthSys(stamp=export.origin_stamp(self), uid=cred.uid,
                           gid=cred.gid, gids=tuple(cred.groups))
        if proc == nfs_const.NFSPROC3_COMMIT:
            # Whatever unstable writes preceded this COMMIT are still
            # volatile; a crash here provably loses them.
            self.master.crashpoint("before-commit")
        overtaken = export.relay_started(self)
        try:
            result = yield from export.nfs_client.peer.call_task(
                nfs_const.NFS3_PROGRAM, nfs_const.NFS3_VERSION, proc,
                RAW, args, RAW, cred=auth_sys.to_auth(),
            )
        finally:
            export.relay_done(overtaken)
        if proc in (nfs_const.NFSPROC3_WRITE, nfs_const.NFSPROC3_WRITEV):
            # The write executed but its reply is not out yet; the
            # client must replay it after reconnecting (and the crash
            # itself rolls the un-committed data back).
            self.master.crashpoint("after-write")
        result, found = handlemap.patch_result(proc, result,
                                               self._encrypt_handle, None)
        if result[:4] == _NFS3_OK:
            # This client now caches attributes for these plain handles.
            for handle in plain + found:
                export.grant(handle, self)
        if overtaken:
            export.call_back_overtaken(self, overtaken)
        return result

    def _decrypt_handle(self, handle: bytes) -> bytes:
        assert self.export is not None
        fsid, ino, generation = self.export.handles.decode(handle)
        return PlainHandles().encode(fsid, ino, generation)

    def _encrypt_handle(self, handle: bytes) -> bytes:
        assert self.export is not None
        fsid, ino, generation = PlainHandles().decode(handle)
        return self.export.handles.encode(fsid, ino, generation)

    @property
    def alive(self) -> bool:
        """False once the underlying transport reports itself closed."""
        return self.pipe.raw.is_open

    def _on_transport_closed(self) -> None:
        """The link closed under us: the client hung up, redialed or
        died.  Leave the master's and the export's books here, so no
        later accept or fan-out has to look for the corpse."""
        self.master.connections.pop(self, None)
        if self.export is not None:
            self.export.drop(self)

    def send_invalidate(self, encrypted_handle: bytes) -> None:
        """Server->client lease invalidation; fire and forget.  Counted
        once the pipe takes it, parked in a resync window included."""
        try:
            # One-way on purpose ("without waiting for acknowledgment"):
            # waiting would let one unreachable lease holder — crashed,
            # partitioned, or mid-resync — stall the slot serving the
            # write that triggered the fan-out.
            self.peer.call_oneway(
                proto.SFS_CB_PROGRAM, proto.SFS_VERSION, proto.PROC_INVALIDATE,
                proto.InvalidateArgs,
                proto.InvalidateArgs.make(handle=encrypted_handle),
            )
        except RpcTransportDown:
            return  # the holder's link closed: no lease left to call back
        self.invalidations_sent += 1
        self._m_invalidations.inc()

    # -- user authentication --

    def _login(self, args: Record, ctx: CallContext):
        """Figure 4, steps 3-6: forward to the authserver, assign authno.

        Messages are opaque to this file server: enveloped messages are
        dispatched to whatever protocol plugin the authserver registered
        (possibly answering with a LOGIN_MORE challenge for another
        round); everything else is the classic signed public-key request.
        """
        export = self.export
        assert export is not None and self.session_keys is not None
        if not self._seqno_fresh(args.seqno):
            self._m_logins_denied.inc()
            return proto.LOGIN_FAILED, None
        authinfo_bytes = proto.AuthInfo.pack(self.authinfo())
        from ..crypto.sha1 import sha1
        authid = sha1(authinfo_bytes)
        from .authplugins import FAIL, MORE, OK, unwrap_envelope

        envelope = unwrap_envelope(args.authmsg)
        if envelope is not None:
            protocol_name, body = envelope
            plugin = export.authserver.protocols.get(protocol_name)
            if plugin is None:
                self._m_logins_denied.inc()
                return proto.LOGIN_FAILED, None
            state = self._auth_protocol_states.setdefault(protocol_name, {})
            outcome, value = plugin.step(body, authid, args.seqno, state)
            if outcome == MORE:
                return proto.LOGIN_MORE, value
            if outcome != OK:
                self._m_logins_denied.inc()
                return proto.LOGIN_FAILED, None
            record = value
        else:
            record = export.authserver.validate(
                authid, args.seqno, args.authmsg
            )
        if record is None:
            self._m_logins_denied.inc()
            return proto.LOGIN_FAILED, None
        authno = self._next_authno
        self._next_authno += 1
        self._authnos[authno] = Cred(
            uid=record.uid, gid=record.gid, groups=tuple(record.groups)
        )
        self._m_logins_ok.inc()
        return proto.LOGIN_OK, proto.LoginOk.make(authno=authno)

    def _logout(self, args: Record, ctx: CallContext):
        self._authnos.pop(args.authno, None)

    def authinfo(self) -> Record:
        """The AuthInfo structure for this session (both sides compute it)."""
        assert self.export is not None and self.session_keys is not None
        return proto.AuthInfo.make(
            auth_type="AuthInfo",
            service="FS",
            location=self.export.path.location,
            hostid=self.export.path.hostid,
            sessionid=self.session_keys.session_id,
        )

    def _seqno_fresh(self, seqno: int) -> bool:
        """Accept each sequence number once, within a reordering window."""
        if seqno in self._seen_seqnos:
            return False
        if seqno + _SEQNO_WINDOW < self._max_seqno:
            return False
        self._seen_seqnos.add(seqno)
        self._max_seqno = max(self._max_seqno, seqno)
        return True

    # -- authserver service (sfskey over the network) --

    def _authserv_program(self) -> Program:
        program = Program("sfs-authserv", proto.SFS_AUTHSERV_PROGRAM,
                          proto.SFS_VERSION)
        program.add_proc(proto.PROC_SRP_INIT, "SRP_INIT",
                         proto.SrpInitArgs, proto.SrpInitRes, self._srp_init)
        program.add_proc(proto.PROC_SRP_CONFIRM, "SRP_CONFIRM",
                         proto.SrpConfirmArgs, proto.SrpConfirmRes,
                         self._srp_confirm)
        program.add_proc(proto.PROC_REGISTER, "REGISTER",
                         proto.RegisterArgs, proto.RegisterRes, self._register)
        return program

    def _authserver_for_service(self) -> AuthServer | None:
        # The connect hostid selected the export; its authserver serves us.
        if self.export is not None:
            return self.export.authserver
        # Authserv-only connections name the file server's hostid too.
        for hostid, authserver in self.master._authservers.items():
            return authserver
        return None

    def _srp_init(self, args: Record, ctx: CallContext):
        authserver = self._authserver_for_service()
        if authserver is None:
            return proto.SRP_FAILED, None
        self._srp_session = authserver.srp_sessions().new_session()
        challenge = self._srp_session.init(
            args.user, int.from_bytes(args.A, "big")
        )
        if challenge is None:
            return proto.SRP_FAILED, None
        salt, B, cost = challenge
        from ..crypto.util import int_to_bytes
        return proto.SRP_OK, proto.SrpInitOk.make(
            salt=salt, B=int_to_bytes(B), cost=cost
        )

    def _srp_confirm(self, args: Record, ctx: CallContext):
        if self._srp_session is None:
            return proto.SRP_FAILED, None
        outcome = self._srp_session.confirm(args.m1)
        if outcome is None:
            return proto.SRP_FAILED, None
        m2, sealed = outcome
        return proto.SRP_OK, proto.SrpConfirmOk.make(
            m2=m2, sealed_payload=sealed
        )

    def _register(self, args: Record, ctx: CallContext):
        authserver = self._authserver_for_service()
        if authserver is None or not authserver.register(args):
            return proto.REGISTER_DENIED, None
        return proto.REGISTER_OK, None

    # -- read-only dialect --

    def _readonly_program(self) -> Program:
        program = Program("sfs-ro", proto.SFS_RO_PROGRAM, proto.SFS_VERSION)
        program.add_proc(proto.PROC_GETROOT, "GETROOT",
                         VOID, proto.GetRootRes, self._getroot)
        program.add_proc(proto.PROC_GETDATA, "GETDATA",
                         proto.GetDataArgs, proto.GetDataRes, self._getdata)
        return program

    def _getroot(self, args, ctx: CallContext):
        assert self.ro_export is not None
        return self.ro_export.store.get_root()

    def _getdata(self, args: Record, ctx: CallContext):
        assert self.ro_export is not None
        blob = self.ro_export.store.get_data(args.digest)
        if blob is None:
            return proto.GETDATA_NOENT, None
        return proto.GETDATA_OK, blob
