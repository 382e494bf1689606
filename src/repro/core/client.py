"""sfscd — the SFS client master and its subordinate daemons.

"On the client side, a client master process, sfscd, communicates with
agents, handles revocation and forwarding pointers, and acts as an
'automounter' for remote file systems.  It never actually handles
requests for files on remote servers, however.  Instead, it connects to a
server, verifies the public key, and passes the connected file descriptor
to a subordinate daemon selected by the type and version of the server."
(paper section 3.2)

Layout of this module:

* :class:`ServerSession` — one secure connection to one server: CONNECT,
  HostID verification, figure-3 key negotiation, LOGIN, and the inbound
  lease-invalidation callback program.
* :class:`MountedRemoteFs` — a subordinate read-write client daemon: it
  serves an NFS3 program directly to the kernel for one remote file
  system (its own mount point and device number), relays calls over the
  session tagged with per-user authnos, and maintains the lease caches.
* :class:`ReadOnlyMount` — the subordinate read-only client: verifies
  everything against the signed root.
* :class:`SfsClientDaemon` — the client master: owns the synthetic /sfs
  directory (per-agent views, on-the-fly symlinks, revoked links),
  consults agents, dials servers, and asks the NFS mounter to graft new
  mounts into the kernel.

The client is deliberately free of administrative-realm state: which
servers exist is discovered purely from the self-certifying names users
access (paper section 2.1.1).
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..crypto.rabin import PublicKey, RabinError
from ..crypto.sha1 import sha1
from ..nfs3 import const as nfs_const
from ..nfs3 import types as nfs_types
from ..nfs3.program import PROCS, nfs3_program, refuse
from ..obs.registry import NULL_REGISTRY
from ..rpc.peer import (
    CallContext,
    Program,
    Relayed,
    RetryPolicy,
    RpcBusy,
    RpcError,
    RpcPeer,
    RpcTimeout,
    RpcTransportDown,
)
from ..rpc.rpcmsg import AuthSys, OpaqueAuth, RpcMsgError
from ..rpc.xdr import RAW, Record, VOID, XdrError
from ..sim.clock import Clock
from ..sim.network import LinkSide
from ..sim.sched import Future, Sleep
from . import handlemap, proto
from .agent import Agent, AgentRefused
from .backoff import BackoffPolicy
from .cache import ClientCaches
from .channel import RESYNC_ACK, RESYNC_REQUEST, SecureChannel
from .keyneg import (
    EphemeralKeyCache,
    KeyNegotiationError,
    negotiate_client_keys,
    rekey_auth,
)
from .pathnames import (
    PathnameError,
    SelfCertifyingPath,
    parse_mount_name,
    parse_path,
)
from .readonly import ReadOnlyClient, ReadOnlyError, RO_DIR, RO_LNK, RO_REG
from .revocation import (
    CertificateError,
    REVOKED_LINK_TARGET,
    verify_certificate,
)
from .server import SwitchablePipe, make_sfs_cred

#: Dials (location, service) -> LinkSide.  Provided by the world model
#: (or a real TCP dialer); raises ConnectionError if unreachable.
Connector = Callable[[str, int], LinkSide]


class MountError(Exception):
    """The self-certifying pathname could not be mounted."""


class SecurityError(MountError):
    """The server failed authentication (wrong key for the HostID)."""


# ---------------------------------------------------------------------------
# Server sessions
# ---------------------------------------------------------------------------


#: How many reset-and-rekey rounds one resync() attempt makes before
#: giving up (each round's own records can be lost too).
_RESYNC_ROUNDS = 3

#: How many forwarding pointers one reconnect() will chase before
#: declaring a redirect loop.  Rollover chains longer than this are
#: indistinguishable from a server bouncing us around forever.
_RETARGET_HOPS = 4


class ServerSession:
    """A verified secure channel to one export on one server.

    The session also *supervises* that channel: the peer's retry policy
    retransmits lost records, and when retransmission alone does not
    help (the streams themselves desynchronized), :meth:`resync` runs
    the plaintext control handshake and an authenticated REKEY to swap
    fresh streams in — the paper's "no worse than delay" guarantee made
    operational.
    """

    def __init__(self, peer: RpcPeer, pipe: SwitchablePipe,
                 path: SelfCertifyingPath, servinfo: Record,
                 session_keys, encrypt: bool,
                 channel: SecureChannel | None = None,
                 server_public_key: PublicKey | None = None,
                 ephemeral_keys: EphemeralKeyCache | None = None,
                 rng: random.Random | None = None) -> None:
        self.peer = peer
        self.pipe = pipe
        self.path = path
        self.servinfo = servinfo
        self.session_keys = session_keys
        self.encrypt = encrypt
        self.channel = channel
        self.server_public_key = server_public_key
        self.ephemeral_keys = ephemeral_keys
        self.rng = rng
        self.auth_seqno = 0
        self.invalidate_handler: Callable[[bytes], None] | None = None
        #: Called after each successful rekey (mounts flush lease caches
        #: here; authnos survive because the rekey is authenticated).
        self.on_rekey: Callable[[], None] | None = None
        #: Called when the connection's transport closes: the leases it
        #: held, and any INVALIDATE still owed on them, died with it.
        self.on_close: Callable[[], None] | None = None
        self.rekeys = 0
        self.resyncs_failed = 0
        # Recovery counters, visible in exported snapshots: attempts,
        # successful rekeys, exhausted resyncs (see PROTOCOLS.md §10).
        self.metrics = peer.metrics
        self._m_resyncs = self.metrics.counter("session.resyncs")
        self._m_rekeys = self.metrics.counter("session.rekeys")
        self._m_resyncs_failed = self.metrics.counter("session.resyncs_failed")
        self._resyncing = False
        #: Resolved by the server's RESYNC-ACK while a round waits on it.
        self._resync_ack: Future | None = None
        # Reconnect engine (crash recovery): armed by enable_reconnect()
        # once the daemon has mounted this session.  Resync repairs a
        # desynchronized channel on a *live* link; reconnect replaces a
        # *dead* link entirely — redial, re-verify the HostID, renegotiate
        # keys — after the server crashed or restarted.
        self.service = proto.SERVICE_FILESERVER
        self.on_reconnect: Callable[[], None] | None = None
        #: A generator function ``(old_path, new_path)`` the reconnect
        #: delegates to when it followed a forwarding pointer to a *new*
        #: HostID — a server key rollover caught mid-session.  It may
        #: call over the fresh session (the new key means a new handle
        #: map).  Runs before on_reconnect so the daemon can re-home the
        #: mount under the new name first.
        self.on_retarget: Callable[
            [SelfCertifyingPath, SelfCertifyingPath], Any
        ] | None = None
        self.reconnects = 0
        self.retargets = 0
        self.backoff_sleeps = 0
        self._connector: Connector | None = None
        self._reconnect_policy: BackoffPolicy | None = None
        #: The redial under way, which every relay whose transport died
        #: meanwhile waits for.
        self._reconnecting: Future | None = None
        self._m_reconnects = self.metrics.counter("session.reconnects")
        self._m_retargets = self.metrics.counter("session.retargets")
        self._m_backoff_sleeps = self.metrics.counter("session.backoff_sleeps")
        self._m_reconnects_failed = self.metrics.counter(
            "session.reconnects_failed"
        )
        #: Backpressure: SERVER_BUSY replies (the server's admission
        #: control rejecting at a full queue) are retried under this
        #: policy rather than surfaced — see PROTOCOLS.md §12.
        self.busy_policy = BackoffPolicy()
        self.busy_retries = 0
        self._m_busy_retries = self.metrics.counter("client.busy_retries")
        if self.session_keys is not None and self.channel is not None:
            pipe.control_handler = self._on_control
            peer.recovery_hook = self.resync_task
        self._register_callbacks()

    # -- establishment --

    @staticmethod
    def _transport(link: LinkSide,
                   path: SelfCertifyingPath) -> tuple[RpcPeer, SwitchablePipe]:
        """A fresh plaintext transport on *link*, ready to handshake."""
        pipe = SwitchablePipe(link)
        peer = RpcPeer(pipe, f"sfscd->{path.location}")
        # Handshake records are as droppable as any others; plain
        # retransmission is always safe here (the server's duplicate
        # cache replays CONNECT/ENCRYPT replies rather than re-running
        # them) and needs no channel recovery, there being no channel.
        peer.retry_policy = RetryPolicy()
        return peer, pipe

    @classmethod
    def connect(cls, link: LinkSide, path: SelfCertifyingPath,
                ephemeral_keys: EphemeralKeyCache, rng: random.Random,
                service: int = proto.SERVICE_FILESERVER,
                encrypt: bool = True,
                verify_hostid: bool = True) -> "ServerSession | Record":
        """Synchronous :meth:`connect_task` over *link*."""
        peer, pipe = cls._transport(link, path)
        return peer.drive(cls.connect_task(
            peer, pipe, path, ephemeral_keys, rng, service, encrypt,
            verify_hostid))

    @classmethod
    def connect_task(cls, peer: RpcPeer, pipe: SwitchablePipe,
                     path: SelfCertifyingPath,
                     ephemeral_keys: EphemeralKeyCache, rng: random.Random,
                     service: int = proto.SERVICE_FILESERVER,
                     encrypt: bool = True, verify_hostid: bool = True):
        """Verify the HostID and negotiate session keys (``yield from``).

        *peer* and *pipe* are a fresh :meth:`_transport`.  Returns a
        ServerSession, or the SignedCertificate record when the server
        answers with a revocation / forwarding pointer (the caller
        verifies and acts on it).
        """
        # The "currently unused extensions string" of the paper's sfssd
        # dispatch is exactly where a dialect toggle like the
        # no-encryption evaluation mode belongs.
        extensions = [] if encrypt else ["noenc"]
        disc, body = yield from peer.call_task(
            proto.SFS_CONNECT_PROGRAM, proto.SFS_VERSION, proto.PROC_CONNECT,
            proto.ConnectArgs,
            proto.ConnectArgs.make(
                service=service, location=path.location,
                hostid=path.hostid, extensions=extensions,
            ),
            proto.ConnectRes,
        )
        if disc in (proto.CONNECT_REVOKED, proto.CONNECT_REDIRECT):
            return body
        if disc != proto.CONNECT_OK:
            raise MountError(f"server has no file system {path.mount_name}")
        servinfo = body
        # The security heart of SFS: the key the server presented must
        # hash (with the Location we asked for) to the HostID in the
        # pathname.  No certificate, no realm configuration — just SHA-1.
        try:
            public_key = PublicKey.from_bytes(servinfo.public_key)
        except RabinError as exc:
            raise SecurityError(f"server sent a malformed key: {exc}") from None
        if verify_hostid and not path.matches_key(public_key):
            raise SecurityError(
                f"public key does not match HostID for {path.mount_name}"
            )
        if servinfo.dialect == proto.DIALECT_RO:
            # Read-only dialect: no key negotiation, content is signed.
            # The rng still rides along: the busy-retry backoff path is
            # jittered and refuses to run without a randomness source.
            return cls(peer, pipe, path, servinfo, None, encrypt=False,
                       rng=rng)
        # Figure 3 steps 3-4.
        pubkey, sealed, finish = negotiate_client_keys(
            public_key, ephemeral_keys.current(), rng
        )
        reply = yield from peer.call_task(
            proto.SFS_CONNECT_PROGRAM, proto.SFS_VERSION, proto.PROC_ENCRYPT,
            proto.EncryptArgs,
            proto.EncryptArgs.make(client_pubkey=pubkey,
                                   encrypted_keyhalves=sealed),
            proto.EncryptRes,
        )
        try:
            session_keys = finish(reply.encrypted_keyhalves)
        except KeyNegotiationError as exc:
            raise SecurityError(str(exc)) from None
        channel = SecureChannel(
            pipe.raw, send_key=session_keys.kcs,
            recv_key=session_keys.ksc, encrypt=encrypt,
        )
        pipe.switch_now(channel)
        return cls(peer, pipe, path, servinfo, session_keys, encrypt,
                   channel=channel, server_public_key=public_key,
                   ephemeral_keys=ephemeral_keys, rng=rng)

    # -- channel supervision and recovery --

    def _on_control(self, payload: bytes) -> None:
        if payload == RESYNC_ACK and self._resync_ack is not None:
            self._resync_ack.resolve()
        # Anything else is injected garbage; ignore.

    def resync(self) -> bool:
        """Synchronous :meth:`resync_task`."""
        return self.peer.drive(self.resync_task())

    def resync_task(self):
        """Recover a desynchronized secure channel on the same link.

        Asks the server (in plaintext control records, the only framing
        guaranteed to survive broken streams) to fall back for a
        re-keying exchange, re-runs figure 3 through the REKEY procedure
        — authenticated under the old SessionID, so an attacker cannot
        substitute a session of their own — and swaps the fresh streams
        into both the channel and the pipe.  Returns True on success.

        Each round withdraws the channel: until the pipe installs one,
        only the REKEY exchange crosses it (PROTOCOLS.md §10).

        Installed as the peer's ``recovery_hook``; the guard keeps the
        REKEY call's own retries from recursing into another resync.
        """
        if (self.session_keys is None or self.channel is None
                or self.ephemeral_keys is None or self._resyncing):
            return False
        self._resyncing = True
        self._m_resyncs.inc()
        try:
            for _ in range(_RESYNC_ROUNDS):
                if (yield from self._resync_round()):
                    self.rekeys += 1
                    self._m_rekeys.inc()
                    if self.on_rekey is not None:
                        self.on_rekey()
                    return True
            self.resyncs_failed += 1
            self._m_resyncs_failed.inc()
            return False
        finally:
            self._resyncing = False
            self._resync_ack = None
            if self.pipe.lower is self.pipe.raw:
                # A failed resync ends its window too: the (possibly
                # still broken) channel seals what the pipe parked, and
                # an unrecovered desync surfaces as a timeout — the
                # delay an attacker could always cause — never as a
                # downgrade.
                self.pipe.switch_now(self.channel)

    def _resync_round(self):
        ack = self._resync_ack = Future("resync-ack")
        self.pipe.reset_to_plaintext()
        try:
            self.pipe.send_control(RESYNC_REQUEST)
        except ConnectionError:
            # The server died mid-resync (or the link is gone).  This
            # round cannot succeed; the caller's remaining rounds will
            # fail the same way and the error surfaces as a transport
            # timeout, which is what triggers reconnect().
            return False
        clock = self.peer.clock
        if clock is not None:
            # The request or its ACK can be lost like any record.
            clock.call_at(
                clock.now + self.peer.rto_floor,
                lambda: ack.fail(RpcTimeout("no RESYNC-ACK")),
            )
        try:
            yield ack
            pubkey, sealed, finish = negotiate_client_keys(
                self.server_public_key, self.ephemeral_keys.current(),
                self.rng,
            )
            disc, body = yield from self.peer.call_task(
                proto.SFS_CONNECT_PROGRAM, proto.SFS_VERSION,
                proto.PROC_REKEY,
                proto.RekeyArgs,
                proto.RekeyArgs.make(
                    client_pubkey=pubkey, encrypted_keyhalves=sealed,
                    auth=rekey_auth(self.session_keys, pubkey, sealed),
                ),
                proto.RekeyRes,
                # The call whose recovery this is may hold the window's
                # last slot (at depth 1, its only one).
                reserved=True,
            )
            if disc != proto.REKEY_OK:
                return False  # the server denied re-keying
            new_keys = finish(body.encrypted_keyhalves)
        except (RpcError, KeyNegotiationError, ConnectionError, XdrError):
            # Lost, denied or garbled — a reply forged into the plaintext
            # window need not even decode; the next round retries.
            return False
        self.channel.rekey(new_keys.kcs, new_keys.ksc)
        self.pipe.switch_now(self.channel)
        self.session_keys = new_keys
        return True

    # -- crash recovery: failover to a fresh connection --

    def enable_reconnect(self, connector: Connector,
                         policy: BackoffPolicy | None = None) -> None:
        """Arm the reconnect engine for this session.

        The daemon calls this once the mount exists; sessions that were
        never mounted (or read-only sessions) stay un-armed and surface
        transport failure to their caller instead.
        """
        self._connector = connector
        self._reconnect_policy = policy if policy is not None \
            else BackoffPolicy()

    def reconnect_task(self):
        """Replace a dead connection with a freshly negotiated one.

        Redials with exponential backoff, re-runs CONNECT — which
        re-verifies that the key the server presents still hashes to the
        HostID in the pathname, the *only* check SFS ever needs, so a
        machine that restarts with the right private key resumes service
        and an impostor raises SecurityError — renegotiates session keys
        and swaps everything into this same object, keeping every
        mount's reference to the session valid.  Returns True on
        success; SecurityError propagates and is never retried.
        """
        if (self._connector is None
                or self.session_keys is None or self.ephemeral_keys is None):
            return False
        if self._reconnecting is not None:
            # Another relay is redialing this session: its outcome is
            # ours too, so both replay on the fresh connection.
            return (yield self._reconnecting)
        outcome = self._reconnecting = Future(name="reconnect")
        try:
            replaced = yield from self._reconnect()
        except BaseException as exc:
            self._reconnecting = None
            outcome.fail(exc if isinstance(exc, Exception)
                         else RpcTransportDown("reconnect abandoned"))
            raise
        self._reconnecting = None
        outcome.resolve(replaced)
        return replaced

    def _reconnect(self):
        """The redial :meth:`reconnect_task` shares (``yield from``)."""
        old_path = self.path
        fresh = yield from self._redial()
        if fresh is None:
            self._m_reconnects_failed.inc()
            return False
        self._adopt(fresh)
        self.reconnects += 1
        self._m_reconnects.inc()
        if self.path.hostid != old_path.hostid:
            # The redial chased a forwarding pointer: the server rolled
            # its key and this session now speaks to the new HostID.
            # Tell the daemon *before* on_reconnect so the mount is
            # re-homed under the new name before caches are flushed.
            self.retargets += 1
            self._m_retargets.inc()
            if self.on_retarget is not None:
                try:
                    yield from self.on_retarget(old_path, self.path)
                except (MountError, RpcError):
                    pass  # the old name forwards; a LOOKUP redials
        if self.on_reconnect is not None:
            self.on_reconnect()
        return True

    def _redial(self):
        assert self._reconnect_policy is not None
        hops = 0
        for delay in self._reconnect_policy.delays(self.rng):
            if delay:
                self.backoff_sleeps += 1
                self._m_backoff_sleeps.inc()
            # The sleep is what lets the simulated world make progress
            # while we wait: a restart scheduled via Clock.call_at fires
            # during it (a zero sleep still fires anything already due).
            yield Sleep(delay)
            try:
                link = self._connector(self.path.location, self.service)
            except (ConnectionError, OSError):
                continue  # still down; back off and redial
            peer, pipe = self._transport(link, self.path)
            try:
                outcome = yield from self.connect_task(
                    peer, pipe, self.path, self.ephemeral_keys, self.rng,
                    service=self.service, encrypt=self.encrypt,
                )
            except SecurityError:
                raise  # wrong key for the HostID: an impostor, never retry
            except (RpcTimeout, MountError):
                close = getattr(link, "close", None)
                if close is not None:
                    close()
                continue
            if not isinstance(outcome, ServerSession):
                # A revocation certificate or forwarding pointer: the
                # name we crashed with is gone.  A verified pointer
                # means the server rolled its key — retarget and keep
                # redialing under the *new* self-certifying pathname
                # (whose HostID connect() will verify as usual).  A
                # revocation — or anything unverifiable — is terminal.
                if hops >= _RETARGET_HOPS:
                    raise SecurityError(
                        f"redirect loop redialing {self.path.mount_name}: "
                        f"{hops} forwarding pointers and still no server"
                    )
                self.path = self._follow_pointer(outcome)
                hops += 1
                continue
            if outcome.session_keys is None:
                # A dialect downgrade (read-only answer to a read-write
                # redial) is not the session we crashed with.
                raise SecurityError(
                    f"server at {self.path.location} no longer offers the "
                    f"read-write session it crashed with"
                )
            return outcome
        return None

    def _follow_pointer(self, cert: Record) -> SelfCertifyingPath:
        """Verify a redial-time certificate; returns the new path.

        Self-authenticating, like everything else in SFS: the embedded
        key must verify the signature *and* hash to the HostID we were
        dialing — otherwise anyone could redirect our mount.  Raises
        SecurityError for forgeries, revocations, and unparseable
        redirect targets.
        """
        try:
            verified = verify_certificate(cert)
        except CertificateError as exc:
            raise SecurityError(
                f"unverifiable certificate redialing "
                f"{self.path.mount_name}: {exc}"
            ) from None
        if verified.hostid != self.path.hostid:
            raise SecurityError(
                f"certificate for the wrong HostID redialing "
                f"{self.path.mount_name}"
            )
        if verified.is_revocation:
            raise SecurityError(
                f"{self.path.mount_name} has been revoked"
            )
        try:
            new_path = parse_path(verified.redirect)
        except PathnameError as exc:
            raise SecurityError(
                f"forwarding pointer for {self.path.mount_name} has an "
                f"unusable target: {exc}"
            ) from None
        return SelfCertifyingPath(new_path.location, new_path.hostid)

    def _adopt(self, fresh: "ServerSession") -> None:
        """Take over *fresh*'s connection in place.

        The fresh session was built by connect() as a throwaway carrier;
        mounts hold references to *self*, so the new peer/pipe/channel
        move here and all supervision hooks are rebound to this object.
        """
        # After a plain reconnect the server must present the key we
        # crashed with; after a retarget, the key behind the *new*
        # HostID.  Both collapse to the one SFS check: the presented
        # key hashes to the path we are now bound to (connect() already
        # verified this; the assert guards the binding staying intact).
        assert fresh.server_public_key is not None \
            and self.path.matches_key(fresh.server_public_key), \
            "HostID verification let a different key through"
        # The retransmission schedule is session configuration, not
        # transport state: a tuned policy (e.g. widened for a queued
        # server's service delay) must survive failover, or the fresh
        # peer's default timer fires mid-backlog and triggers spurious
        # channel resyncs.
        fresh.peer.retry_policy = self.peer.retry_policy
        self.peer = fresh.peer
        self.pipe = fresh.pipe
        self.servinfo = fresh.servinfo
        self.session_keys = fresh.session_keys
        self.channel = fresh.channel
        self.server_public_key = fresh.server_public_key
        # Authentication state died with the server's volatile tables.
        self.auth_seqno = 0
        self._resyncing = False
        self.pipe.control_handler = self._on_control
        self.peer.recovery_hook = self.resync_task
        self._register_callbacks()

    def _register_callbacks(self) -> None:
        program = Program("sfs-cb", proto.SFS_CB_PROGRAM, proto.SFS_VERSION)

        def invalidate(args: Record, ctx: CallContext) -> None:
            if self.invalidate_handler is not None:
                self.invalidate_handler(args.handle)

        program.add_proc(proto.PROC_INVALIDATE, "INVALIDATE",
                         proto.InvalidateArgs, VOID, invalidate)
        self.peer.register(program)
        self.pipe.on_close(self._transport_closed)

    def _transport_closed(self) -> None:
        if self.on_close is not None:
            self.on_close()

    # -- the figure-4 client side --

    def authinfo_bytes(self) -> bytes:
        assert self.session_keys is not None
        return proto.AuthInfo.pack(
            proto.AuthInfo.make(
                auth_type="AuthInfo", service="FS",
                location=self.path.location, hostid=self.path.hostid,
                sessionid=self.session_keys.session_id,
            )
        )

    def login(self, agent: Agent, max_attempts: int = 3,
              max_rounds: int = 8) -> int:
        """Synchronous :meth:`login_task`."""
        return self.peer.drive(self.login_task(agent, max_attempts,
                                               max_rounds))

    def login_task(self, agent: Agent, max_attempts: int = 3,
                   max_rounds: int = 8):
        """Authenticate *agent*'s user; returns an authno (0 = anonymous).

        The agent may hold several keys; the client retries with each
        ("a single agent can support several protocols by simply trying
        them each in succession") and falls back to anonymous access
        after *max_attempts* failures.  Agents implementing multi-round
        protocols expose ``continue_auth``; LOGIN_MORE replies loop back
        through it with fresh sequence numbers — the content stays
        opaque to this client code.

        Login storms run thousands of these concurrently; each suspends
        while its reply is in flight, and SERVER_BUSY replies from the
        admission queue are retried through :meth:`_retry_busy`.  Each
        busy retry signs a *fresh* sequence number: sibling logins on
        the same session keep advancing the server's replay window while
        this one backs off, so resending the original seqno after a long
        wait would be self-inflicted replay (denied as stale).  A
        backoff that exhausts raises :class:`RpcBusy` to the caller —
        the login was shed.
        """
        info = self.authinfo_bytes()
        for key_index in range(min(max_attempts, max(1, agent.key_count))):
            def attempt(key_index=key_index):
                self.auth_seqno += 1
                seqno = self.auth_seqno
                authmsg = yield from agent.sign_request(info, seqno,
                                                        key_index)
                return (yield from self._login_call(seqno, authmsg))
            for _round in range(max_rounds):
                try:
                    disc, body = yield from self._retry_busy(attempt)
                except AgentRefused:
                    return 0
                if disc == proto.LOGIN_OK:
                    return body.authno
                if disc != proto.LOGIN_MORE:
                    break
                continue_auth = getattr(agent, "continue_auth", None)
                if continue_auth is None:
                    break
                self.auth_seqno += 1
                seqno = self.auth_seqno
                authmsg = continue_auth(body, info, seqno)

                # Multi-round protocol messages are not re-signable from
                # here; a busy retry resends the round verbatim.
                def attempt(seqno=seqno, authmsg=authmsg):
                    return self._login_call(seqno, authmsg)
        return 0

    def _login_call(self, seqno: int, authmsg: bytes):
        return self.peer.call_task(
            proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proto.PROC_LOGIN,
            proto.LoginArgs,
            proto.LoginArgs.make(seqno=seqno, authmsg=authmsg),
            proto.LoginRes,
        )

    def _retry_busy(self, attempt):
        """Run ``attempt()`` — a fresh :meth:`RpcPeer.call_task` each time
        — until admission control lets it in: SERVER_BUSY is retried
        through :attr:`busy_policy`, each wait a cooperative sleep (other
        clients run during it, which is the contention being simulated).
        """
        delays = None
        while True:
            try:
                return (yield from attempt())
            except RpcBusy:
                if delays is None:
                    delays = self.busy_policy.delays(self.rng)
                    next(delays)  # discard the "first attempt" zero
                delay = next(delays, None)
                if delay is None:
                    raise  # backoff exhausted; the server stayed full
                self.busy_retries += 1
                self._m_busy_retries.inc()
                if delay:
                    yield Sleep(delay)

    # -- relaying --

    def call_nfs(self, proc: int, args: Record, authno: int):
        """Synchronous :meth:`call_nfs_task`."""
        return self.peer.drive(self.call_nfs_task(proc, args, authno))

    def call_nfs_task(self, proc: int, args: Record, authno: int,
                      speculative: bool = False):
        """Call one NFS procedure over the session (``yield from``):
        :meth:`relay_task` with *args* encoded and the result decoded."""
        arg_codec, res_codec = nfs_types.PROC_CODECS[proc]
        return res_codec.unpack((yield from self.relay_task(
            proc, arg_codec.pack(args), authno, speculative)))

    def relay_task(self, proc: int, args: bytes, authno: int,
                   speculative: bool = False):
        """Relay one NFS procedure's argument bytes over the session and
        return its result bytes (``yield from``).

        A *speculative* relay (a prefetch) is one attempt and nothing
        more: see :meth:`RpcPeer.call_task`; SERVER_BUSY ends it too.
        """
        def attempt():
            return self.peer.call_task(
                proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proc,
                RAW, args, RAW, cred=make_sfs_cred(authno),
                speculative=speculative,
            )
        if speculative:
            return (yield from attempt())
        return (yield from self._retry_busy(attempt))


# ---------------------------------------------------------------------------
# Subordinate read-write client daemon
# ---------------------------------------------------------------------------


#: Procedures whose success changes file/directory contents as seen by
#: this client — a readahead buffer crossing one of these is stale.
_MUTATING_PROCS = frozenset({
    nfs_const.NFSPROC3_SETATTR, nfs_const.NFSPROC3_CREATE,
    nfs_const.NFSPROC3_MKDIR, nfs_const.NFSPROC3_SYMLINK,
    nfs_const.NFSPROC3_REMOVE, nfs_const.NFSPROC3_RMDIR,
    nfs_const.NFSPROC3_RENAME, nfs_const.NFSPROC3_LINK,
    nfs_const.NFSPROC3_WRITEV,
})


#: Handles whose readahead state is kept: reading one more evicts the
#: least recently read.
_RA_STREAMS = 4

#: Bytes of file data one mount keeps, all its streams together: a 1 MB
#: file read through comes back whole, with room for the window ahead
#: of a second reader (PROTOCOLS.md §17).  Past it the oldest chunks go.
_RA_BUDGET = 2 << 20


class _ReadStream:
    """Readahead state and block cache of one file handle (PROTOCOLS.md
    §17): the sequential detector, the chunks kept and those on the wire.

    Never reset, only replaced: a reply — a READV's or a plain READ's —
    belongs to the stream that was current when it was requested, and
    is dropped if that is no longer the one :class:`MountedRemoteFs`
    holds for the handle.
    """

    __slots__ = ("next", "streak", "count", "window", "front", "limit",
                 "attrs", "chunks", "held", "pending")

    def __init__(self) -> None:
        #: Offset a sequential reader asks for next; reads in a row.
        self.next: int | None = None
        self.streak = 0
        #: offset -> (data, eof, expiry time), in arrival order; and the
        #: bytes of data they hold.
        self.chunks: dict[int, tuple[bytes, bool, float]] = {}
        self.held = 0
        #: offset -> the Future of the READV that will bring it.
        self.pending: dict[int, Future] = {}
        self.attrs: Record | None = None
        self.open(0, 0, None, 0)

    def open(self, front: int, count: int, limit: int | None,
             window: int) -> None:
        """Start a window at *front*: chunks of *count* bytes, *window*
        bytes ahead, nothing requested past *limit* (the file's size,
        where known; later the offset a reply reported end of file)."""
        self.front, self.count, self.limit = front, count, limit
        self.window = window


class _Flush:
    """One WRITEV of gathered ranges on the wire (PROTOCOLS.md §17)."""

    __slots__ = ("ranges", "done", "superseded")

    def __init__(self, ranges: list[tuple[int, int]], done: Future) -> None:
        #: [start, stop) byte ranges it carries; the Future of its relay.
        self.ranges = ranges
        self.done = done
        #: A later flush of the same handle left while this one was on
        #: the wire, so this reply's attributes may predate those bytes.
        self.superseded = False


class MountedRemoteFs:
    """One remote read-write file system, served to the kernel as NFS.

    Performs per-user authentication lazily: the first request from a
    local uid triggers a LOGIN through that user's agent; failures fall
    back to anonymous access, exactly as the paper describes.
    """

    def __init__(self, daemon: "SfsClientDaemon", session: ServerSession,
                 fsid: int) -> None:
        self.daemon = daemon
        self.session = session
        self.fsid = fsid
        self.caches = ClientCaches.create(
            daemon.clock, float(session.servinfo.lease_duration),
            enabled=daemon.caching, metrics=daemon.metrics,
        )
        self._authnos: dict[int, int] = {}
        self.program = self._build_program()
        self.rpcs_relayed = 0
        self.replayed_calls = 0
        self.stale_handles = 0
        self._m_relayed = daemon.metrics.counter("client.rpcs_relayed")
        self._m_replayed = daemon.metrics.counter("client.replayed_calls")
        self._m_stale = daemon.metrics.counter("client.stale_handles")
        # Readahead state and cached chunks for the _RA_STREAMS most
        # recently read handles, oldest first.
        self._ra_streams: OrderedDict[bytes, _ReadStream] = OrderedDict()
        # Write-behind state: handle -> [[offset, [data, ...], size], ...]
        # coalesced dirty ranges not yet sent to the server, each joined
        # once, as its flush leaves; the flushes of each handle on the
        # wire, oldest first; and the first failure of each whose next
        # barrier has not yet reported it.
        self._gather_segs: dict[bytes, list[list]] = {}
        self._flushes: dict[bytes, list[_Flush]] = {}
        self._flush_errors: dict[bytes, int] = {}
        # Prefetches and flushes on the wire, oldest first: at most
        # depth - 2 of them, so a foreground call never parks behind
        # its own mount's background calls.
        self._background: list[Future] = []
        m = daemon.metrics
        self._m_ra_batches = m.counter("client.readahead.batches")
        self._m_ra_chunks = m.counter("client.readahead.chunks")
        self._m_ra_hits = m.counter("client.readahead.hits")
        self._m_ra_misses = m.counter("client.readahead.misses")
        self._m_ra_discarded = m.counter("client.readahead.discarded")
        self._m_gather_writes = m.counter("client.gather.writes")
        self._m_gather_flushes = m.counter("client.gather.flushes")
        self._m_gather_segments = m.counter("client.gather.segments")
        self._m_gather_bytes = m.counter("client.gather.bytes")
        session.invalidate_handler = self._on_invalidate
        session.on_rekey = self._void_leases
        session.on_close = self._void_leases
        session.on_reconnect = self._after_reconnect

    def _on_invalidate(self, handle: bytes) -> None:
        """Lease invalidation: drop cached state *and* file data —
        another client wrote the file, so cached chunks are stale.
        Gathered (unsent) local writes survive: they are this client's
        own pending data, flushed at the next barrier."""
        self.caches.invalidate(handle)
        self._ra_discard(handle)

    def _void_leases(self) -> None:
        """Forget what was held under the session's leases — attributes,
        access bits, lookups, file data — once an INVALIDATE may have
        been lost: after a rekey (records were), or when the connection
        closed (its leases died with it; PROTOCOLS.md §11).  Authnos
        survive both."""
        self.caches.attrs.clear()
        self.caches.access.clear()
        self.caches.lookups.clear()
        self._ra_discard_all()

    def _after_reconnect(self) -> None:
        """The server restarted: authnos index a login table that no
        longer exists, so each uid re-authenticates lazily through its
        agent.  The leases went with the old connection (voided here
        too, for a transport that reports no close: TCP).  File handles
        survive: the handle key derives from the durable private key."""
        self._authnos.clear()
        self._void_leases()

    # -- authentication --

    def _authno_for(self, ctx: CallContext):
        """The caller's authno (``yield from``): a uid's first call logs
        it in through its agent."""
        uid = _authsys(ctx.cred).uid
        if uid in self._authnos:
            return self._authnos[uid]
        agent = self.daemon.agents.get(uid)
        authno = ((yield from self.session.login_task(agent))
                  if agent is not None else 0)
        self._authnos[uid] = authno
        return authno

    def logout_uid(self, uid: int) -> None:
        self._authnos.pop(uid, None)

    # -- program --

    def _build_program(self) -> Program:
        program = nfs3_program(
            "sfs-mount", {proc: self._make_handler(proc) for proc in PROCS})
        program._sfs_mount = self  # back-pointer for tools (sfsls/libsfs)
        return program

    def _make_handler(self, proc: int):
        def handler(args: Record, ctx: CallContext):
            return self._handle(proc, args, ctx)
        return handler

    def _handle(self, proc: int, args: Record, ctx: CallContext):
        """Serve one kernel call: a generator handler, which yields while
        the session relays it (and whatever flush or prefetch it waits
        on), so no kernel call drives a nested wait."""
        reply = yield from self._pipeline_intercept(
            proc, args, ctx, self.daemon.pipeline_depth)
        if reply is not None:
            return reply
        cached = self._try_cache(proc, args, ctx)
        if cached is not None:
            return cached
        return (yield from self._relay(proc, args, ctx.body, ctx))

    def _call_task(self, proc: int, wire: bytes, authno: int,
                   speculative: bool = False):
        """Relay *proc*'s argument bytes; its reply (``yield from``), with
        this mount's fsid in every fattr3, decoded once and still
        carrying its bytes for the kernel (:class:`Relayed`)."""
        result = yield from self.session.relay_task(proc, wire, authno,
                                                    speculative)
        result, _ = handlemap.patch_result(proc, result, None, self.fsid)
        reply = Relayed(nfs_types.PROC_CODECS[proc][1].unpack(result))
        reply.wire = result
        return reply

    def _relay(self, proc: int, args: Record, wire: bytes,
               ctx: CallContext):
        """Relay one call whose arguments are *args*, encoded as *wire*
        (the kernel's bytes, forwarded as they came), and absorb its
        reply into the caches (``yield from``)."""
        try:
            authno = yield from self._authno_for(ctx)
            reply = yield from self._call_task(proc, wire, authno)
        except RpcTransportDown:
            # Transport dead (server crash) — fail over, then replay.
            # Plain RpcTimeout is *not* failover material: a live but
            # desynchronized link is the resync engine's job, and
            # redialing around it would mask the failure.  The restarted
            # server's duplicate-request cache is empty, so this one
            # replay is at-least-once, not at-most-once: if the crash
            # fell between execution and the reply, a non-idempotent
            # call runs twice (PROTOCOLS.md §11).
            if not (yield from self.session.reconnect_task()):
                raise
            self.replayed_calls += 1
            self._m_replayed.inc()
            authno = yield from self._authno_for(ctx)
            reply = yield from self._call_task(proc, wire, authno)
        status, body = reply
        self.rpcs_relayed += 1
        self._m_relayed.inc()
        if status in (nfs_const.NFS3ERR_STALE, nfs_const.NFS3ERR_BADHANDLE):
            # A handle the kernel cached stopped resolving (the file
            # went away, or its generation moved on).  Count it and
            # drop whatever leases mention the offending handles.
            self.stale_handles += 1
            self._m_stale.inc()
            for handle in handlemap.handles(proc, args):
                self.caches.invalidate(handle)
        self._absorb(proc, args, ctx, status, body)
        return reply

    # -- readahead, block cache and write-gathering --

    def _pipeline_intercept(self, proc: int, args: Record, ctx: CallContext,
                            depth: int):
        """Serve READ through its handle's stream / absorb UNSTABLE
        WRITE into the gather buffer (``yield from``); returns a reply,
        or None to fall through to the normal cache-then-relay path."""
        if proc == nfs_const.NFSPROC3_READ:
            if self._dirty(args.file):
                # Read-your-writes: our writes to the file land before
                # we read it back.
                status = yield from self._write_barrier(args.file, ctx)
                if status is not None:
                    return status, nfs_types.failure_arm(proc)
            return (yield from self._read_ahead(args, ctx, depth))
        if proc == nfs_const.NFSPROC3_WRITE:
            self._ra_discard(args.file)
            if args.stable == nfs_const.UNSTABLE:
                return (yield from self._gather_write(args, ctx, depth))
            status = yield from self._write_barrier(args.file, ctx)
            if status is not None:
                return status, nfs_types.failure_arm(proc)
            return None
        if proc == nfs_const.NFSPROC3_CREATE and _create_sets_size(args):
            # O_TRUNC by name: the CREATE can shrink a file whose handle
            # it does not carry, so it waits for every write of the
            # mount — they land before the truncation, not after it
            # (PROTOCOLS.md §17).  A failure stays with its own file.
            for handle in list(dict.fromkeys(
                    [*self._gather_segs, *self._flushes])):
                yield from self._settle(handle, ctx)
        if proc in (nfs_const.NFSPROC3_REMOVE, nfs_const.NFSPROC3_RENAME):
            # The name may have held the last link of a file we keep
            # data of; the call names a directory and a leaf, never that
            # file, so the lookup cache says which one it was.
            name = args.object if proc == nfs_const.NFSPROC3_REMOVE \
                else args.to
            named = self.caches.lookups.peek(name.dir, name.name)
            if named is not None:
                self._ra_discard(named)
        # Any other procedure naming a handle we wrote to (COMMIT,
        # SETATTR, GETATTR, ...) is a write-behind barrier: the reply
        # reflects our writes, and reports a flush that failed.
        # Mutating ops also discard readahead.
        for handle in handlemap.handles(proc, args):
            if proc in _MUTATING_PROCS:
                self._ra_discard(handle)
            if self._dirty(handle):
                status = yield from self._write_barrier(handle, ctx)
                if status is not None:
                    return status, nfs_types.failure_arm(proc)
        return None

    def _ra_count(self, event: str) -> None:
        """Count a readahead *event* (``waits``, ``stale_replies``,
        ``abandoned``, ``kept_reads``).  Registered on first use, unlike
        the mount's other counters: a mount that never reads ahead
        publishes the metric set it always did, which perfbench's
        ``virt_digest`` hashes."""
        self.daemon.metrics.counter(f"client.readahead.{event}").inc()

    def _gather_count(self, event: str) -> None:
        """Count a write-behind *event* (``waits``: a write waited for a
        flush; ``failed``: a flush failed), registered on first use as
        :meth:`_ra_count`'s are."""
        self.daemon.metrics.counter(f"client.gather.{event}").inc()

    def _ra_discard(self, handle: bytes) -> None:
        """Forget *handle*'s stream and the data it keeps.  Replies for
        it still on the wire find their stream gone or replaced when
        they land, and update nothing."""
        stream = self._ra_streams.pop(handle, None)
        if stream is not None and (stream.chunks or stream.pending):
            self._m_ra_discarded.inc()

    def _ra_discard_all(self) -> None:
        for handle in list(self._ra_streams):
            self._ra_discard(handle)

    def _read_ahead(self, args: Record, ctx: CallContext, depth: int):
        """Serve a READ from its handle's stream — a chunk kept from an
        earlier reply, or one still on the wire — keeping the window
        ahead of a sequential reader full; else relay it as a plain
        READ and keep what that brings (``yield from``)."""
        handle, offset, count = args.file, args.offset, args.count
        stream = self._ra_streams.get(handle)
        if stream is None:
            stream = self._ra_streams[handle] = _ReadStream()
            while len(self._ra_streams) > _RA_STREAMS:
                self._ra_discard(next(iter(self._ra_streams)))
        else:
            self._ra_streams.move_to_end(handle)
        waited = offset in stream.pending
        if waited or offset in stream.chunks:
            if offset == stream.next and stream.count:
                # The run goes on, in a window that is open.  Top up
                # before taking the chunk: the wire stays full while
                # this read waits for it.
                yield from self._ra_top_up(stream, handle, offset + count,
                                           depth, ctx)
            reply = yield from self._ra_take(stream, handle, offset, count)
            if reply is not None:
                self._m_ra_hits.inc()
                return reply
        self._m_ra_misses.inc()
        sequential = stream.next == offset
        stream.next = offset + count
        stream.streak = stream.streak + 1 if sequential else 0
        if waited or count <= 0 or depth - 2 < 1:
            # No window slot to prefetch in — or the prefetch this read
            # waited for was lost: the plain READ retransmits and
            # recovers.
            return (yield from self._ra_fetch(stream, args, ctx))
        if stream.streak < 1:
            # A first read at offset 0 of a file the attribute cache
            # says is longer opens the window at once.  The chunk it is
            # blocked on goes out first, as a plain READ that keeps its
            # retransmission; the READVs follow it in the same step.
            known = self.caches.attrs.get(handle) if offset == 0 else None
            if known is None or known.size <= count:
                return (yield from self._ra_fetch(stream, args, ctx))
            yield from self._authno_for(ctx)  # logged in: the READ leaves now
            reading = self.session.peer.start(
                self._ra_fetch(stream, args, ctx))
            stream.open(count, count, known.size,
                        self._ra_window(depth, count))
            yield from self._ra_top_up(stream, handle, count, depth, ctx)
            return (yield reading)
        # A run of two: open the whole window at once (a ramp would cost
        # a round trip per step).  The first READV carries only the
        # chunk this read is blocked on, so that it never queues behind
        # replies it does not need.
        known = self.caches.attrs.get(handle)
        stream.open(offset, count, known.size if known is not None else None,
                    self._ra_window(depth, count))
        authno = yield from self._authno_for(ctx)
        self._ra_request(stream, handle, 1, authno)
        yield from self._ra_top_up(stream, handle, offset + count, depth, ctx)
        reply = yield from self._ra_take(stream, handle, offset, count)
        return reply if reply is not None else \
            (yield from self._ra_fetch(stream, args, ctx))

    def _ra_fetch(self, stream: "_ReadStream", args: Record,
                  ctx: CallContext):
        """Relay a plain READ, and keep its data if *stream* — current
        when the READ went out — still is when the reply is back.  A
        rekey replaces every stream, so nothing a READ brings across it
        is kept."""
        reply = yield from self._relay(nfs_const.NFSPROC3_READ, args,
                                       ctx.body, ctx)
        status, body = reply
        if (status == nfs_const.NFS3_OK
                and self._ra_streams.get(args.file) is stream):
            if body.file_attributes is not None:
                stream.attrs = body.file_attributes
            self._ra_keep(stream, args.offset, body.data, body.eof)
            self._ra_count("kept_reads")
            self._ra_trim()
        return reply

    def _ra_window(self, depth: int, count: int) -> int:
        """Bytes to keep requested or buffered ahead of a sequential
        reader: the session link's bandwidth-delay product rounded up
        to whole READVs of *depth* chunks, plus the READV being
        consumed."""
        peer = self.session.peer
        batch = depth * count
        fill = (min(peer.rtt_estimate * peer.bandwidth_estimate,
                    depth * batch) if peer.rtt_estimate else 0.0)
        return (math.ceil(fill / batch) + 1) * batch

    def _ra_top_up(self, stream: "_ReadStream", handle: bytes,
                   position: int, depth: int, ctx: CallContext):
        """Issue READVs of up to *depth* chunks until the window beyond
        *position* is requested — not past a known end of file, but
        including the chunk *at* it (the empty read that tells a reader
        it is done).  At most ``depth - 2`` background calls, prefetches
        and flushes together, are in flight, so a foreground call never
        parks behind its own mount's; below depth 3 there are none.
        (``yield from``: the caller's authno, should it need one.)"""
        count = stream.count
        while (len(self._background) < depth - 2
               and stream.front + depth * count <= position + stream.window
               and (stream.limit is None or stream.front <= stream.limit)):
            chunks = depth
            if stream.limit is not None:
                chunks = min(depth, (stream.limit - stream.front) // count + 1)
            self._ra_request(stream, handle, chunks,
                             (yield from self._authno_for(ctx)))

    def _ra_request(self, stream: "_ReadStream", handle: bytes,
                    chunks: int, authno: int) -> None:
        """Send one speculative READV for the next *chunks* chunks."""
        count = stream.count
        offsets = [stream.front + i * count for i in range(chunks)]
        stream.front += chunks * count
        done = self.session.peer.start(self._call_task(
            nfs_const.NFSPROC3_READV,
            nfs_types.ReadvArgs.pack(Record(file=handle, segments=[
                Record(offset=at, count=count) for at in offsets])),
            authno, speculative=True,
        ))
        self._background.append(done)
        for at in offsets:
            stream.pending[at] = done
        done.add_done_callback(
            lambda done: self._ra_arrived(stream, handle, offsets, done))

    def _ra_arrived(self, stream: "_ReadStream", handle: bytes,
                    offsets: list[int], done: Future) -> None:
        """A prefetch ended: keep what it brought, if it still may."""
        self._background.remove(done)
        for at in offsets:
            if stream.pending.get(at) is done:
                del stream.pending[at]
        if done.exception is not None:
            if not isinstance(done.exception, (RpcError, ConnectionError)):
                raise done.exception
            self._ra_count("abandoned")
            return
        if self._ra_streams.get(handle) is not stream:
            # Discarded since the request left (a write, an INVALIDATE,
            # a resync, a reconnect, an unlink, eviction): what this
            # reply read may predate the event, so none of it is kept.
            self._ra_count("stale_replies")
            return
        self.rpcs_relayed += 1
        self._m_relayed.inc()
        status, body = done.value
        if status != nfs_const.NFS3_OK:
            return  # the reader's plain READ will report it, READ-shaped
        if body.file_attributes is not None:
            self.caches.attrs.put(handle, body.file_attributes)
        self._m_ra_batches.inc()
        stream.attrs = body.file_attributes
        for at, seg in zip(offsets, body.segments):
            if stream.limit is not None and at > stream.limit:
                break  # past the end of file: no reader asks for these
            self._ra_keep(stream, at, seg.data, seg.eof)
            self._m_ra_chunks.inc()
            if seg.eof:
                stream.limit = at + len(seg.data)
        self._ra_trim()

    def _ra_keep(self, stream: "_ReadStream", at: int, data: bytes,
                 eof: bool) -> None:
        """Keep *data*, read at offset *at*, for one lease from now."""
        old = stream.chunks.pop(at, None)
        if old is not None:
            stream.held -= len(old[0])
        stream.chunks[at] = (data, eof, self.daemon.clock.now + float(
            self.session.servinfo.lease_duration))
        stream.held += len(data)

    def _ra_drop(self, stream: "_ReadStream", at: int) -> None:
        """Forget the chunk kept at offset *at*."""
        stream.held -= len(stream.chunks.pop(at)[0])
        self._m_ra_discarded.inc()

    def _ra_trim(self) -> None:
        """Hold the mount to :data:`_RA_BUDGET`: the oldest chunks go,
        those of the least recently read streams first."""
        excess = sum(s.held for s in self._ra_streams.values()) - _RA_BUDGET
        for stream in self._ra_streams.values():
            while excess > 0 and stream.chunks:
                at = next(iter(stream.chunks))
                excess -= len(stream.chunks[at][0])
                self._ra_drop(stream, at)
            if excess <= 0:
                return

    def _ra_take(self, stream: "_ReadStream", handle: bytes,
                 offset: int, count: int):
        """The chunk at *offset* as a READ reply — after waiting for it,
        if it is on the wire — or None when there is none to serve
        (``yield from``).  A chunk served stays for the next reader."""
        pending = stream.pending.get(offset)
        if pending is not None:
            self._ra_count("waits")
            try:
                yield pending
            except (RpcError, ConnectionError):
                pass  # a lost prefetch: nothing kept, the READ relays
            if self._ra_streams.get(handle) is not stream:
                return None  # discarded while this read waited
        entry = stream.chunks.get(offset)
        if entry is None:
            return None
        data, eof, expires = entry
        if (expires < self.daemon.clock.now or len(data) > count
                or (len(data) < count and not eof)):
            # Older than a lease — what the attribute cache would no
            # longer vouch for, neither do we — or not the answer the
            # server would give a read of *count* bytes.
            self._ra_drop(stream, offset)
            return None
        stream.next = offset + len(data)
        return nfs_const.NFS3_OK, Record(
            file_attributes=stream.attrs,
            count=len(data), eof=eof, data=data,
        )

    def _gather_write(self, args: Record, ctx: CallContext, depth: int):
        """Absorb an UNSTABLE WRITE into the gather buffer (``yield
        from``); once it holds *depth* writes or bytes for *depth*
        chunks, send it as one WRITEV behind the write, which waits only
        while the mount's background calls are at their cap."""
        handle = args.file
        data = args.data[: args.count]
        if handle not in self._gather_segs and handle not in self._flushes \
                and (depth <= 1 or len(data) >= depth * 65536):
            return None  # it alone would flush: relay it as itself
        end = args.offset + len(data)
        for flush in list(self._flushes.get(handle, ())):
            if any(start < end and args.offset < stop
                   for start, stop in flush.ranges):
                # The last writer wins: these bytes go out after the
                # flush carrying those they overwrite has landed.
                self._gather_count("waits")
                yield from self._landed(flush.done)
        segs = self._gather_segs.setdefault(handle, [])
        if segs and segs[-1][0] + segs[-1][2] == args.offset:
            segs[-1][1].append(data)
            segs[-1][2] += len(data)
        else:
            segs.append([args.offset, [data], len(data)])
        self._m_gather_writes.inc()
        # Local attrs (size, mtime) are stale until the flush lands.
        self.caches.invalidate(handle)
        total = sum(size for _, _, size in segs)
        if len(segs) >= depth or total >= depth * 65536:
            # Bounded dirty data: at the cap, wait for the oldest call
            # (and a barrier may send these bytes meanwhile).
            while len(self._background) >= max(depth - 2, 1):
                self._gather_count("waits")
                yield from self._landed(self._background[0])
            if handle in self._gather_segs:
                done = self._flush_start(handle, ctx)
                if depth - 2 < 1:
                    self._gather_count("waits")  # no background below depth 3
                    yield from self._landed(done)
        # Synthetic immediate OK: UNSTABLE data is volatile by contract
        # until COMMIT, a barrier that reports a flush that failed
        # (PROTOCOLS.md §17).
        return nfs_const.NFS3_OK, Record(
            file_wcc=nfs_types.WccData.make(before=None, after=None),
            count=len(data), committed=nfs_const.UNSTABLE,
            verf=b"\x00" * 8,
        )

    def _dirty(self, handle: bytes) -> bool:
        """Has *handle* writes not landed, or a failure not reported?"""
        return (handle in self._gather_segs or handle in self._flushes
                or handle in self._flush_errors)

    def _flush_start(self, handle: bytes, ctx: CallContext) -> Future:
        """Send *handle*'s gathered ranges as one background WRITEV."""
        segs = self._gather_segs.pop(handle)
        self._m_gather_flushes.inc()
        self._m_gather_segments.inc(len(segs))
        self._m_gather_bytes.inc(sum(size for _, _, size in segs))
        flushes = self._flushes.setdefault(handle, [])
        for older in flushes:
            older.superseded = True
        args = Record(
            file=handle, stable=nfs_const.UNSTABLE,
            segments=[Record(offset=offset, data=b"".join(parts))
                      for offset, parts, _ in segs],
        )
        done = self.session.peer.start(self._relay(
            nfs_const.NFSPROC3_WRITEV, args,
            nfs_types.WritevArgs.pack(args), ctx))
        flush = _Flush([(offset, offset + size)
                        for offset, _, size in segs], done)
        flushes.append(flush)
        self._background.append(done)
        done.add_done_callback(lambda done: self._flush_landed(handle, flush))
        return done

    def _flush_landed(self, handle: bytes, flush: "_Flush") -> None:
        """A flush ended: keep its failure for the handle's next
        barrier, and its reply's attributes only if they are the
        file's — no other flush of it raced this one, nothing more is
        gathered."""
        done = flush.done
        self._background.remove(done)
        flushes = self._flushes[handle]
        flushes.remove(flush)
        if not flushes:
            del self._flushes[handle]
        if done.exception is not None:
            if not isinstance(done.exception, (RpcError, ConnectionError)):
                raise done.exception
            status = nfs_const.NFS3ERR_IO
        else:
            status = done.value[0]
        if status != nfs_const.NFS3_OK:
            self._gather_count("failed")
            self._flush_errors.setdefault(handle, status)
        if (status != nfs_const.NFS3_OK or flush.superseded or flushes
                or handle in self._gather_segs):
            self.caches.attrs.invalidate(handle)

    @staticmethod
    def _landed(done: Future):
        """Wait for a background call to end (``yield from``); how it
        ended is for its done-callback to record."""
        if not done.done:
            try:
                yield done
            except (RpcError, ConnectionError):
                pass

    def _settle(self, handle: bytes, ctx: CallContext):
        """Send *handle*'s gathered ranges and wait until every flush of
        it has landed (``yield from``)."""
        if handle in self._gather_segs:
            self._flush_start(handle, ctx)
        while handle in self._flushes:
            yield from self._landed(self._flushes[handle][0].done)

    def _write_barrier(self, handle: bytes, ctx: CallContext):
        """Settle *handle* (``yield from``) and return the first flush
        failure not yet reported — a non-OK NFS status the caller shapes
        for whatever op hit the barrier — or None.  Each failure is
        reported once."""
        yield from self._settle(handle, ctx)
        return self._flush_errors.pop(handle, None)

    # -- caching --

    def _try_cache(self, proc: int, args: Record, ctx: CallContext):
        if proc == nfs_const.NFSPROC3_GETATTR:
            attrs = self.caches.attrs.get(args.object)
            if attrs is not None:
                return nfs_const.NFS3_OK, Record(obj_attributes=attrs)
        elif proc == nfs_const.NFSPROC3_ACCESS:
            uid = _authsys(ctx.cred).uid
            entry = self.caches.access.get(args.object, (uid, args.access))
            if entry is not None:
                attrs = self.caches.attrs.get(args.object)
                return nfs_const.NFS3_OK, Record(
                    obj_attributes=attrs, access=entry
                )
        elif proc == nfs_const.NFSPROC3_LOOKUP:
            # A name maps to a handle only; what the handle's file looks
            # like now is the attribute cache's to say, and without it
            # the LOOKUP goes to the wire.
            handle = self.caches.lookups.get(args.what.dir, args.what.name)
            attrs = self.caches.attrs.get(handle) if handle else None
            if attrs is not None:
                return nfs_const.NFS3_OK, Record(
                    object=handle,
                    obj_attributes=attrs,
                    dir_attributes=self.caches.attrs.get(args.what.dir),
                )
        return None

    def _absorb(self, proc: int, args: Record, ctx: CallContext,
                status: int, body: Record) -> None:
        """Update caches from a reply; invalidate what we mutated."""
        if status != nfs_const.NFS3_OK:
            return
        caches = self.caches
        if proc == nfs_const.NFSPROC3_GETATTR:
            caches.attrs.put(args.object, body.obj_attributes)
        elif proc == nfs_const.NFSPROC3_LOOKUP:
            if body.obj_attributes is not None:
                caches.attrs.put(body.object, body.obj_attributes)
                caches.lookups.put(args.what.dir, body.object, args.what.name)
            if body.dir_attributes is not None:
                caches.attrs.put(args.what.dir, body.dir_attributes)
        elif proc == nfs_const.NFSPROC3_ACCESS:
            uid = _authsys(ctx.cred).uid
            caches.access.put(args.object, body.access, (uid, args.access))
            if body.obj_attributes is not None:
                caches.attrs.put(args.object, body.obj_attributes)
        elif proc == nfs_const.NFSPROC3_READ:
            if body.file_attributes is not None:
                caches.attrs.put(args.file, body.file_attributes)
        elif proc in (nfs_const.NFSPROC3_WRITE, nfs_const.NFSPROC3_WRITEV):
            caches.invalidate(args.file)
            if body.file_wcc.after is not None:
                caches.attrs.put(args.file, body.file_wcc.after)
        elif proc == nfs_const.NFSPROC3_SETATTR:
            caches.invalidate(args.object)
            if body.obj_wcc.after is not None:
                caches.attrs.put(args.object, body.obj_wcc.after)
        elif proc in (nfs_const.NFSPROC3_CREATE, nfs_const.NFSPROC3_MKDIR,
                      nfs_const.NFSPROC3_SYMLINK):
            self._name_changed(args.where, body.dir_wcc)
            if body.obj is not None:
                if (proc == nfs_const.NFSPROC3_CREATE
                        and _create_sets_size(args)):
                    # The file may have existed and just been truncated:
                    # what we held about it (attributes, access bits,
                    # readahead chunks) describes the old one.
                    caches.invalidate(body.obj)
                    self._ra_discard(body.obj)
                if body.obj_attributes is not None:
                    caches.attrs.put(body.obj, body.obj_attributes)
                caches.lookups.put(args.where.dir, body.obj, args.where.name)
        elif proc in (nfs_const.NFSPROC3_REMOVE, nfs_const.NFSPROC3_RMDIR):
            self._name_changed(args.object, body.dir_wcc)
        elif proc == nfs_const.NFSPROC3_RENAME:
            self._name_changed(args.from_, body.fromdir_wcc)
            self._name_changed(args.to, body.todir_wcc)
        elif proc == nfs_const.NFSPROC3_LINK:
            caches.invalidate(args.file)
            self._name_changed(args.link, body.linkdir_wcc)
        elif proc == nfs_const.NFSPROC3_READDIRPLUS:
            for entry in body.entries:
                if entry.name_handle is not None and entry.name_attributes is not None:
                    caches.attrs.put(entry.name_handle, entry.name_attributes)

    def _name_changed(self, name: Record, wcc: Record) -> None:
        """Our own call changed what *name* (a ``diropargs3``) names:
        forget it — a CREATE puts its handle back — and what we held on
        the file it named, whose link count moved; the directory's
        attributes are the reply's *wcc* ones.  The directory's other
        names stand: only an INVALIDATE or the lease drops those."""
        caches = self.caches
        gone = caches.lookups.peek(name.dir, name.name)
        if gone is not None:
            caches.attrs.invalidate(gone)
        caches.lookups.forget(name.dir, name.name)
        caches.attrs.invalidate(name.dir)
        caches.access.invalidate(name.dir)
        if wcc.after is not None:
            caches.attrs.put(name.dir, wcc.after)


def _create_sets_size(args: Record) -> bool:
    """Does this CREATE's ``sattr3`` carry a size (UNCHECKED/GUARDED
    arms only; EXCLUSIVE carries a verifier)?"""
    how_disc, how_body = args.how
    return how_disc != nfs_const.EXCLUSIVE and how_body.size is not None


#: The group the kernel tags an agent's own reads with (its
#: certification paths and revocation directories).
AGENT_GID = 0xFFFD
_NOBODY = AuthSys(uid=0xFFFE)


def _authsys(cred: OpaqueAuth) -> AuthSys:
    try:
        return AuthSys.from_auth(cred)
    except RpcMsgError:
        return _NOBODY


# ---------------------------------------------------------------------------
# Synthetic NFS replies: the /sfs root and the read-only mount
# ---------------------------------------------------------------------------


def _synthetic_fattr(ftype: int, mode: int, nlink: int, uid: int, size: int,
                     fsid: int, fileid: int) -> Record:
    """Attributes of a node that no disk holds: group 0, every time 0."""
    zero_time = nfs_types.NfsTime.make(seconds=0, nseconds=0)
    return nfs_types.Fattr.make(
        type=ftype, mode=mode, nlink=nlink, uid=uid, gid=0,
        size=size, used=size,
        rdev=nfs_types.SpecData.make(major=0, minor=0),
        fsid=fsid, fileid=fileid,
        atime=zero_time, mtime=zero_time, ctime=zero_time,
    )


def _read_only_access(attrs: Record | None, requested: int):
    """ACCESS on a read-only file system: reading and searching only."""
    return nfs_const.NFS3_OK, Record(
        obj_attributes=attrs,
        access=requested & (nfs_const.ACCESS3_READ | nfs_const.ACCESS3_LOOKUP
                            | nfs_const.ACCESS3_EXECUTE),
    )


def _listing_reply(listing: list[tuple[int, str]], cookie: int,
                   dir_attrs: Record | None):
    """READDIR of a whole (fileid, name) *listing*, resuming after
    *cookie*: an entry's cookie is its position, from 1."""
    return nfs_const.NFS3_OK, Record(
        dir_attributes=dir_attrs, cookieverf=b"\x00" * 8,
        entries=[nfs_types.DirEntry.make(fileid=fileid, name=name,
                                         cookie=position)
                 for position, (fileid, name) in enumerate(listing, 1)
                 if position > cookie],
        eof=True,
    )


# ---------------------------------------------------------------------------
# Subordinate read-only client daemon
# ---------------------------------------------------------------------------


def readonly_fetchers(session: ServerSession):
    """GETROOT and GETDATA on a read-only *session*'s peer:
    ``(fetch_root, fetch_data)``, task generators (``yield from``).
    The root carries the key the session's ServInfo announced, which
    :class:`ReadOnlyClient` checks against the pathname."""
    peer = session.peer

    def fetch_root():
        res = yield from peer.call_task(
            proto.SFS_RO_PROGRAM, proto.SFS_VERSION, proto.PROC_GETROOT,
            VOID, None, proto.GetRootRes,
        )
        res.public_key = session.servinfo.public_key
        return res

    def fetch_data(digest: bytes):
        disc, body = yield from peer.call_task(
            proto.SFS_RO_PROGRAM, proto.SFS_VERSION, proto.PROC_GETDATA,
            proto.GetDataArgs, proto.GetDataArgs.make(digest=digest),
            proto.GetDataRes,
        )
        return body if disc == proto.GETDATA_OK else None

    return fetch_root, fetch_data


class ReadOnlyMount:
    """Serves a verified read-only file system to the kernel as NFS.

    Handles are the 20-byte content digests themselves — self-verifying
    names all the way down.

    The transport is a verified GETROOT reply and a GETDATA fetcher: a
    single session's (:func:`readonly_fetchers`, the classic one-server
    mount) or a :class:`~repro.fleet.replicas.ReplicaSet`'s
    latency-ranked, tamper-demoting one (the fleet's untrusted mirror
    tier).  Verification lives in :class:`ReadOnlyClient` either way —
    where the bytes came from never changes what is accepted.  The
    handlers are generators: they yield while a fetch is out.
    """

    def __init__(self, daemon: "SfsClientDaemon", path: SelfCertifyingPath,
                 root_res: Record, fetch_data, fsid: int) -> None:
        self.daemon = daemon
        self.fsid = fsid
        self.client = ReadOnlyClient(path, root_res, fetch_data,
                                     metrics=daemon.metrics)
        self.program = self._build_program()

    def root_handle(self) -> bytes:
        return self.client.root_digest

    def _build_program(self) -> Program:
        return nfs3_program("sfs-ro-mount", {
            nfs_const.NFSPROC3_GETATTR: self._getattr,
            nfs_const.NFSPROC3_LOOKUP: self._lookup,
            nfs_const.NFSPROC3_ACCESS: self._access,
            nfs_const.NFSPROC3_READLINK: self._readlink,
            nfs_const.NFSPROC3_READ: self._read,
            nfs_const.NFSPROC3_READDIR: self._readdir,
            nfs_const.NFSPROC3_FSINFO: self._fsinfo,
            **dict.fromkeys((
                nfs_const.NFSPROC3_SETATTR, nfs_const.NFSPROC3_WRITE,
                nfs_const.NFSPROC3_CREATE, nfs_const.NFSPROC3_MKDIR,
                nfs_const.NFSPROC3_SYMLINK, nfs_const.NFSPROC3_REMOVE,
                nfs_const.NFSPROC3_RMDIR, nfs_const.NFSPROC3_RENAME,
                nfs_const.NFSPROC3_LINK), refuse(nfs_const.NFS3ERR_ROFS)),
        })

    def _node(self, digest: bytes):
        try:
            return (yield from self.client.node(digest))
        except ReadOnlyError:
            return None

    def _fattr(self, digest: bytes):
        """The attributes of *digest*'s node, or None (``yield from``)."""
        node = yield from self._node(digest)
        if node is None:
            return None
        kind, body = node
        fileid = int.from_bytes(digest[:8], "big") >> 1
        if kind == RO_REG:
            ftype, mode, size = nfs_const.NF3REG, body.mode & 0o555, body.size
        elif kind == RO_DIR:
            ftype, mode, size = nfs_const.NF3DIR, body.mode & 0o555, 512
        else:
            ftype, mode, size = nfs_const.NF3LNK, 0o777, len(body.target)
        return _synthetic_fattr(ftype, mode, 1, 0, size, self.fsid, fileid)

    def _getattr(self, args: Record, ctx: CallContext):
        attrs = yield from self._fattr(args.object)
        if attrs is None:
            return nfs_const.NFS3ERR_STALE, None
        return nfs_const.NFS3_OK, Record(obj_attributes=attrs)

    def _lookup(self, args: Record, ctx: CallContext):
        try:
            child = yield from self.client.lookup(args.what.dir,
                                                  args.what.name)
        except ReadOnlyError:
            return nfs_const.NFS3ERR_NOENT, Record(
                dir_attributes=(yield from self._fattr(args.what.dir))
            )
        return nfs_const.NFS3_OK, Record(
            object=child,
            obj_attributes=(yield from self._fattr(child)),
            dir_attributes=(yield from self._fattr(args.what.dir)),
        )

    def _access(self, args: Record, ctx: CallContext):
        return _read_only_access(
            (yield from self._fattr(args.object)), args.access)

    def _readlink(self, args: Record, ctx: CallContext):
        try:
            target = yield from self.client.readlink(args.symlink)
        except ReadOnlyError:
            return nfs_const.NFS3ERR_INVAL, Record(symlink_attributes=None)
        return nfs_const.NFS3_OK, Record(
            symlink_attributes=(yield from self._fattr(args.symlink)),
            data=target,
        )

    def _read(self, args: Record, ctx: CallContext):
        try:
            data = yield from self.client.read_file(args.file, args.offset,
                                                    args.count)
            kind, body = yield from self.client.node(args.file)
        except ReadOnlyError:
            return nfs_const.NFS3ERR_IO, Record(file_attributes=None)
        eof = args.offset + len(data) >= body.size
        return nfs_const.NFS3_OK, Record(
            file_attributes=(yield from self._fattr(args.file)),
            count=len(data), eof=eof, data=data,
        )

    def _readdir(self, args: Record, ctx: CallContext):
        try:
            listing = yield from self.client.listdir(args.dir)
        except ReadOnlyError:
            return nfs_const.NFS3ERR_NOTDIR, Record(dir_attributes=None)
        return _listing_reply(
            [(int.from_bytes(digest[:8], "big") >> 1, name)
             for name, digest in listing],
            args.cookie, (yield from self._fattr(args.dir)))

    def _fsinfo(self, args: Record, ctx: CallContext):
        return nfs_const.NFS3_OK, Record(
            obj_attributes=(yield from self._fattr(args.fsroot)),
            rtmax=65536, rtpref=8192, rtmult=512,
            wtmax=0, wtpref=0, wtmult=512, dtpref=8192,
            maxfilesize=1 << 62,
            time_delta=nfs_types.NfsTime.make(seconds=1, nseconds=0),
            properties=nfs_const.FSF3_SYMLINK | nfs_const.FSF3_HOMOGENEOUS,
        )


# ---------------------------------------------------------------------------
# The client master
# ---------------------------------------------------------------------------


@dataclass
class _SymlinkNode:
    """A synthetic symlink in /sfs (per-agent or global)."""

    name: str
    target: str
    uid: int | None  # None = visible to everyone (revocations)


class SfsClientDaemon:
    """sfscd: the /sfs automounter and agent switchboard."""

    ROOT_HANDLE = b"SFSCD-ROOT-HANDLE"

    def __init__(self, clock: Clock, rng: random.Random, connector: Connector,
                 mounter, encrypt: bool = True, caching: bool = True,
                 metrics=None, backoff: BackoffPolicy | None = None,
                 pipeline_depth: int = 1) -> None:
        self.clock = clock
        self.rng = rng
        self.connector = connector
        self.mounter = mounter
        self.encrypt = encrypt
        self.caching = caching
        #: Pipeline window depth for the daemon's mounts: sequential
        #: readahead keeps READVs of up to this many chunks in flight
        #: ahead of the reader, and write-gathering sends up to this many
        #: coalesced UNSTABLE writes per WRITEV flush, behind the write
        #: (at most ``depth - 2`` background calls, so none below depth
        #: 3; PROTOCOLS.md §17).
        self.pipeline_depth = pipeline_depth
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: One policy drives both the mount-time handshake redial and
        #: every session's crash-recovery reconnect loop; inject a
        #: jitter-free policy for deterministic tests.
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._m_mount_backoff = self.metrics.counter("client.backoff_sleeps")
        self._m_retargeted = self.metrics.counter("client.mounts_retargeted")
        self._m_certs = self.metrics.counter("client.certificates_accepted")
        self.agents: dict[int, Agent] = {}
        self.ephemeral_keys = EphemeralKeyCache(rng)
        #: hostid -> dial locations for a read-only path served by an
        #: untrusted replica tier (see register_replicas).
        self._replicas: dict[bytes, tuple[str, ...]] = {}
        #: hostid -> the live ReplicaSet once mounted (introspection).
        self.replica_sets: dict[bytes, Any] = {}
        self._mounts: dict[bytes, MountedRemoteFs | ReadOnlyMount] = {}
        self._mount_roots: dict[bytes, bytes] = {}  # hostid -> root handle
        self._references: dict[int, set[str]] = {}  # uid -> mount names seen
        self._symlinks: dict[tuple[int | None, str], _SymlinkNode] = {}
        #: (uid, hostid) -> the verdict of the revocation check running.
        self._revchecks: dict[tuple[int, bytes], Future] = {}
        self._next_fsid = 0x5F50000
        self.program = self._build_root_program()
        self._time = 0

    # -- agents --

    def attach_agent(self, uid: int, agent: Agent) -> None:
        """Register *agent* to handle requests from local user *uid*."""
        self.agents[uid] = agent
        self._references.setdefault(uid, set())

    def detach_agent(self, uid: int) -> None:
        self.agents.pop(uid, None)
        for mount in self._mounts.values():
            if isinstance(mount, MountedRemoteFs):
                mount.logout_uid(uid)

    # -- the untrusted replica tier --

    def register_replicas(self, path: SelfCertifyingPath,
                          locations: "tuple[str, ...] | list[str]") -> None:
        """Serve future mounts of *path* from a set of untrusted mirrors.

        *locations* are dial names (the publisher's own server and any
        number of mirrors); the mount fetches through a latency-ranked
        :class:`~repro.fleet.replicas.ReplicaSet` that demotes dead
        mirrors and bans tampering ones.  Security is unchanged — the
        signed root is still verified against *path*'s HostID and every
        blob against its digest — so none of the mirrors needs to be
        trusted.  Registering again replaces the location list for the
        next mount.
        """
        if not locations:
            raise ValueError("a replica registration needs at least one "
                             "location")
        self._replicas[path.hostid] = tuple(locations)

    def _mount_replicated(self, path: SelfCertifyingPath, uid: int):
        """Build a read-only mount whose transport is the replica set
        (``yield from``; returns the :class:`ReadOnlyMount`)."""
        from ..fleet.replicas import Replica, ReplicaSet, dial_readonly

        def dialer_for(location: str):
            def dial():
                return dial_readonly(self.connector, location, path,
                                     self.ephemeral_keys, self.rng)
            return dial

        replica_set = ReplicaSet(
            [Replica(location, dialer_for(location), self.clock)
             for location in self._replicas[path.hostid]],
            self.clock, self.rng, backoff=self.backoff,
            metrics=self.metrics,
        )
        fsid = self._next_fsid
        self._next_fsid += 1
        try:
            mount = ReadOnlyMount(self, path,
                                  (yield from replica_set.fetch_root()),
                                  replica_set.fetch_data, fsid)
        except ReadOnlyError as exc:
            raise MountError(
                f"read-only verification failed across replicas: {exc}"
            ) from None
        self.replica_sets[path.hostid] = replica_set
        self._mounts[path.hostid] = mount
        self._mount_roots[path.hostid] = mount.root_handle()
        self._references.setdefault(uid, set()).add(path.mount_name)
        self.mounter.mount(f"/sfs/{path.mount_name}", mount.program,
                           mount.root_handle(),
                           self._mountpoint_handle(path.mount_name))
        return mount

    # -- mounting --

    def mount_path(self, path: SelfCertifyingPath, uid: int,
                   agent_read: bool = False):
        """Connect to and mount a self-certifying pathname for *uid*
        (``yield from``: the automounter's LOOKUP handler waits on the
        handshake and the back-off between dials by yielding).

        Honors agent revocation checks and server-supplied revocation
        certificates / forwarding pointers.  Returns the mount object.
        *agent_read*: the LOOKUP is the agent's own (:data:`AGENT_GID`).
        """
        agent = self.agents.get(uid)
        if agent is not None:
            disc, cert = yield from self._check_revoked(agent, path, uid,
                                                        agent_read)
            if disc == proto.REVCHECK_BLOCKED:
                raise MountError(f"HostID blocked by agent: {path.mount_name}")
            if disc == proto.REVCHECK_REVOKED:
                self._install_revoked_link(path.mount_name)
                raise MountError(f"pathname revoked: {path.mount_name}")
        existing = self._mounts.get(path.hostid)
        if existing is not None:
            self._references.setdefault(uid, set()).add(path.mount_name)
            return existing
        if path.hostid in self._replicas:
            # A registered replica tier replaces the single-server dial:
            # the ReplicaSet picks (and re-picks) which mirror actually
            # answers, with its own failover and demotion policy.
            return (yield from self._mount_replicated(path, uid))
        # A hostile network can drop handshake records; in-call
        # retransmission covers most of that, but a reply lost *after*
        # the server armed its secure channel strands the plaintext
        # handshake permanently — so supervision here means redialing
        # from scratch, and a server that is down or mid-restart earns
        # the same exponential backoff as a crashed session.  Security
        # checks (SecurityError) never retry.
        outcome = None
        last_error: Exception | None = None
        for delay in self.backoff.delays(self.rng):
            if delay:
                self._m_mount_backoff.inc()
                yield Sleep(delay)
            try:
                link = self.connector(path.location, proto.SERVICE_FILESERVER)
            except (ConnectionError, OSError) as exc:
                last_error = exc
                continue
            try:
                peer, pipe = ServerSession._transport(link, path)
                outcome = yield from ServerSession.connect_task(
                    peer, pipe, path, self.ephemeral_keys, self.rng,
                    encrypt=self.encrypt,
                )
                break
            except RpcTimeout as exc:
                last_error = exc
                # Tear the half-open link down before redialing; the
                # server prunes its side of an abandoned connection as
                # soon as it notices the link is closed.
                close = getattr(link, "close", None)
                if close is not None:
                    close()
        if outcome is None:
            raise MountError(
                f"cannot establish a session with {path.location}: "
                f"{last_error}"
            ) from None
        if isinstance(outcome, Record) and hasattr(outcome, "signature"):
            self._handle_certificate(path, outcome)
            raise MountError(f"server redirected or revoked {path.mount_name}")
        session = outcome
        fsid = self._next_fsid
        self._next_fsid += 1
        if session.servinfo.dialect == proto.DIALECT_RO:
            fetch_root, fetch_data = readonly_fetchers(session)
            try:
                mount: MountedRemoteFs | ReadOnlyMount = ReadOnlyMount(
                    self, path, (yield from fetch_root()), fetch_data, fsid)
            except ReadOnlyError as exc:
                # Bad signature / wrong key: the mount simply does not
                # exist from this client's point of view.
                raise MountError(f"read-only verification failed: {exc}") \
                    from None
            root_handle = mount.root_handle()
        else:
            mount = MountedRemoteFs(self, session, fsid)
            session.enable_reconnect(self.connector, self.backoff)
            session.on_retarget = (
                lambda old, new, _mount=mount:
                self._retarget_mount(_mount, old, new)
            )
            root_handle = yield from self._fetch_remote_root_task(session)
        self._mounts[path.hostid] = mount
        self._mount_roots[path.hostid] = root_handle
        self._references.setdefault(uid, set()).add(path.mount_name)
        self.mounter.mount(f"/sfs/{path.mount_name}", mount.program,
                           root_handle, self._mountpoint_handle(path.mount_name))
        return mount

    def _check_revoked(self, agent: Agent, path: SelfCertifyingPath,
                       uid: int, agent_read: bool):
        """*agent*'s verdict on *path* (``yield from``).  One check per
        (uid, HostID) runs at a time and a LOOKUP meanwhile waits for its
        verdict, but the agent's own reads go through: they may need that
        very server (its revocation directory is there)."""
        key = (uid, path.hostid)
        while (running := self._revchecks.get(key)) is not None:
            if agent_read:
                return proto.REVCHECK_CLEAR, None
            verdict = yield running
            if verdict is not None:
                return verdict
        running = self._revchecks[key] = Future(f"revcheck:{uid}")
        verdict = None
        try:
            verdict = yield from agent.check_revoked(path.location,
                                                     path.hostid)
        finally:
            del self._revchecks[key]
            running.resolve(verdict)  # None: it failed; waiters ask again
        return verdict

    def _fetch_remote_root_task(self, session: ServerSession):
        """Obtain the remote root's (encrypted) handle.

        The RW dialect's mount convention: a LOOKUP of "." on an all-zero
        directory handle names the export's root.
        """
        zero = bytes(24)
        status, body = yield from session.call_nfs_task(
            nfs_const.NFSPROC3_LOOKUP,
            nfs_types.LookupArgs.make(
                what=nfs_types.DirOpArgs.make(dir=zero, name=".")
            ),
            authno=0,
        )
        if status != nfs_const.NFS3_OK:
            raise MountError("could not obtain remote root handle")
        return body.object

    def _handle_certificate(self, path: SelfCertifyingPath,
                            cert: Record) -> None:
        """Act on a server-supplied revocation / forwarding pointer."""
        try:
            verified = verify_certificate(cert)
        except CertificateError:
            return  # forged certificate: ignore entirely
        if verified.hostid != path.hostid:
            return
        if verified.is_revocation:
            self._install_revoked_link(path.mount_name)
        else:
            # Forwarding pointer; a revocation already present overrules.
            key = (None, path.mount_name)
            node = self._symlinks.get(key)
            if node is not None and node.target == REVOKED_LINK_TARGET:
                return
            self._symlinks[key] = _SymlinkNode(
                path.mount_name, verified.redirect, None
            )

    def _install_revoked_link(self, mount_name: str) -> None:
        """Revoked paths become symlinks to the nonexistent :REVOKED:."""
        self._symlinks[(None, mount_name)] = _SymlinkNode(
            mount_name, REVOKED_LINK_TARGET, None
        )
        parsed = parse_mount_name(mount_name)
        if parsed is not None and parsed.hostid in self._mounts:
            del self._mounts[parsed.hostid]
            self._mount_roots.pop(parsed.hostid, None)
            self.mounter.unmount(f"/sfs/{mount_name}")

    def submit_certificate(self, cert: Record) -> bool:
        """Deliver a revocation / forwarding certificate out of band.

        This is the propagation entry for revocation storms: anything —
        a certification authority sweep, a peer daemon, an
        administrator — can hand sfscd a SignedCertificate, and because
        the certificate is self-authenticating the daemon needs no
        trust in the bearer.  Returns True if it verified and was acted
        on (installed a revoked link or forwarding symlink, evicting
        any cached mount), False if it failed verification.
        """
        try:
            verified = verify_certificate(cert)
        except CertificateError:
            return False
        path = SelfCertifyingPath(verified.location, verified.hostid)
        self._handle_certificate(path, cert)
        self._m_certs.inc()
        return True

    def _retarget_mount(self, mount: "MountedRemoteFs",
                        old: SelfCertifyingPath,
                        new: SelfCertifyingPath):
        """Re-home a mount whose session followed a forwarding pointer
        (the session's ``on_retarget`` generator).

        The server rolled its key: same export, new HostID.  Ordering
        matters — the stale HostID is evicted *first*, so nothing can
        resolve the old name onto the re-keyed server while we rebuild,
        and only then is the new name installed.  The old name lives on
        as a forwarding symlink (unless a revocation already overrules
        it), exactly what the server itself would serve a fresh dial.
        """
        if self._mounts.get(old.hostid) is mount:
            del self._mounts[old.hostid]
        self._mount_roots.pop(old.hostid, None)
        self.mounter.unmount(f"/sfs/{old.mount_name}")
        key = (None, old.mount_name)
        node = self._symlinks.get(key)
        if node is None or node.target != REVOKED_LINK_TARGET:
            self._symlinks[key] = _SymlinkNode(
                old.mount_name, f"/sfs/{new.mount_name}", None
            )
        # A new key means a new handle map: the cached root handle is
        # undecipherable to the reborn server and must be re-fetched
        # before the new name is allowed to resolve.
        root_handle = yield from self._fetch_remote_root_task(mount.session)
        self._mounts[new.hostid] = mount
        self._mount_roots[new.hostid] = root_handle
        for names in self._references.values():
            if old.mount_name in names:
                names.add(new.mount_name)
        self.mounter.mount(f"/sfs/{new.mount_name}", mount.program,
                           root_handle, self._mountpoint_handle(new.mount_name))
        self._m_retargeted.inc()

    # -- the /sfs synthetic file system --

    def _build_root_program(self) -> Program:
        return nfs3_program("sfscd-root", {
            nfs_const.NFSPROC3_GETATTR: self._getattr,
            nfs_const.NFSPROC3_LOOKUP: self._lookup,
            nfs_const.NFSPROC3_ACCESS: self._access,
            nfs_const.NFSPROC3_READLINK: self._readlink,
            nfs_const.NFSPROC3_READDIR: self._readdir,
            nfs_const.NFSPROC3_FSINFO: self._fsinfo,
        })

    def root_handle(self) -> bytes:
        return self.ROOT_HANDLE

    def _symlink_handle(self, uid: int | None, name: str) -> bytes:
        tag = f"{uid if uid is not None else '*'}:{name}".encode()
        return b"SL" + sha1(b"sfscd-symlink" + tag)[:18]

    def _find_symlink(self, handle: bytes) -> _SymlinkNode | None:
        for (uid, name), node in self._symlinks.items():
            if self._symlink_handle(uid, name) == handle:
                return node
        return None

    def _mountpoint_handle(self, mount_name: str) -> bytes:
        return b"MP" + sha1(b"sfscd-mountpoint" + mount_name.encode())[:18]

    def _dir_attrs(self, handle: bytes, fileid: int) -> Record:
        return _synthetic_fattr(nfs_const.NF3DIR, 0o755, 2, 0, 512, 0x5F5,
                                fileid)

    def _symlink_attrs(self, node: _SymlinkNode, handle: bytes) -> Record:
        return _synthetic_fattr(
            nfs_const.NF3LNK, 0o777, 1,
            node.uid if node.uid is not None else 0, len(node.target),
            0x5F5, int.from_bytes(handle[2:10], "big") >> 1)

    def _link_found(self, uid: int | None, name: str, node: _SymlinkNode,
                    dir_attrs: Record):
        """LOOKUP's reply naming the symlink *node* (*uid*'s, or None:
        everyone's)."""
        handle = self._symlink_handle(uid, name)
        return nfs_const.NFS3_OK, Record(
            object=handle,
            obj_attributes=self._symlink_attrs(node, handle),
            dir_attributes=dir_attrs,
        )

    def _getattr(self, args: Record, ctx: CallContext):
        if args.object == self.ROOT_HANDLE:
            return nfs_const.NFS3_OK, Record(
                obj_attributes=self._dir_attrs(args.object, 1)
            )
        node = self._find_symlink(args.object)
        if node is not None:
            return nfs_const.NFS3_OK, Record(
                obj_attributes=self._symlink_attrs(node, args.object)
            )
        # A mountpoint directory the kernel hasn't crossed yet.
        return nfs_const.NFS3_OK, Record(
            obj_attributes=self._dir_attrs(
                args.object, int.from_bytes(args.object[2:10], "big") >> 1
            )
        )

    def _lookup(self, args: Record, ctx: CallContext):
        if args.what.dir != self.ROOT_HANDLE:
            return nfs_const.NFS3ERR_NOTDIR, Record(dir_attributes=None)
        cred = _authsys(ctx.cred)
        uid = cred.uid
        name = args.what.name
        dir_attrs = self._dir_attrs(self.ROOT_HANDLE, 1)
        # Global links (revocations, forwarding pointers) come first:
        # "A revocation certificate always overrules..."
        for key_uid in (None, uid):
            node = self._symlinks.get((key_uid, name))
            if node is not None:
                return self._link_found(key_uid, name, node, dir_attrs)
        parsed = parse_mount_name(name)
        if parsed is not None:
            try:
                yield from self.mount_path(parsed, uid, AGENT_GID in cred.gids)
            except MountError:
                # Mount failures may have installed a revoked link.
                node = self._symlinks.get((None, name))
                if node is not None:
                    return self._link_found(None, name, node, dir_attrs)
                return nfs_const.NFS3ERR_NOENT, Record(dir_attributes=dir_attrs)
            handle = self._mountpoint_handle(name)
            return nfs_const.NFS3_OK, Record(
                object=handle,
                obj_attributes=self._dir_attrs(
                    handle, int.from_bytes(handle[2:10], "big") >> 1
                ),
                dir_attributes=dir_attrs,
            )
        # Not self-certifying: notify the agent; it may produce a link.
        agent = self.agents.get(uid)
        if agent is not None:
            target = yield from agent.resolve(name)
            if target is not None:
                node = _SymlinkNode(name, target, uid)
                self._symlinks[(uid, name)] = node
                return self._link_found(uid, name, node, dir_attrs)
        return nfs_const.NFS3ERR_NOENT, Record(dir_attributes=dir_attrs)

    def _access(self, args: Record, ctx: CallContext):
        return _read_only_access(None, args.access)

    def _readlink(self, args: Record, ctx: CallContext):
        node = self._find_symlink(args.symlink)
        if node is None:
            return nfs_const.NFS3ERR_INVAL, Record(symlink_attributes=None)
        return nfs_const.NFS3_OK, Record(
            symlink_attributes=self._symlink_attrs(node, args.symlink),
            data=node.target,
        )

    def _readdir(self, args: Record, ctx: CallContext):
        """Per-agent /sfs listing: only names this user has referenced.

        "In directory listings of /sfs, the client hides pathnames that
        have never been accessed under a particular agent.  Thus, a naive
        user who searches for HostIDs with command-line filename
        completion cannot be tricked by another user into accessing the
        wrong HostID."
        """
        if args.dir != self.ROOT_HANDLE:
            return nfs_const.NFS3ERR_NOTDIR, Record(dir_attributes=None)
        uid = _authsys(ctx.cred).uid
        names = [".", ".."]
        names.extend(sorted(self._references.get(uid, ())))
        names.extend(sorted(
            name for (link_uid, name) in self._symlinks
            if link_uid in (uid, None)
        ))
        return _listing_reply(list(enumerate(names, 1)), args.cookie,
                              self._dir_attrs(self.ROOT_HANDLE, 1))

    def _fsinfo(self, args: Record, ctx: CallContext):
        return nfs_const.NFS3_OK, Record(
            obj_attributes=self._dir_attrs(args.fsroot, 1),
            rtmax=65536, rtpref=8192, rtmult=512,
            wtmax=65536, wtpref=8192, wtmult=512, dtpref=8192,
            maxfilesize=1 << 62,
            time_delta=nfs_types.NfsTime.make(seconds=1, nseconds=0),
            properties=nfs_const.FSF3_SYMLINK,
        )
