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
from ..obs.registry import NULL_REGISTRY
from ..rpc.peer import (
    CallContext,
    Program,
    RetryPolicy,
    RpcBusy,
    RpcError,
    RpcPeer,
    RpcTimeout,
    RpcTransportDown,
)
from ..rpc.rpcmsg import AUTH_SYS, AuthSys, OpaqueAuth, RpcMsgError
from ..rpc.xdr import Record, VOID
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
from .server import SwitchablePipe, make_sfs_cred, nfs_failure_shape

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
        self._reconnecting = False
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

        Installed as the peer's ``recovery_hook``; the guard keeps the
        REKEY call's own retries from recursing into another resync.
        """
        if (self.session_keys is None or self.channel is None
                or self.ephemeral_keys is None or self._resyncing):
            return False
        self._resyncing = True
        self._m_resyncs.inc()
        # While the pipe is down to plaintext an unauthenticated record
        # can resolve any pending xid (ROADMAP item 1).  A prefetch
        # answered that way would put forged bytes in the readahead
        # buffer, so none crosses the window (PROTOCOLS.md §10): each is
        # failed here, its xid forgotten and its window slot released.
        self.peer.abandon_speculative()
        try:
            for _ in range(_RESYNC_ROUNDS):
                if (yield from self._resync_round()):
                    self.rekeys += 1
                    self._m_rekeys.inc()
                    if self.on_rekey is not None:
                        try:
                            self.on_rekey()
                        except Exception:  # noqa: BLE001 - advisory
                            pass
                    return True
            self.resyncs_failed += 1
            self._m_resyncs_failed.inc()
            return False
        finally:
            self._resyncing = False
            self._resync_ack = None
            if self.pipe.lower is self.pipe.raw:
                # A failed resync must never leave the session speaking
                # plaintext: reinstall the (possibly still broken)
                # channel so retransmitted data records stay encrypted
                # and an unrecovered desync surfaces as a timeout — the
                # delay an attacker could always cause — rather than as
                # a silent downgrade.
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
        clock = self.peer.backoff_clock
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
            )
            if disc != proto.REKEY_OK:
                return False  # the server denied re-keying
            new_keys = finish(body.encrypted_keyhalves)
        except (RpcError, KeyNegotiationError, ConnectionError):
            return False  # lost, denied or garbled; next round retries
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

    def reconnect(self) -> bool:
        """Synchronous :meth:`reconnect_task`."""
        return self.peer.drive(self.reconnect_task())

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
                or self.session_keys is None or self.ephemeral_keys is None
                or self._reconnecting):
            return False
        old_path = self.path
        self._reconnecting = True
        try:
            fresh = yield from self._redial()
        finally:
            self._reconnecting = False
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
                except Exception:  # noqa: BLE001 - advisory
                    pass
        if self.on_reconnect is not None:
            try:
                self.on_reconnect()
            except Exception:  # noqa: BLE001 - advisory
                pass
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
                return self._login_call(
                    *self._sign_login(agent, info, key_index))
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

    def _sign_login(self, agent: Agent, info: bytes,
                    key_index: int) -> tuple[int, bytes]:
        self.auth_seqno += 1
        return self.auth_seqno, agent.sign_request(
            info, self.auth_seqno, key_index
        )

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
        """Relay one NFS procedure over the session (``yield from``).

        A *speculative* relay (a prefetch) is one attempt and nothing
        more: see :meth:`RpcPeer.call_task`; SERVER_BUSY ends it too.
        """
        arg_codec, res_codec = proto.NFS_PROC_CODECS[proc]

        def attempt():
            return self.peer.call_task(
                proto.SFS_RW_PROGRAM, proto.SFS_VERSION, proc,
                arg_codec, args, res_codec, cred=make_sfs_cred(authno),
                speculative=speculative,
            )
        if speculative:
            return (yield from attempt())
        return (yield from self._retry_busy(attempt))


# ---------------------------------------------------------------------------
# Subordinate read-write client daemon
# ---------------------------------------------------------------------------


def _rewrite_fsids(value: Any, fsid: int) -> None:
    """Rewrite every fattr3's fsid in a result tree to the local device.

    "by assigning each file system its own device number, this scheme
    prevents a malicious server from tricking the pwd command into
    printing an incorrect path."
    """
    if isinstance(value, Record):
        fields = vars(value)
        if "fsid" in fields and "fileid" in fields:
            value.fsid = fsid
        for item in fields.values():
            _rewrite_fsids(item, fsid)
    elif isinstance(value, list):
        for item in value:
            _rewrite_fsids(item, fsid)
    elif isinstance(value, tuple):
        for item in value[1:] if value and isinstance(value[0], int) else value:
            _rewrite_fsids(item, fsid)


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
#: least recently read, so files read once and unlinked do not pile up.
_RA_STREAMS = 4


class _ReadStream:
    """Readahead state of one file handle (PROTOCOLS.md §17): the
    sequential detector, the chunks buffered and those on the wire.

    Never reset, only replaced: a READV reply belongs to the stream it
    was requested for, and is dropped if that is no longer the one
    :class:`MountedRemoteFs` holds for the handle.
    """

    __slots__ = ("next", "streak", "count", "window", "front", "limit",
                 "attrs", "chunks", "pending")

    def __init__(self) -> None:
        #: Offset a sequential reader asks for next; reads in a row.
        self.next: int | None = None
        self.streak = 0
        #: offset -> (data, eof, expiry time), in arrival order.
        self.chunks: dict[int, tuple[bytes, bool, float]] = {}
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
        # Readahead state (active when daemon.pipeline_depth > 1), for
        # the _RA_STREAMS most recently read handles, oldest first; and
        # how many READV prefetches are on the wire for all of them.
        self._ra_streams: OrderedDict[bytes, _ReadStream] = OrderedDict()
        self._ra_in_flight = 0
        # Write-gathering state: handle -> [[offset, bytearray], ...]
        # coalesced dirty ranges not yet sent to the server.
        self._gather_segs: dict[bytes, list[list]] = {}
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
        session.on_rekey = self._after_rekey
        session.on_reconnect = self._after_reconnect

    def _on_invalidate(self, handle: bytes) -> None:
        """Lease invalidation: drop cached state *and* readahead data —
        another client wrote the file, so prefetched chunks are stale.
        Gathered (unsent) local writes survive: they are this client's
        own pending data, flushed at the next barrier."""
        self.caches.invalidate(handle)
        self._ra_discard(handle)

    def _after_rekey(self) -> None:
        """A rekey means records were lost — possibly including lease
        invalidation callbacks — so cached leases can't be trusted.
        Authnos survive: the rekey proved session continuity."""
        self.caches.attrs.clear()
        self.caches.access.clear()
        self.caches.lookups.clear()
        self._ra_discard_all()

    def _after_reconnect(self) -> None:
        """The server restarted: every piece of its volatile state is
        gone.  Leases were never granted to this (new) connection, so
        the lease caches are garbage; authnos index a login table that
        no longer exists, so each uid lazily re-authenticates through
        its agent on next use.  File handles, by contrast, survive —
        the handle key derives from the server's durable private key."""
        self._authnos.clear()
        self.caches.attrs.clear()
        self.caches.access.clear()
        self.caches.lookups.clear()
        self._ra_discard_all()

    # -- authentication --

    def _authno_for(self, ctx: CallContext) -> int:
        uid = _uid_from_authsys(ctx.cred)
        if uid in self._authnos:
            return self._authnos[uid]
        agent = self.daemon.agents.get(uid)
        authno = self.session.login(agent) if agent is not None else 0
        self._authnos[uid] = authno
        return authno

    def logout_uid(self, uid: int) -> None:
        self._authnos.pop(uid, None)

    # -- program --

    def _build_program(self) -> Program:
        program = Program("sfs-mount", nfs_const.NFS3_PROGRAM,
                          nfs_const.NFS3_VERSION)
        for proc, (arg_codec, res_codec) in proto.NFS_PROC_CODECS.items():
            if proc == nfs_const.NFSPROC3_NULL:
                continue
            program.add_proc(proc, nfs_const.PROC_NAMES[proc],
                             arg_codec, res_codec, self._make_handler(proc))
        program._sfs_mount = self  # back-pointer for tools (sfsls/libsfs)
        return program

    def _make_handler(self, proc: int):
        def handler(args: Record, ctx: CallContext):
            return self._handle(proc, args, ctx)
        return handler

    def _handle(self, proc: int, args: Record, ctx: CallContext):
        if self.daemon.pipeline_depth > 1:
            reply = self._pipeline_intercept(proc, args, ctx,
                                             self.daemon.pipeline_depth)
            if reply is not None:
                return reply
        cached = self._try_cache(proc, args, ctx)
        if cached is not None:
            return cached
        return self._relay(proc, args, ctx)

    def _relay(self, proc: int, args: Record, ctx: CallContext):
        try:
            authno = self._authno_for(ctx)
            status, body = self.session.call_nfs(proc, args, authno)
        except RpcTransportDown:
            # Transport dead (server crash) — fail over, then replay.
            # Plain RpcTimeout is *not* failover material: a live but
            # desynchronized link is the resync engine's job, and
            # redialing around it would mask the failure.  The restarted
            # server's duplicate-request cache is empty, so this one
            # replay is at-least-once, not at-most-once: if the crash
            # fell between execution and the reply, a non-idempotent
            # call runs twice (PROTOCOLS.md §11).
            if not self.session.reconnect():
                raise
            self.replayed_calls += 1
            self._m_replayed.inc()
            authno = self._authno_for(ctx)
            status, body = self.session.call_nfs(proc, args, authno)
        self.rpcs_relayed += 1
        self._m_relayed.inc()
        if status in (nfs_const.NFS3ERR_STALE, nfs_const.NFS3ERR_BADHANDLE):
            # A handle the kernel cached stopped resolving (the file
            # went away, or its generation moved on).  Count it and
            # drop whatever leases mention the offending handles.
            self.stale_handles += 1
            self._m_stale.inc()
            for handle in _handles_in_args(proc, args):
                self.caches.invalidate(handle)
        _rewrite_fsids(body, self.fsid)
        self._absorb(proc, args, ctx, status, body)
        return status, body

    # -- readahead and write-gathering (pipeline_depth > 1) --

    def _pipeline_intercept(self, proc: int, args: Record, ctx: CallContext,
                            depth: int):
        """Serve READ from the readahead buffer / absorb UNSTABLE WRITE
        into the gather buffer; returns a reply, or None to fall through
        to the normal cache-then-relay path."""
        if proc == nfs_const.NFSPROC3_READ:
            if args.file in self._gather_segs:
                # Read-your-writes: dirty gathered data must reach the
                # server before we read the file back.
                status = self._flush_gather(args.file, ctx)
                if status is not None:
                    return status, Record(file_attributes=None)
            return self._read_ahead(args, ctx, depth)
        if proc == nfs_const.NFSPROC3_WRITE:
            self._ra_discard(args.file)
            if args.stable == nfs_const.UNSTABLE:
                return self._gather_write(args, ctx, depth)
            status = self._flush_gather(args.file, ctx)
            if status is not None:
                return status, Record(
                    file_wcc=nfs_types.WccData.make(before=None, after=None)
                )
            return None
        if proc == nfs_const.NFSPROC3_CREATE and _create_sets_size(args):
            # O_TRUNC by name: the CREATE can shrink a file whose handle
            # it does not carry, so it is a write-behind barrier for
            # the whole mount — gathered writes land before the
            # truncation, not after it (PROTOCOLS.md §17).
            for handle in list(self._gather_segs):
                status = self._flush_gather(handle, ctx)
                if status is not None:
                    return status, nfs_failure_shape(proc)
        # Any other procedure touching a handle with gathered dirty data
        # (COMMIT, SETATTR, GETATTR, ...) is a write-behind barrier:
        # flush first so the server-side view the reply reflects
        # includes our writes.  Mutating ops also discard readahead.
        for handle in _handles_in_args(proc, args):
            if proc in _MUTATING_PROCS:
                self._ra_discard(handle)
            if handle in self._gather_segs:
                status = self._flush_gather(handle, ctx)
                if status is not None:
                    return status, nfs_failure_shape(proc)
        return None

    def _ra_count(self, event: str) -> None:
        """Count a prefetch *event* (``waits``, ``stale_replies``,
        ``abandoned``).  Registered on first use, unlike the mount's
        other counters: a mount that never reads ahead publishes the
        metric set it always did, which perfbench's ``virt_digest``
        hashes."""
        self.daemon.metrics.counter(f"client.readahead.{event}").inc()

    def _ra_discard(self, handle: bytes) -> None:
        """Forget *handle*'s readahead state.  Prefetches of it still
        on the wire find their stream gone or replaced when they land,
        and update nothing."""
        stream = self._ra_streams.pop(handle, None)
        if stream is not None and (stream.chunks or stream.pending):
            self._m_ra_discarded.inc()

    def _ra_discard_all(self) -> None:
        for handle in list(self._ra_streams):
            self._ra_discard(handle)

    def _read_ahead(self, args: Record, ctx: CallContext, depth: int):
        """Serve a READ from its handle's stream, keeping the window
        ahead of a sequential reader full; None = relay a plain READ."""
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
            if offset == stream.next:
                # The run goes on.  Top up before taking the chunk: the
                # wire stays full while this read waits for it.
                self._ra_top_up(stream, handle, offset + count, depth, ctx)
            reply = self._ra_take(stream, handle, offset, count)
            if reply is not None:
                self._m_ra_hits.inc()
                return reply
        self._m_ra_misses.inc()
        sequential = stream.next == offset
        stream.next = offset + count
        stream.streak = stream.streak + 1 if sequential else 0
        if waited or stream.streak < 1 or count <= 0:
            # Not a run yet — or the prefetch this read waited for was
            # lost: the plain READ retransmits and recovers.
            return None
        # A run of two: open the whole window at once (a ramp would cost
        # a round trip per step).  The first READV carries only the
        # chunk this read is blocked on, so that it never queues behind
        # replies it does not need.
        known = self.caches.attrs.get(handle)
        stream.open(offset, count, known.size if known is not None else None,
                    self._ra_window(depth, count))
        self._ra_request(stream, handle, 1, ctx)
        self._ra_top_up(stream, handle, offset + count, depth, ctx)
        return self._ra_take(stream, handle, offset, count)

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
                   position: int, depth: int, ctx: CallContext) -> None:
        """Issue READVs of up to *depth* chunks until the window beyond
        *position* is requested — not past a known end of file, but
        including the chunk *at* it (the empty read that tells a reader
        it is done).  At most ``depth - 2`` are in flight, so the
        foreground call and a REKEY always find a window slot."""
        count = stream.count
        while (self._ra_in_flight < max(1, depth - 2)
               and stream.front + depth * count <= position + stream.window
               and (stream.limit is None or stream.front <= stream.limit)):
            chunks = depth
            if stream.limit is not None:
                chunks = min(depth, (stream.limit - stream.front) // count + 1)
            self._ra_request(stream, handle, chunks, ctx)

    def _ra_request(self, stream: "_ReadStream", handle: bytes,
                    chunks: int, ctx: CallContext) -> None:
        """Send one speculative READV for the next *chunks* chunks."""
        count = stream.count
        offsets = [stream.front + i * count for i in range(chunks)]
        stream.front += chunks * count
        done = self.session.peer.start(self.session.call_nfs_task(
            nfs_const.NFSPROC3_READV,
            Record(file=handle, segments=[
                Record(offset=at, count=count) for at in offsets]),
            self._authno_for(ctx), speculative=True,
        ))
        self._ra_in_flight += 1
        for at in offsets:
            stream.pending[at] = done
        done.add_done_callback(
            lambda done: self._ra_arrived(stream, handle, offsets, done))

    def _ra_arrived(self, stream: "_ReadStream", handle: bytes,
                    offsets: list[int], done: Future) -> None:
        """A prefetch ended: buffer what it brought, if it still may."""
        self._ra_in_flight -= 1
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
            # a rekey, a reconnect, eviction): what this reply read may
            # predate the event, so none of it is kept.
            self._ra_count("stale_replies")
            return
        self.rpcs_relayed += 1
        self._m_relayed.inc()
        status, body = done.value
        if status != nfs_const.NFS3_OK:
            return  # the reader's plain READ will report it, READ-shaped
        _rewrite_fsids(body, self.fsid)
        if body.file_attributes is not None:
            self.caches.attrs.put(handle, body.file_attributes)
        self._m_ra_batches.inc()
        stream.attrs = body.file_attributes
        expires = self.daemon.clock.now + float(
            self.session.servinfo.lease_duration)
        for at, seg in zip(offsets, body.segments):
            if stream.limit is not None and at > stream.limit:
                break  # past the end of file: no reader asks for these
            stream.chunks[at] = (seg.data, seg.eof, expires)
            self._m_ra_chunks.inc()
            if seg.eof:
                stream.limit = at + len(seg.data)
        # A stream holds two windows at most, the one ahead of its
        # reader and one a jump left behind (a reader that comes back
        # finds it); beyond that the oldest arrivals go.
        while len(stream.chunks) * stream.count > 2 * stream.window:
            del stream.chunks[next(iter(stream.chunks))]
            self._m_ra_discarded.inc()

    def _ra_take(self, stream: "_ReadStream", handle: bytes,
                 offset: int, count: int):
        """The chunk at *offset* as a READ reply — after waiting for it,
        if it is on the wire — or None when there is none to serve."""
        pending = stream.pending.get(offset)
        if pending is not None:
            self._ra_count("waits")
            self.session.peer.wait_for(pending)
            if self._ra_streams.get(handle) is not stream:
                return None  # discarded while this read waited
        entry = stream.chunks.pop(offset, None)
        if entry is None:
            return None
        data, eof, expires = entry
        if len(data) > count or expires < self.daemon.clock.now:
            # Too long for this read, or older than a lease: what the
            # attribute cache would no longer vouch for, neither do we.
            self._m_ra_discarded.inc()
            return None
        stream.next = offset + len(data)
        return nfs_const.NFS3_OK, Record(
            file_attributes=stream.attrs,
            count=len(data), eof=eof, data=data,
        )

    def _gather_write(self, args: Record, ctx: CallContext, depth: int):
        handle = args.file
        data = args.data[: args.count]
        segs = self._gather_segs.setdefault(handle, [])
        if segs and segs[-1][0] + len(segs[-1][1]) == args.offset:
            segs[-1][1] += data
        else:
            segs.append([args.offset, bytearray(data)])
        self._m_gather_writes.inc()
        # Local attrs (size, mtime) are stale until the flush lands.
        self.caches.invalidate(handle)
        total = sum(len(chunk) for _, chunk in segs)
        if len(segs) >= depth or total >= depth * 65536:
            status = self._flush_gather(handle, ctx)
            if status is not None:
                return status, Record(
                    file_wcc=nfs_types.WccData.make(before=None, after=None)
                )
        # Synthetic immediate OK: UNSTABLE data is volatile by contract
        # until COMMIT, which is a flush barrier (PROTOCOLS.md §17).
        return nfs_const.NFS3_OK, Record(
            file_wcc=nfs_types.WccData.make(before=None, after=None),
            count=len(data), committed=nfs_const.UNSTABLE,
            verf=b"\x00" * 8,
        )

    def _flush_gather(self, handle: bytes, ctx: CallContext):
        """Send gathered dirty ranges as one WRITEV.  Returns None on
        success (or nothing to flush); a non-OK NFS status on failure —
        the caller shapes the error for whatever op hit the barrier."""
        segs = self._gather_segs.pop(handle, None)
        if not segs:
            return None
        self._m_gather_flushes.inc()
        self._m_gather_segments.inc(len(segs))
        self._m_gather_bytes.inc(sum(len(chunk) for _, chunk in segs))
        status, _body = self._relay(
            nfs_const.NFSPROC3_WRITEV,
            Record(
                file=handle, stable=nfs_const.UNSTABLE,
                segments=[Record(offset=offset, data=bytes(chunk))
                          for offset, chunk in segs],
            ),
            ctx,
        )
        return None if status == nfs_const.NFS3_OK else status

    # -- caching --

    def _try_cache(self, proc: int, args: Record, ctx: CallContext):
        if proc == nfs_const.NFSPROC3_GETATTR:
            attrs = self.caches.attrs.get(args.object)
            if attrs is not None:
                return nfs_const.NFS3_OK, Record(obj_attributes=attrs)
        elif proc == nfs_const.NFSPROC3_ACCESS:
            uid = _uid_from_authsys(ctx.cred)
            entry = self.caches.access.get(args.object, (uid, args.access))
            if entry is not None:
                attrs = self.caches.attrs.get(args.object)
                return nfs_const.NFS3_OK, Record(
                    obj_attributes=attrs, access=entry
                )
        elif proc == nfs_const.NFSPROC3_LOOKUP:
            entry = self.caches.lookups.get(args.what.dir, args.what.name)
            if entry is not None:
                handle, attrs = entry
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
                caches.lookups.put(
                    args.what.dir, (body.object, body.obj_attributes),
                    args.what.name,
                )
            if body.dir_attributes is not None:
                caches.attrs.put(args.what.dir, body.dir_attributes)
        elif proc == nfs_const.NFSPROC3_ACCESS:
            uid = _uid_from_authsys(ctx.cred)
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
            caches.invalidate(args.where.dir)
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
            if body.dir_wcc.after is not None:
                caches.attrs.put(args.where.dir, body.dir_wcc.after)
        elif proc in (nfs_const.NFSPROC3_REMOVE, nfs_const.NFSPROC3_RMDIR):
            caches.invalidate(args.object.dir)
            if body.dir_wcc.after is not None:
                caches.attrs.put(args.object.dir, body.dir_wcc.after)
        elif proc == nfs_const.NFSPROC3_RENAME:
            caches.invalidate(args.from_.dir)
            caches.invalidate(args.to.dir)
        elif proc == nfs_const.NFSPROC3_LINK:
            caches.invalidate(args.file)
            caches.invalidate(args.link.dir)
        elif proc == nfs_const.NFSPROC3_READDIRPLUS:
            for entry in body.entries:
                if entry.name_handle is not None and entry.name_attributes is not None:
                    caches.attrs.put(entry.name_handle, entry.name_attributes)

def _create_sets_size(args: Record) -> bool:
    """Does this CREATE's ``sattr3`` carry a size (UNCHECKED/GUARDED
    arms only; EXCLUSIVE carries a verifier)?"""
    how_disc, how_body = args.how
    return how_disc != nfs_const.EXCLUSIVE and how_body.size is not None


def _handles_in_args(proc: int, args: Record) -> list[bytes]:
    """Collect every file handle a request record carries."""
    found: list[bytes] = []

    def collect(handle: bytes) -> bytes:
        found.append(handle)
        return handle

    handlemap.translate_args(proc, args, collect)
    return found


def _uid_from_authsys(cred: OpaqueAuth) -> int:
    if cred.flavor != AUTH_SYS:
        return 0xFFFE
    try:
        return AuthSys.from_auth(cred).uid
    except RpcMsgError:
        return 0xFFFE


# ---------------------------------------------------------------------------
# Subordinate read-only client daemon
# ---------------------------------------------------------------------------


class ReadOnlyMount:
    """Serves a verified read-only file system to the kernel as NFS.

    Handles are the 20-byte content digests themselves — self-verifying
    names all the way down.

    The transport is a pair of fetch callbacks: a single session's RPC
    stubs (:meth:`from_session`, the classic one-server mount) or a
    :class:`~repro.fleet.replicas.ReplicaSet`'s latency-ranked,
    tamper-demoting fetchers (the fleet's untrusted mirror tier).
    Verification lives in :class:`ReadOnlyClient` either way — where
    the bytes came from never changes what is accepted.
    """

    def __init__(self, daemon: "SfsClientDaemon", path: SelfCertifyingPath,
                 fetch_root, fetch_data, fsid: int) -> None:
        self.daemon = daemon
        self.fsid = fsid
        self.client = ReadOnlyClient(path, fetch_root, fetch_data,
                                     metrics=daemon.metrics)
        self.program = self._build_program()

    @classmethod
    def from_session(cls, daemon: "SfsClientDaemon", session: ServerSession,
                     fsid: int) -> "ReadOnlyMount":
        """The one-server transport: both callbacks on *session*'s peer."""
        store_peer = session.peer

        def fetch_root() -> Record:
            res = store_peer.call(
                proto.SFS_RO_PROGRAM, proto.SFS_VERSION, proto.PROC_GETROOT,
                VOID, None, proto.GetRootRes,
            )
            res.public_key = session.servinfo.public_key
            return res

        def fetch_data(digest: bytes) -> bytes | None:
            disc, body = store_peer.call(
                proto.SFS_RO_PROGRAM, proto.SFS_VERSION, proto.PROC_GETDATA,
                proto.GetDataArgs, proto.GetDataArgs.make(digest=digest),
                proto.GetDataRes,
            )
            return body if disc == proto.GETDATA_OK else None

        return cls(daemon, session.path, fetch_root, fetch_data, fsid)

    def root_handle(self) -> bytes:
        return self.client.root_digest

    def _build_program(self) -> Program:
        program = Program("sfs-ro-mount", nfs_const.NFS3_PROGRAM,
                          nfs_const.NFS3_VERSION)
        codecs = proto.NFS_PROC_CODECS
        program.add_proc(nfs_const.NFSPROC3_GETATTR, "GETATTR",
                         *codecs[nfs_const.NFSPROC3_GETATTR], self._getattr)
        program.add_proc(nfs_const.NFSPROC3_LOOKUP, "LOOKUP",
                         *codecs[nfs_const.NFSPROC3_LOOKUP], self._lookup)
        program.add_proc(nfs_const.NFSPROC3_ACCESS, "ACCESS",
                         *codecs[nfs_const.NFSPROC3_ACCESS], self._access)
        program.add_proc(nfs_const.NFSPROC3_READLINK, "READLINK",
                         *codecs[nfs_const.NFSPROC3_READLINK], self._readlink)
        program.add_proc(nfs_const.NFSPROC3_READ, "READ",
                         *codecs[nfs_const.NFSPROC3_READ], self._read)
        program.add_proc(nfs_const.NFSPROC3_READDIR, "READDIR",
                         *codecs[nfs_const.NFSPROC3_READDIR], self._readdir)
        program.add_proc(nfs_const.NFSPROC3_FSINFO, "FSINFO",
                         *codecs[nfs_const.NFSPROC3_FSINFO], self._fsinfo)
        for proc in (nfs_const.NFSPROC3_SETATTR, nfs_const.NFSPROC3_WRITE,
                     nfs_const.NFSPROC3_CREATE, nfs_const.NFSPROC3_MKDIR,
                     nfs_const.NFSPROC3_SYMLINK, nfs_const.NFSPROC3_REMOVE,
                     nfs_const.NFSPROC3_RMDIR, nfs_const.NFSPROC3_RENAME,
                     nfs_const.NFSPROC3_LINK):
            program.add_proc(proc, nfs_const.PROC_NAMES[proc],
                             *codecs[proc], self._readonly_reject(proc))
        return program

    def _readonly_reject(self, proc: int):
        from .server import nfs_failure_shape

        def handler(args: Record, ctx: CallContext):
            return nfs_const.NFS3ERR_ROFS, nfs_failure_shape(proc)

        return handler

    def _node(self, digest: bytes):
        try:
            return self.client.node(digest)
        except ReadOnlyError:
            return None

    def _fattr(self, digest: bytes) -> Record | None:
        node = self._node(digest)
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
        zero_time = nfs_types.NfsTime.make(seconds=0, nseconds=0)
        return nfs_types.Fattr.make(
            type=ftype, mode=mode, nlink=1, uid=0, gid=0,
            size=size, used=size,
            rdev=nfs_types.SpecData.make(major=0, minor=0),
            fsid=self.fsid, fileid=fileid,
            atime=zero_time, mtime=zero_time, ctime=zero_time,
        )

    def _getattr(self, args: Record, ctx: CallContext):
        attrs = self._fattr(args.object)
        if attrs is None:
            return nfs_const.NFS3ERR_STALE, None
        return nfs_const.NFS3_OK, Record(obj_attributes=attrs)

    def _lookup(self, args: Record, ctx: CallContext):
        try:
            child = self.client.lookup(args.what.dir, args.what.name)
        except ReadOnlyError:
            return nfs_const.NFS3ERR_NOENT, Record(
                dir_attributes=self._fattr(args.what.dir)
            )
        return nfs_const.NFS3_OK, Record(
            object=child,
            obj_attributes=self._fattr(child),
            dir_attributes=self._fattr(args.what.dir),
        )

    def _access(self, args: Record, ctx: CallContext):
        granted = args.access & (nfs_const.ACCESS3_READ
                                 | nfs_const.ACCESS3_LOOKUP
                                 | nfs_const.ACCESS3_EXECUTE)
        return nfs_const.NFS3_OK, Record(
            obj_attributes=self._fattr(args.object), access=granted
        )

    def _readlink(self, args: Record, ctx: CallContext):
        try:
            target = self.client.readlink(args.symlink)
        except ReadOnlyError:
            return nfs_const.NFS3ERR_INVAL, Record(symlink_attributes=None)
        return nfs_const.NFS3_OK, Record(
            symlink_attributes=self._fattr(args.symlink), data=target
        )

    def _read(self, args: Record, ctx: CallContext):
        try:
            data = self.client.read_file(args.file, args.offset, args.count)
            kind, body = self.client.node(args.file)
        except ReadOnlyError:
            return nfs_const.NFS3ERR_IO, Record(file_attributes=None)
        eof = args.offset + len(data) >= body.size
        return nfs_const.NFS3_OK, Record(
            file_attributes=self._fattr(args.file),
            count=len(data), eof=eof, data=data,
        )

    def _readdir(self, args: Record, ctx: CallContext):
        try:
            listing = self.client.listdir(args.dir)
        except ReadOnlyError:
            return nfs_const.NFS3ERR_NOTDIR, Record(dir_attributes=None)
        entries = []
        for position, (name, digest) in enumerate(listing, start=1):
            if position <= args.cookie:
                continue
            entries.append(nfs_types.DirEntry.make(
                fileid=int.from_bytes(digest[:8], "big") >> 1,
                name=name, cookie=position,
            ))
        return nfs_const.NFS3_OK, Record(
            dir_attributes=self._fattr(args.dir),
            cookieverf=b"\x00" * 8, entries=entries, eof=True,
        )

    def _fsinfo(self, args: Record, ctx: CallContext):
        return nfs_const.NFS3_OK, Record(
            obj_attributes=self._fattr(args.fsroot),
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
        #: Pipeline window depth for the daemon's mounts: 1 = classic
        #: one-RPC-at-a-time relaying (bit-identical to the pre-pipeline
        #: stack); >1 turns on sequential readahead (a window of READVs
        #: of up to this many chunks, kept in flight ahead of the
        #: reader) and write-gathering (up to this many coalesced
        #: UNSTABLE writes per WRITEV flush).
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

    def _mount_replicated(self, path: SelfCertifyingPath,
                          uid: int) -> "ReadOnlyMount":
        """Build a read-only mount whose transport is the replica set."""
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
            mount = ReadOnlyMount(self, path, replica_set.fetch_root,
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
                           mount.root_handle())
        return mount

    # -- mounting --

    def mount_path(self, path: SelfCertifyingPath, uid: int):
        """Connect to and mount a self-certifying pathname for *uid*.

        Honors agent revocation checks and server-supplied revocation
        certificates / forwarding pointers.  Returns the mount object.
        """
        agent = self.agents.get(uid)
        if agent is not None:
            disc, cert = agent.check_revoked(path.location, path.hostid)
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
            return self._mount_replicated(path, uid)
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
                self.clock.advance(delay)
            try:
                link = self.connector(path.location, proto.SERVICE_FILESERVER)
            except (ConnectionError, OSError) as exc:
                last_error = exc
                continue
            try:
                outcome = ServerSession.connect(
                    link, path, self.ephemeral_keys, self.rng,
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
            try:
                mount: MountedRemoteFs | ReadOnlyMount = \
                    ReadOnlyMount.from_session(self, session, fsid)
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
            root_handle = self._fetch_remote_root(session)
        self._mounts[path.hostid] = mount
        self._mount_roots[path.hostid] = root_handle
        self._references.setdefault(uid, set()).add(path.mount_name)
        self.mounter.mount(f"/sfs/{path.mount_name}", mount.program,
                           root_handle)
        return mount

    def _fetch_remote_root(self, session: ServerSession) -> bytes:
        """Synchronous :meth:`_fetch_remote_root_task`."""
        return session.peer.drive(self._fetch_remote_root_task(session))

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
                           root_handle)
        self._m_retargeted.inc()

    # -- the /sfs synthetic file system --

    def _build_root_program(self) -> Program:
        program = Program("sfscd-root", nfs_const.NFS3_PROGRAM,
                          nfs_const.NFS3_VERSION)
        codecs = proto.NFS_PROC_CODECS
        program.add_proc(nfs_const.NFSPROC3_GETATTR, "GETATTR",
                         *codecs[nfs_const.NFSPROC3_GETATTR], self._getattr)
        program.add_proc(nfs_const.NFSPROC3_LOOKUP, "LOOKUP",
                         *codecs[nfs_const.NFSPROC3_LOOKUP], self._lookup)
        program.add_proc(nfs_const.NFSPROC3_ACCESS, "ACCESS",
                         *codecs[nfs_const.NFSPROC3_ACCESS], self._access)
        program.add_proc(nfs_const.NFSPROC3_READLINK, "READLINK",
                         *codecs[nfs_const.NFSPROC3_READLINK], self._readlink)
        program.add_proc(nfs_const.NFSPROC3_READDIR, "READDIR",
                         *codecs[nfs_const.NFSPROC3_READDIR], self._readdir)
        program.add_proc(nfs_const.NFSPROC3_FSINFO, "FSINFO",
                         *codecs[nfs_const.NFSPROC3_FSINFO], self._fsinfo)
        return program

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
        zero_time = nfs_types.NfsTime.make(seconds=0, nseconds=0)
        return nfs_types.Fattr.make(
            type=nfs_const.NF3DIR, mode=0o755, nlink=2, uid=0, gid=0,
            size=512, used=512,
            rdev=nfs_types.SpecData.make(major=0, minor=0),
            fsid=0x5F5, fileid=fileid,
            atime=zero_time, mtime=zero_time, ctime=zero_time,
        )

    def _symlink_attrs(self, node: _SymlinkNode, handle: bytes) -> Record:
        zero_time = nfs_types.NfsTime.make(seconds=0, nseconds=0)
        return nfs_types.Fattr.make(
            type=nfs_const.NF3LNK, mode=0o777, nlink=1,
            uid=node.uid if node.uid is not None else 0, gid=0,
            size=len(node.target), used=len(node.target),
            rdev=nfs_types.SpecData.make(major=0, minor=0),
            fsid=0x5F5,
            fileid=int.from_bytes(handle[2:10], "big") >> 1,
            atime=zero_time, mtime=zero_time, ctime=zero_time,
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
        uid = _uid_from_authsys(ctx.cred)
        name = args.what.name
        dir_attrs = self._dir_attrs(self.ROOT_HANDLE, 1)
        # Global links (revocations, forwarding pointers) come first:
        # "A revocation certificate always overrules..."
        for key_uid in (None, uid):
            node = self._symlinks.get((key_uid, name))
            if node is not None:
                handle = self._symlink_handle(key_uid, name)
                return nfs_const.NFS3_OK, Record(
                    object=handle,
                    obj_attributes=self._symlink_attrs(node, handle),
                    dir_attributes=dir_attrs,
                )
        parsed = parse_mount_name(name)
        if parsed is not None:
            try:
                self.mount_path(parsed, uid)
            except MountError:
                # Mount failures may have installed a revoked link.
                node = self._symlinks.get((None, name))
                if node is not None:
                    handle = self._symlink_handle(None, name)
                    return nfs_const.NFS3_OK, Record(
                        object=handle,
                        obj_attributes=self._symlink_attrs(node, handle),
                        dir_attributes=dir_attrs,
                    )
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
            target = agent.resolve(name)
            if target is not None:
                node = _SymlinkNode(name, target, uid)
                self._symlinks[(uid, name)] = node
                handle = self._symlink_handle(uid, name)
                return nfs_const.NFS3_OK, Record(
                    object=handle,
                    obj_attributes=self._symlink_attrs(node, handle),
                    dir_attributes=dir_attrs,
                )
        return nfs_const.NFS3ERR_NOENT, Record(dir_attributes=dir_attrs)

    def _access(self, args: Record, ctx: CallContext):
        granted = args.access & (nfs_const.ACCESS3_READ
                                 | nfs_const.ACCESS3_LOOKUP
                                 | nfs_const.ACCESS3_EXECUTE)
        return nfs_const.NFS3_OK, Record(obj_attributes=None, access=granted)

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
        uid = _uid_from_authsys(ctx.cred)
        names = [".", ".."]
        names.extend(sorted(self._references.get(uid, ())))
        names.extend(sorted(
            name for (link_uid, name) in self._symlinks
            if link_uid in (uid, None)
        ))
        entries = []
        for position, name in enumerate(names, start=1):
            if position <= args.cookie:
                continue
            entries.append(nfs_types.DirEntry.make(
                fileid=position, name=name, cookie=position
            ))
        return nfs_const.NFS3_OK, Record(
            dir_attributes=self._dir_attrs(self.ROOT_HANDLE, 1),
            cookieverf=b"\x00" * 8, entries=entries, eof=True,
        )

    def _fsinfo(self, args: Record, ctx: CallContext):
        return nfs_const.NFS3_OK, Record(
            obj_attributes=self._dir_attrs(args.fsroot, 1),
            rtmax=65536, rtpref=8192, rtmult=512,
            wtmax=65536, wtpref=8192, wtmult=512, dtpref=8192,
            maxfilesize=1 << 62,
            time_delta=nfs_types.NfsTime.make(seconds=1, nseconds=0),
            properties=nfs_const.FSF3_SYMLINK,
        )
