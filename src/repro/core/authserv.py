"""The authserver ("authserv") — user authentication for SFS servers.

"On the server side, a separate program, the authentication server or
authserver, performs user authentication.  The file server and authserver
communicate with RPC." (paper section 2.5)

The authserver:

* maintains databases mapping public keys to Unix credentials — some
  writable and local, some read-only imports of databases served over SFS
  itself ("a server can import a centrally-maintained list of users over
  SFS while also keeping a few guest accounts in a local database");
* validates signed authentication requests from agents (figure 4),
  translating them into credentials;
* runs the SRP protocol with sfskey so users can retrieve the server's
  self-certifying pathname (and an encrypted copy of their private key)
  with just a password (section 2.4);
* keeps two versions of every writable database: a *public* one (keys and
  credentials, safe to export to the world) and a *private* one (SRP
  verifiers and encrypted private keys, with which a server could mount a
  guessing attack — paced by eksblowfish).

At fleet scale (PROTOCOLS.md section 16) two more concerns live here:
the :class:`~repro.auth.cache.DecisionCache` on the login hot path
(amortizing the key→credentials database resolution — the signature is
still verified on every request), with eviction ordered strictly
before the next validate whenever a key stops resolving, and a bounded
:class:`SrpSessionFactory` so abandoned-login storms cannot grow
handshake state without limit.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from ..auth.cache import DecisionCache, ParseCache
from ..crypto.rabin import PublicKey, RabinError
from ..crypto.sha1 import sha1
from ..crypto.srp import SRPServer, SRPError, Verifier
from ..obs.registry import NULL_REGISTRY
from ..rpc.xdr import Record, XdrError
from . import proto
from .sealing import seal

AUTHID_TYPE = "SignedAuthReq"

#: Bound on live (initiated, unconfirmed) SRP handshakes per authserver.
DEFAULT_MAX_SRP_SESSIONS = 64
#: An SRP handshake abandoned for this long (virtual seconds) expires.
DEFAULT_SRP_SESSION_TTL = 30.0


@dataclass
class UserRecord:
    """One user's public entry: key + credentials."""

    user: str
    uid: int
    gid: int
    groups: tuple[int, ...]
    public_key_bytes: bytes


@dataclass
class PrivateRecord:
    """One user's private entry: SRP verifier + encrypted private key.

    This is the half of the database that never leaves the authserver —
    "The public database contains public keys and credentials, but no
    information with which an attacker could verify a guessed password."
    """

    srp_salt: bytes
    srp_verifier: int
    srp_cost: int
    encrypted_privkey: bytes


class KeyDatabase:
    """A mapping of public keys to users, plus the private side.

    *writable* databases accept registrations; read-only databases model
    imports from remote servers (the authserver "automatically keeps
    local copies of remote databases").

    Whenever a key stops resolving — replaced by rotation or removed by
    revocation — every registered eviction hook fires synchronously with
    the dead key's hash, before control returns to the mutator.  Decision
    caches subscribe through these hooks, which is what makes a cached
    login decision revocation-safe: the eviction is ordered before any
    subsequent ``validate`` can run.
    """

    def __init__(self, name: str, writable: bool = True) -> None:
        self.name = name
        self.writable = writable
        self._by_key_hash: dict[bytes, UserRecord] = {}
        self._by_user: dict[str, UserRecord] = {}
        self._private: dict[str, PrivateRecord] = {}
        self._eviction_hooks: list[Callable[[bytes], None]] = []

    @staticmethod
    def _key_hash(public_key_bytes: bytes) -> bytes:
        return sha1(b"AuthKeyHash" + public_key_bytes)

    def add_eviction_hook(self, hook: Callable[[bytes], None]) -> None:
        """Call *hook(key_hash)* whenever a key stops resolving here."""
        if hook not in self._eviction_hooks:
            self._eviction_hooks.append(hook)

    def _fire_eviction(self, public_key_bytes: bytes) -> None:
        key_hash = self._key_hash(public_key_bytes)
        for hook in self._eviction_hooks:
            hook(key_hash)

    def add_user(self, record: UserRecord,
                 private: PrivateRecord | None = None) -> None:
        existing = self._by_user.get(record.user)
        if existing is not None:
            # Key rotation: the replaced key must stop authenticating.
            self._by_key_hash.pop(
                self._key_hash(existing.public_key_bytes), None
            )
            if existing != record:
                # Any change — new key, or same key with different
                # credentials (uid/gid/groups) — invalidates decisions
                # proved by the old record, so a cache hit can never
                # serve stale credentials until LRU happens to evict.
                self._fire_eviction(existing.public_key_bytes)
        self._by_key_hash[self._key_hash(record.public_key_bytes)] = record
        self._by_user[record.user] = record
        if private is not None:
            self._private[record.user] = private

    def remove_user(self, user: str) -> bool:
        """Revoke *user* entirely; returns True if a record was removed."""
        record = self._by_user.pop(user, None)
        if record is None:
            return False
        self._by_key_hash.pop(self._key_hash(record.public_key_bytes), None)
        self._private.pop(user, None)
        self._fire_eviction(record.public_key_bytes)
        return True

    def lookup_key(self, public_key_bytes: bytes) -> UserRecord | None:
        return self._by_key_hash.get(self._key_hash(public_key_bytes))

    def lookup_user(self, user: str) -> UserRecord | None:
        return self._by_user.get(user)

    def lookup_private(self, user: str) -> PrivateRecord | None:
        return self._private.get(user)

    def public_copy(self) -> "KeyDatabase":
        """The exportable half: users and keys, no password material."""
        copy = KeyDatabase(self.name + "-public", writable=False)
        for record in self._by_user.values():
            copy.add_user(record)
        return copy

    def users(self) -> list[str]:
        return sorted(self._by_user)


class AuthServer:
    """Validates authentication requests and serves sfskey."""

    def __init__(self, rng: random.Random, pathname: str = "",
                 unix_passwords: dict[str, str] | None = None,
                 metrics=None, clock=None) -> None:
        self._rng = rng
        #: The server's self-certifying pathname, handed to SRP clients.
        self.pathname = pathname
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._clock = clock
        self.databases: list[KeyDatabase] = [KeyDatabase("local")]
        #: gid -> group name, served to libsfs (paper section 3.3).
        self.groups: dict[int, str] = {0: "wheel", 100: "users"}
        #: Security log.  "an attacker who guesses 1,000 passwords will
        #: generate 1,000 log messages on the server.  Thus, on-line
        #: password guessing attempts can be detected and stopped."
        self.security_log: list[str] = []
        #: Pluggable authentication protocols by envelope name (see
        #: repro.core.authplugins); the classic figure-4 public-key
        #: protocol is built in and needs no registration.
        self.protocols: dict[str, object] = {}
        # Optional map of Unix passwords for opt-in initial registration
        # ("authserv can optionally let users who actually log in to a
        # file server register initial public keys by typing their Unix
        # passwords").
        self._unix_passwords = unix_passwords or {}
        self.validations = 0
        self.failed_validations = 0
        self.decision_cache = DecisionCache()
        self._pubkeys = ParseCache(PublicKey.from_bytes)
        self._srp_factory: SrpSessionFactory | None = None
        self._m_validations = self.metrics.counter("auth.validations")
        self._m_failed = self.metrics.counter("auth.failed_validations")
        self._m_cache_hits = self.metrics.counter("auth.cache.hits")
        self._m_cache_misses = self.metrics.counter("auth.cache.misses")
        self._m_cache_evictions = self.metrics.counter("auth.cache.evictions")
        self._m_epoch_bumps = self.metrics.counter("auth.cache.epoch_bumps")
        self._m_users_revoked = self.metrics.counter("auth.users_revoked")
        self._m_batches = self.metrics.counter("auth.batch.requests")
        self._m_batch_deduped = self.metrics.counter("auth.batch.deduped")
        self._m_srp_evicted = self.metrics.counter(
            "auth.srp.sessions_evicted")
        self._watch_database(self.databases[0])

    @property
    def local_db(self) -> KeyDatabase:
        return self.databases[0]

    def attach_database(self, db: KeyDatabase) -> None:
        """Import an additional (typically read-only, remote) database."""
        self.databases.append(db)
        self._watch_database(db)

    def _watch_database(self, db: KeyDatabase) -> None:
        db.add_eviction_hook(self._on_key_evicted)

    def _on_key_evicted(self, key_hash: bytes) -> None:
        # Fires synchronously from database mutation, strictly before the
        # next validate call: a revoked or rotated-away key can never be
        # vouched for by a stale cached decision.
        evicted = self.decision_cache.evict_key_hash(key_hash)
        if evicted:
            self._m_cache_evictions.inc(evicted)

    def revoke_user(self, user: str) -> bool:
        """Remove *user* from every writable database; evictions fire.

        Read-only databases are skipped: they mirror a signed published
        image shared by every importer, so mutating one here would both
        diverge from the image (the user silently resurrects on the
        next refresh) and side-effect unrelated file servers.  Fleet-
        wide revocation goes through ``AuthFleet.revoke_user``, which
        mutates the owning shard and refreshes every import.
        """
        removed = False
        for db in self.databases:
            if not db.writable:
                continue
            if db.lookup_user(user) is not None and db.remove_user(user):
                removed = True
        if removed:
            self._m_users_revoked.inc()
        return removed

    def bump_epoch(self) -> None:
        """Invalidate all cached decisions (revocation fan-out path)."""
        self.decision_cache.bump_epoch()
        self._m_epoch_bumps.inc()

    # --- figure 4: request validation ------------------------------------

    def validate(self, authid: bytes, seqno: int,
                 authmsg_bytes: bytes) -> UserRecord | None:
        """Check a signed authentication request; return the user or None.

        Verifies, in order: the message parses; the signed AuthID matches
        the session's AuthID; the signed sequence number matches the one
        the client chose; the embedded public key verifies the signature
        over the marshaled SignedAuthReq; and the public key maps to a
        user in some database.

        The signature is verified on EVERY request, cached decision or
        not: public keys are public, so skipping the verify on a cache
        hit would let anyone who can send on the session (another user's
        agent on a shared client, or the client itself after the agent
        forgot its keys at logout) replay a key it does not hold.  Rabin
        verification is a modular squaring — cheap by construction,
        which is why the paper picked Rabin — so the hot-path win lives
        in what the decision cache *does* skip: the multi-database
        key→credentials resolution.  A hit additionally requires that
        the same key hash is claiming the authid and that the key has
        not been rotated or revoked since (eviction hooks and the cache
        epoch guarantee the latter).  The authid is the SHA-1 of the
        session's AuthInfo, so a decision can never leak across
        sessions.
        """
        self.validations += 1
        self._m_validations.inc()
        try:
            authmsg = proto.AuthMsg.unpack(authmsg_bytes)
            signed = proto.SignedAuthReq.unpack(authmsg.signed_req)
        except XdrError:
            return self._deny()
        if signed.req_type != AUTHID_TYPE:
            return self._deny()
        if signed.authid != authid or signed.seqno != seqno:
            return self._deny()
        try:
            public_key = self._pubkeys.get(authmsg.public_key)
            if not public_key.verify(authmsg.signed_req, authmsg.signature):
                raise SRPError("bad signature")
        except (XdrError, RabinError, SRPError):
            return self._deny()
        key_hash = KeyDatabase._key_hash(authmsg.public_key)
        cached = self.decision_cache.lookup(authid)
        if cached is not None and cached.key_hash == key_hash:
            self._m_cache_hits.inc()
            return cached.record
        self._m_cache_misses.inc()
        for db in self.databases:
            record = db.lookup_key(authmsg.public_key)
            if record is not None:
                self.decision_cache.store(authid, key_hash, record)
                return record
        return self._deny()

    def validate_batch(
        self, requests: Sequence[tuple[bytes, int, bytes]],
    ) -> list[UserRecord | None]:
        """Validate a connection burst of signed requests in one sweep.

        Identical (authid, seqno, authmsg) triples — agents re-dialing
        through a flapping link retransmit verbatim — are verified once
        and fanned out; distinct requests still go through the full
        :meth:`validate` path (and therefore the decision cache and the
        shared public-key parse cache).
        """
        self._m_batches.inc()
        results: list[UserRecord | None] = []
        memo: dict[tuple[bytes, int, bytes], UserRecord | None] = {}
        for authid, seqno, authmsg_bytes in requests:
            key = (bytes(authid), int(seqno), bytes(authmsg_bytes))
            if key in memo:
                self._m_batch_deduped.inc()
                results.append(memo[key])
                continue
            record = self.validate(authid, seqno, authmsg_bytes)
            memo[key] = record
            results.append(record)
        return results

    def _deny(self) -> None:
        self.failed_validations += 1
        self._m_failed.inc()
        return None

    # --- registration ------------------------------------------------------

    def register(self, args: Record) -> bool:
        """Register or update a user's keys (sfskey update / enrolment).

        A user already present may always replace their own record (the
        usual sfskey "change my public key" flow would authenticate this
        over SFS; our model requires either an existing record or a
        matching Unix password for first-time enrolment).
        """
        db = self.local_db
        if not db.writable:
            return False
        existing = db.lookup_user(args.user)
        if existing is None:
            expected = self._unix_passwords.get(args.user)
            if expected is None or expected != args.unix_password:
                return False
            uid = 1000 + len(db.users())
            gid = 100
            groups: tuple[int, ...] = ()
        else:
            uid, gid, groups = existing.uid, existing.gid, existing.groups
        record = UserRecord(
            user=args.user, uid=uid, gid=gid, groups=groups,
            public_key_bytes=args.public_key,
        )
        private = PrivateRecord(
            srp_salt=args.srp_salt,
            srp_verifier=int.from_bytes(args.srp_verifier, "big"),
            srp_cost=args.srp_cost,
            encrypted_privkey=args.encrypted_privkey,
        )
        db.add_user(record, private)
        return True

    def add_account(self, user: str, uid: int, gid: int,
                    groups: tuple[int, ...] = (),
                    public_key_bytes: bytes = b"") -> UserRecord:
        """Administrative account creation (server-side setup)."""
        record = UserRecord(user, uid, gid, groups, public_key_bytes)
        self.local_db.add_user(record)
        return record

    def register_protocol(self, plugin) -> None:
        """Install a new user-authentication protocol — no file system
        code changes required (the paper's modularity claim)."""
        self.protocols[plugin.name] = plugin

    # --- libsfs queries (paper section 3.3) --------------------------------

    def id_to_name(self, numeric_id: int, is_group: bool) -> str | None:
        """Map a numeric uid/gid to this server's name for it."""
        if is_group:
            return self.groups.get(numeric_id)
        for db in self.databases:
            for user in db.users():
                record = db.lookup_user(user)
                if record is not None and record.uid == numeric_id:
                    return record.user
        return None

    def name_to_id(self, name: str, is_group: bool) -> int | None:
        """Map a user/group name to this server's numeric id for it."""
        if is_group:
            for gid, group_name in self.groups.items():
                if group_name == name:
                    return gid
            return None
        for db in self.databases:
            record = db.lookup_user(name)
            if record is not None:
                return record.uid
        return None

    # --- SRP service (sfskey's password flow) -----------------------------

    def srp_sessions(self) -> "SrpSessionFactory":
        """The (single, bounded) SRP handshake factory for this server."""
        if self._srp_factory is None:
            self._srp_factory = SrpSessionFactory(self, clock=self._clock)
        return self._srp_factory


class SrpSessionFactory:
    """Creates per-connection SRP handshake state, bounded.

    An abandoned-login storm — thousands of SRP_INIT calls whose clients
    never send SRP_CONFIRM — would otherwise grow authserver state
    without limit.  Live handshakes are capped (LRU: the oldest
    unfinished handshake is closed to admit a new one) and expire after
    *ttl* virtual seconds.  Every forced close counts as
    ``auth.srp.sessions_evicted``; a closed session answers None to any
    further protocol step, which the client sees as a failed login.
    """

    def __init__(self, authserver: AuthServer,
                 capacity: int = DEFAULT_MAX_SRP_SESSIONS,
                 ttl: float | None = DEFAULT_SRP_SESSION_TTL,
                 clock=None) -> None:
        if capacity < 1:
            raise ValueError("SRP session capacity must be positive")
        self._authserver = authserver
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._live: OrderedDict[int, SrpSession] = OrderedDict()
        self._serial = 0
        self.evicted = 0

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    @property
    def live_sessions(self) -> int:
        return len(self._live)

    def new_session(self) -> "SrpSession":
        self.expire()
        serial = self._serial
        self._serial += 1
        session = SrpSession(self._authserver, factory=self,
                             serial=serial, born=self._now())
        self._live[serial] = session
        while len(self._live) > self.capacity:
            _, oldest = self._live.popitem(last=False)
            self._evict(oldest)
        return session

    def expire(self) -> None:
        """Close handshakes older than the TTL (virtual clock)."""
        if self._clock is None or self.ttl is None:
            return
        deadline = self._now() - self.ttl
        while self._live:
            serial = next(iter(self._live))
            session = self._live[serial]
            if session.born > deadline:
                break
            del self._live[serial]
            self._evict(session)

    def discard(self, serial: int) -> None:
        """A handshake finished (either way); its state is released."""
        self._live.pop(serial, None)

    def _evict(self, session: "SrpSession") -> None:
        session.close()
        self.evicted += 1
        self._authserver._m_srp_evicted.inc()


class SrpSession:
    """One SRP handshake with one sfskey client."""

    def __init__(self, authserver: AuthServer,
                 factory: SrpSessionFactory | None = None,
                 serial: int = 0, born: float = 0.0) -> None:
        self._authserver = authserver
        self._server: SRPServer | None = None
        self._user: str | None = None
        self._factory = factory
        self._serial = serial
        self.born = born
        self.closed = False

    def close(self) -> None:
        """Abandon the handshake: later protocol steps answer None."""
        self.closed = True
        self._server = None

    def _finish(self) -> None:
        if self._factory is not None:
            self._factory.discard(self._serial)

    def init(self, user: str, A: int) -> tuple[bytes, int, int] | None:
        """Step 2 of SRP; None if the user has no SRP data."""
        if self.closed:
            return None
        record = None
        private = None
        for db in self._authserver.databases:
            record = db.lookup_user(user)
            if record is not None:
                private = db.lookup_private(user)
                break
        if record is None or private is None:
            return None
        verifier = Verifier(
            identity=user,
            salt=private.srp_salt,
            v=private.srp_verifier,
            cost=private.srp_cost,
        )
        self._server = SRPServer(verifier, self._authserver._rng)
        self._user = user
        try:
            return self._server.challenge(A)
        except SRPError:
            self._server = None
            return None

    def confirm(self, m1: bytes) -> tuple[bytes, bytes] | None:
        """Steps 4-5: verify the client, return (M2, sealed payload).

        The payload — the server's self-certifying pathname plus the
        user's encrypted private key — is sealed under the SRP session
        key, so only someone who knew the password can read it.  A
        handshake is single-shot: whatever the outcome, its state is
        released, so a replayed confirm on a stale session answers None.
        """
        if self.closed or self._server is None or self._user is None:
            return None
        try:
            m2 = self._server.verify_client(m1)
        except SRPError:
            # Every failed guess leaves a log line (paper footnote 3).
            self._authserver.security_log.append(
                f"SRP authentication failed for user {self._user!r}"
            )
            self._server = None
            self._finish()
            return None
        private = None
        for db in self._authserver.databases:
            if db.lookup_user(self._user) is not None:
                private = db.lookup_private(self._user)
                break
        payload = proto.SrpPayload.pack(
            proto.SrpPayload.make(
                pathname=self._authserver.pathname,
                encrypted_privkey=(
                    private.encrypted_privkey if private is not None else b""
                ),
            )
        )
        sealed = seal(self._server.session_key, payload, label=b"srp-payload")
        self._server = None
        self._finish()
        return m2, sealed
