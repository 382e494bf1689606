"""The scaled auth plane: sharded authservers behind signed user images.

The paper's authserver split (section 2.5) means user authentication is
"simply another program" — so it scales the same way the file tier did
in :mod:`repro.fleet`: run N authserver machines in one World and shard
the user database across them by consistent hashing
(:class:`repro.fleet.sharding.HashRing`) over *user names*.

Each shard's **public** database half — users, credentials, public
keys; never SRP verifiers or encrypted private keys — is serialized
into a file tree (``/users/<name>``, one marshaled :data:`AuthDbEntry`
per user) and published as a signed read-only image with
:func:`repro.core.readonly.publish`, exactly the mechanism
certification authorities use.  That realizes the paper's claim that "a
server can import a centrally-maintained list of users over SFS while
also keeping a few guest accounts in a local database": a file server
calls :meth:`AuthFleet.import_into`, which pulls every shard's image
through a fully verifying :class:`~repro.core.readonly.ReadOnlyClient`
(pathname-committed key, root signature, per-blob digests, rollback
serial) and attaches the result to the server's own authserver as a
read-only :class:`~repro.core.authserv.KeyDatabase`.

Key change and revocation stay coherent with the fileserver
decision cache (PROTOCOLS.md section 16): mutating a user's key on its
owning shard republishes that shard's image *incrementally* and
synchronously refreshes every importer through the verified image —
and because the imported databases fire their eviction hooks as records
are replaced or removed, every cached login decision proved by the dead
key is gone before the next validate call anywhere in the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.authserv import AuthServer, KeyDatabase, UserRecord
from ..core.pathnames import SelfCertifyingPath, hostid_to_text
from ..core.readonly import ReadOnlyClient, ReadOnlyImage, ReadOnlyStore, \
    local_fetchers, publish, run_local
from ..crypto.rabin import PrivateKey, generate_key
from ..crypto.sha1 import sha1
from ..fleet.sharding import DEFAULT_VNODES, HashRing
from ..fs.memfs import MemFs
from ..rpc.xdr import Array, Opaque, String, Struct, UInt32

DEFAULT_KEY_BITS = 768

#: One user's public record as stored in a shard's signed image.
AuthDbEntry = Struct("AuthDbEntry", [
    ("user", String(255)),
    ("uid", UInt32),
    ("gid", UInt32),
    ("groups", Array(UInt32, 64)),
    ("public_key", Opaque()),
])


def synthetic_key_bytes(name: str) -> bytes:
    """A deterministic stand-in public key for population-scale tables.

    Sweeping user-table size to 10^6 cannot pay a real key generation
    per user; what the sweep measures — sharding, lookup, publication,
    cache behavior — only needs each user's key bytes to be unique and
    stable.  The ``synthetic:`` prefix can never parse as a real Rabin
    key, so a synthetic user can appear in databases and images but can
    never actually sign a login.
    """
    return b"synthetic:" + sha1(b"auth-fleet-user:" + name.encode())


@dataclass
class AuthAccount:
    """A provisioned account with a real key pair (it can log in)."""

    name: str
    uid: int
    gid: int
    key: PrivateKey


@dataclass
class AuthShard:
    """One authserver machine of the fleet."""

    server: object            # kernel.world.ServerMachine
    path: SelfCertifyingPath
    export: str

    @property
    def location(self) -> str:
        return self.server.location

    @property
    def hostid_text(self) -> str:
        return hostid_to_text(self.path.hostid)

    @property
    def authserver(self) -> AuthServer:
        return self.server.exports[self.export][2]


class AuthFleet:
    """N sharded authservers with signed, importable user databases."""

    def __init__(self, world, count: int, name: str = "auth",
                 key_bits: int = DEFAULT_KEY_BITS,
                 vnodes: int = DEFAULT_VNODES) -> None:
        if count < 1:
            raise ValueError("an auth fleet needs at least one shard")
        self.world = world
        self.name = name
        self.key_bits = key_bits
        self.shards: list[AuthShard] = []
        self.ring = HashRing(vnodes=vnodes)
        self._by_hostid: dict[str, AuthShard] = {}
        #: user name -> owning shard location (provisioning record).
        self.assignments: dict[str, str] = {}
        self._next_uid = 10000
        self._db_keys: dict[str, PrivateKey] = {}
        self._images: dict[str, ReadOnlyImage] = {}
        self._serials: dict[str, int] = {}
        self._imports: dict[str, KeyDatabase] = {}
        self._importers: list[AuthServer] = []
        metrics = world.metrics
        self._m_shards = metrics.gauge("auth.fleet.shards")
        self._m_users = metrics.counter("auth.fleet.users")
        self._m_publications = metrics.counter("auth.fleet.publications")
        self._m_published_blobs = metrics.counter(
            "auth.fleet.published_blobs")
        self._m_imports = metrics.counter("auth.fleet.imports")
        self._m_key_changes = metrics.counter("auth.fleet.key_changes")
        self._m_revocations = metrics.counter("auth.fleet.revocations")
        for index in range(count):
            self.add_shard(f"auth{index}.{self.name}")

    # --- topology ---------------------------------------------------------

    def add_shard(self, location: str) -> AuthShard:
        server = self.world.add_server(location)
        path = server.export_fs(name=f"{self.name}-shard",
                                key_bits=self.key_bits)
        shard = AuthShard(server, path, f"{self.name}-shard")
        self.shards.append(shard)
        self.ring.add(shard.hostid_text)
        self._by_hostid[shard.hostid_text] = shard
        self._m_shards.set(len(self.shards))
        return shard

    def shard_for(self, user: str) -> AuthShard:
        """The shard whose database owns *user* (consistent hashing)."""
        return self._by_hostid[self.ring.lookup(user)]

    # --- provisioning -----------------------------------------------------

    def add_user(self, name: str, uid: int | None = None, gid: int = 100,
                 groups: tuple[int, ...] = (),
                 public_key_bytes: bytes | None = None) -> UserRecord:
        """Provision one account on its ring-assigned shard.

        Without *public_key_bytes* the account gets a deterministic
        synthetic key — population-scale tables without
        population-scale key generation (see :func:`synthetic_key_bytes`).
        """
        if uid is None:
            uid = self._next_uid
            self._next_uid += 1
        record = UserRecord(
            name, uid, gid, tuple(groups),
            public_key_bytes if public_key_bytes is not None
            else synthetic_key_bytes(name),
        )
        shard = self.shard_for(name)
        shard.authserver.local_db.add_user(record)
        self.assignments[name] = shard.location
        self._m_users.inc()
        return record

    def add_real_user(self, name: str, uid: int | None = None,
                      gid: int = 100,
                      key_bits: int = DEFAULT_KEY_BITS) -> AuthAccount:
        """Provision an account with a real key pair (it can log in)."""
        key = generate_key(key_bits, self.world.rng)
        record = self.add_user(
            name, uid=uid, gid=gid,
            public_key_bytes=key.public_key.to_bytes(),
        )
        return AuthAccount(name, record.uid, gid, key)

    def placement(self) -> dict[str, int]:
        """How many provisioned users each shard location owns."""
        counts = {shard.location: 0 for shard in self.shards}
        for location in self.assignments.values():
            counts[location] += 1
        return counts

    # --- publication ------------------------------------------------------

    def publish(self) -> dict[str, ReadOnlyImage]:
        """Sign every shard's public database into a read-only image.

        Each shard's image is signed by a dedicated database key (not
        the shard's file-service key) and registered as a read-only
        export on the shard's own server, so any SFS client can fetch
        the user list through the verifying read-only dialect.
        Publication is incremental per shard: the content-addressed
        store carries unchanged user entries over from the previous
        image, so republishing after one key change pays for the entry
        that moved, not the whole table.
        """
        for shard in self.shards:
            self._publish_shard(shard)
            if shard.location in self._imports:
                self._refresh_import(shard)
        return dict(self._images)

    def _publish_shard(self, shard: AuthShard) -> ReadOnlyImage:
        from ..fs import pathops

        db_key = self._db_keys.get(shard.location)
        if db_key is None:
            db_key = generate_key(self.key_bits, self.world.rng)
            self._db_keys[shard.location] = db_key
        fs = MemFs(fsid=0x5A0)
        pathops.mkdirs(fs, "/users")
        public = shard.authserver.local_db
        for user in public.users():
            record = public.lookup_user(user)
            blob = AuthDbEntry.pack(AuthDbEntry.make(
                user=record.user, uid=record.uid, gid=record.gid,
                groups=list(record.groups),
                public_key=record.public_key_bytes,
            ))
            pathops.write_file(fs, f"/users/{user}", blob)
        serial = self._serials.get(shard.location, 0) + 1
        image = publish(fs, db_key, shard.location, serial=serial,
                        previous=self._images.get(shard.location))
        self._images[shard.location] = image
        self._serials[shard.location] = serial
        shard.server.master.add_ro_export(image, name=f"{self.name}-db")
        self._m_publications.inc()
        self._m_published_blobs.inc(
            image.new_blobs if serial > 1 else len(image.store))
        return image

    # --- import into file servers ----------------------------------------

    def import_into(self, machine, export: str = "default") -> int:
        """Attach every shard's published user database to *machine*.

        The file server's authserver gains one read-only
        :class:`KeyDatabase` per shard, filled through a verifying
        read-only client; the databases are shared across importers, so
        a key change refreshed once evicts stale cached decisions on
        every file server at once.  Returns the number of users
        imported.
        """
        if not self._images:
            self.publish()
        authserver = machine.exports[export][2]
        imported = 0
        for shard in self.shards:
            db = self._imports.get(shard.location)
            if db is None:
                db = KeyDatabase(f"{shard.location}-import", writable=False)
                self._imports[shard.location] = db
                self._refresh_import(shard)
            if db not in authserver.databases:
                authserver.attach_database(db)
                imported += len(db.users())
        if authserver not in self._importers:
            self._importers.append(authserver)
        self._m_imports.inc()
        return imported

    def _refresh_import(self, shard: AuthShard) -> None:
        """Mirror a shard's signed image into its shared imported DB.

        The image is re-read through :class:`ReadOnlyClient` — the same
        verification an untrusted mirror's client performs — against a
        replicated (bytes-only) copy.  Records are diffed in place:
        replaced keys and removed users fire the imported database's
        eviction hooks synchronously, which is what evicts stale cached
        login decisions on every attached file server *before* the next
        validate call can run.
        """
        image = self._images[shard.location].replicate()
        fetch_root, fetch_data = local_fetchers(ReadOnlyStore(image),
                                                image.public_key_bytes)
        client = ReadOnlyClient(
            image.path(), run_local(fetch_root()), fetch_data,
            min_serial=self._serials[shard.location],
        )
        db = self._imports[shard.location]
        users_digest = run_local(client.resolve_path("users"))
        seen: set[str] = set()
        for name, digest in run_local(client.listdir(users_digest)):
            entry = AuthDbEntry.unpack(run_local(client.read_file(digest)))
            seen.add(entry.user)
            existing = db.lookup_user(entry.user)
            if (existing is not None
                    and existing.public_key_bytes == entry.public_key
                    and existing.uid == entry.uid
                    and existing.gid == entry.gid
                    and existing.groups == tuple(entry.groups)):
                continue
            db.add_user(UserRecord(
                entry.user, entry.uid, entry.gid, tuple(entry.groups),
                entry.public_key,
            ))
        for name in [user for user in db.users() if user not in seen]:
            db.remove_user(name)

    # --- key change and revocation ----------------------------------------

    def change_user_key(self, name: str,
                        new_public_key_bytes: bytes | None = None,
                        ) -> UserRecord:
        """Rotate *name*'s key on its owning shard and everywhere after.

        The shard's local database replaces the record (its own decision
        cache evicts the old key synchronously); if the shard has
        published, the image is republished incrementally and every
        imported copy refreshed, so the replaced key stops
        authenticating fleet-wide before the next validate.
        """
        shard = self.shard_for(name)
        record = shard.authserver.local_db.lookup_user(name)
        if record is None:
            raise KeyError(f"no user {name!r} on shard {shard.location}")
        if new_public_key_bytes is None:
            new_public_key_bytes = b"synthetic:" + sha1(
                b"rotated:" + record.public_key_bytes)
        replacement = UserRecord(record.user, record.uid, record.gid,
                                 record.groups, new_public_key_bytes)
        shard.authserver.local_db.add_user(replacement)
        self._republish_and_refresh(shard)
        self._m_key_changes.inc()
        return replacement

    def revoke_user(self, name: str) -> bool:
        """Remove *name* fleet-wide; cached decisions die first."""
        shard = self.shard_for(name)
        removed = shard.authserver.revoke_user(name)
        self.assignments.pop(name, None)
        self._republish_and_refresh(shard)
        if removed:
            self._m_revocations.inc()
        return removed

    def _republish_and_refresh(self, shard: AuthShard) -> None:
        if shard.location not in self._images:
            return
        self._publish_shard(shard)
        if shard.location in self._imports:
            self._refresh_import(shard)
