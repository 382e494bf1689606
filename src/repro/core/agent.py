"""sfsagent — the per-user agent process.

"Every user on an SFS client runs an unprivileged agent program of his
choice, which communicates with the file system using RPC.  The agent
handles authentication of the user to remote servers, prevents the user
from accessing revoked HostIDs, and controls the user's view of the /sfs
directory.  Users can replace their agents at will." (paper section 2.3)

An :class:`Agent` holds the user's private keys and implements three
callbacks the client master invokes:

* :meth:`sign_request` — sign an authentication request (figure 4); the
  agent keeps a full audit trail of every private-key operation.
* :meth:`resolve` — map a non-self-certifying name accessed under /sfs
  to a symlink target, consulting dynamic links and certification paths
  (section 2.4 "Certification paths"); arbitrary resolvers can be
  chained, which is how the external-PKI bridge of section 2.4 plugs in.
* :meth:`check_revoked` — consult revocation directories and the block
  list before the client mounts a HostID (section 2.6).

Certification paths and revocation directories read the file system
*through SFS itself* via an injected ``fs_reader``, realizing the paper's
point that the file namespace doubles as a key certification namespace.
sfscd calls all three from inside its handlers, so each is a generator
(``yield from agent.resolve(name)``), even one that never waits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Protocol

from ..crypto.rabin import PrivateKey
from ..crypto.sha1 import sha1
from ..rpc.xdr import Record, XdrError
from . import proto
from .pathnames import hostid_to_text
from .revocation import CertificateError, VerifiedRevocation, verify_certificate

#: Resolver plug-in: name -> symlink target (or None to pass).
Resolver = Callable[[str], "str | None"]


class FsReader(Protocol):
    """The slice of the file system the agent reads for key management
    (generators returning None for a missing file or link)."""

    def readlink(self, path: str): ...

    def readfile(self, path: str): ...


@dataclass
class AuditEntry:
    """One private-key operation the agent performed."""

    operation: str
    detail: str


class AgentRefused(Exception):
    """The agent declined to sign (no keys, or user policy)."""


class Agent:
    """A user's agent: keys, name resolution, revocation policy."""

    def __init__(self, user: str, rng: random.Random,
                 fs_reader: FsReader | None = None) -> None:
        self.user = user
        self._rng = rng
        self._keys: list[PrivateKey] = []
        self._links: dict[str, str] = {}
        self._resolvers: list[Resolver] = []
        self.certpaths: list[str] = []
        self.revocation_dirs: list[str] = []
        self._blocked: set[bytes] = set()
        self._fs_reader = fs_reader
        self.audit_log: list[AuditEntry] = []

    # --- keys ---------------------------------------------------------------

    def add_key(self, key: PrivateKey) -> None:
        """Give the agent a private key to authenticate with."""
        self._keys.append(key)

    @property
    def key_count(self) -> int:
        return len(self._keys)

    def sign_request(self, authinfo_bytes: bytes, seqno: int,
                     key_index: int = 0):
        """Produce an AuthMsg for the client (paper figure 4).

        AuthID = SHA-1(AuthInfo); the agent signs {AuthID, seqno} and
        appends the public key.  *key_index* selects among the agent's
        keys so the client can retry with different credentials.
        """
        yield from ()
        if key_index >= len(self._keys):
            raise AgentRefused(
                f"agent for {self.user} has no key #{key_index}"
            )
        key = self._keys[key_index]
        authid = sha1(authinfo_bytes)
        signed_req = proto.SignedAuthReq.pack(
            proto.SignedAuthReq.make(
                req_type="SignedAuthReq", authid=authid, seqno=seqno
            )
        )
        self.audit_log.append(
            AuditEntry("sign", f"authid={authid.hex()[:12]} seqno={seqno}")
        )
        return proto.AuthMsg.pack(
            proto.AuthMsg.make(
                signed_req=signed_req,
                public_key=key.public_key.to_bytes(),
                signature=key.sign(signed_req),
            )
        )

    # --- /sfs name resolution -------------------------------------------------

    def add_link(self, name: str, target: str) -> None:
        """Create a symlink in /sfs visible only to this agent's user."""
        self._links[name] = target

    def remove_link(self, name: str) -> None:
        self._links.pop(name, None)

    def add_resolver(self, resolver: Resolver) -> None:
        """Chain an arbitrary resolution algorithm (e.g. an external-PKI
        bridge that builds self-certifying paths from SSL certificates)."""
        self._resolvers.append(resolver)

    @property
    def links(self) -> dict[str, str]:
        return dict(self._links)

    def resolve(self, name: str):
        """Map a non-self-certifying /sfs name to a symlink target.

        Order: explicit agent links, then each directory on the
        certification path (looking for a same-named symlink), then any
        chained resolvers.
        """
        if name in self._links:
            return self._links[name]
        if self._fs_reader is not None:
            for directory in self.certpaths:
                target = yield from self._fs_reader.readlink(
                    f"{directory}/{name}")
                if target is not None:
                    return target
        for resolver in self._resolvers:
            target = resolver(name)
            if target is not None:
                return target
        return None

    # --- revocation ------------------------------------------------------------

    def block_hostid(self, hostid: bytes) -> None:
        """HostID blocking: affects only this agent's user (section 2.6)."""
        self._blocked.add(hostid)

    def unblock_hostid(self, hostid: bytes) -> None:
        self._blocked.discard(hostid)

    def check_revoked(self, location: str, hostid: bytes):
        """Consult policy before the client mounts (Location, HostID).

        Returns one of the proto.REVCHECK_* discriminants, with the
        certificate when one was found.  Revocation directories contain
        files named by base-32 HostID, each holding a marshaled
        SignedCertificate (the paper's Verisign example).
        """
        if hostid in self._blocked:
            return proto.REVCHECK_BLOCKED, None
        if self._fs_reader is not None:
            name = hostid_to_text(hostid)
            for directory in self.revocation_dirs:
                blob = yield from self._fs_reader.readfile(
                    f"{directory}/{name}")
                if blob is None:
                    continue
                cert = self._parse_certificate(blob, hostid)
                if cert is not None:
                    return proto.REVCHECK_REVOKED, cert
        return proto.REVCHECK_CLEAR, None

    @staticmethod
    def _parse_certificate(blob: bytes, hostid: bytes) -> Record | None:
        """Validate a stored certificate against the HostID it names.

        Certificates are self-authenticating, so a bad or mismatched blob
        in a revocation directory is simply ignored rather than trusted.
        """
        try:
            cert = proto.SignedCertificate.unpack(blob)
            verified: VerifiedRevocation = verify_certificate(cert)
        except (XdrError, CertificateError):
            return None
        if verified.hostid != hostid or not verified.is_revocation:
            return None
        return cert
