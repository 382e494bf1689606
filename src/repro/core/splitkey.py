"""Split private keys: agents without direct key knowledge.

"The agent need not have direct knowledge of any private keys.  To
protect private keys from compromise, for instance, one could split them
between an agent and a trusted authserver using proactive security.  An
attacker would need to compromise both the agent and authserver to steal
a split secret key."  (paper section 2.5.1)

This module implements the two-party arrangement the paper envisages:

* at enrolment, the private key is XOR-split into two shares; the agent
  keeps one, a *key-half server* keeps the other (sealed under a fresh
  transport key so the blob is useless alone);
* :class:`SplitKeyAgent` satisfies the agent signing interface — for
  each request it fetches the peer share, reconstitutes the key *for the
  duration of one signature*, signs, and discards the plaintext key;
* compromising either share alone yields no information about the key
  (a one-time pad over the serialized key).

(The "proactive" refresh of real proactive security — re-randomizing the
shares periodically so old stolen shares expire — is provided by
:meth:`SplitKeyPair.refresh`.)
"""

from __future__ import annotations

import random

from ..crypto.rabin import PrivateKey
from ..crypto.sha1 import sha1
from ..crypto.util import xor_bytes
from .agent import AgentRefused, AuditEntry
from . import proto


class SplitKeyError(Exception):
    """Share mismatch or refusal."""


class SplitKeyPair:
    """The two shares of one private key."""

    def __init__(self, agent_share: bytes, server_share: bytes,
                 key_len: int) -> None:
        self.agent_share = agent_share
        self.server_share = server_share
        self._key_len = key_len

    @classmethod
    def split(cls, key: PrivateKey, rng: random.Random) -> "SplitKeyPair":
        raw = key.to_bytes()
        pad = bytes(rng.getrandbits(8) for _ in range(len(raw)))
        return cls(pad, xor_bytes(raw, pad), len(raw))

    def combine(self) -> PrivateKey:
        if len(self.agent_share) != len(self.server_share):
            raise SplitKeyError("share length mismatch")
        return PrivateKey.from_bytes(
            xor_bytes(self.agent_share, self.server_share)
        )

    def refresh(self, rng: random.Random) -> None:
        """Proactive re-randomization: both shares change, the key does
        not; shares stolen before a refresh become worthless."""
        delta = bytes(rng.getrandbits(8) for _ in range(self._key_len))
        self.agent_share = xor_bytes(self.agent_share, delta)
        self.server_share = xor_bytes(self.server_share, delta)


class KeyHalfServer:
    """The authserver-side custodian of server shares.

    Shares are indexed by the SHA-1 of the agent's share, so the server
    cannot be tricked into handing a share to the wrong agent — and the
    lookup tag itself reveals nothing about the agent's share beyond
    20 hash bytes.
    """

    def __init__(self) -> None:
        self._shares: dict[bytes, bytes] = {}
        self.requests = 0

    @staticmethod
    def _tag(agent_share: bytes) -> bytes:
        return sha1(b"split-key-tag" + agent_share)

    def store(self, pair: SplitKeyPair) -> None:
        self._shares[self._tag(pair.agent_share)] = pair.server_share

    def fetch(self, agent_share: bytes) -> bytes:
        self.requests += 1
        tag = self._tag(agent_share)
        share = self._shares.get(tag)
        if share is None:
            raise SplitKeyError("no share stored for this agent")
        return share

    def drop(self, agent_share: bytes) -> None:
        """Revoke: after this, the agent's share alone signs nothing."""
        self._shares.pop(self._tag(agent_share), None)


class SplitKeyAgent:
    """An agent-compatible signer that never stores the whole key.

    Implements the same ``sign_request`` interface as
    :class:`repro.core.agent.Agent`, so the client master can use it
    unchanged.  Resolution/revocation hooks delegate to an inner agent
    if provided.
    """

    def __init__(self, user: str, agent_share: bytes,
                 half_server: KeyHalfServer, inner=None) -> None:
        self.user = user
        self._share = agent_share
        self._half_server = half_server
        self._inner = inner
        self.audit_log: list[AuditEntry] = []

    @property
    def key_count(self) -> int:
        return 1

    def sign_request(self, authinfo_bytes: bytes, seqno: int,
                     key_index: int = 0):
        yield from ()
        if key_index != 0:
            raise AgentRefused("split-key agent holds exactly one key")
        try:
            server_share = self._half_server.fetch(self._share)
        except SplitKeyError as exc:
            raise AgentRefused(str(exc)) from None
        key = PrivateKey.from_bytes(xor_bytes(self._share, server_share))
        authid = sha1(authinfo_bytes)
        signed = proto.SignedAuthReq.pack(proto.SignedAuthReq.make(
            req_type="SignedAuthReq", authid=authid, seqno=seqno,
        ))
        blob = proto.AuthMsg.pack(proto.AuthMsg.make(
            signed_req=signed,
            public_key=key.public_key.to_bytes(),
            signature=key.sign(signed),
        ))
        del key  # the reconstituted key lives for one signature only
        self.audit_log.append(
            AuditEntry("sign-split", f"authid={authid.hex()[:12]} seqno={seqno}")
        )
        return blob

    def resolve(self, name: str):
        if self._inner is not None:
            return (yield from self._inner.resolve(name))

    def check_revoked(self, location: str, hostid: bytes):
        if self._inner is not None:
            return (yield from self._inner.check_revoked(location, hostid))
        return proto.REVCHECK_CLEAR, None
