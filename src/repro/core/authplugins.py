"""Pluggable user-authentication protocols.

"The agent and authserver pass messages to each other through SFS using
a (possibly multi-round) protocol opaque to the file system software
itself. ... Thus, one can add new user authentication protocols to SFS
without modifying the actual file system software." (paper section 2.5)

The file server relays envelope-wrapped messages between agent and
authserver; the authserver dispatches on the envelope's protocol name to
an :class:`AuthProtocol` plugin.  Two plugins live here:

* the implicit "pubkey" protocol (the figure-4 signed request — handled
  natively by :meth:`AuthServer.validate`, no envelope needed);
* :class:`HmacPasswordProtocol`, a *two-round* challenge-response over
  an eksblowfish-hardened password, exercising the multi-round relay:

      agent -> server:  {user}                     (round 1)
      server -> agent:  challenge nonce            (LOGIN_MORE)
      agent -> server:  {user, HMAC(K, challenge‖authid‖seqno)}
      server -> agent:  credentials                (LOGIN_OK)

  where K = eksblowfish(password, salt=user).  The MAC binds the
  session's AuthID and the round's sequence number, so — like the
  figure-4 protocol — transcripts cannot be replayed across sessions.
"""

from __future__ import annotations

import random
from typing import Protocol

from ..crypto.eksblowfish import harden_password
from ..crypto.mac import hmac_sha1
from ..crypto.util import constant_time_eq
from ..rpc.xdr import FixedOpaque, String, Struct, XdrError
from . import proto
from .agent import AgentRefused
from .authserv import AuthServer

#: Outcomes an AuthProtocol step may produce.
OK = "ok"
MORE = "more"
FAIL = "fail"

HMAC_PROTOCOL = "hmac-password"
_HMAC_COST = 2

HmacRound1 = Struct("HmacRound1", [("user", String(64))])
HmacRound2 = Struct(
    "HmacRound2", [("user", String(64)), ("mac", FixedOpaque(20))]
)


class AuthProtocol(Protocol):
    """Server-side plugin interface: one step of an opaque protocol.

    Returns ``(OK, UserRecord)``, ``(MORE, challenge_bytes)``, or
    ``(FAIL, None)``.  *state* is a per-connection dict the plugin may
    use for continuation data.
    """

    name: str

    def step(self, body: bytes, authid: bytes, seqno: int,
             state: dict) -> tuple[str, object]: ...


def wrap_envelope(protocol: str, body: bytes) -> bytes:
    return proto.AuthEnvelope.pack(proto.AuthEnvelope.make(
        magic=proto.AUTH_ENVELOPE_MAGIC, protocol=protocol, body=body,
    ))


def unwrap_envelope(blob: bytes) -> tuple[str, bytes] | None:
    """Parse an envelope; None if this is a legacy (pubkey) message."""
    try:
        envelope = proto.AuthEnvelope.unpack(blob)
    except XdrError:
        return None
    if envelope.magic != proto.AUTH_ENVELOPE_MAGIC:
        return None
    return envelope.protocol, envelope.body


# --- the server-side plugin -------------------------------------------------


class HmacPasswordProtocol:
    """Challenge-response passwords, server side."""

    name = HMAC_PROTOCOL

    def __init__(self, authserver: AuthServer, rng: random.Random) -> None:
        self._authserver = authserver
        self._rng = rng
        self._secrets: dict[str, bytes] = {}

    def enroll(self, user: str, password: bytes) -> None:
        """Store the hardened secret for *user* (who must have an
        account in the authserver's databases)."""
        self._secrets[user] = harden_password(
            password, user.encode(), _HMAC_COST
        )

    def step(self, body: bytes, authid: bytes, seqno: int,
             state: dict) -> tuple[str, object]:
        try:
            round2 = proto_try(HmacRound2, body)
            if round2 is not None:
                return self._finish(round2, authid, seqno, state)
            round1 = HmacRound1.unpack(body)
        except XdrError:
            return FAIL, None
        if round1.user not in self._secrets:
            self._authserver.security_log.append(
                f"hmac-password: unknown user {round1.user!r}"
            )
            return FAIL, None
        challenge = bytes(self._rng.getrandbits(8) for _ in range(20))
        state["challenge"] = challenge
        state["user"] = round1.user
        return MORE, challenge

    def _finish(self, round2, authid: bytes, seqno: int,
                state: dict) -> tuple[str, object]:
        challenge = state.pop("challenge", None)
        expected_user = state.pop("user", None)
        if challenge is None or round2.user != expected_user:
            return FAIL, None
        secret = self._secrets.get(round2.user)
        if secret is None:
            return FAIL, None
        expected = hmac_sha1(
            secret, challenge + authid + seqno.to_bytes(4, "big")
        )
        if not constant_time_eq(round2.mac, expected):
            self._authserver.security_log.append(
                f"hmac-password: bad response for {round2.user!r}"
            )
            return FAIL, None
        for db in self._authserver.databases:
            record = db.lookup_user(round2.user)
            if record is not None:
                return OK, record
        return FAIL, None


def proto_try(codec, blob: bytes):
    """Unpack or None (round discrimination by shape)."""
    try:
        return codec.unpack(blob)
    except XdrError:
        return None


# --- the client-side agent ----------------------------------------------------


class HmacPasswordAgent:
    """An agent speaking the challenge-response protocol.

    Implements the same surface the client master expects of any agent
    (``sign_request`` / ``continue_auth`` / ``resolve`` /
    ``check_revoked``) — proving that "users can replace their agents at
    will" extends to entirely different authentication protocols.
    """

    def __init__(self, user: str, password: bytes) -> None:
        self.user = user
        self._secret = harden_password(password, user.encode(), _HMAC_COST)
        self.rounds = 0

    @property
    def key_count(self) -> int:
        return 1

    def sign_request(self, authinfo_bytes: bytes, seqno: int,
                     key_index: int = 0):
        yield from ()
        if key_index != 0:
            raise AgentRefused("hmac-password agent has one identity")
        self.rounds += 1
        return wrap_envelope(
            HMAC_PROTOCOL,
            HmacRound1.pack(HmacRound1.make(user=self.user)),
        )

    def continue_auth(self, challenge: bytes, authinfo_bytes: bytes,
                      seqno: int) -> bytes:
        from ..crypto.sha1 import sha1

        self.rounds += 1
        authid = sha1(authinfo_bytes)
        mac = hmac_sha1(
            self._secret, challenge + authid + seqno.to_bytes(4, "big")
        )
        return wrap_envelope(
            HMAC_PROTOCOL,
            HmacRound2.pack(HmacRound2.make(user=self.user, mac=mac)),
        )

    def resolve(self, name: str):
        yield from ()
        return None

    def check_revoked(self, location: str, hostid: bytes):
        yield from ()
        return proto.REVCHECK_CLEAR, None
