"""SFS wire-protocol definitions (XDR structures and program numbers).

Everything SFS hashes, signs, or encrypts is defined as an XDR structure
and the cryptographic function is computed over the marshaled bytes
(paper section 3.2).  This module is the single source of truth for:

* the connection / key-negotiation program spoken in plaintext before
  the secure channel comes up (paper figure 3),
* the read-write file system program (NFS 3 procedures plus LOGIN — the
  paper's dialect with leases and callbacks),
* the client-side callback program (lease invalidation),
* the authserver program (LOGIN validation, SRP, key registration),
* the agent program (auth requests, /sfs name resolution, revocation
  checks), and
* revocation certificates and forwarding pointers (paper section 2.6).
"""

from __future__ import annotations

from ..rpc.xdr import (
    Array,
    Bool,
    FixedOpaque,
    Opaque,
    Optional,
    String,
    Struct,
    UInt32,
    Union,
)  # noqa: F401 - Bool used by the libsfs structures below

# --- program numbers ------------------------------------------------------

SFS_CONNECT_PROGRAM = 344440  # plaintext: connect + key negotiation
SFS_RW_PROGRAM = 344444      # secure channel: NFS3-like + LOGIN
SFS_CB_PROGRAM = 344446      # server->client lease invalidation
SFS_AUTHSERV_PROGRAM = 344442  # authserver (reached via service dispatch)
SFS_AGENT_PROGRAM = 344448   # client->agent (local, per-user)
SFS_VERSION = 1

# Connection services (paper: "the service it requests (currently
# fileserver or authserver)").
SERVICE_FILESERVER = 1
SERVICE_AUTHSERV = 2
SERVICE_READONLY = 3

# Dialects a server master can hand connections to.
DIALECT_RW = "sfs-rw-1"
DIALECT_RO = "sfs-ro-1"

# RPC auth flavor carrying an SFS authentication number.
AUTH_SFS = 390000

# --- connect + key negotiation --------------------------------------------

HostIdOpaque = FixedOpaque(20)

ConnectArgs = Struct(
    "ConnectArgs",
    [
        ("service", UInt32),
        ("location", String(255)),
        ("hostid", HostIdOpaque),
        ("extensions", Array(String(255), 16)),
    ],
)

ServInfo = Struct(
    "ServInfo",
    [
        ("location", String(255)),
        ("public_key", Opaque()),
        ("dialect", String(64)),
        ("lease_duration", UInt32),
    ],
)

# Connect result discriminants
CONNECT_OK = 0
CONNECT_REDIRECT = 1
CONNECT_REVOKED = 2
CONNECT_NOENT = 3

SignedCertificate = Struct(
    "SignedCertificate",
    [("body", Opaque()), ("public_key", Opaque()), ("signature", Opaque())],
)

ConnectRes = Union(
    "ConnectRes",
    {
        CONNECT_OK: ServInfo,
        CONNECT_REDIRECT: SignedCertificate,
        CONNECT_REVOKED: SignedCertificate,
        CONNECT_NOENT: None,
    },
)

EncryptArgs = Struct(
    "EncryptArgs",
    [
        ("client_pubkey", Opaque()),        # short-lived K_C
        ("encrypted_keyhalves", Opaque()),  # {k_C1, k_C2} under K_S
    ],
)

EncryptRes = Struct(
    "EncryptRes",
    [
        ("encrypted_keyhalves", Opaque()),  # {k_S1, k_S2} under K_C
    ],
)

# Re-keying (channel resynchronization).  Shaped like ENCRYPT plus an
# HMAC-SHA1 tag keyed by the *current* SessionID over the new key
# material: only the endpoint of the existing session can produce it, so
# a network attacker who forces a desync cannot substitute their own
# negotiation and inherit the session's authnos.
RekeyArgs = Struct(
    "RekeyArgs",
    [
        ("client_pubkey", Opaque()),        # fresh or reused K_C
        ("encrypted_keyhalves", Opaque()),  # {k_C1, k_C2} under K_S
        ("auth", FixedOpaque(20)),          # HMAC(SessionID, pubkey ‖ halves)
    ],
)

REKEY_OK = 0
REKEY_DENIED = 1

RekeyRes = Union(
    "RekeyRes",
    {
        REKEY_OK: EncryptRes,
        REKEY_DENIED: None,
    },
)

PROC_CONNECT = 1
PROC_ENCRYPT = 2
PROC_REKEY = 3

# --- user authentication (paper figure 4) -----------------------------------

# AuthInfo identifies the session and file system being authenticated to;
# its SHA-1 hash is the AuthID the agent actually signs (together with the
# sequence number), binding every request to one session.
AuthInfo = Struct(
    "AuthInfo",
    [
        ("auth_type", String(16)),   # "AuthInfo"
        ("service", String(8)),      # "FS"
        ("location", String(255)),
        ("hostid", HostIdOpaque),
        ("sessionid", FixedOpaque(20)),
    ],
)

SignedAuthReq = Struct(
    "SignedAuthReq",
    [
        ("req_type", String(16)),    # "SignedAuthReq"
        ("authid", FixedOpaque(20)),
        ("seqno", UInt32),
    ],
)

AuthMsg = Struct(
    "AuthMsg",
    [
        ("signed_req", Opaque()),    # marshaled SignedAuthReq
        ("public_key", Opaque()),    # the user's K_U
        ("signature", Opaque()),     # Rabin signature over signed_req
    ],
)

LoginArgs = Struct(
    "LoginArgs",
    [("seqno", UInt32), ("authmsg", Opaque())],
)

LOGIN_OK = 0
LOGIN_FAILED = 1
LOGIN_MORE = 2  # multi-round protocols: an opaque challenge comes back

LoginOk = Struct("LoginOk", [("authno", UInt32)])
LoginRes = Union(
    "LoginRes",
    {LOGIN_OK: LoginOk, LOGIN_FAILED: None, LOGIN_MORE: Opaque()},
)

# Authentication messages other than the classic public-key AuthMsg are
# wrapped in an envelope naming their protocol; the file server relays
# them without interpretation ("a (possibly multi-round) protocol opaque
# to the file system software itself", section 2.5).
AUTH_ENVELOPE_MAGIC = "SFSAuthEnvelope"
AuthEnvelope = Struct(
    "AuthEnvelope",
    [
        ("magic", String(24)),
        ("protocol", String(32)),
        ("body", Opaque()),
    ],
)

PROC_LOGIN = 100
PROC_LOGOUT = 101
LogoutArgs = Struct("LogoutArgs", [("authno", UInt32)])

# --- libsfs id/name mapping (paper section 3.3) ------------------------------

IdToNameArgs = Struct(
    "IdToNameArgs", [("is_group", Bool), ("numeric_id", UInt32)]
)
NameToIdArgs = Struct(
    "NameToIdArgs", [("is_group", Bool), ("name", String(64))]
)
IDMAP_OK = 0
IDMAP_NOENT = 1
IdToNameRes = Union("IdToNameRes", {IDMAP_OK: String(64), IDMAP_NOENT: None})
NameToIdRes = Union("NameToIdRes", {IDMAP_OK: UInt32, IDMAP_NOENT: None})

PROC_IDTONAME = 102
PROC_NAMETOID = 103

# --- callback program (lease invalidation, paper section 3.3) ---------------

InvalidateArgs = Struct("InvalidateArgs", [("handle", Opaque(64))])
PROC_INVALIDATE = 1

# --- authserver program ------------------------------------------------------

Credentials = Struct(
    "Credentials",
    [
        ("user", String(64)),
        ("uid", UInt32),
        ("gid", UInt32),
        ("groups", Array(UInt32, 16)),
    ],
)

ValidateArgs = Struct(
    "ValidateArgs",
    [("authid", FixedOpaque(20)), ("seqno", UInt32), ("authmsg", Opaque())],
)

VALIDATE_OK = 0
VALIDATE_FAILED = 1

ValidateOk = Struct(
    "ValidateOk",
    [("credentials", Credentials), ("seqno", UInt32)],
)
ValidateRes = Union(
    "ValidateRes", {VALIDATE_OK: ValidateOk, VALIDATE_FAILED: None}
)

SrpInitArgs = Struct(
    "SrpInitArgs", [("user", String(64)), ("A", Opaque())]
)
SRP_OK = 0
SRP_FAILED = 1
SrpInitOk = Struct(
    "SrpInitOk",
    [("salt", Opaque(64)), ("B", Opaque()), ("cost", UInt32)],
)
SrpInitRes = Union("SrpInitRes", {SRP_OK: SrpInitOk, SRP_FAILED: None})

SrpConfirmArgs = Struct("SrpConfirmArgs", [("m1", FixedOpaque(20))])
SrpConfirmOk = Struct(
    "SrpConfirmOk",
    [
        ("m2", FixedOpaque(20)),
        # Sealed under the SRP session key: the server's self-certifying
        # pathname and (optionally) the user's encrypted private key.
        ("sealed_payload", Opaque()),
    ],
)
SrpConfirmRes = Union(
    "SrpConfirmRes", {SRP_OK: SrpConfirmOk, SRP_FAILED: None}
)

SrpPayload = Struct(
    "SrpPayload",
    [
        ("pathname", String(512)),
        ("encrypted_privkey", Opaque()),
    ],
)

RegisterArgs = Struct(
    "RegisterArgs",
    [
        ("user", String(64)),
        ("public_key", Opaque()),
        ("srp_salt", Opaque(64)),
        ("srp_verifier", Opaque()),
        ("srp_cost", UInt32),
        ("encrypted_privkey", Opaque()),
        ("unix_password", String(128)),  # for opt-in initial registration
    ],
)
REGISTER_OK = 0
REGISTER_DENIED = 1
RegisterRes = Union("RegisterRes", {REGISTER_OK: None, REGISTER_DENIED: None})

PROC_VALIDATE = 1
PROC_SRP_INIT = 2
PROC_SRP_CONFIRM = 3
PROC_REGISTER = 4

# --- agent program (client master <-> per-user agent) ------------------------

SignReqArgs = Struct(
    "SignReqArgs",
    [
        ("authinfo_bytes", Opaque()),
        ("seqno", UInt32),
        ("key_index", UInt32),
        # "a field reserved for the path of processes and machines
        # through which the request arrived at the agent" (section 2.5.1)
        ("via", Array(String(128), 16)),
    ],
)
SIGN_OK = 0
SIGN_REFUSED = 1
SignReqRes = Union("SignReqRes", {SIGN_OK: Opaque(), SIGN_REFUSED: None})

# Name resolution: the client notifies the agent when a user accesses a
# non-self-certifying name under /sfs; the agent may answer with a symlink
# target created on the fly (paper section 2.3).
ResolveArgs = Struct("ResolveArgs", [("name", String(255))])
RESOLVE_LINK = 0
RESOLVE_NONE = 1
ResolveRes = Union(
    "ResolveRes", {RESOLVE_LINK: String(512), RESOLVE_NONE: None}
)

# Revocation check: before the client mounts a HostID, the user's agent
# may produce a revocation certificate or request a block.
RevcheckArgs = Struct(
    "RevcheckArgs", [("location", String(255)), ("hostid", HostIdOpaque)]
)
REVCHECK_CLEAR = 0
REVCHECK_REVOKED = 1
REVCHECK_BLOCKED = 2
RevcheckRes = Union(
    "RevcheckRes",
    {
        REVCHECK_CLEAR: None,
        REVCHECK_REVOKED: SignedCertificate,
        REVCHECK_BLOCKED: None,
    },
)

PROC_SIGNREQ = 1
PROC_RESOLVE = 2
PROC_REVCHECK = 3

# --- revocation certificates and forwarding pointers (section 2.6) ----------

# Body layout: {"PathRevoke", Location, redirect}.  A NULL redirect makes
# it a revocation certificate; a present redirect makes it a forwarding
# pointer.  "A revocation certificate always overrules a forwarding
# pointer for the same HostID."
RevokeBody = Struct(
    "RevokeBody",
    [
        ("msg_type", String(16)),    # "PathRevoke"
        ("location", String(255)),
        ("redirect", Optional(String(512))),
    ],
)

# --- read-only dialect (section 2.4 "certification authorities") ------------

# The signed root of a read-only file system.  The signature is computed
# offline at publication time; servers (and untrusted mirrors) need no
# on-line private key.
ReadOnlyRoot = Struct(
    "ReadOnlyRoot",
    [
        ("msg_type", String(16)),    # "RoRoot"
        ("location", String(255)),
        ("root_digest", FixedOpaque(20)),
        ("serial", UInt32),          # version / freshness counter
    ],
)

GetRootRes = Struct(
    "GetRootRes",
    [("root_bytes", Opaque()), ("signature", Opaque())],
)

GetDataArgs = Struct("GetDataArgs", [("digest", FixedOpaque(20))])
GETDATA_OK = 0
GETDATA_NOENT = 1
GetDataRes = Union("GetDataRes", {GETDATA_OK: Opaque(), GETDATA_NOENT: None})

PROC_GETROOT = 1
PROC_GETDATA = 2

SFS_RO_PROGRAM = 344445
