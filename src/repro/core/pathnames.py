"""Self-certifying pathnames — the paper's central idea.

Every SFS file system is accessible under ``/sfs/Location:HostID`` where
*Location* names the server (DNS name or IP address) and *HostID* is a
cryptographic hash of the server's public key and Location:

    HostID = SHA-1("HostInfo", Location, PublicKey,
                   "HostInfo", Location, PublicKey)

The input is deliberately duplicated: "Any collision of the duplicate
input SHA-1 is also a collision of SHA-1.  Thus, duplicating SHA-1's
input certainly does not harm security; it could conceivably help
security in the event that simple SHA-1 falls to cryptanalysis."
(paper footnote 1)

HostIDs are rendered in the SFS base-32 alphabet (32 characters for 20
bytes).  Because the pathname pins the public key, *no key management
machinery is needed inside the file system*: the name itself suffices to
authenticate the server.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..crypto.rabin import PublicKey
from ..crypto.sha1 import sha1_concat
from ..crypto.util import sfs_base32_decode, sfs_base32_encode

SFS_ROOT = "/sfs"
HOSTID_LEN = 20
HOSTID_B32_LEN = 32

_LOCATION_RE = re.compile(r"^[a-zA-Z0-9][a-zA-Z0-9.\-]*$")


class PathnameError(ValueError):
    """Raised for malformed self-certifying pathnames."""


def compute_hostid(location: str, public_key: PublicKey) -> bytes:
    """The 20-byte HostID binding *location* to *public_key*."""
    if not _LOCATION_RE.match(location):
        raise PathnameError(f"invalid Location {location!r}")
    key_bytes = public_key.to_bytes()
    host_info = (b"HostInfo", len(location).to_bytes(4, "big"),
                 location.encode(), len(key_bytes).to_bytes(4, "big"),
                 key_bytes)
    return sha1_concat(*host_info * 2)  # the deliberate duplication


def hostid_to_text(hostid: bytes) -> str:
    """Render a HostID in SFS base-32 (32 characters)."""
    if len(hostid) != HOSTID_LEN:
        raise PathnameError("HostID must be 20 bytes")
    return sfs_base32_encode(hostid)


def hostid_from_text(text: str) -> bytes:
    """Parse an SFS base-32 HostID."""
    if len(text) != HOSTID_B32_LEN:
        raise PathnameError(
            f"HostID must be {HOSTID_B32_LEN} base-32 characters, got {len(text)}"
        )
    try:
        return sfs_base32_decode(text, HOSTID_LEN)
    except ValueError as exc:
        raise PathnameError(str(exc)) from None


@dataclass(frozen=True)
class SelfCertifyingPath:
    """A parsed ``/sfs/Location:HostID[/rest]`` pathname."""

    location: str
    hostid: bytes
    rest: str = ""

    @property
    def hostid_text(self) -> str:
        return hostid_to_text(self.hostid)

    @property
    def mount_name(self) -> str:
        """The ``Location:HostID`` directory name under /sfs."""
        return f"{self.location}:{self.hostid_text}"

    def __str__(self) -> str:
        path = f"{SFS_ROOT}/{self.mount_name}"
        if self.rest:
            path += "/" + self.rest.lstrip("/")
        return path

    def matches_key(self, public_key: PublicKey) -> bool:
        """Does *public_key* (with our Location) hash to this HostID?

        This is the entire server-authentication check in SFS.
        """
        return compute_hostid(self.location, public_key) == self.hostid


def make_path(location: str, public_key: PublicKey, rest: str = "") -> SelfCertifyingPath:
    """Build the self-certifying pathname for a server's key."""
    return SelfCertifyingPath(location, compute_hostid(location, public_key), rest)


def parse_mount_name(name: str) -> SelfCertifyingPath | None:
    """Parse a ``Location:HostID`` component; None if it isn't one."""
    if ":" not in name:
        return None
    location, _, hostid_text = name.rpartition(":")
    if not location or not _LOCATION_RE.match(location):
        return None
    if len(hostid_text) != HOSTID_B32_LEN:
        return None
    try:
        hostid = hostid_from_text(hostid_text)
    except PathnameError:
        return None
    return SelfCertifyingPath(location, hostid)


def parse_path(path: str) -> SelfCertifyingPath:
    """Parse a full ``/sfs/Location:HostID/...`` pathname."""
    if not path.startswith(SFS_ROOT + "/"):
        raise PathnameError(f"not an /sfs path: {path!r}")
    remainder = path[len(SFS_ROOT) + 1 :]
    mount_name, _, rest = remainder.partition("/")
    parsed = parse_mount_name(mount_name)
    if parsed is None:
        raise PathnameError(f"not a self-certifying name: {mount_name!r}")
    return SelfCertifyingPath(parsed.location, parsed.hostid, rest)
