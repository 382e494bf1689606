"""Symmetric sealing used outside the session channel.

Two places in SFS move secrets under a shared symmetric key that is *not*
a channel session key:

* the authserver sends the user's self-certifying pathname and encrypted
  private key under the SRP-negotiated session key (paper section 2.4),
* sfskey stores the user's private key encrypted under an
  eksblowfish-hardened password (section 2.5.2).

Both use this ARC4 + HMAC-SHA1 encrypt-then-MAC construction.
"""

from __future__ import annotations

from ..crypto.arc4 import ARC4
from ..crypto.mac import MAC_LEN, hmac_sha1
from ..crypto.sha1 import sha1
from ..crypto.util import constant_time_eq


class SealError(Exception):
    """The sealed blob failed authentication."""


def seal(key: bytes, plaintext: bytes, label: bytes = b"") -> bytes:
    """Encrypt-then-MAC *plaintext* under *key* (domain-separated by label)."""
    enc_key = sha1(b"seal-enc" + label + key)
    mac_key = sha1(b"seal-mac" + label + key)
    ciphertext = bytes(ARC4(enc_key).encrypt(plaintext))
    return ciphertext + hmac_sha1(mac_key, ciphertext)


def unseal(key: bytes, blob: bytes, label: bytes = b"") -> bytes:
    """Verify and decrypt a sealed blob; raises SealError on tampering."""
    if len(blob) < MAC_LEN:
        raise SealError("sealed blob too short")
    ciphertext, tag = blob[:-MAC_LEN], blob[-MAC_LEN:]
    mac_key = sha1(b"seal-mac" + label + key)
    if not constant_time_eq(tag, hmac_sha1(mac_key, ciphertext)):
        raise SealError("seal authentication failed")
    enc_key = sha1(b"seal-enc" + label + key)
    return bytes(ARC4(enc_key).decrypt(ciphertext))
