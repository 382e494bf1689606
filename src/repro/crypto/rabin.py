"""The Rabin-Williams public-key cryptosystem, from scratch.

The paper (section 3.1.3) uses Rabin for both encryption and signing:
"Like low-exponent RSA, encryption and signature verification are
particularly fast in Rabin because they do not require modular
exponentiation" — both are a single modular squaring.  Security rests only
on the hardness of factoring.

Key structure (Williams' variant): ``n = p*q`` with ``p = 3 (mod 8)`` and
``q = 7 (mod 8)``.  For such *n*, ``jacobi(-1, n) = 1`` with -1 a
non-residue mod both primes, and ``jacobi(2, n) = -1``; consequently for
any *m* coprime to *n* exactly one of ``m, -m, 2m, -2m`` is a quadratic
residue, which gives every (padded) message a square root after a cheap
"tweak".

* Encryption is OAEP-style (SHA-1 based, as in the plaintext-aware scheme
  the paper cites): pad, square mod n; decryption takes the four square
  roots via CRT and the padding check picks the right one.
* Signatures pad the message hash deterministically to the full modulus
  width (full-domain hash via MGF1/SHA-1), tweak it to a residue, and
  publish the root together with the two tweak bits.  Verification is one
  squaring plus a padding re-computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .numtheory import (
    crt_pair,
    gen_prime,
    jacobi,
    modinv,
    sqrt_mod_blum_prime,
)
from .sha1 import sha1
from .util import bytes_to_int, constant_time_eq, int_to_bytes

DEFAULT_KEY_BITS = 768


class RabinError(Exception):
    """Raised on malformed ciphertexts, signatures, or keys."""


def mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation function built on SHA-1 (PKCS#1-style)."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += sha1(seed + counter.to_bytes(4, "big"))
        counter += 1
    return bytes(out[:length])


@dataclass(frozen=True)
class PublicKey:
    """A Rabin-Williams public key: just the modulus."""

    n: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def size(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Serialize as length-prefixed big-endian modulus."""
        raw = int_to_bytes(self.n)
        return len(raw).to_bytes(4, "big") + raw

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        if len(data) < 4:
            raise RabinError("truncated public key")
        length = int.from_bytes(data[:4], "big")
        if len(data) != 4 + length:
            raise RabinError("public key length mismatch")
        n = bytes_to_int(data[4:])
        if n < 3 or n % 2 == 0:
            raise RabinError("implausible public key modulus")
        return cls(n)

    # --- encryption -----------------------------------------------------

    def encrypt(self, message: bytes, rng: random.Random) -> bytes:
        """OAEP-pad *message* and square it modulo n."""
        padded = _oaep_encode(message, self.size, rng)
        m = bytes_to_int(padded)
        c = m * m % self.n
        return int_to_bytes(c, self.size)

    # --- signature verification ----------------------------------------

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a Rabin-Williams signature (squaring, no exponentiation)."""
        try:
            e, f, s = _split_signature(signature, self.size)
        except RabinError:
            return False
        if s >= self.n:
            return False
        target = _fdh_encode(message, self.n)
        # s*s = e * f * m (mod n), so recover m = e * f^-1 * s^2.  With
        # e in {1, -1} its own inverse and f in {1, 2}, f^-1 for f == 2 is
        # (n + 1) / 2 — still no modular exponentiation.
        f_inv = 1 if f == 1 else (self.n + 1) // 2
        candidate = s * s % self.n * e * f_inv % self.n
        return candidate == target


@dataclass(frozen=True)
class PrivateKey:
    """A Rabin-Williams private key: the factorization of n."""

    p: int
    q: int
    #: q^-1 mod p, which every CRT recombination needs: paid once a key.
    q_inv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p % 8 != 3 or self.q % 8 != 7:
            raise RabinError("Rabin-Williams requires p=3 (mod 8), q=7 (mod 8)")
        object.__setattr__(self, "q_inv", modinv(self.q, self.p))

    @property
    def n(self) -> int:
        return self.p * self.q

    @property
    def public_key(self) -> PublicKey:
        return PublicKey(self.p * self.q)

    def to_bytes(self) -> bytes:
        """Serialize both primes, length-prefixed."""
        rp = int_to_bytes(self.p)
        rq = int_to_bytes(self.q)
        return (
            len(rp).to_bytes(4, "big") + rp + len(rq).to_bytes(4, "big") + rq
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        if len(data) < 8:
            raise RabinError("truncated private key")
        lp = int.from_bytes(data[:4], "big")
        p = bytes_to_int(data[4 : 4 + lp])
        rest = data[4 + lp :]
        lq = int.from_bytes(rest[:4], "big")
        q = bytes_to_int(rest[4 : 4 + lq])
        if rest[4 + lq :]:
            raise RabinError("trailing bytes in private key")
        return cls(p, q)

    # --- decryption -----------------------------------------------------

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Take the four square roots and return the one that OAEP-decodes."""
        n = self.n
        size = self.public_key.size
        if len(ciphertext) != size:
            raise RabinError("ciphertext has wrong length")
        c = bytes_to_int(ciphertext)
        if c >= n:
            raise RabinError("ciphertext out of range")
        for root in self._square_roots(c):
            try:
                return _oaep_decode(int_to_bytes(root, size), size)
            except RabinError:
                continue
        raise RabinError("no square root yields valid OAEP padding")

    def _square_roots(self, c: int) -> list[int]:
        rp = sqrt_mod_blum_prime(c % self.p, self.p)
        rq = sqrt_mod_blum_prime(c % self.q, self.q)
        if rp * rp % self.p != c % self.p or rq * rq % self.q != c % self.q:
            return []
        n = self.n
        roots = set()
        for sp in (rp, self.p - rp):
            for sq in (rq, self.q - rq):
                roots.add(crt_pair(sp, self.p, sq, self.q, self.q_inv))
        return sorted(roots)

    # --- signing ---------------------------------------------------------

    def sign(self, message: bytes) -> bytes:
        """Sign: tweak the padded hash to a residue, take a square root.

        The signature is ``tweak_byte || root`` where the tweak byte
        encodes (e, f) with e in {1, -1} and f in {1, 2} such that
        ``e * f * m`` is a quadratic residue mod n.
        """
        n = self.n
        m = _fdh_encode(message, n)
        e, f = self._tweak(m)
        target = e * f % n * m % n
        rp = sqrt_mod_blum_prime(target % self.p, self.p)
        rq = sqrt_mod_blum_prime(target % self.q, self.q)
        s = crt_pair(rp, self.p, rq, self.q, self.q_inv)
        if s * s % n != target:
            raise RabinError("internal error: padded hash not a residue")
        tweak = (0 if e == 1 else 2) | (0 if f == 1 else 1)
        return bytes([tweak]) + int_to_bytes(s, self.public_key.size)

    def _tweak(self, m: int) -> tuple[int, int]:
        """Choose (e, f) making ``e*f*m`` a residue mod both primes."""
        jp = jacobi(m % self.p, self.p)
        jq = jacobi(m % self.q, self.q)
        if jp == 0 or jq == 0:
            # Vanishingly unlikely: the hash shares a factor with n.
            raise RabinError("message hash not coprime to modulus")
        # Both primes are 3 (mod 4), so multiplying by -1 flips the symbol
        # modulo both.  2 is a non-residue mod p (p = 3 mod 8) but a residue
        # mod q (q = 7 mod 8), so multiplying by 2 flips only the p symbol,
        # and by -2 only the q symbol.
        if jp == 1 and jq == 1:
            return 1, 1
        if jp == -1 and jq == -1:
            return -1, 1
        if jp == -1 and jq == 1:
            return 1, 2
        return -1, 2


def _split_signature(signature: bytes, size: int) -> tuple[int, int, int]:
    if len(signature) != 1 + size:
        raise RabinError("signature has wrong length")
    tweak = signature[0]
    if tweak > 3:
        raise RabinError("invalid tweak byte")
    e = -1 if tweak & 2 else 1
    f = 2 if tweak & 1 else 1
    return e, f, bytes_to_int(signature[1:])


def generate_key(bits: int = DEFAULT_KEY_BITS, rng: random.Random | None = None) -> PrivateKey:
    """Generate a Rabin-Williams key pair with an n of roughly *bits* bits."""
    rng = rng or random.Random()
    half = bits // 2
    p = gen_prime(half, rng, condition=lambda c: c % 8 == 3)
    q = gen_prime(bits - half, rng, condition=lambda c: c % 8 == 7)
    while q == p:
        q = gen_prime(bits - half, rng, condition=lambda c: c % 8 == 7)
    return PrivateKey(p, q)


# --- padding -------------------------------------------------------------

_OAEP_SEED_LEN = 20
_OAEP_HASH_LEN = 20


def _oaep_encode(message: bytes, size: int, rng: random.Random) -> bytes:
    """EME-OAEP (SHA-1) producing ``size - 1`` bytes so the value < n.

    Layout: ``00 || masked_seed(20) || masked_db`` where
    ``db = lhash(20) || 00.. || 01 || message``.  The leading zero byte
    keeps the padded integer below the modulus.
    """
    db_len = size - 1 - _OAEP_SEED_LEN
    max_message = db_len - _OAEP_HASH_LEN - 1
    if max_message < 1:
        raise RabinError("modulus too small for OAEP")
    if len(message) > max_message:
        raise RabinError(
            f"message too long for OAEP ({len(message)} > {max_message})"
        )
    lhash = sha1(b"RabinOAEP")
    padding = b"\x00" * (max_message - len(message))
    db = lhash + padding + b"\x01" + message
    seed = bytes(rng.getrandbits(8) for _ in range(_OAEP_SEED_LEN))
    masked_db = bytes(a ^ b for a, b in zip(db, mgf1(seed, db_len)))
    masked_seed = bytes(
        a ^ b for a, b in zip(seed, mgf1(masked_db, _OAEP_SEED_LEN))
    )
    return b"\x00" + masked_seed + masked_db


def _oaep_decode(padded: bytes, size: int) -> bytes:
    if len(padded) != size:
        raise RabinError("padded block has wrong length")
    if padded[0] != 0:
        raise RabinError("bad OAEP leading byte")
    masked_seed = padded[1 : 1 + _OAEP_SEED_LEN]
    masked_db = padded[1 + _OAEP_SEED_LEN :]
    seed = bytes(
        a ^ b for a, b in zip(masked_seed, mgf1(masked_db, _OAEP_SEED_LEN))
    )
    db = bytes(a ^ b for a, b in zip(masked_db, mgf1(seed, len(masked_db))))
    lhash = sha1(b"RabinOAEP")
    if not constant_time_eq(db[:_OAEP_HASH_LEN], lhash):
        raise RabinError("bad OAEP label hash")
    rest = db[_OAEP_HASH_LEN:]
    index = rest.find(b"\x01")
    if index < 0 or any(rest[:index]):
        raise RabinError("bad OAEP padding separator")
    return rest[index + 1 :]


def _fdh_encode(message: bytes, n: int) -> int:
    """Deterministic full-domain hash of *message* into Z_n.

    Expands SHA-1(message) with MGF1 to one byte less than the modulus and
    clears the top bit, guaranteeing the value is below n.
    """
    size = (n.bit_length() + 7) // 8
    digest = sha1(b"RabinFDH" + message)
    expanded = bytearray(mgf1(digest, size - 1))
    expanded[0] &= 0x7F
    value = bytes_to_int(bytes(expanded))
    # Force odd so the value is coprime to n with overwhelming probability
    # (n is a product of two odd primes).
    return value | 1
