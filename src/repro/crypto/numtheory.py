"""Number-theoretic primitives for the Rabin-Williams cryptosystem.

Everything here is implemented from scratch on Python integers: modular
exponentiation helpers, the extended Euclidean algorithm, Miller-Rabin
primality testing, prime generation with congruence constraints (Rabin
-Williams needs ``p = 3 mod 8`` and ``q = 7 mod 8``), Jacobi symbols, and
square roots modulo Blum-type primes combined with the CRT.
"""

from __future__ import annotations

import random
from typing import Callable

# Witnesses proving primality deterministically for all n < 3.3 * 10**24.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES: list[int] = []


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, keep in enumerate(flags) if keep]


def small_primes() -> list[int]:
    """Primes below 2000, used for cheap trial division."""
    global _SMALL_PRIMES
    if not _SMALL_PRIMES:
        _SMALL_PRIMES = _sieve(2000)
    return _SMALL_PRIMES


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of *a* modulo *m* (raises if not coprime)."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError("modular inverse does not exist") from None


def is_probable_prime(n: int, rounds: int = 24, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24 via fixed witnesses; probabilistic with
    *rounds* random witnesses beyond that.
    """
    if n < 2:
        return False
    for p in small_primes():
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_composite(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < 3_317_044_064_679_887_385_961_981:
        return not any(witness_composite(a) for a in _SMALL_WITNESSES if a < n - 1)
    rng = rng or random
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if witness_composite(a):
            return False
    return True


def gen_prime(
    bits: int,
    rng: random.Random,
    condition: Callable[[int], bool] | None = None,
) -> int:
    """Generate a *bits*-bit prime, optionally satisfying *condition*.

    The top two bits are forced to 1 so that the product of two such
    primes always has exactly ``2 * bits`` bits, as public-key code
    expects.
    """
    if bits < 8:
        raise ValueError("refusing to generate primes below 8 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if condition is not None and not condition(candidate):
            continue
        if is_probable_prime(candidate):
            return candidate


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_blum_prime(a: int, p: int) -> int:
    """Square root of *a* modulo a prime ``p = 3 (mod 4)``.

    Returns a root ``r`` with ``r*r = a (mod p)``; the caller is
    responsible for *a* actually being a quadratic residue.
    """
    if p % 4 != 3:
        raise ValueError("prime must be 3 mod 4")
    return pow(a, (p + 1) // 4, p)


def crt_pair(rp: int, p: int, rq: int, q: int) -> int:
    """Combine residues mod *p* and *q* into a residue mod ``p*q``."""
    q_inv = modinv(q, p)
    diff = (rp - rq) * q_inv % p
    return (rq + q * diff) % (p * q)
