"""Tests for repro.crypto.numtheory."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.numtheory import (
    crt_pair,
    egcd,
    gen_prime,
    is_probable_prime,
    jacobi,
    modinv,
    small_primes,
    sqrt_mod_blum_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 2**127 - 1, 2**521 - 1]
KNOWN_COMPOSITES = [
    0, 1, 4, 100, 561, 41041, 2**127, 3215031751,  # incl. Carmichael numbers
]


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites(n):
    assert not is_probable_prime(n)


def test_small_primes_sieve():
    primes = small_primes()
    assert primes[:5] == [2, 3, 5, 7, 11]
    assert all(is_probable_prime(p) for p in primes[:50])


@given(st.integers(min_value=1, max_value=10**12),
       st.integers(min_value=1, max_value=10**12))
def test_egcd_bezout(a, b):
    g, x, y = egcd(a, b)
    assert a * x + b * y == g
    assert a % g == 0 and b % g == 0


@given(st.integers(min_value=2, max_value=10**9))
def test_modinv_inverse(a):
    m = 1_000_000_007  # prime modulus
    inv = modinv(a, m)
    assert a * inv % m == 1


@given(st.integers(min_value=-10**12, max_value=10**12),
       st.integers(min_value=2, max_value=10**12))
def test_modinv_agrees_with_the_egcd_reference(a, m):
    g, x, _ = egcd(a % m, m)
    if g == 1:
        assert modinv(a, m) == x % m
    else:
        with pytest.raises(ValueError, match="does not exist"):
            modinv(a, m)


def test_modinv_requires_coprime():
    with pytest.raises(ValueError, match="modular inverse does not exist"):
        modinv(6, 9)


def test_gen_prime_congruence_conditions():
    rng = random.Random(1)
    p = gen_prime(128, rng, condition=lambda c: c % 8 == 3)
    q = gen_prime(128, rng, condition=lambda c: c % 8 == 7)
    assert is_probable_prime(p) and p % 8 == 3
    assert is_probable_prime(q) and q % 8 == 7
    assert p.bit_length() == 128 and q.bit_length() == 128


def test_gen_prime_rejects_tiny():
    with pytest.raises(ValueError):
        gen_prime(4, random.Random(0))


def test_jacobi_known_values():
    # (a/p) for p prime equals the Legendre symbol.
    p = 7919
    squares = {pow(x, 2, p) for x in range(1, p)}
    for a in (2, 3, 5, 10, 1234):
        expected = 1 if a % p in squares else -1
        assert jacobi(a, p) == expected
    assert jacobi(p, p) == 0


def test_jacobi_requires_odd_positive():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -5)


@given(st.integers(min_value=1, max_value=10**6))
def test_jacobi_multiplicative(a):
    n1, n2 = 1009, 2003  # odd primes
    assert jacobi(a, n1 * n2) == jacobi(a, n1) * jacobi(a, n2)


def test_sqrt_mod_blum_prime():
    p = 1000003  # p % 4 == 3
    for x in (2, 17, 500000):
        square = x * x % p
        root = sqrt_mod_blum_prime(square, p)
        assert root * root % p == square


def test_sqrt_mod_requires_3_mod_4():
    with pytest.raises(ValueError):
        sqrt_mod_blum_prime(4, 13)  # 13 % 4 == 1


@given(st.integers(min_value=0, max_value=1008),
       st.integers(min_value=0, max_value=2002))
def test_crt_pair(rp, rq):
    p, q = 1009, 2003
    combined = crt_pair(rp, p, rq, q)
    assert combined % p == rp
    assert combined % q == rq
    assert 0 <= combined < p * q
