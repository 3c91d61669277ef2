"""Exact elementary number theory used everywhere else in the package.

Factorization (cached trial division, returned as the plain tuple of
(prime, exponent) pairs), the Legendre symbol at a prime, and the Kronecker
symbol at n >= 1 as its product over ``factor(n)`` (n <= 0 raises there), the
multiplicative functions mobius and sigma, and divisors and primes.  The
newspace weights live where they are read: the dimension's in module signs, the traces' in
module trace.  Everything returns exact ints, in pure Python: importing
this module does not import numpy.

``check_level`` is the one argument rule for a level: the trace kernels,
the closed forms, the dimension formulas, the twist pairing and the CLI's
``twist`` call it, and each adds only what its own formula needs.
"""
from __future__ import annotations

import math
from functools import cache
from itertools import compress


@cache
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization ((p1, e1), (p2, e2), ...) of n, p1 < p2 < ...,
    by trial division by 2, 3 and then the numbers 6j +- 1."""
    if n < 1:
        raise ValueError("factor() wants a positive integer, got %r" % (n,))
    m = n
    fac = []
    d, step = 2, 1
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            fac.append((d, e))
        d += step
        step = 6 - step if d > 5 else 2
    if m > 1:
        # no divisor up to sqrt(m), so what is left is prime
        fac.append((m, 1))
    return tuple(fac)


def check_level(k: int, q: int, r: int, m: int, ell: int = 1) -> None:
    """Raise ValueError unless k is an even weight >= 2, q^r a modulus (any
    squarefree q >= 2 at r = 1, a prime q at r >= 2, q >= 1 unread at r = 0),
    m >= 1 coprime to q^r and ell >= 1 coprime to q^r * m."""
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer >= 2")
    if r < 0:
        raise ValueError("r must be >= 0, got %r" % (r,))
    if q < 1:
        raise ValueError("q must be positive, got %r" % (q,))
    if r >= 1 and factor(q) != ((q, 1),):  # one cached lookup passes a prime q
        if r >= 2:
            raise ValueError("q must be prime at r >= 2, got %r" % (q,))
        # q = 1 is refused: the kernels' r = 1 branch has no hyperbolic term
        if q == 1 or not is_squarefree(q):
            raise ValueError("q must be squarefree and >= 2 at r = 1, got %r" % (q,))
    if m < 1 or ell < 1:
        raise ValueError("level cofactor and Hecke index must be positive")
    n = q if r else 1  # the primes of q^r: none at r = 0
    if math.gcd(m, n) != 1:
        raise ValueError("cofactor M must be coprime to q")
    if math.gcd(ell, n * m) != 1:
        raise ValueError("Hecke index must be coprime to the level")


# (a|2) at a mod 8: 0 at even a, and the second supplement at odd a
KRONECKER_2 = (0, 1, 0, -1, 0, -1, 0, 1)


def legendre(a: int, p: int) -> int:
    """(a|p) at a prime p: from a mod 8 at p = 2, by Euler's criterion at odd p (Cohen, GTM 138, 1.4)."""
    if p == 2:
        return KRONECKER_2[a & 7]
    s = pow(a, p >> 1, p)
    return -1 if s == p - 1 else s


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) at n >= 1: the product of legendre(a, p)^e over
    the p^e || n (n <= 0 raises from factor)."""
    out = 1
    for p, e in factor(n):
        s = legendre(a, p)
        out *= s if e & 1 else s * s
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == ((n, 1),)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factor(n))


def mobius(n: int) -> int:
    fac = factor(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def sigma(n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factor(n):
        out = [d * p**j for d in out for j in range(e + 1)]
    out.sort()
    return out


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((n - p * p) // p + 1)
    return list(compress(range(n + 1), sieve))


def prime_powers_up_to(bound: int) -> list[tuple[int, int]]:
    """All (q, r) with q prime, r >= 1 and q**r <= bound, by q then r."""
    out = []
    for q in primes_up_to(bound):
        r = 1
        while q**r <= bound:
            out.append((q, r))
            r += 1
    return out
