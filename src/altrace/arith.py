"""Exact elementary number theory used everywhere else in the package.

Factorization (cached trial division, returned as the plain tuple of
(prime, exponent) pairs), Kronecker symbols, the standard multiplicative
functions, and the divisor sums that drive the trace formulas.  Everything
returns exact ints, in pure Python: importing this module does not import
numpy.

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
    m >= 1 coprime to q and ell >= 1 coprime to q * m."""
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
    if math.gcd(m, q) != 1:
        raise ValueError("cofactor M must be coprime to q")
    if math.gcd(ell, q * m) != 1:
        raise ValueError("Hecke index must be coprime to the level")


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == ((n, 1),)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factor(n))


def mobius(n: int) -> int:
    fac = factor(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def mu_star_mu(n: int) -> int:
    """(mu * mu)(n): the Dirichlet inverse of the divisor-count function."""
    out = 1
    for _, e in factor(n):
        if e == 1:
            out = -2 * out
        elif e > 2:
            return 0
    return out


def sigma(n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factor(n):
        out -= out // p
    return out


def omega1(m: int) -> int:
    """Number of primes dividing m exactly once."""
    return sum(1 for _, e in factor(m) if e == 1)


def omega2(n: int, m: int) -> int:
    """Number of primes p with p^2 || m and (n|p) = 1."""
    return sum(1 for p, e in factor(m) if e == 2 and kronecker(n, p) == 1)


def core_square_part(n: int) -> int:
    """The largest q with q^2 | n (for n >= 1)."""
    out = 1
    for p, e in factor(n):
        out *= p ** (e // 2)
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factor(n):
        out = [d * p**j for d in out for j in range(e + 1)]
    out.sort()
    return out


def divisors_with_squarefree_cofactor(m: int) -> list[int]:
    """All t | m such that m/t is squarefree (there are 2^omega(m) of them)."""
    out = [1]
    for p, e in factor(m):
        out = [d * p**j for d in out for j in (e - 1, e)]
    out.sort()
    return out


def mobius_squared_transform(f, m: int):
    """sum_{d | m} (mu*mu)(d) f(m/d); inverts g(m) = sum_{d|m} sigma0(d) f(m/d).

    This is the newspace projection: a full-space dimension or trace, as a
    function of the level, becomes the newspace one.
    """
    total = 0
    for d in divisors(m):
        c = mu_star_mu(d)
        if c:
            total += c * f(m // d)
    return total


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
