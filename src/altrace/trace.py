"""Exact traces of Hecke operators composed with Atkin-Lehner involutions.

``t_full``/``t_new`` evaluate tr T_l W_{q^r} on the full cuspform space and
the newspace of level q^r * M via elliptic/hyperbolic/parabolic divisor sums
over weighted class numbers.  ``t_new_squarefree`` is the independent
one-class-number-per-s route available on squarefree levels, and
``t_full_fricke`` the single-term shortcut for the Fricke involution when
the Hecke index is small against the level.

All arguments are plain ints; results are exact ints (an AssertionError
here means a genuine formula bug, not roundoff).
"""
from __future__ import annotations

import math
from functools import cache

from . import classnum
from .arith import (
    core_square_part,
    divisors,
    divisors_with_squarefree_cofactor,
    factor,
    is_prime,
    is_squarefree,
    kronecker,
    mobius,
    mobius_squared_transform,
    sigma,
)


def pk_from_s2(k: int, s2: int, ell: int) -> int:
    """Gegenbauer-style weight p_k(s, l), as a function of s2 = s**2.

    Integer recurrence in s2, so quadratic-surd arguments (s = j*sqrt(Q))
    cost nothing special.  k is even, >= 2.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer >= 2")
    w_prev, w = 1, s2 - ell
    m = (k - 2) // 2
    if m == 0:
        return w_prev
    for _ in range(m - 1):
        w_prev, w = w, (s2 - 2 * ell) * w - ell * ell * w_prev
    return w


def _check_common(k: int, q: int, m: int, ell: int) -> None:
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer >= 2")
    if not is_prime(q):
        raise ValueError("q must be prime, got %r" % (q,))
    if m < 1 or ell < 1:
        raise ValueError("level cofactor and Hecke index must be positive")
    if m % q == 0:
        raise ValueError("cofactor M must be coprime to q")
    if ell % q == 0:
        raise ValueError("Hecke index must be coprime to q")


@cache
def _sum_ht12(m: int, disc: int) -> int:
    return sum(classnum.ht12(t, disc) for t in divisors_with_squarefree_cofactor(m))


@cache
def _a1_24(k: int, q: int, r: int, eps: int, m: int, ell: int) -> int:
    """24 * A_1^(eps)(r; m): the elliptic + parabolic-boundary sum."""
    if r < 0:
        return 0
    qr = q**r
    step = q ** (r + eps)
    bound = 4 * qr * ell
    total = 0
    s = 0
    while s * s <= bound:
        pk = pk_from_s2(k, (s * s) // qr, ell)
        weight = 1 if s == 0 else 2
        total += weight * pk * _sum_ht12(m, s * s - bound)
        s += step
    return -total


@cache
def _a2_2(k: int, q: int, r: int, m: int, ell: int) -> int:
    """2 * A_2(r; m): the hyperbolic sum (vanishes for odd r)."""
    if r < 0 or r % 2:
        return 0
    qh = q ** (r // 2)
    phi = qh - qh // q if r else 1
    cof = divisors_with_squarefree_cofactor(m)
    sq = {t: core_square_part(t) for t in cof}
    total = 0
    for dl in divisors(ell):
        dl2 = ell // dl
        if (dl + dl2) % qh:
            continue
        inner = sum(math.gcd(sq[t], dl - dl2) for t in cof)
        total += min(dl, dl2) ** (k - 1) * inner
    return -phi * total


def t_full(k: int, q: int, r: int, m: int, ell: int = 1) -> int:
    """tr T_l W_{q^r} on S_k(q^r * m), for (l, q) = 1 and (m, q) = 1."""
    _check_common(k, q, m, ell)
    if r < 0:
        return 0
    val24 = _a1_24(k, q, r, 0, m, ell) + 12 * _a2_2(k, q, r, m, ell)
    if r >= 2:
        val24 -= _a1_24(k, q, r - 2, 1, m, ell)
    assert val24 % 24 == 0, (k, q, r, m, ell, val24)
    val = val24 // 24
    if k == 2:
        val += sigma(ell)
    return val


def t_new(k: int, q: int, r: int, m: int, ell: int = 1) -> int:
    """tr T_l W_{q^r} on the newspace S_k^new(q^r * m)."""
    _check_common(k, q, m, ell)
    if r < 0:
        return 0
    a1 = lambda rr, eps: mobius_squared_transform(lambda mm: _a1_24(k, q, rr, eps, mm, ell), m)
    a2 = lambda rr: mobius_squared_transform(lambda mm: 12 * _a2_2(k, q, rr, mm, ell), m)
    if r <= 1:
        val24 = a1(r, 0) + a2(r)
    else:
        val24 = a1(r, 0) - a1(r - 2, 0) - a1(r - 2, 1) + a2(r) - a2(r - 2)
        if r >= 4:
            val24 += a1(r - 4, 1)
    assert val24 % 24 == 0, (k, q, r, m, ell, val24)
    val = val24 // 24
    if k == 2 and r <= 1:
        val += mobius(m) * sigma(ell)
    return val


def t_new_level(k: int, n: int, ell: int = 1) -> int:
    """tr T_l on S_k^new(n), for (l, n) = 1."""
    if math.gcd(n, ell) != 1:
        raise ValueError("Hecke index must be coprime to the level")
    q = 2
    while n % q == 0 or ell % q == 0:
        q += 1
        while not is_prime(q):
            q += 1
    return t_new(k, q, 0, n, ell)


# ---------------------------------------------------------------------------
# squarefree levels: one class number per s


def t_new_squarefree(k: int, big_q: int, m: int, ell: int) -> int:
    """tr T_l W_Q on S_k^new(Q * m) for squarefree level N = Q * m.

    Independent of the divisor-sum route: a single weighted class number per
    s, through the multiplicative xi weights.  Q = 1 asks for the plain
    newspace Hecke trace and is only valid for prime l; any Q >= 2 works for
    every l coprime to the level (including l = 1).
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer >= 2")
    n = big_q * m
    if big_q < 1 or m < 1 or not is_squarefree(n):
        raise ValueError("level Q * m must be squarefree")
    if math.gcd(ell, n) != 1:
        raise ValueError("Hecke index must be coprime to the level")
    if big_q == 1 and not is_prime(ell):
        raise ValueError("Q = 1 requires a prime Hecke index")
    # xi_p(D) H(D) = ((D0|p) - 1) H(D / p^(2e)) with D = lam^2 D0, e = v_p(lam):
    # the denominator of the local newspace weight xi_p is the local factor
    # of H at p, so each s costs one class number and no division.  p | lam
    # exactly when D / p^2 is again a discriminant (for p = 2: D = 0, 4 mod 16),
    # and dividing out squares of the other primes leaves (D|p) unchanged.
    primes = [p for p, _ in factor(m).factors]
    total = 0
    s = 0
    while s * s * big_q <= 4 * ell:
        disc = big_q * (s * s * big_q - 4 * ell)
        weight = 1 if s == 0 else 2
        for p in primes:
            if p == 2:
                while disc % 16 in (0, 4):
                    disc //= 4
            else:
                while disc % (p * p) == 0:
                    disc //= p * p
            c = kronecker(disc, p) - 1
            if not c:
                break
            weight *= c
        else:
            total += weight * pk_from_s2(k, s * s * big_q, ell) * classnum.hurwitz12_ext(disc)
        s += 1
    assert total % 24 == 0, (k, big_q, m, ell, total)
    val = -total // 24
    if n == 1:
        val -= 1
    if k == 2:
        val += mobius(m) * sigma(ell)
    return val


def t_full_fricke(k: int, n_level: int, n_hecke: int) -> int:
    """tr T_n W_N on the full space S_k(N): squarefree N, (n, N) = 1, 4n < N.

    In this range the elliptic sum collapses to its s = 0 term.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be an even integer >= 2")
    if not is_squarefree(n_level):
        raise ValueError("level must be squarefree")
    if math.gcd(n_level, n_hecke) != 1:
        raise ValueError("Hecke index must be coprime to the level")
    if 4 * n_hecke >= n_level:
        raise ValueError("needs 4n < N")
    val24 = -pk_from_s2(k, 0, n_hecke) * classnum.hurwitz12_ext(-4 * n_hecke * n_level)
    assert val24 % 24 == 0, (k, n_level, n_hecke, val24)
    val = val24 // 24
    if k == 2:
        val += sigma(n_hecke)
    return val
