"""Exact traces of Hecke operators composed with Atkin-Lehner involutions.

``t_full``/``t_new`` evaluate tr T_l W_{q^r} on the full cuspform space and
the newspace of level q^r * M via elliptic/hyperbolic/parabolic divisor sums
over weighted class numbers H_t.  The modulus q^r is any squarefree q >= 2
at r = 1, a prime power at r >= 2, and 1 at r = 0 (the plain trace on level
M; ``t_new_level``).  Both sum over t | M with per-level weights c_t (1 on
the full space where M/t is squarefree; the newspace weights for
``t_new``).  The weights are multiplicative, so each level's are its local
rows at the p^e || M, cached per (p, e, kind) and shared between levels;
the newspace's local values are ``_NEW_WEIGHTS``, which the squarefree
route reads too, and the tests keep the (mu*mu) projection of the
full-space weights as their twin.  By ht12's closed form H_t(D) is
H_{t_Z}(D) (D|t_C), t_Z the part of t at the primes dividing D and t_C the
rest, so at each s the primes of M that do not divide D fold into one local
constant each (a zero one ends the s before any class number is read),
and the sum over t_Z stays term by term through ``classnum.ht12``.  The
fold is the distributive law over rows that already shared one H(D); at
the primes dividing D, where the routes really differ, nothing reads
``_local_factor``, so the squarefree route below stays an independent
check.  ``t_new_squarefree`` is the independent one-class-number-per-s
route for tr T_l W_Q with Q squarefree and any cofactor: the divisor sum
over t factors into closed local factors at the primes of the cofactor, so
every level costs one class number per s.
``window.TraceWindow`` evaluates that kernel for a whole window of levels
and a run of primes in a few numpy passes; the murmuration scans read their
traces from it, ``t_new_squarefree`` stays its per-level reference, and the
divisor sums stay the check of both.  ``t_full_fricke`` is the single-term
shortcut for the Fricke involution when the Hecke index is small against
the level.  ``t_new`` follows the tower rule: the full-space sum
``_tower24`` at q^r less the one at q^(r-2), over the newspace weights.

All four kernels check their arguments by ``arith.check_level``, the one
level rule modules signs and twist and the CLI also use: an even weight
k >= 2, the modulus rule above, a positive cofactor M coprime to q^r, and a
positive Hecke index l coprime to the level.
``t_new_squarefree`` passes Q as q at r = 1 (r = 0 when Q = 1) and adds
only that Q = 1 needs a prime l; ``t_full_fricke`` passes N as q at r = 1
with M = 1 and adds only 4n < N.

All arguments are plain ints; results are exact ints (an AssertionError
here means a genuine formula bug, not roundoff).
"""
from __future__ import annotations

import math
from functools import cache

from . import classnum
from .arith import check_level, divisors, factor, is_prime, legendre, mobius, sigma


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


# c_{p^(e-j)}, j = 0..3, of the newspace weights at p^e || m: the (mu*mu)
# projection of the full-space indicator a in {e-1, e}, i.e. (1 - x)^2 (1 + x).
# The divisor sums and the squarefree route both read this one table.
_NEW_WEIGHTS = (1, -1, -1, 1)


@cache
def _local_weights(p: int, e: int, new: bool):
    """(p, rows, plus, minus) at p^e || m: a row (p^a, c_a, p^(a // 2)) for
    each a with c_a != 0, in increasing a, and the constants plus and minus,
    sum_a c_a chi^a over those rows at chi = +1 and -1.

    t takes p^a with weight 1 at a in {e-1, e} on the full space (m/t
    squarefree), and weight _NEW_WEIGHTS[j] at a = e-j on the newspace.  One
    tuple per (p, e, kind), shared by every level with p^e || m.
    """
    steps = [(e - j, c) for j, c in enumerate(_NEW_WEIGHTS[: e + 1])] if new else [(e - 1, 1), (e, 1)]
    rows = tuple(sorted((p**a, c, p ** (a // 2)) for a, c in steps))
    return p, rows, sum(c for _, c in steps), sum(-c if a & 1 else c for a, c in steps)


@cache
def _level_weights(m: int, new: bool):
    """The weights c_t over t | m, one ``_local_weights`` entry per p^e || m,
    in increasing p: c_t is multiplicative, so c_t is the product over p of
    the local c_a at the exponent a of p in t.  The tests keep the (mu*mu)
    projection of the full-space indicator over the sub-levels m/d as this
    product's twin.
    """
    return tuple(_local_weights(p, e, new) for p, e in factor(m))


def _rows(weights):
    """(t, c_t, core square part of t) for every t | m with c_t != 0: the
    product of the local rows."""
    rows = weights[0][1] if weights else ((1, 1, 1),)
    for _, local, _, _ in weights[1:]:
        rows = [(t * pa, c * ca, sq * pq) for t, c, sq in rows for pa, ca, pq in local]
    return rows


def _divisor_sum12(weights, disc: int) -> int:
    """sum_t c_t 12 H_t(disc) over t | m, one local factor per prime of m
    that does not divide disc.

    Write t = t_Z t_C, t_Z over the primes dividing disc and t_C over the
    others.  By ht12's closed form 12 H_t(disc) = 12 H_{t_Z}(disc) (disc|t_C):
    the square it divides out of disc is prime to t_C.  So the sum is
    [sum_{t_Z} c_{t_Z} 12 H_{t_Z}(disc)] times, at each p not dividing disc,
    the local constant plus or minus by the sign of (disc|p).  A zero constant
    (a split p || m on the newspace, p^e || m with e >= 3 there, an inert p
    on the full space) returns 0 before any class number is read; the t_Z
    sum stays term by term, with one ``classnum.ht12`` per row t_Z > 1 and
    ``classnum.hurwitz12_ext`` at t_Z = 1.  At disc = 0 every prime of m
    divides disc and 12 H_t(0) = -t, so the sum is -prod_p sum_a c_a p^a over
    the local rows, with no class number read.
    """
    if not disc:
        out = -1
        for _, local, _, _ in weights:
            out *= sum(c * pa for pa, c, _ in local)
        return out
    fold = 1
    dividing = []  # the entries of the primes dividing disc
    for entry in weights:
        p, _, plus, minus = entry
        if disc % p:
            # equal constants (both 0 at e >= 3 on the newspace) need no symbol
            c = plus if plus == minus or legendre(disc, p) > 0 else minus
            if not c:
                return 0
            fold *= c
        else:
            dividing.append(entry)
    if not dividing:
        return fold * classnum.hurwitz12_ext(disc)
    total = 0
    for t, c, _ in _rows(dividing):
        total += c * (classnum.ht12(t, disc) if t > 1 else classnum.hurwitz12_ext(disc))
    return fold * total


def _a1_24(k: int, qr: int, step: int, weights, ell: int) -> int:
    """24 * A_1 at q^r = qr over s = 0 mod step (elliptic + parabolic boundary):
    per s, no class number when a folded local constant is 0, else one H(D)
    and one ht12 per row t_Z > 1 (``_divisor_sum12``)."""
    bound = 4 * qr * ell
    total = 0
    s = 0
    while s * s <= bound:
        inner = _divisor_sum12(weights, s * s - bound)
        if inner:
            pk = pk_from_s2(k, (s * s) // qr, ell)
            total += (2 * pk if s else pk) * inner
        s += step
    return -total


def _a2_2(k: int, q: int, r: int, weights, ell: int) -> int:
    """2 * A_2 at q^r: the hyperbolic sum (vanishes for odd r)."""
    if r % 2:
        return 0
    qh = q ** (r // 2)
    phi = qh - qh // q if r else 1
    rows = None
    total = 0
    for dl in divisors(ell):
        dl2 = ell // dl
        if (dl + dl2) % qh:
            continue
        rows = rows or _rows(weights)
        inner = sum(c * math.gcd(sq, dl - dl2) for _, c, sq in rows)
        total += min(dl, dl2) ** (k - 1) * inner
    return -phi * total


def _tower24(k: int, q: int, r: int, weights, ell: int) -> int:
    """24 (A_1 + A_2) at q^r less 24 A_1 at q^(r-2) over s = 0 mod q^(r-1), over the weights given."""
    val24 = _a1_24(k, q**r, q**r, weights, ell) + 12 * _a2_2(k, q, r, weights, ell)
    if r >= 2:
        val24 -= _a1_24(k, q ** (r - 2), q ** (r - 1), weights, ell)
    return val24


def t_full(k: int, q: int, r: int, m: int, ell: int = 1) -> int:
    """tr T_l W_{q^r} on S_k(q^r * m), for (l, q * m) = 1 and (m, q) = 1."""
    check_level(k, q, r, m, ell)
    val24 = _tower24(k, q, r, _level_weights(m, False), ell)
    assert val24 % 24 == 0, (k, q, r, m, ell, val24)
    val = val24 // 24
    if k == 2:
        val += sigma(ell)
    return val


def t_new(k: int, q: int, r: int, m: int, ell: int = 1) -> int:
    """tr T_l W_{q^r} on the newspace S_k^new(q^r * m), for (l, q * m) = 1."""
    check_level(k, q, r, m, ell)
    w = _level_weights(m, True)
    val24 = _tower24(k, q, r, w, ell)
    if r >= 2:
        val24 -= _tower24(k, q, r - 2, w, ell)
    assert val24 % 24 == 0, (k, q, r, m, ell, val24)
    val = val24 // 24
    if k == 2 and r <= 1:
        val += mobius(m) * sigma(ell)
    return val


def t_new_level(k: int, n: int, ell: int = 1) -> int:
    """tr T_l on S_k^new(n), for (l, n) = 1."""
    return t_new(k, 1, 0, n, ell)


# ---------------------------------------------------------------------------
# squarefree Q: one class number per s


@cache
def _local_factor(p: int, e: int, v: int, chi: int) -> int:
    """L_p(e, v, chi): sum_t c_t H_t(D) over H(D*), locally at p^e || m.

    D = p^(2v) D* where D* / p^2 is no longer a discriminant, chi = (D*|p).
    By ht12's closed form, 12 H_{p^a}(D) carries at p the factor p^n
    chi^(a-n) times sigma(p^j) - chi sigma(p^(j-1)), j = v - ceil(n/2) >= 0,
    the local factor of H(D / p^(2 ceil(n/2))) over H(D*), where
    n = min(a, 2v).  The sum runs over the local newspace weights; at e = 1
    it is chi - 1.
    """
    total = 0
    for i, c in enumerate(_NEW_WEIGHTS[: e + 1]):
        a = e - i
        n = min(a, 2 * v)
        j = v - (n + 1) // 2
        total += c * p**n * chi ** (a - n) * (classnum._sigma_pp(p, j) - chi * classnum._sigma_pp(p, j - 1))
    return total


def _hyperbolic(local, x: int) -> int:
    """sum_t c_t gcd(sq_t, x), sq_t^2 the largest square dividing t, over the
    newspace weights of m = prod p^e, (p, e) in local, for x >= 1: a product
    of local sums."""
    out = 1
    for p, e in local:
        if e == 1:
            return 0  # the local sum 1 - 1, found before any division on squarefree m
        w = 0
        while x % p == 0:
            x //= p
            w += 1
        out *= sum(c * p ** min((e - i) // 2, w) for i, c in enumerate(_NEW_WEIGHTS[: e + 1]))
    return out


def t_new_squarefree(k: int, big_q: int, m: int, ell: int) -> int:
    """tr T_l W_Q on S_k^new(Q * m) for squarefree Q coprime to m.

    The name refers to Q: the cofactor m is any positive integer.
    Independent of the divisor-sum route: a single weighted class number per
    s, through multiplicative local factors at the primes of m.  Q = 1 asks
    for the plain newspace Hecke trace and is only valid for prime l; any
    Q >= 2 works for every l coprime to the level (including l = 1).
    """
    check_level(k, big_q, 1 if big_q > 1 else 0, m, ell)
    if big_q == 1 and not is_prime(ell):
        raise ValueError("Q = 1 requires a prime Hecke index")
    # sum_t c_t H_t(D) = H(D*) * prod_p L_p(e, v, chi) with D* = D / p^(2v)
    # stripped at every p | m: each s costs one class number.  p^2 divides
    # out exactly when D / p^2 is again a discriminant (for p = 2: D = 0, 4
    # mod 16), and dividing out squares of the other primes leaves (D|p)
    # unchanged.  At p || m, L_p = chi - 1: the newspace weight xi_p times
    # the local factor of H at p.
    local = factor(m)
    total = 0
    s = 0
    while s * s * big_q <= 4 * ell:
        disc = big_q * (s * s * big_q - 4 * ell)
        weight = 1 if s == 0 else 2
        for p, e in local:
            v = 0
            if p == 2:
                while disc % 16 in (0, 4):
                    disc //= 4
                    v += 1
            else:
                while disc % (p * p) == 0:
                    disc //= p * p
                    v += 1
            chi = legendre(disc, p)
            c = chi - 1 if e == 1 else _local_factor(p, e, v, chi)
            if not c:
                break
            weight *= c
        else:
            total += weight * pk_from_s2(k, s * s * big_q, ell) * classnum.hurwitz12_ext(disc)
        s += 1
    assert total % 24 == 0, (k, big_q, m, ell, total)
    val = -total // 24
    if big_q == 1:
        # the hyperbolic term at prime l: its divisors 1 and l give gcds with l - 1
        val -= _hyperbolic(local, ell - 1)
    if k == 2:
        val += mobius(m) * sigma(ell)
    return val


def t_full_fricke(k: int, n_level: int, n_hecke: int) -> int:
    """tr T_n W_N on the full space S_k(N), squarefree N, (n, N) = 1, 4n < N,
    where the elliptic sum collapses to its s = 0 term: classnum._s0_24 at M = 1."""
    check_level(k, n_level, 1, 1, n_hecke)
    if 4 * n_hecke >= n_level:
        raise ValueError("needs 4n < N")
    val24 = classnum._s0_24(k, n_level, n_hecke, 0, 1)
    assert val24 % 24 == 0, (k, n_level, n_hecke, val24)
    val = val24 // 24
    if k == 2:
        val += sigma(n_hecke)
    return val
