"""Hurwitz class numbers and their weighted variants, exactly.

Three independent routes to H(disc) live here:

* ``hurwitz`` -- fundamental-discriminant decomposition plus
  ``class_number`` at the fundamental part (the default path, exact
  Fractions).  h(D) there is a root count: one sieve pass per prime up
  to sqrt(|D|/3), the largest first coefficient of a reduced form, marks
  the a that have a root b of b^2 = D (mod 4a).  Below a = sqrt(|D|)/2
  every root is a reduced form, so those a are summed as a multiplicative
  function; above it only the a with a root are walked, about 0.0017 |D|
  divisibility tests against 0.069 |D| for a walk of every form;
* ``hurwitz12_oracle`` -- a from-scratch enumeration of all reduced forms with
  automorphism weights, by an algorithm other than the default path's: of
  the candidate first coefficients a of a product a*c it skips only those
  divisible by 2 or 3 where a*c is not;
* ``HurwitzTable`` -- a bulk numpy sieve over all discriminants down to a
  bound, one contiguous pass per b over a running count of the a*c
  products.  It stores only the discriminants: -n at n = 0, 3 (mod 4), the
  entry of D at index -D >> 1.  numpy is imported only where such a table
  is built, so the other routes run without it.  This module is the
  table's one owner, and the only code that knows its layout: ``get_table``
  installs it, ``hurwitz12_ext`` reads one disc (with a fallback) and
  ``hurwitz12_gather`` an array (the batched traces and criterion 1).

On top of those sit the weighted counts H_t, the weight alpha_1 and on it
``_s0_24``, the s = 0 term of the trace formula that modules signs and
trace read; module signs owns alpha_2, a local value of the dimension formula.
Internally everything is an integer in units of 1/12 (``*12`` names); the
Fraction wrappers divide at the end.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .arith import KRONECKER_2, factor, kronecker, legendre, primes_up_to

# ---------------------------------------------------------------------------
# primitive forms and the fundamental decomposition


def _check_disc(disc: int) -> None:
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("need a negative discriminant (0 or 1 mod 4), got %r" % (disc,))


@cache
def class_number(disc: int) -> int:
    """h(disc): the number of classes of primitive positive definite forms.

    A fundamental disc < -4 is counted by ``_root_count``: one sieve pass
    per prime up to sqrt(|disc|/3) and a walk of about 0.0017 |disc|
    divisibility tests, where a count of every reduced form takes about
    0.069 |disc|.  Every other disc (-3, -4 and disc0 * lam^2 with lam > 1)
    goes through ``decompose`` and the order formula h(disc) = h'(disc) =
    h(disc0) * gamma / (w0 / 2), which ``hprime12`` evaluates with
    ``gamma_weight``.
    """
    _check_disc(disc)
    if disc >= -4:
        return 1
    h = _root_count(-disc)
    return hprime12(disc) // 12 if h is None else h


_DEAD = b"\xff"  # a byte marking an a with R(a) = 0
_BUMP = bytes(range(1, 256)) + _DEAD  # j -> j + 1, and a dead a stays dead


@cache
def _primes_below(bits: int) -> tuple[int, ...]:
    """The primes below 2^bits, so each prime list is built once per bit length."""
    return tuple(primes_up_to(1 << bits))


def _root_count(n: int) -> int | None:
    """h(-n) for a fundamental discriminant -n < -4, or None when -n is not
    fundamental (Cohen, GTM 138, 5.3-5.4).

    Each reduced form (a, b, c) is a root b of b^2 = -n (mod 4a), -a < b <= a,
    with a <= T = isqrt(n // 3).  R(a) = #{b mod 2a : b^2 = -n (mod 4a)} is
    multiplicative, with R(p^e) = 1 + (-n|p) at p not dividing n, and R(p) =
    1, R(p^e) = 0 (e >= 2) at p | n.  So R(a) = 2^s(a), s(a) being the number
    of split primes dividing a, unless an inert p or the square of a ramified
    one divides a.  One pass per prime p <= T over the multiples of p (or
    p^2) in a bytearray holds s(a), or 255 where R(a) = 0; the symbol is
    arith.legendre written out (a call per prime measured 1-2% slower).  A
    square p^2 | n is seen at its ramified p <= T (past T, n = p^2 or 2p^2
    is not 0 or 3 mod 4), the 2-part by a test of n mod 16.  Below A =
    isqrt(n // 4), 4a^2 < n, so c > a and every root is a reduced form,
    primitive since -n is fundamental: the sum over a <= A is a count of
    each value s.  Above A only the a with R(a) > 0 are walked: b of n's
    parity from ceil(sqrt(4a^2 - n)), where c reaches a, up to a, a form
    where 4a divides b^2 + n, of weight 1 at b = a or c = a and 2 (b and -b)
    otherwise.  Over the fundamental |D| <= 1.5*10^5, 29% of those a have
    R(a) > 0.
    """
    if n % 4 != 3 and n % 16 not in (4, 8):
        return None
    d = -n
    low, top = math.isqrt(n // 4), math.isqrt(n // 3)
    split = bytearray(top + 1)
    for p in _primes_below(top.bit_length()):
        if p > top:
            break
        s = KRONECKER_2[d & 7] if p == 2 else pow(d, p >> 1, p)
        if s == 1:  # split: R(p^e) = 2
            split[p::p] = split[p::p].translate(_BUMP)
        elif s:  # inert: R(p^e) = 0
            split[p::p] = _DEAD * (top // p)
        else:  # ramified: R(p) = 1, R(p^e) = 0 at e >= 2
            pp = p * p
            if p > 2 and n % pp == 0:
                return None
            split[pp::pp] = _DEAD * (top // pp)
    h = 0
    for j in range(low.bit_length()):  # 2^s(a) <= a <= A
        h += split.count(j, 1, low + 1) << j
    for a in range(low + 1, top + 1):
        if split[a] == 255:  # R(a) = 0: no form has first coefficient a
            continue
        a4 = 4 * a
        b = math.isqrt(a * a4 - n - 1) + 1  # the least b with c = (b^2 + n)/4a >= a
        for b in range(b + ((b ^ n) & 1), a + 1, 2):
            if (b * b + n) % a4 == 0:
                h += 1 if b == a or b * b + n == a * a4 else 2
    return h


def decompose(disc: int) -> tuple[int, int]:
    """Write disc = lam**2 * disc0 with disc0 fundamental; returns (disc0, lam)."""
    _check_disc(disc)
    q = 1
    for p, e in factor(-disc):
        q *= p ** (e // 2)
    s = disc // (q * q)
    if s % 4 == 1:
        return s, q
    return 4 * s, q // 2


def _h12_fundamental(disc0: int) -> int:
    if disc0 == -3:
        return 4
    if disc0 == -4:
        return 6
    return 12 * class_number(disc0)


def gamma_weight(disc0: int, lam: int) -> int:
    """Multiplicative weight relating h'(lam**2 disc0) to h'(disc0)."""
    out = 1
    for p, m in factor(lam):
        out *= p ** (m - 1) * (p - legendre(disc0, p))
    return out


def eta_weight(disc0: int, lam: int) -> int:
    """Multiplicative weight relating H(lam**2 disc0) to h'(disc0)."""
    out = 1
    for p, m in factor(lam):
        chi = legendre(disc0, p)
        out *= _sigma_pp(p, m) - chi * _sigma_pp(p, m - 1)
    return out


def _sigma_pp(p: int, m: int) -> int:
    return (p ** (m + 1) - 1) // (p - 1)


def hprime12(disc: int) -> int:
    disc0, lam = decompose(disc)
    return _h12_fundamental(disc0) * gamma_weight(disc0, lam)


def hprime(disc: int) -> Fraction:
    """Class number weighted by 1/#(units/±1): h'(-3) = 1/3, h'(-4) = 1/2."""
    return Fraction(hprime12(disc), 12)


@cache
def _hurwitz12_pure(disc: int) -> int:
    disc0, lam = decompose(disc)
    return _h12_fundamental(disc0) * eta_weight(disc0, lam)


def hurwitz12(disc: int) -> int:
    """12 * H(disc) for disc < 0 (or disc = 0, where H(0) = -1/12)."""
    if disc == 0:
        return -1
    _check_disc(disc)
    return _hurwitz12_pure(disc)


def hurwitz(disc: int) -> Fraction:
    return Fraction(hurwitz12(disc), 12)


def hurwitz12_ext(disc: int) -> int:
    """12 * H(disc), extended by zero to disc > 0 and disc = 2, 3 mod 4.

    Consults the active bulk table when one is loaded and covers |disc|.
    """
    if disc > 0 or disc % 4 in (2, 3):
        return 0
    if disc == 0:
        return -1
    t = _active_table
    if t is not None and -disc <= t.bound:
        return int(t.h12[-disc >> 1])
    return _hurwitz12_pure(disc)


def hurwitz12_gather(discs):
    """12 * H(D) at every D of a numpy integer array, from the installed table.

    Every D must be a negative discriminant (D = 0 or 1 mod 4) with
    |D| <= the table's bound, and nothing checks the residue: a D = 2 or
    3 mod 4 silently reads its neighbour's entry (-D >> 1 is also the index
    of -4j or -(4j + 3)).  A discriminant past the bound raises IndexError,
    its index being past the array's end; only ``hurwitz12_ext`` falls
    back to the per-discriminant path.
    """
    return _active_table.h12[-discs >> 1]


# ---------------------------------------------------------------------------
# the independent oracle: enumerate every reduced form, weight by automorphisms


# the residues prime to w, for w = 6 // gcd(m, 6)
_UNITS = {1: (0,), 2: (1,), 3: (1, 2), 6: (1, 5)}


def hurwitz12_oracle(disc: int) -> int:
    """12 * H(disc) recounted from the definition (all reduced forms, weighted).

    Every b = n (mod 2), 0 <= b <= sqrt(n/3), and every divisor a of m = (b^2
    + n)/4 with b <= a <= sqrt(m) is one form.  A divisor of m has no prime 2
    or 3 that m lacks, so the candidates a run only over the residues prime
    to w = 6 // gcd(m, 6): one range per residue, which keeps 58% of the
    candidates over 1,200 discriminants spread evenly to |D| = 1.5*10^5.
    Nothing else is skipped: the walk reads no Legendre symbol, no sieve
    and no multiplicativity, so it stays independent of ``class_number``'s
    root count and of ``build_table``.
    """
    if disc == 0:
        return -1
    _check_disc(disc)
    n = -disc
    total = 0
    b = n & 1
    while 3 * b * b <= n:
        m = (b * b + n) // 4
        lo, hi = max(b, 1), math.isqrt(m) + 1
        w = 6 // math.gcd(m, 6)
        for r in _UNITS[w]:
            for a in range(lo + (r - lo) % w, hi, w):
                if m % a:
                    continue
                c = m // a
                if b == 0:
                    total += 6 if a == c else 12
                elif b == a:
                    total += 4 if a == c else 12
                elif a == c:
                    total += 12
                else:
                    total += 24
        b += 2
    return total


# ---------------------------------------------------------------------------
# bulk sieve


class HurwitzTable:
    """12 * H(D) for every discriminant D with |D| <= bound, at index -D >> 1.

    h12 is a numpy uint32 array over the n <= bound with n = 0, 3 (mod 4),
    the only n for which -n is a discriminant: h12[2j] = 12 H(-4j) and
    h12[2j + 1] = 12 H(-(4j + 3)), since (4j) >> 1 = 2j and (4j + 3) >> 1 =
    2j + 1.  Index 0 (n = 0) is unused and 0.  That is bound // 4 +
    (bound + 1) // 4 + 1 entries, half of one per n: 0.41 MB at bound
    204,800 and 8.0 MB at 4*10^6.
    """

    def __init__(self, bound: int, h12):
        self.bound = bound
        self.h12 = h12


def build_table(bound: int) -> HurwitzTable:
    """Sieve 12*H(-n) for all n <= bound, one pass per b over reduced forms.

    A form (a, b, c), 0 <= b <= a <= c, has n = 4m - b^2 with m = a*c.  The
    walk runs b from A = isqrt(bound // 3) down to 0 over a uint32 array cnt:
    before step b, cnt[m] sums over a > b with a | m and a^2 <= m the weight
    24 (forms +b and -b), or 12 when a^2 = m.  Step b adds the a = b forms
    (12, and 4 at c = a), adds cnt at every n = 4m - b^2 in one contiguous
    update, then makes those entries 24 and 12; b = 0 adds cnt / 2.  The
    updates land in two arrays, even[j] at n = 4j (even b) and odd[j] at
    n = 4j + 3 (odd b), so each is a run of m: n = 4m - b^2 <= bound from
    m = b^2.  They are interleaved into h12 once, at the end.  cnt has
    (bound + A^2) // 4 + 1 entries, about two thirds of the table (0.27 MB
    at bound 204,800, 5.3 MB at 4*10^6); it is freed before even and odd
    are interleaved, and they on return.  On a 2-vCPU machine the build
    takes about 6 ms at 204,800, 0.06 s at 10^6 and 0.45 s at 4*10^6.
    """
    import numpy as np

    if bound < 4:
        raise ValueError("bound must be at least 4")
    top = math.isqrt(bound // 3)
    cnt = np.zeros((bound + top * top) // 4 + 1, dtype=np.uint32)
    even = np.zeros(bound // 4 + 1, dtype=np.uint32)
    odd = np.zeros((bound + 1) // 4, dtype=np.uint32)
    for b in range(top, 0, -1):
        bb = b * b
        cnt[bb::b] += 12
        cnt[bb] -= 8
        if b & 1:  # n = 4j + 3 at j = m - (b^2 + 3) / 4
            lo, hi, off, out = (3 * bb - 3) // 4, (bound - 3) // 4, (bb + 3) // 4, odd
        else:  # n = 4j at j = m - b^2 / 4
            lo, hi, off, out = 3 * bb // 4, bound // 4, bb // 4, even
        out[lo : hi + 1] += cnt[lo + off : hi + off + 1]
        cnt[bb::b] += 12
        cnt[bb] -= 4
    cnt = cnt[: len(even)]
    cnt >>= 1  # b = 0: the forms (a, 0, c), 12 and 6 at c = a
    even += cnt  # cnt[0] is never written, so index 0 stays 0
    del cnt
    h12 = np.empty(len(even) + len(odd), dtype=np.uint32)
    h12[0::2] = even
    h12[1::2] = odd
    return HurwitzTable(bound, h12)


_active_table: HurwitzTable | None = None

# the largest bound get_table builds: on a 2-vCPU machine that build takes
# about 62 s at a peak RSS of about 410 MB, for a 191 MB table (4.4 s and
# 104 MB at 2*10^7)
_TABLE_MAX = 10**8


def get_table(bound: int) -> HurwitzTable:
    """Build a table covering |disc| <= bound and install it as the
    process-wide table hurwitz12_ext and hurwitz12_gather read; an
    installed table that already covers the bound is returned as it is.
    A bound past _TABLE_MAX = 10^8 raises ValueError before anything is
    allocated."""
    global _active_table
    if _active_table is None or _active_table.bound < bound:
        if bound > _TABLE_MAX:
            raise ValueError("a class-number table needs a bound of at most 10^8, got %d" % bound)
        _active_table = build_table(bound)
    return _active_table


# ---------------------------------------------------------------------------
# weighted counts


def ht12(t: int, disc: int) -> int:
    """12 * H_t(disc): forms of discriminant disc counted with b = 0 mod t.

    Closed form: with g = gcd(t, disc) = a^2 b (b squarefree), the count is
    g * (disc' / b | t/g) * H(disc' / b) when b | disc' = disc/g, else 0.
    Covers disc = 0 (H_t(0) = -t/12) and reduces to H at t = 1.  The symbol
    is arith.kronecker, the product of (disc'/b | p)^e over the p^e || t/g;
    no such p divides disc' (v_p(t) > v_p(disc)), so an even e gives 1.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if disc > 0:
        return 0
    if t == 1:
        return hurwitz12_ext(disc)
    g = math.gcd(t, disc)
    b = 1
    for p, e in factor(g):
        if e & 1:
            b *= p
    dp = disc // g
    if dp % b:
        return 0
    dpb = dp // b
    h = hurwitz12_ext(dpb)  # 0 at dpb = 2, 3 mod 4: no symbol needed
    return g * kronecker(dpb, t // g) * h if h else 0


def alpha1_12(d: int, e: int) -> int:
    """12 * alpha_1(d; e): the 2-power-weighted combination of H(d), H(4d).

    d < 0; e is the 2-adic valuation of the cofactor level.
    """
    if e == 0:
        return hurwitz12_ext(4 * d)
    if e in (1, 2):
        return 2 * hurwitz12_ext(d) - hurwitz12_ext(4 * d)
    if e == 3:
        return (4 * legendre(d, 2) - 6) * hurwitz12_ext(d) + hurwitz12_ext(4 * d)
    if e == 4:
        return (2 - 4 * legendre(d, 2)) * hurwitz12_ext(d)
    return 0


def _s0_24(k: int, big_q: int, ell: int, e: int, kappa: int) -> int:
    """24 * the s = 0 term of tr T_l W_Q on S_k^new(Q M), M = 2^e M' with M'
    odd: -p_k(0, l) alpha_1(-Q l; e) kappa, kappa = kappa_-(-Q l, M') taken
    first, so a split prime spares the class numbers.  At squarefree Q and
    4l < Q it is the whole trace less mu(M) sigma(l) at k = 2."""
    return -((-ell) ** (k // 2 - 1)) * alpha1_12(-big_q * ell, e) * kappa if kappa else 0

