"""Hurwitz class numbers and their weighted variants, exactly.

Three independent routes to H(disc) live here:

* ``hurwitz`` -- fundamental-discriminant decomposition plus a direct count
  of primitive reduced forms (the default path, exact Fractions);
* ``hurwitz12_oracle`` -- a from-scratch enumeration of all reduced forms with
  automorphism weights, kept deliberately naive;
* ``HurwitzTable`` -- a bulk numpy sieve over all discriminants down to a
  bound.  numpy is imported only where such a table is built, so the other
  routes run without it.

On top of those sit the weighted counts H_t, and the alpha/beta-style
combinations the sign formulas consume.  Internally everything is an integer
in units of 1/12 (``*12`` names); the Fraction wrappers divide at the end.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .arith import factor, kronecker

# ---------------------------------------------------------------------------
# primitive forms and the fundamental decomposition


def _check_disc(disc: int) -> None:
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("need a negative discriminant (0 or 1 mod 4), got %r" % (disc,))


@cache
def class_number(disc: int) -> int:
    """h(disc): primitive reduced positive definite forms of discriminant disc."""
    _check_disc(disc)
    n = -disc
    count = 0
    b = n & 1
    while 3 * b * b <= n:
        m = (b * b + n) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            count += 1 if b == 0 or b == a or a == c else 2
        b += 2
    return count


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
        out *= p ** (m - 1) * (p - kronecker(disc0, p))
    return out


def eta_weight(disc0: int, lam: int) -> int:
    """Multiplicative weight relating H(lam**2 disc0) to h'(disc0)."""
    out = 1
    for p, m in factor(lam):
        chi = kronecker(disc0, p)
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
        return int(t.h12[-disc])
    return _hurwitz12_pure(disc)


# ---------------------------------------------------------------------------
# the independent oracle: enumerate every reduced form, weight by automorphisms


def hurwitz12_oracle(disc: int) -> int:
    """12 * H(disc) recounted from the definition (all reduced forms, weighted)."""
    if disc == 0:
        return -1
    _check_disc(disc)
    n = -disc
    total = 0
    b = n & 1
    while 3 * b * b <= n:
        m = (b * b + n) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
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
    """h12[n] = 12 * H(-n) for 0 <= n <= bound: a numpy uint32 array, index 0 unused (0)."""

    def __init__(self, bound: int, h12):
        self.bound = bound
        self.h12 = h12


def build_table(bound: int) -> HurwitzTable:
    """Sieve 12*H(-n) for all n <= bound by streaming over reduced forms.

    Walks (a, b) with 0 <= b <= a and adds each form's automorphism weight to
    every n = 4ac - b^2 <= bound (c >= a) in one strided numpy update.
    """
    import numpy as np

    if bound < 4:
        raise ValueError("bound must be at least 4")
    h12 = np.zeros(bound + 1, dtype=np.uint32)
    for a in range(1, math.isqrt(bound // 3) + 1):
        step = 4 * a
        for b in range(a + 1):
            start = 4 * a * a - b * b  # the form (a, b, c=a)
            if start > bound:
                continue
            if b == 0:
                w, w_eq = 12, 6
            elif b < a:
                w, w_eq = 24, 12
            else:
                w, w_eq = 12, 4
            h12[start::step] += w
            h12[start] -= w - w_eq
    h12[0] = 0
    return HurwitzTable(bound, h12)


_active_table: HurwitzTable | None = None


def get_table(bound: int) -> HurwitzTable:
    """Build a table covering |disc| <= bound and install it as the
    process-wide fast path for hurwitz12_ext; an installed table that
    already covers the bound is returned as it is."""
    global _active_table
    if _active_table is None or _active_table.bound < bound:
        _active_table = build_table(bound)
    return _active_table


# ---------------------------------------------------------------------------
# weighted counts


def ht12(t: int, disc: int) -> int:
    """12 * H_t(disc): forms of discriminant disc counted with b = 0 mod t.

    Closed form: with g = gcd(t, disc) = a^2 b (b squarefree), the count is
    g * (disc' / b | t/g) * H(disc' / b) when b | disc' = disc/g, else 0.
    Covers disc = 0 (H_t(0) = -t/12) and reduces to H at t = 1.
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
    return g * kronecker(dpb, t // g) * hurwitz12_ext(dpb)


def alpha1_12(d: int, e: int) -> int:
    """12 * alpha_1(d; e): the 2-power-weighted combination of H(d), H(4d).

    d < 0; e is the 2-adic valuation of the cofactor level.
    """
    if e == 0:
        return hurwitz12_ext(4 * d)
    if e in (1, 2):
        return 2 * hurwitz12_ext(d) - hurwitz12_ext(4 * d)
    if e == 3:
        return (4 * kronecker(d, 2) - 6) * hurwitz12_ext(d) + hurwitz12_ext(4 * d)
    if e == 4:
        return (2 - 4 * kronecker(d, 2)) * hurwitz12_ext(d)
    return 0


def alpha2(m: int) -> int:
    """Multiplicative square-detector weight: vanishes unless m is a perfect
    square; alpha2(p^2) = p - 2, alpha2(p^(2j)) = p^(j-2) (p-1)^2 for j >= 2."""
    out = 1
    for p, e in factor(m):
        if e & 1:
            return 0
        if e == 2:
            out *= p - 2
        else:
            out *= p ** ((e - 4) // 2) * (p - 1) ** 2
    return out
