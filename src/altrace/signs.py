"""Closed forms and predicates for the newspace sign statistic.

``delta(k, q, r, M)`` is the trace of the Atkin-Lehner involution W_q on
S_k^new(q^r M), equivalently the difference of the two eigenspace
dimensions, evaluated through the per-case closed forms (never through the
divisor-sum pipeline in module trace; the two routes cross-check each
other in the test suite).

``equidistribution_predicate`` answers "is it zero, and if not which sign"
from congruence data alone, tagging which case fired.  ``dim_new`` and
``eigenspace_dims`` supply the dimension bookkeeping, and
``correlation_checks`` packages the small-Hecke sign-correlation facts.

``dim_new`` is the genus formula for Gamma_0(N) projected to the newspace,
a product of local weights (G. Martin, J. Number Theory 112 (2005)):

    12 dim S_k^new(N) = (k-1) kappa_infty(N) - 6 alpha2(N) + 3c kappa_-4(N)
                        - 4 p_k(1,1) kappa_-3(N) + 12 [k = 2] mu(N),

c = +1 if 4 | k and -1 otherwise.  All but the last term is ``_dim12_new``,
which ``delta`` also reads at odd q and r = 2.  Tower rule: at r >= 3, bar
q^r = 8, 16, 27, ``delta`` is the bracket at q^r less that at q^(r-2).

Levels are checked by the one rule ``arith.check_level``, as in modules
trace and twist; ``delta`` adds only a prime q and r >= 1.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import classnum
from .arith import (
    check_level,
    factor,
    is_prime,
    is_squarefree,
    kronecker,
    mobius,
    omega1,
    omega2,
)

ZERO_NOT_CUBEFREE = "not-cubefree"
ZERO_SPLIT_PRIME = "split-prime"
ZERO_TWO_ADIC = "two-adic-case"
ZERO_SMALL_LEVEL = "exceptional-small-level"
ZERO_NONE = "none"


# ---------------------------------------------------------------------------
# multiplicative kappa weights and the small p_k tables


def kappa_minus(delta_arg: int, m: int) -> int:
    """kappa_Delta(m): multiplicative; per prime power see the 4-case table."""
    out = 1
    for p, e in factor(m):
        if e == 1:
            f = kronecker(delta_arg, p) - 1
        elif e == 2:
            f = -1 if delta_arg % p == 0 else -kronecker(delta_arg, p)
        elif e == 3:
            f = 1 if delta_arg % p == 0 else 0
        else:
            f = 0
        if f == 0:
            return 0
        out *= f
    return out


def kappa_infty(m: int) -> int:
    out = 1
    for p, e in factor(m):
        if e == 1:
            out *= p - 1
        elif e == 2:
            out *= p * p - p - 1
        else:
            out *= p ** (e - 3) * (p - 1) ** 2 * (p + 1)
    return out


def pk_one(k: int) -> int:
    """p_k(1, 1): period 6 in k."""
    return {0: -1, 2: 1, 4: 0}[k % 6]


def pk_sqrt2(k: int) -> int:
    """p_k(sqrt(2), 1): period 8 in k."""
    return {0: -1, 2: 1, 4: 1, 6: -1}[k % 8]


def pk_sqrt3(k: int) -> int:
    """p_k(sqrt(3), 1): period 12 in k."""
    return {0: -1, 2: 1, 4: 2, 6: 1, 8: -1, 10: -2}[k % 12]


def _split_even(m: int) -> tuple[int, int]:
    """m = 2**e * m' with m' odd; returns (e, m')."""
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    return e, m


# ---------------------------------------------------------------------------
# the closed forms


def delta(k: int, q: int, r: int, m: int) -> int:
    """tr W_q on S_k^new(q^r M) = dim^{+} - dim^{-}, via the closed forms."""
    check_level(k, q, r, m)
    if r < 1 or not is_prime(q):
        raise ValueError("delta needs a prime q and r >= 1, got q = %r, r = %r" % (q, r))
    e, mp = _split_even(m)
    c = -1 if (k // 2) % 2 else 1
    a12 = lambda d: classnum.alpha1_12(d, e)
    qr = q**r
    # every case is accumulated in 24ths: alpha_1 comes in 12ths and the
    # closed forms halve it
    if r == 1:
        if q >= 5:
            val24 = c * a12(-q) * kappa_minus(-q, mp)
        elif q == 2:
            val24 = 12 * (c * kappa_minus(-2, m) - pk_sqrt2(k) * kappa_minus(-1, m))
        else:  # q == 3
            val24 = c * a12(-3) * kappa_minus(-3, mp) - 8 * pk_sqrt3(k) * kappa_minus(-3, m)
        if k == 2:
            val24 += 24 * mobius(m)
    elif r == 2:
        if q == 2:
            val24 = 6 * c * kappa_minus(-1, m) + 8 * pk_one(k) * kappa_minus(-3, m) - 2 * (k - 1) * kappa_infty(m)
        else:
            val24 = c * (a12(-q * q) - a12(-1)) * kappa_minus(-1, mp) - 2 * _dim12_new(k, m)
    elif qr == 8:
        val24 = 12 * (c * kappa_minus(-2, m) + pk_sqrt2(k) * kappa_minus(-1, m))
    elif qr == 27:
        val24 = (c * (a12(-27) - 2 * a12(-3)) + 8 * pk_sqrt3(k) * kappa_minus(-3, 2**e)) * kappa_minus(-3, mp)
    elif qr == 16:
        val24 = 12 * (c * kappa_minus(-1, m) + classnum.alpha2(m))
    else:
        # (-q^r|p) = (-q|p) at odd r
        tower = a12(-qr) - 2 * a12(-(qr // q**2)) + (a12(-(qr // q**4)) if r >= 4 else 0)
        val24 = c * kappa_minus(-(q ** (r % 2)), mp) * tower
    assert val24 % 24 == 0, (k, q, r, m, val24)
    return val24 // 24


# ---------------------------------------------------------------------------
# predicates


# predicted_sign: 0 = predicted zero; None = no sign claim
DeltaResult = namedtuple("DeltaResult", "value covered case_tag zero_reason predicted_sign")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _b_odd(e: int, qr: int) -> int:
    """Sign of the leading 2-power weight for odd prime-power parts."""
    if e == 0:
        return 1
    if e in (1, 2):
        return -1
    if e == 3:
        return 1 if qr % 4 == 1 else -1
    if e == 4:
        return 1 if qr % 8 == 3 else -1
    return 0


def _b_even(e: int) -> int:
    if e in (0, 3):
        return 1
    if e in (1, 2):
        return -1
    return 0


def _is_cubefree(m: int) -> bool:
    return all(e <= 2 for _, e in factor(m))


def _has_split_prime(delta_arg: int, mp: int) -> bool:
    return any(
        e == 1 and kronecker(delta_arg, p) == 1 for p, e in factor(mp)
    )


def equidistribution_predicate(k: int, q: int, r: int, m: int) -> DeltaResult:
    """Zero/sign verdict for delta(k, q, r, M) from congruence data.

    covered=False means no proven case applies (q^r in {8, 16, 27}, r = 2,
    and a few weight-2 corners); the numeric value is still filled in.
    """
    value = delta(k, q, r, m)
    e, mp = _split_even(m)
    c = -1 if (k // 2) % 2 else 1
    qr = q**r

    def res(tag, reason, sign, covered=True):
        return DeltaResult(value, covered, tag, reason, sign)

    if r == 2 or qr in (8, 16, 27):
        return res("not-covered", ZERO_NONE, None, covered=False)

    if r == 1 and q == 2:
        # M is odd here (coprimality), so e = 0 and mp = m.
        if k == 2 and is_squarefree(m):
            if m == 1 or (is_prime(m) and m % 8 in (3, 5)):
                return res("req1(3)(iii)", ZERO_SMALL_LEVEL, 0)
            return res("req1(3)", ZERO_NONE, None)
        if not _is_cubefree(m):
            return res("req1(3)(i)", ZERO_NOT_CUBEFREE, 0)
        k2 = kappa_minus(-2, m)
        k1 = kappa_minus(-1, m)
        if k2 == 0 and k1 == 0:
            # both weights die on split primes; the printed product test
            # does not see this case
            return res("req1(3)(ii*)", ZERO_SPLIT_PRIME, 0)
        if k2 != 0 and k1 != 0:
            prod = 1
            for p, ee in factor(m):
                if ee == 2:
                    prod *= kronecker(2, p)
            eps_k = -1 if k % 8 in (0, 2) else 1
            if prod == eps_k:
                return res("req1(3)(ii)", ZERO_TWO_ADIC, 0)
        return res("req1(3)", ZERO_NONE, None)

    if r == 1 and q == 3:
        if k == 2 and is_squarefree(m):
            if m in (1, 2):
                return res("req1(4)(k=2)", ZERO_SMALL_LEVEL, 0)
            return res("req1(4)", ZERO_NONE, None)
        if not _is_cubefree(mp):
            return res("req1(4)(i)", ZERO_NOT_CUBEFREE, 0)
        if _has_split_prime(-3, mp):
            return res("req1(4)(ii)", ZERO_SPLIT_PRIME, 0)
        if e >= 5:
            return res("req1(4)(iii)", ZERO_TWO_ADIC, 0)
        if e == 0 and k % 12 in (4, 10):
            return res("req1(4)(iv)", ZERO_TWO_ADIC, 0)
        if e == 2 and k % 12 not in (4, 10):
            return res("req1(4)(v)", ZERO_TWO_ADIC, 0)
        return res("req1(4)", ZERO_NONE, None)

    if r == 1:  # q >= 5
        if k == 2 and is_squarefree(m):
            if m == 1 and q in (5, 7, 13, 37):
                return res("req1(2)(i)", ZERO_SMALL_LEVEL, 0)
            if m == 2 and q in (5, 11, 13, 19, 37, 43, 67, 163):
                return res("req1(2)(ii)", ZERO_SMALL_LEVEL, 0)
            # nonzero; the closed-form main term dominates the mu correction
            # weakly, so when it is nonzero it also carries the sign
            if not _has_split_prime(-q, mp) and not (e == 1 and q % 8 == 7):
                sign = c * _b_odd(e, q) * (-1) ** (omega1(mp) + omega2(-q, mp))
                return res("req1(2)", ZERO_NONE, sign)
            return res("req1(2)", ZERO_NONE, None)
        if not _is_cubefree(mp):
            return res("req1(1)(i)", ZERO_NOT_CUBEFREE, 0)
        if _has_split_prime(-q, mp):
            return res("req1(1)(ii)", ZERO_SPLIT_PRIME, 0)
        if e >= 4 and q % 4 == 1:
            return res("req1(1)(iii)", ZERO_TWO_ADIC, 0)
        if e >= 5 and q % 8 == 3:
            return res("req1(1)(iv)", ZERO_TWO_ADIC, 0)
        if e not in (0, 4) and q % 8 == 7:
            return res("req1(1)(v)", ZERO_TWO_ADIC, 0)
        sign = c * _b_odd(e, q) * (-1) ** (omega1(mp) + omega2(-q, mp))
        return res("req1(1)", ZERO_NONE, sign)

    if r % 2:  # r >= 3 odd, q^r not 8 or 27
        if not _is_cubefree(mp):
            return res("r-odd(i)", ZERO_NOT_CUBEFREE, 0)
        if _has_split_prime(-qr, mp):
            return res("r-odd(ii)", ZERO_SPLIT_PRIME, 0)
        if e >= 5:
            return res("r-odd(iii)", ZERO_TWO_ADIC, 0)
        if e == 4 and qr % 4 == 1:
            return res("r-odd(iv)", ZERO_TWO_ADIC, 0)
        if e in (1, 2, 3) and qr % 8 == 7:
            return res("r-odd(v)", ZERO_TWO_ADIC, 0)
        sign = c * _b_odd(e, qr) * (-1) ** (omega1(mp) + omega2(-qr, mp))
        return res("r-odd", ZERO_NONE, sign)

    # r >= 4 even, q^r != 16
    if not _is_cubefree(mp):
        return res("r-even(i)", ZERO_NOT_CUBEFREE, 0)
    if e >= 4:
        return res("r-even(ii)", ZERO_TWO_ADIC, 0)
    if _has_split_prime(-1, mp):
        return res("r-even(iii)", ZERO_SPLIT_PRIME, 0)
    sign = c * _b_even(e) * (-1) ** (omega1(mp) + omega2(-1, mp))
    return res("r-even", ZERO_NONE, sign)


# ---------------------------------------------------------------------------
# dimensions


def _dim12_new(k: int, n: int) -> int:
    """12 * dim S_k^new(Gamma_0(n)) less the weight-2 term 12 mu(n): the
    genus formula's psi, nu_inf, nu_2 and nu_3 projected to the newspace
    are kappa_infty, alpha2, kappa_minus(-4, .) and kappa_minus(-3, .)."""
    c = -1 if (k // 2) % 2 else 1
    d12 = (k - 1) * kappa_infty(n) - 6 * classnum.alpha2(n)
    return d12 + 3 * c * kappa_minus(-4, n) - 4 * pk_one(k) * kappa_minus(-3, n)


def dim_new(k: int, n: int) -> int:
    """dim S_k^new(Gamma_0(n)) for even k >= 2."""
    check_level(k, 1, 0, n)
    d12 = _dim12_new(k, n)
    if k == 2:
        d12 += 12 * mobius(n)
    assert d12 % 12 == 0 and d12 >= 0, (k, n, d12)
    return d12 // 12


EigenspaceDims = namedtuple("EigenspaceDims", "plus minus")


def eigenspace_dims(k: int, q: int, r: int, m: int) -> EigenspaceDims:
    diff = delta(k, q, r, m)  # first, so its check of (k, q, r, M) reports a bad argument
    total = dim_new(k, q**r * m)
    assert (total + diff) % 2 == 0 and abs(diff) <= total, (k, q, r, m, total, diff)
    return EigenspaceDims((total + diff) // 2, (total - diff) // 2)


# ---------------------------------------------------------------------------
# asymptotic diagnostics for r = 2


# kinfty_leading: leading term as k -> infinity, q fixed;
# qinfty_coefficient: coefficient of q as q -> infinity, k fixed
R2Asymptotics = namedtuple("R2Asymptotics", "kinfty_leading qinfty_coefficient qinfty_hypotheses_met")


def delta_r2_asymptotics(k: int, q: int, m: int) -> R2Asymptotics:
    check_level(k, q, 2, m)  # at r = 2 it already asks for a prime q
    e, mp = _split_even(m)
    c = -1 if (k // 2) % 2 else 1
    kinfty = Fraction(1 - k, 12) * kappa_infty(m)
    b = _b_even(e)
    coeff = Fraction(c * b * kappa_minus(-1, mp), 4)
    hyp = (_is_cubefree(m) or _is_cubefree(m // 2 if m % 2 == 0 else m)) and not any(
        ee == 1 and p % 4 == 1 for p, ee in factor(m)
    )
    return R2Asymptotics(kinfty, coeff, hyp)


# ---------------------------------------------------------------------------
# sign correlation of tr T_l W_q with delta for small Hecke index


# trace_value: tr T_l W_q on S_k^new(qM), closed form
CorrelationResult = namedtuple(
    "CorrelationResult",
    "hypotheses_met note trace_value zero_expected zero_observed sign_ratio_observed",
    defaults=(None,) * 4,
)


def correlation_checks(k: int, q: int, m: int, ell: int) -> CorrelationResult:
    """Vanishing and sign agreement of tr T_l W_q against delta(k, q, 1, M).

    Raises ValueError unless (k, q, M, l) passes arith.check_level at r = 1.
    The hypotheses are l, q prime with 4l < q, M squarefree or twice
    squarefree, and weight at least 4 (the weight-2 statement has a
    hypothesis inconsistency, so it is reported as out of scope); outside
    them the result has hypotheses_met=False and a note saying which fails.

    In scope the sign ratio of trace and delta is +1 whenever both are
    nonzero, so sign_ratio_observed is None or 1: over the squarefree odd
    part M' each kappa factor is 0 or -2 on both sides, and alpha_1 has one
    sign.
    """
    check_level(k, q, 1, m, ell)
    if k == 2:
        return CorrelationResult(False, "weight 2 is outside the certified range")
    if not (is_prime(q) and is_prime(ell) and 4 * ell < q):
        return CorrelationResult(False, "need primes with 4l < q")
    e, mp = _split_even(m)
    if e > 1 or not is_squarefree(mp):
        return CorrelationResult(False, "M must be squarefree or twice squarefree")

    pk0 = (-ell) ** (k // 2 - 1)
    tr24 = -pk0 * classnum.alpha1_12(-q * ell, e) * kappa_minus(-q * ell, mp)
    assert tr24 % 24 == 0, (k, q, m, ell, tr24)
    tr = tr24 // 24
    dv = delta(k, q, 1, m)

    zero_expected = _has_split_prime(-q * ell, mp) or (e == 1 and (q * ell) % 8 == 7)
    ratio_observed = _sign(tr) * _sign(dv) if tr and dv else None

    return CorrelationResult(
        True,
        "",
        trace_value=tr,
        zero_expected=zero_expected,
        zero_observed=tr == 0,
        sign_ratio_observed=ratio_observed,
    )
