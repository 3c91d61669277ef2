"""Closed forms and predicates for the newspace sign statistic.

``delta(k, q, r, M)`` is the trace of the Atkin-Lehner involution W_q on
S_k^new(q^r M), equivalently the difference of the two eigenspace
dimensions, evaluated through the closed forms (never through the
divisor-sum pipeline in module trace; the two routes cross-check each
other in the test suite).

``equidistribution_predicate`` answers "is it zero, and if not which sign"
from congruence data alone, tagging which case fired, with the kappa_- that
``delta`` took; three of its branches share one verdict ladder.  ``dim_new`` and
``eigenspace_dims`` supply the dimension bookkeeping, and
``correlation_checks`` packages the small-Hecke sign-correlation facts.

``dim_new`` is the genus formula for Gamma_0(N) projected to the newspace,
a product of local weights (G. Martin, J. Number Theory 112 (2005)):

    12 dim S_k^new(N) = (k-1) kappa_infty(N) - 6 alpha2(N) + 3c kappa_-4(N)
                        - 4 p_k(1,1) kappa_-3(N) + 12 [k = 2] mu(N),

c = +1 if 4 | k and -1 otherwise.  This module owns the local values at
p^e (``_kappa_infty_at``, ``_alpha2_at``, ``_kappa_minus_at``; all four
are ``dim_local(p, e)``).  ``_dim12`` weighs the four products, and
``_dim12_new``, all but the last term, takes them over factor(n);
``delta`` also reads it at odd q and r = 2.  ``window.Factors.dims``
multiplies ``dim_local`` over a whole window of levels, once per distinct
p^e.  Tower rule: ``delta`` is the s = 0 term ``classnum._s0_24`` (which
``correlation_checks`` and ``trace.t_full_fricke`` read too) at q^r, less
twice it at q^(r-2), plus it at q^(r-4), and a short table of small-s
terms; r = 2 has its own pair.

Levels are checked by the one rule ``arith.check_level``, as in modules
trace and twist; ``delta`` adds only r >= 1.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import classnum
from .arith import check_level, factor, is_prime, is_squarefree, legendre, mobius

ZERO_NOT_CUBEFREE = "not-cubefree"
ZERO_SPLIT_PRIME = "split-prime"
ZERO_TWO_ADIC = "two-adic-case"
ZERO_SMALL_LEVEL = "exceptional-small-level"
ZERO_NONE = "none"


# ---------------------------------------------------------------------------
# multiplicative kappa weights and the small p_k tables


def _kappa_minus_at(delta_arg: int, p: int, e: int) -> int:
    """kappa_Delta at p^e, e >= 1: the 4-case table."""
    if e == 1:
        return legendre(delta_arg, p) - 1
    if e == 2:
        return -1 if delta_arg % p == 0 else -legendre(delta_arg, p)
    if e == 3:
        return 1 if delta_arg % p == 0 else 0
    return 0


def kappa_minus(delta_arg: int, m: int) -> int:
    """kappa_Delta(m): multiplicative, _kappa_minus_at per prime power.  At
    a cubefree m prime to Delta each factor is chi - 1 in {0, -2} at p || m
    and -chi at p^2 || m, so it is 0 exactly when a p || m splits, and else
    of sign (-1)^(omega_1 + omega_2): the p || m, and the p^2 || m with chi = 1."""
    out = 1
    for p, e in factor(m):
        f = _kappa_minus_at(delta_arg, p, e)
        if f == 0:
            return 0
        out *= f
    return out


def _kappa_infty_at(p: int, e: int) -> int:
    if e == 1:
        return p - 1
    if e == 2:
        return p * p - p - 1
    return p ** (e - 3) * (p - 1) ** 2 * (p + 1)


def kappa_infty(m: int) -> int:
    out = 1
    for p, e in factor(m):
        out *= _kappa_infty_at(p, e)
    return out


def _alpha2_at(p: int, e: int) -> int:
    if e & 1:
        return 0
    return p - 2 if e == 2 else p ** ((e - 4) // 2) * (p - 1) ** 2


def alpha2(m: int) -> int:
    """Multiplicative square-detector weight: vanishes unless m is a perfect
    square; alpha2(p^2) = p - 2, alpha2(p^(2j)) = p^(j-2) (p-1)^2 for j >= 2."""
    out = 1
    for p, e in factor(m):
        f = _alpha2_at(p, e)
        if f == 0:
            return 0
        out *= f
    return out


def dim_local(p: int, e: int) -> tuple[int, int, int, int]:
    """The local values of the dimension formula at p^e, e >= 1:
    kappa_infty, alpha2, kappa_-4 and kappa_-3, which window.Factors.dims
    multiplies over a window's slots."""
    return _kappa_infty_at(p, e), _alpha2_at(p, e), _kappa_minus_at(-4, p, e), _kappa_minus_at(-3, p, e)


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
    e = (m & -m).bit_length() - 1
    return e, m >> e


# ---------------------------------------------------------------------------
# the closed forms


def delta(k: int, q: int, r: int, m: int) -> int:
    """tr W_{q^r} on S_k^new(q^r M) = dim^{+} - dim^{-} at any modulus q^r of
    arith.check_level: the s = 0 tower (r = 2: a pair of its own), the small-s
    terms of q^r = 2, 3, 4, 8, 16, 27, and mu(M) at r = 1, k = 2."""
    return _delta(k, q, r, m)[0]


def _delta(k: int, q: int, r: int, m: int) -> tuple[int, int]:
    """(delta, kappa): the kappa of its s = 0 terms, kappa_-(-q, M') at odd r
    and kappa_-(-1, M') at even r, which the predicate reads."""
    check_level(k, q, r, m)
    if r < 1:
        raise ValueError("delta needs r >= 1, got r = %r" % (r,))
    qr = q**r
    e, mp = _split_even(m)
    # (-q^j|p) = (-q|p) at odd j, (-1|p) at even j: one kappa for every s = 0 term
    kappa = kappa_minus(-q if r % 2 else -1, mp)
    # in 24ths: alpha_1 comes in 12ths and the closed forms halve it
    if r == 2:
        val24 = classnum._s0_24(k, qr, 1, e, kappa) - (2 if q == 2 else 1) * classnum._s0_24(k, 1, 1, e, kappa)
        if q == 2:
            val24 += 8 * pk_one(k) * kappa_minus(-3, m) - 2 * (k - 1) * kappa_infty(m)
        else:
            val24 -= 2 * _dim12_new(k, m)
    else:
        val24 = classnum._s0_24(k, qr, 1, e, kappa)
        for j, c in ((2, -2), (4, 1))[: r // 2]:  # the terms at q^(r-2) and q^(r-4) that exist
            val24 += c * classnum._s0_24(k, q ** (r - j), 1, e, kappa)
        if qr in (2, 8):
            val24 += (12 if qr == 8 else -12) * pk_sqrt2(k) * kappa_minus(-1, m)
        elif qr in (3, 27):
            val24 += (8 if qr == 27 else -8) * pk_sqrt3(k) * kappa_minus(-3, m)
        elif qr == 16:
            val24 += 12 * alpha2(m)
        if r == 1 and k == 2:
            val24 += 24 * mobius(m)
    assert val24 % 24 == 0, (k, q, r, m, val24)
    return val24 // 24, kappa


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
    return any(e == 1 and legendre(delta_arg, p) == 1 for p, e in factor(mp))


def _ladder(tag: str, value: int, c: int, mp: int, kappa: int, two_adic: tuple, b: int | None) -> DeltaResult:
    """The verdict of req1(4), req1(1) and r-odd: zero at (i) a not-cubefree M',
    (ii) a split prime (kappa = 0) or (iii)-(v) the branch's three two-adic
    conditions, in that order; else c * b * sign(kappa), no claim at b = None."""
    if not kappa:  # a cube in M' is a zero of kappa too (no p | M' divides q)
        if not _is_cubefree(mp):
            return DeltaResult(value, True, tag + "(i)", ZERO_NOT_CUBEFREE, 0)
        return DeltaResult(value, True, tag + "(ii)", ZERO_SPLIT_PRIME, 0)
    for numeral, hit in zip(("(iii)", "(iv)", "(v)"), two_adic):
        if hit:
            return DeltaResult(value, True, tag + numeral, ZERO_TWO_ADIC, 0)
    return DeltaResult(value, True, tag, ZERO_NONE, None if b is None else c * b * _sign(kappa))


def equidistribution_predicate(k: int, q: int, r: int, m: int) -> DeltaResult:
    """Zero/sign verdict for delta(k, q, r, M) from congruence data.

    covered=False means no proven case applies (q^r in {8, 16, 27}, r = 2,
    a composite q, and a few weight-2 corners); the numeric value is still
    filled in.  Where a sign is claimed (r = 1 at q >= 5, and r >= 3), it
    is c * b(e) * sign(kappa) with kappa = kappa_-(-q^r, M') (at even r,
    kappa_-(-1, M')), 0 exactly at a split prime past the not-cubefree test;
    it is delta's own kappa, as (-q^r|p) = (-q|p) at odd r.  q = 3, q >= 5 at
    r = 1 and odd r >= 3 share ``_ladder``; r-even tests e >= 4 before kappa.
    """
    value, kappa = _delta(k, q, r, m)
    e, mp = _split_even(m)
    c = -1 if (k // 2) % 2 else 1
    qr = q**r

    def res(tag, reason, sign, covered=True):
        return DeltaResult(value, covered, tag, reason, sign)

    if r == 2 or qr in (8, 16, 27) or not is_prime(q):
        return res("not-covered", ZERO_NONE, None, covered=False)

    if r == 1 and q == 2:
        # M is odd here (coprimality), so e = 0, mp = m and kappa = kappa_-(-2, M).
        if k == 2 and is_squarefree(m):
            if m == 1 or (is_prime(m) and m % 8 in (3, 5)):
                return res("req1(3)(iii)", ZERO_SMALL_LEVEL, 0)
            return res("req1(3)", ZERO_NONE, None)
        if not _is_cubefree(m):
            return res("req1(3)(i)", ZERO_NOT_CUBEFREE, 0)
        k1 = kappa_minus(-1, m)
        if kappa == 0 and k1 == 0:
            # both weights die on split primes; the printed product test
            # does not see this case
            return res("req1(3)(ii*)", ZERO_SPLIT_PRIME, 0)
        if kappa != 0 and k1 != 0:
            prod = 1
            for p, ee in factor(m):
                if ee == 2:
                    prod *= legendre(2, p)
            eps_k = -1 if k % 8 in (0, 2) else 1
            if prod == eps_k:
                return res("req1(3)(ii)", ZERO_TWO_ADIC, 0)
        return res("req1(3)", ZERO_NONE, None)

    if r == 1 and q == 3:
        if k == 2 and is_squarefree(m):
            if m in (1, 2):
                return res("req1(4)(k=2)", ZERO_SMALL_LEVEL, 0)
            return res("req1(4)", ZERO_NONE, None)
        two_adic = (e >= 5, e == 0 and k % 12 in (4, 10), e == 2 and k % 12 not in (4, 10))
        return _ladder("req1(4)", value, c, mp, kappa, two_adic, None)

    if r == 1:  # q >= 5
        if k == 2 and is_squarefree(m):
            if m == 1 and q in (5, 7, 13, 37):
                return res("req1(2)(i)", ZERO_SMALL_LEVEL, 0)
            if m == 2 and q in (5, 11, 13, 19, 37, 43, 67, 163):
                return res("req1(2)(ii)", ZERO_SMALL_LEVEL, 0)
            # nonzero; the closed-form main term dominates the mu correction
            # weakly, so when it is nonzero it also carries the sign
            if kappa and not (e == 1 and q % 8 == 7):
                return res("req1(2)", ZERO_NONE, c * _b_odd(e, q) * _sign(kappa))
            return res("req1(2)", ZERO_NONE, None)
        two_adic = (e >= 4 and q % 4 == 1, e >= 5 and q % 8 == 3, e not in (0, 4) and q % 8 == 7)
        return _ladder("req1(1)", value, c, mp, kappa, two_adic, _b_odd(e, q))

    if r % 2:  # r >= 3 odd, q^r not 8 or 27
        two_adic = (e >= 5, e == 4 and qr % 4 == 1, e in (1, 2, 3) and qr % 8 == 7)
        return _ladder("r-odd", value, c, mp, kappa, two_adic, _b_odd(e, qr))

    # r >= 4 even, q^r != 16
    if not _is_cubefree(mp):
        return res("r-even(i)", ZERO_NOT_CUBEFREE, 0)
    if e >= 4:
        return res("r-even(ii)", ZERO_TWO_ADIC, 0)
    if not kappa:
        return res("r-even(iii)", ZERO_SPLIT_PRIME, 0)
    return res("r-even", ZERO_NONE, c * _b_even(e) * _sign(kappa))


# ---------------------------------------------------------------------------
# dimensions


def _dim12(k: int, kinf, a2, km4, km3):
    """12 * dim S_k^new less the weight-2 term 12 mu(n), from the products
    over n of the four local values (ints, or numpy arrays alike): the
    genus formula's psi, nu_inf, nu_2 and nu_3 projected to the newspace."""
    c = -1 if (k // 2) % 2 else 1
    return (k - 1) * kinf - 6 * a2 + 3 * c * km4 - 4 * pk_one(k) * km3


def _dim12_new(k: int, n: int) -> int:
    return _dim12(k, kappa_infty(n), alpha2(n), kappa_minus(-4, n), kappa_minus(-3, n))


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

    tr24 = classnum._s0_24(k, q, ell, e, kappa_minus(-q * ell, mp))
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
