import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from altrace import classnum, signs, trace
from altrace.arith import (
    core_square_part,
    divisors,
    divisors_with_squarefree_cofactor,
    factor,
    is_prime,
    is_squarefree,
    kronecker,
    mobius,
    mobius_squared_transform,
    primes_up_to,
    sigma,
)


# ---------------------------------------------------------------------------
# Fraction reference for the squarefree route: the local newspace weight xi
# multiplies H(disc) itself, instead of the integer kernel's
# ((D0|p) - 1) H(disc / p^(2e))


def xi(disc: int, m: int) -> Fraction:
    """The local newspace weight xi_disc(m), multiplicative over p | m."""
    out = Fraction(1)
    for p, _ in factor(m).factors:
        out *= _xi_p(disc, p)
        if not out:
            break
    return out


def _xi_p(disc: int, p: int) -> Fraction:
    if disc % (p * p):
        return Fraction(kronecker(disc, p) - 1)
    disc0, lam = classnum.decompose(disc)
    e = 0
    while lam % p == 0:
        lam //= p
        e += 1
    chi = kronecker(disc0, p)
    num = (p - 1) * (chi - 1)
    den = (p ** (e + 1) - 1) - chi * (p**e - 1)
    return Fraction(num, den)


def _t_new_squarefree_reference(k: int, big_q: int, m: int, ell: int) -> tuple[int, bool]:
    """tr T_l W_Q on S_k^new(Q m) as the xi-weighted Fraction sum over s.

    Also reports whether some p | m had p^2 | disc at a nonzero term, the
    case where the two routes look up different class numbers.
    """
    total = Fraction(0)
    square_hit = False
    s = 0
    while s * s * big_q <= 4 * ell:
        disc = big_q * (s * s * big_q - 4 * ell)
        weight = 1 if s == 0 else 2
        pk = trace.pk_from_s2(k, s * s * big_q, ell)
        w = xi(disc, m)
        if w:
            square_hit |= any(disc % (p * p) == 0 for p, _ in factor(m).factors)
        total += weight * pk * w * Fraction(classnum.hurwitz12_ext(disc), 12)
        s += 1
    val = -total / 2
    if big_q * m == 1:
        val -= 1
    if k == 2:
        val += mobius(m) * sigma(ell)
    assert val.denominator == 1, (k, big_q, m, ell, val)
    return int(val), square_hit


def _delta_q_expansion(terms: int) -> list[int]:
    """Coefficients tau(1..terms) of q prod (1-q^n)^24, exact integers."""
    eta = [0] * (terms + 1)
    eta[0] = 1
    for n in range(1, terms + 1):
        # multiply by (1 - q^n)
        for i in range(terms, n - 1, -1):
            eta[i] -= eta[i - n]
    f = [1] + [0] * terms
    for _ in range(24):
        out = [0] * (terms + 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(eta[: terms + 1 - i]):
                    if b:
                        out[i + j] += a * b
        f = out
    return f[:terms]  # f[i] = tau(i + 1)


def test_level_one_traces_match_delta_function():
    tau = _delta_q_expansion(14)
    assert tau[0] == 1 and tau[1] == -24 and tau[2] == 252
    for ell in (2, 3, 5, 7, 11, 13):
        q = 3 if ell == 2 else 2
        assert trace.t_full(12, q, 0, 1, ell) == tau[ell - 1], ell


def test_level_one_higher_weights():
    # S_16 = Delta*E4, S_18 = Delta*E6, S_20 = Delta*E8, S_22 = Delta*E10:
    # tr T_2 is tau(2) + (Eisenstein q-coefficient)
    for k, a2 in ((16, -24 + 240), (18, -24 - 504), (20, -24 + 480), (22, -24 - 264)):
        assert trace.t_full(k, 3, 0, 1, 2) == a2, k


def test_known_weight_two_newform_traces():
    # level 11: single form with a_2 = -2; level 23: Galois pair with
    # a_2 summing to -1; level 37: forms with a_2 = -2 and 0
    assert trace.t_new_level(2, 11, 2) == -2
    assert trace.t_new_level(2, 23, 2) == -1
    assert trace.t_new_level(2, 37, 2) == -2
    # Fricke traces: tr T_2 W_11 = w * a_2 = (-1)(-2) = 2
    assert trace.t_new(2, 11, 1, 1, 2) == 2


def test_dimension_from_trace_at_one():
    for k, n, dim in ((12, 1, 1), (2, 11, 1), (2, 22, 0), (2, 23, 2), (4, 13, 3), (2, 37, 2)):
        assert trace.t_new_level(k, n, 1) == dim, (k, n)


def test_pk_recurrence_against_sign_tables():
    for k in range(2, 62, 2):
        assert trace.pk_from_s2(k, 1, 1) == signs.pk_one(k), k
        assert trace.pk_from_s2(k, 2, 1) == signs.pk_sqrt2(k), k
        assert trace.pk_from_s2(k, 3, 1) == signs.pk_sqrt3(k), k
        assert trace.pk_from_s2(k, 0, 1) == (-1) ** (k // 2 - 1), k
    # p_k(s, ell) for s^2 = 4 ell is the derivative-type boundary value
    assert trace.pk_from_s2(12, 4, 1) == 11


def test_pk_rejects_odd_weight():
    with pytest.raises(ValueError):
        trace.pk_from_s2(3, 1, 1)


def test_two_paths_agree_at_ell_one():
    for k in (2, 4, 6):
        for q, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (2, 4), (3, 3)):
            for m in range(1, 40):
                if math.gcd(m, q) > 1:
                    continue
                assert trace.t_new(k, q, r, m, 1) == signs.delta(k, q, r, m), (k, q, r, m)


def test_squarefree_path_matches_prime_power_path():
    for k in (2, 4, 6):
        for q in (2, 3, 5, 7, 11):
            for m in range(1, 30):
                if math.gcd(m, q) > 1 or not is_squarefree(q * m):
                    continue
                for ell in (1, 2, 3, 5):
                    if math.gcd(ell, q * m) > 1:
                        continue
                    assert trace.t_new_squarefree(k, q, m, ell) == trace.t_new(k, q, 1, m, ell), (k, q, m, ell)


def test_fricke_full_space_identity():
    for n in (11, 13, 21, 29, 37, 55, 101, 210):
        for ell in (1, 2, 3, 5, 7):
            if math.gcd(ell, n) > 1 or 4 * ell >= n:
                continue
            # oldform W_N contributions cancel in conjugate pairs, so the
            # full-space Fricke trace equals the newspace one
            assert trace.t_full_fricke(2, n, ell) == trace.t_new_squarefree(2, n, 1, ell), (n, ell)


def test_fricke_rejects_large_hecke_index():
    with pytest.raises(ValueError):
        trace.t_full_fricke(2, 11, 3)


def test_weight_two_sigma_term():
    # with 4*ell < q only s = 0 survives the elliptic sum, so the weight-2
    # trace is -H(-4 q ell)/2 plus the sigma(ell) correction
    q, ell = 13, 3
    k2 = trace.t_new(2, q, 1, 1, ell)
    s0 = -Fraction(classnum.alpha1_12(-q * ell, 0), 24)
    assert k2 == s0 + sigma(ell)


def test_xi_values_and_multiplicativity():
    # xi(disc, p) at split p is 1 - 2/(p+1) type weight; pin the structure
    # via multiplicativity and a direct 1 at m = 1
    assert xi(-4, 1) == 1
    for disc in (-4, -8, -3, -20):
        for m1 in (2, 3, 5, 7, 9):
            for m2 in (11, 13):
                assert xi(disc, m1 * m2) == xi(disc, m1) * xi(disc, m2), (disc, m1, m2)


_SQF_Q = [q for q in range(1, 40) if is_squarefree(q)]
_SQF_M = [m for m in range(1, 211) if is_squarefree(m)]


@given(
    st.sampled_from([2, 4, 6, 12]),
    st.sampled_from(_SQF_Q),
    st.sampled_from(_SQF_M),
    st.integers(min_value=1, max_value=250),
)
# composite m with p^2 | disc = s^2 - 4 ell: at m = 15, -27 = 3^2 * -3
# (ell = 7, s = 1), -75 = 5^2 * -3 (ell = 19, s = 1) and -108 = 6^2 * -3
# (ell = 31, s = 4); at m = 6 and 30, -48 = 4^2 * -3 and -36 = 6^2 * -1
# (ell = 13, s = 2 and 4); ell = 11 = -1 mod 3 has no such s at m = 15
@example(2, 1, 15, 7)
@example(4, 1, 15, 19)
@example(6, 1, 15, 31)
@example(4, 1, 15, 11)
@example(2, 1, 6, 13)
@example(4, 1, 30, 13)
def test_squarefree_kernel_matches_xi_fraction_sum(k, big_q, m, ell):
    assume(is_squarefree(big_q * m) and math.gcd(ell, big_q * m) == 1)
    assume(big_q > 1 or is_prime(ell))
    expect, _ = _t_new_squarefree_reference(k, big_q, m, ell)
    assert trace.t_new_squarefree(k, big_q, m, ell) == expect, (k, big_q, m, ell)


def test_squarefree_reference_reaches_square_discriminants():
    # the examples above do exercise the p^2 | disc branch of xi
    for m, ell in ((15, 7), (6, 13), (30, 13)):
        _, hit = _t_new_squarefree_reference(2, 1, m, ell)
        assert hit, (m, ell)


@given(
    st.sampled_from([2, 4, 8]),
    st.sampled_from(_SQF_Q),
    st.sampled_from([m for m in _SQF_M if m <= 60]),
    st.integers(min_value=1, max_value=60),
)
@example(2, 1, 15, 7)
@example(2, 1, 6, 13)
def test_squarefree_kernel_same_with_and_without_table(k, big_q, m, ell):
    # the kernel looks up H(disc / p^(2e)); both the table and the
    # per-discriminant fallback must serve those reduced discriminants
    assume(is_squarefree(big_q * m) and math.gcd(ell, big_q * m) == 1)
    assume(big_q > 1 or is_prime(ell))
    assert 4 * big_q * ell <= classnum._active_table.bound
    on = trace.t_new_squarefree(k, big_q, m, ell)
    with mock.patch.object(classnum, "_active_table", None):
        off = trace.t_new_squarefree(k, big_q, m, ell)
    assert on == off, (k, big_q, m, ell)


def _t_new_uncached(k, q, r, m, ell):
    # clear every memo in the trace module, whatever it holds, so that no
    # value computed from the table (or without it) serves this call
    for obj in vars(trace).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    return trace.t_new(k, q, r, m, ell)


@given(
    st.sampled_from([2, 4, 6]),
    st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=30),
)
@example(2, (3, 2), 20, 7)
def test_divisor_sum_trace_same_with_and_without_table(k, qr, m, ell):
    q, r = qr
    assume(m % q and math.gcd(ell, q * m) == 1)
    assert 4 * q**r * ell <= classnum._active_table.bound
    on = _t_new_uncached(k, q, r, m, ell)
    with mock.patch.object(classnum, "_active_table", None):
        off = _t_new_uncached(k, q, r, m, ell)
    assert on == off, (k, q, r, m, ell)


@given(
    st.sampled_from([2, 4, 6]),
    st.sampled_from([n for n in range(5, 200) if is_squarefree(n)]),
    st.integers(min_value=1, max_value=49),
)
def test_fricke_trace_same_with_and_without_table(k, n_level, n_hecke):
    assume(4 * n_hecke < n_level and math.gcd(n_level, n_hecke) == 1)
    on = trace.t_full_fricke(k, n_level, n_hecke)
    with mock.patch.object(classnum, "_active_table", None):
        off = trace.t_full_fricke(k, n_level, n_hecke)
    assert on == off, (k, n_level, n_hecke)


def test_t_new_squarefree_guards():
    with pytest.raises(ValueError):
        trace.t_new_squarefree(2, 4, 1, 3)  # Q not squarefree
    with pytest.raises(ValueError):
        trace.t_new_squarefree(2, 3, 3, 5)  # Q*m not squarefree... 3*3 = 9
    with pytest.raises(ValueError):
        trace.t_new_squarefree(2, 1, 15, 4)  # Q = 1 needs prime Hecke index
    with pytest.raises(ValueError):
        trace.t_new(3, 5, 1, 1, 1)  # odd weight


def test_hecke_index_must_be_coprime():
    with pytest.raises(ValueError):
        trace.t_new(4, 5, 1, 3, 5)
    with pytest.raises(ValueError):
        trace.t_new_level(2, 33, 3)
    # ell = 2 shares a prime with M = 4: S_2(Gamma0(12)) = 0, so any nonzero
    # value here would be wrong
    for fn in (trace.t_full, trace.t_new):
        with pytest.raises(ValueError, match="coprime to the level"):
            fn(2, 3, 1, 4, 2)
        with pytest.raises(ValueError, match="coprime to the level"):
            fn(4, 5, 2, 9, 3)


def test_negative_exponent_is_rejected():
    # q^r with r < 0 is not a level, so there is no trace to return
    for fn in (trace.t_full, trace.t_new):
        for r in (-1, -3):
            with pytest.raises(ValueError, match="r must be >= 0"):
                fn(2, 3, r, 1, 1)
    # r = 0 is the plain level M, whatever the prime q
    assert trace.t_new(2, 5, 0, 11, 2) == trace.t_new(2, 3, 0, 11, 2) == trace.t_new_level(2, 11, 2)
    assert trace.t_full(2, 5, 0, 11, 1) == 1  # S_2(Gamma0(11)) is one-dimensional


@given(
    st.sampled_from([2, 4, 6, 8]),
    st.sampled_from([(2, 1), (3, 1), (5, 1), (3, 2), (2, 3)]),
    st.integers(min_value=1, max_value=24),
)
def test_new_trace_dimension_bound_at_ell_one(k, qr, m):
    q, r = qr
    if math.gcd(m, q) > 1:
        return
    tr_w = trace.t_new(k, q, r, m, 1)
    dim = trace.t_new_level(k, q**r * m, 1)
    assert abs(tr_w) <= dim
    assert (dim + tr_w) % 2 == 0


# ---------------------------------------------------------------------------
# reference for the divisor-sum kernel: the newspace projection applied to
# whole full-space sums, one s-loop per sub-level m/d, instead of the fused
# per-level weights


def _a1_24_reference(k, q, r, eps, m, ell):
    if r < 0:
        return 0
    qr = q**r
    bound = 4 * qr * ell
    total = 0
    for s in range(0, math.isqrt(bound) + 1, q ** (r + eps)):
        inner = sum(classnum.ht12(t, s * s - bound) for t in divisors_with_squarefree_cofactor(m))
        total += (1 if s == 0 else 2) * trace.pk_from_s2(k, s * s // qr, ell) * inner
    return -total


def _a2_2_reference(k, q, r, m, ell):
    if r < 0 or r % 2:
        return 0
    qh = q ** (r // 2)
    phi = qh - qh // q if r else 1
    total = 0
    for dl in divisors(ell):
        dl2 = ell // dl
        if (dl + dl2) % qh == 0:
            inner = sum(math.gcd(core_square_part(t), dl - dl2) for t in divisors_with_squarefree_cofactor(m))
            total += min(dl, dl2) ** (k - 1) * inner
    return -phi * total


def _trace_reference(k, q, r, m, ell, new):
    if new:
        a1 = lambda rr, eps: mobius_squared_transform(lambda mm: _a1_24_reference(k, q, rr, eps, mm, ell), m)
        a2 = lambda rr: mobius_squared_transform(lambda mm: 12 * _a2_2_reference(k, q, rr, mm, ell), m)
        val24 = a1(r, 0) + a2(r)
        if r >= 2:
            val24 += -a1(r - 2, 0) - a1(r - 2, 1) - a2(r - 2) + a1(r - 4, 1)
    else:
        val24 = _a1_24_reference(k, q, r, 0, m, ell) + 12 * _a2_2_reference(k, q, r, m, ell)
        val24 -= _a1_24_reference(k, q, r - 2, 1, m, ell)
    assert val24 % 24 == 0, (k, q, r, m, ell, new, val24)
    val = val24 // 24
    if k == 2 and not new:
        val += sigma(ell)
    elif k == 2 and r <= 1:
        val += mobius(m) * sigma(ell)
    return val


_QR_UP_TO_243 = [(q, r) for q in primes_up_to(243) for r in range(6) if q**r <= 243 and (r or q <= 7)]


@given(
    st.sampled_from([2, 4, 6, 8, 12]),
    st.sampled_from(_QR_UP_TO_243),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=40),
)
# the twist shapes: p^3 || M with (q|p) = -1, and 2^5 or 2^7 || M with q = 3 mod 4
@example(6, (2, 3), 27, 5)
@example(2, (5, 1), 24, 7)
@example(2, (3, 1), 32, 7)
@example(8, (7, 2), 160, 3)
@example(4, (3, 2), 128, 5)
@example(2, (3, 5), 128, 7)
@example(12, (2, 0), 343, 3)
def test_fused_kernel_matches_projected_full_space_sums(k, qr, m, ell):
    q, r = qr
    assume(m % q and math.gcd(ell, q * m) == 1)
    assert trace.t_full(k, q, r, m, ell) == _trace_reference(k, q, r, m, ell, new=False), (k, q, r, m, ell)
    assert trace.t_new(k, q, r, m, ell) == _trace_reference(k, q, r, m, ell, new=True), (k, q, r, m, ell)


def test_level_weights_per_prime():
    # newspace c_t at t = p^j for j = 0..e: (-1, 1), (-1, -1, 1), then
    # (1, -1, -1, 1) on p^(e-3..e)
    local = {1: (-1, 1), 2: (-1, -1, 1), 3: (1, -1, -1, 1), 4: (0, 1, -1, -1, 1)}
    for p in (2, 3, 5):
        for e, cs in local.items():
            expect = tuple((p**j, c, p ** (j // 2)) for j, c in enumerate(cs) if c)
            assert trace._level_weights(p**e, True) == expect, (p, e)
            full = tuple((p**j, 1, p ** (j // 2)) for j in (e - 1, e))
            assert trace._level_weights(p**e, False) == full, (p, e)
    # the weights are multiplicative over the primes of m
    for m in (12, 360, 2**5 * 27 * 7):
        prod = {1: 1}
        for p, e in factor(m).factors:
            cs = dict((t, c) for t, c, _ in trace._level_weights(p**e, True))
            prod = {a * t: ca * c for a, ca in prod.items() for t, c in cs.items()}
        assert {t: c for t, c, _ in trace._level_weights(m, True)} == prod, m
