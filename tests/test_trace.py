import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from altrace import classnum, signs, trace
from altrace.arith import divisors, factor, is_prime, is_squarefree, mobius, primes_up_to, sigma
from reference import core_square_part, divisors_with_squarefree_cofactor, kronecker, mobius_squared_transform


# ---------------------------------------------------------------------------
# Fraction reference for the squarefree route: the local newspace weight xi
# multiplies H(disc) itself, instead of the integer kernel's
# ((D0|p) - 1) H(disc / p^(2e))


def xi(disc: int, m: int) -> Fraction:
    """The local newspace weight xi_disc(m), multiplicative over p | m."""
    out = Fraction(1)
    for p, _ in factor(m):
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
            square_hit |= any(disc % (p * p) == 0 for p, _ in factor(m))
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
    # "squarefree" is Q: a non-squarefree cofactor is accepted
    assert trace.t_new_squarefree(2, 3, 4, 5) == trace.t_new(2, 3, 1, 4, 5)
    assert trace.t_new_squarefree(2, 1, 12, 5) == trace.t_new_level(2, 12, 5)
    with pytest.raises(ValueError, match="q must be squarefree and >= 2 at r = 1, got 4"):
        trace.t_new_squarefree(2, 4, 1, 3)
    with pytest.raises(ValueError, match="q must be squarefree and >= 2 at r = 1, got 12"):
        trace.t_new_squarefree(2, 12, 5, 7)
    with pytest.raises(ValueError, match="cofactor M must be coprime to q"):
        trace.t_new_squarefree(2, 3, 3, 5)  # Q and m share the prime 3
    with pytest.raises(ValueError, match="cofactor M must be coprime to q"):
        trace.t_new_squarefree(2, 6, 4, 5)
    with pytest.raises(ValueError, match="prime Hecke index"):
        trace.t_new_squarefree(2, 1, 15, 4)
    with pytest.raises(ValueError, match="prime Hecke index"):
        trace.t_new_squarefree(2, 1, 12, 25)
    with pytest.raises(ValueError, match="coprime to the level"):
        trace.t_new_squarefree(2, 5, 12, 3)
    with pytest.raises(ValueError):
        trace.t_new(3, 5, 1, 1, 1)  # odd weight


# cofactors with p^3, 2^5 and p^2 q'^2 parts, times small cofactors
_SQUAREFUL = [4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 96, 100, 125, 128, 196, 225, 243, 343, 441]


@given(
    st.sampled_from([2, 4, 6, 8, 10, 12]),
    st.sampled_from(primes_up_to(47)),
    st.sampled_from(_SQUAREFUL),
    st.integers(min_value=1, max_value=7),
    st.sampled_from([1, 2, 3, 5, 7, 11, 13, 4, 9, 25, 49, 15, 21, 35, 77, 8, 27, 121]),
)
@example(4, 3, 32, 1, 1)  # ell = 1: tr W_3 on the newspace at 96
@example(2, 5, 27, 1, 4)
@example(12, 11, 36, 7, 25)
@example(6, 3, 125, 1, 49)
@example(8, 7, 243, 2, 5)
def test_local_factor_kernel_matches_divisor_sum_at_prime_q(k, q, base, c, ell):
    m = base * c
    assume(m % q and math.gcd(ell, q * m) == 1)
    assert trace.t_new_squarefree(k, q, m, ell) == trace.t_new(k, q, 1, m, ell), (k, q, m, ell)


@given(
    st.sampled_from([2, 4, 6, 8, 10, 12]),
    st.sampled_from(_SQUAREFUL),
    st.integers(min_value=1, max_value=7),
    st.sampled_from(primes_up_to(150)),
)
# the hyperbolic term vanishes unless every exponent of m is even; at these
# it does not, and square parts of m divide ell - 1: 2^4 | 16, 3^2 | 18,
# 3 * 5 | 30
@example(2, 16, 1, 17)
@example(4, 64, 1, 17)
@example(4, 9, 1, 19)
@example(6, 225, 1, 31)
@example(2, 32, 1, 17)
@example(12, 343, 1, 2)
def test_local_factor_kernel_matches_divisor_sum_at_q_one(k, base, c, ell):
    m = base * c
    assume(m % ell)
    assert trace.t_new_squarefree(k, 1, m, ell) == trace.t_new_level(k, m, ell), (k, m, ell)


@given(
    st.sampled_from([2, 4, 6]),
    st.sampled_from([(2, 3), (2, 5), (3, 5), (3, 7), (5, 7), (2, 11), (7, 13)]),
    st.sampled_from(_SQUAREFUL),
    st.sampled_from([1, 1, 2, 3, 5, 7, 11, 13, 17, 19]),
)
@example(2, (5, 7), 4, 1)
@example(4, (3, 5), 8, 1)
@example(2, (2, 11), 9, 13)
def test_composite_q_kernel_gives_integral_eigenspaces(k, qs, m, ell):
    # what the equalities with the divisor sum do not check: every joint
    # W_q1, W_q2 eigenspace of S_k^new(q1 q2 m) has an integer trace of
    # T_ell, and a dimension >= 0
    q1, q2 = qs
    n = q1 * q2 * m
    assume(math.gcd(q1 * q2, m) == 1 and math.gcd(ell, n) == 1)
    t1 = trace.t_new_level(k, n, ell)
    t_q1 = trace.t_new_squarefree(k, q1, n // q1, ell)
    t_q2 = trace.t_new_squarefree(k, q2, n // q2, ell)
    t_q12 = trace.t_new_squarefree(k, q1 * q2, m, ell)
    for e1 in (1, -1):
        for e2 in (1, -1):
            total = t1 + e1 * t_q1 + e2 * t_q2 + e1 * e2 * t_q12
            assert total % 4 == 0, (k, qs, m, ell, e1, e2, total)
            assert ell > 1 or total >= 0, (k, qs, m, e1, e2, total)


# composite squarefree Q, some with the prime 2
_COMPOSITE_Q = [6, 10, 14, 15, 21, 22, 30, 35, 42, 55, 77, 105, 210]
# (q, M, l) with a squareful base times c as M, M coprime to q and l coprime
# to q * M, listed whole so that no draw is filtered out
_COMPOSITE_Q_CASES = [
    (q, base * c, ell)
    for q in _COMPOSITE_Q
    for base in _SQUAREFUL
    for c in (1, 11, 13, 17)
    for ell in (1, 2, 3, 5, 7, 11, 13, 4, 9, 25, 49, 15, 21, 35, 77, 8, 27, 121)
    if math.gcd(base * c, q) == 1 and math.gcd(ell, q * base * c) == 1
]


@given(st.sampled_from([2, 4, 6, 8]), st.sampled_from(_COMPOSITE_Q_CASES))
@example(2, (6, 25, 1))
@example(4, (10, 27, 7))
@example(6, (35, 36, 11))
@example(2, (30, 49, 13))
def test_divisor_sum_matches_local_factor_kernel_at_composite_q(k, case):
    q, m, ell = case
    assert trace.t_new(k, q, 1, m, ell) == trace.t_new_squarefree(k, q, m, ell), (k, q, m, ell)


def test_full_space_trace_at_composite_q():
    # M = 1: the Fricke shortcut (M > 1 is in the old-copy test below)
    for q in (6, 10, 15, 30, 42, 105, 210, 330, 390):
        for ell in range(1, (q - 1) // 4 + 1):
            if math.gcd(ell, q) == 1:
                for k in (2, 4):
                    assert trace.t_full(k, q, 1, 1, ell) == trace.t_full_fricke(k, q, ell), (k, q, ell)


@given(
    st.sampled_from([2, 4, 6, 8]),
    st.one_of(
        st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=4)),
        st.tuples(st.sampled_from(_COMPOSITE_Q), st.just(1)),
    ),
    st.integers(min_value=1, max_value=36),
    st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 13, 25]),
)
@example(4, (5, 2), 3, 7)  # -36 both ways
@example(2, (3, 4), 1, 1)  # j = 0 at k = 2, M = 1: the plain trace on S_2(1) = 0
@example(8, (2, 4), 9, 5)
@example(4, (3, 0), 20, 7)  # r = 0: the plain trace on S_4(20)
@example(2, (6, 1), 25, 7)
@example(4, (10, 1), 9, 1)
@example(2, (15, 1), 8, 7)
@example(6, (35, 1), 12, 1)
@example(4, (30, 1), 49, 11)
def test_full_space_is_its_old_copies_of_newspaces(k, q_r, m, ell):
    # S_k(q^r M) holds the newspace of each level q^j d, d | M, sigma_0(M / d)
    # times over d and r - j + 1 times over j; W_{q^r} swaps the copies from
    # q^j in pairs, keeping one (with the W_{q^j} sign) when r - j is even.
    # At r = 1 q may be any squarefree modulus: W_q fixes every q-part
    q, r = q_r
    assume(math.gcd(m, q) == 1 and math.gcd(ell, q * m) == 1)
    old = 0
    for d in divisors(m):
        copies = len(divisors(m // d))
        for j in range(r % 2, r + 1, 2):
            old += copies * (trace.t_new(k, q, j, d, ell) if j else trace.t_new_level(k, d, ell))
    assert trace.t_full(k, q, r, m, ell) == old, (k, q, r, m, ell)


def test_atkin_lehner_modulus_rule():
    # r = 0: q is not read; r = 1: squarefree q >= 2; r >= 2: prime q
    assert trace.t_new(2, 1, 0, 11, 2) == trace.t_new(2, 5, 0, 11, 2) == -2
    # not even for coprimality: q = 7 divides M = 14, and l = 7 is prime to M = 5
    assert trace.t_new(4, 7, 0, 14, 3) == trace.t_new_level(4, 14, 3)
    assert trace.t_full(4, 7, 0, 5, 7) == trace.t_full(4, 1, 0, 5, 7)
    assert trace.t_new(2, 6, 1, 5, 7) == trace.t_new_squarefree(2, 6, 5, 7)
    for fn in (trace.t_full, trace.t_new):
        with pytest.raises(ValueError, match="squarefree and >= 2 at r = 1, got 1"):
            fn(2, 1, 1, 11, 2)  # no hyperbolic term at r = 1: it would be a wrong plain trace
        with pytest.raises(ValueError, match="squarefree and >= 2 at r = 1, got 12"):
            fn(2, 12, 1, 5, 7)
        with pytest.raises(ValueError, match="prime at r >= 2, got 6"):
            fn(2, 6, 2, 5, 7)
        with pytest.raises(ValueError, match="cofactor M must be coprime to q"):
            fn(2, 6, 1, 4, 5)  # 4 is no multiple of 6, but shares the prime 2


def test_local_factor_kernel_shares_no_code_with_the_divisor_sums(monkeypatch):
    # the kernel and the divisor-sum t_new check each other only if neither
    # reads the other's weighted class numbers or per-level weights
    cases = [(2, 1, 32, 17), (4, 1, 108, 5), (6, 3, 250, 7), (2, 5, 27, 1), (8, 7, 144, 25)]
    expect = [
        trace.t_new_level(k, m, ell) if q == 1 else trace.t_new(k, q, 1, m, ell) for k, q, m, ell in cases
    ]

    def forbidden(*args):
        raise AssertionError("divisor-sum helper called with %r" % (args,))

    monkeypatch.setattr(classnum, "ht12", forbidden)
    monkeypatch.setattr(trace, "_level_weights", forbidden)
    trace._local_factor.cache_clear()
    got = [trace.t_new_squarefree(*case) for case in cases]
    assert got == expect
    with pytest.raises(AssertionError, match="divisor-sum helper"):
        trace.t_new(2, 3, 1, 4, 5)


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


def test_every_kernel_rejects_a_hecke_index_below_one():
    # one argument rule: no kernel returns a trace of T_0 or T_-3
    kernels = (
        lambda k, ell: trace.t_full(k, 7, 1, 1, ell),
        lambda k, ell: trace.t_new(k, 7, 1, 1, ell),
        lambda k, ell: trace.t_new_squarefree(k, 2, 1, ell),
        lambda k, ell: trace.t_new_squarefree(k, 1, 5, ell),
        lambda k, ell: trace.t_full_fricke(k, 7, ell),
    )
    for fn in kernels:
        for k in (2, 4):
            for ell in (0, -3):
                with pytest.raises(ValueError, match="Hecke index must be positive"):
                    fn(k, ell)


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
# D = 0 at s = 10 with t in {2, 3, 4, 6, 12}; three odd primes in M
@example(4, (7, 0), 12, 25)
@example(2, (2, 1), 105, 11)
def test_fused_kernel_matches_projected_full_space_sums(k, qr, m, ell):
    q, r = qr
    assume(m % q and math.gcd(ell, q * m) == 1)
    assert trace.t_full(k, q, r, m, ell) == _trace_reference(k, q, r, m, ell, new=False), (k, q, r, m, ell)
    assert trace.t_new(k, q, r, m, ell) == _trace_reference(k, q, r, m, ell, new=True), (k, q, r, m, ell)


def test_level_weights_per_prime():
    # newspace c_t at t = p^j for j = 0..e: (-1, 1), (-1, -1, 1), then
    # (1, -1, -1, 1) on p^(e-3..e); each row also carries p^(j // 2)
    local = {1: (-1, 1), 2: (-1, -1, 1), 3: (1, -1, -1, 1), 4: (0, 1, -1, -1, 1)}
    for p in (2, 3, 5):
        for e, cs in local.items():
            expect = tuple((p**j, c, p ** (j // 2)) for j, c in enumerate(cs) if c)
            ((prime, rows, _, _),) = trace._level_weights(p**e, True)
            assert (prime, rows) == (p, expect), (p, e)
            full = tuple((p**j, 1, p ** (j // 2)) for j in (e - 1, e))
            ((prime, rows, _, _),) = trace._level_weights(p**e, False)
            assert (prime, rows) == (p, full), (p, e)
    # one entry per prime of m, in increasing p, each shared by every level
    # with the same p^e || m
    assert tuple(p for p, *_ in trace._level_weights(360, False)) == (2, 3, 5)
    assert trace._level_weights(12, True)[0] is trace._level_weights(20, True)[0]
    assert trace._level_weights(12, True)[1] is trace._level_weights(3, True)[0]
    # the weights are multiplicative over the primes of m
    for m in (12, 360, 2**5 * 27 * 7):
        prod = {1: 1}
        for p, e in factor(m):
            cs = {t: c for t, c, _ in trace._rows(trace._level_weights(p**e, True))}
            prod = {a * t: ca * c for a, ca in prod.items() for t, c in cs.items()}
        assert {t: c for t, c, _ in trace._rows(trace._level_weights(m, True))} == prod, m


def test_local_constants_sum_the_local_rows():
    # plus and minus are sum_a c_a chi^a over the entry's own rows at chi = +1, -1
    for p in (2, 3, 5, 7):
        for e in range(1, 6):
            for new in (False, True):
                _, rows, plus, minus = trace._local_weights(p, e, new)
                exps = [dict(factor(pa)).get(p, 0) for pa, _, _ in rows]
                assert plus == sum(c for _, c, _ in rows), (p, e, new)
                assert minus == sum(c * (-1) ** a for (_, c, _), a in zip(rows, exps)), (p, e, new)


def _reference_weights(m, new):
    # each t | m weighted by its own (mu*mu) projection of the full-space
    # indicator over the sub-levels m/d, with its core square part
    rows = []
    for t in divisors(m) if new else divisors_with_squarefree_cofactor(m):
        c = mobius_squared_transform(lambda mm, t=t: mm % t == 0 and is_squarefree(mm // t), m) if new else 1
        if c:
            rows.append((t, c, core_square_part(t)))
    return rows


def test_level_weights_equal_the_projection():
    # the product of local rows against the divisor-by-divisor projection:
    # every m <= 2000 (2^7 * 5 among them), then three primes with exponents
    # up to 5 beyond it: 6048 = 2^5 * 3^3 * 7, 2058 = 2 * 3 * 7^3, 3^3 * 11 * 13
    for m in [*range(1, 2001), 2**5 * 3**3 * 7, 2 * 3 * 7**3, 3**3 * 11 * 13]:
        for new in (False, True):
            weights = trace._level_weights(m, new)
            assert tuple(p for p, *_ in weights) == tuple(p for p, _ in factor(m)), (m, new)
            assert sorted(trace._rows(weights)) == _reference_weights(m, new), (m, new)


_DIVISOR_SUM_LEVELS = (1, 2, 4, 8, 32, 128, 9, 27, 12, 360, 210, 2**5 * 3**3 * 7, 2 * 3 * 7**3)


def _check_divisor_sum12(low):
    for m in _DIVISOR_SUM_LEVELS:
        kinds = [(trace._level_weights(m, new), _reference_weights(m, new)) for new in (False, True)]
        ts = divisors(m)
        for disc in range(low, 1):
            if disc % 4 in (0, 1):
                ht = {t: classnum.ht12(t, disc) for t in ts}
                for weights, rows in kinds:
                    plain = sum(c * ht[t] for t, c, _ in rows)
                    assert trace._divisor_sum12(weights, disc) == plain, (m, rows, disc)


def test_divisor_sum_helper_equals_plain_ht12_sum(monkeypatch):
    # the folded sum against a plain sum of ht12 over every row t | m:
    # D = 0 (every prime of m divides it), even D at p = 2, with the table
    # and on the per-discriminant path
    _check_divisor_sum12(-2000)
    monkeypatch.setattr(classnum, "_active_table", None)
    _check_divisor_sum12(-400)


def test_divisor_sum_at_zero_is_the_plain_sum_and_reads_no_class_number(monkeypatch):
    # at D = 0 every prime of m divides D and 12 H_t(0) = -t: the sum folds
    # into -prod_p sum_a c_a p^a, against the plain sum of ht12(t, 0) over
    # the reference rows, at every p^e with e <= 5 and at products of them
    levels = [1, *(p**e for p in (2, 3, 5, 7) for e in range(1, 6)), 2**5 * 3**3 * 7, 2 * 3 * 7**3, 3**5 * 5**2, 360]
    cases = []
    for m in levels:
        for new in (False, True):
            plain = sum(c * classnum.ht12(t, 0) for t, c, _ in _reference_weights(m, new))
            cases.append((m, new, plain))

    def forbidden(*args):
        raise AssertionError("class number read at %r" % (args,))

    monkeypatch.setattr(classnum, "ht12", forbidden)
    monkeypatch.setattr(classnum, "hurwitz12_ext", forbidden)
    for m, new, plain in cases:
        assert trace._divisor_sum12(trace._level_weights(m, new), 0) == plain, (m, new)


def test_divisor_sum_is_zero_at_a_split_prime_before_any_class_number(monkeypatch):
    # at p || m the newspace's local constant at (D|p) = +1 is c_1 + c_p = 0,
    # so no class number is read, whatever the other primes of m do
    def forbidden(*args):
        raise AssertionError("class number read at %r" % (args,))

    cases = []
    for m in (7, 7 * 9, 7 * 32, 3 * 7, 7 * 11**3):
        for disc in range(-600, 0):
            if disc % 4 in (0, 1) and kronecker(disc, 7) == 1:
                cases.append((trace._level_weights(m, True), disc))
    assert len(cases) > 500
    monkeypatch.setattr(classnum, "ht12", forbidden)
    monkeypatch.setattr(classnum, "hurwitz12_ext", forbidden)
    assert all(trace._divisor_sum12(weights, disc) == 0 for weights, disc in cases)


def test_divisor_sums_call_ht12_only_where_gcd_exceeds_one(monkeypatch):
    # per s: no ht12 call at D = 0 or when a prime not dividing D has a zero
    # local factor sum_a c_a (D|p^a), else one per row t > 1 over the primes
    # dividing D
    calls = []
    real_ht12, real_sum = classnum.ht12, trace._divisor_sum12

    def recorder(t, disc):
        calls.append((t, disc))
        return real_ht12(t, disc)

    def counted(weights, disc):
        before = len(calls)
        out = real_sum(weights, disc)
        fold = math.prod(
            sum(c * kronecker(disc, pa) for pa, c, _ in rows) for p, rows, _, _ in weights if disc % p
        )
        ramified = [rows for p, rows, _, _ in weights if disc % p == 0]
        rows_above_one = math.prod(map(len, ramified)) - all(rows[0][0] == 1 for rows in ramified)
        assert len(calls) - before == (rows_above_one if fold and disc else 0), (weights, disc)
        return out

    monkeypatch.setattr(classnum, "ht12", recorder)
    monkeypatch.setattr(trace, "_divisor_sum12", counted)
    for k in (2, 4):
        for q, r in ((5, 1), (7, 1), (3, 2), (5, 2), (2, 3), (6, 1), (15, 1)):
            for m in range(1, 61):
                for ell in range(1, 14):
                    if math.gcd(ell * q, m) == 1 and math.gcd(ell, q) == 1:
                        trace.t_full(k, q, r, m, ell)
                        trace.t_new(k, q, r, m, ell)
    assert calls
    assert all(math.gcd(t, disc) > 1 for t, disc in calls)
