import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from altrace import classnum
from altrace.arith import divisors, factor, is_squarefree
from reference import class_number_forms, hurwitz12_forms, kronecker


FROZEN_HURWITZ = {
    0: Fraction(-1, 12),
    -3: Fraction(1, 3),
    -4: Fraction(1, 2),
    -7: 1,
    -8: 1,
    -11: 1,
    -12: Fraction(4, 3),
    -15: 2,
    -16: Fraction(3, 2),
    -19: 1,
    -20: 2,
    -23: 3,
    -24: 2,
    -427: 2,
}


def test_hurwitz_frozen_values():
    for disc, h in FROZEN_HURWITZ.items():
        assert classnum.hurwitz(disc) == h, disc


def test_class_number_known():
    assert classnum.class_number(-3) == 1
    assert classnum.class_number(-4) == 1
    assert classnum.class_number(-23) == 3
    assert classnum.class_number(-47) == 5
    assert classnum.class_number(-71) == 7
    # h counts primitive classes only: disc -12 has forms (1,0,3) and the
    # imprimitive 2*(1,1,1), so h = 1 while H = 4/3
    assert classnum.class_number(-12) == 1


def test_class_number_equals_the_form_count_up_to_20000():
    # fundamental discs through the root count, the rest (-3, -4, -27 = -3 * 3^2
    # with 3 past isqrt(27 // 4), -4 * 9, ...) through the order formula
    for n in range(3, 20001):
        if n % 4 in (0, 3):
            assert classnum.class_number(-n) == class_number_forms(-n), -n


def _upper_edge_form(n):
    # a reduced form (a, a, c) or (a, b, a) of disc -n with 4a^2 > n, a form
    # the root count walks and weights 1
    for a in range(math.isqrt(n // 4) + 1, math.isqrt(n // 3) + 1):
        b = math.isqrt(4 * a * a - n)
        if (a * a + n) % (4 * a) == 0 or b * b == 4 * a * a - n:
            return True
    return False


def test_class_number_equals_the_form_count_at_large_fundamental_discs():
    # 15 discs in [10^6, 10^7], then 40 in [10^5, 10^6] with an upper edge form
    rng = random.Random(20240601)
    discs = []
    while len(discs) < 55:
        n = rng.randrange(10**6, 10**7) if len(discs) < 15 else rng.randrange(10**5, 10**6)
        fundamental = n % 4 == 3 and is_squarefree(n) or n % 16 in (4, 8) and is_squarefree(n // 4)
        if fundamental and (len(discs) < 15 or _upper_edge_form(n)):
            discs.append(-n)
    assert [classnum.class_number(d) for d in discs] == [class_number_forms(d) for d in discs]
    assert classnum.class_number.cache_info().currsize  # perfbench reads its cache by this name


def test_oracle_equals_the_unwheeled_walk_and_hurwitz12():
    # the 6-wheel against every a: each n <= 5000, then 200 discs in [10^5,
    # 10^6], fundamental or not, where hurwitz12 (root count and order
    # formula) must agree too, past test_oracle_agreement_small_range's n < 1500
    for n in range(1, 5001):
        if n % 4 in (0, 3):
            assert classnum.hurwitz12_oracle(-n) == hurwitz12_forms(-n), -n
    rng = random.Random(39)
    discs = [-(n - n % 4 + rng.choice((0, 3))) for n in (rng.randrange(10**5, 10**6) for _ in range(200))]
    assert sum(1 for d in discs if classnum.decompose(d)[1] > 1) > 20
    oracle = [classnum.hurwitz12_oracle(d) for d in discs]
    assert oracle == [hurwitz12_forms(d) for d in discs]
    assert oracle == [classnum.hurwitz12(d) for d in discs]


def test_hurwitz_rejects_bad_disc():
    with pytest.raises(ValueError):
        classnum.hurwitz(-5)
    with pytest.raises(ValueError):
        classnum.hurwitz(2)


def test_oracle_agreement_small_range():
    for n in range(1, 1500):
        if -n % 4 not in (0, 1):
            continue
        assert classnum.hurwitz12(-n) == classnum.hurwitz12_oracle(-n), -n


def test_oracle_single_form_weights():
    # in 12ths: H(-3) = 1/3, H(-4) = 1/2, H(-23) = 3
    assert classnum.hurwitz12_oracle(-3) == 4
    assert classnum.hurwitz12_oracle(-4) == 6
    assert classnum.hurwitz12_oracle(-23) == 36


def _fundamental_discs(lo):
    for d in range(-1, lo - 1, -1):
        if d % 4 == 1 and is_squarefree(-d):
            yield d
        elif d % 4 == 0:
            m = d // 4
            if m % 4 in (2, 3) and is_squarefree(-m):
                yield d


def test_eta_gamma_consistency():
    for d0 in _fundamental_discs(-200):
        hp0 = classnum.hprime12(d0)
        for lam in range(1, 31):
            d = lam * lam * d0
            assert classnum.hprime12(d) == classnum.gamma_weight(d0, lam) * hp0, (d0, lam)
            assert 12 * classnum.hurwitz(d) == classnum.eta_weight(d0, lam) * hp0, (d0, lam)


def test_hurwitz_decomposes_over_square_factors():
    # H(disc) = sum of h' over the square-divisor chain down to the
    # fundamental discriminant
    for n in range(3, 600):
        disc = -n
        if disc % 4 not in (0, 1):
            continue
        d0, lam = classnum.decompose(disc)
        total = sum(
            classnum.hprime12(d0 * f * f)
            for f in range(1, lam + 1)
            if lam % f == 0
        )
        assert classnum.hurwitz12(disc) == total, disc


def test_four_to_one_disc_identity():
    # H(-4 q^r) = (3 - (-q|2)) * H(-q^r) for odd prime powers with -q^r = 1 mod 4
    for q in (3, 7, 11, 19, 23, 31, 43):
        r = 1
        while q**r <= 2000:
            if -(q**r) % 4 == 1:
                lhs = classnum.hurwitz12(-4 * q**r)
                rhs = (3 - kronecker(-q, 2)) * classnum.hurwitz12(-(q**r))
                assert lhs == rhs, (q, r)
            r += 1


def test_ht_at_zero_and_t_one():
    for t in (1, 2, 3, 5, 12):
        assert classnum.ht12(t, 0) == -t
    for n in range(3, 400):
        if -n % 4 in (0, 1):
            assert classnum.ht12(1, -n) == classnum.hurwitz12(-n), -n


def test_ht_coprime_and_two_adic_cases():
    # t odd coprime to the discriminant: H_t(-4X) = (-X|t) H(-4X)
    for t in (3, 5, 7, 15):
        for x in (5, 6, 10, 21, 22):
            if math.gcd(t, 4 * x) == 1:
                assert classnum.ht12(t, -4 * x) == kronecker(-x, t) * classnum.hurwitz12(-4 * x), (t, x)
    # t = 2 mod 4 with X odd: H_t(-4X) = 2 (-X|t/2) H(-X)
    for t in (2, 6, 10):
        for x in (3, 7, 11, 15, 23):
            if math.gcd(t // 2, x) == 1 and -x % 4 == 1:
                assert classnum.ht12(t, -4 * x) == 2 * kronecker(-x, t // 2) * classnum.hurwitz12(-x), (t, x)


def test_ht_vanishing_and_square_gcd():
    # even discriminant part against even residual t kills the symbol
    assert classnum.ht12(2, -4) == 0
    assert classnum.ht12(8, -4) == 0
    # (t, disc) = 4 = 2^2: the full gcd multiplies back in
    assert classnum.ht12(4, -28) == 4 * classnum.hurwitz12(-7)


def test_table_matches_pure_path():
    table = classnum.get_table(40000)
    for n in range(3, 2000):
        if -n % 4 in (0, 1):
            assert int(table.h12[n >> 1]) == classnum.hurwitz12(-n), -n
    # beyond-bound lookups fall back to the pure path; a small table is
    # installed, since an earlier test may have left a much larger one
    with mock.patch.object(classnum, "_active_table", classnum.build_table(2000)):
        disc = -(2000 * 4 + 3) * 4
        assert classnum.hurwitz12_ext(disc) == classnum.hurwitz12(disc)


@given(st.integers(min_value=0, max_value=9999), st.booleans())
@example(36, False)  # gcd(12, -144) = 12 = 2^2 * 3: a square part and a cofactor 3
@example(7, False)  # gcd(4, -28) = 4: the full gcd multiplies back in
def test_ht12_same_with_and_without_table(n, odd):
    disc = -(4 * n + 3) if odd else -4 * n
    assert -disc <= classnum._active_table.bound
    ts = (1, 2, 3, 4, 6, 12)
    on = [classnum.ht12(t, disc) for t in ts]
    with mock.patch.object(classnum, "_active_table", None):
        off = [classnum.ht12(t, disc) for t in ts]
    assert on == off, disc


def _ht12_by_kronecker(t, disc):
    """12 H_t(disc) by the closed form with one Kronecker symbol at t/g."""
    g = math.gcd(t, disc)
    b = math.prod(p for p, e in factor(g) if e & 1)
    if (disc // g) % b:
        return 0
    dpb = disc // g // b
    return g * kronecker(dpb, t // g) * classnum.hurwitz12_ext(dpb)


@given(
    st.sampled_from((27, 125, 343, 1331, 32, 128)),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=9999),
    st.booleans(),
)
@example(27, 25, 1, False)  # disc = -4: t/g = 3^j 5^i, even and odd exponents
@example(128, 1, 3, False)  # disc = -12: g = 4 and t/g = 2^j reads (-3|2)^j
def test_ht12_equals_the_closed_form_with_one_kronecker_symbol(part, m, n, odd):
    # t runs over the divisors of the twist-shaped levels p^3 M, 2^5 M, 2^7 M
    disc = -(4 * n + 3) if odd else -4 * n
    for t in divisors(part * m):
        assert classnum.ht12(t, disc) == _ht12_by_kronecker(t, disc), (t, disc)


def _reference_table(bound):
    """The (a, b) walk build_table replaced: one strided add per reduced-form
    pair, from c = a at stride 4a, and a scalar fix for the form with c = a."""
    import numpy as np

    h12 = np.zeros(bound + 1, dtype=np.uint32)
    for a in range(1, math.isqrt(bound // 3) + 1):
        for b in range(a + 1):
            start = 4 * a * a - b * b
            if start > bound:
                continue
            w, w_eq = (12, 6) if b == 0 else (24, 12) if b < a else (12, 4)
            h12[start :: 4 * a] += w
            h12[start] -= w - w_eq
    h12[0] = 0
    return h12


def _expanded(table):
    """table.h12 spread back out to one entry per n <= bound: 12 H(-n) at
    n = 0, 3 mod 4 (from index n >> 1) and 0 at n = 1, 2 mod 4."""
    import numpy as np

    full = np.zeros(table.bound + 1, dtype=table.h12.dtype)
    full[0::4] = table.h12[0::2]
    full[3::4] = table.h12[1::2]
    return full


def test_table_equals_the_reference_walk():
    import numpy as np

    # every small bound, each residue mod 4 near the scan bound, and
    # 204,363 = 3 * 261^2, where the last b's first form lands on the bound
    for bound in [*range(4, 1001), *range(200_000, 200_004), 204_363]:
        table = classnum.build_table(bound)
        assert table.bound == bound
        assert table.h12.dtype == np.uint32 and len(table.h12) == bound // 4 + (bound + 1) // 4 + 1, bound
        assert np.array_equal(_expanded(table), _reference_table(bound)), bound
    for bound in range(4):
        with pytest.raises(ValueError):
            classnum.build_table(bound)


def test_table_reads_every_discriminant_at_its_index():
    # each residue of the bound mod 4: one entry per n <= bound at n = 0, 3
    # mod 4, every discriminant read from the table, and the first one past
    # the bound falls back (hurwitz12_ext) or raises (hurwitz12_gather)
    # instead of reading a neighbouring entry
    import numpy as np

    pure = {n: classnum._hurwitz12_pure(-n) for n in range(3, 1004) if n % 4 in (0, 3)}
    for bound in range(4, 1001):
        table = classnum.build_table(bound)
        assert len(table.h12) == sum(1 for n in range(bound + 1) if n % 4 in (0, 3)), bound
        discs = [-n for n in pure if n <= bound]
        want = [pure[-d] for d in discs]
        past = min(n for n in pure if n > bound)
        spy = mock.Mock(wraps=classnum._hurwitz12_pure)
        with mock.patch.object(classnum, "_active_table", table), mock.patch.object(classnum, "_hurwitz12_pure", spy):
            assert [classnum.hurwitz12_ext(d) for d in discs] == want, bound
            assert classnum.hurwitz12_gather(np.array(discs)).tolist() == want, bound
            assert classnum.hurwitz12_ext(-past) == pure[past], bound
            with pytest.raises(IndexError):
                classnum.hurwitz12_gather(np.array([-past]))
        spy.assert_called_once_with(-past)


def _class_number_relation_failures(h12) -> list[int]:
    """Indices at which a table h12[n] = 12 H(-n) breaks a class number relation.

    With h12(0) = -1 and lambda(m) = sum_{d | m} min(d, m/d), the sums
    c(m) = sum over s in Z of h12(m - s^2) satisfy, in 12ths:
    Kronecker-Hurwitz, c(4n) = 24 sigma(n) - 12 lambda(n), and Eichler,
    c(m) = 4 sigma(m) - 6 lambda(m) for odd m; and h12(m) = 0 at m = 1, 2
    mod 4.  These fix h12 index by index (the s = 0 term is h12(m)), so a
    table meeting them at every index is exact.  Reports each failing m.
    """
    import numpy as np

    bound = len(h12) - 1
    h = h12.astype(np.int64)
    h[0] = -1
    conv = h.copy()
    for s in range(1, math.isqrt(bound) + 1):
        conv[s * s :] += 2 * h[: bound + 1 - s * s]
    # sigma and lambda over the divisor pairs d * e = m with d <= e
    sig = np.zeros(bound + 1, dtype=np.int64)
    lam = np.zeros(bound + 1, dtype=np.int64)
    for d in range(1, math.isqrt(bound) + 1):
        sig[d * d] += d
        lam[d * d] += d
        sig[d * (d + 1) :: d] += d + np.arange(d + 1, bound // d + 1)
        lam[d * (d + 1) :: d] += 2 * d
    m = np.arange(bound + 1)
    n = m // 4
    wrong = np.where(m % 4 == 0, conv != 24 * sig[n] - 12 * lam[n], False)
    wrong |= (m % 2 == 1) & (conv != 4 * sig - 6 * lam)
    wrong |= (m % 4 % 3 != 0) & (h != 0)
    wrong[0] = False
    return np.flatnonzero(wrong).tolist()


def test_table_satisfies_kronecker_hurwitz_relation():
    h12 = _expanded(classnum.build_table(200_000))
    assert _class_number_relation_failures(h12) == []
    # one wrong entry, in either discriminant class or off them, is reported
    # first at its own index (at 3 mod 4, by Eichler's relation)
    for n in (4 * 12_345, 7, 199_999, 77_777):
        bad = h12.copy()
        bad[n] += 12
        assert _class_number_relation_failures(bad)[0] == n, n


def test_alpha1_case_table():
    # in 12ths throughout; e = 0 is plain H(4d)
    assert classnum.alpha1_12(-7, 0) == 24
    assert classnum.alpha1_12(-4, 0) == 18
    assert classnum.alpha1_12(-3, 0) == 16
    for d in (-7, -15, -31):  # d = 1 mod 8: split at 2, rows 1 <= e <= 3 vanish
        for e in (1, 2, 3):
            assert classnum.alpha1_12(d, e) == 0, (d, e)
        assert classnum.alpha1_12(d, 4) == -2 * classnum.hurwitz12(d)
    for d in (-3, -11, -19, -4, -8):
        h, h4 = classnum.hurwitz12(d), classnum.hurwitz12(4 * d)
        s2 = kronecker(d, 2)
        assert classnum.alpha1_12(d, 1) == 2 * h - h4
        assert classnum.alpha1_12(d, 2) == 2 * h - h4
        assert classnum.alpha1_12(d, 3) == (4 * s2 - 6) * h + h4
        assert classnum.alpha1_12(d, 4) == (2 - 4 * s2) * h
        assert classnum.alpha1_12(d, 5) == 0
    assert classnum.alpha1_12(-11, 1) == -24
    assert classnum.alpha1_12(-11, 3) == -72
    assert classnum.alpha1_12(-4, 4) == 12


@given(st.integers(min_value=1, max_value=3000))
def test_hurwitz_nonnegative_and_denominator(n):
    if -n % 4 in (0, 1):
        h = classnum.hurwitz(-n)
        assert h >= Fraction(1, 3)
        assert (12 * h).denominator == 1
