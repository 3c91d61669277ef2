import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from altrace import classnum
from altrace.arith import is_squarefree, kronecker


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
    assert classnum.hurwitz_oracle(-3) == Fraction(1, 3)
    assert classnum.hurwitz_oracle(-4) == Fraction(1, 2)
    assert classnum.hurwitz_oracle(-23) == 3


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
            assert int(table.h12[n]) == classnum.hurwitz12(-n), -n
    # beyond-bound lookups fall back to the pure path
    assert classnum.hurwitz12_ext(-(table.bound * 4 + 3) * 4) == classnum.hurwitz12(-(table.bound * 4 + 3) * 4)


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


def _kronecker_hurwitz_failures(h12) -> list[int]:
    """Indices at which a table h12[n] = 12 H(-n) breaks the class number relation.

    Kronecker-Hurwitz in 12ths: sum over s in Z of h12(4n - s^2) is
    24 sigma(n) - 12 lambda(n), lambda(n) = sum_{d | n} min(d, n/d), with
    h12(0) = -1; every n = 1, 2 mod 4 must hold 0.  Reports 4n for each
    failing n and each nonzero entry off the discriminants.
    """
    import numpy as np

    bound = len(h12) - 1
    h = h12.astype(np.int64)
    h[0] = -1
    conv = h.copy()
    for s in range(1, math.isqrt(bound) + 1):
        conv[s * s :] += 2 * h[: bound + 1 - s * s]
    nmax = bound // 4
    sig = np.zeros(nmax + 1, dtype=np.int64)
    lam = np.zeros(nmax + 1, dtype=np.int64)
    for d in range(1, nmax + 1):
        sig[d::d] += d
    for d in range(1, math.isqrt(nmax) + 1):
        lam[d * d] += d
        lam[d * (d + 1) :: d] += 2 * d
    n = np.arange(nmax + 1)
    wrong = (conv[::4] != 24 * sig - 12 * lam) & (n > 0)
    off = np.flatnonzero((np.arange(bound + 1) % 4 % 3 != 0) & (h != 0))
    return sorted(4 * n[wrong].tolist() + off.tolist())


def test_table_satisfies_kronecker_hurwitz_relation():
    table = classnum.build_table(200_000)
    assert _kronecker_hurwitz_failures(table.h12) == []
    # one wrong entry, on either discriminant class or off them, is caught
    for n in (4 * 12_345, 199_999, 77_777):
        bad = table.h12.copy()
        bad[n] += 12
        assert _kronecker_hurwitz_failures(bad), n


def test_table_save_load_roundtrip(tmp_path):
    table = classnum.build_table(600)
    path = tmp_path / "h.tbl"
    table.save(str(path))
    loaded = classnum.HurwitzTable.load(str(path))
    assert loaded.bound == 600
    assert (loaded.h12 == table.h12).all()


def test_table_load_rejects_corruption(tmp_path):
    table = classnum.build_table(600)
    path = tmp_path / "h.tbl"
    table.save(str(path))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        classnum.HurwitzTable.load(str(path))


def test_table_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "h.tbl"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        classnum.HurwitzTable.load(str(path))


def test_alpha1_case_table():
    # e = 0 is plain H(4d)
    assert classnum.alpha1(-7, 0) == 2
    assert classnum.alpha1(-4, 0) == Fraction(3, 2)
    assert classnum.alpha1(-3, 0) == Fraction(4, 3)
    for d in (-7, -15, -31):  # d = 1 mod 8: split at 2, rows 1 <= e <= 3 vanish
        for e in (1, 2, 3):
            assert classnum.alpha1(d, e) == 0, (d, e)
        assert classnum.alpha1(d, 4) == -2 * classnum.hurwitz(d)
    for d in (-3, -11, -19, -4, -8):
        h, h4 = classnum.hurwitz(d), classnum.hurwitz(4 * d)
        s2 = kronecker(d, 2)
        assert classnum.alpha1(d, 1) == 2 * h - h4
        assert classnum.alpha1(d, 2) == 2 * h - h4
        assert classnum.alpha1(d, 3) == (4 * s2 - 6) * h + h4
        assert classnum.alpha1(d, 4) == (2 - 4 * s2) * h
        assert classnum.alpha1(d, 5) == 0
    assert classnum.alpha1(-11, 1) == -2
    assert classnum.alpha1(-11, 3) == -6
    assert classnum.alpha1(-4, 4) == 1


def test_alpha2_multiplicative_and_pinned():
    assert classnum.alpha2(1) == 1
    vals = {m: classnum.alpha2(m) for m in range(1, 200)}
    for a in range(2, 60):
        for b in range(2, 200 // a):
            if math.gcd(a, b) == 1 and a * b < 200:
                assert vals[a * b] == vals[a] * vals[b], (a, b)


@given(st.integers(min_value=1, max_value=3000))
def test_hurwitz_nonnegative_and_denominator(n):
    if -n % 4 in (0, 1):
        h = classnum.hurwitz(-n)
        assert h >= Fraction(1, 3)
        assert (12 * h).denominator == 1
