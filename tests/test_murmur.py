"""Family parsing, scan averages, smoothing, fits, and artifact round-trips."""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from altrace import arith, classnum, murmur, selftest, signs, trace
from altrace.murmur import FamilySpec, MurmurationPoint, parse_family


@pytest.fixture(scope="module")
def wide_table():
    # The two window-comparison tests below reach |disc| = 4 * 700 * 1000,
    # the criterion-9 fits of test_sqrt_fit_matches_numpy_lstsq 4 * 75 * 5000.
    return classnum.get_table(2_800_000)


# ---------------------------------------------------------------------------
# family grammar


def test_parse_family_roundtrip():
    specs = [
        FamilySpec("I"),
        FamilySpec("I", m=6),
        FamilySpec("I", m=6, omega_q=2),
        FamilySpec("II", q=1, m_set="all"),
        FamilySpec("II", q=3, m_set="sqf"),
        FamilySpec("II", q=3, m_set="sqf2"),
        FamilySpec("III", r=1),
        FamilySpec("III", r=2, idx=(2,)),
        FamilySpec("III", r=3, fixed=(2, 3), idx=(1, 2)),
    ]
    for spec in specs:
        assert parse_family(spec.canonical()) == spec
        assert str(spec) == spec.canonical()


def test_parse_family_accepts_bare_tokens_and_case():
    spec = parse_family("iii: r=3, fixed=2, 3, idx=1, 2")
    assert spec.kind == "III"
    assert spec.fixed == (2, 3)
    assert spec.idx == (1, 2)
    # trailing comma and empty slots are harmless
    assert parse_family("I:M=6,") == FamilySpec("I", m=6)


def test_parse_family_rejects_malformed():
    with pytest.raises(ValueError, match="unknown family kind"):
        parse_family("IV:M=1")
    with pytest.raises(ValueError, match="stray token"):
        parse_family("I:3,M=1")
    with pytest.raises(ValueError, match="given 2 times"):
        parse_family("I:M=1,M=2")
    with pytest.raises(ValueError, match="unknown fields"):
        parse_family("I:Q=3")
    with pytest.raises(ValueError, match="unknown fields"):
        parse_family("II:Q=3,r=2")


def test_family_validation():
    with pytest.raises(ValueError, match="squarefree Q"):
        FamilySpec("II", q=4)
    with pytest.raises(ValueError, match="Q prime or 1"):
        FamilySpec("II", q=6, m_set="all")
    FamilySpec("II", q=6, m_set="sqf")  # fine once M is restricted
    with pytest.raises(ValueError, match="strictly increasing primes"):
        FamilySpec("III", r=2, fixed=(3, 2))
    with pytest.raises(ValueError, match="strictly increasing primes"):
        FamilySpec("III", r=1, fixed=(4,))
    with pytest.raises(ValueError, match="1-based positions"):
        FamilySpec("III", r=2, idx=(3,))
    with pytest.raises(ValueError, match="beta"):
        FamilySpec("I", beta=Fraction(1))
    with pytest.raises(ValueError, match="weight"):
        FamilySpec("I", k=3)
    with pytest.raises(ValueError, match="M set"):
        FamilySpec("II", q=3, m_set="odd")


# ---------------------------------------------------------------------------
# window enumeration


def test_window_levels_kind_I():
    assert murmur._window_levels(FamilySpec("I", m=6), 30) == [(5, 6), (7, 6)]
    got = murmur._window_levels(FamilySpec("I", omega_q=2), 10)
    assert got == [(10, 1), (14, 1), (15, 1)]


def test_window_levels_kind_II():
    got = murmur._window_levels(FamilySpec("II", q=3, m_set="sqf1"), 20)
    assert got == [(3, 7), (3, 11), (3, 13)]
    # m_set=all keeps non-squarefree cofactors
    got = murmur._window_levels(FamilySpec("II", q=3, m_set="all"), 20)
    assert got == [(3, 7), (3, 8), (3, 10), (3, 11), (3, 13)]


def test_window_levels_kind_III():
    spec = FamilySpec("III", r=2, fixed=(2,), idx=(2,))
    got = murmur._window_levels(spec, 30)
    assert got == [(17, 2), (19, 2), (23, 2), (29, 2)]
    # no idx means Q = 1
    spec = FamilySpec("III", r=2, fixed=(2,))
    assert murmur._window_levels(spec, 30) == [(1, 34), (1, 38), (1, 46), (1, 58)]


# ---------------------------------------------------------------------------
# scan averages against hand-built sums


def test_scan_matches_hand_sum_kind_I():
    spec = FamilySpec("I", k=4)
    levels = [10, 11, 13, 14, 17, 19]  # squarefree in [10, 20] minus 15 = 3*5
    (pt,) = murmur.scan_WQ(spec, [3], 10)
    num = sum(trace.t_new_squarefree(4, q, 1, 3) for q in levels)
    den = sum(signs.dim_new(4, q) for q in levels)
    assert pt.ell == 3 and pt.X == 10
    assert pt.x == Fraction(3, 10)
    assert pt.count == den
    assert pt.average == pytest.approx(float(Fraction(num, 3)) / den)


def test_scan_matches_hand_sum_kind_II_full_level():
    # Q = 1 and M unrestricted: every level enters with weight sqrt(M).
    spec = FamilySpec("II", q=1, m_set="all", k=2)
    (pt,) = murmur.scan_WQ(spec, [3], 20)
    num = sum(
        trace.t_new_level(2, n, 3) * math.sqrt(n) for n in range(20, 41) if n % 3
    )
    den = sum(signs.dim_new(2, n) for n in range(20, 41) if n % 3)
    assert pt.count == den
    assert pt.average == pytest.approx(num / den)


def test_scan_matches_hand_sum_kind_II_prime_Q():
    spec = FamilySpec("II", q=3, m_set="all", k=2)
    (pt,) = murmur.scan_WQ(spec, [2], 10)
    # levels 3m in [10, 20] with gcd(m, 3) = 1: m = 4, 5; ell = 2 kills m = 4
    assert pt.count == signs.dim_new(2, 15)
    assert pt.average == pytest.approx(
        trace.t_new(2, 3, 1, 5, 2) * math.sqrt(5) / pt.count
    )


def test_scan_drops_primes_dividing_all_levels():
    spec = FamilySpec("I", m=5, k=4)
    pts = murmur.scan_WQ(spec, (2, 7), 10)
    assert [p.ell for p in pts] == [2, 3, 7]  # ell = 5 divides 10 and 15
    with pytest.raises(ValueError, match="divides every level"):
        murmur.scan_WQ(spec, [5], 10)


def test_scan_count_sums_dimensions_of_the_levels_kept_at_each_ell():
    # the dimensions are computed once per level, but each point must still
    # count only the levels its ell does not divide
    spec = parse_family("II:Q=3,M=sqf", k=4)
    levels = [3 * m for m in range(20, 41) if m % 3 and arith.is_squarefree(m)]
    pts = murmur.scan_WQ(spec, (2, 13), 60)
    assert [p.ell for p in pts] == [2, 5, 7, 11, 13]
    assert any(n % 5 == 0 for n in levels)  # 105 = 3 * 35 is dropped at ell = 5
    for p in pts:
        assert p.count == sum(signs.dim_new(4, n) for n in levels if n % p.ell), p.ell


def test_scan_empty_window_raises():
    with pytest.raises(ValueError, match="empty level window"):
        murmur.scan_WQ(FamilySpec("I", m=6, omega_q=5), [7], 10)
    with pytest.raises(ValueError, match="primes only"):
        murmur.scan_WQ(FamilySpec("I"), [4], 10)


# ---------------------------------------------------------------------------
# eigenspace scans: partition and 2^r inversion


def test_eigenspace_partition_and_inversion():
    spec = FamilySpec("III", r=2, k=4)
    X, ell = 30, 7
    levels = [n for n, _ in ((q * m, 0) for q, m in murmur._window_levels(spec, X))]
    assert 35 in levels  # gets skipped at ell = 7 below
    kept = [n for n in levels if n % ell]

    eps_grid = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    nums, counts = {}, {}
    for eps in eps_grid:
        (pt,) = murmur.scan_eigenspace(spec, eps, [ell], X)
        counts[eps] = pt.count
        # undo the final float division; the numerator is an integer
        nums[eps] = round(pt.average * pt.count * ell ** (spec.k // 2 - 1))

    def wq_sum(pos_mask):
        total = 0
        for n in kept:
            ps = [p for p, _ in arith.factor(n).factors]
            q = math.prod(p for i, p in enumerate(ps) if pos_mask >> i & 1)
            total += trace.t_new_squarefree(spec.k, q, n // q, ell)
        return total

    # the four eigenspaces partition each newspace
    assert sum(counts.values()) == sum(signs.dim_new(spec.k, n) for n in kept)
    assert sum(nums.values()) == wq_sum(0)
    # signed combinations recover every W_Q trace sum
    for mask in range(4):
        lhs = sum(
            nums[eps] * math.prod(eps[i] for i in range(2) if mask >> i & 1)
            for eps in eps_grid
        )
        assert lhs == wq_sum(mask)


def test_eigenspace_errors():
    with pytest.raises(ValueError, match="kind III"):
        murmur.scan_eigenspace(FamilySpec("I"), (1,), [3], 10)
    spec = FamilySpec("III", r=2)
    with pytest.raises(ValueError, match="length"):
        murmur.scan_eigenspace(spec, (1,), [3], 30)
    with pytest.raises(ValueError, match="length"):
        murmur.scan_eigenspace(spec, (1, 2), [3], 30)


# ---------------------------------------------------------------------------
# smoothing


def _pt(ell, avg, X=100):
    return MurmurationPoint(ell, X, Fraction(ell, X), avg, 1)


def test_smooth_preserves_constants():
    pts = [_pt(p, 3.25) for p in (11, 13, 17, 19, 23)]
    assert [p.average for p in murmur.smooth(pts, 0.5)] == [3.25] * 5


def test_smooth_forward_window_by_hand():
    a, b, c = 1.0, 2.0, 6.0
    pts = [_pt(2, a), _pt(3, b), _pt(5, c)]
    got = [p.average for p in murmur.smooth(pts, 0.9)]
    # windows: 2 + 2^0.9 = 3.87 covers {2, 3}; 3 + 3^0.9 = 5.69 covers
    # {3, 5}; 5 + 5^0.9 = 9.26 covers {5} only.
    assert got == [(a + b) / 2, (b + c) / 2, c]
    # metadata other than the average is untouched
    assert [(p.ell, p.x, p.count) for p in murmur.smooth(pts, 0.9)] == [
        (p.ell, p.x, p.count) for p in pts
    ]


def test_smooth_rejects_bad_delta():
    pts = [_pt(2, 1.0)]
    for delta in (0, 1, -0.5, 1.5):
        with pytest.raises(ValueError, match="delta"):
            murmur.smooth(pts, delta)


# ---------------------------------------------------------------------------
# fits and cancellation diagnostics


def test_sqrt_fit_recovers_synthetic_data():
    xs = [Fraction(j, 16) for j in range(1, 13)]
    pts = [_pt(j, 2.5 * math.sqrt(x)) for j, x in zip(range(1, 13), xs)]
    pts = [MurmurationPoint(p.ell, 16, x, p.average, 1) for p, x in zip(pts, xs)]
    fit = murmur.sqrt_fit(pts, 4)
    assert fit.c == pytest.approx(2.5)
    assert fit.d == 0.0
    assert fit.rms_residual < 1e-12

    pts2 = [
        MurmurationPoint(p.ell, 16, x, 1.5 * math.sqrt(x) - 0.75 * x, 1)
        for p, x in zip(pts, xs)
    ]
    fit2 = murmur.sqrt_fit(pts2, 2)
    assert fit2.c == pytest.approx(1.5)
    assert fit2.d == pytest.approx(-0.75)
    assert fit2.rms_residual < 1e-12


def test_sqrt_fit_needs_enough_points():
    pts = [_pt(j, 1.0) for j in range(2, 9)]  # seven points
    with pytest.raises(ValueError, match="at least 8"):
        murmur.sqrt_fit(pts, 4)
    murmur.sqrt_fit(pts + [_pt(9, 1.0)], 4)  # eight are enough


def _lstsq_fit(points, k):
    xs = np.array([float(p.x) for p in points])
    ys = np.array([p.average for p in points])
    design = np.column_stack([np.sqrt(xs), xs] if k == 2 else [np.sqrt(xs)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    rms = math.sqrt(float(np.mean((ys - design @ coef) ** 2)))
    return float(coef[0]), float(coef[1]) if k == 2 else 0.0, rms / float(ys.max() - ys.min())


def test_sqrt_fit_matches_numpy_lstsq(wide_table):
    rng = random.Random(20)
    noisy = [
        [_pt(ell, 1.7 * math.sqrt(ell / 100) - 0.4 * ell / 100 + rng.gauss(0, 0.05)) for ell in range(2, 60, 3)]
        for _ in range(3)
    ]
    cases = [(pts, k) for pts in noisy for k in (2, 4)]
    cases += [(selftest.fit_points(m, k), k) for m in (1, 5) for k in (2, 4)]
    for pts, k in cases:
        fit = murmur.sqrt_fit(pts, k)
        c, d, rms = _lstsq_fit(pts, k)
        assert fit.c == pytest.approx(c, rel=1e-9, abs=0)
        assert fit.d == pytest.approx(d, rel=1e-9, abs=0)
        assert fit.rms_residual == pytest.approx(rms, rel=1e-9, abs=0)


def test_cancellation_report_matches_direct_sums():
    rep = murmur.cancellation_diag(2, 30)
    assert (rep.k, rep.X, rep.beta) == (2, 30, Fraction(2))
    ells = [p for p in arith.primes_up_to(60) if p >= 15]  # primes in [X/2, 2X]
    assert rep.argmax_ell in ells

    levels = [n for n in range(30, 61) if arith.is_squarefree(n)]
    expect = {}
    for ell in ells:
        s1 = sn = d1 = dn = 0
        for n in levels:
            if n % ell == 0:
                continue
            s1 += trace.t_new_squarefree(2, 1, n, ell)
            sn += trace.t_new_squarefree(2, n, 1, ell)
            d1 += signs.dim_new(2, n)
            dn += trace.t_new_squarefree(2, n, 1, 1)
        plus = (s1 + sn) / (d1 + dn)
        minus = (s1 - sn) / (d1 - dn)
        expect[ell] = (abs(plus + minus), abs(plus - minus))
    assert rep.max_abs_sum == pytest.approx(max(v[0] for v in expect.values()))
    assert rep.max_abs_diff == pytest.approx(max(v[1] for v in expect.values()))
    assert rep.max_abs_sum == pytest.approx(expect[rep.argmax_ell][0])


def test_cancellation_threads_match_serial():
    # the 2-thread run is the one perfbench times; it must report the same
    assert murmur.cancellation_diag(2, 30, workers=2) == murmur.cancellation_diag(2, 30)


# ---------------------------------------------------------------------------
# window-comparison properties (slower; these two share the wide table)


def test_dropping_divisible_levels_is_small(wide_table):
    # Excluding levels with ell | N only removes O(1/ell) of the mass:
    # putting their dimensions back into the denominator moves any average
    # by less than 5/ell_min in relative terms.
    spec = FamilySpec("I", k=4)
    X, lo = 250, 53
    pts = murmur.scan_WQ(spec, (lo, 101), X)
    dim_all = sum(
        signs.dim_new(4, n) for n in range(X, 2 * X + 1) if arith.is_squarefree(n)
    )
    rels = [(dim_all - p.count) / dim_all for p in pts]
    assert all(0 <= r < 5 / lo for r in rels)
    assert any(r > 0 for r in rels)


def test_scans_at_two_scales_agree(wide_table):
    # Slow-convergence regression check: the weight-2 full-level average,
    # sampled at matching x = ell/X and smoothed, should look the same at
    # X = 250 and X = 500 to within a quarter of the plotted range.
    spec = FamilySpec("I", k=2)
    small = murmur.smooth(murmur.scan_WQ(spec, (150, 350), 250), 0.75)
    big = murmur.smooth(murmur.scan_WQ(spec, (300, 700), 500), 0.75)
    xb = np.array([float(p.x) for p in big])
    yb = np.array([p.average for p in big])
    inside = [p for p in small if xb[0] <= float(p.x) <= xb[-1]]
    assert len(inside) >= 20
    ys = np.array([p.average for p in inside])
    interp = np.interp([float(p.x) for p in inside], xb, yb)
    rms = math.sqrt(float(np.mean((interp - ys) ** 2)))
    spread = float(ys.max() - ys.min())
    assert rms < 0.25 * spread


# ---------------------------------------------------------------------------
# artifact emission


def read_csv(path) -> dict[str, list[MurmurationPoint]]:
    """Re-read an emitted CSV; x is rebuilt exactly as ell/X."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    assert rows[0] == murmur.CSV_HEADER.split(",")
    out: dict[str, list[MurmurationPoint]] = {}
    for fam, _k, _beta, xw, ell, _x, avg, count in rows[1:]:
        out.setdefault(fam, []).append(
            MurmurationPoint(int(ell), int(xw), Fraction(int(ell), int(xw)), float(avg), int(count))
        )
    return out


def test_csv_roundtrip_with_series_labels(tmp_path):
    spec = FamilySpec("III", r=2, fixed=(2,), idx=(1,))
    pts = murmur.scan_WQ(spec, (3, 13), 30)
    twisted = [MurmurationPoint(p.ell, p.X, p.x, -p.average, p.count) for p in pts]
    murmur.emit({"raw": pts, "minus": twisted}, str(tmp_path / "scan"), spec)

    back = read_csv(tmp_path / "scan.csv")
    key = spec.canonical()
    assert set(back) == {key + "#raw", key + "#minus"}  # commas in the family survive quoting
    for orig, rehydrated in zip(pts, back[key + "#raw"]):
        assert rehydrated.ell == orig.ell
        assert rehydrated.X == orig.X
        assert rehydrated.x == orig.x  # exact Fraction, rebuilt from ell/X
        assert rehydrated.count == orig.count
        assert rehydrated.average == pytest.approx(orig.average, rel=1e-10)


def test_csv_empty_series_is_header_only(tmp_path):
    murmur.emit({"raw": []}, str(tmp_path / "empty"), FamilySpec("I"))
    assert (tmp_path / "empty.csv").read_text().strip() == murmur.CSV_HEADER
    assert read_csv(tmp_path / "empty.csv") == {}


def test_svg_has_a_color_per_series(tmp_path):
    pts = [_pt(p, math.sin(p)) for p in (11, 13, 17, 19)]
    neg = [_pt(p, math.cos(p)) for p in (11, 13, 17, 19)]
    murmur.emit({"plus": pts, "minus": neg}, str(tmp_path / "scan"), FamilySpec("I"))
    text = (tmp_path / "scan.svg").read_text()
    assert text.lstrip().startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "#1f77b4" in text and "#d62728" in text
