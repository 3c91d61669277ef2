"""Family parsing, scan averages, smoothing, fits, and artifact round-trips."""

from __future__ import annotations

import csv
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from altrace import arith, classnum, murmur, selftest, signs, trace, window
from altrace.murmur import FamilySpec, MurmurationPoint, parse_family
from reference import window_levels


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
    # composite Q at non-squarefree levels: the kernel has the divisor sum as its twin
    FamilySpec("II", q=6, m_set="all")
    FamilySpec("II", q=6, m_set="sqf")
    FamilySpec("I", m=4)
    parse_family("I:M=12,omega=2")
    FamilySpec("I", m=4, omega_q=1)
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
    # r >= 1 in its one spelling: sqf0 has no level, sqf01 would rename sqf1,
    # and a superscript digit passes str.isdigit but not int()
    for text in ("II:Q=1,M=sqf0", "II:Q=1,M=sqf01", "II:Q=1,M=sqf²"):
        with pytest.raises(ValueError, match="M set must be"):
            parse_family(text)


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


_LEVEL_FAMILIES = (
    "I:M=1",
    "I:M=6",
    "I:M=4,omega=1",
    "I:M=1,omega=2",
    "I:M=30,omega=2",
    "II:Q=1,M=all",
    "II:Q=6,M=all",
    "II:Q=3,M=sqf",
    "II:Q=1,M=sqf2",
    "II:Q=5,M=sqf1",
    "III:r=1",
    "III:r=2",
    "III:r=2,idx=1,2",
    "III:r=2,fixed=3,idx=2",
    "III:r=3,fixed=2,idx=1,3",
    "III:r=3,fixed=2,3",
    "III:r=4",
)


@pytest.mark.parametrize("beta", [Fraction(2), Fraction(3), Fraction(5, 2)], ids=str)
def test_window_levels_equal_the_level_walk(beta):
    # one window factorization against reference.window_levels, which walks
    # the window level by level with arith.factor
    for family in _LEVEL_FAMILIES:
        spec = parse_family(family, beta=beta)
        for X in [*range(1, 41), 97, 210, 331, 500, 999, 1000]:
            assert murmur._window_levels(spec, X) == window_levels(spec, X), (family, X)


class _Reached(Exception):
    pass


def test_huge_windows_are_refused_before_they_are_factored(monkeypatch):
    def of_range(lo, hi):
        raise _Reached(lo, hi)

    monkeypatch.setattr(window.Factors, "of_range", of_range)
    too_large = "a level window needs at most 10^7 levels x slots and primes to at most 10^7, got X = "
    narrow = Fraction(10**15 + 1, 10**15)  # [10^15, 10^15 + 1]: 2 levels, primes to 3.2 * 10^7
    for call, message in [
        (lambda: murmur.scan_WQ(parse_family("I:M=1"), (2, 11), 2**62), "a level window needs beta*X < 2^63"),
        (lambda: murmur.scan_WQ(parse_family("I:M=1"), (2, 11), 2**40), too_large + "%d, beta = 2" % 2**40),
        (lambda: murmur.scan_WQ(parse_family("I:M=1", beta=narrow), (2, 11), 10**15), too_large),
        (lambda: murmur.scan_eigenspace(parse_family("III:r=2"), (1, -1), (2, 11), 2 * 10**6), too_large),
        (lambda: murmur.cancellation_diag(2, 2 * 10**6), too_large),
    ]:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value).startswith(message)
    # at the limits, 7 slots x 1,428,571 levels and primes to 10^7, the window is factored,
    # and one level or one sieve bound past them it is not
    edge = (10**7 + 1) ** 2 - 1  # the last level whose primes stop at 10^7
    for X, hi, admitted in [
        (10**6, 2428570, True),
        (10**6, 2428571, False),
        (edge - 1, edge, True),
        (edge, edge + 1, False),
    ]:
        spec = parse_family("I:M=1", beta=Fraction(hi, X))
        with pytest.raises(_Reached if admitted else ValueError):
            murmur._window(spec, X)


def test_table_past_its_limit_is_refused_before_it_is_built(monkeypatch):
    bounds = []

    def build_table(bound):
        bounds.append(bound)
        return classnum.HurwitzTable(bound, None)

    monkeypatch.setattr(classnum, "build_table", build_table)
    monkeypatch.setattr(classnum, "_active_table", None)
    assert classnum.get_table(10**8).bound == 10**8
    monkeypatch.setattr(classnum, "_active_table", None)
    with pytest.raises(ValueError, match="^a class-number table needs a bound of at most 10\\^8, got 100000001$"):
        classnum.get_table(10**8 + 1)
    # two levels, which the window admits, whose primes to 11 need |disc| to 4.4 * 10^14
    X = 10**13
    with pytest.raises(ValueError, match="got %d$" % (44 * (X + 1))):
        murmur.scan_WQ(parse_family("I:M=1", beta=1 + Fraction(1, X)), (2, 11), X)
    assert bounds == [10**8]


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


@pytest.mark.parametrize(
    "family, X",
    # II:Q=6 at X = 24 has only the cofactors 5 and 7; X = 150 reaches 25 and 49
    [("II:Q=1,M=all", 24), ("II:Q=3,M=all", 24), ("I:M=4,omega=1", 60), ("II:Q=6,M=all", 150), ("I:M=4", 60)],
)
def test_non_squarefree_scans_read_only_the_local_factor_kernel(monkeypatch, family, X):
    # every row, non-squarefree levels included, reads its traces from
    # window.TraceWindow, the batched local-factor kernel; the divisor sums
    # recompute the points row by row
    spec = parse_family(family, k=4)
    ells = [2, 5, 7, 11, 13]
    levels = murmur._window_levels(spec, X)
    assert any(not arith.is_squarefree(m) for _, m in levels)
    expect = []
    for ell in ells:
        groups, total = {}, 0
        for q, m in levels:
            if (q * m) % ell:
                tr = trace.t_new_level(4, m, ell) if q == 1 else trace.t_new(4, q, 1, m, ell)
                groups[m] = groups.get(m, 0) + tr
                total += trace.t_new_level(4, q * m, 1)
        if total:  # ell = 2 divides every level of I:M=4 and gives no point
            avg = sum(s / ell * math.sqrt(m) for m, s in sorted(groups.items()))
            expect.append((ell, avg / total, total))

    def forbidden(*args):
        raise AssertionError("divisor-sum trace called with %r" % (args,))

    monkeypatch.setattr(trace, "t_new", forbidden)
    monkeypatch.setattr(trace, "t_new_level", forbidden)
    got = murmur.scan_WQ(spec, ells, X)
    assert [(p.ell, p.average, p.count) for p in got] == expect


def _per_level_walk(spec, levels, ells, X, key, trace_at, count):
    """The scan loop level by level, with each trace from the per-level
    kernel: the points scan_WQ and scan_eigenspace must reproduce exactly."""
    points = []
    for ell in ells:
        groups, total = {}, 0
        for q, m in levels:
            if (q * m) % ell:
                groups[key(q, m)] = groups.get(key(q, m), 0) + trace_at(q, m, ell)
                total += count(q, m)
        if total:
            scale = ell ** (spec.k // 2 - 1)
            avg = sum(s / scale * math.sqrt(k) for k, s in sorted(groups.items()))
            points.append(MurmurationPoint(ell, X, Fraction(ell, X), avg / total, total))
    return points


_WALK_SCANS = [
    ("I:M=1", 2, 80),
    ("III:r=2,idx=1,2", 4, 80),
    ("II:Q=1,M=all", 2, 40),
    ("III:r=2", 2, 80),
    # an int64 sum over these windows' traces would wrap, although each trace fits
    ("I:M=1", 18, 320),
    ("I:M=1", 22, 160),
    ("III:r=2,idx=1,2", 18, 320),
    # the Q = 1 window's passes at l <= 23 are int64, those at 29, 31 and 37 Python ints
    ("II:Q=1,M=all", 20, 160),
    # at k = 40 a single trace passes 2^63, so its array holds Python ints
    ("I:M=1", 40, 80),
]


def _scan_at(family, k, X):
    spec = parse_family(family, k=k)
    if family == "III:r=2":
        return murmur.scan_eigenspace(spec, (1, -1), (2, X // 4), X)
    return murmur.scan_WQ(spec, (2, X // 4), X)


@pytest.mark.parametrize("family, k, X", _WALK_SCANS)
def test_scan_points_equal_the_per_level_walk(family, k, X):
    # the benchmark's four scan families at reduced X, three windows whose
    # sums need Python ints and one whose passes change dtype: the batched
    # traces must give bit-identical points, not merely close ones
    spec = parse_family(family, k=k)
    ells = arith.primes_up_to(X // 4)
    got = _scan_at(family, k, X)
    if family == "III:r=2":
        eps = (1, -1)
        moduli = {n: murmur.signed_moduli(n, eps) for n in (q * m for q, m in murmur._window_levels(spec, X))}
        levels = [(1, n) for n in moduli]
        expect = _per_level_walk(
            spec, levels, ells, X, lambda q, m: 1,
            lambda q, m, ell: murmur.eigenspace_trace(k, m, moduli[m], ell),
            # the eigenspace's dimension from the kernels: the divisor sum at Q = 1
            lambda q, m: sum(
                s * (trace.t_new_level(k, m, 1) if qq == 1 else trace.t_new_squarefree(k, qq, m // qq, 1))
                for qq, s in moduli[m]
            ) // len(moduli[m]),
        )
    else:
        levels = murmur._window_levels(spec, X)
        expect = _per_level_walk(
            spec, levels, ells, X, lambda q, m: m,
            lambda q, m, ell: trace.t_new_squarefree(k, q, m, ell),
            lambda q, m: signs.dim_new(k, q * m),
        )
    assert got == expect


def test_scan_points_do_not_depend_on_where_passes_split(monkeypatch):
    # one prime per pass and per batch, or every prime in one pass, must give
    # the same points and reports as the default cut, also where a window
    # joins int64 passes to Python-int ones
    def run():
        return [_scan_at(*case) for case in _WALK_SCANS] + [
            murmur.cancellation_diag(2, 100),
            murmur.cancellation_diag(2, 100, workers=2),
        ]

    real_pass, passes = window.TraceWindow._pass, []

    def spy(self, ells):
        out = real_pass(self, ells)
        passes.append((self, out.dtype))
        return out

    monkeypatch.setattr(window.TraceWindow, "_pass", spy)
    want = run()
    dtypes = {}
    for win, dtype in passes:
        dtypes.setdefault(id(win), set()).add(dtype)
    assert {np.dtype(np.int64), np.dtype(object)} in dtypes.values()
    for entries in (1, 10**9):
        monkeypatch.setattr(window, "_BATCH_ENTRIES", entries)
        assert run() == want, entries


@pytest.mark.parametrize(
    "scan",
    [
        lambda: murmur.scan_WQ(parse_family("II:Q=1,M=all", k=2), (2, 20), 40),
        lambda: murmur.scan_WQ(parse_family("I:M=1", k=22), (2, 40), 160),
        lambda: murmur.scan_eigenspace(parse_family("III:r=2", k=2), (1, -1), (2, 20), 80),
    ],
    ids=["WQ", "WQ-python-ints", "eigenspace"],
)
def test_scan_points_hold_plain_python_numbers(scan):
    # the CLI's --json and the benchmark serialise points with json.dumps,
    # which rejects numpy scalars
    for p in scan():
        assert [type(v) for v in (p.ell, p.X, p.x.numerator, p.x.denominator, p.average, p.count)] == [
            int, int, int, int, float, int
        ]


def test_cancellation_equals_the_per_level_sums():
    # the same float expression over per-level kernel sums, compared with ==
    X, k = 60, 2
    levels = [n for n in range(X, 2 * X + 1) if arith.is_squarefree(n)]
    rows = []
    for ell in (p for p in arith.primes_up_to(2 * X) if p >= X // 2):
        s1 = sn = d1 = dn = 0
        for n in levels:
            if n % ell:
                s1 += trace.t_new_squarefree(k, 1, n, ell)
                sn += trace.t_new_squarefree(k, n, 1, ell)
                d1 += signs.dim_new(k, n)
                dn += trace.t_new_squarefree(k, n, 1, 1)
        if d1 + dn and d1 - dn:
            plus = (s1 + sn) / 2 / ((d1 + dn) // 2)
            minus = (s1 - sn) / 2 / ((d1 - dn) // 2)
            rows.append((abs(plus + minus), abs(plus - minus), ell))
    best = max(rows, key=lambda r: r[0])
    expect = murmur.CancellationReport(k, X, best[0], max(r[1] for r in rows), best[2])
    assert murmur.cancellation_diag(k, X) == expect
    assert murmur.cancellation_diag(k, X, workers=2) == expect


def test_scans_call_a_replaced_kernel_level_by_level(monkeypatch):
    # the engine reproduces only the library's kernel: behind a functools.wraps
    # wrapper (a profiler's) the scans keep it, and any other kernel installed
    # on the trace module is called level by level, errors included
    real = trace.t_new_squarefree
    spec = parse_family("III:r=2", k=4)
    scans = (
        lambda: murmur.scan_WQ(parse_family("I:M=1", k=2), (2, 20), 40),
        lambda: murmur.scan_eigenspace(spec, (1, -1), (2, 20), 60),
        lambda: murmur.cancellation_diag(2, 40),
        lambda: murmur.cancellation_diag(2, 40, workers=2),
    )
    want = [scan() for scan in scans]
    ells = []

    @functools.wraps(real)
    def profiled(k, q, m, ell):
        ells.append(ell)
        return real(k, q, m, ell)

    monkeypatch.setattr(trace, "t_new_squarefree", profiled)
    assert [scan() for scan in scans] == want
    assert set(ells) == {1}

    def plain(k, q, m, ell):
        ells.append(ell)
        return real(k, q, m, ell)

    monkeypatch.setattr(trace, "t_new_squarefree", plain)
    assert [scan() for scan in scans] == want
    assert 19 in ells

    def wrong(k, q, m, ell):
        return real(k, q, m, ell) + (q * m == 41)

    monkeypatch.setattr(trace, "t_new_squarefree", wrong)
    got = murmur.scan_WQ(parse_family("I:M=1", k=2), (2, 20), 40)
    assert [p.ell for p in got] == [p.ell for p in want[0]]
    assert all(g.average != w.average for g, w in zip(got, want[0]))


@pytest.mark.parametrize(
    "level, scan",
    [
        (41, lambda: murmur.cancellation_diag(2, 40)),
        (65, lambda: murmur.scan_eigenspace(parse_family("III:r=2", k=4), (1, -1), (2, 20), 60)),
    ],
    ids=["cancellation", "eigenspace"],
)
def test_a_count_that_is_not_whole_raises(monkeypatch, level, scan):
    # behind a functools.wraps wrapper the engine still serves the traces, so
    # adding 1 to the kernel at l = 1 at one level changes only the counts:
    # that level's signed mean over the slots is then no whole number, and
    # the scan must raise instead of flooring it
    real = trace.t_new_squarefree

    @functools.wraps(real)
    def off_by_one(k, q, m, ell):
        return real(k, q, m, ell) + (ell == 1 and q * m == level)

    scan()
    monkeypatch.setattr(trace, "t_new_squarefree", off_by_one)
    with pytest.raises(AssertionError) as exc:
        scan()
    assert str(level) in str(exc.value)


def test_scan_drops_primes_dividing_all_levels():
    spec = FamilySpec("I", m=5, k=4)
    pts = murmur.scan_WQ(spec, (2, 7), 10)
    assert [p.ell for p in pts] == [2, 3, 7]  # ell = 5 divides 10 and 15
    with pytest.raises(ValueError, match="divides every level"):
        murmur.scan_WQ(spec, [5], 10)


def test_a_prime_whose_kept_levels_carry_no_form_gives_no_point():
    # of the squarefree levels 6, 7, 10, 11 only S_2(11) carries a form, so
    # ell = 11 drops it and keeps no form, while the window is not empty
    spec = parse_family("I:M=1", k=2)
    pts = murmur.scan_WQ(spec, (2, 11), 6)
    assert [(p.ell, p.count) for p in pts] == [(2, 1), (3, 1), (5, 1), (7, 1)]
    with pytest.raises(ValueError, match="divides every level"):
        murmur.scan_WQ(spec, [11], 6)


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


def test_explicit_primes_come_out_sorted_and_a_repeat_raises():
    spec = parse_family("I:M=1")
    points = murmur.scan_WQ(spec, [7, 3], 40)
    assert [p.ell for p in points] == [3, 7]
    assert points == [p for p in murmur.scan_WQ(spec, (3, 7), 40) if p.ell != 5]
    with pytest.raises(ValueError, match="lists the prime 7 twice"):
        murmur.scan_WQ(spec, [7, 7, 3], 40)
    with pytest.raises(ValueError, match="lists the prime 7 twice"):
        murmur.scan_eigenspace(FamilySpec("III", r=2), (1, -1), [7, 3, 7], 30)


def test_empty_prime_range_raises():
    # no primes to scan is its own error, not "every prime divides every level"
    spec = FamilySpec("III", r=2)
    for ell_range, msg in (((2, 1), r"no primes in \[2, 1\]"), ((24, 28), r"\[24, 28\]"), ([], r"no primes")):
        with pytest.raises(ValueError, match=msg):
            murmur.scan_WQ(FamilySpec("I"), ell_range, 100)
        with pytest.raises(ValueError, match=msg):
            murmur.scan_eigenspace(spec, (1, -1), ell_range, 30)


def test_cancellation_rejects_a_window_at_level_one():
    # X = 1 has the prime 2, but its window [1, 2] holds level 1, where the
    # Fricke trace would be the Q = 1 kernel at ell = 1; X <= 0 has no primes,
    # and the X rule is checked before the prime range is read
    for k in (2, 4):
        for X in (1, 0, -5):
            with pytest.raises(ValueError, match="needs X >= 2, got X = %d$" % X):
                murmur.cancellation_diag(k, X)


def test_scans_install_the_table_their_window_reads(monkeypatch):
    # with no table installed and the per-discriminant path disabled, every
    # class number a scan reads must come from the table the scan installs
    def no_fallback(disc):
        raise AssertionError("per-discriminant fallback at disc %d" % disc)

    monkeypatch.setattr(classnum, "_active_table", None)
    monkeypatch.setattr(classnum, "_hurwitz12_pure", no_fallback)
    for family, X in (
        ("I:M=1", 60),
        ("I:M=6,omega=2", 200),
        ("II:Q=3,M=sqf", 60),
        ("II:Q=1,M=all", 40),
        ("II:Q=7,M=all", 40),
        ("III:r=2,idx=1,2", 60),
    ):
        monkeypatch.setattr(classnum, "_active_table", None)
        assert murmur.scan_WQ(parse_family(family, k=4), (2, 23), X), family
    monkeypatch.setattr(classnum, "_active_table", None)
    assert murmur.scan_eigenspace(parse_family("III:r=2", k=4), (1, -1), (2, 23), 60)
    monkeypatch.setattr(classnum, "_active_table", None)
    murmur.cancellation_diag(2, 30)


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
            ps = [p for p, _ in arith.factor(n)]
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


def test_empty_eigenspace_raises_naming_it():
    # no level of [20, 40] has a weight-2 form in the (-1, -1) eigenspace
    spec = parse_family("III:r=2", k=2)
    with pytest.raises(ValueError, match=r"eigenspace \(-1, -1\) is empty over window \[20, 40\]"):
        murmur.scan_eigenspace(spec, (-1, -1), (2, 13), 20)
    assert murmur.scan_eigenspace(spec, (1, -1), (2, 13), 20)


def test_eigenspace_errors():
    with pytest.raises(ValueError, match="kind III"):
        murmur.scan_eigenspace(FamilySpec("I"), (1,), [3], 10)
    spec = FamilySpec("III", r=2)
    with pytest.raises(ValueError, match="length"):
        murmur.scan_eigenspace(spec, (1,), [3], 30)
    with pytest.raises(ValueError, match="length"):
        murmur.scan_eigenspace(spec, (1, 2), [3], 30)
    # idx would pick a Q, but every Q dividing the level enters the eigenspace
    with pytest.raises(ValueError, match="no idx"):
        murmur.scan_eigenspace(FamilySpec("III", r=2, idx=(1,)), (1, -1), [3], 30)


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


def test_sqrt_fit_matches_numpy_lstsq():
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
    assert (rep.k, rep.X) == (2, 30)
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


def test_cancellation_drops_a_prime_that_empties_an_eigenspace():
    # over [21, 42] the + Fricke space of S_2 is S_2(37) alone (dim 2,
    # tr W_37 = 0), so ell = 37 leaves it empty; the other primes keep both
    rep = murmur.cancellation_diag(2, 21)
    assert signs.dim_new(2, 37) == 2 and trace.t_new_squarefree(2, 37, 1, 1) == 0
    assert rep.argmax_ell != 37
    ells = [p for p in arith.primes_up_to(42) if p >= 10 and p != 37]
    levels = [n for n in range(21, 43) if arith.is_squarefree(n)]
    sums, diffs = [], []
    for ell in ells:
        s1 = sn = d1 = dn = 0
        for n in levels:
            if n % ell:
                s1 += trace.t_new_squarefree(2, 1, n, ell)
                sn += trace.t_new_squarefree(2, n, 1, ell)
                d1 += signs.dim_new(2, n)
                dn += trace.t_new_squarefree(2, n, 1, 1)
        plus = (s1 + sn) / (d1 + dn)
        minus = (s1 - sn) / (d1 - dn)
        sums.append(abs(plus + minus))
        diffs.append(abs(plus - minus))
    assert rep.max_abs_sum == pytest.approx(max(sums))
    assert rep.max_abs_diff == pytest.approx(max(diffs))
    assert rep.argmax_ell == ells[sums.index(max(sums))]
    # no level in [5, 10] carries a form of weight 2, so no prime is left
    with pytest.raises(ValueError, match=r"empty over \[5, 10\] at every prime"):
        murmur.cancellation_diag(2, 5)


def test_cancellation_report_at_100_is_pinned():
    # dropping primes that empty an eigenspace leaves windows where every
    # prime keeps both spaces exactly as they were
    rep = murmur.cancellation_diag(2, 100)
    assert rep.argmax_ell == 179
    assert rep.max_abs_sum == 2.3100526677352873
    assert rep.max_abs_diff == 2.695784077832409


def test_each_series_of_a_scan_equals_that_series_scanned_alone(monkeypatch):
    # cancellation_diag's two Fricke series share their slot windows and
    # batches; each must give the points it gives scanned on its own, also
    # with two primes per batch on two threads
    real_scan, calls = murmur._scan, []

    def spy(*args):
        calls.append(args)
        return real_scan(*args)

    monkeypatch.setattr(murmur, "_scan", spy)
    for workers, entries in ((1, window._BATCH_ENTRIES), (2, window._BATCH_ENTRIES), (2, 80)):
        monkeypatch.setattr(window, "_BATCH_ENTRIES", entries)
        calls.clear()
        murmur.cancellation_diag(2, 60, workers=workers)
        (spec, X, ell_range, win, keys, moduli, sign, no_forms, got_workers), = calls
        assert got_workers == workers
        both = real_scan(*calls[0])
        assert len(both) == 2 and all(both)
        for i, points in enumerate(both):
            one = real_scan(spec, X, ell_range, win, keys, moduli, [sign[i]], no_forms, workers)
            assert one == [points], (workers, i)


def test_cancellation_reads_the_fricke_window_once_per_batch(monkeypatch):
    # (2, 100) is one batch of primes, so the Q = N window, which takes all
    # of its primes in one pass, is read once (not once per Q = 1 pass)
    real_traces, calls = window.TraceWindow.traces, {}

    def spy(self, ells):
        calls[self.q_min > 1] = calls.get(self.q_min > 1, 0) + 1
        return real_traces(self, ells)

    monkeypatch.setattr(window.TraceWindow, "traces", spy)
    murmur.cancellation_diag(2, 100)
    assert calls == {False: 1, True: 1}


def test_cancellation_threads_match_serial(monkeypatch):
    # perfbench times the workers=2 run; it must report the same as the
    # serial one, also cut into one batch per prime, which a pool measures
    for entries in (window._BATCH_ENTRIES, 20):
        monkeypatch.setattr(window, "_BATCH_ENTRIES", entries)
        assert murmur.cancellation_diag(2, 30, workers=2) == murmur.cancellation_diag(2, 30), entries


def test_cancellation_starts_a_pool_only_for_two_batches_or_more(monkeypatch):
    # the benchmark's (2, 100) is one batch, which runs on the calling thread
    pools, real = [], murmur.ThreadPoolExecutor

    def spy(*args, **kwargs):
        pools.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(murmur, "ThreadPoolExecutor", spy)
    want = murmur.cancellation_diag(2, 100)
    assert murmur.cancellation_diag(2, 100, workers=2) == want and pools == []
    monkeypatch.setattr(window, "_BATCH_ENTRIES", 80)
    assert murmur.cancellation_diag(2, 100, workers=2) == want and pools == [{"max_workers": 2}]


def test_cancellation_rejects_fewer_than_one_worker():
    for workers in (0, -1):
        with pytest.raises(ValueError, match="needs workers >= 1, got workers = %d" % workers):
            murmur.cancellation_diag(2, 30, workers=workers)


# ---------------------------------------------------------------------------
# window-comparison properties (slower)


def test_dropping_divisible_levels_is_small():
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


def test_scans_at_two_scales_agree():
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
