"""The batched trace engine against its per-level reference,
trace.t_new_squarefree, over drawn and fixed windows; the window
factorization and its counts against arith.factor and signs.dim_new."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from altrace import classnum, murmur, signs, trace, window
from altrace.arith import factor, is_squarefree, primes_up_to
from altrace.murmur import parse_family
from reference import trace_window_arrays


def _window_traces(k: int, levels, ells):
    """TraceWindow's traces at ells, checked level by level against
    t_new_squarefree; returns the window and the passes it cut (the runs of
    its _runs(ells))."""
    classnum.get_table(4 * max(ells) * max(q for q, _ in levels))
    win = window.TraceWindow(k, *trace_window_arrays(levels), max(ells))
    got = win.traces(ells)
    assert got.shape == (len(ells), len(levels)) and got.dtype in (np.int64, object)
    want = [[trace.t_new_squarefree(k, q, m, ell) if (q * m) % ell else 0 for q, m in levels] for ell in ells]
    assert got.tolist() == want, (k, levels)
    return win, win._runs(ells)


_WINDOW_FAMILIES = (
    "I:M=1",
    "I:M=6,omega=2",
    "I:M=4,omega=1",
    "I:M=9,omega=1",
    "I:M=4",
    "II:Q=1,M=all",
    "II:Q=2,M=all",
    "II:Q=3,M=all",
    "II:Q=5,M=all",
    "II:Q=6,M=all",
    "II:Q=6,M=sqf",
    "III:r=2,idx=1",
    "III:r=2,idx=1,2",
    "III:r=3,fixed=2,idx=2,3",
)


@given(
    st.sampled_from(_WINDOW_FAMILIES),
    st.integers(min_value=4, max_value=70),
    st.sampled_from(range(2, 13, 2)),
    st.integers(min_value=2, max_value=70),
)
@example("II:Q=1,M=all", 70, 2, 67)
@example("II:Q=3,M=all", 60, 12, 67)
@example("II:Q=2,M=all", 64, 6, 67)
@example("III:r=2,idx=1,2", 70, 4, 67)
def test_trace_window_matches_the_per_level_kernel(family, X, k, ell_max):
    levels = murmur._window_levels(murmur.parse_family(family, k=k), X)
    assume(levels)
    # keep 4 * l * Q within the session's 40000 table, so no larger one is built
    ells = primes_up_to(min(ell_max, 10_000 // max(q for q, _ in levels)))
    assume(ells)
    _window_traces(k, levels, ells)


def test_trace_window_strips_squares_and_spans_batches():
    # II:Q=p,M=all windows reach p^2 | D at primes of m, p = 2 included; the
    # Q = 1 window's 71 levels and 2 sqrt(l) + 1 rows per prime take more
    # than one batch
    for family, least_batches in (("II:Q=1,M=all", 2), ("II:Q=3,M=all", 1)):
        levels = murmur._window_levels(murmur.parse_family(family), 70)
        ells = primes_up_to(67)
        _, batches = _window_traces(2, levels, ells)
        assert len(batches) >= least_batches, family
        stripped = set()
        for q, m in levels:
            for ell in ells:
                s = 0
                while (q * m) % ell and s * s * q <= 4 * ell:
                    disc = q * (s * s * q - 4 * ell)
                    stripped |= {p for p, _ in factor(m) if (disc % 16 in (0, 4) if p == 2 else disc % (p * p) == 0)}
                    s += 1
        assert 2 in stripped and stripped - {2}, (family, stripped)


def test_trace_window_takes_python_ints_past_int64():
    # weight 40: p_40 reaches 39 * 67^19 ~ 2^119, so the contraction runs on Python ints
    _window_traces(40, [(1, n) for n in range(60, 90)], primes_up_to(67))
    # local factors at 2^14, 3^8 and 5^6, with as many strips as |D| <= 4 * 499 * 7
    # allows, put the a-priori bound on |weight| past 2^63: the products run on
    # Python ints before any p_k
    m = 2**14 * 3**8 * 5**6
    win, _ = _window_traces(4, [(1, m), (7, m), (7, 11 * m)], [101, 211, 499])
    assert not win._int64_weights


def test_trace_window_installs_the_table_it_reads(monkeypatch):
    # with no table installed and the per-discriminant path disabled, the
    # window installs one covering 4 * l_max * max(Q) and reads every class
    # number from it, square-stripped discriminants included
    def no_fallback(disc):
        raise AssertionError("per-discriminant fallback at disc %d" % disc)

    monkeypatch.setattr(classnum, "_active_table", None)
    monkeypatch.setattr(classnum, "_hurwitz12_pure", no_fallback)
    levels = murmur._window_levels(murmur.parse_family("II:Q=3,M=all"), 40)
    ells = primes_up_to(23)
    win = window.TraceWindow(2, *trace_window_arrays(levels), 23)
    assert classnum._active_table.bound >= 4 * 23 * max(q for q, _ in levels)
    want = [[trace.t_new_squarefree(2, q, m, ell) if (q * m) % ell else 0 for q, m in levels] for ell in ells]
    assert win.traces(ells).tolist() == want


def test_trace_window_gathers_only_discriminants_its_table_covers(monkeypatch):
    # hurwitz12_gather checks no residue: a D = 2, 3 mod 4 would read a
    # neighbour's entry.  Every D a pass hands it, square-stripped ones and
    # the pads' -3 included, is a negative discriminant the table covers
    seen = []
    gather = classnum.hurwitz12_gather

    def spy(discs):
        seen.append(discs.copy())
        return gather(discs)

    monkeypatch.setattr(classnum, "hurwitz12_gather", spy)
    for family in ("I:M=1", "III:r=2", "II:Q=1,M=all"):
        seen.clear()
        _window_traces(2, murmur._window_levels(murmur.parse_family(family), 60), primes_up_to(59))
        discs = np.concatenate([d.ravel() for d in seen])
        assert (discs < 0).all() and np.isin(discs % 4, (0, 1)).all(), family
        assert -discs.min() <= classnum._active_table.bound and -3 in discs, family


def test_trace_window_takes_only_primes_up_to_its_ell_max():
    # outside that contract the pass formula gives wrong numbers, not an
    # error: at l = 997 the first window would read [0, 40, -2, 0, 0] where
    # the kernel gives 0s; on the second, l = 15 would read [7, 8, 8, 14]
    # against t_new_level's [-1, 0, 0, 6], and l = 1 0s against [1, 0, 1, 2]
    small = window.TraceWindow(2, *trace_window_arrays([(1, 4), (1, 9), (1, 12), (1, 25), (3, 4)]), 3)
    with pytest.raises(ValueError, match=r"takes primes <= 3, got \[997\]"):
        small.traces([997])
    levels = [(1, 11), (1, 13), (1, 17), (1, 37)]
    win = window.TraceWindow(2, *trace_window_arrays(levels), 15)
    assert [trace.t_new_level(2, m, 15) for _, m in levels] == [-1, 0, 0, 6]
    assert [trace.t_new_level(2, m, 1) for _, m in levels] == [1, 0, 1, 2]
    for ell in (15, 1):
        with pytest.raises(ValueError, match=r"takes primes <= 15, got \[%d\]" % ell):
            win.traces([2, ell])
    assert win.traces([13]).tolist() == [[trace.t_new_squarefree(2, 1, m, 13) if m % 13 else 0 for _, m in levels]]


def test_trace_window_joins_int64_and_python_int_passes(monkeypatch):
    # at k = 40 p_40 stays within int64 at l = 2 but not at l = 13: one prime
    # per pass, the early passes are int64 and the later ones Python ints
    levels = [(1, n) for n in range(30, 40)]
    ells = primes_up_to(13)
    monkeypatch.setattr(window, "_BATCH_ENTRIES", 1)
    win = window.TraceWindow(40, *trace_window_arrays(levels), 13)
    assert win.traces([2]).dtype == np.int64 and win.traces([13]).dtype == object
    _, passes = _window_traces(40, levels, ells)
    assert len(passes) == len(ells)


# ---------------------------------------------------------------------------
# the window factorization and its counts at ell = 1


def test_factors_equal_arith_factor_level_by_level():
    for lo, hi in ((1, 1), (1, 2), (1, 300), (2310, 2400), (10**6 - 50, 10**6), (2**40 - 30, 2**40)):
        win = window.Factors.of_range(lo, hi)
        primes = win.primes().tolist()
        assert win.n.tolist() == list(range(lo, hi + 1))
        for n, at, omega, sqf, row in zip(range(lo, hi + 1), win.at.tolist(), win.omega, win.squarefree, primes):
            fac = factor(n)
            assert [win.pairs[i] for i in at if i] == list(fac), n
            assert (omega, sqf) == (len(fac), is_squarefree(n)), n
            assert row == [p for p, _ in fac] + [1] * (len(row) - len(fac)), n
        # take: the cofactor's prime powers in slots of their own, after the
        # level's; a mask and an index array (reordering) alike
        for cofactor in (1, 4, 6, 9, 30, 49, 2**5 * 3):
            prime = np.array([math.gcd(n, cofactor) == 1 for n in range(lo, hi + 1)])
            for rows in (prime, np.flatnonzero(prime)[::-1]):
                got = win.take(rows, cofactor)
                levels = win.n[rows].tolist()
                assert got.n.tolist() == [n * cofactor for n in levels], (lo, cofactor)
                for n, at, omega, sqf in zip(levels, got.at.tolist(), got.omega, got.squarefree):
                    fac = factor(n * cofactor)
                    own = [pe for pe in fac if cofactor % pe[0]]
                    assert [got.pairs[i] for i in at if i] == own + list(factor(cofactor)), (n, cofactor)
                    assert (omega, sqf) == (len(fac), is_squarefree(n * cofactor)), (n, cofactor)


def _slot_windows(family, X, k):
    """(Q, Factors) per slot of family's scan at X, as the scans build them
    from murmur._window: one slot at the family's Q for scan_WQ, whose
    levels _scan orders by M; for a kind III family without idx every
    subset product of the level primes, as scan_eigenspace reads; for
    "cancel", cancellation_diag's Q = 1 and Q = N slots (m = 1 in the
    latter)."""
    if family == "cancel":
        n, _, win = murmur._window(parse_family("I:M=1", k=k), X)
        return [(np.ones_like(n), win), (n, win)]
    spec = parse_family(family, k=k)
    if spec.kind == "III" and not spec.idx:
        n, _, win = murmur._window(replace(spec, idx=tuple(range(1, spec.r + 1))), X)
        primes = win.primes()[:, : spec.r].T
        return [(q * np.ones_like(n), win) for q, _ in murmur._signed_products(primes, (1,) * spec.r)]
    q, m, win = murmur._window(spec, X)
    order = np.argsort(m, kind="stable")
    return [(q[order], win.take(order, 1))]


@pytest.mark.parametrize(
    "family, X",
    [
        ("I:M=4", 60),
        ("I:M=9,omega=1", 100),
        ("II:Q=6,M=all", 150),
        ("II:Q=1,M=all", 60),
        ("III:r=2,idx=1", 60),
        ("III:r=2,idx=1,2", 60),
        ("III:r=2", 60),
        ("III:r=3,fixed=2", 60),
        ("cancel", 60),
    ],
)
@pytest.mark.parametrize("k", [2, 4])
def test_slot_windows_of_the_scan_factorization_match_the_per_level_kernel(family, X, k):
    # each slot's m = n / Q is the window's slots whose prime does not divide
    # Q: a wrong split reads the wrong local factors, mu(m) or hyperbolic term
    for q, win in _slot_windows(family, X, k):
        assert len(q) and (win.n % q == 0).all(), family
        ells = primes_up_to(min(47, 10_000 // int(q.max())))
        got = window.TraceWindow(k, q, win, max(ells)).traces(ells).tolist()
        levels = list(zip(q.tolist(), win.n.tolist()))
        want = [[trace.t_new_squarefree(k, qq, n // qq, ell) if n % ell else 0 for qq, n in levels] for ell in ells]
        assert got == want, (family, k)


# (family, X, beta): II:Q=1 over [1, 1000] holds 2^9, 3^6, 5^4, 7^3 and p^2 | m;
# I:M=4 and I:M=9 have a non-squarefree cofactor, II:Q=6 and II:Q=3 a
# squarefree one beside non-squarefree M
_COUNT_WINDOWS = (
    ("II:Q=1,M=all", 1, 1000),
    ("I:M=4", 30, 3),
    ("I:M=9,omega=1", 100, 2),
    ("II:Q=6,M=all", 150, 3),
    ("II:Q=3,M=all", 30, 4),
    ("III:r=2", 100, 2),
    ("III:r=3,fixed=2,idx=1", 60, 3),
)


@pytest.mark.parametrize("k", [2, 4, 6, 12, 14])
def test_window_counts_equal_dim_new_level_by_level(k):
    # the window multiplies signs.dim_local over its slots and the cofactor;
    # the trace of the identity is the divisor-sum twin that reads no local
    # value of the dimension formula
    for family, X, beta in _COUNT_WINDOWS:
        q, m, win = murmur._window(parse_family(family, k=k, beta=Fraction(beta)), X)
        levels = (q * m).tolist()
        assert levels, family
        got = win.dims(k).tolist()
        assert got == [signs.dim_new(k, n) for n in levels], family
        assert got == [trace.t_new_level(k, n, 1) for n in levels], family
        if family == "II:Q=1,M=all":
            assert {512, 729, 625, 343, 968} <= set(levels)


def test_window_counts_take_python_ints_past_int64():
    k = 2**61
    q, m, win = murmur._window(parse_family("I:M=4", k=k), 30)
    dims = win.dims(k)
    assert dims.dtype == object
    assert dims.tolist() == [signs.dim_new(k, n) for n in (q * m).tolist()]
