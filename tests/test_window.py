"""The batched trace engine against its per-level reference,
trace.t_new_squarefree, over drawn and fixed windows."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from altrace import classnum, murmur, trace, window
from altrace.arith import factor, primes_up_to


def _window_traces(k: int, levels, ells):
    """TraceWindow's traces at ells, checked level by level against
    t_new_squarefree; returns the window and the passes it cut (the runs of
    its _runs(ells))."""
    classnum.get_table(4 * max(ells) * max(q for q, _ in levels))
    win = window.TraceWindow(k, levels, max(ells))
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


def test_trace_window_needs_a_table_covering_its_discriminants(monkeypatch):
    # no per-discriminant fallback: the installed table must cover 4 * l * Q
    monkeypatch.setattr(classnum, "_active_table", None)
    with pytest.raises(ValueError, match="no class-number table covers"):
        window.TraceWindow(2, [(1, 11)], 13)


def test_trace_window_takes_only_primes_up_to_its_ell_max():
    # outside that contract the pass formula gives wrong numbers, not an
    # error: at l = 997 the first window would read [0, 40, -2, 0, 0] where
    # the kernel gives 0s; on the second, l = 15 would read [7, 8, 8, 14]
    # against t_new_level's [-1, 0, 0, 6], and l = 1 0s against [1, 0, 1, 2]
    small = window.TraceWindow(2, [(1, 4), (1, 9), (1, 12), (1, 25), (3, 4)], 3)
    with pytest.raises(ValueError, match=r"takes primes <= 3, got \[997\]"):
        small.traces([997])
    levels = [(1, 11), (1, 13), (1, 17), (1, 37)]
    win = window.TraceWindow(2, levels, 15)
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
    win = window.TraceWindow(40, levels, 13)
    assert win.traces([2]).dtype == np.int64 and win.traces([13]).dtype == object
    _, passes = _window_traces(40, levels, ells)
    assert len(passes) == len(ells)
