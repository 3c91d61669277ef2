"""Acceptance gate: one test per shipped self-check, one line of output each.

Run with -v (or -rA) to see the per-criterion verdict lines.  The README
("Tests and acceptance status") explains the shape and window of the
criterion 9 murmuration fits.
"""

from __future__ import annotations

import pytest

from altrace import classnum, selftest


@pytest.fixture(autouse=True)
def no_table_yet():
    # each criterion installs the table it reads: a table left by an earlier
    # test or criterion would hide a read past selftest._TABLE_BOUND
    saved = classnum._active_table
    classnum._active_table = None
    yield
    classnum._active_table = saved


def _check(fn):
    result = fn(seed=selftest.DEFAULT_SEED)
    line = "[%s] %d. %s — %s" % (
        "PASS" if result.passed else "FAIL",
        result.number,
        result.name,
        result.detail,
    )
    print(line)
    assert result.passed, line
    return result


def _check_on_table(fn, monkeypatch):
    # selftest._TABLE_BOUND claims to cover every class number criteria 1-6
    # and 8 read, so the per-discriminant fallback must never run
    def past_the_table(disc):
        raise AssertionError("H(%d) read past the selftest table" % disc)

    monkeypatch.setattr(classnum, "_hurwitz12_pure", past_the_table)
    return _check(fn)


def test_criterion_01_class_number_oracle():
    _check(selftest.criterion_1)


def test_criterion_02_two_path_exactness(monkeypatch):
    _check_on_table(selftest.criterion_2, monkeypatch)


def test_criterion_03_theorem_predicates(monkeypatch):
    _check_on_table(selftest.criterion_3, monkeypatch)


def test_criterion_04_squarefree_trace_consistency(monkeypatch):
    _check_on_table(selftest.criterion_4, monkeypatch)


def test_criterion_05_small_hecke_sign_correlation(monkeypatch):
    _check_on_table(selftest.criterion_5, monkeypatch)


def test_criterion_06_eigenspace_trace_signs(monkeypatch):
    _check_on_table(selftest.criterion_6, monkeypatch)


def test_criterion_07_r2_asymptotic_ratios():
    _check(selftest.criterion_7)


def test_criterion_08_quadratic_twist_vanishing(monkeypatch):
    _check_on_table(selftest.criterion_8, monkeypatch)


def test_criterion_09_murmuration_properties():
    # Weight 2 fits c*sqrt(x) + d*x (the sigma(ell) term averages to a
    # multiple of x), and X = 500*M gives M=5 the same Q-window as M=1.
    _check(selftest.criterion_9)


def test_criterion_10_boundedness_in_weight():
    _check(selftest.criterion_10)
