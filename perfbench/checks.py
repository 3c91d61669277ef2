"""Output checks for the three workloads, kept outside the timed regions.

Each check returns a list of mismatch descriptions; an empty list means the
outputs are correct.  The scan references recompute sampled points level by
level through the other trace path where the level has one:

* a W_q trace with q prime goes through the divisor-sum ``t_new``;
* Q = 1 (the divisor-sum scan) goes through ``t_new_squarefree`` on
  squarefree levels; other levels have no second path and are recomputed
  with ``t_new_level``;
* newform counts go through ``t_new_level(k, n, 1)``, the trace of the
  identity, instead of ``signs.dim_new``.

Composite Q has no second path in altrace, so those levels are recomputed
on the squarefree path, which still checks the scan's window enumeration
and aggregation.  The window enumeration here is independent of murmur's.
"""
from __future__ import annotations

import math
from fractions import Fraction

from inputs import prime_factors, primes_upto, squarefree

REL_TOL = 1e-12


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) or a == b


# ---------------------------------------------------------------------------
# scan references


def window_levels(family: str, x: int) -> list[tuple[int, int]]:
    """(Q, M) for x <= QM <= 2x in the three families the scan workload uses."""
    out = []
    for n in range(x, 2 * x + 1):
        if family == "I:M=1":
            if squarefree(n):
                out.append((n, 1))
        elif family == "II:Q=1,M=all":
            out.append((1, n))
        elif family in ("III:r=2,idx=1,2", "III:r=2"):
            fac = prime_factors(n)
            if len(fac) == 2 and all(e == 1 for _, e in fac):
                out.append((n, 1) if family == "III:r=2,idx=1,2" else (1, n))
        else:
            raise ValueError("no reference for family %s" % family)
    return out


def _trace_other_path(trace, k: int, q: int, m: int, ell: int) -> int:
    if q == 1:  # the divisor-sum scan: its squarefree levels have a second path
        return trace.t_new_squarefree(k, 1, m, ell) if squarefree(m) else trace.t_new_level(k, m, ell)
    if prime_factors(q) == [(q, 1)]:
        return trace.t_new(k, q, 1, m, ell)
    return trace.t_new_squarefree(k, q, m, ell)


def wq_point(trace, family: str, k: int, x: int, ell: int) -> tuple[float, int] | None:
    """(average, count) of scan_WQ at one prime ell, recomputed level by level."""
    groups: dict[int, int] = {}
    count = 0
    for q, m in window_levels(family, x):
        if (q * m) % ell == 0:
            continue
        groups[m] = groups.get(m, 0) + _trace_other_path(trace, k, q, m, ell)
        count += trace.t_new_level(k, q * m, 1)
    if not groups:
        return None
    scale = ell ** (k // 2 - 1)
    avg = sum(float(Fraction(s, scale)) * math.sqrt(m) for m, s in sorted(groups.items()))
    return avg / count, count


def eig_point(trace, k: int, eps: tuple[int, int], x: int, ell: int) -> tuple[float, int]:
    """(average, count) of scan_eigenspace on III:r=2 at one prime ell."""

    def signed(n: int, ps: list[int], l: int) -> Fraction:
        p1, p2 = ps
        total = trace.t_new_level(k, n, l)
        total += eps[0] * trace.t_new(k, p1, 1, p2, l)
        total += eps[1] * trace.t_new(k, p2, 1, p1, l)
        total += eps[0] * eps[1] * trace.t_new_squarefree(k, n, 1, l)
        return Fraction(total, 4)

    num = Fraction(0)
    den = 0
    for _, n in window_levels("III:r=2", x):
        if n % ell == 0:
            continue
        ps = [p for p, _ in prime_factors(n)]
        num += signed(n, ps, ell)
        den += int(signed(n, ps, 1))
    return float(num * Fraction(1, ell ** (k // 2 - 1))) / den, den


def cancellation(trace, k: int, x: int) -> dict:
    """cancellation_diag(k, x) recomputed with Q = 1 and counts on the divisor-sum path."""
    levels = [n for n in range(x, 2 * x + 1) if squarefree(n)]
    rows = []
    for ell in [p for p in primes_upto(2 * x) if p >= x // 2]:
        s1 = sn = d1 = dn = 0
        for n in levels:
            if n % ell == 0:
                continue
            s1 += trace.t_new_level(k, n, ell)
            sn += trace.t_new_squarefree(k, n, 1, ell)
            d1 += trace.t_new_level(k, n, 1)
            dn += trace.t_new_squarefree(k, n, 1, 1)
        scale = Fraction(1, ell ** (k // 2 - 1))
        plus = float(scale * Fraction(s1 + sn, 2)) / ((d1 + dn) // 2)
        minus = float(scale * Fraction(s1 - sn, 2)) / ((d1 - dn) // 2)
        rows.append((abs(plus + minus), abs(plus - minus), ell))
    best = max(rows, key=lambda r: r[0])
    return {"argmax_ell": best[2], "max_abs_sum": best[0], "max_abs_diff": max(r[1] for r in rows)}


# ---------------------------------------------------------------------------
# comparisons


def compare_points(label: str, got: list[list], ref: dict[int, tuple[float, int] | None]) -> list[str]:
    """got: [ell, average, count] rows from a scan; ref: ell -> (average, count)."""
    by_ell = {row[0]: row for row in got}
    bad = []
    for ell, want in ref.items():
        row = by_ell.get(ell)
        if want is None:
            if row is not None:
                bad.append("%s ell=%d: scan has a point, reference has none" % (label, ell))
            continue
        if row is None:
            bad.append("%s ell=%d: point missing" % (label, ell))
            continue
        if row[2] != want[1]:
            bad.append("%s ell=%d: count %d != %d" % (label, ell, row[2], want[1]))
        if not close(row[1], want[0]):
            bad.append("%s ell=%d: average %r != %r" % (label, ell, row[1], want[0]))
    return bad


def compare_cancellation(got: dict, ref: dict) -> list[str]:
    bad = []
    if got["argmax_ell"] != ref["argmax_ell"]:
        bad.append("cancel: argmax ell %d != %d" % (got["argmax_ell"], ref["argmax_ell"]))
    for key in ("max_abs_sum", "max_abs_diff"):
        if not close(got[key], ref[key]):
            bad.append("cancel: %s %r != %r" % (key, got[key], ref[key]))
    return bad


def compare_rounds(first: dict, later: dict) -> list[str]:
    """Every round of a run has the same inputs, so the outputs must repeat exactly."""
    return ["round outputs differ in %s" % key for key in first if later.get(key) != first[key]]


def check_query(kind: str, key: tuple, code: int, payload: dict | None, want_delta: int | None) -> list[str]:
    """A CLI query is correct when it exits 0 and its payload agrees with itself
    and, for delta and paired twist queries, with the in-process delta."""
    tag = "%s%s" % (kind, key)
    if code != 0:
        return ["%s: exit status %d" % (tag, code)]
    if payload is None:
        return ["%s: no JSON payload" % tag]
    if kind == "classnum" and payload.get("agree") is not True:
        return ["%s: agree = %r" % (tag, payload.get("agree"))]
    if kind == "trace" and payload.get("cross_path_mismatch") is not False:
        return ["%s: cross_path_mismatch = %r" % (tag, payload.get("cross_path_mismatch"))]
    if kind == "delta" and payload.get("delta") != want_delta:
        return ["%s: delta %r != in-process %r" % (tag, payload.get("delta"), want_delta)]
    if kind == "twist" and "delta" in payload and payload["delta"] != want_delta:
        return ["%s: delta %r != in-process %r" % (tag, payload["delta"], want_delta)]
    return []
