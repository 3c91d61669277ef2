"""Acceptance checks: ten verdicts covering every module.

Each criterion_N function runs one check end to end and returns a
CheckResult; run_all executes them in order.  The CLI `selftest`
subcommand and tests/test_acceptance.py both call into this module so the
command line and the test suite can never drift apart; ``sweep`` is the one
(k, q^r, M) verification grid behind criteria 2 and 3 and the CLI
`equidist-sweep` subcommand.
"""
from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import classnum, murmur, signs, trace, twist
from .arith import is_prime, is_squarefree, kronecker, prime_powers_up_to, primes_up_to

DEFAULT_SEED = 1729

# Covers every discriminant criteria 1-6 and 8 read, so none falls back to
# per-discriminant form enumeration (tests/test_acceptance.py checks this).  The largest, 247,504, is criterion 4's
# Fricke check (4 * 124 * 499); criterion 5 reads up to 225,548, criterion 8
# 17,444, criterion 6 15,992 and criteria 2-3 796.  Criterion 9's scans
# install their own table; criteria 7 and 10 read a few hundred closed-form
# class numbers, some far past any table, by the per-discriminant path.
_TABLE_BOUND = 250_000


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(number, name, t0, passed, detail) -> CheckResult:
    return CheckResult(number, name, bool(passed), detail, time.perf_counter() - t0)


def criterion_1(seed: int = DEFAULT_SEED) -> CheckResult:
    """Sieved Hurwitz numbers match the reduced-forms oracle, |disc| <= 20000."""
    t0 = time.perf_counter()
    table = classnum.get_table(_TABLE_BOUND)
    bad = []
    checked = 0
    for n in range(1, 20001):
        if -n % 4 not in (0, 1):
            continue
        checked += 1
        if int(table.h12[n]) != classnum.hurwitz12_oracle(-n):
            bad.append(-n)
        if n % 97 == 0 and classnum.hurwitz12(-n) != int(table.h12[n]):
            bad.append(("pure-path", -n))
    detail = "%d discriminants, %d mismatches" % (checked, len(bad))
    if bad:
        detail += "; first: %s" % (bad[:5],)
    elapsed = time.perf_counter() - t0
    return _result(1, "class-number oracle equivalence", t0, not bad and elapsed < 60, detail + " (budget 60s)")


@dataclass(frozen=True)
class SweepResult:
    checked: int
    covered: int
    case_tags: Counter  # covered verdicts by case tag
    verdicts: Counter  # covered verdicts by zero reason or claimed sign
    mismatches: list  # [kind, k, q, r, M], kind "two-path" or "predicate-*"


def sweep(k_range: tuple[int, int], qr_max: int, m_max: int) -> SweepResult:
    """Check every (k, q^r, M) with even k in k_range, q^r <= qr_max and
    M <= m_max coprime to q: the closed-form delta against the divisor-sum
    trace at ell = 1, and each covered predicate verdict against delta (a
    zero claim needs delta = 0, a sign claim delta of that sign, and a
    verdict with no claim the zero reason "none")."""
    k_lo, k_hi = k_range
    if k_lo % 2 or k_hi % 2 or not 2 <= k_lo <= k_hi:
        raise ValueError("k_range needs even bounds 2 <= lo <= hi, got %d %d" % (k_lo, k_hi))
    mismatches = []
    case_tags, verdicts = Counter(), Counter()
    covered = checked = 0
    for q, r in prime_powers_up_to(qr_max):
        for m in range(1, m_max + 1):
            if m % q == 0:
                continue
            for k in range(k_lo, k_hi + 1, 2):
                checked += 1
                res = signs.equidistribution_predicate(k, q, r, m)
                d = res.value
                if d != trace.t_new(k, q, r, m, 1):
                    mismatches.append(["two-path", k, q, r, m])
                if not res.covered:
                    continue
                covered += 1
                case_tags[res.case_tag] += 1
                if res.predicted_sign == 0:
                    verdicts[res.zero_reason] += 1
                    if d != 0:
                        mismatches.append(["predicate-zero", k, q, r, m])
                elif res.predicted_sign is not None:
                    verdicts["(signed: %+d)" % res.predicted_sign] += 1
                    if d == 0 or (d > 0) != (res.predicted_sign > 0):
                        mismatches.append(["predicate-sign", k, q, r, m])
                else:
                    verdicts["(no claim)"] += 1
                    if res.zero_reason != signs.ZERO_NONE:
                        mismatches.append(["predicate-reason", k, q, r, m])
    return SweepResult(checked, covered, case_tags, verdicts, mismatches)


@cache
def _theorem_grid() -> SweepResult:
    """The grid of criteria 2 and 3, walked once for both."""
    return sweep((2, 14), 200, 300)


def criterion_2(seed: int = DEFAULT_SEED) -> CheckResult:
    """Closed-form delta equals the divisor-sum trace at ell = 1."""
    t0 = time.perf_counter()
    classnum.get_table(_TABLE_BOUND)
    grid = _theorem_grid()
    bad = [x for x in grid.mismatches if x[0] == "two-path"]
    elapsed = time.perf_counter() - t0
    detail = "%d (k,q,r,M) tuples, %d mismatches" % (grid.checked, len(bad))
    if bad:
        detail += "; first: %s" % (bad[:3],)
    return _result(2, "two-path exactness", t0, not bad and elapsed < 300, detail + " (budget 300s)")


def criterion_3(seed: int = DEFAULT_SEED) -> CheckResult:
    """Predicate verdicts match computed delta; exceptional lists exact.

    The printed weight-2 M=1 list is {5,7,13,17}; the computed one, cross-
    checked against the form-count oracle and the divisor-sum trace, is
    {5,7,13,37} (17 and 37 differ by a digit swap; tr W_17 = -1 while
    X_0(37)'s two newforms have opposite Fricke signs).  We assert the
    corrected list.
    """
    t0 = time.perf_counter()
    classnum.get_table(_TABLE_BOUND)
    grid = _theorem_grid()
    bad = [x for x in grid.mismatches if x[0] != "two-path"]
    list1 = [q for q in range(5, 201) if is_prime(q) and signs.delta(2, q, 1, 1) == 0]
    list2 = [q for q in range(5, 201) if is_prime(q) and signs.delta(2, q, 1, 2) == 0]
    ok1 = list1 == [5, 7, 13, 37]
    ok2 = list2 == [5, 11, 13, 19, 37, 43, 67, 163]
    pred1 = [q for q in range(5, 201) if is_prime(q)
             and signs.equidistribution_predicate(2, q, 1, 1).predicted_sign == 0]
    pred2 = [q for q in range(5, 201) if is_prime(q)
             and signs.equidistribution_predicate(2, q, 1, 2).predicted_sign == 0]
    lists_ok = ok1 and ok2 and pred1 == list1 and pred2 == list2
    detail = "%d covered verdicts, %d mismatches; M=1 list %s (printed 17 is a typo for 37), M=2 list %s" % (
        grid.covered,
        len(bad),
        list1,
        "ok" if ok2 else list2,
    )
    return _result(3, "theorem predicates", t0, not bad and lists_ok, detail)


def criterion_4(seed: int = DEFAULT_SEED) -> CheckResult:
    """The squarefree-Q kernel against the divisor sum at prime q and every
    cofactor M, and full-space Fricke agreement."""
    t0 = time.perf_counter()
    classnum.get_table(_TABLE_BOUND)
    bad = []
    checked = 0
    for q in primes_up_to(300):
        for m in range(1, 300 // q + 1):
            if m % q == 0:
                continue
            for ell in (1, 2, 3, 5, 7):
                if math.gcd(ell, q * m) != 1:
                    continue
                for k in (2, 4, 6, 8):
                    checked += 1
                    a = trace.t_new_squarefree(k, q, m, ell)
                    b = trace.t_new(k, q, 1, m, ell)
                    if a != b:
                        bad.append(("sqf", k, q, m, ell, a, b))
    for n in range(2, 501):
        if not is_squarefree(n):
            continue
        for nn in range(1, (n - 1) // 4 + 1):
            if math.gcd(nn, n) != 1:
                continue
            for k in (2, 4, 6, 8):
                checked += 1
                a = trace.t_full_fricke(k, n, nn)
                b = trace.t_new_squarefree(k, n, 1, nn)
                if a != b:
                    bad.append(("fricke", k, n, nn, a, b))
    detail = "%d comparisons, %d mismatches" % (checked, len(bad))
    if bad:
        detail += "; first: %s" % (bad[:3],)
    return _result(4, "squarefree trace consistency", t0, not bad, detail)


def criterion_5(seed: int = DEFAULT_SEED) -> CheckResult:
    """Small-Hecke correlation: zero-iff and sign agreement, k = 4."""
    t0 = time.perf_counter()
    classnum.get_table(_TABLE_BOUND)
    bad = []
    checked = crosschecked = 0
    for m in (1, 3, 6):
        for q in primes_up_to(500):
            for ell in primes_up_to(max((q - 1) // 4, 1)):
                if 4 * ell >= q or math.gcd(m, q * ell) != 1:
                    continue
                cr = signs.correlation_checks(4, q, m, ell)
                if not cr.hypotheses_met:
                    bad.append(("hyp", q, m, ell, cr.note))
                    continue
                checked += 1
                if cr.zero_expected != cr.zero_observed:
                    bad.append(("zero", q, m, ell, cr))
                if cr.sign_ratio_observed not in (None, 1):
                    bad.append(("sign", q, m, ell, cr))
                if checked % 29 == 0:
                    crosschecked += 1
                    if cr.trace_value != trace.t_new(4, q, 1, m, ell):
                        bad.append(("pipeline", q, m, ell, cr.trace_value))
    detail = "%d (q,M,l) triples, %d pipeline cross-checks, %d exceptions" % (checked, crosschecked, len(bad))
    if bad:
        detail += "; first: %s" % (bad[:3],)
    return _result(5, "small-Hecke sign correlation", t0, not bad, detail)


def criterion_6(seed: int = DEFAULT_SEED) -> CheckResult:
    """Eigenspace T_2 traces carry the sign of +-delta for q in [200, 2000]."""
    t0 = time.perf_counter()
    classnum.get_table(_TABLE_BOUND)
    last_violation = None
    violations_in_range = []
    for q in primes_up_to(2000):
        if q == 2:
            continue
        plus, minus = (murmur.eigenspace_trace(4, q, murmur.signed_moduli(q, (e,)), 2) for e in (1, -1))
        dv = signs.delta(4, q, 1, 1)
        if dv == 0:
            continue
        ok = True
        if plus != 0 and (plus > 0) != (dv > 0):
            ok = False
        if minus != 0 and (minus > 0) != (dv < 0):
            ok = False
        if not ok:
            last_violation = q
            if 200 <= q <= 2000:
                violations_in_range.append(q)
    q0 = 2
    if last_violation is not None:
        q0 = last_violation + 1
        while not is_prime(q0):
            q0 += 1
    detail = "no violations for q >= %d (range [200,2000]: %d violations)" % (q0, len(violations_in_range))
    return _result(6, "eigenspace trace signs", t0, not violations_in_range, detail)


def criterion_7(seed: int = DEFAULT_SEED) -> CheckResult:
    """delta(k, 25, M) tracks its two r = 2 asymptotic regimes within 10%."""
    t0 = time.perf_counter()
    bad = []
    points = 0
    for k in range(300, 300 + 8 * 25, 8):
        points += 1
        a = signs.delta_r2_asymptotics(k, 5, 1)
        ratio = Fraction(signs.delta(k, 5, 2, 1)) / a.kinfty_leading
        if not Fraction(9, 10) <= ratio <= Fraction(11, 10):
            bad.append(("k", k, float(ratio)))
    ms = [p for p in primes_up_to(2600) if p >= 2003][:25]
    assert len(ms) == 25
    for i, m in enumerate(ms):
        points += 1
        k = 2 if i % 2 else 4
        a = signs.delta_r2_asymptotics(k, 5, m)
        ratio = Fraction(signs.delta(k, 5, 2, m)) / a.kinfty_leading
        if not Fraction(9, 10) <= ratio <= Fraction(11, 10):
            bad.append(("M", k, m, float(ratio)))
    q = 10007
    aq = signs.delta_r2_asymptotics(4, q, 1)
    rq = Fraction(signs.delta(4, q, 2, 1)) / (aq.qinfty_coefficient * q)
    if not (aq.qinfty_hypotheses_met and Fraction(9, 10) <= rq <= Fraction(11, 10)):
        bad.append(("q", q, float(rq)))
    detail = "%d ratio points in [0.9, 1.1], %d outside; q=10007 ratio %.4f" % (points, len(bad), float(rq))
    return _result(7, "r=2 asymptotic ratios", t0, not bad, detail)


def _unpaired_ells(k: int, q: int, m: int, chi: twist.TwistCharacter) -> list[int]:
    """The ell <= 50 coprime to q M with chi(ell) = 1 at which tr T_ell W_q on
    S_k^new(q M) is nonzero: none, when chi pairs the two W_q eigenspaces."""
    return [
        ell
        for ell in range(1, 51)
        if math.gcd(ell, q * m) == 1 and chi(ell) == 1 and trace.t_new(k, q, 1, m, ell) != 0
    ]


def criterion_8(seed: int = DEFAULT_SEED) -> CheckResult:
    """Twist-bijection vanishing for p^3, 2^5, and 2^7 level parts."""
    t0 = time.perf_counter()
    classnum.get_table(_TABLE_BOUND)
    rng = random.Random(seed)
    odd_p = [3, 5, 7, 11, 13, 17, 19, 23]
    qs = primes_up_to(100)
    bad = []
    pairs = []
    while len(pairs) < 20:
        p = rng.choice(odd_p)
        q = rng.choice(qs)
        if q != p and kronecker(q, p) == -1 and (q, p) not in pairs:
            pairs.append((q, p))
    for q, p in pairs:
        k = rng.choice((2, 4, 6))
        m = p**3
        chars = twist.quadtwist_characters(k, q, 1, m)
        if not chars or signs.delta(k, q, 1, m) != 0:
            bad.append(("p3-delta", q, p, k))
            continue
        bad += [("p3-trace", q, p, k, ell) for ell in _unpaired_ells(k, q, m, chars[0])]
    for q in (3, 7, 11, 19, 23, 31):
        k = rng.choice((2, 4, 6))
        chars = twist.quadtwist_characters(k, q, 1, 32)
        if not any(c.label == "chi_-1" for c in chars) or signs.delta(k, q, 1, 32) != 0:
            bad.append(("2^5-delta", q, k))
            continue
        chi = [c for c in chars if c.label == "chi_-1"][0]
        bad += [("2^5-trace", q, k, ell) for ell in _unpaired_ells(k, q, 32, chi)]
    for q in (5, 13, 29, 37, 53):
        k = rng.choice((2, 4, 6))
        chars = twist.quadtwist_characters(k, q, 1, 128)
        labels = {c.label for c in chars}
        if not {"chi_2", "chi_-2"} <= labels or signs.delta(k, q, 1, 128) != 0:
            bad.append(("2^7-delta", q, k))
            continue
        for chi in chars:
            if chi.label not in ("chi_2", "chi_-2"):
                continue
            bad += [("2^7-trace", q, chi.label, k, ell) for ell in _unpaired_ells(k, q, 128, chi)]
    detail = "20 odd-prime pairs + 6 chi_-1 + 5 chi_{+-2} levels, %d failures" % len(bad)
    if bad:
        detail += "; first: %s" % (bad[:3],)
    return _result(8, "quadratic twist vanishing", t0, not bad, detail)


def fit_points(m: int, k: int) -> list[murmur.MurmurationPoint]:
    """Criterion 9's fit data: the raw I:M=m points at X = 500 M, beta = 2,
    with x < 1/(4M) - 0.02.

    x is ell/X against the level N = QM, so X = 500 M gives every M the same
    Q-window [500, 1000] and the same number of primes.
    """
    X = 500 * m
    x_cut = 1 / (4 * m) - 0.02
    pts = murmur.scan_WQ(murmur.FamilySpec(kind="I", m=m, k=k), (2, int(x_cut * X)), X)
    return [p for p in pts if float(p.x) < x_cut]


def criterion_9(seed: int = DEFAULT_SEED) -> CheckResult:
    """Murmuration properties: sqrt-x fit, +-cancellation, 2^r inversion.

    The fit subcheck takes fit_points for M in {1, 5}, k in {2, 4}; the
    residual RMS of sqrt_fit (c sqrt(x), plus d x at k = 2) must stay under
    10% of the data range.
    """
    t0 = time.perf_counter()
    bad = []
    fits = []
    for m in (1, 5):
        for k in (2, 4):
            pts = fit_points(m, k)
            fit = murmur.sqrt_fit(pts, k)
            fits.append("M=%d,k=%d,X=%d: rms=%.3f (%d pts)" % (m, k, 500 * m, fit.rms_residual, len(pts)))
            if fit.rms_residual >= 0.10:
                bad.append(("fit", m, k, round(fit.rms_residual, 3)))
    rep = murmur.cancellation_diag(2, 500)
    if not rep.max_abs_sum < 0.5 * rep.max_abs_diff:
        bad.append(("cancel", rep))
    # exact 2^r inversion: the eigenspace traces the eigenspace scans
    # average (integers, or eigenspace_trace raises) rebuild each W_Q trace
    inv_checked = 0
    for x_win, r, fixed in ((60, 2, (2,)), (105, 2, (3,)), (30, 3, (2, 3))):
        base = murmur.FamilySpec(kind="III", r=r, fixed=fixed, k=4)
        levels = murmur._window_levels(base, x_win)
        if not levels:
            bad.append(("inv-empty", x_win, r, fixed))
            continue
        eps_vectors = [tuple(1 - 2 * (i >> j & 1) for j in range(r)) for i in range(1 << r)]
        for _, n in levels:
            moduli = {eps: murmur.signed_moduli(n, eps) for eps in eps_vectors}
            for ell in (5, 7):
                if n % ell == 0:
                    continue
                tr_eps = {eps: murmur.eigenspace_trace(4, n, moduli[eps], ell) for eps in eps_vectors}
                for i, (qq, _) in enumerate(moduli[eps_vectors[0]][1:], start=1):
                    recon = sum(moduli[eps][i][1] * tr_eps[eps] for eps in eps_vectors)
                    if recon != trace.t_new_squarefree(4, qq, n // qq, ell):
                        bad.append(("inv", n, ell, qq))
                inv_checked += 1
    detail = "; ".join(fits) + "; cancel max|A++A-|=%.3g vs max|A+-A-|=%.3g; %d inversion levels" % (
        rep.max_abs_sum,
        rep.max_abs_diff,
        inv_checked,
    )
    if bad:
        detail += "; failures: %s" % (bad[:3],)
    return _result(9, "murmuration properties", t0, not bad, detail)


def criterion_10(seed: int = DEFAULT_SEED) -> CheckResult:
    """Boundedness of delta in the weight for q = 5, M = 6."""
    t0 = time.perf_counter()
    bad = []
    seen = {}
    for r in (1, 3):
        vals = {signs.delta(k, 5, r, 6) for k in range(2, 101, 2)}
        seen[r] = sorted(vals)
        if len(vals) > 2 or len({abs(v) for v in vals}) > 2:
            bad.append((r, sorted(vals)))
    detail = "r=1 values %s, r=3 values %s" % (seen[1], seen[3])
    return _result(10, "boundedness in the weight", t0, not bad, detail)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results = []
    for fn in ALL_CRITERIA:
        try:
            results.append(fn(seed))
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            number = int(fn.__name__.split("_")[1])
            results.append(CheckResult(number, fn.__name__, False, "raised %r" % (exc,), 0.0))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(
            "[%s] %2d. %-32s %7.1fs  %s" % ("PASS" if r.passed else "FAIL", r.number, r.name, r.seconds, r.detail)
        )
    lines.append("%d/%d acceptance checks passed" % (sum(r.passed for r in results), len(results)))
    return "\n".join(lines)
