"""Murmuration scans: weighted Hecke averages over level windows.

A family is a window X <= N <= beta*X of newform levels N = Q*M together
with a rule for which part is the Atkin-Lehner modulus Q.  For each prime
ell the scan averages sqrt(N/Q) * ell^(1-k/2) * tr T_ell W_Q over the
window, normalized by the number of newforms.  Numerators and denominators
accumulate as exact integers; ``Fraction`` appears only at the API boundary
(beta and the x = ell/X of each point), and floats only in the final
division, so scans are reproducible across platforms.

scan_WQ, scan_eigenspace and cancellation_diag share one function,
``_scan``: one row per level (a group key, and per series the signed
Atkin-Lehner moduli whose traces it averages and its count), sorted by key,
then exact integer array reductions per batch of primes, on a thread pool
if asked.  They differ only in the row; cancellation_diag's has two series,
the two Fricke eigenspaces, and the others one.  The traces at the
scanned primes come from one ``window.TraceWindow`` per modulus slot,
shared by the series, as an integer array over primes x levels that equals
``trace.t_new_squarefree`` level by level (one class number per s,
non-squarefree levels included); each window cuts its own numpy passes by
its rows per prime, so a slot of large Q takes all its primes at once.  The
counts at ell = 1 stay on the per-level kernel.  A kernel replaced on the
trace module (anything but a functools.wraps wrapper of it) is not the one
the engine reproduces, so the scans then call it level by level instead
(``_trace_window``).  Per batch the signed mean over the moduli and the sums
per key are integer array operations, in int64 while max|trace| * slots *
levels < 2^63 and in Python ints otherwise, so no sum can wrap; only the
final weighting by sqrt(key) is in floats.  ``eigenspace_trace`` takes the
same signed mean for one level through the per-level kernel; selftest
criterion 9 inverts it.

Each scan installs the class-number table its window reads before it
loops.  For Q > 1 every discriminant a trace kernel reads is Q(s^2 Q - 4l)
or a square-divisor of it, and for Q = 1 it is at most 4l in size, so
4 * max(l) * max(Q) bounds them all.
"""
from __future__ import annotations

import csv
import inspect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

from . import classnum, signs, trace, window
from .arith import check_level, factor, is_prime, is_squarefree, primes_up_to

FAMILY_KINDS = ("I", "II", "III")
# the per-level kernel window.TraceWindow reproduces
_BATCHED_KERNEL = trace.t_new_squarefree


@dataclass(frozen=True)
class FamilySpec:
    """Arithmetically compatible family of (level, AL-modulus) pairs.

    kind I   : M fixed, Q ranges over squarefree integers coprime to M
               (optionally with omega(Q) = omega_q prime factors).
    kind II  : Q fixed squarefree, M ranges over m_set ("all", "sqf", or
               "sqf<r>", r >= 1 without leading zeros, for squarefree with
               exactly r prime factors).
    kind III : N squarefree with exactly r prime factors, the smallest
               len(fixed) of which are the fixed primes; Q is the product
               of the primes at the 1-based sorted positions in idx.
    """

    kind: str
    m: int = 1
    omega_q: int | None = None
    q: int = 1
    m_set: str = "all"
    r: int = 1
    fixed: tuple[int, ...] = ()
    idx: tuple[int, ...] = ()
    k: int = 2
    beta: Fraction = Fraction(2)

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError("family kind must be one of %s" % (FAMILY_KINDS,))
        check_level(self.k, 1, 0, 1)
        if self.beta <= 1:
            raise ValueError("beta must be > 1")
        if self.kind == "I":
            if self.m < 1:
                raise ValueError("kind I needs fixed M >= 1")
            if self.omega_q is not None and self.omega_q < 1:
                raise ValueError("omega restriction must be >= 1")
        elif self.kind == "II":
            if self.q < 1 or not is_squarefree(self.q):
                raise ValueError("kind II needs squarefree Q >= 1")
            digits = self.m_set[3:]  # sqf<r>: r >= 1 written canonically, so each family has one name
            if self.m_set not in ("all", "sqf") and not (
                self.m_set.startswith("sqf") and digits.isascii() and digits.isdigit() and digits[0] != "0"
            ):
                raise ValueError("M set must be 'all', 'sqf', or 'sqf<r>' with r >= 1")
        else:
            if self.r < 1:
                raise ValueError("kind III needs r >= 1")
            if len(self.fixed) > self.r:
                raise ValueError("more fixed primes than prime slots")
            if tuple(sorted(set(self.fixed))) != self.fixed or not all(is_prime(p) for p in self.fixed):
                raise ValueError("fixed part must be strictly increasing primes")
            if not all(1 <= i <= self.r for i in self.idx) or len(set(self.idx)) != len(self.idx):
                raise ValueError("idx must be distinct 1-based positions <= r")

    def canonical(self) -> str:
        if self.kind == "I":
            s = "I:M=%d" % self.m
            if self.omega_q is not None:
                s += ",omega=%d" % self.omega_q
            return s
        if self.kind == "II":
            return "II:Q=%d,M=%s" % (self.q, self.m_set)
        s = "III:r=%d" % self.r
        if self.fixed:
            s += ",fixed=" + ",".join(str(p) for p in self.fixed)
        if self.idx:
            s += ",idx=" + ",".join(str(i) for i in self.idx)
        return s

    def __str__(self) -> str:
        return self.canonical()


def parse_family(text: str, k: int = 2, beta: Fraction = Fraction(2)) -> FamilySpec:
    """Parse the compact grammar, e.g. "I:M=6,omega=2", "II:Q=3,M=sqf",
    "III:r=3,fixed=2,3,idx=1,2".  Bare tokens extend the previous list."""
    head, _, rest = text.partition(":")
    kind = head.strip().upper()
    if kind not in FAMILY_KINDS:
        raise ValueError("unknown family kind %r" % (head,))
    fields: dict[str, list[str]] = {}
    last = None
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" in tok:
            key, _, val = tok.partition("=")
            last = key.strip().lower()
            fields.setdefault(last, []).append(val.strip())
        elif last is not None:
            fields[last].append(tok)
        else:
            raise ValueError("stray token %r in family spec" % (tok,))

    def one(key: str, default=None):
        vals = fields.pop(key, None)
        if vals is None:
            return default
        if len(vals) != 1:
            raise ValueError("field %s given %d times" % (key, len(vals)))
        return vals[0]

    if kind == "I":
        spec = FamilySpec(
            kind="I",
            m=int(one("m", "1")),
            omega_q=(lambda v: int(v) if v is not None else None)(one("omega")),
            k=k,
            beta=beta,
        )
    elif kind == "II":
        spec = FamilySpec(kind="II", q=int(one("q", "1")), m_set=one("m", "all"), k=k, beta=beta)
    else:
        fixed = tuple(int(v) for v in fields.pop("fixed", []) if v)
        idx = tuple(int(v) for v in fields.pop("idx", []) if v)
        spec = FamilySpec(kind="III", r=int(one("r", "1")), fixed=fixed, idx=idx, k=k, beta=beta)
    if fields:
        raise ValueError("unknown fields %s for kind %s" % (sorted(fields), kind))
    return spec


@dataclass(frozen=True)
class MurmurationPoint:
    ell: int
    X: int
    x: Fraction
    average: float
    count: int


def _primes_in(ell_range) -> list[int]:
    """The primes of a (lo, hi) range or an explicit list of distinct primes,
    in increasing order; raises if there are none."""
    if isinstance(ell_range, tuple) and len(ell_range) == 2:
        lo, hi = ell_range
        out = [p for p in primes_up_to(hi) if p >= lo]
        if not out:
            raise ValueError("no primes in [%d, %d]" % (lo, hi))
        return out
    out = sorted(int(p) for p in ell_range)
    if not out:
        raise ValueError("no primes in []")
    if not all(is_prime(p) for p in out):
        raise ValueError("ell_range must contain primes only")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError("ell_range lists the prime %d twice" % a)
    return out


def _window_levels(spec: FamilySpec, X: int) -> list[tuple[int, int]]:
    """All (Q, M) with X <= QM <= beta*X in the family, any ell; X >= 1."""
    if X < 1:
        raise ValueError("a level window needs X >= 1, got X = %d" % X)
    lo, hi = X, math.floor(spec.beta * X)
    out = []
    if spec.kind == "I":
        m = spec.m
        for q in range(max(1, -(-lo // m)), hi // m + 1):
            if q * m < lo or math.gcd(q, m) != 1 or not is_squarefree(q):
                continue
            if spec.omega_q is not None and len(factor(q)) != spec.omega_q:
                continue
            out.append((q, m))
    elif spec.kind == "II":
        q = spec.q
        want_omega = None
        if spec.m_set.startswith("sqf") and spec.m_set[3:]:
            want_omega = int(spec.m_set[3:])
        for m in range(max(1, -(-lo // q)), hi // q + 1):
            if q * m < lo or math.gcd(q, m) != 1:
                continue
            if spec.m_set != "all":
                if not is_squarefree(m):
                    continue
                if want_omega is not None and len(factor(m)) != want_omega:
                    continue
            out.append((q, m))
    else:
        fixed_prod = math.prod(spec.fixed)
        for n in range(lo, hi + 1):
            if fixed_prod and n % fixed_prod:
                continue
            if not is_squarefree(n):
                continue
            ps = [p for p, _ in factor(n)]
            if len(ps) != spec.r or tuple(ps[: len(spec.fixed)]) != spec.fixed:
                continue
            q = math.prod(ps[i - 1] for i in spec.idx)
            out.append((q, n // q))
    return out


def _trace_window(k: int, levels, ell_max: int):
    """Where a scan reads tr T_ell W_Q at the window's (Q, m) levels for
    primes ell <= ell_max: a window.TraceWindow while trace.t_new_squarefree
    is the kernel it reproduces (behind functools.wraps wrappers, such as a
    profiler's), otherwise a window.LevelWindow calling the installed kernel
    level by level, so a kernel replaced on the trace module is still the
    one the scan reads."""
    kernel = trace.t_new_squarefree
    if inspect.unwrap(kernel) is _BATCHED_KERNEL:
        return window.TraceWindow(k, levels, ell_max)
    return window.LevelWindow(kernel, k, levels)


def _scan(spec: FamilySpec, levels, ell_range, X: int, row, no_forms: str, workers: int = 1):
    """The scan behind scan_WQ, scan_eigenspace and cancellation_diag: one
    list of points per series.

    levels are the window's (Q, M) pairs, Q the largest Atkin-Lehner modulus
    the level's trace reads, and row(Q, M) gives the level's group key, a
    tuple of one list of signed moduli [(Q', sign)] per series and a tuple
    of one count per series (the series' trace at ell = 1).  Every series
    lists the same Q' in the same order, at every level, so the traces come
    from one _trace_window per modulus slot, shared by the series.  A
    series' trace at ell is the signed mean of tr T_ell W_Q' over its
    moduli.  Its point at ell averages ell^(1-k/2) * trace over the levels
    ell does not divide, summed per key and weighted by sqrt(key), and
    divides by their counts.  A prime whose kept levels carry none of a
    series' forms gives that series no point; no_forms is raised if no
    level of the window carries a form of some series.

    The levels are sorted by key once.  The primes go in batches whose
    primes x levels stay within window._BATCH_ENTRIES (one prime at least);
    each slot's window cuts its own passes inside a batch.  Per batch each
    slot's exact trace array (primes x levels) is multiplied by each
    series' signs and added to that series' running total, slot by slot;
    then one divisibility check by the slot count, and np.add.reduceat over
    each key's run of levels.  A slot's array is int64 while max|trace| *
    slots * levels < 2^63, so no sum can wrap, and holds Python ints
    otherwise.  Only the final sum over the keys present at ell, in
    increasing key order, is in floats.  With workers > 1 the batches are
    measured on that many threads.
    """
    if not levels:
        raise ValueError("empty level window [%d, %s] for %s" % (X, spec.beta * X, spec))
    ells = _primes_in(ell_range)
    classnum.get_table(4 * max(ells) * max(q for q, _ in levels))
    import numpy as np  # loaded by the table build; importing murmur stays numpy-free

    ns, keys, moduli, counts = zip(*sorted(((q * m, *row(q, m)) for q, m in levels), key=lambda r: r[1]))
    # per series, then per level
    moduli, counts = list(zip(*moduli)), list(zip(*counts))
    if not all(map(any, counts)):
        raise ValueError(no_forms)
    width = len(moduli[0][0])
    slots = [
        _trace_window(spec.k, [(mods[i][0], n // mods[i][0]) for n, mods in zip(ns, moduli[0])], max(ells))
        for i in range(width)
    ]
    starts = [i for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    roots = [math.sqrt(keys[i]) for i in starts]
    level_n = np.array(ns, dtype=np.int64)
    # per series: its signs as slots x levels, and its counts; the signs go
    # through one flat list, which numpy converts far faster than nested ones
    sign = [np.array([s for mods in lists for _, s in mods], dtype=np.int64).reshape(-1, width).T for lists in moduli]
    counts = [np.array(c, dtype=np.int64 if max(c) * len(ns) < 2**63 else object) for c in counts]

    def measure(batch: list[int]) -> list[list[MurmurationPoint]]:
        # slot by slot, so no slots x primes x levels array is held; traces
        # are 0 at the levels ell divides, so they add nothing to the sums
        totals = [0] * len(sign)
        for i, w in enumerate(slots):
            t = w.traces(batch)
            try:
                t = t.astype(np.int64, copy=False)
                exact = int(np.abs(t).max()) * width * len(ns) < 2**63
            except OverflowError:
                exact = False
            if not exact:
                t = t.astype(object)
            totals = [total + t * s[i] for total, s in zip(totals, sign)]
        kept = level_n % np.array(batch, dtype=np.int64)[:, None] != 0
        present = np.logical_or.reduceat(kept, starts, axis=1)
        out = []
        for total, count in zip(totals, counts):
            bad = np.argwhere(total % width)
            assert not bad.size, (ns[bad[0, 1]], batch[bad[0, 0]], int(total[tuple(bad[0])]))
            sums = np.add.reduceat(total // width, starts, axis=1)
            points = []
            for ell, c, s_ell, p_ell in zip(batch, (kept @ count).tolist(), sums, present, strict=True):
                if c:
                    # one prime's row at a time as Python ints
                    scale = ell ** (spec.k // 2 - 1)
                    avg = sum(s / scale * root for s, root, p in zip(s_ell.tolist(), roots, p_ell.tolist()) if p)
                    points.append(MurmurationPoint(ell, X, Fraction(ell, X), avg / c, c))
            out.append(points)
        return out

    step = max(1, window._BATCH_ENTRIES // len(ns))
    batches = [ells[i : i + step] for i in range(0, len(ells), step)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(measure, batches))
    else:
        parts = list(map(measure, batches))
    series = [[p for part in parts for p in part[i]] for i in range(len(sign))]
    if not all(series):
        raise ValueError("every prime in the range divides every level of %s that carries a form" % (spec,))
    return series


def scan_WQ(spec: FamilySpec, ell_range, X: int) -> list[MurmurationPoint]:
    """Average of sqrt(N/Q) ell^(1-k/2) tr T_ell W_Q over X <= N <= beta X.

    Each level's trace is grouped by M = N/Q and counted by dim S_k^new(N).
    Primes dividing every level that carries a form (e.g. the fixed part)
    give no point.  Raises if the window is empty or carries no newform.
    """
    k = spec.k

    def row(q: int, m: int):
        return m, ([(q, 1)],), (signs.dim_new(k, q * m),)

    no_forms = "window [%d, %s] has no newforms at weight %d" % (X, spec.beta * X, k)
    return _scan(spec, _window_levels(spec, X), ell_range, X, row, no_forms)[0]


def signed_moduli(n: int, epsilon: tuple[int, ...]) -> list[tuple[int, int]]:
    """(Q, epsilon_Q) for every Q dividing the squarefree level n, where
    epsilon assigns +-1 to the primes of n in increasing order and
    epsilon_Q is its product over the primes of Q."""
    out = [(1, 1)]
    for (p, _), e in zip(factor(n), epsilon, strict=True):
        out += [(q * p, s * e) for q, s in out]
    return out


def eigenspace_trace(k: int, n: int, moduli: list[tuple[int, int]], ell: int) -> int:
    """tr T_ell on the joint Atkin-Lehner eigenspace of S_k^new(n) given by
    moduli = signed_moduli(n, epsilon): the signed sum of the tr T_ell W_Q,
    divided by their number 2^r.  At ell = 1 it is the eigenspace's
    dimension."""
    total = sum(
        sign * (signs.dim_new(k, n) if q == 1 and ell == 1 else trace.t_new_squarefree(k, q, n // q, ell))
        for q, sign in moduli
    )
    assert total % len(moduli) == 0, (n, ell, total)
    return total // len(moduli)


def scan_eigenspace(spec: FamilySpec, epsilon: tuple[int, ...], ell_range, X: int) -> list[MurmurationPoint]:
    """Average of ell^(1-k/2) a_ell over the joint Atkin-Lehner eigenspace.

    epsilon assigns +-1 to each of the r level primes in increasing order;
    each level's eigenspace trace is the signed mean eigenspace_trace takes,
    over W_Q traces read from one _trace_window per Q-slot, counted by
    the eigenspace's dimension.  Primes dividing every level whose eigenspace
    is nonzero give no point.  Raises if the window is empty or the
    eigenspace is zero at every level.
    """
    if spec.kind != "III":
        raise ValueError("eigenspace scans need a kind III family")
    if len(epsilon) != spec.r or any(e not in (-1, 1) for e in epsilon):
        raise ValueError("epsilon must be a +-1 vector of length r")
    k = spec.k

    def row(n: int, _m: int):
        moduli = signed_moduli(n, epsilon)
        dim = eigenspace_trace(k, n, moduli, 1)
        assert dim >= 0, (n, dim)
        return 1, (moduli,), (dim,)

    # every subset of a level's primes is a Q, so Q = N is the widest
    levels = _window_levels(replace(spec, idx=tuple(range(1, spec.r + 1))), X)
    no_forms = "eigenspace %s is empty over window [%d, %s] at weight %d" % (epsilon, X, spec.beta * X, k)
    return _scan(spec, levels, ell_range, X, row, no_forms)[0]


def smooth(points: list[MurmurationPoint], delta: float) -> list[MurmurationPoint]:
    """Replace each average by its mean over scanned primes in [l, l+l^delta)."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    pts = sorted(points, key=lambda p: p.ell)
    ells = [p.ell for p in pts]
    out = []
    for i, p in enumerate(pts):
        hi = p.ell + p.ell**delta
        vals = []
        for j in range(i, len(pts)):
            if ells[j] >= hi:
                break
            vals.append(pts[j].average)
        out.append(replace(p, average=sum(vals) / len(vals)))
    return out


# the fewest points sqrt_fit accepts; criterion 9 relies on this minimum
MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class SqrtFit:
    c: float
    d: float
    rms_residual: float  # relative to the data range


def sqrt_fit(points: list[MurmurationPoint], k: int) -> SqrtFit:
    """Least-squares fit average ~ c sqrt(x) (+ d x when k = 2).

    At weight 2 the s = 0 part of every trace carries mobius(M) sigma(ell),
    whose window average is a multiple of ell/X = x up to O(1/X); it is
    fitted as d x, so d is the coefficient of x, not a constant.
    """
    if len(points) < MIN_FIT_POINTS:
        raise ValueError("need at least %d points, got %d" % (MIN_FIT_POINTS, len(points)))
    xs = [float(p.x) for p in points]
    ys = [p.average for p in points]
    roots = [math.sqrt(x) for x in xs]
    # normal equations of the one- or two-column least-squares problem
    s_rr = math.fsum(r * r for r in roots)
    s_ry = math.fsum(r * y for r, y in zip(roots, ys))
    if k == 2:
        s_rx = math.fsum(r * x for r, x in zip(roots, xs))
        s_xx = math.fsum(x * x for x in xs)
        s_xy = math.fsum(x * y for x, y in zip(xs, ys))
        det = s_rr * s_xx - s_rx * s_rx
        if det == 0:
            raise ValueError("sqrt_fit needs at least two distinct x values at weight 2")
        c = (s_ry * s_xx - s_rx * s_xy) / det
        d = (s_rr * s_xy - s_rx * s_ry) / det
    else:
        c, d = s_ry / s_rr, 0.0
    rms = math.sqrt(math.fsum((y - c * r - d * x) ** 2 for r, x, y in zip(roots, xs, ys)) / len(ys))
    spread = max(ys) - min(ys) or 1.0
    return SqrtFit(c, d, rms / spread)


@dataclass(frozen=True)
class CancellationReport:
    k: int
    X: int
    max_abs_sum: float  # max |A+ + A-|
    max_abs_diff: float  # max |A+ - A-|
    argmax_ell: int


def cancellation_diag(k: int, X: int, workers: int = 1) -> CancellationReport:
    """Compare |A+ + A-| against |A+ - A-| for the squarefree levels in [X, 2X], X >= 2.

    A^+- are the unweighted averages over the two Fricke eigenspaces at the
    primes in [X/2, 2X]: a _scan of the kind I window M = 1 with two series,
    the signed means (tr T_ell +- tr T_ell W_N) / 2 of the Q = 1 and Q = N
    slots, counted by (dim +- tr W_N) / 2.  A prime whose kept levels (those
    it does not divide) leave an eigenspace empty gives that series no
    point and is dropped; raises if no prime is left.  workers >= 1; with
    workers > 1 _scan's batches of primes are measured on that many
    threads.  numpy releases the interpreter lock only inside each array
    operation, so threads gain little, and (2, 100), which the perfbench
    scan workload times on 2 threads, is a single batch.  On a 2-vCPU VM
    shared with other jobs, with the table installed (medians of 5 calls in
    each of four processes), cancellation_diag(2, 500) takes 0.21-0.27 s
    serial and 0.19-0.21 s on 2 threads, and (2, 100) 8-11 ms serial and
    10-13 ms on 2 threads.  The option stays because the perfbench scan
    workload passes it.
    """
    if workers < 1:
        raise ValueError("cancellation_diag needs workers >= 1, got workers = %r" % (workers,))
    if X < 2:
        raise ValueError("cancellation_diag needs X >= 2, got X = %d" % X)
    spec = FamilySpec("I", k=k)

    def row(n: int, _m: int):
        # dim S^new(n) and tr W_n on it do not depend on ell
        dim, tr_w = signs.dim_new(k, n), trace.t_new_squarefree(k, n, 1, 1)
        return 1, ([(1, 1), (n, 1)], [(1, 1), (n, -1)]), ((dim + tr_w) // 2, (dim - tr_w) // 2)

    # [X, 2X] holds a prime (Bertrand), so there is a level
    no_forms = "an eigenspace is empty over [%d, %d] at every prime" % (X, 2 * X)
    plus, minus = _scan(spec, _window_levels(spec, X), (X // 2, 2 * X), X, row, no_forms, workers)
    at = {p.ell: p.average for p in minus}
    rows = [(abs(p.average + at[p.ell]), abs(p.average - at[p.ell]), p.ell) for p in plus if p.ell in at]
    if not rows:
        raise ValueError(no_forms)
    best = max(rows, key=lambda r: r[0])
    return CancellationReport(k, X, best[0], max(r[1] for r in rows), best[2])


# ---------------------------------------------------------------------------
# artifact emission

CSV_HEADER = "family,k,beta,X,ell,x,avg,count"

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN = 640, 420, 50


def emit(series: dict[str, list[MurmurationPoint]], stem: str, spec: FamilySpec) -> None:
    """Write each labelled series of the scan of spec to stem.csv, one row
    per point under the family "<spec>#<label>", and to a standalone SVG
    scatter, stem.svg, one colour per series."""
    _emit_csv(series, stem + ".csv", spec)
    _emit_svg(series, stem + ".svg")


def _emit_csv(series, path, spec):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for label, pts in series.items():
            fam = spec.canonical() + "#" + label
            for p in pts:
                writer.writerow(
                    [fam, spec.k, spec.beta, p.X, p.ell, "%.12g" % p.x, "%.12g" % p.average, p.count]
                )


def _emit_svg(series, path):
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN
    pts_all = [p for pts in series.values() for p in pts]
    if pts_all:
        x_lo = min(float(p.x) for p in pts_all)
        x_hi = max(float(p.x) for p in pts_all)
        y_lo = min(p.average for p in pts_all)
        y_hi = max(p.average for p in pts_all)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    rows = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height),
        '<rect width="100%" height="100%" fill="white"/>',
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (margin, height - margin, width - margin, height - margin),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>' % (margin, margin, margin, height - margin),
        '<text x="%g" y="%g" font-size="12" text-anchor="middle">l/X</text>'
        % (width / 2, height - margin / 4),
        '<text x="%g" y="%g" font-size="12" text-anchor="middle" transform="rotate(-90 %g %g)">average</text>'
        % (margin / 3, height / 2, margin / 3, height / 2),
    ]
    if 0 >= y_lo and 0 <= y_hi:
        rows.append(
            '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#bbbbbb" stroke-dasharray="4 3"/>'
            % (margin, sy(0), width - margin, sy(0))
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        rows.append(
            '<text x="%g" y="%g" font-size="10" text-anchor="middle">%.3g</text>'
            % (sx(xv), height - margin + 15, xv)
        )
        rows.append(
            '<text x="%g" y="%g" font-size="10" text-anchor="end">%.3g</text>' % (margin - 5, sy(yv) + 3, yv)
        )
    for i, (label, pts) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        for p in pts:
            rows.append(
                '<circle cx="%g" cy="%g" r="2.2" fill="%s" fill-opacity="0.75"/>'
                % (sx(float(p.x)), sy(p.average), color)
            )
        rows.append(
            '<text x="%g" y="%g" font-size="11" fill="%s">%s</text>'
            % (width - margin - 80, margin + 14 * (i + 1), color, label)
        )
    rows.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
