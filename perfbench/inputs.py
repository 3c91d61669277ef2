"""Seeded inputs for the three workloads.

Pure Python: nothing here imports altrace, so the inputs do not depend on
the code being measured.  The same seed always gives the same inputs.  The
seed moves windows by well under 1% and draws fixed-size samples, so the
amount of work per run barely depends on it.
"""
from __future__ import annotations

import math
import random

# scan: the murmuration job.  The seed moves the window start X by one (the
# cost grows like X^2.5, so wider moves would show up as run-to-run spread);
# the cancellation window X_c is fixed for the same reason.
SCAN_X = 320
CANCEL_X = 100
SCAN_SAMPLE_ELLS = 2  # points per scan segment recomputed by the checker

# verify: sample sizes for the four sweeps
GRID_QR_MAX, GRID_M_MAX, GRID_K = 150, 150, tuple(range(2, 16, 2))
GRID_TUPLES = 9000
SQF_TUPLES = 8000
TWIST_TUPLES = 800
TWIST_COFACTOR_MAX = 20
TWIST_ELL_MAX = 30
CLASSNUM_DISC_MAX, CLASSNUM_DISCS = 150000, 1200

# query: commands cycle in this order; each run walks the seeded plan
QUERY_KINDS = ("classnum", "trace", "delta", "twist")
QUERY_PLAN = 400
QUERY_DISC_MAX = 20000


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def prime_factors(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization; independent of altrace.arith."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def squarefree(n: int) -> bool:
    return all(e == 1 for _, e in prime_factors(n))


def legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p, by Euler's criterion."""
    v = pow(a % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (kind, seed))


def scan_inputs(seed: int) -> dict:
    rng = _rng("scan", seed)
    x = SCAN_X + rng.randrange(2)
    x2 = x // 2
    xc = CANCEL_X
    ell_max, ell2_max = x // 4, x2 // 4
    # |disc| touched: scans reach 4 * ell_max * beta * X (beta = 2); the
    # cancellation window has ell <= 2 Xc and levels <= 2 Xc
    bound = max(8 * ell_max * x, 8 * ell2_max * x2, 16 * xc * xc)
    return {
        "X": x,
        "X_divsum": x2,
        "X_cancel": xc,
        "ell_max": ell_max,
        "ell_max_divsum": ell2_max,
        "table_bound": bound,
        "sample_seed": rng.randrange(2**31),
    }


def verify_inputs(seed: int) -> dict:
    rng = _rng("verify", seed)
    prime_powers = []
    for q in primes_upto(GRID_QR_MAX):
        r = 1
        while q**r <= GRID_QR_MAX:
            prime_powers.append((q, r))
            r += 1
    grid = [
        (k, q, r, m)
        for q, r in prime_powers
        for m in range(1, GRID_M_MAX + 1)
        if m % q
        for k in GRID_K
    ]
    grid = sorted(rng.sample(grid, GRID_TUPLES), key=lambda t: (t[1], t[2], t[3], t[0]))

    # samples are drawn without replacement from fixed candidate lists, so
    # every seed does the same number of distinct (memo-cache-missing) calls
    small_primes = primes_upto(100)
    sqf_all = [
        (k, q, m, ell)
        for q in small_primes
        for m in range(1, 101)
        if m % q and squarefree(q * m)
        for ell in range(1, 31)
        if math.gcd(ell, q * m) == 1
        for k in (2, 4, 6, 8)
    ]
    # a quarter on prime levels (M = 1), where t_full_fricke also applies
    prime_level = [t for t in sqf_all if t[2] == 1]
    composite = [t for t in sqf_all if t[2] != 1]
    sqf = rng.sample(prime_level, SQF_TUPLES // 4) + rng.sample(composite, SQF_TUPLES - SQF_TUPLES // 4)

    # (k, q, r, M) with a pairing character: p^3 || M with (q|p) = -1,
    # 2^5 | M with q = 3 mod 4, or 2^7 | M with q = 5 mod 8
    twist_all = []
    for q in primes_upto(60)[1:]:
        shapes = [p**3 for p in (3, 5, 7, 11) if p != q and legendre(q, p) == -1]
        shapes += [32] if q % 4 == 3 else []
        shapes += [128] if q % 8 == 5 else []
        for m in shapes:
            for c in range(1, TWIST_COFACTOR_MAX + 1):
                if math.gcd(c, q * m) == 1:
                    for r in (1, 3) if q <= 5 else (1,):
                        twist_all += [(k, q, r, m * c) for k in (2, 4, 6, 8, 10, 12)]
    twist = rng.sample(twist_all, TWIST_TUPLES)

    # one discriminant per equal-width bin, so the summed |disc| (the oracle's
    # cost) hardly depends on the seed
    width = CLASSNUM_DISC_MAX // CLASSNUM_DISCS
    discs = []
    for lo in range(0, width * CLASSNUM_DISCS, width):
        n = lo + 4 + rng.randrange(width - 4)
        discs.append(-(n - n % 4 if rng.random() < 0.5 else n - n % 4 + 3))
    return {"grid": grid, "sqf": sqf, "twist": twist, "discs": discs}


def query_inputs(seed: int) -> list[tuple[str, list[str], tuple]]:
    """The query plan: (kind, argv, key) with key the in-process arguments."""
    rng = _rng("query", seed)
    primes = primes_upto(50)
    plan = []
    while len(plan) < QUERY_PLAN:
        kind = QUERY_KINDS[len(plan) % len(QUERY_KINDS)]
        if kind == "classnum":
            n = rng.randrange(3, QUERY_DISC_MAX + 1)
            if -n % 4 not in (0, 1):
                continue
            plan.append((kind, ["classnum", str(-n)], (-n,)))
            continue
        k = rng.choice(range(2, 14, 2))
        q = rng.choice(primes)
        if kind == "trace":
            m, ell = rng.randrange(1, 61), rng.randrange(1, 21)
            if m % q == 0 or math.gcd(ell, q * m) != 1:
                continue
            argv = ["trace", "--k", str(k), "--q", str(q), "--M", str(m), "--ell", str(ell)]
            plan.append((kind, argv, (k, q, 1, m, ell)))
            continue
        if kind == "delta":
            r = rng.choice((1, 1, 2, 3))
            m = rng.randrange(1, 201)
            if m % q == 0 or q**r > 200:
                continue
            argv = ["delta", "--k", str(k), "--q", str(q), "--r", str(r), "--M", str(m)]
            plan.append((kind, argv, (k, q, r, m)))
            continue
        r = rng.choice((1, 1, 3))
        m = rng.choice((1, 6, 27, 32, 125, 128, 343, 35))
        if m % q == 0 or q**r > 200:
            continue
        argv = ["twist", "--k", str(k), "--q", str(q), "--r", str(r), "--M", str(m)]
        plan.append((kind, argv, (k, q, r, m)))
    return plan
