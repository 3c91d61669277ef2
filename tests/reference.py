"""Reference arithmetic that only the tests read.

``class_number_forms`` counts the primitive reduced forms of a
discriminant one (a, b) at a time, the twin of classnum.class_number's
root count, and ``hurwitz12_forms`` weights every reduced form at every
a, the unwheeled twin of classnum.hurwitz12_oracle.

``kronecker`` is the Kronecker symbol by quadratic reciprocity (H. Cohen,
GTM 138, section 1.4), the twin of arith.kronecker's product of
Legendre symbols over factor(n).

``omega1`` and ``omega2`` count the primes whose parity is the sign of
signs.kappa_minus over a cubefree level, the twin of the predicate's sign.

``window_levels`` walks a family's level window one level at a time, and
``trace_window_arrays`` factors a (Q, m) list level by level into the
arrays a window.TraceWindow takes.

The newspace projection: a full-space dimension or trace, as a function of
the level, becomes the newspace one by the Dirichlet inverse of the
divisor-count function, summed over the sub-levels m/d.  The package reads
the local newspace weights (``trace._NEW_WEIGHTS``, ``signs``' closed form)
instead; the tests project whole full-space quantities through these
helpers as the independent twin of those weights.
"""
import math

from altrace.arith import divisors, factor, is_squarefree


def class_number_forms(disc: int) -> int:
    """h(disc) for a discriminant disc < 0: the primitive reduced forms
    (a, b, c), |b| <= a <= c, counted at every b >= 0 and every a | (b^2 - disc)/4."""
    n = -disc
    count = 0
    b = n & 1
    while 3 * b * b <= n:
        m = (b * b + n) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            count += 1 if b == 0 or b == a or a == c else 2
        b += 2
    return count


def hurwitz12_forms(disc: int) -> int:
    """12 * H(disc) for a discriminant disc < 0: every reduced form (a, b, c),
    |b| <= a <= c, at every b >= 0 and every a | (b^2 - disc)/4, weighted by
    its automorphisms."""
    n = -disc
    total = 0
    b = n & 1
    while 3 * b * b <= n:
        m = (b * b + n) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if b == 0:
                total += 6 if a == c else 12
            elif b == a:
                total += 4 if a == c else 12
            elif a == c:
                total += 12
            else:
                total += 24
        b += 2
    return total


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) at any integer n, by reciprocity: no factoring."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def mu_star_mu(n: int) -> int:
    """(mu * mu)(n): the Dirichlet inverse of the divisor-count function."""
    out = 1
    for _, e in factor(n):
        if e == 1:
            out = -2 * out
        elif e > 2:
            return 0
    return out


def core_square_part(n: int) -> int:
    """The largest q with q^2 | n (for n >= 1)."""
    out = 1
    for p, e in factor(n):
        out *= p ** (e // 2)
    return out


def divisors_with_squarefree_cofactor(m: int) -> list[int]:
    """All t | m such that m/t is squarefree (there are 2^omega(m) of them)."""
    out = [1]
    for p, e in factor(m):
        out = [d * p**j for d in out for j in (e - 1, e)]
    out.sort()
    return out


def mobius_squared_transform(f, m: int):
    """sum_{d | m} (mu*mu)(d) f(m/d); inverts g(m) = sum_{d|m} sigma0(d) f(m/d)."""
    total = 0
    for d in divisors(m):
        c = mu_star_mu(d)
        if c:
            total += c * f(m // d)
    return total


def omega1(m: int) -> int:
    """Number of primes dividing m exactly once."""
    return sum(1 for _, e in factor(m) if e == 1)


def omega2(n: int, m: int) -> int:
    """Number of primes p with p^2 || m and (n|p) = 1."""
    return sum(1 for p, e in factor(m) if e == 2 and kronecker(n, p) == 1)


def window_levels(spec, X: int) -> list[tuple[int, int]]:
    """All (Q, M) with X <= QM <= beta*X in the family, level by level: the
    twin of murmur._window_levels, which reads one window factorization."""
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


def trace_window_arrays(levels):
    """The modulus array Q and the window.Factors of the levels Q * m of a
    (Q, m) list, each level factored by arith.factor: the twin of the
    arrays a scan builds a window.TraceWindow from."""
    import numpy as np

    from altrace.window import Factors

    facs = [factor(q * m) for q, m in levels]
    pairs = [(1, 0)] + sorted({pe for fac in facs for pe in fac})
    width = max(1, *map(len, facs))
    at = [[pairs.index(pe) for pe in fac] + [0] * (width - len(fac)) for fac in facs]
    omega = [len(fac) for fac in facs]
    squarefree = [all(e == 1 for _, e in fac) for fac in facs]
    q, m = np.array(levels, dtype=np.int64).T
    return q, Factors(pairs, np.array(at, dtype=np.int64), np.array(omega), np.array(squarefree), q * m)
