"""Reference arithmetic that only the tests read.

The newspace projection: a full-space dimension or trace, as a function of
the level, becomes the newspace one by the Dirichlet inverse of the
divisor-count function, summed over the sub-levels m/d.  The package reads
the local newspace weights (``trace._NEW_WEIGHTS``, ``signs``' closed form)
instead; the tests project whole full-space quantities through these
helpers as the independent twin of those weights.
"""
from altrace.arith import divisors, factor


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
