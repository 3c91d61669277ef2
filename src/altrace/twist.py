"""Local representation types at q and quadratic-twist bookkeeping.

For a newform of level q^r M the local component at q falls into a short
list of types depending only on r (and, for q = 2, two exceptional
exponents).  A quadratic character ramified at an odd q twists each type at
r >= 3 into itself; the sign kappa records whether it keeps (+1) or swaps
(-1) the two W_q eigenspaces, and ``kappas_at_q`` states kappa as one
table.  ``quadtwist_characters`` lists the characters of conductor
dividing M that force a self-pairing of eigenspaces (hence a vanishing
eigenspace-dimension difference and vanishing twisted Hecke averages).
Its level is checked by ``arith.check_level``; it adds a prime q, odd r.
A ``TwistCharacter`` is the namedtuple (label, conductor, top), evaluated as
the Kronecker symbol (top / n): ``chi_odd(p)`` builds the one of odd prime
conductor p, and the 2-adic ones are the constants ``CHI_MINUS1``,
``CHI_TWO`` and ``CHI_MINUS2``.
"""
from __future__ import annotations

from collections import namedtuple

from .arith import check_level, factor, is_prime, kronecker, legendre

UTS = "unramified-twist-of-steinberg"
RPS = "ramified-principal-series"
RTS = "ramified-twist-of-steinberg"
USC = "unramified-supercuspidal"
RSC = "ramified-supercuspidal"
EXC = "exceptional-supercuspidal"


def classify_local_types(q: int, r: int) -> tuple[str, ...]:
    """Possible local types at q for a newform of level q^r M, (q, M) = 1."""
    if not is_prime(q) or r < 1:
        raise ValueError("need q prime and r >= 1")
    if r == 1:
        return (UTS,)
    if r == 2:
        return (RPS, RTS, USC)
    if r % 2:
        out = [RSC]
        if q == 2 and r in (3, 7):
            out.append(EXC)
        return tuple(out)
    out = [RPS, USC]
    if q == 2 and r in (4, 6):
        out.append(EXC)
    return tuple(out)


class TwistCharacter(namedtuple("TwistCharacter", "label conductor top")):
    """A real quadratic Dirichlet character, evaluated by Kronecker symbol."""

    __slots__ = ()

    def __call__(self, n: int) -> int:
        return kronecker(self.top, n)


def chi_odd(p: int) -> TwistCharacter:
    """The quadratic character of conductor an odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError("need an odd prime")
    top = p if p % 4 == 1 else -p
    return TwistCharacter("chi_%d" % p, p, top)


CHI_MINUS1 = TwistCharacter("chi_-1", 4, -4)
CHI_TWO = TwistCharacter("chi_2", 8, 8)
CHI_MINUS2 = TwistCharacter("chi_-2", 8, -8)


def kappas_at_q(q: int, r: int) -> dict[str, int | dict[str, int]]:
    """kappa of every local type at exponent r, odd q, keyed by type.

    Empty at r = 1, 2, where the ramified twist changes the level.  At odd
    r >= 3 the level admits two ramified quadratic characters locally:
    "q*", the one cutting out Q(sqrt(q*)) with q* = (-1|q) q, keeps the
    eigenspaces and its companion "other" swaps them.  At even r >= 4 the
    principal series takes (-1|q) and the supercuspidal its negative.
    """
    if q == 2 or not is_prime(q) or r < 1:
        raise ValueError("need odd q prime and r >= 1")
    if r < 3:
        return {}
    if r % 2:
        return {RSC: {"q*": 1, "other": -1}}
    eps = legendre(-1, q)
    return {RPS: eps, USC: -eps}


def quadtwist_characters(k: int, q: int, r: int, m: int) -> list[TwistCharacter]:
    """Characters of conductor dividing M that pair the W_q eigenspaces.

    Level q^r M with r odd: twisting by such a chi is a bijection between
    the +1 and -1 eigenspaces of W_q, so delta(k, q, r, M) = 0 and every
    chi-positively-supported Hecke trace vanishes.  They are listed in a
    fixed priority: odd primes ascending, then chi_-1, then chi_2, chi_-2.
    """
    check_level(k, q, r, m)
    if r % 2 == 0 or not is_prime(q):
        raise ValueError("need q prime and odd r, got q = %r, r = %r" % (q, r))
    fac = dict(factor(m))
    out = [chi_odd(p) for p, e in fac.items() if p > 2 and e >= 3 and legendre(q, p) == -1]
    v2 = fac.get(2, 0)
    if v2 >= 5 and q % 4 == 3:
        out.append(CHI_MINUS1)
    if v2 >= 7 and q % 8 == 5:
        out += [CHI_TWO, CHI_MINUS2]
    return out
