"""Local representation types at q and quadratic-twist bookkeeping.

For a newform of level q^r M the local component at q falls into a short
list of types depending only on r (and, for q = 2, two exceptional
exponents).  Quadratic characters chi act on these by twisting; the sign
kappa(q, r, chi) records whether chi preserves or swaps the two W_q
eigenspaces.  ``quadtwist_characters`` lists the characters of conductor
dividing M that force a self-pairing of eigenspaces (hence a vanishing
eigenspace-dimension difference and vanishing twisted Hecke averages).
Its level is checked by ``arith.check_level``; it adds a prime q, odd r.
A ``TwistCharacter`` is the namedtuple (label, conductor, top), evaluated as
the Kronecker symbol (top / n); ``top`` replaces the former private ``_top``.
"""
from __future__ import annotations

from collections import namedtuple

from .arith import check_level, factor, is_prime, kronecker

UTS = "unramified-twist-of-steinberg"
RPS = "ramified-principal-series"
RTS = "ramified-twist-of-steinberg"
USC = "unramified-supercuspidal"
RSC = "ramified-supercuspidal"
EXC = "exceptional-supercuspidal"

LOCAL_TYPES = (UTS, RPS, RTS, USC, RSC, EXC)


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


def chi_minus1() -> TwistCharacter:
    return TwistCharacter("chi_-1", 4, -4)


def chi_two() -> TwistCharacter:
    return TwistCharacter("chi_2", 8, 8)


def chi_minus2() -> TwistCharacter:
    return TwistCharacter("chi_-2", 8, -8)


def kappa_at_q(q: int, r: int, local_type: str, branch: str = "q*") -> int:
    """Sign change under the ramified-at-q quadratic character, odd q.

    For ramified supercuspidals (odd r >= 3) the level q^r admits two
    quadratic ramified characters locally; branch "q*" is the one cutting
    out Q(sqrt(q*)) with q* = (-1|q) q, branch "other" the companion.
    """
    if q == 2 or not is_prime(q):
        raise ValueError("only odd q has a unique quadratic ramified character")
    if local_type not in LOCAL_TYPES:
        raise ValueError("unknown local type %r" % (local_type,))
    if r >= 4 and r % 2 == 0:
        if local_type == RPS:
            return kronecker(-1, q)
        if local_type == USC:
            return -kronecker(-1, q)
    if r >= 3 and r % 2:
        if local_type == RSC:
            if branch == "q*":
                return 1
            if branch == "other":
                return -1
            raise ValueError("branch must be 'q*' or 'other'")
    raise ValueError("no ramified twist sign for type %s at level exponent %d" % (local_type, r))


def kappas_at_q(q: int, r: int) -> dict[str, int | dict[str, int]]:
    """kappa_at_q of every local type at exponent r, odd q, keyed by type.

    Empty at r = 1, 2, where the ramified twist changes the level; at odd
    r >= 3 each value maps the branches "q*" and "other" to their signs.
    """
    if q == 2 or not is_prime(q) or r < 1:
        raise ValueError("need odd q prime and r >= 1")
    if r < 3:
        return {}
    types = classify_local_types(q, r)
    if r % 2:
        return {t: {b: kappa_at_q(q, r, t, b) for b in ("q*", "other")} for t in types}
    return {t: kappa_at_q(q, r, t) for t in types}


def chi_q_flips_every_type(q: int, r: int) -> bool:
    """Whether the ramified character at odd q swaps eigenspaces for every
    local type occurring at exponent r.  Always false: either some type has
    kappa = +1, or (r = 1, 2) the ramified twist changes the level."""
    kappas = set()
    for v in kappas_at_q(q, r).values():
        kappas.update(v.values() if isinstance(v, dict) else (v,))
    return kappas == {-1}


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
    out = [chi_odd(p) for p, e in fac.items() if p > 2 and e >= 3 and kronecker(q, p) == -1]
    v2 = fac.get(2, 0)
    if v2 >= 5 and q % 4 == 3:
        out.append(chi_minus1())
    if v2 >= 7 and q % 8 == 5:
        out.append(chi_two())
        out.append(chi_minus2())
    return out
