"""Batched traces: tr T_l W_Q over a whole window of levels at once.

``Factors`` factors a whole level window n in numpy and gives each level's
dim S_k^new from the local values of module signs.  ``TraceWindow``, built
from a modulus Q at each level and those Factors, evaluates
``trace.t_new_squarefree(k, Q, n / Q, l)`` at every level and every prime
l of a list, and equals it level by level.  It cuts the list into numpy
passes of at most _BATCH_ENTRIES rows (l, s) times levels, so a window of
few rows per prime (large Q) takes all its primes in one pass and one of
many rows (Q = 1) takes several, and returns one exact integer array,
primes x levels, from class numbers gathered through ``classnum`` from the
table it installs.  ``LevelWindow`` serves the same arrays from any
per-level kernel, one call per level and prime.  The murmuration scans
read their level lists, Q = 1 counts and traces from here, and
``murmur._counts`` the per-level kernel at l = 1 for the Q >= 2 counts.
numpy is imported only when a window is built, so importing this module
(or ``murmur``, which imports it) does not import numpy.
"""
from __future__ import annotations

import math

from . import classnum, signs
from .arith import KRONECKER_2, factor, primes_up_to
from .trace import _hyperbolic, _local_factor, pk_from_s2

# rows (l, s) times levels per numpy pass: each int64 temporary stays near
# 32 KB.  A pass keeps about eight alive, per thread; at 10^4 the scan
# workload's peak RSS rose by 2.8 MB instead of 1.8 MB
_BATCH_ENTRIES = 4_000


class TraceWindow:
    """t_new_squarefree(k, Q, n / Q, l) at every level n of a window, batched.

    Built once from the modulus Q at each level and the Factors of the
    levels: every Q is a unitary divisor, so m = n / Q holds the slots whose
    prime does not divide Q.  mu(m), the square m at Q = 1, a flat Legendre
    table over the primes of m ((D|2) read from D mod 8), a flat table of
    the local factors L_p(e, v, chi) of every (p, e >= 2) present, for every
    strip count v that |D| <= 4 * ell_max * max(Q) allows, and each slot
    column come from one row per distinct (p, e), indexed through ``at``.
    Each pass of ``traces`` then evaluates every row (l, s) and level of a
    run of primes at once, with the class numbers gathered by
    classnum.hurwitz12_gather from the table the window installs for that
    bound (classnum.get_table).
    """

    def __init__(self, k: int, q, factors: Factors, ell_max: int):
        import numpy as np

        self.k, self.ell_max, self.size, self.q_min = k, ell_max, len(q), int(q.min())
        bound = 4 * ell_max * int(q.max())
        classnum.get_table(bound)
        self._q, self._n = q, factors.n
        p, e = np.array(factors.pairs, dtype=np.int64).T
        # m's slots; Q's and the pads read pair 0, (1, 0), and a slot that
        # does so at every level is dropped
        at = np.where(q[:, None] % p[factors.at] != 0, factors.at, 0)
        at = at[:, at.any(axis=0)]
        self._mu = np.where(e == 1, -1, e == 0)[at].prod(axis=1)
        # the hyperbolic term lives at Q = 1 and vanishes unless m is a square
        square = np.flatnonzero((q == 1) & (e % 2 == 0)[at].all(axis=1))
        self._hyperbolic = [(i, [factors.pairs[j] for j in row if j]) for i, row in zip(square, at[square].tolist())]
        used = np.flatnonzero(np.bincount(at.ravel(), minlength=len(p))[1:]) + 1

        def vmax(p: int) -> int:  # the most p^2 strips a |D| <= bound allows
            v = 0
            while p ** (2 * v + 2) <= bound:
                v += 1
            return v

        # Legendre blocks, one per prime, after entry 0 for the pads: at odd p
        # -1 everywhere, then 1 at the squares j^2 mod p, 1 <= j <= (p - 1)/2,
        # which are all of them, then 0 at 0; at 2 arith.KRONECKER_2.  So a
        # block holds arith.legendre(D, p) at D mod its size
        primes = np.array(sorted(set(p[used].tolist())), dtype=np.int64)
        sizes = np.where(primes == 2, 8, primes)
        offsets = np.cumsum(sizes) - sizes + 1
        leg_at = dict(zip(primes.tolist(), offsets.tolist()))
        self._leg = np.full(int(sizes.sum()) + 1, -1, dtype=np.int8)
        half = (primes - 1) // 2
        root = np.arange(1, half.sum() + 1) - np.repeat(np.cumsum(half) - half, half)
        self._leg[np.repeat(offsets, half) + root * root % np.repeat(primes, half)] = 1
        self._leg[0] = self._leg[offsets] = 0
        if 2 in leg_at:
            self._leg[1:9] = KRONECKER_2
        # per pair (p, e): its cell of a slot column (strip modulus, a second
        # residue that also strips (4 mod 16 at p = 2), divisor, Legendre
        # offset and modulus, local-factor offset (past chi's + 1) and step
        # per strip) and its largest |local factor|; local factors by (v,
        # chi + 1): block 0 is the pads' 1, block 1 is chi - 1 at e = 1.  A
        # pad's strip modulus exceeds every |D|
        lf, cells, lf_max = [1, 1, 1, -2, -1, 0], np.zeros((len(p), 7), dtype=np.int64), np.ones(len(p), dtype=object)
        cells[0] = (bound + 1, 0, 1, 0, 1, 1, 0)
        for i in used.tolist():
            pi, ei = factors.pairs[i]
            if ei == 1:
                lf_cell, lf_max[i] = (4, 0), 2
            else:
                block = [_local_factor(pi, ei, v, chi) for v in range(vmax(pi) + 1) for chi in (-1, 0, 1)]
                lf_cell, lf_max[i] = (len(lf) + 1, 3), max(map(abs, block))
                lf += block
            strip = (16, 4, 4, leg_at[2], 8) if pi == 2 else (pi * pi, 0, pi * pi, leg_at[pi], pi)
            cells[i] = (*strip, *lf_cell)
        self._lf = np.array(lf, dtype=np.int64)
        self._cols = list(cells[at.T].transpose(0, 2, 1))
        # |weight| <= 2 * 12 H(D*) * the largest |local factor| at each (p, e) of m
        self._int64_weights = 2 * 2**32 * lf_max[at].prod(axis=1).max() < 2**63
        self._primes = frozenset(primes_up_to(ell_max))

    def rows(self, ell: int) -> int:
        """The number of s with s^2 Q <= 4 l at the window's smallest Q."""
        return math.isqrt(4 * ell // self.q_min) + 1

    def traces(self, ells):
        """tr T_l W_Q on S_k^new(Q m), one row per prime l of ells and one
        column per level: exact, int64, or object (Python ints) when a pass
        needed them; 0 at the levels l divides, which have no trace.  One
        pass per run of _runs(ells).  Raises ValueError
        unless every l is a prime <= ell_max: the strip counts and the k = 2
        term hold only there."""
        import numpy as np

        if not self._primes.issuperset(ells):
            bad = sorted(set(ells) - self._primes)
            raise ValueError("a trace window takes primes <= %d, got %r" % (self.ell_max, bad))
        # an int64 pass joined to an object one becomes Python ints
        return np.concatenate([self._pass(run) for run in self._runs(ells)])

    def _runs(self, ells) -> list[list[int]]:
        """ells cut into runs of consecutive primes whose rows (l, s) times
        levels stay within _BATCH_ENTRIES, one prime at least: the passes."""
        out, run, used = [], [], 0
        for ell in ells:
            cost = self.rows(ell) * self.size
            if run and used + cost > _BATCH_ENTRIES:
                out.append(run)
                run, used = [], 0
            run.append(ell)
            used += cost
        if run:
            out.append(run)
        return out

    def _pass(self, ells):
        """traces at one run of primes, every row (l, s) and level at once."""
        import numpy as np

        ell_b = np.array(ells, dtype=np.int64)
        counts = np.array([self.rows(ell) for ell in ells])
        starts = np.cumsum(counts) - counts
        ell_r = np.repeat(ell_b, counts)[:, None]
        s = (np.arange(counts.sum()) - np.repeat(starts, counts))[:, None]
        kept = self._n % ell_b[:, None] != 0
        s2 = s * s * self._q
        valid = (s2 <= 4 * ell_r) & np.repeat(kept, counts, axis=0)
        s2 = np.where(valid, s2, 0)
        # D = 0 would need s^2 Q = 4l, impossible for a prime l prime to N
        disc = np.where(valid, self._q * (s2 - 4 * ell_r), -3)
        weight = np.where(valid, np.where(s == 0, 1, 2), 0)
        if not self._int64_weights:
            weight = weight.astype(object)
        # chi right after p's strips: dividing out other primes' squares
        # leaves (D|p) as it is.  The whole array takes one local-factor
        # index as if nothing stripped and one remainder to find the entries
        # p^2 divides; only those are divided, until p^2 no longer divides,
        # and indexed again.  Every column reuses the buffers r and idx
        flat, size = disc.reshape(-1), self.size
        r, idx = np.empty_like(disc), np.empty_like(disc)
        for mod, rem, div, leg_off, leg_mod, lf_off, lf_step in self._cols:
            np.remainder(disc, leg_mod, out=r)
            r += leg_off
            np.add(self._leg[r], lf_off, out=idx)
            np.remainder(disc, mod, out=r)
            r |= rem
            at = np.flatnonzero(r == rem)  # remainder 0, or 4 at p = 2
            if at.size:
                lv = at % size
                d, m, rm, q = flat[at], mod[lv], rem[lv], div[lv]
                v, hit = np.zeros_like(at), np.ones(at.size, dtype=bool)
                while hit.any():
                    d = np.where(hit, d // q, d)
                    v += hit
                    hit &= (d % m | rm) == rm
                flat[at] = d
                idx.flat[at] = lf_off[lv] + v * lf_step[lv] + self._leg[leg_off[lv] + d % leg_mod[lv]]
            weight *= np.take(self._lf, idx, out=r)
        weight *= classnum.hurwitz12_gather(disc)  # looked up per pass, so a wrapper sees every read
        # |p_k(s, l)| <= (k - 1) l^(k/2 - 1) for s^2 <= 4l (Chebyshev U), and
        # the recurrence's products stay within twice that
        pk_max = (self.k - 1) * int(ell_b.max()) ** (self.k // 2 - 1)
        if weight.dtype == object or 2 * int(counts.max()) * max(1, int(np.abs(weight).max())) * pk_max >= 2**63:
            weight, s2, ell_r = weight.astype(object), s2.astype(object), ell_r.astype(object)
        total = np.add.reduceat(pk_from_s2(self.k, s2, ell_r) * weight, starts, axis=0)
        assert (total % 24 == 0).all(), (self.k, ells)
        val = -(total // 24)
        for i, loc in self._hyperbolic:
            val[:, i] -= [_hyperbolic(loc, ell - 1) for ell in ells]
        if self.k == 2:
            val += np.outer(ell_b + 1, self._mu)
        return np.where(kept, val, 0)


class LevelWindow:
    """TraceWindow's interface and arrays over any per-level kernel(k, Q, m,
    l): one kernel call per level and prime, 0 at the levels l divides."""

    def __init__(self, kernel, k: int, q, factors: Factors):
        self._kernel = kernel
        self.k = k
        self._levels = list(zip(q.tolist(), (factors.n // q).tolist()))

    def traces(self, ells):
        import numpy as np

        rows = [[self._kernel(self.k, q, m, ell) if (q * m) % ell else 0 for q, m in self._levels] for ell in ells]
        try:
            return np.array(rows, dtype=np.int64)
        except OverflowError:
            return np.array(rows, dtype=object)


class Factors:
    """The factorizations of a window's levels n, as arrays.

    ``of_range(lo, hi)`` factors every n in [lo, hi] by one strided numpy
    update per prime power p^j <= hi with p <= sqrt(hi); what is left of n
    is 1 or one prime.  Each level's primes sit in slots in increasing p,
    as a levels x slots index ``at`` into the distinct pairs (p, e), whose
    entry 0, (1, 0), fills the empty slots: memory is O(levels x max
    omega).  ``take`` keeps some levels and multiplies them by a cofactor
    prime to each (the fixed part of a family), whose prime powers take
    the last slots.  n holds the levels."""

    def __init__(self, pairs: list[tuple[int, int]], at, omega, squarefree, n):
        self.pairs, self.at, self.omega, self.squarefree, self.n = pairs, at, omega, squarefree, n

    @staticmethod
    def slots(hi: int) -> int:
        """The slots of of_range(lo, hi): the most primes an n <= hi has, 1 at least."""
        width, primorial = 0, 1
        for p in primes_up_to(60):
            primorial *= p
            width += primorial <= hi
        return max(width, 1)

    @classmethod
    def of_range(cls, lo: int, hi: int) -> Factors:
        """Every n in [lo, hi], 1 <= lo <= hi + 1 < 2^63."""
        import numpy as np

        size, width = hi - lo + 1, cls.slots(hi)
        at = np.zeros(size * width, dtype=np.int64)  # flat: level i's slots start at i * width
        row = np.arange(0, size * width, width)
        omega = np.zeros(size, dtype=np.int64)
        squarefree = np.ones(size, dtype=bool)
        pairs, powers = [(1, 0)], [1]
        for p in primes_up_to(math.isqrt(hi)):
            q, e = p, 1
            # a window without a multiple of p^e has none of p^(e+1)
            while q <= hi and -lo % q < size:
                hit = slice(-lo % q, None, q)
                if e == 1:
                    slot = omega[hit]  # a view: slot += 1 counts the prime in omega
                    at[row[hit] + slot] = len(pairs)
                    slot += 1
                else:
                    at[row[hit] + omega[hit] - 1] += 1
                    squarefree[hit] = False
                pairs.append((p, e))
                powers.append(q)
                q, e = q * p, e + 1
        at = at.reshape(size, width)
        powers = np.array(powers, dtype=np.int64)
        small = powers[at[:, 0]]
        for col in at.T[1:]:
            small *= powers[col]
        n = np.arange(lo, hi + 1, dtype=np.int64)
        rest = n // small
        big = np.flatnonzero(rest > 1)
        cofactors = rest[big].tolist()
        index = {p: i for i, p in enumerate(sorted(set(cofactors)), len(pairs))}
        at[big, omega[big]] = [index[p] for p in cofactors]
        omega[big] += 1
        return cls(pairs + [(p, 1) for p in index], at, omega, squarefree, n)

    def take(self, rows, cofactor: int) -> Factors:
        """The levels at rows, each times cofactor, which is prime to them."""
        import numpy as np

        fixed, n = factor(cofactor), self.n[rows] * cofactor
        pairs = self.pairs + [pe for pe in fixed if pe not in self.pairs]
        slots = np.full((len(n), len(fixed)), [pairs.index(pe) for pe in fixed], dtype=np.int64)
        squarefree = self.squarefree[rows] & all(e == 1 for _, e in fixed)
        return Factors(pairs, np.hstack([self.at[rows], slots]), self.omega[rows] + len(fixed), squarefree, n)

    def primes(self):
        """levels x slots: each level's primes, 1 in its empty slots."""
        import numpy as np

        return np.array([p for p, _ in self.pairs], dtype=np.int64)[self.at]

    def dims(self, k: int):
        """dim S_k^new(n) at every level: signs._dim12 of the products of
        signs.dim_local over the slots, evaluated once per distinct (p, e);
        int64 while (k + 13) * max|product| < 2^63, Python ints otherwise."""
        import numpy as np

        local = np.array([(1, 1, 1, 1)] + [signs.dim_local(p, e) for p, e in self.pairs[1:]], dtype=np.int64)
        vals = np.ones((len(self.at), 4), dtype=np.int64)
        for col in self.at.T:
            vals *= local[col]
        if (k + 13) * int(np.abs(vals).max(initial=1)) >= 2**63:
            vals = vals.astype(object)
        d12 = signs._dim12(k, *vals.T)
        if k == 2:
            d12 += 12 * np.where(self.squarefree, 1 - 2 * (self.omega % 2), 0)
        assert (d12 % 12 == 0).all() and (d12 >= 0).all(), k
        return d12 // 12
