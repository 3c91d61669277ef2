"""Batched traces: tr T_l W_Q over a whole window of levels at once.

``TraceWindow.traces`` evaluates ``trace.t_new_squarefree(k, Q, m, l)`` at
every (Q, m) of a window and every prime l of a list, and equals it level by
level.  The window cuts the list into its own numpy passes: each pass
holds at most _BATCH_ENTRIES rows (l, s) times levels, so a window of few
rows per prime (large Q) takes all its primes in one pass and one of many
rows (Q = 1) takes several.  It returns one exact integer array, primes x
levels.  ``LevelWindow`` serves the same arrays from any per-level kernel,
one call per level and prime.  The murmuration scans read their traces
from here and keep the per-level kernel for their counts at l = 1.  numpy
is imported only when a window is built, so importing this module (or
``murmur``, which imports it) does not import numpy.
"""
from __future__ import annotations

import math

from . import classnum
from .arith import factor, mobius, primes_up_to
from .trace import _hyperbolic, _local_factor, pk_from_s2

# rows (l, s) times levels per numpy pass: each int64 temporary stays near
# 32 KB.  A pass keeps about eight alive, per thread; at 10^4 the scan
# workload's peak RSS rose by 2.8 MB instead of 1.8 MB
_BATCH_ENTRIES = 4_000
# (D|2) by D mod 8
_KRONECKER_2 = (0, 1, 0, -1, 0, -1, 0, 1)


class TraceWindow:
    """t_new_squarefree(k, Q, m, l) at every (Q, m) of a window, batched.

    Built once per window: the levels' Q, N and mu(m); the primes of each m
    as a level x prime-slot matrix, padded; a flat Legendre table over those
    primes ((D|2) read from D mod 8); and a flat table of the local factors
    L_p(e, v, chi) of every (p, e >= 2) present, for every strip count v that
    |D| <= 4 * ell_max * max(Q) allows.  Each pass of ``traces`` then
    evaluates every row (l, s) and level of a run of primes at once, with the
    class numbers gathered from the installed table, which must cover that
    bound: there is no per-discriminant fallback here.
    """

    def __init__(self, k: int, levels, ell_max: int):
        import numpy as np

        self.k = k
        self.ell_max = ell_max
        self.size = len(levels)
        self.q_min = min(q for q, _ in levels)
        bound = 4 * ell_max * max(q for q, _ in levels)
        table = classnum._active_table
        if table is None or table.bound < bound:
            raise ValueError("no class-number table covers |disc| <= %d; install one with classnum.get_table" % bound)
        self._h12 = table.h12
        locs = [factor(m) for _, m in levels]
        self._q = np.array([q for q, _ in levels], dtype=np.int64)
        self._n = self._q * np.array([m for _, m in levels], dtype=np.int64)
        self._mu = np.array([mobius(m) for _, m in levels], dtype=np.int64)
        # the hyperbolic term lives at Q = 1 and vanishes unless m is a square
        self._hyperbolic = [
            (i, loc) for i, ((q, _), loc) in enumerate(zip(levels, locs)) if q == 1 and all(e % 2 == 0 for _, e in loc)
        ]

        def vmax(p: int) -> int:  # the most p^2 strips a |D| <= bound allows
            v = 0
            while p ** (2 * v + 2) <= bound:
                v += 1
            return v

        # Legendre blocks, one per prime, after entry 0 for the pads: at odd p
        # -1 everywhere, then 1 at the squares j^2 mod p, 1 <= j <= (p - 1)/2,
        # which are all of them, then 0 at 0; at 2 the (D|2) table
        primes = np.array(sorted({p for loc in locs for p, _ in loc}), dtype=np.int64)
        sizes = np.where(primes == 2, 8, primes)
        offsets = np.cumsum(sizes) - sizes + 1
        leg_at = dict(zip(primes.tolist(), offsets.tolist()))
        self._leg = np.full(int(sizes.sum()) + 1, -1, dtype=np.int8)
        half = (primes - 1) // 2
        root = np.arange(1, half.sum() + 1) - np.repeat(np.cumsum(half) - half, half)
        self._leg[np.repeat(offsets, half) + root * root % np.repeat(primes, half)] = 1
        self._leg[0] = 0
        self._leg[offsets] = 0
        if 2 in leg_at:
            self._leg[1:9] = _KRONECKER_2
        # local factors by (v, chi + 1); block 0 is the pads' 1, block 1 is chi - 1 at e = 1
        lf, lf_at, lf_max = [1, 1, 1, -2, -1, 0], {}, {}
        for p, e in sorted({pe for loc in locs for pe in loc if pe[1] >= 2}):
            block = [_local_factor(p, e, v, chi) for v in range(vmax(p) + 1) for chi in (-1, 0, 1)]
            lf_at[p, e], lf_max[p, e] = len(lf), max(map(abs, block))
            lf += block
        self._lf = np.array(lf, dtype=np.int64)

        # one column per prime slot: (strip modulus, a second residue that
        # also strips (4 mod 16 at p = 2), divisor, Legendre offset and
        # modulus, local-factor offset (past chi's + 1) and step per strip)
        # for every level; a pad's strip modulus exceeds every |D|
        self._cols = []
        for j in range(max(map(len, locs))):
            cells = []
            for loc in locs:
                if j >= len(loc):
                    cells.append((bound + 1, 0, 1, 0, 1, 1, 0))
                    continue
                p, e = loc[j]
                lf_cell = (4, 0) if e == 1 else (lf_at[p, e] + 1, 3)
                if p == 2:  # strip 4 while D = 0, 4 mod 16
                    cells.append((16, 4, 4, leg_at[2], 8, *lf_cell))
                else:
                    cells.append((p * p, 0, p * p, leg_at[p], p, *lf_cell))
            self._cols.append(np.array(cells, dtype=np.int64).T)
        # |weight| <= 2 * 12 H(D*) * the largest |local factor| at each (p, e) of m
        widest = max(math.prod(lf_max.get(pe, 2) for pe in loc) for loc in locs)
        self._int64_weights = 2 * 2**32 * widest < 2**63
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
        weight *= self._h12[-disc]
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
    """TraceWindow's interface over any per-level kernel(k, Q, m, l): one
    kernel call per level and prime, 0 at the levels l divides."""

    def __init__(self, kernel, k: int, levels):
        self._kernel = kernel
        self.k = k
        self._levels = levels

    def traces(self, ells):
        import numpy as np

        rows = [[self._kernel(self.k, q, m, ell) if (q * m) % ell else 0 for q, m in self._levels] for ell in ells]
        try:
            return np.array(rows, dtype=np.int64)
        except OverflowError:
            return np.array(rows, dtype=object)
