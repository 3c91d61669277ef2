"""Wall times at a reference machine speed.

On shared virtual machines, such as the 2-vCPU x86-64 VM the bounds were
set on, a CPU's speed switches between a fast and a ~35% slower state
every second or so, and the share of slow time changes from run to run.
Each timed part is therefore bracketed by a short, fixed loop, and its
wall time is scaled by how much slower than its reference time that loop
ran around it:

    normalized = wall * reference / mean(loop time before, loop time after)

Two loops, each resembling the code it calibrates (measured: each cut the
run-to-run spread of its parts two- to four-fold, the other loop less):

* ``ALU``: a plain integer loop, for set-up and CLI queries (interpreter
  start, imports, the numpy sieve);
* ``OBJECTS``: ``Fraction`` sums and dict stores, for the exact-arithmetic
  segments.

The loops import nothing from altrace, so a change to the program moves the
normalized time exactly as it moves the wall time.  The scaling assumes the
program runs no threads of its own between calls (true of altrace).
"""
from __future__ import annotations

import time
from fractions import Fraction


def _alu() -> None:
    s = 0
    for i in range(200_000):
        s += i * i % 7


def _objects() -> None:
    total = Fraction(0)
    seen = {}
    for i in range(1, 6000):
        total += Fraction(i % 97, i % 13 + 1)
        seen[i % 1009] = total.numerator & 0xFF


# (loop, its median time on a 2-vCPU x86-64 VM with Python 3.11): there
# a normalized second is a wall second at the machine's usual speed
ALU = (_alu, 0.0145)
OBJECTS = (_objects, 0.0160)


def loop_time(cal) -> float:
    t0 = time.perf_counter()
    cal[0]()
    return time.perf_counter() - t0


class Clock:
    """Times consecutive parts; each is scaled by the loop runs on either side."""

    def __init__(self, cal=ALU):
        self.cal = cal
        self.wall: dict[str, float] = {}
        self.norm: dict[str, float] = {}
        self._last = loop_time(cal)

    def time(self, fn):
        """(fn(), wall seconds, normalized seconds)."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = loop_time(self.cal)
        norm = wall * self.cal[1] / ((self._last + after) / 2)
        self._last = after
        return out, wall, norm

    def measure(self, name: str, fn):
        out, self.wall[name], self.norm[name] = self.time(fn)
        return out
