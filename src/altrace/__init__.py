"""altrace: exact traces of Hecke times Atkin-Lehner operators on newform
spaces, with closed-form eigenspace dimension differences, Hurwitz class
number machinery, quadratic-twist bookkeeping, and murmuration scans.

Everything upstream of the final float division in the scan averages is
exact integer or rational arithmetic.  Import the modules themselves
(``from altrace import signs, trace``); the package root holds only
``__version__`` and imports no submodule, so a single query loads only
what it uses.
"""

__version__ = "0.1.0"
