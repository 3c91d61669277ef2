"""altrace: exact traces of Hecke times Atkin-Lehner operators on newform
spaces, with closed-form eigenspace dimension differences, Hurwitz class
number machinery, quadratic-twist bookkeeping, and murmuration scans.

Everything upstream of the final float division in the scan averages is
exact integer or rational arithmetic.  The scans (``altrace.murmur``) and
the acceptance checks (``altrace.selftest``) are not imported here, so a
single query starts without them or numpy.
"""

from .arith import FactoredInt, factor, is_prime, is_squarefree, kronecker, mobius
from .classnum import alpha1, alpha2, hprime, hurwitz, hurwitz_oracle
from .signs import DeltaResult, delta, dim_new, eigenspace_dims, equidistribution_predicate
from .trace import t_full, t_full_fricke, t_new, t_new_level, t_new_squarefree
from .twist import TwistCharacter, classify_local_types

__version__ = "0.1.0"

__all__ = [
    "FactoredInt",
    "factor",
    "is_prime",
    "is_squarefree",
    "kronecker",
    "mobius",
    "alpha1",
    "alpha2",
    "hprime",
    "hurwitz",
    "hurwitz_oracle",
    "DeltaResult",
    "delta",
    "dim_new",
    "eigenspace_dims",
    "equidistribution_predicate",
    "t_full",
    "t_full_fricke",
    "t_new",
    "t_new_level",
    "t_new_squarefree",
    "TwistCharacter",
    "classify_local_types",
    "__version__",
]
