"""qe2: exact symbolic verification of the Poisson and quantum algebraic
structures on the Euclidean group E(2).

The package implements commutative Poisson-Hopf data and noncommutative
Ore-tower algebras (nonstandard quantum E(2), quantum plane, quantum
cylinder) over an exact coefficient field, and mechanically verifies or
refutes the algebraic identities and classification claims of the source
manuscript, emitting machine-readable reports (see the ``qe2`` CLI).
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    GaussRational,
    Parameter,
    Scalar,
    ScalarContext,
)
from .ncalg import (  # noqa: F401
    Generator,
    NCPoly,
    OreTower,
    commutator,
    diamond_check,
    graded_degree,
    load_tower,
    normal_form,
    span_solve,
)
from .exprio import format_canonical, parse_expr, elaborate_expr  # noqa: F401
