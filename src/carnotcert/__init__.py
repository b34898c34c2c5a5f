"""carnotcert: certified computations on Carnot groups.

Exact truncated group law, Popp-style layer metrics via minimal-norm bracket
preimages, balanced horizontal decompositions with machine-checked error
bookkeeping, explicit horizontal-path distance certificates, per-layer box
radii, and systolic inequality checks on concrete lattices.

The package exports the entry points of README's library sketch and of the
benchmark workloads; everything else is imported from its module.
"""

from .graded_algebra import builtin_family, resolve_algebra
from .bch_engine import product_fold
from .popp_metric import build_popp
from .adjustment import cc_lower_bound, certified_dcc_upper
from .certificates import global_constants
from .lattice_systole import check_systolic_inequality, load_lattice

__version__ = "0.1.0"

__all__ = [
    "build_popp",
    "builtin_family",
    "cc_lower_bound",
    "certified_dcc_upper",
    "check_systolic_inequality",
    "global_constants",
    "load_lattice",
    "product_fold",
    "resolve_algebra",
    "__version__",
]
