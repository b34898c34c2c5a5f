"""carnotcert: certified computations on Carnot groups.

Exact truncated group law, Popp-style layer metrics via minimal-norm bracket
preimages, balanced horizontal decompositions with machine-checked error
bookkeeping, explicit horizontal-path distance certificates, per-layer box
radii, and systolic inequality checks on concrete lattices.
"""

from .graded_algebra import (
    GradedAlgebra,
    GVec,
    builtin_family,
    load_algebra,
    resolve_algebra,
)
from .bch_engine import (
    CoeffTable,
    bch_product,
    beta_table,
    gamma_table,
    group_commutator,
    iterated_group_commutator,
    max_coeff_constants,
    product_fold,
)
from .words import commutator_word
from .popp_metric import PoppMetric, build_popp
from .adjustment import (
    AdjustedTuple,
    HorizontalSet,
    adjust_to_layer_vector,
    adjust_tuple,
    cc_lower_bound,
    certified_dcc_upper,
    signature_lower_bounds,
)
from .certificates import (
    BoundPolynomial,
    BoxConstants,
    box_radii,
    error_bound_constant,
    global_constants,
    prefix_error_polynomials,
    single_layer_length_bound,
)
from .lattice_systole import (
    Lattice,
    check_systolic_inequality,
    covolume,
    load_lattice,
    systole_upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedTuple",
    "BoundPolynomial",
    "BoxConstants",
    "CoeffTable",
    "GVec",
    "GradedAlgebra",
    "HorizontalSet",
    "Lattice",
    "PoppMetric",
    "adjust_to_layer_vector",
    "adjust_tuple",
    "bch_product",
    "beta_table",
    "box_radii",
    "builtin_family",
    "build_popp",
    "cc_lower_bound",
    "certified_dcc_upper",
    "check_systolic_inequality",
    "commutator_word",
    "covolume",
    "error_bound_constant",
    "gamma_table",
    "global_constants",
    "group_commutator",
    "iterated_group_commutator",
    "load_algebra",
    "load_lattice",
    "max_coeff_constants",
    "prefix_error_polynomials",
    "product_fold",
    "resolve_algebra",
    "signature_lower_bounds",
    "single_layer_length_bound",
    "systole_upper_bound",
    "__version__",
]
