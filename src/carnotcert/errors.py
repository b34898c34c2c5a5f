"""Exception hierarchy.

Validation failures (bad input data) and resource caps are separated from
certificate failures: the latter indicate an internal inconsistency in a
quantity this package claims to compute exactly, and should never occur.
Each class carries the exit code the command line ends with: 2 for bad
input, 3 for a resource cap, 4 for a certificate failure.
"""


class CarnotError(Exception):
    """Base class for all package errors."""
    exit_code = 2


# -- input validation -------------------------------------------------------

class ParseError(CarnotError):
    """Malformed structure-constant or lattice document."""


class AntisymmetryViolation(CarnotError):
    """Structure constants contradict c[a,b] = -c[b,a]."""


class GradingViolation(CarnotError):
    """A bracket output lands outside layer i+j."""


class JacobiViolation(CarnotError):
    """Jacobi identity fails on a basis triple."""


class NotBracketGenerating(CarnotError):
    """Some layer is not spanned by iterated brackets of layer 1."""


class UnknownFamily(CarnotError):
    """Unrecognized builtin algebra family name."""


class UnsupportedParams(CarnotError):
    """Builtin family parameters outside the supported range."""


class AlgebraMismatch(CarnotError):
    """Operands belong to different algebras."""


class LayerOutOfRange(CarnotError):
    """Layer index outside 1..k."""


class NonpositiveRadius(CarnotError):
    """Ball radii must be positive."""


class EmptyProduct(CarnotError):
    """Group product of an empty factor list."""


class ArityOutOfRange(CarnotError):
    """Commutator coefficient table arity outside 2..k."""


class SingularBasis(CarnotError):
    """Supplied basis vectors are linearly dependent."""


class NotFiltrationAdapted(CarnotError):
    """Declared Malcev basis is not adapted to the layer filtration."""


class FloatOverflow(CarnotError):
    """An exact input makes a reported quantity too large for a float."""


# -- resource caps -----------------------------------------------------------

class CapExceeded(CarnotError):
    """Free-algebra workload above the ``CARNOT_CERT_CAP`` work cap."""
    exit_code = 3


class ExplosionGuard(CarnotError):
    """Lattice ball enumeration exceeded its fixed element cap."""
    exit_code = 3


# -- internal consistency ----------------------------------------------------

class RecursionFailure(CarnotError):
    """Box-radius recursion could not find positive constants (internal bug)."""
    exit_code = 4


class CertificateFailure(CarnotError):
    """An exactness or bound check that must hold by construction failed."""
    exit_code = 4
