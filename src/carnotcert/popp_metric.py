"""Layer scalar products induced by minimal-norm bracket preimages.

Each layer i >= 2 inherits a scalar product from the canonical tensor-power
product on layer 1 through the surjection u |-> [u_1, ..., u_i]: the norm of
v is the least tensor norm over preimages.  Its matrix M_i over the
lex-ordered elementary-tensor basis follows Popp's recursive definition
M_i = B_i (I (x) M_(i-1)), from M_1 = I and the bracket map B_i of
V_1 (x) V_(i-1) onto V_i, read one column at a time: column (a, w) of M_i
is the sparse bracket [e_a, column w of M_(i-1)].  Over one denominator D
the columns are integer, N = D M_i, so the Gram matrix (M_i M_i^T)^{-1} =
D^2 (N N^T)^{-1} takes integer dot products and one exact inverse, and no
Fraction matrix product.  The resulting left-invariant volume density
(value 1 on the orthonormal frame) is what all volume and covolume
evaluations use.

Next to each Fraction Gram matrix (what ``popp gram`` prints) the metric
keeps an integer Gram: the numerators of its nonzero entries over one
denominator g_den.  A quadratic form on rational coordinates n_i / D is then
one integer sum, normalised once: <v, v> = sum g_ij n_i n_j / (g_den D^2).
That sum has one definition for integer and float rows,
:meth:`PoppMetric.gram_forms`, many rows at once: a rational layer norm,
the layers over one denominator D each in which the systole search keeps
its lattice elements (``adjustment.signature_lower_bounds``), and the float
directions and integer numerators of a box sample.  For any exact
coordinates :meth:`PoppMetric.layer_quadform` is one combination over the
same integer Gram entries, normalised once.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import (
    FloatOverflow,
    LayerOutOfRange,
    NonpositiveRadius,
)
from .graded_algebra import GradedAlgebra
from .ratlinalg import (
    cholesky_lower,
    clear_denominators,
    integer_matrix,
    mat_det,
    mat_inv,
)
from .scalars import (
    RadExpr,
    as_float,
    float_quotient,
    lincomb,
    to_exact,
)


class PoppMetric:
    """Per-layer Gram matrices and minimal-preimage solvers for an algebra."""

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self.bracket_matrices: dict = {}
        d1 = algebra.dims[0]
        eye = tuple(tuple(Fraction(int(i == j)) for j in range(d1)) for i in range(d1))
        self.grams: dict = {1: eye}
        self.preimage_rows: dict = {}
        columns = [{w: Fraction(1)} for w in range(d1)]  # M_1, by column
        for layer in range(2, algebra.step + 1):
            # column (a, w) of M_j is [e_a, column w of M_(j-1)]
            columns = [
                {o: c for o, c in algebra.bracket_items({a: 1}, col).items() if c}
                for a in range(d1)
                for col in columns
            ]
            off, dim = algebra.offsets[layer - 1], algebra.dims[layer - 1]
            m = tuple(
                tuple(col.get(off + r, _ZERO) for col in columns) for r in range(dim)
            )
            # M M^T = N N^T / D^2 for the integer rows N = D M
            den, n = integer_matrix(m)
            nnt = tuple(tuple(sum(map(operator.mul, x, y)) for y in n) for x in n)
            gram = tuple(tuple(den * den * g for g in row) for row in mat_inv(nnt))
            self.bracket_matrices[layer] = m
            self.grams[layer] = gram
            # the columns of M for the pair words: columns (u, b, a) are the
            # negated columns (u, a, b), and columns (u, a, a) are zero
            by_word = dict(zip(itertools.product(range(d1), repeat=layer), columns))
            self.preimage_rows[layer] = tuple(
                _integer_entries([[
                    sum((c * gram[o - off][k] for o, c in by_word[w].items()), _ZERO)
                    for k in range(dim)
                ]])
                for w in pair_words(d1, layer)
            )
        self.gram_dets = {
            layer: mat_det(g) for layer, g in self.grams.items()
        }
        self.int_grams = {
            layer: _integer_entries(g) for layer, g in self.grams.items()
        }

    # -- norms ------------------------------------------------------------------

    def layer_quadform(self, layer: int, coords):
        """Exact value of <v, v>_layer for any coordinates, each read exactly
        (a float as its exact binary fraction): one linear combination of
        the products c_i c_j over the layer's nonzero integer Gram entries
        g_ij, zero coordinates skipped, over g_den, normalised once.  It is
        a Fraction exactly when its value is rational."""
        g_den, entries = self._int_gram(layer)
        x = [to_exact(c) for c in coords]
        return lincomb(
            [(g, x[i] * x[j]) for i, j, g in entries if x[i] and x[j]], g_den
        )

    def layer_norm(self, layer: int, coords) -> float:
        """Norm sqrt(v^T G_layer v) of exact coordinates (or floats, read
        exactly), from the exact form.  Fraction coordinates give it as the
        integers (sum g_ij n_i n_j, g_den D**2), one :meth:`gram_forms` row
        over their least common denominator D, with no Fraction built: int /
        int true division rounds correctly, as float(Fraction) does, so the
        float is the one of the reduced form; other coordinates take
        :meth:`layer_quadform`.  A rational form beyond the float range is
        rooted in integers first (the integer root of its integer part); an
        irrational one is taken exactly at the coordinates scaled by 2**-e,
        and its root scaled back by 2**e.  Here e is half the form's binary
        exponent: the largest binary exponent among the coordinates' floats
        plus half that of the largest Gram entry.  So a norm that fits a
        float is returned; one that does not raises FloatOverflow."""
        if all(type(c) is Fraction for c in coords):
            den, nums = clear_denominators(coords)
            num, = self.gram_forms(layer, (nums,))
            den = self.gram_denominator(layer) * den * den
        else:
            form = self.layer_quadform(layer, coords)
            if isinstance(form, RadExpr):
                return self._irrational_norm(layer, coords, form)
            num, den = form.numerator, form.denominator
        try:
            return math.sqrt(max(0.0, float_quotient(num, den)))
        except FloatOverflow:
            return as_float(math.isqrt(num // den))

    def _irrational_norm(self, layer: int, coords, form: RadExpr) -> float:
        """sqrt(form) for the irrational form of coords, scaled by 2**-e
        when the form is beyond the float range (:meth:`layer_norm`)."""
        try:
            return math.sqrt(max(0.0, as_float(form)))
        except FloatOverflow:
            g_den, entries = self._int_gram(layer)
            gram_exp = max(abs(n).bit_length() for _, _, n in entries) - g_den.bit_length()
            e = max(math.frexp(as_float(c))[1] for c in coords) + gram_exp // 2
            root = math.sqrt(max(0.0, as_float(form * Fraction(4) ** -e)))
            return as_float(Fraction(root) * Fraction(2) ** e)

    def gram_forms(self, layer: int, rows) -> list:
        """sum g_ij n_i n_j over the layer's integer Gram numerators g_ij,
        for each integer or float row n, as a list in row order (any exact
        row: :meth:`layer_quadform`).  An integer row gives the exact form
        of n times :meth:`gram_denominator`; a float row gives a float.
        Each sum starts at 0 and adds the terms in the order of the Gram's
        nonzero entries, one at a time."""
        entries = self._int_gram(layer)[1]
        forms = []
        for n in rows:
            form = 0
            for i, j, g in entries:
                form += g * n[i] * n[j]
            forms.append(form)
        return forms

    def gram_denominator(self, layer: int) -> int:
        """g_den: the one denominator of the layer's integer Gram."""
        return self._int_gram(layer)[0]

    def _int_gram(self, layer: int):
        if layer not in self.int_grams:
            raise LayerOutOfRange(
                f"layer {layer} outside 1..{self.algebra.step}"
            )
        return self.int_grams[layer]

    # -- minimal preimages --------------------------------------------------------

    def minimal_preimage(self, layer: int, coords) -> tuple:
        """Least-tensor-norm u with [u] = v, via the normal equations u =
        M^T G v, for exact coordinates: one coefficient alpha per pair word
        (u, a, b), a < b, in the order of :func:`pair_words`.  The full
        tensor has alpha at (u, a, b), -alpha at (u, b, a) and 0 at
        (u, a, a).  Each coefficient is one exact linear combination over
        the nonzero entries of its row of M^T G, kept as integers over the
        row's denominator; it is a Fraction when its value is rational, and a
        zero row gives 0.  A zero target forms no combination: its minimal
        preimage is zero."""
        if not 2 <= layer <= self.algebra.step:
            raise LayerOutOfRange(
                f"minimal preimage needs layer in 2..{self.algebra.step}"
            )
        if not any(coords):
            return (_ZERO,) * len(self.preimage_rows[layer])
        return tuple(
            lincomb([(n, coords[j]) for _, j, n in entries], den)
            if entries else _ZERO
            for den, entries in self.preimage_rows[layer]
        )

    # -- volumes --------------------------------------------------------------------

    def frame_density(self) -> float:
        """Volume of the coordinate unit cube in the induced metric.

        Equals prod_i sqrt(det G_i): the density of the volume form against
        Lebesgue measure in the declared graded coordinates.  A product of
        Gram determinants outside the float range raises FloatOverflow.
        """
        return math.sqrt(in_float_range(
            as_float(math.prod(self.gram_dets.values()))
        ))

    def orthonormal_frame(self) -> dict:
        """Per-layer float matrices mapping declared to orthonormal coords.
        A Gram diagonal entry outside the float range raises FloatOverflow:
        its float would be no pivot for the Cholesky factor."""
        for g in self.grams.values():
            for i, row in enumerate(g):
                in_float_range(as_float(row[i]))
        return {
            layer: [list(row) for row in zip(*cholesky_lower(g))]
            for layer, g in self.grams.items()
        }


def in_float_range(value: float) -> float:
    """A float rounded from a positive exact value, refused with
    FloatOverflow when it underflowed to 0 or overflowed to infinity."""
    if value == 0.0 or value == math.inf:
        raise FloatOverflow(
            f"exact value outside the float range (its float is {value})"
        )
    return value


def pair_words(d1: int, layer: int) -> list[tuple]:
    """The words (u, a, b), a < b, of the given length >= 2 over d1 letters,
    in lex order.  The j-fold bracket is antisymmetric in its last two
    letters, so each stands for the tensor columns (u, a, b) and (u, b, a),
    of opposite sign; the columns (u, a, a) are zero."""
    return [
        u + pair
        for u in itertools.product(range(d1), repeat=layer - 2)
        for pair in itertools.combinations(range(d1), 2)
    ]


def _integer_entries(matrix) -> tuple[int, tuple]:
    """(den, ((i, j, n_ij), ...)): the nonzero entries of a Fraction
    matrix in row-major order, as integers over one denominator."""
    cells = [
        (i, j, c) for i, row in enumerate(matrix) for j, c in enumerate(row) if c
    ]
    den, nums = clear_denominators([c for _, _, c in cells])
    return den, tuple((i, j, n) for (i, j, _), n in zip(cells, nums))


_ZERO = Fraction(0)


def ball_volume_parts(d: int) -> tuple[Fraction, int]:
    """Euclidean unit-ball volume as (rational, power of pi), exact for every
    d: pi^(d/2) / (d/2)! for even d, 2^((d+1)/2) pi^((d-1)/2) / d!! for odd d."""
    if d < 0:
        raise NonpositiveRadius("dimension must be nonnegative")
    frac, pi_exp = Fraction(1), 0
    if d % 2:
        frac = Fraction(2)
    for m in range(2 + (d % 2), d + 1, 2):
        frac *= Fraction(2, m)
        pi_exp += 1
    return frac, pi_exp


def box_volume_parts(dims, radii) -> tuple[Fraction, int]:
    """Exact (rational factor, power of pi) of the volume of the product of
    Euclidean balls of the given dimensions and radii, one radius a layer."""
    if len(radii) != len(dims):
        raise NonpositiveRadius(f"need {len(dims)} radii, got {len(radii)}")
    frac = Fraction(1)
    pi_exp = 0
    for d, r in zip(dims, radii):
        r = Fraction(r)
        if r <= 0:
            raise NonpositiveRadius(f"radius {r} is not positive")
        bf, bp = ball_volume_parts(d)
        frac *= r ** d * bf
        pi_exp += bp
    return frac, pi_exp


def build_popp(algebra: GradedAlgebra) -> PoppMetric:
    """Construct the induced scalar products and volume data for an algebra."""
    return PoppMetric(algebra)
