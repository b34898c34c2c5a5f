"""Balanced horizontal decompositions of layer vectors and full vectors.

A layer-j vector is realized as a sum of j-fold brackets of horizontal
vectors: take the minimal-norm tensor preimage, split every elementary-tensor
term into j factors of equal norm (|alpha|^(1/j) each, sign on the first
factor), and keep zero rows so the row count is always d1**j.  The three
defining conditions - exact bracket sum, tensor-norm tightness, and equal
factor norms - are verified on every construction.

A nonzero layer-j row is (+-s e_{w1}, s e_{w2}, ..., s e_{wj}) with one scale
s >= 0, so its iterated group commutator is delta_s(C(w, sign)), where C is
the commutator of the signed rational letters and the dilation delta_s is a
group automorphism.  C is folded letter by letter once per algebra and word;
each use dilates it by the row scale, after an exact check that the row
really is that dilated letter word.  The same check makes every factor norm
of a row equal, since layer 1 is orthonormal, so the balance condition holds
exactly and each row's norm is measured once, on one entry: a set's
combinatorial length is the sum over rows of (arity x the row's norm), added
exactly and rounded once, valid only once the check has passed.

One pass, :meth:`HorizontalSet.measure`, checks, measures and dilates each
nonzero row once and returns the row norms with the set's commutator
product.  It runs once per stage of a certificate, in
:meth:`AdjustedTuple.add_stage`, which folds the product into the tuple's
running prefix: the prefixes are derived from the sets, never handed in.
Every call builds a fresh set, owned by the one tuple it is part of and
freed with it, so a stream of certificates holds no state beyond the
bounded per-algebra memos.

A full vector is handled layer by layer: each stage adjusts to the layer
target corrected by the higher-layer error of the prefix product, so the
last prefix rebuilds the target.  That is checked once, exactly, at the
endpoint (:meth:`AdjustedTuple.verify_reconstruction`): stages j+1..k live
in layers >= j+1 and leave layers 1..j of a prefix unchanged, so a wrong
prefix fails the final check.  All bookkeeping stays in the exact scalar
ring, so the reconstruction is a machine-checked identity.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .bch_engine import bch_product, iterated_group_commutator, product_fold
from .errors import CertificateFailure, LayerOutOfRange
from .graded_algebra import GradedAlgebra, GVec
from .popp_metric import PoppMetric
from .scalars import is_zero_scalar, signed_root, to_exact

NORM_TOL = 1e-12

# guards GradedAlgebra.word_commutators, the one memo this module fills
_cache_lock = threading.Lock()


class AdjustedRow:
    """One row (X_n1, ..., X_nj) of a horizontal set."""

    __slots__ = ("word", "alpha", "sign", "scale", "vectors")

    def __init__(self, word, alpha, sign, scale, vectors):
        self.word = word  # layer-1 basis indices, None for degenerate rows
        self.alpha = alpha  # sign * scale**j; None on layer 1
        self.sign = sign
        self.scale = scale  # common factor norm, >= 0
        self.vectors = vectors  # list of j horizontal GVecs

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


class HorizontalSet:
    """d1**j rows of horizontal vectors adjusted to a layer-j target."""

    def __init__(self, algebra, metric, arity, target_coords, rows):
        self.algebra: GradedAlgebra = algebra
        self.metric: PoppMetric = metric
        self.arity = arity  # entries per row
        self.target_coords = tuple(target_coords)
        self.rows: list[AdjustedRow] = rows
        self._length: float | None = None

    # -- derived quantities ------------------------------------------------------

    def row_norms(self) -> list[float]:
        """Layer-1 norm of the entries of each row, in row order.

        A zero row counts 0.0: it takes part in no bracket sum, commutator
        or path segment.  A longer row passes :func:`_check_row` first, so
        its entries are exactly +-s e_w for one scale s, and layer 1 is
        orthonormal: they all have the norm of the first entry, measured
        once.
        """
        out = []
        for row in self.rows:
            if row.is_zero:
                out.append(0.0)
                continue
            if self.arity > 1:
                _check_row(row, self.arity)
            out.append(self.metric.layer_norm(1, row.vectors[0].layer(1)))
        return out

    def measure(self) -> tuple[list[float], GVec]:
        """One pass over the rows: (row norms, commutator product).

        Each nonzero row is checked and measured once (:meth:`row_norms`)
        and contributes one factor to the product: a layer-1 row its own
        vector, a longer row delta_s(C(w, sign)) for its scale s.  Fills the
        combinatorial-length memo.  Nothing else is kept on the set: callers
        hold the result.
        """
        algebra = self.algebra
        norms = self.row_norms()
        factors = []
        for row in self.rows:
            if row.is_zero:
                continue
            if self.arity == 1:
                factors.append(row.vectors[0])
            else:
                word = _word_commutator(algebra, row.word, row.sign)
                factors.append(algebra.dilate(row.scale, word))
        if self._length is None:
            self._length = _fsum_entries(norms, self.arity)
        if not factors:
            return norms, algebra.zero()
        return norms, product_fold(algebra, factors)

    def bracket_sum(self) -> GVec:
        """Sum over rows of the iterated Lie brackets."""
        out = self.algebra.zero()
        for row in self.rows:
            if row.is_zero:
                continue
            out = out + self.algebra.iterated_bracket(row.vectors)
        return out

    def combinatorial_length(self) -> float:
        """Total layer-1 norm of all entries: each row's norm once per entry.

        A set produced by :meth:`rescale` reports exactly t times its
        parent's value: the rescale bookkeeping is where the scaling law is
        asserted, so the multiplication happens once, not per entry.
        """
        if self._length is None:
            self._length = _fsum_entries(self.row_norms(), self.arity)
        return self._length

    def layer_error_vectors(self) -> dict[int, tuple]:
        """Higher-layer components of the commutator product, by layer."""
        y = self.measure()[1]
        return {
            l: y.layer(l)
            for l in range(self.arity + 1, self.algebra.step + 1)
        }

    def rescale(self, t) -> "HorizontalSet":
        """Row-wise rescale by t > 0, realizing the target t**j * Z_j."""
        t = Fraction(t)
        rows = []
        for row in self.rows:
            alpha = (
                None if row.alpha is None else row.alpha * t ** self.arity
            )
            rows.append(
                AdjustedRow(
                    row.word,
                    alpha,
                    row.sign,
                    row.scale * t if row.sign else row.scale,
                    [v.scale(t) for v in row.vectors],
                )
            )
        coords = tuple(c * t ** self.arity for c in self.target_coords)
        out = HorizontalSet(self.algebra, self.metric, self.arity, coords, rows)
        out._length = float(t) * self.combinatorial_length()
        return out

    # -- verification ---------------------------------------------------------------

    def verify_conditions(self) -> dict:
        """Check the three adjusted-set conditions; raise on failure."""
        layer = self.arity
        target = self.algebra.from_layer(layer, self.target_coords)
        report: dict = {"arity": self.arity, "rows": len(self.rows)}

        if not (self.bracket_sum() - target).is_zero:
            raise CertificateFailure("bracket sum misses the target")
        report["sum_exact"] = True

        # Balance is exact: the row check inside row_norms has shown every
        # entry of a row to be +-s e_w with the row's one scale s.
        norms = [[norm] * self.arity for norm in self.row_norms()]
        report["balance_ok"] = True

        nu = math.sqrt(
            math.fsum(math.prod(r) ** 2 for r in norms)
        )
        target_norm = self.metric.layer_norm(layer, self.target_coords)
        if abs(nu - target_norm) > max(NORM_TOL, NORM_TOL * target_norm):
            raise CertificateFailure(
                f"tensor norm {nu} does not match layer norm {target_norm}"
            )
        if self.arity >= 2:
            total = Fraction(0)
            for row in self.rows:
                if not row.is_zero:
                    total = (row.alpha * row.alpha) + total
            quad = self.metric.layer_quadform(layer, self.target_coords)
            delta = total - quad
            if not is_zero_scalar(delta):
                raise CertificateFailure("exact norm condition fails")
            report["norm_exact"] = True
        report["norm_value"] = nu
        return report

    def __repr__(self):
        return (
            f"HorizontalSet(arity={self.arity}, rows={len(self.rows)},"
            f" algebra={self.algebra.name})"
        )


def adjust_to_layer_vector(
    algebra: GradedAlgebra,
    metric: PoppMetric,
    coords,
    layer: int,
) -> HorizontalSet:
    """Build a horizontal set adjusted to the layer vector with the given
    coordinates, read exactly.  Deterministic: rows follow lex order on
    tensor words."""
    if not 1 <= layer <= algebra.step:
        raise LayerOutOfRange(f"layer {layer} outside 1..{algebra.step}")
    coords = [to_exact(c) for c in coords]
    if layer == 1:
        d1 = algebra.dims[0]
        zero = algebra.zero()
        head = algebra.from_layer(1, coords)
        rows = []
        for n in range(d1):
            if n == 0:
                vec = head
                norm = metric.layer_norm(1, head.layer(1))
                sign = 0 if vec.is_zero else 1
                rows.append(AdjustedRow(None, None, sign, norm, [vec]))
            else:
                rows.append(AdjustedRow(None, None, 0, 0.0, [zero]))
        return HorizontalSet(algebra, metric, 1, coords, rows)
    preimage = metric.minimal_preimage(layer, coords)
    words = algebra.layer_words(layer)
    zero = algebra.zero()
    rows = []
    for word, alpha in zip(words, preimage.coeffs):
        if is_zero_scalar(alpha):
            rows.append(AdjustedRow(word, alpha, 0, 0.0, [zero] * layer))
            continue
        sign, scale = signed_root(alpha, layer)
        vectors = _letter_vectors(algebra, word, sign, scale)
        rows.append(AdjustedRow(word, alpha, sign, scale, vectors))
    return HorizontalSet(algebra, metric, layer, coords, rows)


def _fsum_entries(norms, arity: int) -> float:
    """Each row norm once per entry of the row, added exactly, rounded once."""
    return math.fsum(norm for norm in norms for _ in range(arity))


def _letter_coeffs(sign, scale, arity: int) -> list:
    """Row coefficients (sign * s, s, ..., s)."""
    return [scale if sign > 0 else -scale] + [scale] * (arity - 1)


def _letter_vectors(algebra, word, sign, scale) -> list[GVec]:
    """Row entries (sign * s e_{w1}, s e_{w2}, ..., s e_{wj})."""
    coeffs = _letter_coeffs(sign, scale, len(word))
    return [
        algebra.basis_vector(1, letter).scale(c)
        for letter, c in zip(word, coeffs)
    ]


def _check_row(row: AdjustedRow, arity: int) -> None:
    """Raise CertificateFailure unless a nonzero row of a set of arity
    j >= 2 is exactly (+-s e_{w1}, s e_{w2}, ..., s e_{wj}) with j letters."""
    coeffs = _letter_coeffs(row.sign, row.scale, arity)
    if len(row.word or ()) != arity or len(row.vectors) != arity or not all(
        _is_scaled_letter(v, letter, c)
        for v, letter, c in zip(row.vectors, row.word, coeffs)
    ):
        raise CertificateFailure(f"row {row.word} is not a dilated letter word")


def _is_scaled_letter(v: GVec, letter: int, coeff) -> bool:
    """Exactly v == coeff * e_letter for the layer-1 basis vector e_letter."""
    return all(
        c == coeff if (l == 0 and i == letter) else is_zero_scalar(c)
        for l, layer in enumerate(v.layers)
        for i, c in enumerate(layer)
    )


def _word_commutator(algebra: GradedAlgebra, word, sign) -> GVec:
    """C(word, sign): the letter fold of the signed rational row, memoised
    on the algebra (at most 2 * sum_{j>=2} d1**j entries)."""
    key = (word, sign > 0)
    table = algebra.word_commutators
    with _cache_lock:
        hit = table.get(key)
    if hit is None:
        hit = iterated_group_commutator(
            algebra, _letter_vectors(algebra, word, sign, Fraction(1))
        )
        with _cache_lock:
            hit = table.setdefault(key, hit)
    return hit


class AdjustedTuple:
    """Per-layer horizontal sets reconstructing a full vector exactly; the
    one place where a certificate's stages are measured and folded."""

    def __init__(self, algebra, metric, target, sets=()):
        self.algebra: GradedAlgebra = algebra
        self.metric: PoppMetric = metric
        self.target: GVec = target
        self.sets: list[HorizontalSet] = []
        # HorizontalSet.measure() of each stage: (row norms, product)
        self.measures: list[tuple[list[float], GVec]] = []
        self.prefixes: list[GVec] = []  # product of the first j stages
        for stage in sets:
            self.add_stage(stage)

    def add_stage(self, stage: HorizontalSet) -> GVec:
        """Measure a stage, fold its product into the running prefix and
        return the new prefix."""
        measure = stage.measure()
        prefix = y = measure[1]
        if self.prefixes:
            prefix = self.prefixes[-1]
            if not y.is_zero:
                prefix = bch_product(self.algebra, prefix, y)
        self.sets.append(stage)
        self.measures.append(measure)
        self.prefixes.append(prefix)
        return prefix

    @property
    def prefix_errors(self) -> dict:
        """(l, j) -> layer-l coordinates of the product of the first j
        stages, for l > j."""
        k = self.algebra.step
        return {
            (l, j): prefix.layer(l)
            for j, prefix in enumerate(self.prefixes, start=1)
            for l in range(j + 1, k + 1)
        }

    def total_combinatorial_length(self) -> float:
        return math.fsum(s.combinatorial_length() for s in self.sets)

    def stage_lengths(self) -> list[float]:
        return [s.combinatorial_length() for s in self.sets]

    def verify_reconstruction(self) -> None:
        """Exact check that the stage products rebuild the target."""
        if not self.prefixes or not (self.prefixes[-1] - self.target).is_zero:
            raise CertificateFailure("stage products do not rebuild the target")

    def __repr__(self):
        return (
            f"AdjustedTuple(algebra={self.algebra.name},"
            f" stages={len(self.sets)})"
        )


def adjust_tuple(
    algebra: GradedAlgebra, metric: PoppMetric, target: GVec
) -> AdjustedTuple:
    """Stagewise decomposition of a full vector with error-corrected targets:
    stage j adjusts to layer j of the target minus layer j of the prefix."""
    tup = AdjustedTuple(algebra, metric, target)
    prefix = algebra.zero()
    for j in range(1, algebra.step + 1):
        coords = [z - b for z, b in zip(target.layer(j), prefix.layer(j))]
        stage = adjust_to_layer_vector(algebra, metric, coords, j)
        prefix = tup.add_stage(stage)
    tup.verify_reconstruction()
    return tup


def rescale_tuple(tup: AdjustedTuple, t) -> AdjustedTuple:
    """Row-wise rescale of every stage; realizes the dilated target."""
    algebra = tup.algebra
    out = AdjustedTuple(
        algebra, tup.metric, algebra.dilate(t, tup.target),
        [s.rescale(t) for s in tup.sets],
    )
    out.verify_reconstruction()
    return out
