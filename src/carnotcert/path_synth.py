"""Explicit horizontal paths certifying distance upper bounds.

A path is a word of one-parameter horizontal arcs: each segment X moves the
current point g to g * exp(X), costs exactly its layer-1 norm, and the whole
word's endpoint is the exact group product of the segments.  Commutator
words are expanded recursively ([x, C]_c = x C x^{-1} C^{-1}).  An adjusted
row is stored as its word w, sign and scale s, and both its segments and its
factor delta_s(C(w, sign)) in the stage product are built from those three
fields, so the segments of a row multiply to that factor by construction,
and the endpoint of a path is the exact fold of one such factor per row.

A path is held as its letter program: the adjusted sets of a decomposition
(``AdjustedTuple``), which measured each stage's rows and folded the stage
products into its prefixes.  The path takes the last prefix as its endpoint
after the tuple's one exact check that it equals the target, so every
emitted bound "distance <= length" is backed by a machine-checked
certificate rather than an estimate.  A row of word length j expands to
3 * 2**(j-1) - 2 letters, each +-s e_w, so the length is the sum over rows
of (letter count x the row's norm), each norm measured once, added exactly
and rounded once (math.fsum).  The length itself is still a float.  The
segments are built on demand, for the reports that print them; a
certificate builds none.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .adjustment import AdjustedRow, AdjustedTuple, HorizontalSet, adjust_tuple
from .bch_engine import product_fold
from .graded_algebra import GradedAlgebra, GVec
from .popp_metric import PoppMetric


class HorizontalPath:
    """The letter program of a decomposition, with its exact endpoint and
    its length; built by :func:`path_from_tuple`."""

    __slots__ = ("algebra", "metric", "sets", "length", "endpoint")

    def __init__(self, algebra, metric, sets, length, endpoint):
        self.algebra: GradedAlgebra = algebra
        self.metric: PoppMetric = metric
        self.sets: list[HorizontalSet] = list(sets)
        self.length: float = length
        self.endpoint: GVec = endpoint

    @property
    def segments(self) -> list[GVec]:
        """The horizontal segments in order, built afresh on each access."""
        return [
            seg
            for stage in self.sets
            for row in stage.rows
            for seg in row_segments(stage, row)
        ]

    @property
    def segment_count(self) -> int:
        """Number of segments, counted without building them."""
        return sum(
            len(commutator_word(stage.arity))
            * sum(not row.is_zero for row in stage.rows)
            for stage in self.sets
        )

    def waypoints(self) -> list[GVec]:
        """Endpoint after each segment: the exact prefix products."""
        out: list[GVec] = []
        for seg in self.segments:
            out.append(product_fold(self.algebra, [out[-1], seg]) if out else seg)
        return out

    def dilate(self, t) -> "HorizontalPath":
        """Dilated path: rows rescale by t, length by exactly float(t)."""
        t = Fraction(t)
        return HorizontalPath(
            self.algebra,
            self.metric,
            [s.rescale(t) for s in self.sets],
            float(t) * self.length,
            self.algebra.dilate(t, self.endpoint),
        )

    def __repr__(self):
        return (
            f"HorizontalPath({self.segment_count} segments,"
            f" length={self.length:.6g})"
        )


def commutator_word(arity: int) -> list[tuple[int, int]]:
    """Signed generator word of the right-nested group commutator.

    Returns (position, sign) pairs over row positions 0..arity-1.  Position
    i < arity-1 appears 2**(i+1) times, the last position 2**(arity-1)
    times, 3 * 2**(arity-1) - 2 letters in all; for arity 3 that is two,
    four and four occurrences.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if arity == 1:
        return [(0, 1)]
    inner = [(pos + 1, sign) for pos, sign in commutator_word(arity - 1)]
    inverse = [(pos, -sign) for pos, sign in reversed(inner)]
    return [(0, 1)] + inner + [(0, -1)] + inverse


def row_segments(stage: HorizontalSet, row: AdjustedRow) -> list[GVec]:
    """Expand one adjusted row of a stage into signed segments; a nonzero
    row has no zero entry, so no letter is dropped."""
    if row.is_zero:
        return []
    entries = stage.row_vectors(row)
    return [
        entries[pos] if sign > 0 else -entries[pos]
        for pos, sign in commutator_word(len(entries))
    ]


def path_from_tuple(tup: AdjustedTuple) -> HorizontalPath:
    """The letter program of a decomposition.

    The endpoint is the tuple's last prefix, checked exactly to equal the
    target; the length counts each row norm the tuple measured once per
    letter of the row's commutator word.  No segment is built.
    """
    tup.verify_reconstruction()
    norms: list[float] = []
    for stage, (row_norms, _) in zip(tup.sets, tup.measures):
        letters = len(commutator_word(stage.arity))
        for row, norm in zip(stage.rows, row_norms):
            if not row.is_zero:
                norms.extend([norm] * letters)
    return HorizontalPath(
        tup.algebra, tup.metric, tup.sets, math.fsum(norms), tup.prefixes[-1]
    )


def certified_dcc_upper(
    algebra: GradedAlgebra, metric: PoppMetric, target: GVec
) -> tuple[HorizontalPath, float]:
    """Horizontal path ending exactly at the target; bound = its length."""
    tup = adjust_tuple(algebra, metric, target)
    path = path_from_tuple(tup)
    return path, path.length


def cc_lower_bound(metric: PoppMetric, x: GVec) -> float:
    """Layer-1 norm of the element: the abelianized distance lower bound."""
    return metric.layer_norm(1, x.layer(1))
