"""Explicit horizontal paths certifying distance upper bounds.

A path is a word of one-parameter horizontal arcs: each segment X moves the
current point g to g * exp(X), costs exactly its layer-1 norm, and the whole
word's endpoint is the exact group product of the segments.  Commutator
words are expanded recursively ([x, C]_c = x C x^{-1} C^{-1}).  An adjusted
row is stored as its word w, sign and scale s, and both its segments and its
factor delta_s(C(w, sign)) in the stage product are built from those three
fields, so the segments of a row multiply to that factor by construction,
and the endpoint of a path built from a decomposition is the exact fold of
one such factor per row.  The path folds nothing itself: the decomposition
(``AdjustedTuple``) measured each stage's rows and folded the stage products
into its prefixes, all from the sets it holds, and the path takes the last
prefix as its endpoint after the tuple's one exact check that it equals the
target.  So every emitted bound "distance <= length" is backed by a
machine-checked certificate rather than an estimate.  The length of such a
path is the sum over rows of (segment count x the row's factor norm), added
exactly and rounded once (math.fsum): every segment of a row is +-s e_w, so
each row's norm is measured once.  The length itself is still a float.  A
path given only as segments folds them letter by letter and measures each
segment.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .adjustment import AdjustedRow, AdjustedTuple, HorizontalSet, adjust_tuple
from .bch_engine import product_fold
from .certificates import cc_upper_bound
from .errors import CertificateFailure
from .graded_algebra import GradedAlgebra, GVec
from .popp_metric import PoppMetric


class HorizontalPath:
    """Ordered horizontal segments with cached endpoint and length."""

    __slots__ = ("algebra", "metric", "segments", "length", "endpoint")

    def __init__(self, algebra, metric, segments, length=None, endpoint=None):
        self.algebra: GradedAlgebra = algebra
        self.metric: PoppMetric = metric
        self.segments: list[GVec] = list(segments)
        for seg in self.segments:
            if not seg.is_horizontal:
                raise CertificateFailure("path segment is not horizontal")
        if length is None:
            length = math.fsum(
                metric.layer_norm(1, s.layer(1)) for s in self.segments
            )
        self.length = length
        if endpoint is None:
            if self.segments:
                endpoint = product_fold(algebra, self.segments)
            else:
                endpoint = algebra.zero()
        self.endpoint = endpoint

    def waypoints(self) -> list[GVec]:
        """Endpoint after each segment: the exact prefix products."""
        out = []
        current = None
        for seg in self.segments:
            current = (
                seg if current is None else product_fold(
                    self.algebra, [current, seg]
                )
            )
            out.append(current)
        return out

    def dilate(self, t) -> "HorizontalPath":
        """Dilated path: segments scale by t, length by exactly float(t)."""
        t = Fraction(t)
        segments = [s.scale(t) for s in self.segments]
        return HorizontalPath(
            self.algebra,
            self.metric,
            segments,
            length=float(t) * self.length,
            endpoint=self.algebra.dilate(t, self.endpoint),
        )

    def __repr__(self):
        return (
            f"HorizontalPath({len(self.segments)} segments,"
            f" length={self.length:.6g})"
        )


def commutator_word(arity: int) -> list[tuple[int, int]]:
    """Signed generator word of the right-nested group commutator.

    Returns (position, sign) pairs over row positions 0..arity-1.  Position
    i < arity-1 appears 2**(i+1) times, the last position 2**(arity-1)
    times; for arity 3 that is two, four and four occurrences.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if arity == 1:
        return [(0, 1)]
    inner = [(pos + 1, sign) for pos, sign in commutator_word(arity - 1)]
    inverse = [(pos, -sign) for pos, sign in reversed(inner)]
    return [(0, 1)] + inner + [(0, -1)] + inverse


def row_segments(stage: HorizontalSet, row: AdjustedRow) -> list[GVec]:
    """Expand one adjusted row of a stage into signed segments.

    A nonzero row has no zero entry, so no letter is dropped.  Each entry
    is negated at most once and that vector reused for every negative
    letter of the word.
    """
    if row.is_zero:
        return []
    entries = stage.row_vectors(row)
    negated: dict[int, GVec] = {}
    out = []
    for pos, sign in commutator_word(len(entries)):
        vec = entries[pos]
        if sign < 0:
            if pos not in negated:
                negated[pos] = -vec
            vec = negated[pos]
        out.append(vec)
    return out


def path_from_tuple(tup: AdjustedTuple) -> HorizontalPath:
    """Concatenate the commutator words of every stage of a decomposition.

    Lengths come from each stage's row norms and the endpoint is the tuple's
    last prefix, both derived by the tuple from its own sets; the endpoint
    is checked exactly to equal the target before the path is built.
    """
    tup.verify_reconstruction()
    segments: list[GVec] = []
    norms: list[float] = []  # one per segment: the norm of its row
    for stage, (row_norms, _) in zip(tup.sets, tup.measures):
        for row, norm in zip(stage.rows, row_norms):
            row_segs = row_segments(stage, row)
            segments.extend(row_segs)
            norms.extend([norm] * len(row_segs))
    path = HorizontalPath(
        tup.algebra,
        tup.metric,
        segments,
        length=math.fsum(norms),
        endpoint=tup.prefixes[-1],
    )
    _verify_path(path, tup)
    return path


def _verify_path(path: HorizontalPath, tup: AdjustedTuple) -> None:
    ceiling = cc_upper_bound(
        tup.algebra.step, tup.total_combinatorial_length()
    )
    if path.length > ceiling * (1 + 1e-12) + 1e-300:
        raise CertificateFailure(
            f"path length {path.length} above its ceiling {ceiling}"
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
