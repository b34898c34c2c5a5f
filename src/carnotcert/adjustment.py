"""Balanced horizontal decompositions of layer vectors and full vectors.

A layer-j vector is realized as a sum of j-fold brackets of horizontal
vectors: take the minimal-norm tensor preimage and split every
elementary-tensor term into j factors of equal norm (|alpha|^(1/j) each,
sign on the first factor).  The exact bracket sum and the exact tensor
norm are checked by :meth:`HorizontalSet.verify_conditions`; equal factor
norms hold by construction.  Popp's tensor map is antisymmetric in a
word's last two letters (Barilari and Rizzi, "A formula for Popp's volume
in sub-Riemannian geometry", 2013), so the preimage has opposite
coefficients at (u, a, b) and (u, b, a), and 0 at (u, a, a): a set holds
one row per pair word (u, a, b), a < b, which stands for its partner
(u, b, a) too, with (-sign, the same scale).

A nonzero layer-j row (+-s e_{w1}, s e_{w2}, ..., s e_{wj}), with one
scale s > 0, is stored as its word w and its exact preimage coefficient
alpha = sign * s**j.  The sign and s are split off alpha (``signed_root``)
once, when first read: the entries (:meth:`HorizontalSet.row_vectors`)
and segments of the row and of its partner are built from them, so no row
can hold entries that disagree with its coefficient.  The iterated group
commutator of the entries is delta_s(C(w, sign)), where C is the
commutator of the signed rational letters and the dilation delta_s is a
group automorphism; C(w, sign) is built once per algebra and word as one
group commutator [sign e_{w0}, C(w[1:], +)]_c on its suffix's memoised C,
and each use dilates it by the row scale.  Layer 1 is orthonormal, so
every entry of a row and of its partner has the norm s: the balance
condition holds by construction, and a set's combinatorial length is the
sum over rows of (2 x arity x the row's norm), added exactly and rounded
once.

One pass, :meth:`HorizontalSet.measure`, returns the row norms with the
set's commutator product.  The factors of a layer-j stage live in layers
>= j, and the algebra's ``commuting_layer`` c is 1 + the largest
min(layer a, layer b) over its nonzero brackets [e_a, e_b], read off the
bracket table once: for j >= c no two factors bracket, so they commute,
and the product is their sum, one linear combination per coordinate.
The lowest layer of delta_s(C(w, sign)) is s**j sign [w] = alpha [w],
the bracket map applied to the row's tensor (commutator paths realise
brackets: Bellaiche, "The tangent space in sub-Riemannian geometry",
1996, sec. 7), so in layer j a row and its partner add 2 alpha M_j[:, w],
read off Popp's tensor map M_j, whose column for the lex index of a word
is its right-nested bracket; above j they add delta_s(C(w, sign) +
C(w', -sign)), one rational vector memoised per pair word and sign.  The
central stage, j = k, is the commuting stage with no layer above it: it
splits no row into its radical, reads no memo entry, and takes each row
norm from alpha alone (``root_norm``).  So radicals and word commutators
appear only for stages 2..k-1; there the powers s, ..., s**k of each
nonzero row are taken once.  Only a stage with j < c folds the dilated
factors of its rows and partners, in word order, through the group law.
The grading alone gives c <= k // 2 + 1; the table can give less:
free_nilpotent(2,4)'s layer 2 is one-dimensional, so c = 2 and its stage
2 sums.  The product runs once per stage of a certificate, in
:meth:`AdjustedTuple.add_stage`, which folds it into the tuple's running
prefix: the prefixes are derived from the sets, never handed in.  The
central product lives in the central layer k, so it is added to the
prefix: a certificate runs the group law for the prefix products of
stages 2..k-1 and the pairwise folds of stages 2..c-1 (2 group products
per free_nilpotent(2,4) certificate).  Every call builds a fresh set,
owned by the one tuple it is part of and freed with it, so a stream of
certificates holds no state beyond the bounded per-algebra memos.

A full vector is handled layer by layer: each stage adjusts to the layer
target corrected by the higher-layer error of the prefix product, so the
last prefix rebuilds the target.  That is checked once, exactly, at the
endpoint (:meth:`AdjustedTuple.verify_reconstruction`): stages j+1..k live
in layers >= j+1 and leave layers 1..j of a prefix unchanged, so a wrong
prefix fails the final check.  All bookkeeping stays in the exact scalar
ring, so the reconstruction is a machine-checked identity.

The adjusted tuple is also the certificate "distance <= length": it is the
letter program of a horizontal path.  Each segment X moves the current
point g to g * exp(X) and costs exactly its layer-1 norm.  The path spells
each stage's rows and partners in the lex order of their words
(:meth:`HorizontalSet.spelled_rows`): a row of word length j expands to
the 3 * 2**(j-1) - 2 letters of its right-nested group commutator
([x, C]_c = x C x^{-1} C^{-1}), each +-s e_w, and those letters multiply
to the row's factor delta_s(C(w, sign)) by construction.  So the path's
endpoint is the tuple's last prefix, which it takes only once the exact
check has passed, and its length is the sum over rows of (2 x letter
count x the row's norm), each norm measured once, added exactly and
rounded once (math.fsum); the length itself is still a float.  Segments
are built on demand, for the reports that print them; a certificate builds
none.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .bch_engine import bch_product, group_commutator, product_fold
from .errors import CertificateFailure, LayerOutOfRange, ParseError
from .graded_algebra import GradedAlgebra, GVec
from .popp_metric import PoppMetric, pair_words
from .scalars import (
    as_float,
    float_quotient,
    lincomb,
    root_norm,
    scalar_powers,
    signed_root,
    to_exact,
)
from .words import commutator_word, letter_count

# guards GradedAlgebra.word_commutators, the one memo this module fills
_cache_lock = threading.Lock()

_ZERO = Fraction(0)


class AdjustedRow:
    """One row (sign * s e_{w1}, s e_{w2}, ..., s e_{wj}) of a horizontal
    set, stored as its word and its preimage coefficient alpha =
    sign * s**j; sign and s are split off alpha (:func:`signed_root`) on
    first read and kept.  A layer-1 row has no word and no alpha: it is
    given its sign and its norm as its scale.  Its entries are
    :meth:`HorizontalSet.row_vectors`.

    A worded row (u, a, b), a < b, stands for its pair: Popp's tensor map
    is antisymmetric in a word's last two letters, so the row (u, b, a) has
    -alpha, that is (-sign, the same scale), and is its :meth:`partner`."""

    __slots__ = ("word", "alpha", "is_zero", "_root")

    def __init__(self, word, alpha, root=None):
        self.word = word  # layer-1 basis indices, None on layer 1
        self.alpha = alpha  # exact preimage coefficient, None on layer 1
        self._root = root  # (sign, scale), or None until first read
        self.is_zero = not alpha if root is None else root[0] == 0

    def _signed(self):
        if self._root is None:
            self._root = signed_root(self.alpha, len(self.word))
        return self._root

    def partner(self) -> "AdjustedRow":
        """The row (u, b, a) of this row (u, a, b): -alpha, (-sign, the same
        scale)."""
        sign, scale = self._signed()
        *u, a, b = self.word
        return AdjustedRow((*u, b, a), -self.alpha, (-sign, scale))

    @property
    def sign(self) -> int:
        """+1, -1, or 0 for a zero row."""
        return self._signed()[0]

    @property
    def scale(self):
        """The common factor norm s >= 0."""
        return self._signed()[1]

    @property
    def norm(self) -> float:
        """The float sqrt(s**2) of a worded row: from alpha alone
        (:func:`root_norm`) while s is unread, so no radical is made."""
        if self._root is None:
            return root_norm(self.alpha, len(self.word))
        scale = self._root[1]
        return math.sqrt(max(0.0, as_float(scale * scale)))


class HorizontalSet:
    """The rows of horizontal vectors adjusted to a layer-j target: on
    layer 1 one row, the target; above, one row per pair word (u, a, b),
    a < b, that stands for the rows (u, a, b) and (u, b, a) of the full
    d1**j tensor, whose rows (u, a, a) are zero.

    Every row's word has the set's arity as its length; the layer-1 row, of
    arity 1, has no word.  A set holding any other row is refused.
    """

    def __init__(self, algebra, metric, arity, target_coords, rows):
        word_length = None if arity == 1 else arity
        for row in rows:
            if (None if row.word is None else len(row.word)) != word_length:
                raise CertificateFailure(
                    f"row word {row.word} in a set of arity {arity}"
                )
        self.algebra: GradedAlgebra = algebra
        self.metric: PoppMetric = metric
        self.arity = arity  # entries per row
        self.copies = 1 if arity == 1 else 2  # commutators a row spells
        self.target_coords = tuple(target_coords)
        self.rows: list[AdjustedRow] = rows

    # -- derived quantities ------------------------------------------------------

    def row_vectors(self, row: AdjustedRow) -> list[GVec]:
        """The entries (sign * s e_{w1}, s e_{w2}, ..., s e_{wj}) of a row,
        built from its word, sign and scale; the layer-1 row is the target
        itself."""
        if row.is_zero:
            return [self.algebra.zero()] * self.arity
        if row.word is None:
            return [self.algebra.from_layer(1, self.target_coords)]
        s = row.scale
        coeffs = [s if row.sign > 0 else -s] + [s] * (self.arity - 1)
        return [
            self.algebra.basis_vector(1, letter).scale(c)
            for letter, c in zip(row.word, coeffs)
        ]

    def spelled_rows(self) -> list[AdjustedRow]:
        """The nonzero rows of the full tensor in the lex order of their
        words: each worded row and its :meth:`~AdjustedRow.partner`.  The
        path spells their commutators in this order, and a stage below the
        commuting layer folds their factors in it."""
        live = [row for row in self.rows if not row.is_zero]
        if self.arity == 1:
            return live
        return sorted(
            live + [row.partner() for row in live], key=lambda row: row.word
        )

    def row_norms(self) -> list[float]:
        """Layer-1 norm of the entries of each row, in row order.

        A zero row counts 0.0: it takes part in no bracket sum, commutator
        or path segment.  The layer-1 row is the target.  A worded row's
        entries, and its partner's, are +-s e_w, and layer 1 is orthonormal:
        they all have the norm s, measured once.
        """
        return [
            0.0 if row.is_zero
            else self.metric.layer_norm(1, self.target_coords)
            if row.word is None
            else row.norm
            for row in self.rows
        ]

    def measure(self) -> tuple[list[float], GVec]:
        """One pass over the rows: (row norms, commutator product), by one
        of three rules.

        The layer-1 row is the target.  A stage of layer j >=
        ``algebra.commuting_layer`` has factors in layers that bracket to
        zero, so they commute and their product is their sum
        (:func:`_commuting_sum`); the central stage, j = k, is the one
        such stage with no layer above j.  A lower stage folds the dilated
        factors delta_s(C(w, sign)) of its rows and partners pairwise, in
        word order.  A worded row and its partner share one split: the
        powers s, ..., s**k (:func:`scalar_powers`) and the row norm
        sqrt(s**2) are taken once per row.  Nothing is kept on the set:
        callers hold the result.
        """
        algebra = self.algebra
        if self.arity == 1:  # the one row is the target
            return self.row_norms(), self.row_vectors(self.rows[0])[0]
        if self.arity >= algebra.commuting_layer:
            return _commuting_sum(self.metric, self.arity, self.rows)
        norms, powers = [], {}
        for row in self.rows:
            if row.is_zero:
                norms.append(0.0)
                continue
            split = scalar_powers(row.scale, algebra.step)
            norms.append(math.sqrt(max(0.0, as_float(split[1]))))
            *u, a, b = row.word
            powers[row.word] = powers[(*u, b, a)] = split
        if not powers:
            return norms, algebra.zero()
        return norms, product_fold(algebra, [
            algebra.dilate_by_powers(
                powers[row.word], _word_commutator(algebra, row.word, row.sign)
            )
            for row in self.spelled_rows()
        ])

    def bracket_sum(self) -> GVec:
        """Sum over rows of the iterated Lie brackets."""
        out = self.algebra.zero()
        for row in self.spelled_rows():
            out = out + self.algebra.iterated_bracket(self.row_vectors(row))
        return out

    def combinatorial_length(self) -> float:
        """Total layer-1 norm of all entries: each row's norm once per
        entry of the row and of its partner."""
        return math.fsum(
            norm
            for norm in self.row_norms()
            for _ in range(self.copies * self.arity)
        )

    def layer_error_vectors(self) -> dict[int, tuple]:
        """Higher-layer components of the commutator product, by layer."""
        y = self.measure()[1]
        return {
            l: y.layer(l)
            for l in range(self.arity + 1, self.algebra.step + 1)
        }

    # -- verification ---------------------------------------------------------------

    def verify_conditions(self) -> dict:
        """Check the three adjusted-set conditions; raise on failure."""
        layer = self.arity
        target = self.algebra.from_layer(layer, self.target_coords)
        report: dict = {"arity": self.arity, "rows": self.algebra.dims[0] ** layer}

        if not (self.bracket_sum() - target).is_zero:
            raise CertificateFailure("bracket sum misses the target")
        report["sum_exact"] = True

        # Balance is exact: every entry of a row is +-s e_w with the row's
        # one scale s.
        report["balance_ok"] = True

        if self.arity >= 2:
            total = Fraction(0)
            for row in self.spelled_rows():
                total = (row.alpha * row.alpha) + total
            quad = self.metric.layer_quadform(layer, self.target_coords)
            delta = total - quad
            if delta:
                raise CertificateFailure("exact norm condition fails")
            report["norm_exact"] = True
        # the float of the exact form that the norm condition checks
        report["norm_value"] = self.metric.layer_norm(layer, self.target_coords)
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
    coordinates, read exactly; a wrong coordinate count is a ParseError.
    Deterministic: rows follow lex order on pair words."""
    if not 1 <= layer <= algebra.step:
        raise LayerOutOfRange(f"layer {layer} outside 1..{algebra.step}")
    coords = [to_exact(c) for c in coords]
    if len(coords) != algebra.dims[layer - 1]:
        raise ParseError(
            f"layer {layer} needs {algebra.dims[layer - 1]} coordinates"
        )
    if layer == 1:
        sign = 1 if any(coords) else 0
        head = AdjustedRow(None, None, (sign, metric.layer_norm(1, coords)))
        return HorizontalSet(algebra, metric, 1, coords, [head])
    preimage = metric.minimal_preimage(layer, coords)
    words = pair_words(algebra.dims[0], layer)
    rows = [AdjustedRow(word, alpha) for word, alpha in zip(words, preimage)]
    return HorizontalSet(algebra, metric, layer, coords, rows)


def _commuting_sum(metric: PoppMetric, layer, rows) -> tuple[list[float], GVec]:
    """(row norms, product) of a stage of layer j >= the commuting layer:
    the sum of its factors, per coordinate one ``lincomb``.  In layer j a
    row and its partner add 2 alpha [w], the terms (2 M_j[o, w], alpha)
    read off column w of Popp's tensor map M_j
    (``metric.bracket_matrices[j]``); a row's own word picks the column, so
    its factor is the one its segments multiply to.  Above j they add
    delta_s of C(w, sign) + C(w', -sign) (:func:`_word_commutator`), the
    terms (c, s**l) of its coordinates c in layer l.  The central stage,
    j = k, has no layer above j: it splits no row and reads no memo entry,
    and its row norms come from alpha alone (``root_norm``)."""
    algebra = metric.algebra
    step, d1 = algebra.step, algebra.dims[0]
    matrix = metric.bracket_matrices[layer]
    columns = [[] for _ in range(algebra.dim)]
    top = algebra.offsets[layer]
    lowest, above = columns[algebra.offsets[layer - 1]:top], columns[top:]
    norms = []
    for row in rows:
        if row.is_zero:
            norms.append(0.0)
            continue
        col = 0
        for letter in row.word:
            col = col * d1 + letter
        for terms, m_row in zip(lowest, matrix):
            if m_row[col]:
                terms.append((2 * m_row[col], row.alpha))
        if layer == step:
            norms.append(row.norm)
            continue
        powers = scalar_powers(row.scale, step)
        norms.append(math.sqrt(max(0.0, as_float(powers[1]))))
        pair = _word_commutator(algebra, row.word, row.sign, True).coords()
        for terms, c, l in zip(above, pair[top:], algebra.layer_of[top:]):
            if c:
                terms.append((c, powers[l - 1]))
    return norms, GVec(algebra, map(_rational_lincomb, columns))


def _rational_lincomb(terms):
    """sum(c * x for c, x in terms) for rationals c, normalised once: with
    no term a shared zero, with one term the product c * x."""
    if not terms:
        return _ZERO
    if len(terms) == 1:
        ((c, x),) = terms
        return c * x
    lcd = math.lcm(*(c.denominator for c, _ in terms))
    return lincomb(
        ((c.numerator * (lcd // c.denominator), x) for c, x in terms), lcd
    )


def _word_commutator(algebra: GradedAlgebra, word, sign, pair=False) -> GVec:
    """C(word, sign) = [sign e_{w0}, C(word[1:], +)]_c ([sign e_{w0}, e_{w1}]_c
    for two letters), built on its suffix's entry; with ``pair``, the sum
    C(w, sign) + C(w', -sign) for the partner word w' = (u, b, a) of
    w = (u, a, b), a row's factor at unit scale on a stage whose factors
    commute.  Memoised on the algebra under (word, sign > 0), or (word,
    sign > 0, "pair") with the two commutators not kept: certificates read
    the words of the stages that fold, the pairs of the stages that sum and
    the suffixes of both, at most two entries per word; the central stage
    reads none.  The lock is never held across a build."""
    key = (word, sign > 0, "pair") if pair else (word, sign > 0)
    table = algebra.word_commutators
    with _cache_lock:
        hit = table.get(key)
    if hit is None:
        hit = _commutator_on_suffix(algebra, word, sign)
        if pair:
            *u, a, b = word
            hit = hit + _commutator_on_suffix(algebra, (*u, b, a), -sign)
        with _cache_lock:
            hit = table.setdefault(key, hit)
    return hit


def _commutator_on_suffix(algebra: GradedAlgebra, word, sign) -> GVec:
    """C(word, sign) built afresh on its suffix's memoised entry."""
    head = algebra.basis_vector(1, word[0])
    tail = (
        algebra.basis_vector(1, word[1])
        if len(word) == 2
        else _word_commutator(algebra, word[1:], 1)
    )
    return group_commutator(algebra, head if sign > 0 else -head, tail)


class AdjustedTuple:
    """Per-layer horizontal sets reconstructing a full vector exactly: the
    one place where a certificate's stages are measured and folded, and the
    certificate itself, the letter program of a horizontal path.

    ``endpoint`` and ``length`` are None until :meth:`verify_reconstruction`
    has checked the last prefix against the target.
    """

    def __init__(self, algebra, metric, target, sets=()):
        self.algebra: GradedAlgebra = algebra
        self.metric: PoppMetric = metric
        self.target: GVec = target
        self.sets: list[HorizontalSet] = []
        self.norms: list[list[float]] = []  # row norms of each stage
        self.prefixes: list[GVec] = []  # product of the first j stages
        self.endpoint: GVec | None = None
        self.length: float | None = None
        for stage in sets:
            self.add_stage(stage)

    def add_stage(self, stage: HorizontalSet) -> GVec:
        """Measure a stage, fold its product into the running prefix and
        return the new prefix.

        The central stage, of arity k, the step, is the commuting stage
        with no layer above it: its product y lives in layer k alone, which
        is central, so prefix * y = prefix + y, with no group product, and
        the sum keeps the prefix's coordinates where y is zero, all those
        below layer k.  A stage of lower arity folds through the group
        law."""
        norms, y = stage.measure()
        prefix = y
        if self.prefixes:
            prefix = self.prefixes[-1]
            if stage.arity == self.algebra.step:
                prefix = prefix + y
            elif not y.is_zero:
                prefix = bch_product(self.algebra, prefix, y)
        self.sets.append(stage)
        self.norms.append(norms)
        self.prefixes.append(prefix)
        self.endpoint = self.length = None
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
        """Exact check that the stage products rebuild the target.

        On success the last prefix becomes the endpoint of the path, and
        its length each row norm measured by :meth:`add_stage` once per
        letter of the row's commutator word and of its partner's, added
        exactly, rounded once.
        """
        if not self.prefixes or self.prefixes[-1] != self.target:
            raise CertificateFailure("stage products do not rebuild the target")
        self.endpoint = self.prefixes[-1]
        self.length = math.fsum(
            norm
            for stage, norms in zip(self.sets, self.norms)
            for norm in norms
            for _ in range(stage.copies * letter_count(stage.arity))
        )

    # -- the path ------------------------------------------------------------------

    @property
    def segments(self) -> list[GVec]:
        """The horizontal segments in order, built afresh on each access."""
        return [
            seg
            for stage in self.sets
            for row in stage.spelled_rows()
            for seg in row_segments(stage, row)
        ]

    @property
    def segment_count(self) -> int:
        """Number of segments, counted without building them."""
        return sum(
            stage.copies
            * letter_count(stage.arity)
            * sum(not row.is_zero for row in stage.rows)
            for stage in self.sets
        )

    def waypoints(self) -> list[GVec]:
        """Endpoint after each segment: the exact prefix products."""
        out: list[GVec] = []
        for seg in self.segments:
            out.append(product_fold(self.algebra, [out[-1], seg]) if out else seg)
        return out

    def __repr__(self):
        return (
            f"AdjustedTuple(algebra={self.algebra.name},"
            f" stages={len(self.sets)})"
        )


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


def adjust_tuple(
    algebra: GradedAlgebra, metric: PoppMetric, target: GVec
) -> AdjustedTuple:
    """Stagewise decomposition of a full vector with error-corrected targets:
    stage j adjusts to layer j of the target minus layer j of the prefix.  A
    target coordinate over a zero prefix coordinate, every one of stages 1
    and 2, is kept as it is."""
    tup = AdjustedTuple(algebra, metric, target)
    prefix = algebra.zero()
    for j in range(1, algebra.step + 1):
        coords = [
            z - b if b else z for z, b in zip(target.layer(j), prefix.layer(j))
        ]
        stage = adjust_to_layer_vector(algebra, metric, coords, j)
        prefix = tup.add_stage(stage)
    tup.verify_reconstruction()
    return tup


def certified_dcc_upper(
    algebra: GradedAlgebra, metric: PoppMetric, target: GVec
) -> tuple[AdjustedTuple, float]:
    """The checked decomposition of the target, a horizontal path ending
    exactly at it; bound = its length."""
    tup = adjust_tuple(algebra, metric, target)
    return tup, tup.length


def cc_lower_bound(metric: PoppMetric, x: GVec) -> float:
    """Layer-1 norm of the element: the abelianized distance lower bound."""
    return metric.layer_norm(1, x.layer(1))


@lru_cache(maxsize=None)
def signature_constants(step: int) -> tuple[Fraction, ...]:
    """c_1..c_step with c_j = sum_m (1/m) [x^j] (e^x - 1)**m, the
    coefficients of -log(2 - e^x): 1, 1, 1, 13/12, 5/4 for j <= 5.  Built
    once per step: every systole report after the first one of its step
    finds them here."""
    # power series in x, coefficients of x^0..x^step
    e = [Fraction(0)] + [Fraction(1, math.factorial(j)) for j in range(1, step + 1)]
    power, total = e, e
    for m in range(2, step + 1):
        power = [sum(power[i] * e[j - i] for i in range(j)) for j in range(step + 1)]
        total = [t + Fraction(p, m) for t, p in zip(total, power)]
    return tuple(total[1:])


def signature_lower_bounds(
    metric: PoppMetric, dens, rows
) -> list[tuple[float, ...]]:
    """Per element Z, given as a row of integer numerators of its flat
    coordinates, layer j over the denominator ``dens[j - 1]`` of every
    row, the distance lower bounds (j |Z_j|_j / c_j)**(1/j) of its layers
    j = 1..k; the first is :func:`cc_lower_bound`, the largest is the
    signature bound.

    A horizontal path of length L has signature levels ||S_i|| <= L**i / i!
    (Chen's iterated integrals), so its log has layer-j tensor norm at most
    c_j L**j, and by Dynkin-Specht-Wever (1/j) times that tensor is a
    bracket preimage of Z_j: |Z_j|_j <= c_j L**j / j.  Each layer of each
    row is measured once, in integers: its form
    (:meth:`PoppMetric.gram_forms`) over g_den den_j^2, correctly rounded by
    true division, so |Z_j|_j is the float that :meth:`PoppMetric.layer_norm`
    gives for the rational coordinates, whatever the dens are.  A form
    beyond the float range raises FloatOverflow.  The terms are floats.
    """
    rows = list(rows)
    offsets = metric.algebra.offsets
    columns = []
    for j, c in enumerate(signature_constants(metric.algebra.step), start=1):
        scale = metric.gram_denominator(j) * dens[j - 1] ** 2
        c, root = float(c), 1.0 / j
        columns.append([
            (j * math.sqrt(max(0.0, float_quotient(form, scale))) / c) ** root
            for form in metric.gram_forms(
                j, [row[offsets[j - 1]:offsets[j]] for row in rows]
            )
        ])
    return list(zip(*columns))
