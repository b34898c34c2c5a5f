"""Independent oracles used by the tests.

Matrix oracles: faithful unitriangular representations of the two main
fixtures with exact nilpotent exp/log, giving a group-law reference that
shares no code with the series engine.  Least-squares oracles: numpy
pseudoinverse solves for minimal-norm preimages.  Both are deliberately
dumb and direct.  A path given as bare segments is checked horizontal,
folded and measured letter by letter; a stage's commutator product is the
pairwise fold of its dilated row factors; a box volume is the product of
ball volumes.  The Fraction tie key, the double-loop quadratic form, the
signature bound by ``layer_norm`` per layer and the systole search by
``bch_product`` on vectors are the plain definitions that the integer
kernels must reproduce, and the radical ring by Fraction coefficients, one
monomial at a time, is the reference for its integer numerators over one
denominator.  The integer ball and signature kernels are reached from
vectors through :func:`ball_vectors` and :func:`integer_rows`.  The
coefficient tables' integer kernel is checked against the Fraction series
construction it replaced: a product of ``exp_series`` factors, commutators
through :func:`inverse_series`, and ``log_series``.  The same
:class:`FreeSeries` brackets the Lyndon basis for the free algebras'
structure constants and expands -log(2 - e^x) for the signature constants.
Radicals are evaluated at 60 digits with :mod:`decimal`
(:func:`decimal_value`), and recorded as their constructor makes them
(:func:`created_radicals`), so a test sees radicals that have died since.
The integer elimination behind rank, determinant and inverse is checked
against the dense Fraction Gauss-Jordan it replaced (:func:`rank_oracle`,
:func:`det_oracle`, :func:`inv_oracle`).  Popp's tensor maps, built by the
recursion M_j = B_j (I (x) M_(j-1)), are checked against the j-fold
bracket of every lex word of layer-1 letters
(:func:`tensor_bracket_oracle`), their Grams against the oracle inverse of
M M^T, and a minimal preimage is mapped back by a plain matrix product
(:func:`mat_vec`).  A set keeps one row per pair word (u, a, b), a < b;
its full tensor of rows (:func:`full_rows`) and of preimage coefficients
(:func:`expand_pairs`) is spelled out by the antisymmetry, and compared
with M^T G v over every word (:func:`full_preimage_oracle`).  The compiled
group law is checked against the same compile over every basis tuple of
total layer <= k (:func:`basis_tuples`), with every basis bracket a dense
``GVec`` (:func:`dense_group_law`), and each memoised word commutator
against its letter-by-letter fold (:func:`letter_fold_commutator`, the
:func:`iterated_group_commutator` of its letters).  A coefficient table is
checked by substituting vectors into its words (:func:`substitute`).  The
homogeneity tests dilate a vector (:func:`dilate_vector`), rescale a set
row by row (:func:`rescale`) and dilate a path stage by stage
(:func:`dilate`), no command needing any of them, and compare the lengths
measured after with the lengths before (:func:`assert_scaled_length`).
The command line's one-pass parser is checked against the argparse tree
it replaced (:func:`argparse_oracle`).
"""

from __future__ import annotations

import contextlib
import math
import os
import random
from argparse import ArgumentParser, ArgumentTypeError
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from carnotcert import cli_reports, scalars
from carnotcert.adjustment import (
    AdjustedRow,
    AdjustedTuple,
    HorizontalSet,
    certified_dcc_upper,
    signature_constants,
)
from carnotcert.bch_engine import (
    GroupLaw,
    bch_product,
    beta_table,
    group_commutator,
    product_fold,
)
from carnotcert.graded_algebra import GradedAlgebra, GVec
from carnotcert.lattice_systole import KEY_MARGIN, integer_ball
from carnotcert.popp_metric import box_volume_parts
from carnotcert.ratlinalg import clear_denominators
from carnotcert.scalars import RadExpr
from carnotcert.words import EMPTY, Word, dsw_entries, standard_factorization


# -- exact nilpotent matrix arithmetic ----------------------------------------


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_eye(n):
    return [
        [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]


def mat_zero(n):
    return [[Fraction(0)] * n for _ in range(n)]


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def mat_exp_nilpotent(m):
    """exp of a nilpotent Fraction matrix, exact."""
    n = len(m)
    out = mat_eye(n)
    term = mat_eye(n)
    for i in range(1, n + 1):
        term = mat_scale(mat_mul(term, m), Fraction(1, i))
        if is_zero(term):
            break
        out = mat_add(out, term)
    return out


def mat_log_unitriangular(g):
    """log of a unitriangular Fraction matrix, exact."""
    n = len(g)
    nil = mat_add(g, mat_scale(mat_eye(n), Fraction(-1)))
    out = mat_zero(n)
    term = mat_eye(n)
    for i in range(1, n + 1):
        term = mat_mul(term, nil)
        if is_zero(term):
            break
        out = mat_add(out, mat_scale(term, Fraction((-1) ** (i + 1), i)))
    return out


# -- dense Fraction Gauss-Jordan ------------------------------------------------


def _gauss_jordan(rows, ncols: int):
    """In-place Gauss-Jordan over Fractions with a first-nonzero pivot,
    every pivot row scaled to 1; returns (rank, product of pivots, or 0
    when a column has no pivot)."""
    rank = 0
    det = Fraction(1)
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        det *= rows[rank][col]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank, det


def rank_oracle(a) -> int:
    rows = [[Fraction(x) for x in row] for row in a]
    return _gauss_jordan(rows, len(rows[0]))[0] if rows else 0


def det_oracle(a) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in a]
    rank, det = _gauss_jordan(rows, len(rows))
    return det if rank == len(rows) else Fraction(0)


def inv_oracle(a):
    """The inverse of a square matrix, by Gauss-Jordan on [a | I]; a
    singular one raises ZeroDivisionError."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + eye for row, eye in zip(a, mat_eye(n))]
    if _gauss_jordan(rows, n)[0] != n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


# -- fixture representations ---------------------------------------------------


def heisenberg_mat(v: GVec):
    """3x3 unitriangular image: X1 -> E12, X2 -> E23, X3 -> E13."""
    a, b, c = v.coords()
    m = mat_zero(3)
    m[0][1] = Fraction(a)
    m[1][2] = Fraction(b)
    m[0][2] = Fraction(c)
    return m


def heisenberg_unmat(algebra: GradedAlgebra, m) -> GVec:
    return algebra.vector([m[0][1], m[1][2], m[0][2]], exact=True)


def engel_mat(v: GVec):
    """4x4 unitriangular image: X1 -> E12+E23+E34, X2 -> E34, X3 -> E24,
    X4 -> E14 (brackets: [X1,X2]=X3, [X1,X3]=X4, rest zero)."""
    a, b, c, d = v.coords()
    m = mat_zero(4)
    m[0][1] = Fraction(a)
    m[1][2] = Fraction(a)
    m[2][3] = Fraction(a) + Fraction(b)
    m[1][3] = Fraction(c)
    m[0][3] = Fraction(d)
    return m


def engel_unmat(algebra: GradedAlgebra, m) -> GVec:
    a = m[0][1]
    assert m[1][2] == a, "not in the embedded subalgebra"
    assert m[0][2] == 0, "not in the embedded subalgebra"
    return algebra.vector([a, m[2][3] - a, m[1][3], m[0][3]], exact=True)


MATRIX_ORACLES = {
    "heisenberg(1)": (heisenberg_mat, heisenberg_unmat),
    "engel": (engel_mat, engel_unmat),
}


def matrix_bch(algebra: GradedAlgebra, x: GVec, y: GVec) -> GVec:
    """Group product through the matrix representation, exact."""
    to_mat, from_mat = MATRIX_ORACLES[algebra.name]
    g = mat_mul(mat_exp_nilpotent(to_mat(x)), mat_exp_nilpotent(to_mat(y)))
    return from_mat(algebra, mat_log_unitriangular(g))


# -- the group law by dense brackets --------------------------------------------


def dense_group_law(algebra: GradedAlgebra) -> GroupLaw:
    """The compiled two-factor law with every basis bracket formed as a
    dense ``GVec`` by ``iterated_bracket``: beta_table(2, k) expanded
    multilinearly over the basis, each table word (w_1, ..., w_p) with
    coefficient c contributing, for every basis tuple (a_1, ..., a_p) of
    total layer <= k, the monomial prod_i v_{w_i}[a_i] times
    c * [e_{a_1}, [..., e_{a_p}]]; slots and graded integers as in
    :class:`GroupLaw`."""
    n = algebra.dim
    basis = [
        algebra.basis_vector(layer, i)
        for layer, d in enumerate(algebra.dims, start=1)
        for i in range(d)
    ]
    layer_of = [
        layer for layer, d in enumerate(algebra.dims, start=1) for _ in range(d)
    ]
    brackets: dict = {}
    polys: list[dict] = [{} for _ in range(n)]
    table = beta_table(2, algebra.step)
    for word in sorted(table.entries):
        coeff = table.entries[word]
        for idx in basis_tuples(layer_of, len(word), algebra.step):
            vec = brackets.get(idx)
            if vec is None:
                vec = brackets[idx] = algebra.iterated_bracket(
                    [basis[a] for a in idx]
                )
            mono = tuple(sorted((w - 1) * n + a for w, a in zip(word, idx)))
            for o, b in enumerate(vec.coords()):
                if b:
                    poly = polys[o]
                    poly[mono] = poly.get(mono, Fraction(0)) + coeff * b
    scale = math.lcm(*[c.denominator for poly in polys for c in poly.values()])
    slot_of = {(v,): v for v in range(2 * n)}
    prefixes: list = []
    powers = [1] * (2 * n)
    graded = []
    for poly in polys:
        monos = [mono for mono in sorted(poly) if poly[mono]]
        for mono in monos:
            for end in range(2, len(mono) + 1):
                if mono[:end] not in slot_of:
                    slot_of[mono[:end]] = 2 * n + len(prefixes)
                    prefixes.append((slot_of[mono[: end - 1]], mono[end - 1]))
                    powers.append(scale ** (end - 1))
        graded.append(tuple(
            (int(poly[mono] * scale ** (len(mono) - 1)), slot_of[mono])
            for mono in monos
        ))
    return GroupLaw(tuple(prefixes), tuple(graded), scale, tuple(powers))


def basis_tuples(layer_of, length: int, budget: int):
    """Every basis index tuple of the given length with total layer <=
    budget, whether or not its bracket vanishes."""
    if length == 0:
        yield ()
        return
    for a, layer in enumerate(layer_of):
        if layer + length - 1 <= budget:
            for rest in basis_tuples(layer_of, length - 1, budget - layer):
                yield (a,) + rest


def iterated_group_commutator(algebra: GradedAlgebra, elements) -> GVec:
    """Right-nested group commutator [x_1, [x_2, [...]]]_c of two or more
    elements, one group commutator at a time."""
    *heads, out = elements
    for x in reversed(heads):
        out = group_commutator(algebra, x, out)
    return out


def substitute(table, algebra: GradedAlgebra, vectors) -> GVec:
    """sum_w entries[w] * [v_{w_1}, ..., v_{w_p}]: a coefficient table with
    the vectors substituted into its right-nested words directly."""
    out = algebra.zero()
    for word in sorted(table.entries):
        term = algebra.iterated_bracket([vectors[i - 1] for i in word])
        out = out + term.scale(table.entries[word])
    return out


def letter_fold_commutator(algebra: GradedAlgebra, word, sign) -> GVec:
    """C(word, sign) folded letter by letter: the iterated group commutator
    of (sign e_{w0}, e_{w1}, ..., e_{wj})."""
    letters = [algebra.basis_vector(1, i) for i in word]
    if sign < 0:
        letters[0] = -letters[0]
    return iterated_group_commutator(algebra, letters)


# -- coefficient tables by Fraction series ---------------------------------------


class FreeSeries:
    """Noncommutative polynomial truncated at total degree ``cap``."""

    __slots__ = ("terms", "cap")

    def __init__(self, terms: dict[Word, Fraction], cap: int):
        self.terms = {w: c for w, c in terms.items() if c and len(w) <= cap}
        self.cap = cap

    @staticmethod
    def zero(cap: int) -> "FreeSeries":
        return FreeSeries({}, cap)

    @staticmethod
    def unit(cap: int) -> "FreeSeries":
        return FreeSeries({EMPTY: Fraction(1)}, cap)

    @staticmethod
    def letter(i: int, cap: int) -> "FreeSeries":
        return FreeSeries({(i,): Fraction(1)}, cap)

    def __add__(self, other: "FreeSeries") -> "FreeSeries":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                del out[w]
        return FreeSeries(out, self.cap)

    def __neg__(self) -> "FreeSeries":
        return FreeSeries({w: -c for w, c in self.terms.items()}, self.cap)

    def __sub__(self, other: "FreeSeries") -> "FreeSeries":
        return self + (-other)

    def scale(self, q) -> "FreeSeries":
        q = Fraction(q)
        if not q:
            return FreeSeries.zero(self.cap)
        return FreeSeries({w: q * c for w, c in self.terms.items()}, self.cap)

    def __mul__(self, other: "FreeSeries") -> "FreeSeries":
        cap = self.cap
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            room = cap - len(w1)
            for w2, c2 in other.terms.items():
                if len(w2) > room:
                    continue
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
        return FreeSeries(out, cap)

    def commutator(self, other: "FreeSeries") -> "FreeSeries":
        return self * other - other * self

    def __eq__(self, other):
        return isinstance(other, FreeSeries) and self.terms == other.terms

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
        return "FreeSeries({})".format(
            ", ".join(f"{w}: {c}" for w, c in items) or "0"
        )


def exp_series(u: FreeSeries) -> FreeSeries:
    """exp of a series with zero constant term."""
    if EMPTY in u.terms:
        raise ValueError("exp needs a series with no constant term")
    out = FreeSeries.unit(u.cap)
    power = FreeSeries.unit(u.cap)
    for m in range(1, u.cap + 1):
        power = power * u
        if not power.terms:
            break
        out = out + power.scale(Fraction(1, math.factorial(m)))
    return out


def log_series(g: FreeSeries) -> FreeSeries:
    """log of a series with constant term 1."""
    if g.terms.get(EMPTY) != 1:
        raise ValueError("log needs constant term 1")
    u = g - FreeSeries.unit(g.cap)
    out = FreeSeries.zero(g.cap)
    power = FreeSeries.unit(g.cap)
    for m in range(1, g.cap + 1):
        power = power * u
        if not power.terms:
            break
        out = out + power.scale(Fraction((-1) ** (m + 1), m))
    return out


def right_nested_series(word: Word, cap: int) -> FreeSeries:
    """[w0, [w1, [... wn]]] as an associative polynomial."""
    if not word:
        raise ValueError("empty bracket word")
    series = FreeSeries.letter(word[-1], cap)
    for letter in reversed(word[:-1]):
        series = FreeSeries.letter(letter, cap).commutator(series)
    return series


@lru_cache(maxsize=None)
def lyndon_basis_series(word: Word, cap: int) -> FreeSeries:
    """Standard bracketing of a Lyndon word, one series commutator per
    factorization.  Shared from a cache: callers must not change it."""
    if len(word) == 1:
        return FreeSeries.letter(word[0], cap)
    u, v = standard_factorization(word)
    return lyndon_basis_series(u, cap).commutator(lyndon_basis_series(v, cap))


def inverse_series(g: FreeSeries) -> FreeSeries:
    """Multiplicative inverse of a series with constant term 1."""
    if g.terms.get(EMPTY) != 1:
        raise ValueError("inverse needs constant term 1")
    u = g - FreeSeries.unit(g.cap)
    out = FreeSeries.unit(g.cap)
    power = FreeSeries.unit(g.cap)
    for _ in range(1, g.cap + 1):
        power = power * (-u)
        if not power.terms:
            break
        out = out + power
    return out


def series_log_of_exp_product(factors, cap: int) -> FreeSeries:
    """log of prod_t exp(s_t X_{a_t}), multiplied out in Fraction series."""
    product = FreeSeries.unit(cap)
    for a, s in factors:
        product = product * exp_series(FreeSeries.letter(a, cap).scale(s))
    return log_series(product)


def series_beta_entries(n_factors: int, step: int) -> dict:
    """The N-factor product table: log of exp(X_1) ... exp(X_N)."""
    lie = series_log_of_exp_product([(i, 1) for i in range(n_factors)], step)
    return {tuple(i + 1 for i in w): c for w, c in dsw_entries(lie.terms).items()}


def series_gamma_entries(arity: int, step: int) -> dict:
    """The iterated group commutator's tail, one series commutator
    u v u^-1 v^-1 at a time."""
    group = exp_series(FreeSeries.letter(arity - 1, step))
    for i in range(arity - 2, -1, -1):
        u = exp_series(FreeSeries.letter(i, step))
        group = u * group * inverse_series(u) * inverse_series(group)
    tail = log_series(group) - right_nested_series(tuple(range(arity)), step)
    return {tuple(i + 1 for i in w): c for w, c in dsw_entries(tail.terms).items()}


# -- tensor bracket maps word by word -------------------------------------------


def tensor_bracket_oracle(algebra: GradedAlgebra, layer: int):
    """Matrix of the layer-fold bracket map V_1^(x)layer -> V_layer: column w,
    for the words w over the layer-1 basis in lex order, holds the
    right-nested bracket [e_w1, [e_w2, [..., e_wlayer]]]."""
    cols = [
        algebra.iterated_bracket([algebra.basis_vector(1, i) for i in w]).layer(layer)
        for w in tensor_words(algebra.dims[0], layer)
    ]
    return tuple(
        tuple(col[r] for col in cols) for r in range(algebra.dims[layer - 1])
    )


def mat_vec(a, v) -> list:
    """a @ v by one product and one sum per nonzero entry; v entries may be
    Fractions or RadExprs."""
    out = []
    for row in a:
        acc = None
        for coeff, entry in zip(row, v):
            if coeff == 0:
                continue
            term = coeff * entry
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else Fraction(0))
    return out


def full_preimage_oracle(metric, layer: int, coords) -> list:
    """u = M^T G v over all d1**layer words in lex order, by plain matrix
    products of ``metric.bracket_matrices[layer]`` and
    ``metric.grams[layer]``: the least-norm tensor preimage of v by the
    normal equations, with no row left out."""
    m, gram = metric.bracket_matrices[layer], metric.grams[layer]
    gv = mat_vec(gram, [Fraction(c) for c in coords])
    return mat_vec(tuple(zip(*m)), gv)


def tensor_words(d1: int, layer: int) -> list[tuple]:
    """All words of the given length over d1 letters, in lex order."""
    words = [()]
    for _ in range(layer):
        words = [w + (i,) for w in words for i in range(d1)]
    return words


def expand_pairs(coeffs, d1: int, layer: int) -> list:
    """The full d1**layer tensor of per-pair coefficients, one for each
    word (u, a, b), a < b, in lex order: alpha at (u, a, b), -alpha at
    (u, b, a) and 0 at (u, a, a)."""
    words = tensor_words(d1, layer)
    by_pair = dict(zip([w for w in words if w[-2] < w[-1]], coeffs, strict=True))
    return [
        by_pair[w] if w[-2] < w[-1]
        else -by_pair[(*w[:-2], w[-1], w[-2])] if w[-2] > w[-1]
        else Fraction(0)
        for w in words
    ]


def full_rows(stage) -> list[AdjustedRow]:
    """The nonzero rows of a set's full d1**j tensor, in lex order of
    words, spelled out from its rows by the definition: row (u, a, b),
    a < b, at its word and, with the opposite sign and the same scale, at
    (u, b, a); the words (u, a, a) are zero.  A layer-1 set gives its one
    row."""
    if stage.arity == 1:
        return [r for r in stage.rows if not r.is_zero]
    rows = {r.word: r for r in stage.rows}
    out = []
    for word in tensor_words(stage.algebra.dims[0], stage.arity):
        *u, a, b = word
        if a == b:
            continue
        r = rows[word] if a < b else rows[(*u, b, a)]
        if not r.is_zero:
            out.append(signed_row(word, r.sign if a < b else -r.sign, r.scale))
    return out


# -- least-squares oracle -------------------------------------------------------


def lstsq_min_norm(matrix_rows, target) -> np.ndarray:
    """Minimal-Euclidean-norm solution of M u = v via the pseudoinverse."""
    m = np.array([[float(x) for x in row] for row in matrix_rows])
    v = np.array([float(x) for x in target])
    return np.linalg.pinv(m) @ v


# -- bare-segment paths ------------------------------------------------------------


def is_horizontal(v: GVec) -> bool:
    """Whether every coordinate above layer 1 is exactly zero."""
    return not any(v.coords()[v.algebra.dims[0]:])


def box_volume(dims, radii) -> float:
    """Volume of the product of per-layer balls with the given radii."""
    frac, pi_exp = box_volume_parts(dims, radii)
    return float(frac) * math.pi ** pi_exp


def fold_and_measure(algebra: GradedAlgebra, metric, segments) -> tuple[GVec, float]:
    """(endpoint, length) of a path given as segments: each segment must be
    horizontal; the endpoint is their exact group product and the length
    the fsum of their layer-1 norms."""
    segments = list(segments)
    assert all(is_horizontal(seg) for seg in segments), "segment not horizontal"
    endpoint = product_fold(algebra, segments) if segments else algebra.zero()
    length = math.fsum(metric.layer_norm(1, seg.layer(1)) for seg in segments)
    return endpoint, length


def folded_stage_product(stage) -> GVec:
    """Commutator product of a horizontal set by the pairwise fold: each
    nonzero row of its full tensor (:func:`full_rows`) has the commutator
    C(w, sign) of its unit-scale signed letters, dilated by the row scale,
    and the dilated factors are multiplied left to right with
    ``product_fold``; the layer-1 row is its entry."""
    algebra = stage.algebra
    factors = []
    for row in full_rows(stage):
        if row.word is None:
            factors.append(stage.row_vectors(row)[0])
            continue
        word = letter_fold_commutator(algebra, row.word, row.sign)
        powers = [row.scale ** j for j in range(1, algebra.step + 1)]
        factors.append(algebra.dilate_by_powers(powers, word))
    return product_fold(algebra, factors) if factors else algebra.zero()


# -- homogeneity: rescaled rows and dilated paths -----------------------------------


def signed_row(word, sign, scale) -> AdjustedRow:
    """The row (sign * s e_{w1}, s e_{w2}, ..., s e_{wj}) given by its sign
    and scale s, with its coefficient alpha = sign * s**j."""
    return AdjustedRow(word, sign * scale ** len(word), (sign, scale))


def rescale(stage: HorizontalSet, t) -> HorizontalSet:
    """Row-wise rescale of a set by t > 0, realizing the target t**j * Z_j:
    each row keeps its word and sign, with the scale t * s, and its row
    norms are measured afresh: its combinatorial length is t times the
    set's exactly for a power-of-two t, and within rounding otherwise."""
    t = Fraction(t)
    rows = [
        AdjustedRow(None, None, (r.sign, r.scale * t))
        if r.word is None
        else signed_row(r.word, r.sign, r.scale * t)
        for r in stage.rows
    ]
    coords = tuple(c * t ** stage.arity for c in stage.target_coords)
    return HorizontalSet(stage.algebra, stage.metric, stage.arity, coords, rows)


def dilate_vector(algebra: GradedAlgebra, t, v: GVec) -> GVec:
    """Graded dilation of v by a rational t: layer j scales by t**j, through
    the algebra's dilate_by_powers."""
    t = Fraction(t)
    return algebra.dilate_by_powers([t ** j for j in range(1, algebra.step + 1)], v)


def dilate(tup: AdjustedTuple, t) -> AdjustedTuple:
    """Row-wise rescale of every stage by t > 0, realizing the dilated
    target; checked exactly, with the length it measures from its rows."""
    t = Fraction(t)
    out = AdjustedTuple(
        tup.algebra, tup.metric, dilate_vector(tup.algebra, t, tup.target),
        [rescale(s, t) for s in tup.sets],
    )
    out.verify_reconstruction()
    return out


def assert_scaled_length(measured: float, t, length: float) -> None:
    """A length measured after a rescale by t > 0 against t times the length
    before: bit for bit for a power-of-two t, as every row norm and their
    sum then scale exactly, and within 2 ulps otherwise, where each norm is
    rounded afresh (the largest gap over 240 seeded targets on heisenberg,
    engel, free_nilpotent(2,3) and (2,4) for t in {3, 5/3})."""
    t = Fraction(t)
    expected = float(t) * length
    if t.numerator.bit_count() == t.denominator.bit_count() == 1:
        assert measured == expected
    else:
        assert abs(measured - expected) <= 2 * math.ulp(expected)


# -- plain Fraction definitions ----------------------------------------------------


def fraction_tie_key(v: GVec) -> tuple:
    """Ball-order tie key of an element: (|c|, 0 or 1 for the sign) per
    coordinate, compared as Fractions."""
    return tuple((abs(c), 0 if c >= 0 else 1) for c in v.coords())


def quadform_oracle(gram, coords):
    """sum_ij g_ij c_i c_j over every entry of the Gram matrix."""
    n = len(coords)
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            total = total + gram[i][j] * (coords[i] * coords[j])
    return total


# -- vectors to and from the integer kernels ------------------------------------------


def ball_vectors(lattice, radius: int) -> list[tuple[GVec, str]]:
    """The elements of ``integer_ball`` as (vector, word) pairs, in ball
    order, each layer's numerators read over that layer's denominator."""
    dens, elements, words, _ = integer_ball(lattice, radius)
    coord_dens = [dens[l - 1] for l in lattice.algebra.layer_of]
    return [
        (
            lattice.algebra.vector(
                [Fraction(m, d) for m, d in zip(nums, coord_dens)]
            ),
            word,
        )
        for nums, word in zip(elements, words)
    ]


def integer_rows(vectors) -> tuple[list[int], list[tuple[int, ...]]]:
    """(dens, rows): the flat coordinates of nonempty rational vectors as
    integer numerators, layer l over dens[l - 1], the least common
    denominator of that layer's coordinates in every vector."""
    vectors = list(vectors)
    algebra = vectors[0].algebra
    dens = [
        clear_denominators(c for v in vectors for c in v.layer(l))[0]
        for l in range(1, algebra.step + 1)
    ]
    coord_dens = [dens[l - 1] for l in algebra.layer_of]
    return dens, [
        tuple(int(c * d) for c, d in zip(v.coords(), coord_dens))
        for v in vectors
    ]


def signature_terms(metric, vec: GVec) -> tuple[float, ...]:
    """(j |Z_j|_j / c_j)**(1/j) for j = 1..k, each layer measured on its own
    by ``layer_norm``."""
    constants = signature_constants(metric.algebra.step)
    return tuple(
        (j * metric.layer_norm(j, vec.layer(j)) / float(c)) ** (1.0 / j)
        for j, c in enumerate(constants, start=1)
    )


# -- the systole search by Fraction vectors -----------------------------------------


def ball_oracle(lattice, radius: int) -> list[tuple[GVec, str]]:
    """The lattice ball by ``bch_product`` on vectors: breadth-first, every
    frontier element times every generator and inverse, dedup by the
    coordinates (Fractions), sorted by (word length, Fraction tie key)."""
    steps = []
    for i, g in enumerate(lattice.generator_logs, start=1):
        steps.append((g, f"g{i}"))
        steps.append((-g, f"g{i}^-1"))
    seen = {lattice.algebra.zero().coords()}
    found = []
    frontier = [(lattice.algebra.zero(), "")]
    for depth in range(1, radius + 1):
        new_frontier = []
        for base, base_word in frontier:
            for g, token in steps:
                element = bch_product(lattice.algebra, base, g)
                if element.coords() in seen:
                    continue
                word = f"{base_word}.{token}" if base_word else token
                seen.add(element.coords())
                found.append((depth, element, word))
                new_frontier.append((element, word))
        frontier = new_frontier
    found.sort(key=lambda item: (item[0], fraction_tie_key(item[1])))
    return [(element, word) for _, element, word in found]


def systole_oracle(lattice, metric, radius: int) -> dict:
    """The pruned systole search of ``systole_upper_bound`` run on
    :func:`ball_oracle`'s vectors: signature keys from
    :func:`signature_terms`, certificates keyed by vector, the minimizer by
    (length, Fraction tie key)."""
    algebra = lattice.algebra
    elements = ball_oracle(lattice, radius)
    bounds = [signature_terms(metric, vec) for vec, _ in elements]
    lowers = [terms[0] for terms in bounds]
    keys = [max(terms) * (1 - KEY_MARGIN) for terms in bounds]
    certificates = {}
    letters = {}
    generators = {}
    for i, g in enumerate(lattice.generator_logs, start=1):
        generators[f"g{i}"] = generators[f"g{i}^-1"] = g

    def certify(vec):
        key = vec.coords()
        if key not in certificates:
            _, certificates[key] = certified_dcc_upper(algebra, metric, vec)
        return certificates[key]

    def word_bound(word):
        bound = 0.0
        for token in word.split("."):
            if token not in letters:
                letters[token] = math.nextafter(
                    certify(generators[token]), math.inf
                )
            bound = math.nextafter(bound + letters[token], math.inf)
        return bound

    uppers = [None] * len(elements)
    pruned = [False] * len(elements)
    best = math.inf
    for i in sorted(range(len(elements)), key=lambda i: (keys[i], i)):
        vec, word = elements[i]
        if keys[i] > best:
            bound = word_bound(word)
            if bound >= best:
                uppers[i], pruned[i] = bound, True
                continue
        uppers[i] = certify(vec)
        best = min(best, uppers[i])
    i = min(
        (i for i in range(len(elements)) if not pruned[i] and uppers[i] == best),
        key=lambda i: fraction_tie_key(elements[i][0]),
    )
    vec, word = elements[i]
    rows = [
        {
            "word": w,
            "coords": [str(c) for c in v.coords()],
            "lower": lower,
            "upper": upper,
            "pruned": cut,
        }
        for (v, w), lower, upper, cut in zip(elements, lowers, uppers, pruned)
    ]
    return {
        "sys_upper": uppers[i],
        "sys_lower_bound_of_minimizer": lowers[i],
        "minimizer_coords": [str(c) for c in vec.coords()],
        "minimizer_word": word,
        "rows": rows,
    }


# -- the radical ring by Fraction coefficients -------------------------------------
#
# An expression is a dict {monomial: Fraction} with no zero coefficient; a
# monomial is a sorted tuple of (radical uid, exponent), whatever form the
# ring's own monomials take.  The radicals are looked up in rads,
# {uid: radical}, taken from the operands (:func:`radicals_of`).


def _uid_monomial(mono: tuple) -> tuple:
    """A ring monomial as a sorted tuple of (uid, exponent)."""
    return tuple(sorted((rad.uid, e) for rad, e in mono))


def radicals_of(*xs) -> dict:
    """{uid: radical} for every radical the exact scalars' monomials name,
    and every radical their radicands name, down the tower."""
    out: dict = {}
    todo = [x for x in xs if isinstance(x, RadExpr)]
    while todo:
        for mono in todo.pop().nums:
            for rad, _ in mono:
                if rad.uid not in out:
                    out[rad.uid] = rad
                    if isinstance(rad.value, RadExpr):
                        todo.append(rad.value)
    return out


def terms_of(x) -> dict:
    """Terms of an exact scalar, uid-keyed: a RadExpr's ``terms``, a
    rational's one constant term."""
    if isinstance(x, RadExpr):
        return {_uid_monomial(m): c for m, c in x.terms.items()}
    q = Fraction(x)
    return {(): q} if q else {}


def _add_term(out: dict, mono: tuple, c: Fraction) -> None:
    s = out.get(mono, 0) + c
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


def accumulate_product(
    out: dict, m1: tuple, m2: tuple, coeff: Fraction, rads: dict
) -> None:
    """out += coeff * m1 * m2 with full exponent reduction: r**e with
    e >= degree becomes r**(e mod degree) times value**(e // degree)."""
    merged: dict = dict(m1)
    for uid, e in m2:
        merged[uid] = merged.get(uid, 0) + e
    stack = [(merged, coeff)]
    while stack:
        mono, c = stack.pop()
        over = None
        for uid in sorted(mono, reverse=True):
            if mono[uid] >= rads[uid].degree:
                over = uid
                break
        if over is None:
            _add_term(out, tuple(sorted(mono.items())), c)
            continue
        rad = rads[over]
        q, r = divmod(mono[over], rad.degree)
        base = dict(mono)
        if r:
            base[over] = r
        else:
            del base[over]
        for mono2, c2 in ref_pow(terms_of(rad.value), q, rads).items():
            merged2 = dict(base)
            for uid2, e2 in mono2:
                merged2[uid2] = merged2.get(uid2, 0) + e2
            stack.append((merged2, c * c2))


def ref_mul(t1: dict, t2: dict, rads: dict) -> dict:
    out: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            accumulate_product(out, m1, m2, c1 * c2, rads)
    return out


def ref_pow(t: dict, n: int, rads: dict) -> dict:
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, t, rads)
    return out


def ref_lincomb(pairs, lcd: int = 1) -> dict:
    """Terms of sum(c * x for c, x in pairs) / lcd, one term at a time."""
    out: dict = {}
    for c, x in pairs:
        for mono, coeff in terms_of(x).items():
            _add_term(out, mono, Fraction(c) * coeff / lcd)
    return out


def ref_float(terms: dict, rads: dict) -> float:
    """fsum over the monomials in sorted order of float(coefficient) times
    the radicals' float values."""
    parts = []
    for mono in sorted(terms):
        x = float(terms[mono])
        for uid, e in mono:
            x *= rads[uid].approx ** e
        parts.append(x)
    return math.fsum(parts)


# -- radicals at 60 digits -----------------------------------------------------------


def decimal_value(x, digits: int = 60) -> Decimal:
    """x, a Fraction or RadExpr, at ``digits`` significant digits.  Each
    radical is the positive real root of its radicand, which is evaluated
    first and must be positive (else ValueError)."""
    with localcontext() as ctx:
        ctx.prec = digits
        return _decimal(x, {})


def _decimal(x, roots: dict) -> Decimal:
    if not isinstance(x, RadExpr):
        q = Fraction(x)
        return Decimal(q.numerator) / q.denominator
    total = Decimal(0)
    for mono, num in x.nums.items():
        term = Decimal(num)
        for rad, e in mono:
            uid = rad.uid
            if uid not in roots:
                value = _decimal(rad.value, roots)
                if value <= 0:
                    raise ValueError(f"radical {uid} of the nonpositive {value}")
                roots[uid] = value ** (Decimal(1) / rad.degree)
            term *= roots[uid] ** e
        total += term
    return total / x.den


@contextlib.contextmanager
def created_radicals(keep: bool = True):
    """The radicals created inside the block, in creation order, recorded by
    wrapping their constructor: radicals that have died since still count.
    With keep=False only their uids are recorded, which keeps none alive."""
    created: list = []
    constructor = scalars._Radical

    def record(*args):
        rad = constructor(*args)
        created.append(rad if keep else rad.uid)
        return rad

    scalars._Radical = record
    try:
        yield created
    finally:
        scalars._Radical = constructor


# -- random rational draws --------------------------------------------------------


def rand_fraction(rng: random.Random, denom: int = 60, span: int = 120) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, denom))


def rand_vector(algebra: GradedAlgebra, rng: random.Random, denom: int = 60) -> GVec:
    return algebra.vector(
        [rand_fraction(rng, denom) for _ in range(algebra.dim)], exact=True
    )


def rand_horizontal(algebra: GradedAlgebra, rng: random.Random) -> GVec:
    coords = [rand_fraction(rng) for _ in range(algebra.dims[0])]
    coords += [Fraction(0)] * (algebra.dim - algebra.dims[0])
    return algebra.vector(coords, exact=True)


def rand_layer_coords(algebra, rng: random.Random, layer: int, denom: int = 60):
    return [rand_fraction(rng, denom) for _ in range(algebra.dims[layer - 1])]


# -- the signature constants --------------------------------------------------------


def neg_log_two_minus_exp(n: int) -> list[Fraction]:
    """Coefficients of x**1..x**n of f = -log(2 - e^x), by the derivative:
    f' = h with (2 - e^x) h = e^x, solved term by term for h."""
    h: list[Fraction] = []
    for m in range(n):
        h.append(
            Fraction(1, math.factorial(m))
            + sum(h[m - i] / math.factorial(i) for i in range(1, m + 1))
        )
    return [h[j - 1] / j for j in range(1, n + 1)]


def series_signature_constants(n: int) -> list[Fraction]:
    """Coefficients of x**1..x**n of -log(2 - e^x), as a word series in
    one letter."""
    unit = FreeSeries.unit(n)
    series = -log_series(unit + unit - exp_series(FreeSeries.letter(0, n)))
    return [series.terms.get((0,) * j, Fraction(0)) for j in range(1, n + 1)]


# -- the argparse command line -----------------------------------------------


class _Parser(ArgumentParser):
    """argparse that reads the command line as click did: no option is
    abbreviated, and only a token naming one of the parser's own options
    (``--name`` or ``--name=value``) is an option.  Any other token is an
    argument, so an option's value may start with ``-``
    (``--target -1/2,1,1``) and an unknown option is refused by name."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def _parse_optional(self, arg_string):
        if arg_string.split("=", 1)[0] in self._option_string_actions:
            return super()._parse_optional(arg_string)
        return None


def _file_path(value: str) -> str:
    if os.path.isdir(value):
        raise ArgumentTypeError(f"{value!r} is a directory")
    return value


def argparse_oracle() -> ArgumentParser:
    """The argparse tree ``cli_reports`` parsed with before its one-pass
    parser: the same commands, options, defaults and run functions."""
    cli = cli_reports
    parser = _Parser(
        prog="carnotcert",
        description="Certified Carnot-group computations with machine-readable reports.",
    )
    parser.add_argument("--algebra", help="builtin token (heisenberg[:n], engel, free_nilpotent:d1,k) or spec file path")
    parser.add_argument("--seed", type=int, default=0, help="default: 0")
    parser.add_argument("--out", type=_file_path, help="also write the report to this file")
    parser.add_argument("--csv", type=_file_path, help="write auxiliary CSV rows here")
    top = parser.add_subparsers(metavar="COMMAND", required=True)

    def group(name, doc):
        sub = top.add_parser(name, help=doc, description=doc)
        return sub.add_subparsers(metavar="COMMAND", required=True)

    def command(commands, name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    target_help = "comma-separated rational coordinates"
    check = command(group("algebra", "Structure-constant document operations."), "check", cli.algebra_check)
    check.add_argument("spec", nargs="?")
    command(group("popp", "Induced layer metric queries."), "gram", cli.popp_gram)
    command(top, "constants", cli.constants_cmd)
    adjust = command(top, "adjust", cli.adjust_cmd)
    adjust.add_argument("--target", required=True, help=target_help)
    adjust.add_argument("--layer", type=int, help="adjust a single layer vector instead of a full vector")
    command(top, "path", cli.path_cmd).add_argument("--target", required=True, help=target_help)
    command(top, "box-verify", cli.box_verify).add_argument("--samples", type=int, required=True)
    systole = command(top, "systole", cli.systole_cmd)
    systole.add_argument("--lattice", required=True)
    systole.add_argument("--radius", type=int, required=True)
    tables = command(group("bch", "Group-law coefficient tables."), "tables", cli.bch_tables)
    tables.add_argument("--kind", choices=["beta", "gamma"], required=True)
    tables.add_argument("--n", type=int, help="factor count (beta)")
    tables.add_argument("--j", type=int, help="commutator arity (gamma)")
    tables.add_argument("--k", type=int, required=True)
    return parser
