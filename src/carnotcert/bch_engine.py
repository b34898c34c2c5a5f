"""Exact truncated group law and canonical bracket-coefficient tables.

The product of group elements (in exponential coordinates of the first kind)
is a polynomial map on coordinates (the Deep Thought polynomials of
Leedham-Green and Soicher).  It is compiled once per algebra from the
canonical right-nested bracket table for the two-letter group law: each table
word is expanded multilinearly over the basis, its basis brackets read from
the structure constants as sparse maps, and the result is stored
on the algebra as a straight-line program of shared prefix products plus
one table of integers: per output coordinate, its (c C^(m-1), product)
terms, c a rational coefficient of the law, C their common denominator and
m the product's factor count.  Rational operands run it in graded integers
(:func:`integer_product`, which the lattice ball search also runs on its
own, with the law bound to each fixed right factor by :func:`bind_right`):
with layer l scaled by C^(l-1) D^l (D the operands' common denominator),
every term is an integer polynomial in the numerators, as in Hall's
collection polynomials (Hall, Nilpotent Groups, 1957); a fold of rational
factors is scaled in once and out once.  A coordinate is a
RadExpr exactly when it is irrational, so every rational product takes
that path; operands with a RadExpr coordinate run the same table in the
ring over C^(l-1), one linear combination per output coordinate,
normalised once.  Both evaluators
read and write the elements' flat coordinates, and every product enters
through :func:`product_fold`, which checks its factors and picks the
evaluator; :func:`bch_product` is its two-factor case.  The bracket table
itself is the log of a product of letter exponentials in the truncated free
associative algebra (:func:`carnotcert.words.log_of_exp_product`, run in
integers), once per nilpotency step; substituting both factors into it directly
gives the same product, and that substitution is the test oracle
(``tests/oracle_utils.substitute``).
Tables for the N-factor product expansion and for the tail of iterated group
commutators are produced the same way; their entries are what the
quantitative error bounds downstream are built from.

Coefficient tables are not unique (right-nested brackets only span, they are
not a basis); the canonical choice here is the Dynkin-Specht-Wever rewrite
with sign-normalized folding from :mod:`carnotcert.words`, which reproduces
the familiar compact coefficients (1/2, 1/12, ...).
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    AlgebraMismatch,
    ArityOutOfRange,
    CapExceeded,
    CertificateFailure,
    EmptyProduct,
)
from .graded_algebra import GradedAlgebra, GVec, resource_cap
from .ratlinalg import clear_denominators
from .scalars import RadExpr, lincomb
from .words import commutator_word, dsw_entries, log_of_exp_product, right_nested

_lock = threading.Lock()
_beta_cache: dict = {}
_gamma_cache: dict = {}


class CoeffTable(namedtuple("CoeffTable", "kind param step entries")):
    """Canonical bracket coefficients, 1-based letter indices.

    kind 'beta': X_1 ... X_N = sum X_n + sum_w entries[w] [X_{w_1},...,X_{w_p}].
    kind 'gamma': [X_1,...,X_j]_c = [X_1,...,X_j] + sum_w entries[w] [...],
    with all words of length >= j+1.  param is N (beta) or j (gamma).
    Tables are shared from a cache, so they are read-only: a named tuple
    whose ``entries`` is a read-only mapping.
    """

    __slots__ = ()

    def __new__(cls, kind: str, param: int, step: int, entries: dict):
        for w in entries:
            if len(w) > step:
                raise CertificateFailure(f"table word {w} longer than step")
            if kind == "gamma" and len(w) < param + 1:
                raise CertificateFailure(
                    f"gamma table word {w} shorter than {param + 1}"
                )
            if kind == "beta" and len(w) < 2:
                raise CertificateFailure(f"beta table word {w} shorter than 2")
        return super().__new__(cls, kind, param, step, MappingProxyType(entries))

    def to_json_dict(self) -> dict:
        key = "N" if self.kind == "beta" else "j"
        return {
            "kind": self.kind,
            key: self.param,
            "k": self.step,
            "entries": [
                {"idx": list(w), "coeff": str(self.entries[w])}
                for w in sorted(self.entries, key=lambda t: (len(t), t))
            ],
        }


def _cached_table(cache: dict, kind: str, param: int, step: int, compute):
    """The table ``compute(param, step)``, built once per key under the lock.

    Refused when param**step exceeds :func:`resource_cap`, checked on every
    call, the compile of the group law included.
    """
    cap = resource_cap()
    if param ** step > cap:
        raise CapExceeded(f"{kind} table workload {param}**{step} exceeds cap {cap}")
    with _lock:
        if (param, step) not in cache:
            cache[param, step] = compute(param, step)
        return cache[param, step]


def beta_table(n_factors: int, step: int) -> CoeffTable:
    """Canonical expansion of an N-fold product over right-nested brackets."""
    if n_factors < 1 or step < 1:
        raise ArityOutOfRange("beta table needs N >= 1, k >= 1")
    return _cached_table(_beta_cache, "beta", n_factors, step, _compute_beta)


def _compute_beta(n_factors: int, step: int) -> CoeffTable:
    lie = log_of_exp_product([(i, 1) for i in range(n_factors)], step)
    linear = {w: c for w, c in lie.items() if len(w) == 1}
    expected = {(i,): Fraction(1) for i in range(n_factors)}
    if linear != expected:
        raise CertificateFailure("product log has a non-standard linear part")
    entries = {
        tuple(i + 1 for i in w): c for w, c in dsw_entries(lie).items()
    }
    return CoeffTable("beta", n_factors, step, entries)


def gamma_table(arity: int, step: int) -> CoeffTable:
    """Tail of the iterated group commutator beyond the iterated bracket."""
    if not 2 <= arity <= step:
        raise ArityOutOfRange(
            f"gamma table needs 2 <= j <= k, got j={arity}, k={step}"
        )
    return _cached_table(_gamma_cache, "gamma", arity, step, _compute_gamma)


def _compute_gamma(arity: int, step: int) -> CoeffTable:
    tail = log_of_exp_product(commutator_word(arity), step)
    for w, c in right_nested(tuple(range(arity))).items():
        left = tail.pop(w, 0) - c
        if left:
            tail[w] = left
    if any(len(w) <= arity for w in tail):
        raise CertificateFailure(
            "iterated commutator tail has low-degree terms"
        )
    entries = {tuple(i + 1 for i in w): c for w, c in dsw_entries(tail).items()}
    return CoeffTable("gamma", arity, step, entries)


# -- group operations -----------------------------------------------------------


class GroupLaw:
    """log(exp x * exp y) - x - y as a straight-line polynomial program.

    Variable v < n is coordinate v of x, variable n + v coordinate v of y
    (n = algebra.dim), in flattened layer order.  Slot s < 2n is variable s;
    slot 2n + i is the product of slot ``prefixes[i][0]`` and variable
    ``prefixes[i][1]``, so a monomial shares the slot of its prefix with every
    other monomial that extends it.

    The coefficients are stored once, as integers in graded form: C =
    ``scale`` is the least common denominator of the law's rational
    coefficients c, and an element is written by its graded numerators
    n_o = x_o C^(l-1) D^l, l the layer of coordinate o and D any integer
    that clears its denominators.  ``graded[o]`` holds (c C^(m-1), slot)
    per monomial of m factors; their layers sum to l, so D cancels and
    n_o(xy) = n_o(x) + n_o(y) + sum c C^(m-1) p_slot, p_slot the integer
    product of the numerators.  Both evaluators read this one table;
    ``powers[slot]`` is C^(m-1) for a slot of m factors.  A law bound to
    its right factor (:func:`bind_right`) has the same layout, with
    ``powers`` None.
    """

    __slots__ = ("prefixes", "graded", "scale", "powers")

    def __init__(self, prefixes: tuple, graded: tuple, scale: int, powers: tuple):
        self.prefixes = prefixes
        self.graded = graded
        self.scale = scale
        self.powers = powers


def _compile_group_law(algebra: GradedAlgebra) -> GroupLaw:
    """Expand beta_table(2, k) multilinearly over the basis of the algebra.

    A table word (w_1, ..., w_p) with coefficient c contributes, for every
    basis tuple (a_1, ..., a_p) whose bracket [e_{a_1}, [..., e_{a_p}]] is
    nonzero, the monomial prod_i v_{w_i}[a_i] times c times that bracket, a
    sparse {flat coordinate: rational} map.  The tuples of length p grow
    from those of length p - 1 with a nonzero bracket B, by a first letter
    a whose layer keeps the total <= k, as [e_a, B] by the algebra's
    bracket kernel (:meth:`GradedAlgebra.bracket_items`), its cancelled
    coordinates dropped; one that vanishes grows no further.
    """
    n, layer_of, k = algebra.dim, algebra.layer_of, algebra.step
    # (tuple, its nonzero bracket, its total layer), by tuple length
    levels = [[((a,), {a: Fraction(1)}, layer_of[a]) for a in range(n)]]
    while len(levels) < k:
        grown = []
        for idx, bracket, layer in levels[-1]:
            for a in range(n):
                if layer_of[a] + layer > k:
                    break  # layer_of is sorted
                out = algebra.bracket_items({a: 1}, bracket)
                out = {o: c for o, c in out.items() if c}
                if out:
                    grown.append(((a,) + idx, out, layer_of[a] + layer))
        levels.append(grown)

    polys: list[dict] = [{} for _ in range(n)]
    table = beta_table(2, k)
    for word in sorted(table.entries):
        coeff = table.entries[word]
        for idx, bracket, _ in levels[len(word) - 1]:
            mono = tuple(sorted((w - 1) * n + a for w, a in zip(word, idx)))
            for o, b in bracket.items():
                poly = polys[o]
                poly[mono] = poly.get(mono, 0) + coeff * b
    scale = math.lcm(*[c.denominator for poly in polys for c in poly.values()])
    monos = [[mono for mono in sorted(poly) if poly[mono]] for poly in polys]
    prefixes, slots = _compile_prefixes(monos, 2 * n)
    powers = [1] * (2 * n)
    for prefix, _ in prefixes:
        powers.append(powers[prefix] * scale)
    # c C^(m-1) is an integer: every monomial has m >= 2 factors
    graded = tuple(
        tuple((int(poly[m] * scale ** (len(m) - 1)), s) for m, s in zip(out, ss))
        for poly, out, ss in zip(polys, monos, slots)
    )
    return GroupLaw(prefixes, graded, scale, tuple(powers))


def _compile_prefixes(monos_per_output, variables: int) -> tuple:
    """Shared prefixes for sorted monomials over slots 0..variables-1: each
    prefix of two or more factors gets the next slot, as (slot of the
    prefix one factor shorter, last variable).  Returns the prefixes and,
    per output, the slot of each of its monomials."""
    slot_of = {(v,): v for v in range(variables)}
    prefixes: list = []
    for monos in monos_per_output:
        for mono in monos:
            for end in range(2, len(mono) + 1):
                if mono[:end] not in slot_of:
                    slot_of[mono[:end]] = variables + len(prefixes)
                    prefixes.append((slot_of[mono[: end - 1]], mono[end - 1]))
    slots = [[slot_of[mono] for mono in monos] for monos in monos_per_output]
    return tuple(prefixes), slots


def group_law(algebra: GradedAlgebra) -> GroupLaw:
    """The compiled two-factor law, built at first use and kept on the algebra."""
    law = algebra.group_law
    if law is None:
        law = _compile_group_law(algebra)
        with _lock:
            if algebra.group_law is None:
                algebra.group_law = law
            law = algebra.group_law
    return law


def bch_product(algebra: GradedAlgebra, x: GVec, y: GVec) -> GVec:
    """Group product log(exp x * exp y), exact and truncated by grading:
    the two-factor :func:`product_fold`."""
    return product_fold(algebra, [x, y])


def bind_right(law: GroupLaw, y) -> GroupLaw:
    """The law with its right factor fixed to the graded numerators ``y``,
    over the C and D of every left factor x it will multiply: a partial
    evaluation of the program, once per y.  Each monomial is its x part
    times its y part; a term whose y part is 0 is dropped, a y part that
    is not is folded into the term's integer coefficient, terms with the
    same x part are summed, and the x parts of two or more factors are
    compiled into shared prefixes again.  The law has no monomial in y
    alone (x = 0 gives the product y), so every term keeps an x part, and
    a bound law has no more prefixes than the law.

    ``integer_product(bound, x + y)`` is ``integer_product(law, x + y)``
    for this y only: y still fills slots n..2n-1, which only the sums
    x_o + y_o read.  A bound law is for :func:`integer_product` alone;
    its ``powers`` is None, so :func:`_ring_product` fails on it at the
    first live term."""
    n = len(law.graded)
    # per slot: its x variables, and the product of its y numerators
    xs = [(v,) for v in range(n)] + [()] * n
    ys = [1] * n + list(y)
    for prefix, var in law.prefixes:
        if var < n:
            xs.append(xs[prefix] + (var,))
            ys.append(ys[prefix])
        else:
            xs.append(xs[prefix])
            ys.append(ys[prefix] * y[var - n])
    folded = []
    for terms in law.graded:
        out: dict = {}
        for a, slot in terms:
            if ys[slot]:
                mono = xs[slot]
                out[mono] = out.get(mono, 0) + a * ys[slot]
        folded.append({mono: c for mono, c in out.items() if c})
    prefixes, slots = _compile_prefixes(folded, 2 * n)
    graded = tuple(
        tuple(zip(out.values(), out_slots))
        for out, out_slots in zip(folded, slots)
    )
    return GroupLaw(prefixes, graded, law.scale, None)


def layer_powers(algebra: GradedAlgebra, base: int) -> list:
    """base**(l - 1) for each flat coordinate, l its layer."""
    return [base ** (l - 1) for l in algebra.layer_of]


def integer_product(law: GroupLaw, nums) -> list:
    """The program in integers: ``nums`` holds the graded numerators of x
    then those of y (see :class:`GroupLaw`), over one C and D; returns the
    graded numerators of their product, over the same C and D."""
    slots = list(nums)
    for prefix, var in law.prefixes:
        slots.append(slots[prefix] * slots[var])
    n = len(law.graded)
    coords = []
    for o, terms in enumerate(law.graded):
        acc = slots[o] + slots[n + o]
        for a, slot in terms:
            acc += a * slots[slot]
        coords.append(acc)
    return coords


def _ring_product(law: GroupLaw, values, lcds) -> list:
    """The program in the ring with D = 1: coordinate o of layer l is one
    linear combination (L a + L b + sum A C^(l-m) p) / L, L = ``lcds[o]`` =
    C^(l-1), of the operands' coordinates a, b and the nonzero products p of
    m factors, A the graded coefficient of p, normalised once
    (``scalars.lincomb``).  A coordinate with no nonzero product and an
    exact zero operand is the other operand's, as it is."""
    slots = [v or None for v in values]
    for prefix, var in law.prefixes:
        a, b = slots[prefix], slots[var]
        slots.append(None if a is None or b is None else a * b)
    n, powers = len(law.graded), law.powers
    coords = []
    for a, b, lcd, terms in zip(values[:n], values[n:], lcds, law.graded):
        live = [
            (c * (lcd // powers[s]), slots[s])
            for c, s in terms if slots[s] is not None
        ]
        if live or (a and b):
            coords.append(lincomb([(lcd, a), (lcd, b)] + live, lcd))
        else:
            coords.append(a or b)
    return coords


def product_fold(algebra: GradedAlgebra, factors) -> GVec:
    """Left-to-right group product of a nonempty list of elements, every
    one of them checked to belong to the algebra.

    Evaluates the compiled law.  Rational factors are multiplied in graded
    integers over one common denominator (:func:`_integer_fold`); a fold
    with a RadExpr coordinate chains :func:`_ring_product`, where a product
    slot with a zero variable is never formed, so every monomial through it
    is skipped."""
    factors = list(factors)
    if not factors:
        raise EmptyProduct("group product of an empty list")
    if any(f.algebra is not algebra for f in factors):
        raise AlgebraMismatch("vectors do not belong to this algebra")
    if len(factors) == 1:
        return factors[0]
    values = [c for f in factors for c in f.coords()]
    # stops at the first RadExpr coordinate
    if RadExpr not in map(type, values):
        return _integer_fold(algebra, values)
    law = group_law(algebra)
    lcds = layer_powers(algebra, law.scale)
    n = algebra.dim
    acc = values[:n]
    for start in range(n, len(values), n):
        acc = _ring_product(law, acc + values[start : start + n], lcds)
    return GVec(algebra, acc)


def _integer_fold(algebra: GradedAlgebra, values) -> GVec:
    """Left-to-right product of rational factors, their flat coordinates
    concatenated in ``values``: brought over their common denominator D,
    scaled once to graded numerators (x_o D) (C D)^(l-1), multiplied in
    integers (:func:`integer_product`), one ``Fraction`` per coordinate."""
    law = group_law(algebra)
    den, nums = clear_denominators(values)
    n = algebra.dim
    up = layer_powers(algebra, law.scale * den)
    nums = [m * u for m, u in zip(nums, up * (len(nums) // n))]
    acc = nums[:n]
    for start in range(n, len(nums), n):
        acc = integer_product(law, acc + nums[start : start + n])
    return GVec(algebra, [Fraction(m, u * den) for m, u in zip(acc, up)])


def group_commutator(algebra: GradedAlgebra, x: GVec, y: GVec) -> GVec:
    """x y x^{-1} y^{-1}; inverses are negation in first-kind coordinates."""
    return product_fold(algebra, [x, y, -x, -y])


def max_coeff_constants(
    d1: int, arity: int, step: int
) -> tuple[Fraction, Fraction]:
    """Worst-case table magnitudes feeding the layer-error constant.

    Returns (beta_max, gamma_weight): beta_max is the largest |entry| in the
    product table for d1**arity factors; gamma_weight is max(1, largest
    per-length sum of |entry|) in the commutator-tail table.  A word of
    length <= k touches at most k distinct factors and its coefficient only
    depends on their relative order, so the product table is evaluated with
    min(d1**arity, k) letters.
    """
    if arity < 1 or step < 1:
        raise ArityOutOfRange("max_coeff_constants needs j >= 1, k >= 1")
    n_factors = d1 ** arity
    effective = min(n_factors, step)
    table = beta_table(effective, step)
    beta_max = max((abs(c) for c in table.entries.values()), default=Fraction(0))
    gamma_weight = Fraction(1)
    if 2 <= arity < step:
        tail = gamma_table(arity, step)
        by_len: dict[int, Fraction] = {}
        for w, c in tail.entries.items():
            by_len[len(w)] = by_len.get(len(w), Fraction(0)) + abs(c)
        if by_len:
            gamma_weight = max(gamma_weight, max(by_len.values()))
    return beta_max, gamma_weight
