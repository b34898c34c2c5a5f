"""Lattices by Malcev data, covolumes, short elements, systolic reports.

A lattice is given by the logarithms of its generators plus a declared
filtration-adapted Malcev basis.  In first-kind exponential coordinates Haar
measure is Lebesgue and the change to second-kind coordinates is unipotent,
so the quotient volume is the determinant of the basis logs in the
orthonormal frame of the volume form.  The filtration-adapted shape
legitimizes that formula and is checked on load, in one pass over the
basis: the leading layers must be the coordinates' layers in order, so the
matrix is block triangular, and each leading block's determinant must be
nonzero; their exact product is the determinant.  The generators are
checked for the one condition that generating a lattice needs: their
layer-1 parts span layer 1.

The shortest-loop search enumerates group words in the generators up to a
word radius and bounds every element from both sides: below by its layer-1
norm, above by the length of an explicit horizontal path ending exactly at
it.  The enumeration runs in integers: each element is its graded
numerators (layer l scaled by C^(l-1) D^l, C and D fixed for the ball),
the group law is the compiled one, bound to each generator and inverse
as the right factor once the ball is large enough to repay it, and
evaluated on those integers with no gcd, lcm or division, and a word is
never extended by the inverse of its last letter, which would only step
back to its parent.  That integer form
is the only one an element has, each layer over its own denominator
C^(l-1) D^l: the signature bounds measure each layer's numerators over
its denominator, ties are broken by one integer per numerator,
2|m| + (m < 0), coordinate strings are formed per layer, and vectors are
built only for the elements that get a certificate of their own.  A
branch and bound certifies a path of its own only for the elements whose
signature lower bound (the largest over the layers, so central elements
and conjugates are bounded too) can still reach the best certified
length; every other element is bounded by its word bound, the
outward-rounded length of the generators' certified paths concatenated
along its word, memoised along the BFS tree: a word's bound is its parent
word's plus one letter, rounded up.  The report gives the minimum length
together with the trivial abelianized lower bound and the volume-based
ceiling.  The signature bound only steers the search: it bounds d(e, g)
for one element g, while the systole takes an infimum over conjugates,
which share only their lowest nonzero layer; the layers above it can
differ.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .adjustment import certified_dcc_upper, signature_lower_bounds
from .certificates import BoxConstants
from .errors import (
    ExplosionGuard,
    NotFiltrationAdapted,
    ParseError,
    SingularBasis,
    UnsupportedParams,
)
from .bch_engine import bind_right, group_law, integer_product, layer_powers
from .graded_algebra import (
    GradedAlgebra,
    GVec,
    read_document,
    resolve_algebra,
)
from .popp_metric import PoppMetric, _in_float_range
from .ratlinalg import clear_denominators, mat_det, mat_rank
from .scalars import RadExpr, as_float

# elements a ball enumeration may reach before ExplosionGuard
ENUMERATION_CAP = 10 ** 6
# relative margin by which the systole search rounds its prune key down
KEY_MARGIN = 1e-12
# products each ball step must have left before the law is bound to it: a
# binding costs about what it saves on 7 (engel) to 14 (heisenberg:2)
# products
BIND_AFTER = 10


class Lattice:
    """Discrete cocompact subgroup presented by generator and basis logs."""

    def __init__(self, algebra, generator_logs, malcev_logs, name="lattice"):
        self.algebra: GradedAlgebra = algebra
        self.generator_logs: list[GVec] = list(generator_logs)
        self.malcev_logs: list[GVec] = list(malcev_logs)
        self.name = name
        self._validate()

    def _validate(self) -> None:
        """Check the logs in one pass over the basis.  Its leading layers
        must be ``algebra.layer_of``, so its matrix is block triangular and
        ``malcev_det``, its exact determinant, is the product of the
        leading blocks' determinants; a zero one is a singular basis."""
        # logs are read as Fractions here and in reports: no RadExpr at all
        if any(
            isinstance(c, RadExpr)
            for v in self.generator_logs + self.malcev_logs
            for c in v.coords()
        ):
            raise UnsupportedParams("lattice logs must be rational")
        # the generators of a lattice map onto a lattice of layer 1
        d1 = self.algebra.dims[0]
        rank = mat_rank(tuple(
            tuple(Fraction(c) for c in v.layer(1)) for v in self.generator_logs
        ))
        if rank < d1:
            raise SingularBasis(
                f"generator logs span rank {rank} < {d1} in layer 1:"
                " they generate no lattice"
            )
        leading = tuple(self._leading_layer(v) for v in self.malcev_logs)
        if leading != self.algebra.layer_of:
            raise NotFiltrationAdapted(
                f"Malcev basis leading layers {list(leading)} must be the"
                f" coordinates' layers {list(self.algebra.layer_of)}"
            )
        self.malcev_det = Fraction(1)
        for layer in range(1, self.algebra.step + 1):
            block = mat_det(tuple(
                tuple(Fraction(c) for c in v.layer(layer))
                for v, lead in zip(self.malcev_logs, leading)
                if lead == layer
            ))
            if block == 0:
                raise SingularBasis(f"layer {layer}: leading block is singular")
            self.malcev_det *= block

    def _leading_layer(self, v: GVec) -> int:
        for layer, c in zip(self.algebra.layer_of, v.coords()):
            if c != 0:
                return layer
        raise SingularBasis("zero vector in Malcev basis")

    def __repr__(self):
        return f"Lattice({self.name}, algebra={self.algebra.name})"


def load_lattice(doc) -> Lattice:
    """Load from a dict, JSON string, or file path.

    Schema: {"algebra": builtin-token-or-path, "generators": [[coords...]],
    "malcev_basis": [[coords...]]} with rational-string or integer coords.
    """
    doc = read_document(doc, "lattice")
    try:
        algebra = doc["algebra"]
        if isinstance(algebra, str):
            algebra = resolve_algebra(algebra)
        elif not isinstance(algebra, GradedAlgebra):
            raise ParseError(
                f"lattice algebra must be a token or a path, got {algebra!r}"
            )
        gens = [
            _rational_vector(algebra, coords, f"generator {i}")
            for i, coords in enumerate(doc["generators"], start=1)
        ]
        basis = [
            _rational_vector(algebra, coords, f"Malcev basis vector {i}")
            for i, coords in enumerate(doc["malcev_basis"], start=1)
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed lattice document: {exc}") from exc
    return Lattice(algebra, gens, basis, name=str(doc.get("name", "lattice")))


def _rational_vector(algebra: GradedAlgebra, coords, what: str) -> GVec:
    """A vector from an array of rational strings and JSON integers (ints
    that are not bools); a JSON float, which may already have lost its
    value, any other value, or a string or object in place of the array
    is a ParseError naming the entry."""
    if not isinstance(coords, (list, tuple)):
        raise ParseError(f"{what} {coords!r} is not an array")
    for c in coords:
        if not isinstance(c, str) and type(c) is not int:
            raise ParseError(
                f"{what} coordinate {c!r} is not a rational string or a"
                " JSON integer"
            )
    return algebra.vector([Fraction(c) for c in coords])


def covolume(lattice: Lattice, metric: PoppMetric) -> float:
    """Quotient volume: |det| of the Malcev logs in the orthonormal frame of
    the volume form, the exact product of the leading blocks' determinants
    times the frame density.  A covolume outside the float range raises
    FloatOverflow."""
    if metric.algebra.dims != lattice.algebra.dims:
        raise ParseError("metric was built for different dimensions")
    return _in_float_range(
        abs(as_float(lattice.malcev_det)) * metric.frame_density()
    )


def integer_ball(
    lattice: Lattice, radius: int
) -> tuple[list[int], list[tuple[int, ...]], list[str]]:
    """Nontrivial products of at most ``radius`` generators or inverses, as
    (dens, numerators, words): each element is the numerators of its flat
    coordinates, layer l over its own denominator dens[l - 1] =
    C^(l-1) D^l, and its word a shortest one.  The identity is excluded.

    Breadth-first, in the graded integer form of the group law
    (:class:`~carnotcert.bch_engine.GroupLaw`), D the least common
    denominator of the generators' coordinates: each element is its tuple
    of graded numerators, a canonical form and so the dedup key.  A
    product is one :func:`integer_product` call.  Before the first depth
    at which each step has about ``BIND_AFTER`` products left,
    len(frontier) per depth left, the law is bound to each generator and
    to its inverse (:func:`~carnotcert.bch_engine.bind_right`), and from
    then on a product runs the bound law, which forms no product with a
    zero or constant factor of the step; a binding costs about what it
    saves on 7 to 14 products, so a small ball runs the law itself.  A
    frontier element is never multiplied by the inverse of its word's
    last letter, a product that always returns to its parent.  The ball order is (word length, tie
    key): each depth's new elements are sorted by their tie key
    (:func:`_tie_key`), one integer 2|m| + (m < 0) per numerator m, which
    orders coordinates like (|c|, c < 0), as every element's coordinate o
    has the same positive denominator; the frontier stays in discovery
    order, which decides the word that reaches an element first.  More
    than ``ENUMERATION_CAP`` elements raise ExplosionGuard.
    """
    if radius < 1:
        raise ParseError("word radius must be >= 1")
    algebra = lattice.algebra
    law = group_law(algebra)
    n = algebra.dim
    den, flat = clear_denominators(
        c for g in lattice.generator_logs for c in g.coords()
    )
    up = layer_powers(algebra, law.scale * den)
    steps = []  # (graded numerators, token); s ^ 1 inverts s
    for i in range(len(lattice.generator_logs)):
        nums = tuple(m * u for m, u in zip(flat[i * n:], up))
        steps.append((nums, f"g{i + 1}"))
        steps.append((tuple(-m for m in nums), f"g{i + 1}^-1"))
    laws = [law] * len(steps)  # the law of each step's products
    identity = (0,) * n
    seen = {identity}
    elements, words = [], []
    frontier = [(identity, "", -2)]  # (element, word, index of last step)
    for depth in range(radius):
        # each step has about len(frontier) products at each depth left
        if laws[0] is law and len(frontier) * (radius - depth) >= BIND_AFTER:
            laws = [bind_right(law, step_nums) for step_nums, _ in steps]
        new_frontier = []
        for nums, base_word, last in frontier:
            for s, (step_nums, token) in enumerate(steps):
                if s == last ^ 1:
                    continue
                element = tuple(integer_product(laws[s], nums + step_nums))
                if element in seen:
                    continue
                if len(seen) > ENUMERATION_CAP:
                    raise ExplosionGuard(
                        f"ball enumeration exceeded {ENUMERATION_CAP} elements"
                    )
                word = f"{base_word}.{token}" if base_word else token
                seen.add(element)
                new_frontier.append((element, word, s))
        frontier = new_frontier
        for element, word, _ in sorted(
            new_frontier, key=lambda item: _tie_key(item[0])
        ):
            elements.append(element)
            words.append(word)
    dens = [law.scale ** (l - 1) * den ** l for l in range(1, algebra.step + 1)]
    return dens, elements, words


def _tie_key(nums) -> tuple:
    """2|m| + (m < 0) per numerator, one integer that orders like the pair
    (|m|, m < 0); over one positive denominator, like (|c|, c < 0)."""
    return tuple([2 * m if m >= 0 else 1 - 2 * m for m in nums])


def systole_upper_bound(
    lattice: Lattice, metric: PoppMetric, radius: int
) -> dict:
    """Certified loop-length bound: min path length over enumerated elements.

    A branch and bound over :func:`integer_ball`, which stays in integers:
    a vector is built only for an element certified on its own.  Elements
    are visited by increasing (key, enumeration index), the key being the
    signature lower bound (the largest of
    :func:`signature_lower_bounds`) rounded down by the relative
    margin ``KEY_MARGIN``, which covers the float error of the bound.  An
    element is certified on its own (:func:`certified_dcc_upper`) only
    while its key is <= the best certified length so far, or its word bound
    is below it.  A pruned element's certified length would exceed its
    bound and hence the best, so <= keeps every tie and the (length, tie
    key) minimizer is that of certifying every element: the key decides
    which rows get a certificate of their own, never a printed bound.  Any
    other row (``"pruned": True``) gets its word bound: the length of the
    generators' certified paths concatenated along its word, an inverse
    letter running its generator's path backwards.  That path ends exactly
    at the element, which the ball built by the exact group law along the
    same word, and every letter length and partial sum is rounded up, so
    the word bound is never below its length.  The bound of a word is that
    of its parent in the BFS tree (the word less its last letter) plus the
    letter, rounded up, each memoised for the report: the left fold over
    the word's letters, with the same floats.  The minimizer is the least
    integer tie key among the certified rows of the least length, and
    each distinct numerator's coordinate string is formed once per layer,
    over that layer's denominator.

    Returns the minimizer's bound (``sys_upper``), layer-1 norm
    (``sys_lower_bound_of_minimizer``), coordinates and word, plus
    per-element rows in enumeration order.  A row's ``lower`` is its
    layer-1 norm, the one part of the key that also bounds the systole.
    Monotone nonincreasing in the radius.
    """
    algebra = lattice.algebra
    dens, elements, words = integer_ball(lattice, radius)
    bounds = signature_lower_bounds(metric, dens, elements)
    lowers = [terms[0] for terms in bounds]  # the layer-1 norm
    keys = [max(terms) * (1 - KEY_MARGIN) for terms in bounds]
    coord_dens = [dens[l - 1] for l in algebra.layer_of]
    certificates: dict = {}  # numerators -> certified length
    letters: dict[str, float] = {}  # word token -> its length, rounded up
    generators = {}  # word token -> numerators of the generator it runs
    for i, g in enumerate(lattice.generator_logs, start=1):
        # each layer's den is a multiple of the generators' denominators:
        # each generator, unless a repeat or the identity, is a ball element
        nums = tuple(
            c.numerator * (d // c.denominator)
            for c, d in zip(g.coords(), coord_dens)
        )
        generators[f"g{i}"] = generators[f"g{i}^-1"] = nums

    def certify(nums):
        if nums not in certificates:
            vec = algebra.vector(map(Fraction, nums, coord_dens))
            _, certificates[nums] = certified_dcc_upper(algebra, metric, vec)
        return certificates[nums]

    word_bounds = {"": 0.0}  # word -> its bound, along the BFS tree

    def word_bound(word: str) -> float:
        """The left fold nextafter(bound + letter) over the word's tokens,
        each prefix's bound memoised: a word extends its BFS parent."""
        if word not in word_bounds:
            parent, _, token = word.rpartition(".")
            bound = word_bound(parent)
            if token not in letters:
                letters[token] = math.nextafter(
                    certify(generators[token]), math.inf
                )
            word_bounds[word] = math.nextafter(bound + letters[token], math.inf)
        return word_bounds[word]

    uppers: list = [None] * len(elements)
    pruned = [False] * len(elements)
    best = math.inf  # the least certified length so far
    certified = []
    # a stable sort: ties in the key keep the enumeration order
    for i in sorted(range(len(elements)), key=keys.__getitem__):
        if keys[i] > best:
            bound = word_bound(words[i])
            if bound >= best:
                uppers[i], pruned[i] = bound, True
                continue
        uppers[i] = certify(elements[i])
        best = min(best, uppers[i])
        certified.append(i)
    # the minimizer: the least tie key among the certified rows of length best
    i = min(
        (i for i in certified if uppers[i] == best),
        key=lambda i: _tie_key(elements[i]),
    )

    def fraction_string(m: int, den: int) -> str:
        """m / den, reduced, in the form of ``str(Fraction)``."""
        g = math.gcd(m, den)
        return str(m // g) if g == den else f"{m // g}/{den // g}"

    # each distinct numerator of a layer is formatted once
    layer_texts = [{} for _ in dens]  # numerator -> its string
    texts = [layer_texts[l - 1] for l in algebra.layer_of]
    for t, d, column in zip(texts, coord_dens, zip(*elements)):
        for m in set(column).difference(t):
            t[m] = fraction_string(m, d)
    rows = [
        {
            "word": word,
            "coords": [t[m] for t, m in zip(texts, nums)],
            "lower": lower,
            "upper": upper,
            "pruned": cut,
        }
        for nums, word, lower, upper, cut in zip(
            elements, words, lowers, uppers, pruned
        )
    ]
    return {
        "sys_upper": uppers[i],
        "sys_lower_bound_of_minimizer": lowers[i],
        "minimizer_coords": [t[m] for t, m in zip(texts, elements[i])],
        "minimizer_word": words[i],
        "rows": rows,
    }


def check_systolic_inequality(
    lattice: Lattice,
    metric: PoppMetric,
    constants: BoxConstants,
    radius: int,
) -> dict:
    """The :func:`systole_upper_bound` report with the comparison of its
    bound against C * vol**(1/Q) added."""
    if tuple(constants.dims) != tuple(lattice.algebra.dims):
        raise ParseError("constants were computed for different dimensions")
    report = systole_upper_bound(lattice, metric, radius)
    vol = covolume(lattice, metric)
    q = constants.hausdorff_dim
    rhs = constants.systolic_constant * vol ** (1.0 / q)
    report.update(
        covolume=vol,
        hausdorff_dimension=q,
        systolic_constant=constants.systolic_constant,
        rhs=rhs,
        ratio=report["sys_upper"] / rhs,
        satisfied=report["sys_upper"] <= rhs,
        radius=radius,
    )
    return report
