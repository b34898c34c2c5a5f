"""The signature lower bound max_j (j |Z_j|_j / c_j)**(1/j) on d(e, Z): its
constants and its soundness against explicit horizontal paths.  The systole
search it prunes is tested in test_lattice_systole."""

import math
import random
from fractions import Fraction

import pytest

from carnotcert.adjustment import (
    cc_lower_bound,
    certified_dcc_upper,
    signature_constants,
    signature_lower_bounds,
)
from carnotcert.graded_algebra import builtin_family
from carnotcert.popp_metric import build_popp
from oracle_utils import (
    fold_and_measure,
    integer_rows,
    neg_log_two_minus_exp,
    rand_vector,
    series_signature_constants,
    signature_terms,
)

FIXTURES = [
    ("heisenberg", (1,)),
    ("heisenberg", (2,)),
    ("engel", ()),
    ("free_nilpotent", (2, 3)),
    ("free_nilpotent", (3, 3)),
    ("free_nilpotent", (2, 4)),
    ("free_nilpotent", (2, 5)),
]

# the float bound against a float length: a few ulp of rounding on each
SLACK = 1 + 1e-12


def test_constants_exact():
    assert signature_constants(5) == (1, 1, 1, Fraction(13, 12), Fraction(5, 4))
    assert all(type(c) is Fraction for c in signature_constants(5))


def test_constants_match_the_power_series_oracle():
    assert signature_constants(8) == tuple(neg_log_two_minus_exp(8))


def test_constants_match_the_word_series_oracle():
    for k in range(1, 9):
        assert signature_constants(k) == tuple(series_signature_constants(k)), k


def test_heisenberg_center():
    """(0, 0, 1): 2**(1/4) ~ 1.189 from layer 2, below its distance
    sqrt(4 pi)."""
    alg = builtin_family("heisenberg", (1,))
    metric = build_popp(alg)
    ((lower, bound),) = signature_lower_bounds(
        metric, *integer_rows([alg.vector([0, 0, 1])])
    )
    assert lower == 0.0
    assert bound == pytest.approx(2 ** 0.25, rel=1e-15)
    assert bound <= math.sqrt(4 * math.pi)


def _letter(alg, rng):
    coords = [Fraction(0)] * alg.dim
    coords[rng.randrange(alg.dims[0])] = Fraction(
        rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)
    )
    return alg.vector(coords)


def _horizontal(alg, rng):
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(alg.dims[0])]
    return alg.vector(coords + [Fraction(0)] * (alg.dim - alg.dims[0]))


def _words(alg, rng):
    """Random words of single letters and of general segments, and the
    commutators a b a^-1 b^-1 of random letter words, whose layer-1 part
    vanishes."""
    for make in (_letter, _horizontal):
        for _ in range(12):
            yield [make(alg, rng) for _ in range(rng.randint(2, 10))]
    for _ in range(6):
        a, b = (
            [_letter(alg, rng) for _ in range(rng.randint(1, 4))]
            for _ in range(2)
        )
        yield a + b + [-s for s in reversed(a)] + [-s for s in reversed(b)]


@pytest.mark.parametrize(
    "family, params", FIXTURES, ids=[f"{f}{p}" for f, p in FIXTURES]
)
def test_bound_is_below_every_path(family, params):
    """At most the length of random horizontal words and of the certified
    path to seeded targets; the first term is the layer-1 norm, and the
    commutator words are bounded above it."""
    alg = builtin_family(family, params)
    metric = build_popp(alg)
    rng = random.Random(15)
    higher = 0
    for segments in _words(alg, rng):
        endpoint, length = fold_and_measure(alg, metric, segments)
        (terms,) = signature_lower_bounds(metric, *integer_rows([endpoint]))
        assert terms == signature_terms(metric, endpoint)
        assert terms[0] == cc_lower_bound(metric, endpoint)
        assert max(terms) <= length * SLACK
        higher += max(terms) > terms[0]
    targets = [rand_vector(alg, rng, 9) for _ in range(3)]
    bounds = signature_lower_bounds(metric, *integer_rows(targets))
    for target, terms in zip(targets, bounds):
        assert terms == signature_terms(metric, target)
        _, upper = certified_dcc_upper(alg, metric, target)
        assert max(terms) <= upper * SLACK
    assert higher > 0
