"""The integer kernels against plain Fraction and ring evaluation.

Rational products, quadratic forms and the ball order are evaluated in
integers over one common denominator; each must give exactly what the
direct definition gives: the group law as x + y + beta_table(2, k)
substituted with x and y, the quadratic form as a double loop over the
Gram matrix, the ball order as a sort by Fraction tie keys.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcert.bch_engine import bch_product, beta_table
from carnotcert.graded_algebra import GVec, resolve_algebra
from carnotcert.lattice_systole import Lattice, enumerate_ball, systole_upper_bound
from carnotcert.popp_metric import build_popp
from carnotcert.scalars import RadExpr, signed_root
from oracle_utils import fraction_tie_key, quadform_oracle

SPECS = [
    "heisenberg:1",
    "heisenberg:2",
    "engel",
    "free_nilpotent:2,3",
    "free_nilpotent:2,4",
    "free_nilpotent:3,3",
]

# zero, integer and large-denominator coordinates
COORDS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 15)),
)


@lru_cache(maxsize=None)
def _setup(spec):
    alg = resolve_algebra(spec)
    return alg, build_popp(alg)


def _vector(data, alg):
    return alg.vector(data.draw(st.lists(COORDS, min_size=alg.dim, max_size=alg.dim)))


def _root2():
    return signed_root(Fraction(2), 2)[1]


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rational_product_matches_table_substitution(spec, data):
    alg, _ = _setup(spec)
    x, y = _vector(data, alg), _vector(data, alg)
    got = bch_product(alg, x, y)
    assert all(type(c) is Fraction for c in got.coords())
    assert got == x + y + beta_table(2, alg.step).substitute(alg, [x, y])


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mixed_operands_match_ring_evaluation(spec, data):
    """RadExpr coordinates, rational or not, take the ring path; it gives
    the value the rational path gives and the table substitution gives."""
    alg, _ = _setup(spec)
    x, y = _vector(data, alg), _vector(data, alg)
    flags = data.draw(st.lists(st.booleans(), min_size=alg.dim, max_size=alg.dim))
    mixed = alg.vector(
        [RadExpr.from_rational(c) if f else c for c, f in zip(x.coords(), flags)]
    )
    assert bch_product(alg, mixed, y) == bch_product(alg, x, y)
    assert bch_product(alg, y, mixed) == bch_product(alg, y, x)
    r = _root2()
    radical = alg.vector(
        [c * r if f else c for c, f in zip(x.coords(), flags)]
    )
    table = beta_table(2, alg.step)
    expected = radical + y + table.substitute(alg, [radical, y])
    assert bch_product(alg, radical, y) == expected


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_quadform_matches_double_loop(spec, data):
    alg, metric = _setup(spec)
    for layer, d in enumerate(alg.dims, start=1):
        coords = data.draw(st.lists(COORDS, min_size=d, max_size=d))
        expected = quadform_oracle(metric.grams[layer], coords)
        got = metric.layer_quadform(layer, coords)
        assert type(got) is Fraction and got == expected
        radical = [c * _root2() for c in coords]
        assert metric.layer_quadform(layer, radical) == expected * 2


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_layer_norms_over_one_denominator_match_layer_norm(spec, data):
    """Many rows over one common denominator give, bit for bit, the norm of
    each row on its own; a row with a RadExpr is measured on its own."""
    alg, metric = _setup(spec)
    for layer, d in enumerate(alg.dims, start=1):
        rows = data.draw(
            st.lists(st.lists(COORDS, min_size=d, max_size=d), max_size=6)
        )
        expected = [metric.layer_norm(layer, coords) for coords in rows]
        assert metric.layer_norms(layer, rows) == expected
        if rows:
            radical = [c * _root2() for c in rows[0]]
            assert metric.layer_norms(layer, rows + [radical])[:-1] == expected


def _dilated_engel(t):
    alg, _ = _setup("engel")
    basis = [
        alg.dilate(t, alg.basis_vector(layer, i))
        for layer, dim in enumerate(alg.dims, start=1)
        for i in range(dim)
    ]
    return Lattice(alg, basis[:2], basis, name=f"engel-dilated-{t}")


@pytest.mark.parametrize("t", [Fraction(7, 5), Fraction(3, 11), Fraction(12)])
def test_ball_order_matches_fraction_tie_key(t):
    lattice = _dilated_engel(t)
    ball = enumerate_ball(lattice, 4)
    assert len(ball) == 152
    expected = sorted(
        ball, key=lambda item: (len(item[1].split(".")), fraction_tie_key(item[0]))
    )
    assert [w for _, w in ball] == [w for _, w in expected]
    # the minimizer is the least certified row by (upper, Fraction tie key)
    data = systole_upper_bound(lattice, _setup("engel")[1], 4)
    certified = [
        (row["upper"], fraction_tie_key(vec), row["word"])
        for row, (vec, _) in zip(data["rows"], ball)
        if not row["pruned"]
    ]
    assert min(certified)[2] == data["minimizer_word"]


def test_rational_radexpr_keys_like_its_fraction():
    """A vector and its copy with a rational RadExpr coordinate are equal,
    hash alike and collapse in a set."""
    alg, _ = _setup("engel")
    u = alg.vector([Fraction(1, 2), 0, 0, 0])
    v = GVec(alg, [[RadExpr.from_rational(Fraction(1, 2)), Fraction(0)], [Fraction(0)], [Fraction(0)]])
    zero = GVec(alg, [[Fraction(1, 2), RadExpr({})], [Fraction(0)], [Fraction(0)]])
    assert u == v and hash(u) == hash(v) and len({u, v}) == 1
    assert u == zero and u.key() == zero.key() and len({u, zero}) == 1
    irrational = alg.vector([_root2(), 0, 0, 0])
    assert irrational != u and len({u, irrational}) == 2
