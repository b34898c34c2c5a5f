from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcert.scalars import RadExpr, _accumulate_product, signed_root

_, ROOT2 = signed_root(Fraction(2), 2)
_, CBRT3 = signed_root(Fraction(3), 3)
_, ROOT4_5 = signed_root(Fraction(5, 7), 4)
# a radical of an irrational value: its reduction goes through the tower
_, NESTED = signed_root(1 + ROOT2, 2)
RADICALS = (ROOT2, CBRT3, ROOT4_5, NESTED)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=50)
rationals = st.one_of(st.integers(min_value=-9, max_value=9), fractions)


@st.composite
def radexprs(draw):
    """Sums of rational multiples of products of radical powers."""
    out = RadExpr.from_rational(0)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        term = RadExpr.from_rational(draw(fractions))
        for rad in RADICALS:
            term = term * rad ** draw(st.integers(min_value=0, max_value=4))
        out = out + term
    return out


def _general_product(x: RadExpr, y: RadExpr) -> dict:
    """Terms of x * y by the monomial-by-monomial product with reduction."""
    out: dict = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            _accumulate_product(out, m1, m2, c1 * c2)
    return {m: c for m, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(x=radexprs(), q=rationals, r=st.sampled_from(RADICALS))
def test_rational_factor_scales_terms(x, q, r):
    lifted = RadExpr.from_rational(q)
    products = [x * q, q * x, x * lifted, lifted * x, x * (q + r - r)]
    expected = _general_product(x, lifted)
    for p in products:
        assert p.terms == expected
        assert all(type(c) is Fraction and c for c in p.terms.values())
    assert (x * (q + r) - x * r).terms == expected
    if q == 0:
        assert expected == {}


@pytest.mark.parametrize("q", [0, -3, 1, Fraction(-2, 9)])
def test_rational_factor_edge_cases(q):
    x = ROOT2 * CBRT3 + NESTED - Fraction(1, 4)
    assert (x * q).terms == (q * x).terms == _general_product(
        x, RadExpr.from_rational(q)
    )
    zero = RadExpr.from_rational(0)
    assert (zero * q).is_zero and (q * zero).is_zero and (x * zero).is_zero


def test_float_factor_is_rejected():
    with pytest.raises(TypeError):
        0.5 * ROOT2
    with pytest.raises(TypeError):
        ROOT2 * 0.5
    with pytest.raises(TypeError):
        2.0 * RadExpr.from_rational(3)
