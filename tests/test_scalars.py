import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcert.errors import FloatOverflow
from carnotcert.scalars import (
    RadExpr,
    as_float,
    float_quotient,
    lincomb,
    scalar_powers,
    signed_root,
    to_exact,
)
from oracle_utils import (
    radical_terms,
    radicals_of,
    ref_float,
    ref_lincomb,
    ref_mul,
    ref_pow,
)

_, ROOT2 = signed_root(Fraction(2), 2)
_, CBRT3 = signed_root(Fraction(3), 3)
_, ROOT4_5 = signed_root(Fraction(5, 7), 4)
# a radical of an irrational value: its reduction goes through the tower
_, NESTED = signed_root(1 + ROOT2, 2)
# its value has a denominator, which the reduction carries into the product
_, NESTED_DEN = signed_root(Fraction(1, 3) + ROOT2 * Fraction(2, 5), 3)
RADICALS = (ROOT2, CBRT3, ROOT4_5, NESTED, NESTED_DEN)

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


def _assert_lowest_terms(x: RadExpr) -> None:
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int and n for n in x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1


@settings(max_examples=150, deadline=None)
@given(x=radexprs(), q=rationals, r=st.sampled_from(RADICALS))
def test_rational_factor_scales_terms(x, q, r):
    lifted = RadExpr.from_rational(q)
    products = [x * q, q * x, x * lifted, lifted * x, x * (q + r - r)]
    expected = ref_mul(x.terms, radical_terms(q), radicals_of(x))
    for p in products:
        assert p.terms == expected
        assert all(type(c) is Fraction and c for c in p.terms.values())
    assert (x * (q + r) - x * r).terms == expected
    if q == 0:
        assert expected == {}


@pytest.mark.parametrize("q", [0, -3, 1, Fraction(-2, 9)])
def test_rational_factor_edge_cases(q):
    x = ROOT2 * CBRT3 + NESTED - Fraction(1, 4)
    expected = ref_mul(x.terms, radical_terms(q), radicals_of(x))
    assert (x * q).terms == (q * x).terms == expected
    zero = RadExpr.from_rational(0)
    assert (zero * q).is_zero and (q * zero).is_zero and (x * zero).is_zero


@settings(max_examples=150, deadline=None)
@given(
    x=radexprs(),
    y=radexprs(),
    q=rationals,
    n=st.integers(min_value=0, max_value=3),
    coeffs=st.lists(st.integers(min_value=-40, max_value=40), min_size=3, max_size=3),
    lcd=st.integers(min_value=1, max_value=60),
)
def test_ring_matches_fraction_reference(x, y, q, n, coeffs, lcd):
    """Every operation on integer numerators gives, term for term, what the
    Fraction-coefficient reference gives, in lowest terms, and its float is
    the fsum of the reference's float terms, bit for bit."""
    tx, ty = x.terms, y.terms
    rads = radicals_of(x, y)
    cases = [
        (x + y, ref_lincomb([(1, x), (1, y)])),
        (x + q, ref_lincomb([(1, x), (1, q)])),
        (q + x, ref_lincomb([(1, x), (1, q)])),
        (x - y, ref_lincomb([(1, x), (-1, y)])),
        (q - x, ref_lincomb([(1, q), (-1, x)])),
        (-x, ref_lincomb([(-1, x)])),
        (x * y, ref_mul(tx, ty, rads)),
        (x * q, ref_mul(tx, radical_terms(q), rads)),
        (x ** n, ref_pow(tx, n, rads)),
    ]
    pairs = list(zip(coeffs, (x, y, q)))
    cases.append((lincomb(pairs, lcd), ref_lincomb(pairs, lcd)))
    for got, expected in cases:
        assert isinstance(got, RadExpr)
        assert got.terms == expected
        _assert_lowest_terms(got)
        assert got.to_float().hex() == ref_float(expected, rads).hex()


def test_lincomb_of_rationals_is_a_fraction():
    got = lincomb([(2, Fraction(1, 3)), (3, 1), (-1, Fraction(5, 6))], 4)
    assert type(got) is Fraction and got == Fraction(2 + 9 - Fraction(5, 2), 12)
    assert lincomb([], 7) == 0 and type(lincomb([], 7)) is Fraction
    # a RadExpr operand makes a RadExpr, even one of rational value
    half = lincomb([(1, RadExpr.from_rational(Fraction(1, 2)))])
    assert type(half) is RadExpr and half == Fraction(1, 2)


def test_to_exact_keeps_exact_scalars():
    """An exact scalar is returned as it is, not copied; an int or a float
    is read exactly, a float as its binary fraction."""
    q = Fraction(-7, 3)
    assert to_exact(q) is q and to_exact(ROOT2) is ROOT2
    assert to_exact(5) == Fraction(5) and type(to_exact(5)) is Fraction
    assert to_exact(0.1) == Fraction(3602879701896397, 36028797018963968)


def test_equal_scalars_hash_alike():
    """A rational RadExpr hashes as its Fraction; equal irrational ones hash
    alike however they were summed."""
    q = Fraction(3, 7)
    r = RadExpr.from_rational(q)
    assert r == q and hash(r) == hash(q) and len({r, q}) == 1
    square = ROOT2 * ROOT2
    assert square == 2 and hash(square) == hash(2) and len({square, 2}) == 1
    zero = ROOT2 - ROOT2
    assert zero == 0 and hash(zero) == hash(0)
    u = ROOT2 + NESTED + Fraction(1, 3)
    v = Fraction(1, 3) + NESTED + ROOT2
    assert u == v and hash(u) == hash(v) and len({u, v}) == 1


def test_terms_is_a_derived_view():
    (root2,) = ROOT2.nums
    x = ROOT2 * Fraction(3, 4) + Fraction(1, 6)
    assert (x.den, x.nums) == (12, {(): 2, root2: 9})
    view = x.terms
    assert view == {(): Fraction(1, 6), root2: Fraction(3, 4)}
    view.clear()
    assert x.terms == {(): Fraction(1, 6), root2: Fraction(3, 4)}


def test_float_factor_is_rejected():
    with pytest.raises(TypeError):
        0.5 * ROOT2
    with pytest.raises(TypeError):
        ROOT2 * 0.5
    with pytest.raises(TypeError):
        2.0 * RadExpr.from_rational(3)


@pytest.mark.parametrize(
    "s",
    [
        Fraction(-5, 3),
        ROOT2,
        CBRT3 * Fraction(5, 7),
        ROOT4_5 * ROOT4_5 * Fraction(-3, 2),
        NESTED,
        NESTED_DEN * Fraction(2, 9),
        ROOT2 + CBRT3,
    ],
    ids=[
        "fraction", "radical", "rescaled", "radical-square", "tower",
        "rescaled-tower", "sum",
    ],
)
def test_scalar_powers_match_repeated_multiplication(s):
    """The power table read off a radical is, power for power, the product
    of repeated multiplication and the Fraction-coefficient reference, in
    lowest terms."""
    powers = scalar_powers(s, 7)
    assert len(powers) == 7
    product = s
    for n, got in enumerate(powers, start=1):
        assert got == product
        if isinstance(s, RadExpr):
            assert got.terms == ref_pow(s.terms, n, radicals_of(s))
            _assert_lowest_terms(got)
        product = product * s


def test_values_beyond_the_float_range_raise_float_overflow():
    huge = Fraction(10) ** 400
    with pytest.raises(FloatOverflow):
        as_float(huge)
    with pytest.raises(FloatOverflow):
        as_float(10 ** 400)
    with pytest.raises(FloatOverflow):
        float_quotient(10 ** 400, 3)
    with pytest.raises(FloatOverflow):
        (ROOT2 * huge).to_float()
    with pytest.raises(FloatOverflow):
        signed_root(huge * 3, 3)
    assert as_float(Fraction(1, 3)) == 1 / 3 == float_quotient(1, 3)
