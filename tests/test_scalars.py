import math
from decimal import Decimal, localcontext
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
    decimal_value,
    radicals_of,
    ref_float,
    ref_lincomb,
    ref_mul,
    ref_pow,
    terms_of,
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
    """Sums of rational multiples of products of radical powers: a RadExpr,
    or a Fraction where the sum is rational."""
    out = Fraction(0)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        term = draw(fractions)
        for rad in RADICALS:
            term = term * rad ** draw(st.integers(min_value=0, max_value=4))
        out = out + term
    return out


def _assert_canonical(x, expected: dict) -> None:
    """x has the reference terms: a Fraction when only the monomial 1 is
    left, else a RadExpr in lowest terms."""
    assert terms_of(x) == expected
    if expected.keys() <= {()}:
        assert type(x) is Fraction
        return
    assert type(x) is RadExpr
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int and n for n in x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1


@settings(max_examples=150, deadline=None)
@given(x=radexprs(), q=rationals, r=st.sampled_from(RADICALS))
def test_rational_factor_scales_terms(x, q, r):
    cancelled = q + r - r
    assert type(cancelled) is Fraction and cancelled == q
    products = [x * q, q * x, x * cancelled, cancelled * x]
    expected = ref_mul(terms_of(x), terms_of(q), radicals_of(x))
    for p in products + [x * (q + r) - x * r]:
        _assert_canonical(p, expected)
        assert all(type(c) is Fraction and c for c in terms_of(p).values())
    if q == 0:
        assert expected == {}


@pytest.mark.parametrize("q", [0, -3, 1, Fraction(-2, 9)])
def test_rational_factor_edge_cases(q):
    x = ROOT2 * CBRT3 + NESTED - Fraction(1, 4)
    expected = ref_mul(x.terms, terms_of(q), radicals_of(x))
    _assert_canonical(x * q, expected)
    _assert_canonical(q * x, expected)
    zero = x - x
    assert type(zero) is Fraction and zero == 0
    assert type(x * 0) is type(0 * x) is Fraction and x * 0 == 0


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
    Fraction-coefficient reference gives, in lowest terms and as a Fraction
    where only the monomial 1 is left, and its float is the fsum of the
    reference's float terms, bit for bit."""
    tx, ty = terms_of(x), terms_of(y)
    rads = radicals_of(x, y)
    cases = [
        (x + y, ref_lincomb([(1, x), (1, y)])),
        (x + q, ref_lincomb([(1, x), (1, q)])),
        (q + x, ref_lincomb([(1, x), (1, q)])),
        (x - y, ref_lincomb([(1, x), (-1, y)])),
        (q - x, ref_lincomb([(1, q), (-1, x)])),
        (-x, ref_lincomb([(-1, x)])),
        (x * y, ref_mul(tx, ty, rads)),
        (x * q, ref_mul(tx, terms_of(q), rads)),
        (x ** n, ref_pow(tx, n, rads)),
    ]
    pairs = list(zip(coeffs, (x, y, q)))
    cases.append((lincomb(pairs, lcd), ref_lincomb(pairs, lcd)))
    for got, expected in cases:
        _assert_canonical(got, expected)
        assert as_float(got).hex() == ref_float(expected, rads).hex()


# expression trees over the radicals and rationals: a leaf is a scalar, a
# node (op, operands...)
expressions = st.recursive(
    st.one_of(st.sampled_from(RADICALS), fractions),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.sampled_from(["**", "powers"]), sub, st.integers(0, 3)),
        st.tuples(
            st.just("lincomb"),
            st.lists(st.tuples(st.integers(-9, 9), sub), max_size=4),
            st.integers(1, 12),
        ),
    ),
    max_leaves=6,
)


def _checked(got, expected: dict, rads: dict, value: Decimal):
    """got is canonical for the reference terms, and at 60 digits it is
    the value of the expression; a RadExpr is not zero."""
    _assert_canonical(got, expected)
    digits = decimal_value(got)
    assert abs(digits - value) <= Decimal("1e-40") * max(1, abs(value))
    if isinstance(got, RadExpr):
        assert abs(digits) > Decimal("1e-30")
    return got, expected, rads, value


def _evaluate(tree):
    """(result, reference terms, radicals, 60-digit value) of an expression
    tree, every intermediate result checked by :func:`_checked`."""
    if not isinstance(tree, tuple):
        return tree, terms_of(tree), radicals_of(tree), decimal_value(tree)
    op = tree[0]
    if op == "lincomb":
        _, items, lcd = tree
        args = [(c, _evaluate(sub)) for c, sub in items]
        rads = radicals_of(*(a[0] for _, a in args))
        value = sum((c * a[3] for c, a in args), Decimal(0)) / lcd
        pairs = [(c, a[0]) for c, a in args]
        return _checked(lincomb(pairs, lcd), ref_lincomb(pairs, lcd), rads, value)
    x, tx, rads, dx = _evaluate(tree[1])
    if op in ("**", "powers"):
        n = tree[2]
        if op == "**":
            # Decimal refuses 0 ** 0, which is 1 here as in the ring
            value = dx ** n if n else Decimal(1)
            return _checked(x ** n, ref_pow(tx, n, rads), rads, value)
        out = None
        for l, got in enumerate(scalar_powers(x, n + 1), start=1):
            out = _checked(got, ref_pow(tx, l, rads), rads, dx ** l)
        return out
    y, ty, yrads, dy = _evaluate(tree[2])
    rads = {**rads, **yrads}
    if op == "*":
        return _checked(x * y, ref_mul(tx, ty, rads), rads, dx * dy)
    sign = 1 if op == "+" else -1
    got = x + y if op == "+" else x - y
    return _checked(got, ref_lincomb([(1, x), (sign, y)]), rads, dx + sign * dy)


@settings(max_examples=150, deadline=None)
@given(tree=expressions)
def test_rational_values_are_fractions(tree):
    """Random expressions over the radicals and rationals, built with +,
    -, *, **, lincomb and scalar_powers: every result whose reference
    terms hold only the monomial 1 (the radicals' reduced monomials are
    independent over Q, so exactly the rational values) is a Fraction, no
    RadExpr is zero, and each result matches its 60-digit evaluation."""
    with localcontext() as ctx:
        ctx.prec = 60
        _evaluate(tree)


def test_lincomb_of_rationals_is_a_fraction():
    got = lincomb([(2, Fraction(1, 3)), (3, 1), (-1, Fraction(5, 6))], 4)
    assert type(got) is Fraction and got == Fraction(2 + 9 - Fraction(5, 2), 12)
    assert lincomb([], 7) == 0 and type(lincomb([], 7)) is Fraction
    # RadExpr operands whose radicals cancel make a Fraction too
    half = lincomb([(2, ROOT2 + Fraction(1, 4)), (-2, ROOT2)])
    assert type(half) is Fraction and half == Fraction(1, 2)


def test_to_exact_keeps_exact_scalars():
    """An exact scalar is returned as it is, not copied; an int or a float
    is read exactly, a float as its binary fraction."""
    q = Fraction(-7, 3)
    assert to_exact(q) is q and to_exact(ROOT2) is ROOT2
    assert to_exact(5) == Fraction(5) and type(to_exact(5)) is Fraction
    assert to_exact(0.1) == Fraction(3602879701896397, 36028797018963968)


def test_equal_scalars_compare_equal():
    """A rational ring result is a Fraction, equal to its value; equal
    irrational ones are equal however they were summed, and equal to no
    rational."""
    q = Fraction(3, 7)
    r = ROOT2 * q - ROOT2 + q * (1 - ROOT2 * q) + ROOT2 * (1 - q) + ROOT2 * q * q
    assert type(r) is Fraction and r == q
    square = ROOT2 * ROOT2
    assert type(square) is Fraction and square == 2
    zero = ROOT2 - ROOT2
    assert type(zero) is Fraction and zero == 0
    u = ROOT2 + NESTED + Fraction(1, 3)
    v = Fraction(1, 3) + NESTED + ROOT2
    assert u == v and u != v + 1
    assert ROOT2 != 0 and ROOT2 != 1 and Fraction(1, 3) != ROOT2


def test_terms_is_a_derived_view():
    (root2,) = ROOT2.nums
    x = ROOT2 * Fraction(3, 4) + Fraction(1, 6)
    assert (x.den, x.nums) == (12, {(): 2, root2: 9})
    view = x.terms
    assert view == {(): Fraction(1, 6), root2: Fraction(3, 4)}
    view.clear()
    assert x.terms == {(): Fraction(1, 6), root2: Fraction(3, 4)}


def test_power_of_a_tower_value_reduces_in_the_product(monkeypatch):
    """With r = 2**(1/3), s = (1 + r)**(1/3) and u = (1 + s**2)**(1/4), the
    square of u**3 s**2 reduces u**6 to (1 + s**2) u**2 and then s**6 with
    quotient 2: the product raises s's radicand to the power 2, once."""
    _, r = signed_root(Fraction(2), 3)
    _, s = signed_root(1 + r, 3)
    _, u = signed_root(1 + s * s, 4)
    x = u * u * u * s * s
    calls = []
    power = RadExpr.__pow__

    def spy(base, n):
        calls.append((base, n))
        return power(base, n)

    monkeypatch.setattr(RadExpr, "__pow__", spy)
    square = x * x
    assert calls == [(1 + r, 2)]
    assert square.terms == ref_mul(x.terms, x.terms, radicals_of(x))
    assert square.to_float() == pytest.approx(13.31938237194, rel=1e-11)


def test_float_factor_is_rejected():
    with pytest.raises(TypeError):
        0.5 * ROOT2
    with pytest.raises(TypeError):
        ROOT2 * 0.5
    with pytest.raises(TypeError):
        2.0 * (ROOT2 + 3)


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
        _assert_canonical(got, ref_pow(terms_of(s), n, radicals_of(s)))
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


def _multiplied_out(s, n: int) -> list:
    out = [s]
    while len(out) < n:
        out.append(out[-1] * s)
    return out


def _same_form(got, expected) -> bool:
    """The same canonical form: the same type, and a RadExpr's den and
    nums, or a Fraction's numerator and denominator."""
    if type(got) is not type(expected):
        return False
    if isinstance(got, RadExpr):
        return got.den == expected.den and got.nums == expected.nums
    return (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "radicand",
    [
        Fraction(2),
        Fraction(-5, 7),
        Fraction(12, 35),
        1 + ROOT2,
        Fraction(1, 3) + ROOT2 * Fraction(2, 5),
        NESTED_DEN * Fraction(-3, 4) - CBRT3,
    ],
    ids=["two", "negative", "fraction", "tower", "tower-den", "tower-negative"],
)
def test_powers_of_a_signed_root_are_its_multiplied_out_powers(radicand, degree):
    """The powers of the radical monomial r that signed_root returns, built
    as value**t * r**m with no normalisation, have the den and nums of the
    multiplied-out powers, up to n = 2 d + 1.  A monomial that is not a
    unit, 3/2 r, is multiplied out and agrees too."""
    _, r = signed_root(radicand, degree)
    assert isinstance(r, RadExpr)
    (mono,) = r.nums
    assert (r.den, r.nums[mono]) == (1, 1)
    for n in range(1, 2 * degree + 2):
        for s in (r, r * Fraction(3, 2)):
            expected = _multiplied_out(s, n)
            got = scalar_powers(s, n)
            assert len(got) == n
            assert all(_same_form(g, e) for g, e in zip(got, expected))
