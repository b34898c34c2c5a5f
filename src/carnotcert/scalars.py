"""Exact scalar arithmetic, including formal radicals.

Structure constants and group-law coefficients are plain ``Fraction``s.  The
balanced horizontal decompositions additionally need j-th roots of exact
quantities (row scales).  Those are handled by ``RadExpr``: a finite rational
combination of monomials in formal positive symbols r, each carrying the
reduction rule r**degree == value.  Values of later symbols may involve
earlier ones, so the ring is a tower of radical extensions of Q.  No division
by ring elements is ever needed; only the operations +, -, *, integer powers
and multiplication by rationals occur in the certificate chain.

Every ring operation returns a ``Fraction`` when no monomial but 1 is left,
so a ``RadExpr`` names a radical: it is irrational and never zero as long as
its radicals are multiplicatively independent (sqrt(8) - 2 sqrt(2) is a
RadExpr of value 0).  A computation that collapses to a rational is exactly
rational; this is what makes path-endpoint checks exact even though
individual path segments have irrational coordinates.

The ring computes in integers: an expression keeps one integer numerator per
monomial over one common denominator, in lowest terms, and each operation
normalises its result once, with one gcd, instead of once per term (the
rational arithmetic of Knuth, TAOCP vol. 2, sec. 4.5.1).  ``lincomb`` sums a
whole linear combination with integer coefficients the same way, so a sum of
many terms makes one expression, not one per partial sum.

A monomial names its radicals by reference: it is a tuple of (radical,
exponent) pairs, and a radical's radicand names the older radicals it uses
the same way.  So a radical lives exactly as long as some monomial names it,
in a live expression or in the radicand of a newer radical, and the ring
operations reach every radical through the monomials in hand.
``_interned`` maps each (degree, radicand) to its live radical, weakly, so
two equal radicands share one symbol while either is in use (the canonical
form that makes the exact endpoint check work), and a long sampling run
holds only the radicals of the expressions it keeps.  Uids come from one
increasing counter and are never reused, and radicals order by uid, so
monomials sort, and floats are summed, in creation order.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from _weakref import _remove_dead_weakref
from fractions import Fraction

from .errors import FloatOverflow

__all__ = [
    "RadExpr",
    "as_float",
    "float_quotient",
    "int_nthroot",
    "fraction_nthroot",
    "lincomb",
    "root_norm",
    "scalar_powers",
    "scalar_key",
    "signed_root",
]


def int_nthroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0, plus whether it is exact."""
    if n < 0 or k < 1:
        raise ValueError("int_nthroot needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n, True
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x, x ** k == n


def fraction_nthroot(q: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None."""
    if q < 0:
        raise ValueError("fraction_nthroot needs q >= 0")
    rn, okn = int_nthroot(q.numerator, k)
    if not okn:
        return None
    rd, okd = int_nthroot(q.denominator, k)
    if not okd:
        return None
    return Fraction(rn, rd)


class _Radical:
    """Formal positive real r with r**degree == value.

    ``value`` is a Fraction or a RadExpr built only from radicals created
    earlier, which makes monomial reduction well founded.
    """

    __slots__ = ("uid", "degree", "value", "approx", "__weakref__")

    def __init__(self, uid: int, degree: int, value, approx: float):
        self.uid = uid
        self.degree = degree
        self.value = value
        self.approx = approx

    def __lt__(self, other: "_Radical") -> bool:
        return self.uid < other.uid


# (degree, scalar_key(value)) -> weak reference to the live radical.  A
# radical's death removes its entry from its weakref callback, which takes no
# lock (a radical can die inside _radical_for) and removes the key only while
# it maps to a dead reference (one C call, atomic under the GIL, as in
# weakref.WeakValueDictionary), so it never drops the entry of a newer radical
# for the same radicand.
_interned: dict = {}
_uids = itertools.count()
_lock = threading.Lock()


def _radical_for(degree: int, value, value_float: float) -> _Radical:
    """Intern a radical symbol for value**(1/degree); value > 0 exact and
    value_float its float."""
    key = (degree, scalar_key(value))
    with _lock:
        ref = _interned.get(key)
        rad = None if ref is None else ref()
        if rad is None:
            rad = _Radical(next(_uids), degree, value, _root_float(value_float, degree))
            _interned[key] = weakref.ref(
                rad, lambda _, key=key: _remove_dead_weakref(_interned, key)
            )
        return rad


# A monomial is a tuple of (radical, exponent), sorted by uid, with
# 1 <= exponent < degree.
_ONE: tuple = ()


class RadExpr:
    """Rational combination of reduced radical monomials, not the monomial
    1 alone (that value is a Fraction). Immutable.

    Stored as integer numerators ``nums`` ({monomial: int}) over one
    denominator ``den`` > 0, in lowest terms: no numerator is zero and
    gcd(den, *nums) == 1.  The form is canonical, so two expressions are
    equal exactly when their ``den`` and ``nums`` are.  ``terms`` is the
    same value as {monomial: Fraction}, a derived read-only view.  Each
    monomial holds its radicals, so an expression keeps alive the radicals
    it names and, through their radicands, the older radicals those name.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict, den: int = 1):
        # callers pass lowest terms; _reduced brings any numerators there
        self.nums = nums
        self.den = den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_radical(rad: _Radical) -> "RadExpr":
        return RadExpr({((rad, 1),): 1})

    @property
    def terms(self) -> dict:
        """The value as {monomial: Fraction}, built afresh on each read."""
        return {m: Fraction(n, self.den) for m, n in self.nums.items()}

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (RadExpr, int, Fraction)):
            return NotImplemented
        return lincomb(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return RadExpr({m: -n for m, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, (RadExpr, int, Fraction)):
            return NotImplemented
        return lincomb(((1, self), (-1, other)))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return lincomb(((1, other), (-1, self)))

    def __mul__(self, other):
        # A rational factor scales the numerators; the monomials are
        # already reduced, so this is what the general product gives.
        if isinstance(other, (int, Fraction)):
            return self._times(other.numerator, other.denominator)
        if not isinstance(other, RadExpr):
            return NotImplemented
        by_den: dict = {}
        for m1, n1 in self.nums.items():
            for m2, n2 in other.nums.items():
                _accumulate_product(by_den, m1, m2, n1 * n2)
        return _reduced(*_one_den(by_den, self.den * other.den))

    __rmul__ = __mul__

    def _times(self, p: int, q: int):
        """self * p / q for integers p and q > 0."""
        return _reduced({m: n * p for m, n in self.nums.items()}, self.den * q)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("RadExpr only supports nonnegative powers")
        result = Fraction(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- predicates -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RadExpr):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    # -- numerics -------------------------------------------------------------

    def to_float(self) -> float:
        """The value as a float; FloatOverflow where it has none."""
        # int / int is correctly rounded, as float(Fraction) is
        try:
            parts = []
            for mono in sorted(self.nums):
                x = self.nums[mono] / self.den
                for rad, e in mono:
                    x *= rad.approx ** e
                parts.append(x)
            total = math.fsum(parts)
        except (OverflowError, ValueError):  # ValueError: inf - inf
            total = math.inf
        if not math.isfinite(total):
            raise FloatOverflow(_TOO_LARGE)
        return total

    def __repr__(self):
        bits = []
        terms = self.terms
        for mono in sorted(terms):
            factors = [str(terms[mono])]
            for rad, e in mono:
                factors.append(f"({rad.value!s})^({e}/{rad.degree})")
            bits.append("*".join(factors))
        return "RadExpr(" + " + ".join(bits) + ")"


def _reduced(nums: dict, den: int):
    """nums / den in lowest terms: zero numerators dropped, one gcd; a
    Fraction when no monomial but 1 is left, else a RadExpr."""
    g = math.gcd(den, *nums.values())
    nums = {m: n // g for m, n in nums.items() if n}
    if nums.keys() <= {_ONE}:
        return Fraction(nums.get(_ONE, 0), den // g)
    return RadExpr(nums, den // g)


def _one_den(by_den: dict, lcd: int) -> tuple[dict, int]:
    """The partial sums {d: {monomial: numerator}}, each over its own
    denominator d, added over their least common multiple and divided by
    lcd: (numerators, denominator), not yet reduced."""
    if len(by_den) == 1:
        ((d, nums),) = by_den.items()
        return nums, d * lcd
    den = math.lcm(*by_den)
    nums: dict = {}
    for d, acc in by_den.items():
        k = den // d
        for m, n in acc.items():
            nums[m] = nums.get(m, 0) + k * n
    return nums, den * lcd


def lincomb(pairs, lcd: int = 1):
    """sum(c * x for c, x in pairs) / lcd for integers c, an integer lcd > 0
    and exact scalars x (int, Fraction or RadExpr).

    The numerators are summed per denominator of x, brought over one common
    denominator and normalised once (:func:`_reduced`): the result is a
    Fraction when its value is rational, else a RadExpr.
    """
    by_den: dict = {}
    for c, x in pairs:
        if isinstance(x, RadExpr):
            acc = by_den.get(x.den)
            if acc is None:
                acc = by_den[x.den] = {}
            for m, n in x.nums.items():
                acc[m] = acc.get(m, 0) + c * n
        else:
            acc = by_den.get(x.denominator)
            if acc is None:
                acc = by_den[x.denominator] = {}
            acc[_ONE] = acc.get(_ONE, 0) + c * x.numerator
    return _reduced(*_one_den(by_den, lcd))


def _parts(x) -> tuple[dict, int]:
    """(numerators, denominator) of an exact scalar: a RadExpr's own, a
    rational's one numerator on the monomial 1."""
    if isinstance(x, RadExpr):
        return x.nums, x.den
    return {_ONE: x.numerator}, x.denominator


def _merge(mono, extra: tuple) -> dict:
    """Exponents of mono * extra, unreduced; mono is a monomial or a dict."""
    out = dict(mono)
    for rad, e in extra:
        out[rad] = out.get(rad, 0) + e
    return out


def _accumulate_product(by_den: dict, m1: tuple, m2: tuple, coeff: int) -> None:
    """Add coeff * m1 * m2 to the partial sums by_den, with full exponent
    reduction: r**e with e >= degree becomes r**(e mod degree) times the
    value of r to the power e // degree.  Each reduction multiplies the
    term's denominator d by that value's denominator; a reduced term is
    added to the partial sum by_den[d]."""
    stack = [(_merge(m1, m2), coeff, 1)]
    while stack:
        mono, c, d = stack.pop()
        rad = max((x for x, e in mono.items() if e >= x.degree), default=None)
        if rad is None:
            acc = by_den.get(d)
            if acc is None:
                acc = by_den[d] = {}
            key = tuple(sorted(mono.items()))
            acc[key] = acc.get(key, 0) + c
            continue
        q, r = divmod(mono[rad], rad.degree)
        if r:
            mono[rad] = r
        else:
            del mono[rad]
        vnums, vden = _parts(rad.value if q == 1 else rad.value ** q)
        for m, n in vnums.items():
            stack.append((_merge(mono, m), c * n, d * vden))


# -- generic scalar helpers (Fraction | RadExpr | float) ----------------------

_TOO_LARGE = "exact value too large for a float"


def float_quotient(num: int, den: int) -> float:
    """num / den correctly rounded; FloatOverflow beyond the float range."""
    try:
        return num / den
    except OverflowError:
        raise FloatOverflow(_TOO_LARGE) from None


def as_float(x) -> float:
    """x as a float; an exact value beyond the float range raises
    FloatOverflow."""
    if isinstance(x, RadExpr):
        return x.to_float()
    try:
        return float(x)
    except OverflowError:
        raise FloatOverflow(_TOO_LARGE) from None


def to_exact(x):
    """x as an exact scalar: a RadExpr or a Fraction as it is, anything else
    as a Fraction (a float is read as its exact binary fraction)."""
    return x if isinstance(x, (RadExpr, Fraction)) else Fraction(x)


def scalar_key(x):
    """Hashable canonical key, equal exactly for equal scalars: a rational
    is its (numerator, denominator)."""
    if isinstance(x, RadExpr):
        return ("rad", x.den, tuple(sorted(x.nums.items())))
    return (x.numerator, x.denominator)


def scalar_powers(s, n: int) -> list:
    """[s, s**2, ..., s**n] for an exact scalar s.

    A radical monomial r**e with coefficient 1, such as the r that
    :func:`signed_root` returns, is read off its radical, not multiplied
    out: with r**d == value, r**(e * l) = value**t * r**m where t, m =
    divmod(e * l, d).  The value involves only radicals older than r, so
    appending r**m to each of its monomials leaves them reduced and sorted
    and changes no numerator and no denominator: the powers are already in
    lowest terms and are built as they are (value**t itself when m = 0).
    Any other scalar is multiplied out.
    """
    mono = (
        next(iter(s.nums)) if isinstance(s, RadExpr) and len(s.nums) == 1 else ()
    )
    if len(mono) != 1 or s.den != 1 or s.nums[mono] != 1:
        out = [s]
        while len(out) < n:
            out.append(out[-1] * s)
        return out
    ((rad, e),) = mono
    value = rad.value
    value_powers = [Fraction(1), value]  # value**t
    out = []
    for l in range(1, n + 1):
        t, m = divmod(e * l, rad.degree)
        while len(value_powers) <= t:
            value_powers.append(value_powers[-1] * value)
        if not m:
            out.append(value_powers[t])
            continue
        base_nums, base_den = _parts(value_powers[t])
        tail = ((rad, m),)
        out.append(RadExpr({key + tail: c for key, c in base_nums.items()}, base_den))
    return out


def _magnitude(alpha, arity: int):
    """(sign, |alpha|, the exact arity-th root of |alpha| or None, the float
    of |alpha| when there is no exact root) of an exact scalar.  A rational
    alpha is read as a Fraction.  An irrational one is signed by its float,
    and that one float gives |alpha|'s: to_float negates every part exactly
    and math.fsum rounds correctly, so the float of -alpha is
    -float(alpha).  A float beyond the float range raises FloatOverflow.

    Taking the sign from the float is ROADMAP item 1(a)'s defect: an
    irrational alpha whose float rounds to 0.0, or to the wrong side of 0,
    is signed +1, so signed_root makes a root of a negative value
    (tests/test_cli.py, test_crafted_engel_target_roots_only_positive_values).
    """
    if isinstance(alpha, RadExpr):
        f = alpha.to_float()
        if f < 0:
            return -1, -alpha, None, -f
        return 1, alpha, None, f
    alpha = Fraction(alpha)
    s = (alpha > 0) - (alpha < 0)
    magnitude = abs(alpha)
    root = fraction_nthroot(magnitude, arity)
    return s, magnitude, root, None if root is not None else as_float(magnitude)


def _root_float(value_float: float, degree: int) -> float:
    """The float value of a radical of the given degree whose radicand has
    the float value_float: the ``approx`` of its symbol."""
    return max(value_float, 0.0) ** (1.0 / degree)


def signed_root(alpha, arity: int):
    """Split alpha = sign * scale**arity with scale >= 0.

    Exact inputs give an exact scale: a Fraction when |alpha| is a perfect
    arity-th power, otherwise a RadExpr radical monomial whose arity-th power
    reduces to |alpha| by construction.
    """
    s, magnitude, root, f = _magnitude(alpha, arity)
    if s == 0:
        return 0, Fraction(0)
    if root is not None:
        return s, root
    return s, RadExpr.from_radical(_radical_for(arity, magnitude, f))


def root_norm(alpha, arity: int) -> float:
    """sqrt(as_float(scale**2)) for the scale of ``signed_root(alpha,
    arity)``, computed from alpha without creating its radical: for an exact
    root r, sqrt(float(r * r)); for arity 2, sqrt(float(|alpha|)), the value
    r**2 reduces to; above, the float of the monomial r**2, the radical's
    float value squared.  A value beyond the float range raises
    FloatOverflow."""
    s, _, root, f = _magnitude(alpha, arity)
    if s == 0:
        return 0.0
    if root is not None:
        square = as_float(root * root)
    elif arity == 2:
        square = f
    else:
        square = _root_float(f, arity) ** 2
    return math.sqrt(max(0.0, square))
