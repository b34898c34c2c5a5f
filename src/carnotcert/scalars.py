"""Exact scalar arithmetic, including formal radicals.

Structure constants and group-law coefficients are plain ``Fraction``s.  The
balanced horizontal decompositions additionally need j-th roots of exact
quantities (row scales).  Those are handled by ``RadExpr``: a finite rational
combination of monomials in formal positive symbols r, each carrying the
reduction rule r**degree == value.  Values of later symbols may involve
earlier ones, so the ring is a tower of radical extensions of Q.  No division
by ring elements is ever needed; only the operations +, -, *, integer powers
and multiplication by rationals occur in the certificate chain.

A computation that collapses to a rational in this ring is exactly rational;
this is what makes path-endpoint checks exact even though individual path
segments have irrational coordinates.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "RadExpr",
    "as_float",
    "int_nthroot",
    "fraction_nthroot",
    "is_zero_scalar",
    "scalar_key",
    "sign_of",
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

    __slots__ = ("uid", "degree", "value", "approx")

    def __init__(self, uid: int, degree: int, value, approx: float):
        self.uid = uid
        self.degree = degree
        self.value = value
        self.approx = approx


_registry: list[_Radical] = []
_dedup: dict = {}
_lock = threading.Lock()


def _radical_for(degree: int, value) -> _Radical:
    """Intern a radical symbol for value**(1/degree); value > 0 exact."""
    key = (degree, scalar_key(value))
    with _lock:
        rad = _dedup.get(key)
        if rad is None:
            approx = max(as_float(value), 0.0) ** (1.0 / degree)
            rad = _Radical(len(_registry), degree, value, approx)
            _registry.append(rad)
            _dedup[key] = rad
        return rad


# A monomial is a sorted tuple of (uid, exponent) with 1 <= exponent < degree.
_ONE: tuple = ()


class RadExpr:
    """Rational combination of reduced radical monomials. Immutable."""

    __slots__ = ("terms", "_float")

    def __init__(self, terms: dict):
        self.terms = terms
        self._float = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "RadExpr":
        q = Fraction(q)
        return RadExpr({} if q == 0 else {_ONE: q})

    @staticmethod
    def from_radical(rad: _Radical) -> "RadExpr":
        return RadExpr({((rad.uid, 1),): Fraction(1)})

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return RadExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return RadExpr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        # A rational factor scales the coefficients; the monomials are
        # already reduced, so this is the dict the general product builds.
        if isinstance(other, RadExpr):
            if len(other.terms) == 1 and _ONE in other.terms:
                return self._times(other.terms[_ONE])
            if len(self.terms) == 1 and _ONE in self.terms:
                return other._times(self.terms[_ONE])
        elif isinstance(other, (int, Fraction)):
            return self._times(other)
        else:
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate_product(out, m1, m2, c1 * c2)
        return RadExpr({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def _times(self, q) -> "RadExpr":
        """self * q for a rational q."""
        if not q:
            return RadExpr({})
        return RadExpr({m: c * q for m, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("RadExpr only supports nonnegative powers")
        result = RadExpr.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- predicates -----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        return all(m == _ONE for m in self.terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("RadExpr is not rational")
        return self.terms.get(_ONE, Fraction(0))

    # -- numerics -------------------------------------------------------------

    def to_float(self) -> float:
        if self._float is None:
            parts = []
            for mono in sorted(self.terms):
                c = self.terms[mono]
                x = float(c)
                for uid, e in mono:
                    x *= _registry[uid].approx ** e
                parts.append(x)
            self._float = math.fsum(parts)
        return self._float

    def __repr__(self):
        if self.is_zero:
            return "RadExpr(0)"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [str(c)]
            for uid, e in mono:
                rad = _registry[uid]
                factors.append(f"({rad.value!s})^({e}/{rad.degree})")
            bits.append("*".join(factors))
        return "RadExpr(" + " + ".join(bits) + ")"


def _coerce(x):
    if isinstance(x, RadExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return RadExpr.from_rational(x)
    return NotImplemented


def _accumulate_product(out: dict, m1: tuple, m2: tuple, coeff: Fraction) -> None:
    """out += coeff * m1 * m2 with full exponent reduction."""
    merged: dict = dict(m1)
    for uid, e in m2:
        merged[uid] = merged.get(uid, 0) + e
    stack = [(merged, coeff)]
    while stack:
        mono, c = stack.pop()
        over = None
        for uid in sorted(mono, reverse=True):
            if mono[uid] >= _registry[uid].degree:
                over = uid
                break
        if over is None:
            key = tuple(sorted(mono.items()))
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
            continue
        rad = _registry[over]
        q, r = divmod(mono[over], rad.degree)
        base = dict(mono)
        if r:
            base[over] = r
        else:
            del base[over]
        value = rad.value
        if not isinstance(value, RadExpr):
            value = RadExpr.from_rational(value)
        for mono2, c2 in (value ** q).terms.items():
            merged2 = dict(base)
            for uid2, e2 in mono2:
                merged2[uid2] = merged2.get(uid2, 0) + e2
            stack.append((merged2, c * c2))


# -- generic scalar helpers (Fraction | RadExpr | float) ----------------------

def as_float(x) -> float:
    if isinstance(x, RadExpr):
        return x.to_float()
    return float(x)


def to_exact(x):
    """x as an exact scalar: a RadExpr as it is, anything else as a Fraction
    (a float is read as its exact binary fraction)."""
    return x if isinstance(x, RadExpr) else Fraction(x)


def is_zero_scalar(x) -> bool:
    if isinstance(x, RadExpr):
        return x.is_zero
    return x == 0


def sign_of(x) -> int:
    """Sign of a scalar; exact for rationals, float-guided for radicals."""
    if isinstance(x, RadExpr):
        if x.is_rational:
            q = x.rational_value()
            return (q > 0) - (q < 0)
        f = x.to_float()
        return -1 if f < 0 else 1
    return (x > 0) - (x < 0)


def scalar_key(x):
    """Hashable canonical key, equal exactly for equal scalars: a rational,
    Fraction or rational RadExpr alike, is its (numerator, denominator)."""
    if isinstance(x, RadExpr):
        if not x.is_rational:
            return ("rad", tuple(sorted(x.terms.items())))
        x = x.rational_value()
    return (x.numerator, x.denominator)


def signed_root(alpha, arity: int):
    """Split alpha = sign * scale**arity with scale >= 0.

    Exact inputs give an exact scale: a Fraction when |alpha| is a perfect
    arity-th power, otherwise a RadExpr radical monomial whose arity-th power
    reduces to |alpha| by construction.
    """
    if isinstance(alpha, RadExpr) and alpha.is_rational:
        alpha = alpha.rational_value()
    if isinstance(alpha, (int, Fraction)):
        alpha = Fraction(alpha)
        if alpha == 0:
            return 0, Fraction(0)
        s = 1 if alpha > 0 else -1
        root = fraction_nthroot(abs(alpha), arity)
        if root is not None:
            return s, root
        return s, RadExpr.from_radical(_radical_for(arity, abs(alpha)))
    # irrational scalar
    if alpha.is_zero:
        return 0, Fraction(0)
    s = sign_of(alpha)
    magnitude = alpha if s > 0 else -alpha
    return s, RadExpr.from_radical(_radical_for(arity, magnitude))
