"""Truncated free associative algebra over rational word series.

Everything combinatorial about the group law lives here: exponentials and
logarithms of noncommutative power series truncated at a fixed degree, the
Lyndon-word basis of the free Lie algebra with its standard bracketings, and
the canonicalization that rewrites a homogeneous Lie element as a table of
right-nested bracket coefficients.

Letters are 0-based ints; a word is a tuple of letters; the empty word is the
unit.  Series coefficients are Fractions, so every identity checked
downstream is exact.  The logarithm of a product of letter exponentials,
which every coefficient table starts from, runs in integers
(:func:`log_of_exp_product`) and makes one Fraction per word at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Word = tuple[int, ...]

EMPTY: Word = ()


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

    def component(self, degree: int) -> dict[Word, Fraction]:
        return {w: c for w, c in self.terms.items() if len(w) == degree}

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


def log_of_exp_product(factors, cap: int) -> FreeSeries:
    """log of prod_t exp(s_t X_{a_t}) for ``factors`` = [(a_t, s_t)], s_t = +-1.

    The word coefficients of a product of exponentials are multinomials, so
    the whole computation runs in integers (Goldberg, Duke Math. J. 23,
    1956; Reutenauer, Free Lie Algebras, ch. 3).  A word w is held as
    |w|! coeff(w): appending c copies of letter a multiplies it by
    s^c C(|w|+c, c), and a concatenation v u is weighted by C(|v|+|u|, |u|).
    log g = sum_m (-1)^(m+1)/m (g-1)^m is accumulated over lcm(1..cap) |w|!,
    and one Fraction per word is made at the end.
    """
    # levels[l]: word of length l -> l! coeff, zeros dropped
    levels: list[dict] = [{EMPTY: 1}] + [{} for _ in range(cap)]
    for a, s in factors:
        # longest words first, so no word is extended twice by one factor
        for length in range(cap - 1, -1, -1):
            source = levels[length]
            if not source:
                continue
            steps = [
                (levels[length + c], (a,) * c, s ** c * math.comb(length + c, c))
                for c in range(1, cap - length + 1)
            ]
            for w, x in source.items():
                for target, tail, b in steps:
                    v = w + tail
                    t = target.get(v, 0) + b * x
                    if t:
                        target[v] = t
                    else:
                        del target[v]
    u = [{}] + levels[1:]
    scale = math.lcm(*range(1, cap + 1))
    acc: dict[Word, int] = {}
    power = u
    for m in range(1, cap + 1):
        weight = scale // m if m % 2 else -(scale // m)
        for level in power[m:]:
            for w, c in level.items():
                acc[w] = acc.get(w, 0) + weight * c
        # (g-1)^(m+1) = (g-1)^m (g-1), words of length >= m+1 only
        nxt: list[dict] = [{} for _ in range(cap + 1)]
        for n1 in range(m, cap):
            for n2 in range(1, cap - n1 + 1):
                if not power[n1] or not u[n2]:
                    continue
                b = math.comb(n1 + n2, n2)
                out = nxt[n1 + n2]
                right = u[n2].items()
                for w1, c1 in power[n1].items():
                    bc = b * c1
                    for w2, c2 in right:
                        w = w1 + w2
                        out[w] = out.get(w, 0) + bc * c2
        power = [{w: c for w, c in level.items() if c} for level in nxt]
        if not any(power):
            break
    return FreeSeries(
        {w: Fraction(c, scale * math.factorial(len(w))) for w, c in acc.items()},
        cap,
    )


def right_nested_series(word: Word, cap: int) -> FreeSeries:
    """[w0, [w1, [... wn]]] as an associative polynomial."""
    if not word:
        raise ValueError("empty bracket word")
    series = FreeSeries.letter(word[-1], cap)
    for letter in reversed(word[:-1]):
        series = FreeSeries.letter(letter, cap).commutator(series)
    return series


# -- Lyndon machinery ---------------------------------------------------------

def is_lyndon(word: Word) -> bool:
    if not word:
        return False
    n = len(word)
    return all(word < word[i:] + word[:i] for i in range(1, n))


@lru_cache(maxsize=None)
def lyndon_words(alphabet: int, max_len: int) -> tuple[Word, ...]:
    """All Lyndon words of length 1..max_len, sorted by (length, lex)."""
    out: list[Word] = []
    # Duval's generation, then re-sorted by length for layer grouping.
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m <= max_len:
            out.append(tuple(w))
        while len(w) < max_len:
            w.append(w[-m])
        while w and w[-1] == alphabet - 1:
            w.pop()
    return tuple(sorted(out, key=lambda t: (len(t), t)))


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split a Lyndon word w = u v with v its longest proper Lyndon suffix."""
    n = len(word)
    if n < 2:
        raise ValueError("cannot factor a single letter")
    for i in range(1, n):
        if is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise ValueError(f"{word!r} is not a Lyndon word")


@lru_cache(maxsize=None)
def lyndon_bracketing(word: Word):
    """Bracketing tree of a Lyndon word: a letter or a pair of subtrees."""
    if len(word) == 1:
        return word[0]
    u, v = standard_factorization(word)
    return (lyndon_bracketing(u), lyndon_bracketing(v))


def _bracketing_series(tree, cap: int) -> FreeSeries:
    if isinstance(tree, int):
        return FreeSeries.letter(tree, cap)
    left, right = tree
    return _bracketing_series(left, cap).commutator(_bracketing_series(right, cap))


@lru_cache(maxsize=None)
def lyndon_basis_series(word: Word, cap: int) -> FreeSeries:
    return _bracketing_series(lyndon_bracketing(word), cap)


def lyndon_decompose(series: FreeSeries) -> dict[Word, Fraction]:
    """Coordinates of a Lie series in the Lyndon basis.

    Uses the triangularity of standard bracketings: the lexicographically
    smallest word in the support of a homogeneous Lie element is a Lyndon
    word and carries the basis coefficient.
    """
    out: dict[Word, Fraction] = {}
    residue = series
    while residue.terms:
        w = min(residue.terms, key=lambda t: (len(t), t))
        if not is_lyndon(w):
            raise ValueError(f"series is not a Lie element (stray word {w!r})")
        c = residue.terms[w]
        out[w] = c
        residue = residue - lyndon_basis_series(w, series.cap).scale(c)
    return out


# -- canonical right-nested tables --------------------------------------------

def dsw_entries(series: FreeSeries, min_degree: int = 2) -> dict[Word, Fraction]:
    """Canonical right-nested bracket coefficients of a Lie series.

    For each homogeneous component of degree p the Dynkin-Specht-Wever
    projection writes the component as (1/p) * sum_w c_w [w_0,[w_1,...]].
    Words whose last two letters agree bracket to zero and are dropped; the
    pair {w, w'} obtained by swapping the last two letters spans one
    dimension, so contributions are folded onto one representative and the
    sign is normalized to be positive.  The resulting entries reproduce the
    classical compact forms (1/2 on (0,1) at degree 2; 1/12 on (0,0,1) and
    (1,1,0) at degree 3 for the two-letter group law).
    """
    folded: dict[Word, Fraction] = {}
    for w, c in series.terms.items():
        p = len(w)
        if p < min_degree or p < 2:
            continue
        if w[-1] == w[-2]:
            continue
        swapped = w[:-2] + (w[-1], w[-2])
        rep = min(w, swapped)
        contrib = Fraction(c, p) if w == rep else -Fraction(c, p)
        s = folded.get(rep, 0) + contrib
        if s:
            folded[rep] = s
        else:
            del folded[rep]
    out: dict[Word, Fraction] = {}
    for w, c in folded.items():
        if c > 0:
            out[w] = c
        else:
            out[w[:-2] + (w[-1], w[-2])] = -c
    return out
