"""Word polynomials of the free associative algebra.

Everything combinatorial about the group law lives here: the logarithm of a
product of letter exponentials truncated at a fixed degree, the Lyndon-word
basis of the free Lie algebra with its standard bracketings, the
canonicalization that rewrites a homogeneous Lie element as a table of
right-nested bracket coefficients, and the signed letter word of the
right-nested group commutator, which both the commutator tail of the group
law and the segments of a horizontal path are read from.

Letters are 0-based ints; a word is a tuple of letters; the empty word is the
unit.  A polynomial is a dict from words to coefficients, zeros dropped.
Brackets of letters and the Lyndon basis have integer coefficients, and the
logarithm of a product of letter exponentials, which every coefficient table
starts from, runs in integers (:func:`log_of_exp_product`) and makes one
Fraction per word at the end, so every identity checked downstream is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

Word = tuple[int, ...]

EMPTY: Word = ()


def commutator(p: dict, q: dict) -> dict:
    """[p, q] = pq - qp of two word polynomials, untruncated, zeros dropped."""
    out: dict[Word, int] = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            c = c1 * c2
            out[w1 + w2] = out.get(w1 + w2, 0) + c
            out[w2 + w1] = out.get(w2 + w1, 0) - c
    return {w: c for w, c in out.items() if c}


def log_of_exp_product(factors, cap: int) -> dict[Word, Fraction]:
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
    return {
        w: Fraction(c, scale * math.factorial(len(w))) for w, c in acc.items() if c
    }


def right_nested(word: Word) -> dict[Word, int]:
    """[w0, [w1, [... wn]]] as an integer polynomial."""
    if not word:
        raise ValueError("empty bracket word")
    poly = {word[-1:]: 1}
    for letter in reversed(word[:-1]):
        poly = commutator({(letter,): 1}, poly)
    return poly


# -- Lyndon machinery ---------------------------------------------------------

def is_lyndon(word: Word) -> bool:
    if not word:
        return False
    n = len(word)
    return all(word < word[i:] + word[:i] for i in range(1, n))


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
def lyndon_basis_poly(word: Word) -> MappingProxyType:
    """Standard bracketing of a Lyndon word as an integer polynomial; its
    lexicographically smallest word is the word itself, with coefficient 1.
    Shared from a cache, so it is a read-only mapping."""
    if len(word) == 1:
        return MappingProxyType({word: 1})
    u, v = standard_factorization(word)
    return MappingProxyType(commutator(lyndon_basis_poly(u), lyndon_basis_poly(v)))


def lyndon_decompose(poly: dict) -> dict:
    """Coordinates of a homogeneous Lie polynomial in the Lyndon basis.

    Uses the triangularity of standard bracketings: the lexicographically
    smallest word in the support of a homogeneous Lie element is a Lyndon
    word and carries the basis coefficient.  The basis polynomials lead with
    coefficient 1, so integer input gives integer coordinates.
    """
    out = {}
    residue = {w: c for w, c in poly.items() if c}
    while residue:
        w = min(residue, key=lambda t: (len(t), t))
        if not is_lyndon(w):
            raise ValueError(f"polynomial is not a Lie element (stray word {w!r})")
        c = out[w] = residue[w]
        for v, b in lyndon_basis_poly(w).items():
            left = residue.pop(v, 0) - c * b
            if left:
                residue[v] = left
    return out


# -- canonical right-nested tables --------------------------------------------

def dsw_entries(terms: dict) -> dict[Word, Fraction]:
    """Canonical right-nested bracket coefficients of a Lie polynomial.

    For each homogeneous component of degree p the Dynkin-Specht-Wever
    projection writes the component as (1/p) * sum_w c_w [w_0,[w_1,...]].
    Single letters are no brackets, and words whose last two letters agree
    bracket to zero; both are dropped.  The pair {w, w'} obtained by
    swapping the last two letters spans one dimension, so contributions are
    folded onto one representative and the sign is normalized to be
    positive.  The resulting entries reproduce the classical compact forms
    (1/2 on (0,1) at degree 2; 1/12 on (0,0,1) and (1,1,0) at degree 3 for
    the two-letter group law).
    """
    folded: dict[Word, Fraction] = {}
    for w, c in terms.items():
        p = len(w)
        if p < 2 or w[-1] == w[-2]:
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


# -- group commutator words ---------------------------------------------------

def letter_count(arity: int) -> int:
    """Length of :func:`commutator_word` for the arity, 3 * 2**(arity-1) - 2,
    without building the word."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    return 3 * 2 ** (arity - 1) - 2


def commutator_word(arity: int) -> list[tuple[int, int]]:
    """Signed generator word of the right-nested group commutator.

    [x, g]_c = x g x^-1 g^-1 unrolled into letters, g being the commutator
    of the remaining positions: g^-1 is g's letters reversed with their
    signs flipped.  Returns (position, sign) pairs over row positions
    0..arity-1.  Position i < arity-1 appears 2**(i+1) times, the last
    position 2**(arity-1) times, 3 * 2**(arity-1) - 2 letters in all; for
    arity 3 that is two, four and four occurrences.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if arity == 1:
        return [(0, 1)]
    inner = [(pos + 1, sign) for pos, sign in commutator_word(arity - 1)]
    inverse = [(pos, -sign) for pos, sign in reversed(inner)]
    return [(0, 1)] + inner + [(0, -1)] + inverse
