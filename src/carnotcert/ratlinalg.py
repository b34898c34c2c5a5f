"""Small exact linear algebra over Fraction matrices.

Matrices are tuples of tuples of Fractions.  Sizes in this package are tiny
(layers have a handful of dimensions), so plain Gaussian elimination with a
first-nonzero pivot is plenty and keeps every result exact and deterministic.
:func:`clear_denominators` is the one place where a list of rationals is
brought over a common denominator, for the integer kernels of the group law,
the quadratic forms, the minimal preimages and the ball order.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def clear_denominators(values) -> tuple[int, list[int]]:
    """(D, [v * D for v in values]) with D the least common denominator;
    every v * D is an int.  The empty list gives D = 1."""
    values = list(values)
    den = math.lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def _eliminate(rows: list[list[Fraction]], ncols: int) -> tuple[int, Fraction]:
    """In-place forward elimination; returns (rank, product of pivots)."""
    rank = 0
    det = Fraction(1)
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        det *= rows[rank][col]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank, det


def mat_rank(a: Matrix) -> int:
    rows = [list(row) for row in a]
    if not rows:
        return 0
    rank, _ = _eliminate(rows, len(rows[0]))
    return rank


def mat_det(a: Matrix) -> Fraction:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    rows = [list(row) for row in a]
    rank, det = _eliminate(rows, n)
    return det if rank == n else Fraction(0)


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(e) for row, e in zip(a, identity(n))]
    rank, _ = _eliminate(aug, n)
    if rank != n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


def cholesky_lower(g) -> list[list[float]]:
    """Float Cholesky factor L (g = L L^T) of an SPD Fraction matrix."""
    n = len(g)
    low = [[0.0] * n for _ in range(n)]
    gf = [[float(x) for x in row] for row in g]
    for i in range(n):
        for j in range(i + 1):
            s = gf[i][j] - math.fsum(low[i][t] * low[j][t] for t in range(j))
            if i == j:
                if s <= 0:
                    raise ZeroDivisionError("matrix is not positive definite")
                low[i][j] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return low
