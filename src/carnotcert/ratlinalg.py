"""Small exact linear algebra over Fraction matrices, computed in integers.

Matrices are tuples of tuples of Fractions.  :func:`clear_denominators` is
the one place where a list of rationals is brought over a common
denominator, for the integer kernels of the group law, the quadratic forms,
the minimal preimages and the ball order, and for the one fraction-free
elimination behind rank, determinant and inverse.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

Matrix = tuple[tuple[Fraction, ...], ...]


def clear_denominators(values) -> tuple[int, list[int]]:
    """(D, [v * D for v in values]) with D the least common denominator;
    every v * D is an int.  The empty list gives D = 1."""
    values = list(values)
    den = math.lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def integer_matrix(a) -> tuple[int, list[list[int]]]:
    """(D, rows of D * a): a matrix over the least common denominator D of
    its entries, as lists of ints."""
    den, nums = clear_denominators(x for row in a for x in row)
    flat = iter(nums)
    return den, [list(islice(flat, len(row))) for row in a]


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[int, int]:
    """In-place fraction-free (Bareiss) Gauss-Jordan elimination of integer
    rows over their first ncols columns: with pivot p after pivot q, each
    other row r becomes (p r - r[col] pivot_row) / q, an exact division.
    Returns (rank, last pivot negated once per row swap); on a full-rank
    square matrix that is its determinant, and every row ends with the last
    pivot on its diagonal and zeros elsewhere in the first ncols columns."""
    rank, prev, sign = 0, 1, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank]
        p = top[col]
        for r, row in enumerate(rows):
            f = row[col]
            # a row with f = 0 is unchanged when p = q, as on an identity
            if r != rank and (f or p != prev):
                rows[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    return rank, sign * prev


def mat_rank(a: Matrix) -> int:
    _, rows = integer_matrix(a)
    return _eliminate(rows, len(rows[0]))[0] if rows else 0


def mat_det(a: Matrix) -> Fraction:
    """det(D a) / D**n, from the signed last pivot of D a."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    den, rows = integer_matrix(a)
    rank, det = _eliminate(rows, n)
    return Fraction(det, den ** n) if rank == n else Fraction(0)


def mat_inv(a: Matrix) -> Matrix:
    """a^-1 = D (D a)^-1: row i of the eliminated right-hand block, times D
    over its diagonal entry."""
    n = len(a)
    den, rows = integer_matrix(a)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    rank, _ = _eliminate(aug, n)
    if rank != n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(
        tuple(Fraction(den * x, row[i]) for x in row[n:])
        for i, row in enumerate(aug)
    )


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
