"""Group law of the Engel group through a faithful 4x4 representation.

It shares no code with ``bch_engine`` or ``GradedAlgebra.bracket``: an
element with first-kind coordinates (a, b, c, d) maps to the nilpotent
matrix a(E12 + E23 + E34) + b E34 + c E24 + d E14 (brackets [X1, X2] = X3,
[X1, X3] = X4), and the group product is the product of matrix exponentials.
Entries are any exact scalars with + and * (Fraction or the radical ring).
A strictly upper-triangular matrix is stored sparsely as {(row, col): entry}.
"""

from __future__ import annotations

from fractions import Fraction


def engel_matrix(coords) -> dict:
    a, b, c, d = coords
    entries = {(0, 1): a, (1, 2): a, (2, 3): a + b, (1, 3): c, (0, 3): d}
    return {key: x for key, x in entries.items() if x != 0}


def _mul(n1: dict, n2: dict) -> dict:
    out: dict = {}
    for (i, t), x in n1.items():
        for (s, j), y in n2.items():
            if s == t:
                out[(i, j)] = out[(i, j)] + x * y if (i, j) in out else x * y
    return out


def _add(n1: dict, n2: dict) -> dict:
    out = dict(n1)
    for key, y in n2.items():
        out[key] = out[key] + y if key in out else y
    return out


def unipotent_exp(nil: dict) -> dict:
    """Strict upper part of exp(N) = I + N + N^2/2 + N^3/6 for 4x4 N."""
    square = _mul(nil, nil)
    cube = _mul(square, nil)
    half = {key: x * Fraction(1, 2) for key, x in square.items()}
    sixth = {key: x * Fraction(1, 6) for key, x in cube.items()}
    return _add(_add(nil, half), sixth)


def group_mul(u1: dict, u2: dict) -> dict:
    """(I + N1)(I + N2) = I + N1 + N2 + N1 N2, strict upper parts."""
    return _add(_add(u1, u2), _mul(u1, u2))


def engel_element(coords) -> dict:
    return unipotent_exp(engel_matrix(coords))


def engel_product(elements) -> dict:
    """Group product of elements given by first-kind coordinates."""
    out: dict = {}
    for coords in elements:
        out = group_mul(out, engel_element(coords))
    return out


def same_element(u1: dict, u2: dict) -> bool:
    """Exact equality of two unipotent matrices (strict upper parts)."""
    return all(u1.get(key, 0) - u2.get(key, 0) == 0 for key in set(u1) | set(u2))
