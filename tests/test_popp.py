import json
import math
from decimal import localcontext
from fractions import Fraction

import numpy as np
import pytest

from carnotcert.errors import (
    FloatOverflow,
    LayerOutOfRange,
    NonpositiveRadius,
    SingularBasis,
)
from carnotcert.graded_algebra import load_algebra, resolve_algebra
from carnotcert.popp_metric import ball_volume_parts, box_volume_parts, build_popp
from carnotcert.ratlinalg import cholesky_lower
from carnotcert.scalars import RadExpr, as_float, signed_root
from oracle_utils import (
    box_volume,
    decimal_value,
    expand_pairs,
    full_preimage_oracle,
    lstsq_min_norm,
    mat_vec,
    rand_layer_coords,
    tensor_bracket_oracle,
    tensor_words,
)

SQRT2 = math.sqrt(2.0)

# Engel with a declared non-diagonal layer-1 scalar product: the loaded
# algebra's orthonormal basis has fractional structure constants.
ENGEL_INNER1 = (
    '{"name": "engel-inner1", "dims": [2, 1, 1], "brackets": ['
    '{"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]},'
    ' {"a": [1, 1], "b": [2, 1], "out": [{"layer": 3, "idx": 1, "coeff": "1"}]}],'
    ' "inner1": [["4", "2"], ["2", "5"]]}'
)


def test_heisenberg_bracket_matrix_and_gram(heisenberg_metric):
    m2 = heisenberg_metric.bracket_matrices[2]
    assert m2 == ((Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),)
    assert heisenberg_metric.grams[2] == ((Fraction(1, 2),),)
    assert heisenberg_metric.grams[1] == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )


@pytest.mark.parametrize(
    "token",
    ["heisenberg:1", "heisenberg:2", "heisenberg:3", "engel"]
    + [f"free_nilpotent:{d1},{k}" for d1, k in
       [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3)]]
    + [ENGEL_INNER1],
    ids=lambda token: "engel-inner1" if token == ENGEL_INNER1 else token,
)
def test_tensor_maps_match_word_brackets(token):
    """Popp's recursion M_j = B_j (I (x) M_(j-1)) gives the j-fold bracket
    of every lex word of layer-1 letters."""
    alg = resolve_algebra(token)
    metric = build_popp(alg)
    for layer in range(2, alg.step + 1):
        assert metric.bracket_matrices[layer] == tensor_bracket_oracle(alg, layer)


@pytest.mark.parametrize(
    "token",
    ["heisenberg:1", "heisenberg:3", "engel"]
    + [f"free_nilpotent:{d1},{k}" for d1, k in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]]
    + [ENGEL_INNER1],
    ids=lambda token: "engel-inner1" if token == ENGEL_INNER1 else token,
)
def test_preimage_rows_are_antisymmetric_in_the_last_two_letters(token):
    """The j-fold bracket is antisymmetric in its last two letters, so row
    (u, b, a) of M_j^T G_j, the map from layer coordinates to minimal
    preimage coefficients, is the exact negation of row (u, a, b), and row
    (u, a, a) is zero.  The full M^T G is built here, from the metric's
    tensor maps and Grams, and the metric keeps exactly its rows (u, a, b),
    a < b, in lex order: one per pair, the one the adjustment splits."""
    alg = resolve_algebra(token)
    metric = build_popp(alg)
    d1 = alg.dims[0]
    for layer in range(2, alg.step + 1):
        m, gram = metric.bracket_matrices[layer], metric.grams[layer]
        full = {
            word: tuple(
                sum((m[i][w] * gram[i][c] for i in range(len(m))), Fraction(0))
                for c in range(len(gram))
            )
            for w, word in enumerate(tensor_words(d1, layer))
        }
        assert any(any(row) for row in full.values())
        for (*u, a, b), row in full.items():
            assert row == tuple(-c for c in full[(*u, b, a)])
            if a == b:
                assert not any(row)
        pairs = [row for (*_, a, b), row in full.items() if a < b]
        kept = []
        for den, entries in metric.preimage_rows[layer]:
            row = [Fraction(0)] * len(gram)
            for _, j, n in entries:
                row[j] = Fraction(n, den)
            kept.append(tuple(row))
        assert kept == pairs
        assert len(pairs) == d1 ** (layer - 2) * d1 * (d1 - 1) // 2


def test_engel_layer3(engel_metric):
    m3 = engel_metric.bracket_matrices[3]
    # words in lex order: 000,001,010,011,100,101,110,111; nonzero at
    # (0,0,1) -> +X4 and (0,1,0) -> -X4
    assert m3 == (
        (
            Fraction(0),
            Fraction(1),
            Fraction(-1),
            Fraction(0),
            Fraction(0),
            Fraction(0),
            Fraction(0),
            Fraction(0),
        ),
    )
    assert engel_metric.layer_norm(3, [Fraction(1)]) == pytest.approx(
        1 / SQRT2, abs=1e-15
    )


def test_layer_norms(heisenberg_metric):
    assert heisenberg_metric.layer_norm(2, [Fraction(0)]) == 0.0
    assert heisenberg_metric.layer_norm(2, [Fraction(3)]) == pytest.approx(
        3 / SQRT2, abs=1e-14
    )
    assert heisenberg_metric.layer_norm(1, [Fraction(3), Fraction(4)]) == 5.0
    with pytest.raises(LayerOutOfRange):
        heisenberg_metric.layer_norm(5, [Fraction(1)])


def test_norms_match_lstsq_oracle(heisenberg_metric, engel_metric, h5_metric):
    cases = [
        (heisenberg_metric, 2, [Fraction(1)]),
        (engel_metric, 2, [Fraction(1)]),
        (engel_metric, 3, [Fraction(1)]),
        (h5_metric, 2, [Fraction(1)]),
    ]
    for metric, layer, coords in cases:
        oracle = np.linalg.norm(
            lstsq_min_norm(metric.bracket_matrices[layer], coords)
        )
        assert metric.layer_norm(layer, coords) == pytest.approx(
            oracle, abs=1e-12
        )


def test_minimal_preimage(heisenberg_metric, heisenberg):
    # one coefficient per pair word: (0, 1) stands for (0, 1) and (1, 0)
    assert heisenberg_metric.minimal_preimage(2, [Fraction(1)]) == (Fraction(1, 2),)
    u = expand_pairs(heisenberg_metric.minimal_preimage(2, [Fraction(1)]), 2, 2)
    assert u == [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(0)]
    assert u == full_preimage_oracle(heisenberg_metric, 2, [Fraction(1)])
    assert math.sqrt(float(sum(c * c for c in u))) == pytest.approx(
        1 / SQRT2, abs=1e-15
    )
    zero = heisenberg_metric.minimal_preimage(2, [Fraction(0)])
    assert all(c == 0 for c in zero)
    with pytest.raises(LayerOutOfRange):
        heisenberg_metric.minimal_preimage(1, [Fraction(1), Fraction(1)])


def test_preimage_is_exact_and_optimal(engel_metric, rng):
    """phi(u) = v exactly; u is orthogonal to ker M so any kernel shift grows."""
    for layer in (2, 3):
        m = engel_metric.bracket_matrices[layer]
        coords = rand_layer_coords(engel_metric.algebra, rng, layer)
        u = expand_pairs(engel_metric.minimal_preimage(layer, coords), 2, layer)
        assert u == full_preimage_oracle(engel_metric, layer, coords)
        assert list(mat_vec(m, u)) == [Fraction(c) for c in coords]
        mf = np.array([[float(x) for x in row] for row in m])
        _, _, vt = np.linalg.svd(mf)
        kernel = vt[mf.shape[0] :]
        uf = np.array([float(c) for c in u])
        for _ in range(25):
            w = np.array([rng.gauss(0, 1) for _ in range(kernel.shape[0])]) @ kernel
            if np.linalg.norm(w) < 1e-9:
                continue
            assert np.linalg.norm(uf + w) > np.linalg.norm(uf)


def test_minimality_inequality(engel_metric, rng):
    """The induced norm of a bracketed tensor never exceeds the tensor norm."""
    alg = engel_metric.algebra
    for layer in (2, 3):
        m = engel_metric.bracket_matrices[layer]
        width = len(m[0])
        for _ in range(20):
            tensor = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(width)]
            image = mat_vec(m, tensor)
            lhs = engel_metric.layer_norm(layer, image)
            rhs = math.sqrt(float(sum(c * c for c in tensor)))
            assert lhs <= rhs + 1e-12


def test_gram_spd(heisenberg_metric, engel_metric, h5_metric, free23_metric):
    for metric in (heisenberg_metric, engel_metric, h5_metric, free23_metric):
        for layer, g in metric.grams.items():
            assert g == tuple(zip(*g))  # symmetric
            cholesky_lower(g)  # raises if not positive definite


def test_ball_volumes():
    assert ball_volume_parts(0) == (Fraction(1), 0)
    assert ball_volume_parts(1) == (Fraction(2), 0)
    assert ball_volume_parts(2) == (Fraction(1), 1)
    assert ball_volume_parts(3) == (Fraction(4, 3), 1)
    assert ball_volume_parts(4) == (Fraction(1, 2), 2)
    frac, pi_exp = ball_volume_parts(25)
    assert float(frac) * math.pi ** pi_exp == pytest.approx(
        math.pi ** 12.5 / math.gamma(13.5), rel=1e-12
    )


def test_ball_volume_parts_exact_beyond_20():
    """pi^(d/2) / (d/2)! for even d, 2^((d+1)/2) pi^((d-1)/2) / d!! for odd d."""
    for d in range(21, 61):
        if d % 2:
            double_factorial = math.prod(range(1, d + 1, 2))
            expected = Fraction(2 ** ((d + 1) // 2), double_factorial), (d - 1) // 2
        else:
            expected = Fraction(1, math.factorial(d // 2)), d // 2
        assert ball_volume_parts(d) == expected


def test_box_volume(heisenberg):
    vol = box_volume(heisenberg.dims, [Fraction(1, 2), Fraction(1, 512)])
    assert vol == pytest.approx(math.pi / 1024, abs=1e-18)
    frac, pi_exp = box_volume_parts(
        heisenberg.dims, [Fraction(1, 2), Fraction(1, 512)]
    )
    assert (frac, pi_exp) == (Fraction(1, 1024), 1)
    with pytest.raises(NonpositiveRadius):
        box_volume(heisenberg.dims, [Fraction(1, 2), Fraction(0)])


def test_box_volume_needs_one_radius_per_layer(heisenberg):
    """A radii list shorter or longer than the layer count is refused, not
    cut to the shorter of the two."""
    for radii in ([Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 512), 1]):
        with pytest.raises(NonpositiveRadius, match="need 2 radii"):
            box_volume_parts(heisenberg.dims, radii)


def test_covolume(heisenberg_metric, heisenberg):
    e1 = heisenberg.basis_vector(1, 0)
    e2 = heisenberg.basis_vector(1, 1)
    e3 = heisenberg.basis_vector(2, 0)
    std = heisenberg_metric.covolume([e1, e2, e3])
    assert std == pytest.approx(1 / SQRT2, abs=1e-15)
    # the orthonormal frame itself has covolume 1
    frame_basis = [e1, e2, e3.scale(Fraction(SQRT2).limit_denominator(10 ** 15))]
    assert heisenberg_metric.covolume(frame_basis) == pytest.approx(1.0, rel=1e-12)
    doubled = heisenberg_metric.covolume([e1.scale(2), e2, e3])
    assert doubled == pytest.approx(2 * std, rel=1e-12)
    with pytest.raises(SingularBasis):
        heisenberg_metric.covolume([e1, e1, e3])


def test_gram_brute_force_match(h5_metric):
    """Normal-equations Gram equals the pseudoinverse-derived Gram."""
    m = np.array(
        [[float(x) for x in row] for row in h5_metric.bracket_matrices[2]]
    )
    gram_oracle = np.linalg.inv(m @ m.T)
    ours = np.array([[float(x) for x in row] for row in h5_metric.grams[2]])
    assert np.allclose(ours, gram_oracle, atol=1e-12)


def test_layer_norm_of_an_irrational_form_beyond_the_float_range():
    """On a dims [2, 1] document with bracket coefficient 1e-200 the layer-2
    Gram is 5e399, so the form of 2**(1/4) is 5e399 * sqrt(2), beyond the
    float range, while its norm, about 8.4e199, fits.  The coordinates are
    scaled by half the form's binary exponent, which includes half the
    Gram's, and the norm is within one ulp of the 60-digit root of the
    exact form; scaled by the coordinates' exponent alone, the form
    overflowed and the norm raised FloatOverflow."""
    doc = {"dims": [2, 1], "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1e-200"}]}
    ]}
    metric = build_popp(load_algebra(json.dumps(doc)))
    assert metric.grams[2] == ((Fraction(5 * 10**399),),)
    x = signed_root(2, 4)[1]
    assert isinstance(x, RadExpr)
    form = metric.layer_quadform(2, [x])
    with pytest.raises(FloatOverflow):
        as_float(form)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = float(decimal_value(form).sqrt())
    got = metric.layer_norm(2, [x])
    assert abs(got - exact) <= math.ulp(exact)
    assert 8.4e199 < got < 8.5e199
