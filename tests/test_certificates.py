import math
from fractions import Fraction

import pytest

from carnotcert.adjustment import adjust_to_layer_vector, adjust_tuple
from carnotcert.certificates import (
    BoundPolynomial,
    _log_volume,
    box_radii,
    error_bound_constant,
    global_constants,
    prefix_error_polynomials,
    single_layer_length_bound,
)
from carnotcert.graded_algebra import builtin_family
from carnotcert.popp_metric import box_volume_parts
from oracle_utils import rand_layer_coords

SQRT2 = math.sqrt(2.0)


def test_single_layer_length_bound():
    value = single_layer_length_bound(2, 2, 1 / SQRT2)
    assert value == pytest.approx(2 * 2 ** 1.5 * 2 ** -0.25, abs=1e-12)
    assert value == pytest.approx(4.756828460010884, abs=1e-12)
    assert single_layer_length_bound(3, 2, 0.0) == 0.0
    # the two-layer closed form 2 d1^(3/2) sqrt(nu) is the general formula at j=2
    nu = 0.37
    assert single_layer_length_bound(2, 3, nu) == pytest.approx(
        2 * 3 ** 1.5 * math.sqrt(nu), abs=1e-12
    )


def test_error_bound_constant_values():
    assert error_bound_constant(2, 2, 2) == Fraction(512)
    assert error_bound_constant(2, 3, 2) > error_bound_constant(2, 2, 2)
    assert error_bound_constant(2, 2, 3) == Fraction(16384)


def test_error_bound_constant_monotone_in_d1():
    for d1 in (2, 3, 4):
        low = error_bound_constant(2, d1, 3)
        high = error_bound_constant(2, d1 + 1, 3)
        assert high > low


def test_bracket_norm_lemma(heisenberg_metric, engel_metric, free23_metric, rng):
    """|[Z_p, Z_q]| <= 2**min(p,q) |Z_p| |Z_q| on random layer vectors."""
    for metric in (heisenberg_metric, engel_metric, free23_metric):
        alg = metric.algebra
        for _ in range(40):
            p = rng.randint(1, alg.step - 1)
            q = rng.randint(1, alg.step - p)
            zp = alg.from_layer(p, rand_layer_coords(alg, rng, p))
            zq = alg.from_layer(q, rand_layer_coords(alg, rng, q))
            out = alg.bracket(zp, zq)
            lhs = metric.layer_norm(p + q, out.layer(p + q))
            rhs = (
                2 ** min(p, q)
                * metric.layer_norm(p, zp.layer(p))
                * metric.layer_norm(q, zq.layer(q))
            )
            assert lhs <= rhs * (1 + 1e-9)


def test_dcom_layer_bound_holds(heisenberg, heisenberg_metric, engel, engel_metric, rng):
    for alg, metric in ((heisenberg, heisenberg_metric), (engel, engel_metric)):
        for layer in range(2, alg.step + 1):
            for _ in range(25):
                coords = rand_layer_coords(alg, rng, layer)
                s = adjust_to_layer_vector(alg, metric, coords, layer)
                nu = metric.layer_norm(layer, coords)
                bound = single_layer_length_bound(layer, alg.dims[0], nu)
                assert s.combinatorial_length() <= bound * (1 + 1e-9)


def test_theta_bound_on_single_set_errors(engel, engel_metric, rng):
    """Higher-layer error of a layer-2 adjusted set obeys the theta bound."""
    theta = float(error_bound_constant(2, engel.dims[0], engel.step))
    for _ in range(40):
        coords = rand_layer_coords(engel, rng, 2)
        s = adjust_to_layer_vector(engel, engel_metric, coords, 2)
        nu = engel_metric.layer_norm(2, coords)
        errors = s.layer_error_vectors()
        err3 = engel_metric.layer_norm(3, errors[3])
        assert err3 <= theta * nu ** (3 / 2) * (1 + 1e-9)


def test_prefix_error_polynomial_structure():
    polys2 = prefix_error_polynomials(2, 2)
    assert polys2[(2, 1)].is_zero
    polys3 = prefix_error_polynomials(2, 3)
    assert polys3[(2, 1)].is_zero and polys3[(3, 1)].is_zero
    q32 = polys3[(3, 2)]
    assert not q32.is_zero
    # zero constant term and nonnegative coefficients are structural
    assert all(any(e) for e in q32.coeffs)
    assert all(c > 0 for c in q32.coeffs.values())
    # frozen canonical value: theta_2 * b2^3 + b1 * b2^2
    assert q32.nvars == 3
    assert q32.coeffs == {(0, 3, 0): Fraction(16384), (1, 2, 0): Fraction(1)}
    # regeneration is bit-identical
    again = prefix_error_polynomials(2, 3)[(3, 2)]
    assert (again.nvars, again.coeffs) == (q32.nvars, q32.coeffs)


def test_prefix_error_polynomial_soundness(engel, engel_metric, rng):
    """|B_(l,j)| <= Q_(l,j)(nu_1, sqrt nu_2, ...) on random unit-box draws."""
    polys = prefix_error_polynomials(engel.dims[0], engel.step)
    for _ in range(30):
        coords = []
        for layer, d in enumerate(engel.dims, start=1):
            raw = rand_layer_coords(engel, rng, layer)
            norm = engel_metric.layer_norm(layer, raw)
            if norm > 1:
                scale = Fraction(1, math.ceil(norm + 1e-9))
                raw = [c * scale for c in raw]
            coords.extend(raw)
        z = engel.vector(coords)
        tup = adjust_tuple(engel, engel_metric, z)
        args = [
            engel_metric.layer_norm(layer, z.layer(layer)) ** (1.0 / layer)
            for layer in range(1, engel.step + 1)
        ]
        for (l, j), poly in polys.items():
            err = engel_metric.layer_norm(
                l, tup.prefix_errors[(l, j)]
            )
            assert err <= poly.evaluate(args) * (1 + 1e-9) + 1e-30


def test_bound_polynomial_algebra():
    p = BoundPolynomial.monomial(2, 1, 1) + BoundPolynomial.monomial(2, 2, 2)
    q = p * p
    assert q.coeffs == {
        (2, 0): Fraction(1),
        (1, 2): Fraction(2),
        (0, 4): Fraction(1),
    }
    assert (p ** 2).coeffs == q.coeffs
    assert p.evaluate([2.0, 1.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        BoundPolynomial(2, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        BoundPolynomial(2, {(1, 0): Fraction(-1)})


def test_box_radii_base_cases():
    assert box_radii(2, 1)[0] == (Fraction(1),)
    assert box_radii(2, 2)[0] == (Fraction(1, 2), Fraction(1, 512))
    assert box_radii(3, 2)[0] == (Fraction(1, 2), Fraction(1, 64 * 27))


def test_box_radii_recursion():
    radii, trace = box_radii(2, 3)
    assert len(radii) == 3 and all(r > 0 for r in radii)
    assert len(trace) == 1
    entry = trace[0]
    assert entry["level"] == 3
    assert 0 < entry["T"] <= Fraction(1, 4)
    assert entry["residual"] <= 1e-12
    # the defining budget inequality, re-evaluated from the trace
    k, d1 = 3, 2
    lhs = float(entry["T"]) / 2 ** (k - 2) + k * d1 ** (
        (2 * k - 1) / 2
    ) * (float(entry["eps_hat"]) + entry["q_value"]) ** (1 / k)
    assert lhs <= 2 ** (1 - k) + 1e-12
    # deterministic regeneration
    again, _ = box_radii(2, 3)
    assert again == radii


def test_global_constants_heisenberg():
    box = global_constants((2, 1))
    assert box.hausdorff_dim == 4
    assert box.radii == (Fraction(1, 2), Fraction(1, 512))
    assert (box.ball_volume_frac, box.ball_volume_pi_exp) == (
        Fraction(1, 1024),
        1,
    )
    assert box.ball_volume_lower == pytest.approx(math.pi / 1024, abs=1e-18)
    assert box.systolic_constant == pytest.approx(
        2 * (1024 / math.pi) ** 0.25, abs=1e-12
    )
    assert box.systolic_constant == pytest.approx(8.498015456217576, abs=1e-9)


def test_global_constants_other_dims():
    assert global_constants((2, 1, 1)).hausdorff_dim == 7
    line = global_constants((1,))
    assert line.radii == (Fraction(1),)
    assert line.systolic_constant == pytest.approx(1.0, abs=1e-15)
    h5 = global_constants((4, 1))
    assert h5.radii == (Fraction(1, 2), Fraction(1, 64 * 64))
    assert h5.hausdorff_dim == 6


@pytest.mark.parametrize(
    "family, params",
    [("heisenberg", (1,)), ("engel", ()), ("free_nilpotent", (2, 4))],
)
def test_log_volume_matches_direct_constant(family, params):
    """Where the float volume does not underflow, the log-space systolic
    constant agrees with the direct one."""
    box = global_constants(builtin_family(family, params).dims)
    assert box.ball_volume_lower > 0
    log_vol = _log_volume(box.ball_volume_frac, box.ball_volume_pi_exp)
    assert 2.0 * math.exp(-log_vol / box.hausdorff_dim) == pytest.approx(
        box.systolic_constant, rel=1e-12, abs=0
    )


def test_box_volume_homogeneity(heisenberg):
    """Box volume scales by t**Q under per-layer radius dilation, exactly."""
    base = (Fraction(1, 2), Fraction(1, 512))
    q = 4
    for t in (Fraction(2), Fraction(3), Fraction(1, 2)):
        scaled = tuple(t ** (i + 1) * r for i, r in enumerate(base))
        f0, p0 = box_volume_parts(heisenberg.dims, base)
        f1, p1 = box_volume_parts(heisenberg.dims, scaled)
        assert p0 == p1
        assert f1 == f0 * t ** q  # exact rational identity
