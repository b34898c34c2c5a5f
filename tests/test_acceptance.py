"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else: exact equality for everything
the package computes in the rational/radical ring (group law, endpoints,
bracket sums), 1e-12 for metric normal-equation identities, 1e-9 relative
for the quantitative bound lemmas, 5% for the Monte-Carlo volume oracle.
Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines.
"""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from carnotcert.adjustment import (
    adjust_to_layer_vector,
    adjust_tuple,
    cc_lower_bound,
    commutator_word,
)
from carnotcert.bch_engine import bch_product, group_commutator
from carnotcert.certificates import (
    error_bound_constant,
    global_constants,
    prefix_error_polynomials,
    single_layer_length_bound,
)
from carnotcert.graded_algebra import builtin_family
from carnotcert.lattice_systole import (
    Lattice,
    check_systolic_inequality,
    covolume,
)
from carnotcert.popp_metric import box_volume_parts, build_popp
from cli_runner import invoke
from oracle_utils import (
    assert_scaled_length,
    dilate,
    dilate_vector,
    lstsq_min_norm,
    matrix_bch,
    rand_layer_coords,
    rand_vector,
)

SQRT2 = math.sqrt(2.0)


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def fixtures():
    algebras = {
        name: builtin_family(base, params)
        for name, (base, params) in {
            "heisenberg": ("heisenberg", (1,)),
            "h5": ("heisenberg", (2,)),
            "engel": ("engel", ()),
        }.items()
    }
    return {name: (alg, build_popp(alg)) for name, alg in algebras.items()}


def test_criterion_01_bch_exactness(fixtures):
    """Group law agrees exactly with matrix oracles; associativity exact."""
    rng = random.Random(101)
    for name in ("heisenberg", "engel"):
        alg, _ = fixtures[name]
        for _ in range(100):
            x, y = rand_vector(alg, rng), rand_vector(alg, rng)
            assert bch_product(alg, x, y) == matrix_bch(alg, x, y)
    for name in ("heisenberg", "engel"):
        alg, _ = fixtures[name]
        for _ in range(100):
            x, y, z = (rand_vector(alg, rng) for _ in range(3))
            assert bch_product(alg, bch_product(alg, x, y), z) == bch_product(
                alg, x, bch_product(alg, y, z)
            )
    _report(1, "matrix-oracle agreement and exact associativity, 100 draws each")


def test_criterion_02_popp_minimality(fixtures):
    """Layer norms match the brute-force least-squares oracle to 1e-12."""
    hei, hmetric = fixtures["heisenberg"]
    eng, emetric = fixtures["engel"]
    for metric, layer in ((hmetric, 2), (emetric, 3)):
        ours = metric.layer_norm(layer, [Fraction(1)])
        oracle = np.linalg.norm(
            lstsq_min_norm(metric.bracket_matrices[layer], [Fraction(1)])
        )
        assert abs(ours - 1 / SQRT2) < 1e-12
        assert abs(ours - oracle) < 1e-12
    rng = random.Random(102)
    checked = 0
    for metric, layer in ((hmetric, 2), (emetric, 2), (emetric, 3)):
        m = np.array(
            [[float(x) for x in row] for row in metric.bracket_matrices[layer]]
        )
        _, _, vt = np.linalg.svd(m)
        kernel = vt[m.shape[0]:]
        coords = rand_layer_coords(metric.algebra, rng, layer)
        # the full u = M^T G v over every lex word; the metric keeps one
        # coefficient per pair word (u, a, b), a < b
        exact, gram = metric.bracket_matrices[layer], metric.grams[layer]
        gv = [sum(g * c for g, c in zip(row, coords)) for row in gram]
        full = [
            sum(exact[i][w] * gv[i] for i in range(len(gv)))
            for w in range(len(exact[0]))
        ]
        words = itertools.product(range(metric.algebra.dims[0]), repeat=layer)
        assert list(metric.minimal_preimage(layer, coords)) == [
            c for c, (*_, a, b) in zip(full, words) if a < b
        ]
        u = np.array([float(c) for c in full])
        base = np.linalg.norm(u)
        trials = 0
        while trials < 34:
            w = np.array(
                [rng.gauss(0, 1) for _ in range(kernel.shape[0])]
            ) @ kernel
            if np.linalg.norm(w) < 1e-9:
                continue
            assert np.linalg.norm(u + w) > base
            trials += 1
            checked += 1
    assert checked >= 100
    _report(2, "norm values 1/sqrt(2) at 1e-12, kernel perturbations grow the norm")


def test_criterion_03_adjusted_set_conditions(fixtures):
    """Sum condition exact; norm and balance conditions within 1e-12."""
    rng = random.Random(103)
    for name, (alg, metric) in fixtures.items():
        for i in range(200):
            layer = 2 + (i % (alg.step - 1)) if alg.step > 2 else 2
            coords = rand_layer_coords(alg, rng, layer)
            hs = adjust_to_layer_vector(alg, metric, coords, layer)
            report = hs.verify_conditions()  # raises beyond 1e-12
            assert report["sum_exact"]
    _report(3, "three adjusted-set conditions on 200 targets per fixture")


def test_criterion_04_lemma_suite(fixtures):
    """Bracket-norm, length, single-set and prefix error bounds at 1e-9."""
    rng = random.Random(104)
    # bracket-norm submultiplicativity
    for name, (alg, metric) in fixtures.items():
        for _ in range(200):
            p = rng.randint(1, alg.step - 1)
            q = rng.randint(1, alg.step - p)
            zp = alg.from_layer(p, rand_layer_coords(alg, rng, p))
            zq = alg.from_layer(q, rand_layer_coords(alg, rng, q))
            lhs = metric.layer_norm(p + q, alg.bracket(zp, zq).layer(p + q))
            rhs = (
                2 ** min(p, q)
                * metric.layer_norm(p, zp.layer(p))
                * metric.layer_norm(q, zq.layer(q))
            )
            assert lhs <= rhs * (1 + 1e-9)
    # combinatorial length bound
    for name, (alg, metric) in fixtures.items():
        for i in range(200):
            layer = 2 + (i % (alg.step - 1)) if alg.step > 2 else 2
            coords = rand_layer_coords(alg, rng, layer)
            hs = adjust_to_layer_vector(alg, metric, coords, layer)
            nu = metric.layer_norm(layer, coords)
            assert hs.combinatorial_length() <= single_layer_length_bound(
                layer, alg.dims[0], nu
            ) * (1 + 1e-9)
    # single-set higher-layer error bound
    eng, emetric = fixtures["engel"]
    theta2 = float(error_bound_constant(2, eng.dims[0], eng.step))
    for _ in range(200):
        coords = rand_layer_coords(eng, rng, 2)
        hs = adjust_to_layer_vector(eng, emetric, coords, 2)
        nu = emetric.layer_norm(2, coords)
        err = emetric.layer_norm(
            3, hs.layer_error_vectors()[3]
        )
        assert err <= theta2 * nu ** (3 / 2) * (1 + 1e-9) + 1e-30
    # prefix error polynomial bound on unit-box draws
    polys = prefix_error_polynomials(eng.dims[0], eng.step)
    for _ in range(200):
        coords = []
        for layer, d in enumerate(eng.dims, start=1):
            raw = rand_layer_coords(eng, rng, layer)
            norm = emetric.layer_norm(layer, raw)
            if norm > 1:
                raw = [c * Fraction(1, math.ceil(norm + 1e-9)) for c in raw]
            coords.extend(raw)
        z = eng.vector(coords)
        tup = adjust_tuple(eng, emetric, z)
        args = [
            emetric.layer_norm(layer, z.layer(layer)) ** (1.0 / layer)
            for layer in range(1, eng.step + 1)
        ]
        for (l, j), poly in polys.items():
            err = emetric.layer_norm(
                l, tup.prefix_errors[(l, j)]
            )
            assert err <= poly.evaluate(args) * (1 + 1e-9) + 1e-30
    _report(4, "bracket-norm, length, single-set and prefix bounds, 200 draws each")


@pytest.mark.parametrize(
    "token,samples",
    [("heisenberg:1", 1000), ("heisenberg:2", 500), ("engel", 200)],
)
def test_criterion_05_box_certification(token, samples):
    """Every box sample receives an exact-endpoint path of length <= 1."""
    result = invoke(
        ["--algebra", token, "--seed", "205", "box-verify", "--samples", str(samples)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)["payload"]
    assert payload["samples"] == samples
    assert payload["all_within_unit"]
    assert payload["max_bound"] <= 1.0
    _report(5, f"{token}: {samples} samples, max bound {payload['max_bound']:.6f}")


def test_criterion_06_path_certificates(fixtures):
    """Exact endpoints, the length ceiling, and letter counts."""
    rng = random.Random(106)
    for name, (alg, metric) in fixtures.items():
        for _ in range(200):
            z = rand_vector(alg, rng)
            tup = adjust_tuple(alg, metric, z)
            assert tup.endpoint == z  # exact reconstruction
            ceiling = 2 ** (alg.step - 1) * tup.total_combinatorial_length()
            assert tup.length <= ceiling * (1 + 1e-12) + 1e-300
            assert tup.length >= cc_lower_bound(metric, z) - 1e-9
    counts = Counter(pos for pos, _ in commutator_word(3))
    assert counts == {0: 2, 1: 4, 2: 4}
    _report(6, "200 exact endpoints per fixture; letter counts 2/4/4 at depth 3")


def test_criterion_07_homogeneity(fixtures):
    """Box volume scales by t**Q exactly, and the length measured on the
    dilated path by t: bit for bit for t in {2, 1/2}, within 2 ulps for
    t = 3."""
    alg, metric = fixtures["heisenberg"]
    box = global_constants(alg.dims)
    for t in (Fraction(2), Fraction(3), Fraction(1, 2)):
        f0, p0 = box_volume_parts(alg.dims, box.radii)
        scaled = tuple(t ** (i + 1) * r for i, r in enumerate(box.radii))
        f1, p1 = box_volume_parts(alg.dims, scaled)
        assert p0 == p1 and f1 == f0 * t ** box.hausdorff_dim
    z = alg.vector([0, 0, 1])
    path = adjust_tuple(alg, metric, z)
    for t in (Fraction(2), Fraction(3), Fraction(1, 2)):
        dilated = dilate(path, t)
        assert_scaled_length(dilated.length, t, path.length)
        assert dilated.endpoint == dilate_vector(alg, t, z)
    _report(
        7,
        "volume scales by t**Q; measured path length by t, bit for bit for"
        " t in {2, 1/2}, within 2 ulps for t = 3",
    )


def test_criterion_08_systolic_inequality(fixtures):
    """Certified loop bounds against C * vol**(1/Q) on concrete lattices."""
    alg, metric = fixtures["heisenberg"]
    box = global_constants(alg.dims)
    gens = [alg.vector([1, 0, 0]), alg.vector([0, 1, 0])]
    basis = gens + [alg.vector([0, 0, 1])]
    lat = Lattice(alg, gens, basis, "integer-heisenberg")
    report = check_systolic_inequality(lat, metric, box, 2)
    assert report["sys_upper"] == 1.0
    assert report["sys_lower_bound_of_minimizer"] == 1.0  # bound is exact
    assert abs(report["covolume"] - 1 / SQRT2) < 1e-12
    recomputed = box.systolic_constant * report["covolume"] ** (
        1.0 / box.hausdorff_dim
    )
    assert abs(report["rhs"] - recomputed) < 1e-6
    assert abs(report["rhs"] - 7.7927145) < 1e-3
    assert report["satisfied"]

    ratios = []
    for t in (Fraction(1), Fraction(2), Fraction(5, 2)):
        scaled = [dilate_vector(alg, t, v) for v in basis]
        lat_t = Lattice(alg, scaled[:2], scaled, f"scaled-{t}")
        rep_t = check_systolic_inequality(lat_t, metric, box, 1)
        assert rep_t["satisfied"]
        ratios.append(rep_t["ratio"])
    for r in ratios[1:]:
        assert abs(r - ratios[0]) <= 1e-9 * ratios[0]

    eng, emetric = fixtures["engel"]
    a, b = eng.vector([1, 0, 0, 0]), eng.vector([0, 1, 0, 0])
    c = group_commutator(eng, a, b)
    d = group_commutator(eng, a, c)
    engel_lattice = Lattice(eng, [a, b], [a, b, c, d], "integer-engel")
    engel_box = global_constants(eng.dims)
    engel_report = check_systolic_inequality(engel_lattice, emetric, engel_box, 2)
    assert engel_report["satisfied"]
    _report(
        8,
        "integer lattices satisfied; scaled-lattice ratio drift "
        f"{max(abs(r - ratios[0]) for r in ratios):.2e}",
    )


def test_criterion_09_covolume_monte_carlo(fixtures):
    """Fundamental-domain volume by hit-rate sampling matches within 5%.

    The canonical domain of the integer lattice is the image of the unit cube
    in second-kind coordinates; membership of a first-kind point (y1,y2,y3)
    is y1, y2 in [0,1) and y3 - y1*y2/2 in [0,1).  The domain sits inside
    [0,1]^2 x [-0.5, 1.5]; Lebesgue volume times the metric frame density is
    compared against the determinant-based covolume.
    """
    alg, metric = fixtures["heisenberg"]
    gens = [alg.vector([1, 0, 0]), alg.vector([0, 1, 0])]
    basis = gens + [alg.vector([0, 0, 1])]
    lat = Lattice(alg, gens, basis, "integer-heisenberg")
    rng = np.random.default_rng(109)
    n = 1_000_000
    y1 = rng.uniform(0, 1, n)
    y2 = rng.uniform(0, 1, n)
    y3 = rng.uniform(-0.5, 1.5, n)
    t3 = y3 - y1 * y2 / 2
    lebesgue = 2.0 * np.count_nonzero((t3 >= 0) & (t3 < 1)) / n
    estimate = lebesgue * metric.frame_density()
    reference = covolume(lat, metric)
    assert abs(estimate - reference) <= 0.05 * reference
    _report(
        9,
        f"Monte-Carlo covolume {estimate:.6f} vs exact {reference:.6f} at 1e6 samples",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Two runs with the same seed give byte-identical reports, per command."""
    lat_doc = {
        "name": "integer-heisenberg",
        "algebra": "heisenberg:1",
        "generators": [["1", "0", "0"], ["0", "1", "0"]],
        "malcev_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    lat_path = tmp_path / "lat.json"
    lat_path.write_text(json.dumps(lat_doc))
    commands = [
        ["algebra", "check", "heisenberg:1"],
        ["--algebra", "heisenberg", "popp", "gram"],
        ["--algebra", "engel", "constants"],
        ["--algebra", "heisenberg", "adjust", "--target", "1", "--layer", "2"],
        ["--algebra", "engel", "adjust", "--target", "1/3,-1/2,2/5,1/7"],
        ["--algebra", "heisenberg", "path", "--target", "0,0,1"],
        ["--algebra", "heisenberg", "--seed", "42", "box-verify", "--samples", "60"],
        ["systole", "--lattice", str(lat_path), "--radius", "2"],
        ["bch", "tables", "--kind", "beta", "--n", "2", "--k", "3"],
        ["bch", "tables", "--kind", "gamma", "--j", "2", "--k", "3"],
    ]
    for args in commands:
        first = invoke(args)
        second = invoke(args)
        assert first.exit_code == 0, (args, first.output)
        assert first.stdout.encode() == second.stdout.encode(), args
    _report(10, f"{len(commands)} commands byte-identical across repeated runs")
