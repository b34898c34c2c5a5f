import json
import math
from fractions import Fraction

import numpy as np
import pytest

from carnotcert import lattice_systole
from carnotcert.bch_engine import group_commutator
from carnotcert.certificates import global_constants
from carnotcert.errors import (
    ExplosionGuard,
    NotFiltrationAdapted,
    ParseError,
    SingularBasis,
    UnsupportedParams,
)
from carnotcert.lattice_systole import (
    Lattice,
    check_systolic_inequality,
    covolume,
    load_lattice,
    systole_upper_bound,
)
from carnotcert.adjustment import cc_lower_bound, certified_dcc_upper
from carnotcert.scalars import signed_root
from oracle_utils import ball_vectors, dilate_vector, fold_and_measure, rand_vector

SQRT2 = math.sqrt(2.0)

# Dilations of the integer Engel lattice at which plain float sums of the
# generator path lengths put a row's word bound 1 ulp below its lower bound.
ROUNDING_DILATIONS = [
    "1/7", "2/7", "3/10", "4/7", "3/5", "7/10", "9/11", "8/7", "6/5", "7/5",
    "12/5",
]


@pytest.fixture(scope="module")
def integer_heisenberg(heisenberg):
    gens = [heisenberg.vector([1, 0, 0]), heisenberg.vector([0, 1, 0])]
    basis = gens + [heisenberg.vector([0, 0, 1])]
    return Lattice(heisenberg, gens, basis, name="integer-heisenberg")


@pytest.fixture(scope="module")
def integer_engel(engel):
    a, b = engel.vector([1, 0, 0, 0]), engel.vector([0, 1, 0, 0])
    c = group_commutator(engel, a, b)
    d = group_commutator(engel, a, c)
    return Lattice(engel, [a, b], [a, b, c, d], name="integer-engel")


def test_covolume(integer_heisenberg, heisenberg_metric):
    vol = covolume(integer_heisenberg, heisenberg_metric)
    assert vol == pytest.approx(1 / SQRT2, abs=1e-12)


def test_covolume_scaling(heisenberg, heisenberg_metric):
    scaled_basis = [
        dilate_vector(heisenberg, 2, v)
        for v in (
            heisenberg.vector([1, 0, 0]),
            heisenberg.vector([0, 1, 0]),
            heisenberg.vector([0, 0, 1]),
        )
    ]
    lat = Lattice(
        heisenberg,
        scaled_basis[:2],
        scaled_basis,
        name="doubled",
    )
    assert covolume(lat, heisenberg_metric) == pytest.approx(
        16 / SQRT2, rel=1e-12
    )  # times 2**Q


def test_orthonormal_frame_covolume(heisenberg, heisenberg_metric):
    frame = [
        heisenberg.vector([1, 0, 0]),
        heisenberg.vector([0, 1, 0]),
        heisenberg.vector([0, 0, Fraction(SQRT2).limit_denominator(10 ** 15)]),
    ]
    lat = Lattice(heisenberg, frame[:2], frame, name="frame")
    assert covolume(lat, heisenberg_metric) == pytest.approx(1.0, rel=1e-12)


def test_lattice_validation(heisenberg):
    e1 = heisenberg.vector([1, 0, 0])
    e2 = heisenberg.vector([0, 1, 0])
    e3 = heisenberg.vector([0, 0, 1])
    with pytest.raises(NotFiltrationAdapted):
        Lattice(heisenberg, [e1, e2], [e1, e3, e2])  # leading layers decrease
    with pytest.raises(SingularBasis):
        Lattice(heisenberg, [e1, e2], [e1, e1, e3])
    with pytest.raises(NotFiltrationAdapted):
        Lattice(heisenberg, [e1, e2], [e1, e2])  # wrong count
    # a tilted but adapted basis is fine
    Lattice(heisenberg, [e1, e2], [e1, e1 + e2, e3])
    # generators must span layer 1; a central one adds nothing there
    with pytest.raises(SingularBasis, match="rank 1 < 2 in layer 1"):
        Lattice(heisenberg, [e1, e3, e1 + e3], [e1, e2, e3])
    Lattice(heisenberg, [e1 + e3, e2, e3], [e1, e2, e3])


def test_irrational_lattice_log_is_a_typed_error(heisenberg):
    """A sqrt(2) generator log is refused as unsupported, not with a raw
    TypeError from the rank check."""
    e1 = heisenberg.vector([1, 0, 0])
    e2 = heisenberg.vector([0, 1, 0])
    e3 = heisenberg.vector([0, 0, 1])
    _, root2 = signed_root(Fraction(2), 2)
    tilted = heisenberg.vector([root2, 0, 0])
    with pytest.raises(UnsupportedParams, match="lattice logs must be rational"):
        Lattice(heisenberg, [tilted, e2], [e1, e2, e3])
    with pytest.raises(UnsupportedParams, match="lattice logs must be rational"):
        Lattice(heisenberg, [e1, e2], [tilted, e2, e3])


def test_enumerate_ball(integer_heisenberg, heisenberg, monkeypatch):
    ball1 = ball_vectors(integer_heisenberg, 1)
    coords = sorted(tuple(Fraction(c) for c in v.coords()) for v, _ in ball1)
    assert coords == [
        (-1, 0, 0),
        (0, -1, 0),
        (0, 1, 0),
        (1, 0, 0),
    ]
    ball2 = ball_vectors(integer_heisenberg, 2)
    ab = heisenberg.vector([1, 1, Fraction(1, 2)])
    assert any(v == ab for v, _ in ball2)
    assert all(not v.is_zero for v, _ in ball2)
    monkeypatch.setattr(lattice_systole, "ENUMERATION_CAP", 5)
    with pytest.raises(ExplosionGuard):
        ball_vectors(integer_heisenberg, 3)


def test_systole_upper_bound(integer_heisenberg, heisenberg_metric):
    data1 = systole_upper_bound(integer_heisenberg, heisenberg_metric, 1)
    assert data1["sys_upper"] == 1.0
    # the certificate meets the lower bound
    assert data1["sys_lower_bound_of_minimizer"] == 1.0
    data3 = systole_upper_bound(integer_heisenberg, heisenberg_metric, 3)
    assert data3["sys_upper"] == 1.0  # monotone: more candidates cannot worsen it


def test_scaled_generators(heisenberg, heisenberg_metric):
    lat = Lattice(
        heisenberg,
        [heisenberg.vector([2, 0, 0]), heisenberg.vector([0, 2, 0])],
        [
            heisenberg.vector([2, 0, 0]),
            heisenberg.vector([0, 2, 0]),
            heisenberg.vector([0, 0, 4]),
        ],
        name="doubled-gens",
    )
    data = systole_upper_bound(lat, heisenberg_metric, 1)
    assert data["sys_upper"] == 2.0


def test_lower_upper_sandwich(heisenberg, heisenberg_metric, rng):
    for _ in range(10):
        v = rand_vector(heisenberg, rng)
        _, upper = certified_dcc_upper(heisenberg, heisenberg_metric, v)
        assert cc_lower_bound(heisenberg_metric, v) <= upper + 1e-12


def test_systolic_report(integer_heisenberg, heisenberg_metric, heisenberg):
    box = global_constants(heisenberg.dims)
    report = check_systolic_inequality(
        integer_heisenberg, heisenberg_metric, box, 2
    )
    assert report["satisfied"]
    assert report["sys_upper"] == 1.0
    assert report["covolume"] == pytest.approx(1 / SQRT2, abs=1e-12)
    assert report["rhs"] == pytest.approx(
        box.systolic_constant * (1 / SQRT2) ** 0.25, rel=1e-12
    )
    assert report["rhs"] == pytest.approx(7.7927, abs=5e-4)


def test_systolic_report_scaled(heisenberg, heisenberg_metric):
    box = global_constants(heisenberg.dims)
    reports = []
    for t in (Fraction(1), Fraction(2), Fraction(3)):
        basis = [
            dilate_vector(heisenberg, t, heisenberg.vector([1, 0, 0])),
            dilate_vector(heisenberg, t, heisenberg.vector([0, 1, 0])),
            dilate_vector(heisenberg, t, heisenberg.vector([0, 0, 1])),
        ]
        lat = Lattice(heisenberg, basis[:2], basis, name=f"scaled-{t}")
        reports.append(
            check_systolic_inequality(lat, heisenberg_metric, box, 1)
        )
    ratios = [r["ratio"] for r in reports]
    assert all(r["satisfied"] for r in reports)
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-9)


def test_engel_lattice(integer_engel, engel_metric, engel):
    box = global_constants(engel.dims)
    report = check_systolic_inequality(integer_engel, engel_metric, box, 2)
    assert report["satisfied"]
    assert report["sys_upper"] == 1.0
    assert report["covolume"] == pytest.approx(0.5, abs=1e-12)


def test_load_lattice_json(tmp_path, heisenberg):
    doc = {
        "name": "file-lattice",
        "algebra": "heisenberg:1",
        "generators": [["1", "0", "0"], ["0", "1", "0"]],
        "malcev_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    lat = load_lattice(str(path))
    assert lat.name == "file-lattice"
    assert lat.algebra.dims == (2, 1)
    with pytest.raises(ParseError):
        load_lattice(json.dumps({"algebra": "heisenberg:1"}))


def test_covolume_monte_carlo_small(heisenberg_metric, integer_heisenberg):
    """Hit-rate estimate of the fundamental domain volume, 2e5 samples.

    Membership in the canonical domain D = {exp(f1 X1) exp(f2 X2) exp(f3 X3):
    f in [0,1)^3} is decided through second-kind coordinates: for first-kind
    (y1, y2, y3) they are (y1, y2, y3 - y1*y2/2).  D sits inside the box
    [0,1]^2 x [-0.5, 1.5]; Lebesgue volume of D times the frame density is
    the covolume.
    """
    rng = np.random.default_rng(7)
    n = 200_000
    y1 = rng.uniform(0, 1, n)
    y2 = rng.uniform(0, 1, n)
    y3 = rng.uniform(-0.5, 1.5, n)
    t3 = y3 - y1 * y2 / 2
    hits = np.count_nonzero((t3 >= 0) & (t3 < 1))
    lebesgue = 2.0 * hits / n
    estimate = lebesgue * heisenberg_metric.frame_density()
    assert estimate == pytest.approx(
        covolume(integer_heisenberg, heisenberg_metric), rel=0.1
    )


def _dilated_engel(engel, t):
    """The integer Engel lattice dilated by t: generators t e1, t e2."""
    basis = [
        dilate_vector(engel, t, engel.basis_vector(layer, i))
        for layer, dim in enumerate(engel.dims, start=1)
        for i in range(dim)
    ]
    return Lattice(engel, basis[:2], basis, name=f"engel-dilated-{t}")


def _heisenberg_with_center(heisenberg):
    """Generators e1, e2 and the non-horizontal central e3."""
    basis = [
        heisenberg.vector([1, 0, 0]),
        heisenberg.vector([0, 1, 0]),
        heisenberg.vector([0, 0, 1]),
    ]
    return Lattice(heisenberg, basis, basis, name="heisenberg-e3")


SYSTOLE_CASES = (
    [("heisenberg", "integer"), ("heisenberg", "e3"), ("engel", "1")]
    + [("engel", t) for t in ROUNDING_DILATIONS]
)


@pytest.fixture(
    params=SYSTOLE_CASES, ids=[f"{k}-{a}" for k, a in SYSTOLE_CASES]
)
def systole_case(request):
    """(lattice, metric, word radius) of one systole fixture."""
    kind, arg = request.param
    if kind == "heisenberg":
        metric = request.getfixturevalue("heisenberg_metric")
        if arg == "e3":
            alg = request.getfixturevalue("heisenberg")
            return _heisenberg_with_center(alg), metric, 3
        return request.getfixturevalue("integer_heisenberg"), metric, 3
    alg = request.getfixturevalue("engel")
    lattice = _dilated_engel(alg, Fraction(arg))
    return lattice, request.getfixturevalue("engel_metric"), 4


def test_pruned_systole_matches_full_certification(systole_case):
    """The pruned search reports what certifying every element reports."""
    lattice, metric, radius = systole_case
    alg = lattice.algebra
    box = global_constants(alg.dims)
    report = check_systolic_inequality(lattice, metric, box, radius)

    best = None
    for vec, word in ball_vectors(lattice, radius):
        _, upper = certified_dcc_upper(alg, metric, vec)
        coords = [Fraction(c) for c in vec.coords()]
        key = (upper, [(abs(c), c < 0) for c in coords])
        if best is None or key < best[0]:
            best = (key, word, [str(c) for c in coords])
    (sys_upper, _), word, coords = best
    rhs = box.systolic_constant * covolume(lattice, metric) ** (
        1.0 / box.hausdorff_dim
    )
    assert report["sys_upper"] == sys_upper
    assert report["minimizer_word"] == word
    assert report["minimizer_coords"] == coords
    assert report["ratio"] == sys_upper / rhs
    assert report["satisfied"] == (sys_upper <= rhs)

    rows = report["rows"]
    assert [(r["word"], r["coords"]) for r in rows] == [
        (w, [str(Fraction(c)) for c in v.coords()])
        for v, w in ball_vectors(lattice, radius)
    ]
    assert all(r["lower"] <= r["upper"] for r in rows)
    assert report["sys_upper"] == min(r["upper"] for r in rows)
    assert any(r["pruned"] for r in rows)


def test_pruned_rows_bound_their_generator_paths(systole_case):
    """A pruned row's upper bound is at least the length of the generators'
    certified paths concatenated along its word, which ends exactly at the
    element; an inverse letter runs its generator's path backwards."""
    lattice, metric, radius = systole_case
    alg = lattice.algebra
    paths = {}
    for i, g in enumerate(lattice.generator_logs, start=1):
        path, _ = certified_dcc_upper(alg, metric, g)
        paths[f"g{i}"] = path.segments
        paths[f"g{i}^-1"] = [-s for s in reversed(path.segments)]
    data = systole_upper_bound(lattice, metric, radius)
    pruned = [r for r in data["rows"] if r["pruned"]]
    # every letter, the non-horizontal e3 and its inverse too, is exercised
    assert {t for r in pruned for t in r["word"].split(".")} == set(paths)
    for row in pruned:
        segments = [s for token in row["word"].split(".") for s in paths[token]]
        element = alg.vector([Fraction(c) for c in row["coords"]], exact=True)
        endpoint, length = fold_and_measure(alg, metric, segments)
        assert endpoint == element
        assert length <= row["upper"]


@pytest.mark.parametrize("t", ["1", "3/10", "11/7", "5/12"])
def test_engel_search_certifies_four_rows(engel, engel_metric, t):
    """Radius 4 (152 elements): the signature key prunes the conjugates and
    commutators whose layer-1 norm ties the best or is 0, leaving at most 4
    certified rows, where the layer-1 key left 16; every row's ``lower``
    stays its layer-1 norm."""
    lattice = _dilated_engel(engel, Fraction(t))
    report = check_systolic_inequality(
        lattice, engel_metric, global_constants(engel.dims), 4
    )
    rows = report["rows"]
    assert len(rows) == 152
    assert sum(not r["pruned"] for r in rows) <= 4
    assert [r["lower"] for r in rows] == [
        cc_lower_bound(engel_metric, v) for v, _ in ball_vectors(lattice, 4)
    ]
    assert report["sys_upper"] == float(Fraction(t))
