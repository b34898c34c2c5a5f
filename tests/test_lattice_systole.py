import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from carnotcert.ratlinalg import mat_det
from carnotcert.scalars import signed_root
from cli_runner import invoke
from oracle_utils import ball_vectors, dilate_vector, fold_and_measure, rand_vector
from test_integer_kernels import _setup

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


def test_covolume(integer_heisenberg, heisenberg_metric, engel_metric):
    vol = covolume(integer_heisenberg, heisenberg_metric)
    assert vol == pytest.approx(1 / SQRT2, abs=1e-12)
    with pytest.raises(ParseError, match="metric was built for different dimensions"):
        covolume(integer_heisenberg, engel_metric)


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


ADAPTED_SPECS = ["heisenberg:1", "engel", "free_nilpotent:2,3", "free_nilpotent:2,4"]
ENTRIES = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
NONZERO = ENTRIES.filter(bool)


def _adapted_basis(data, alg):
    """Rows of a random filtration-adapted basis: each layer's leading block
    L U, L unit lower triangular and U upper triangular with a nonzero
    diagonal, so nonsingular; every row's coordinates above its leading
    layer are drawn freely, and those below it are 0."""
    rows = []
    for layer, d in enumerate(alg.dims, start=1):
        low = [
            [data.draw(ENTRIES) if j < i else Fraction(i == j) for j in range(d)]
            for i in range(d)
        ]
        up = [
            [data.draw(NONZERO if i == j else ENTRIES) if j >= i else Fraction(0) for j in range(d)]
            for i in range(d)
        ]
        for i in range(d):
            head = [Fraction(0)] * sum(alg.dims[:layer - 1])
            head += [sum(low[i][t] * up[t][j] for t in range(d)) for j in range(d)]
            size = alg.dim - len(head)
            rows.append(head + data.draw(st.lists(ENTRIES, min_size=size, max_size=size)))
    return rows


@pytest.mark.parametrize("spec", ADAPTED_SPECS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_covolume_is_the_full_determinant(spec, data):
    """On a random filtration-adapted basis the covolume, a product of
    leading-block determinants, is the float of the full n x n determinant
    times the frame density, bit for bit.  Swapping two vectors of
    different leading layers is refused as not adapted, and a leading block
    made singular as a singular basis."""
    alg, metric = _setup(spec)
    gens = [alg.basis_vector(1, i) for i in range(alg.dims[0])]
    rows = _adapted_basis(data, alg)
    lattice = Lattice(alg, gens, [alg.vector(r) for r in rows])
    full = abs(float(mat_det(tuple(tuple(r) for r in rows))))
    assert covolume(lattice, metric) == full * metric.frame_density()

    i = data.draw(st.integers(0, alg.dim - 1))
    j = data.draw(st.sampled_from(
        [j for j, l in enumerate(alg.layer_of) if l != alg.layer_of[i]]
    ))
    swapped = list(rows)
    swapped[i], swapped[j] = rows[j], rows[i]
    with pytest.raises(NotFiltrationAdapted):
        Lattice(alg, gens, [alg.vector(r) for r in swapped])

    # one row of a leading block of size >= 2 becomes a multiple of another
    # row's block part, its tail kept: the leading layers are unchanged
    layer = data.draw(st.sampled_from(
        [l for l, d in enumerate(alg.dims, start=1) if d >= 2]
    ))
    start = sum(alg.dims[:layer - 1])
    r, s = data.draw(st.permutations(range(start, start + alg.dims[layer - 1])))[:2]
    factor = data.draw(NONZERO)
    singular = list(rows)
    singular[r] = [
        factor * c if l == layer else t
        for c, t, l in zip(rows[s], rows[r], alg.layer_of)
    ]
    with pytest.raises(SingularBasis, match=f"layer {layer}: leading block is singular"):
        Lattice(alg, gens, [alg.vector(v) for v in singular])


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


def test_inequality_holds_at_equality(integer_engel, engel_metric, engel):
    """satisfied is sys_upper <= rhs: with a systolic constant c whose
    rhs = c * vol**(1/Q) is sys_upper bit for bit, the inequality holds
    with ratio 1.0, and one ulp less of c breaks it."""
    box = global_constants(engel.dims)
    report = check_systolic_inequality(integer_engel, engel_metric, box, 2)
    root = report["covolume"] ** (1.0 / box.hausdorff_dim)
    c = report["sys_upper"] / root
    # the quotient's float neighbours, nearest first
    for _ in range(4):
        if c * root == report["sys_upper"]:
            break
        c = math.nextafter(c, math.inf if c * root < report["sys_upper"] else 0.0)
    tight = box._replace(systolic_constant=c)
    report = check_systolic_inequality(integer_engel, engel_metric, tight, 2)
    assert report["rhs"] == report["sys_upper"]
    assert report["satisfied"] is True and report["ratio"] == 1.0
    below = box._replace(systolic_constant=math.nextafter(c, 0.0))
    report = check_systolic_inequality(integer_engel, engel_metric, below, 2)
    assert report["rhs"] < report["sys_upper"]
    assert report["satisfied"] is False


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


HEISENBERG_LATTICE = (
    '{"algebra": "heisenberg", "generators": [["1", "0", "0"], ["0", "1", "0"]],'
    ' "malcev_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}'
)


@pytest.mark.parametrize("old, new, detail", [
    ('[["1", "0", "0"], ["0"', '[["1", "0", 1e-400], ["0"', "generator 1 coordinate 0.0 is not"),
    ('["0", "1", "0"]],', '[1e400, "1", "0"]],', "generator 2 coordinate inf is not"),
    ('["0", "0", "1"]]}', '["0", "0", true]]}', "Malcev basis vector 3 coordinate True is not"),
    ('"malcev_basis": [["1"', '"malcev_basis": [[1.0', "Malcev basis vector 1 coordinate 1.0 is not"),
    ('[["1", "0", "0"], ["0"', '["100", ["0"', "generator 1 '100' is not an array"),
    ('["0", "0", "1"]]}', '{"0": 1, "1": 0, "2": 1}]}', "Malcev basis vector 3 {"),
], ids=["tiny-float", "huge-float", "true", "integral-float", "string-row", "object-row"])
def test_lattice_coordinates_are_strings_or_json_integers(old, new, detail):
    """A lattice coordinate is a rational string or a JSON integer, an int
    that is not a bool, in an array.  A JSON float or bool, or a string or
    object in place of the array, is a ParseError naming the entry, exit
    2: before, 1e-400 loaded as 0, true as 1 and 1.0 as 1, 1e400 was
    refused as an invalid literal 'inf', and the string "100" loaded as
    the row (1, 0, 0), an object as its keys."""
    text = HEISENBERG_LATTICE.replace(old, new, 1)
    assert text != HEISENBERG_LATTICE
    with pytest.raises(ParseError, match=re.escape(detail)):
        load_lattice(text)
    result = invoke(["systole", "--lattice", text, "--radius", "1"])
    assert (result.exit_code, result.stdout) == (2, "")
    # the same values as rational strings and JSON integers load
    text = HEISENBERG_LATTICE.replace('["0", "0", "1"]', '["0", "0", "1e-400"]')
    lattice = load_lattice(text.replace('"1"', "1"))
    assert lattice.malcev_logs[2].coords() == (0, 0, Fraction(1, 10 ** 400))
    assert lattice.generator_logs[0].coords() == (1, 0, 0)


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
