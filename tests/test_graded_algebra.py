import copy
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcert import graded_algebra
from carnotcert.errors import (
    AntisymmetryViolation,
    CertificateFailure,
    GradingViolation,
    JacobiViolation,
    LayerOutOfRange,
    NotBracketGenerating,
    ParseError,
    UnknownFamily,
    UnsupportedParams,
)
from carnotcert.graded_algebra import (
    GradedAlgebra,
    builtin_family,
    load_algebra,
    orthonormalize_layer1,
    resolve_algebra,
    witt_dimension,
)
from carnotcert.ratlinalg import mat_rank
from carnotcert.scalars import RadExpr, scalar_powers, signed_root
from cli_runner import invoke
from oracle_utils import dilate_vector, is_horizontal, rand_fraction, rand_vector
from test_words_bch import ENGEL_INNER1_DOC

HEISENBERG_DOC = {
    "name": "h1",
    "dims": [2, 1],
    "brackets": [
        {
            "a": [1, 1],
            "b": [1, 2],
            "out": [{"layer": 2, "idx": 1, "coeff": "1"}],
        }
    ],
}


def test_load_heisenberg_doc():
    alg = load_algebra(json.dumps(HEISENBERG_DOC))
    assert alg.dims == (2, 1)
    x1, x2 = alg.basis_vector(1, 0), alg.basis_vector(1, 1)
    assert alg.bracket(x1, x2) == alg.basis_vector(2, 0)


def test_load_from_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(HEISENBERG_DOC))
    alg = load_algebra(str(path))
    assert alg.name == "h1"


def test_antisymmetry_violation():
    doc = {
        "name": "bad",
        "dims": [2, 1],
        "brackets": [
            {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]},
            {"a": [1, 2], "b": [1, 1], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]},
        ],
    }
    with pytest.raises(AntisymmetryViolation):
        load_algebra(json.dumps(doc))


def test_not_bracket_generating_reports_layer():
    doc = {
        "name": "thin",
        "dims": [2, 2],
        "brackets": [
            {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]}
        ],
    }
    with pytest.raises(NotBracketGenerating, match="layer 2"):
        load_algebra(json.dumps(doc))
    # layer 2 is generated, layer 3 is not: [X2, X3] = 0 leaves X5 out
    doc = {
        "name": "short3",
        "dims": [2, 1, 2],
        "brackets": [
            {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]},
            {"a": [1, 1], "b": [2, 1], "out": [{"layer": 3, "idx": 1, "coeff": "1"}]},
        ],
    }
    with pytest.raises(NotBracketGenerating) as err:
        load_algebra(json.dumps(doc))
    assert str(err.value) == "layer 3: bracket map has rank 1 < 2"


def test_grading_violation():
    doc = {
        "name": "offgrade",
        "dims": [2, 1],
        "brackets": [
            {"a": [1, 1], "b": [1, 2], "out": [{"layer": 1, "idx": 1, "coeff": "1"}]}
        ],
    }
    with pytest.raises(GradingViolation):
        load_algebra(json.dumps(doc))


def test_jacobi_violation():
    # dims (3,1,1): [X1,X2]=X4, [X1,X4]=X5, [X3,X4]=X5 breaks Jacobi on
    # (X1, X2, X3): the cyclic sum equals [X3, X4] = X5 != 0.
    doc = {
        "name": "nonjacobi",
        "dims": [3, 1, 1],
        "brackets": [
            {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]},
            {"a": [1, 1], "b": [2, 1], "out": [{"layer": 3, "idx": 1, "coeff": "1"}]},
            {"a": [1, 3], "b": [2, 1], "out": [{"layer": 3, "idx": 1, "coeff": "1"}]},
        ],
    }
    with pytest.raises(JacobiViolation):
        load_algebra(json.dumps(doc))


def test_parse_errors():
    with pytest.raises(ParseError):
        load_algebra("{not json")
    with pytest.raises(ParseError):
        load_algebra(json.dumps({"name": "x", "dims": [0]}))
    with pytest.raises(ParseError):
        load_algebra(
            json.dumps(
                {
                    "name": "x",
                    "dims": [2, 1],
                    "brackets": [
                        {
                            "a": [1, 1],
                            "b": [1, 2],
                            "out": [{"layer": 2, "idx": 1, "coeff": 0.5}],
                        }
                    ],
                }
            )
        )


def _heisenberg_doc_with(path, value):
    doc = copy.deepcopy(HEISENBERG_DOC)
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("path, value, detail", [
    (("dims", 1), 1.7, "dims entry 1.7 is not a JSON integer"),
    (("dims", 1), True, "dims entry True is not a JSON integer"),
    (("dims", 0), "2", "dims entry '2' is not a JSON integer"),
    (("brackets", 0, "a", 1), 1.0, "idx 1.0 is not"),
    (("brackets", 0, "b", 0), True, "layer True is not"),
    (("brackets", 0, "out", 0, "layer"), 2.0, "layer 2.0 is not"),
    (("brackets", 0, "out", 0, "idx"), True, "idx True is not"),
    (("brackets", 0, "out", 0, "coeff"), True, "got True"),
    (("inner1",), [[True, 0], [0, 1]], "got True"),
])
def test_document_integers_are_json_integers(path, value, detail):
    """dims, layers and indices take a JSON integer, an int that is not a
    bool; a coefficient is an int or a 'p/q' string, never a bool.  Each
    of these documents loaded before, read through int() or Fraction()."""
    doc = _heisenberg_doc_with(path, value)
    with pytest.raises(ParseError, match=re.escape(detail)):
        load_algebra(json.dumps(doc))
    result = invoke(["algebra", "check", json.dumps(doc)])
    assert result.exit_code == 2
    assert json.loads(result.stdout)["payload"]["ok"] is False


def test_builtin_families(heisenberg, engel, h5, free23):
    assert heisenberg.dims == (2, 1)
    assert engel.dims == (2, 1, 1)
    assert h5.dims == (4, 1)
    assert free23.dims == (2, 1, 2)
    with pytest.raises(UnknownFamily):
        builtin_family("nilpotent_free")
    with pytest.raises(UnsupportedParams):
        builtin_family("free_nilpotent", (4, 7))
    with pytest.raises(UnsupportedParams):
        builtin_family("heisenberg", (0,))
    for params in [(1, 2), (1, 2, 3)]:
        with pytest.raises(UnsupportedParams, match="at most one parameter"):
            builtin_family("heisenberg", params)


def test_free_nilpotent_witt_dimensions():
    fn24 = builtin_family("free_nilpotent", (2, 4))
    assert fn24.dims == (2, 1, 2, 3)
    fn32 = builtin_family("free_nilpotent", (3, 2))
    assert fn32.dims == (3, 3)
    assert witt_dimension(2, 3) == 2
    assert witt_dimension(2, 6) == 9


def test_witt_count_mismatch_is_internal(monkeypatch):
    """A layer size off the Witt count is an implementation fault (exit 4),
    not a resource cap."""
    monkeypatch.setattr(
        graded_algebra, "witt_dimension", lambda d1, n: witt_dimension(d1, n) + 1
    )
    with pytest.raises(CertificateFailure, match="internal: layer 1"):
        graded_algebra._free_nilpotent(2, 3)


def test_loading_calls_no_bracket(monkeypatch):
    """The load-time checks read the structure constants: building
    heisenberg(20) or engel afresh brackets no vectors."""
    calls = []
    bracket = GradedAlgebra.bracket

    def counted(self, u, v):
        calls.append(1)
        return bracket(self, u, v)

    monkeypatch.setattr(GradedAlgebra, "bracket", counted)
    for name, params in (("heisenberg", (20,)), ("engel", ())):
        graded_algebra._builtin_family.__wrapped__(name, params)
    assert len(calls) == 0


def test_bracket_examples(heisenberg, engel):
    x1, x2 = heisenberg.basis_vector(1, 0), heisenberg.basis_vector(1, 1)
    assert heisenberg.bracket(x1, x2) == heisenberg.basis_vector(2, 0)
    # linearity across both defining constants: [X1, X2+X3] = X3 + X4
    e1 = engel.basis_vector(1, 0)
    z = engel.basis_vector(1, 1) + engel.basis_vector(2, 0)
    out = engel.bracket(e1, z)
    assert out == engel.basis_vector(2, 0) + engel.basis_vector(3, 0)
    # and [X1, X1+X3] keeps only the layer-3 part
    z2 = engel.basis_vector(1, 0) + engel.basis_vector(2, 0)
    assert engel.bracket(e1, z2) == engel.basis_vector(3, 0)


def test_bracket_antisymmetry_random(heisenberg, engel, free23, rng):
    for alg in (heisenberg, engel, free23):
        for _ in range(20):
            v = rand_vector(alg, rng)
            w = rand_vector(alg, rng)
            assert alg.bracket(v, v).is_zero
            assert (alg.bracket(v, w) + alg.bracket(w, v)).is_zero


def test_iterated_bracket(engel, heisenberg):
    e1, e2 = engel.basis_vector(1, 0), engel.basis_vector(1, 1)
    assert engel.iterated_bracket([e1, e1, e2]) == engel.basis_vector(3, 0)
    v = engel.vector([1, 2, 3, 4])
    assert engel.iterated_bracket([v]) == v
    x1, x2 = heisenberg.basis_vector(1, 0), heisenberg.basis_vector(1, 1)
    assert heisenberg.iterated_bracket([x1, x2, x2]).is_zero


def test_iterated_bracket_matches_fold(free23, rng):
    for _ in range(20):
        vs = [rand_vector(free23, rng) for _ in range(3)]
        manual = free23.bracket(vs[0], free23.bracket(vs[1], vs[2]))
        assert free23.iterated_bracket(vs) == manual


def test_dilation(heisenberg):
    v = heisenberg.vector([1, 0, 1])
    assert dilate_vector(heisenberg, 2, v) == heisenberg.vector([2, 0, 4])
    assert dilate_vector(heisenberg, 1, v) == v


@settings(max_examples=40, deadline=None)
@given(
    s=st.fractions(min_value=Fraction(1, 8), max_value=8),
    t=st.fractions(min_value=Fraction(1, 8), max_value=8),
)
def test_dilation_group_law(s, t):
    alg = builtin_family("engel")
    v = alg.vector([2, -3, Fraction(1, 2), 5])
    assert dilate_vector(alg, s, dilate_vector(alg, t, v)) == dilate_vector(alg, s * t, v)


def test_dilation_is_lie_map(engel, rng):
    for _ in range(20):
        t = rand_fraction(rng, denom=8, span=8)
        if t <= 0:
            continue
        u, v = rand_vector(engel, rng), rand_vector(engel, rng)
        lhs = dilate_vector(engel, t, engel.bracket(u, v))
        rhs = engel.bracket(dilate_vector(engel, t, u), dilate_vector(engel, t, v))
        assert lhs == rhs


def test_scale_keeps_zero_coordinates(engel):
    _, root2 = signed_root(Fraction(2), 2)
    assert isinstance(root2, RadExpr)
    v = engel.vector([Fraction(2, 3), 0, Fraction(-1, 5), 0])
    for c in (Fraction(-3, 7), root2):
        w = v.scale(c)
        assert not any(w.coords()[i] for i in (1, 3))
        assert [w.coords()[i] for i in (0, 2)] == [c * Fraction(2, 3), c * Fraction(-1, 5)]
        assert not w.is_zero and not is_horizontal(w)
        assert w == engel.vector([c * a for a in v.coords()])
        assert engel.zero().scale(c).is_zero
        assert is_horizontal(engel.basis_vector(1, 1).scale(c))
    # exact zeros are kept as they are, not multiplied
    w = v.scale(root2)
    assert w.coords()[1] is v.coords()[1]
    rational = v.scale(Fraction(-3, 7))
    assert rational == engel.vector([Fraction(-2, 7), 0, Fraction(3, 35), 0])
    letter = engel.basis_vector(1, 1).scale(root2)
    assert letter == engel.vector([0, root2, 0, 0])
    assert letter != engel.vector([0, -root2, 0, 0])
    assert letter != engel.vector([root2, 0, 0, 0])


def test_dilate_keeps_zero_coordinates(engel):
    """Dilating by a row scale (here a layer-3 one, a cube root) through its
    powers, as a certificate dilates its row factors, leaves the exact zeros
    as the Fractions they are and scales the rest by t**j."""
    _, scale = signed_root(Fraction(3, 5), 3)
    assert isinstance(scale, RadExpr)
    v = engel.vector([Fraction(2, 3), 0, 0, Fraction(-1, 5)])
    layer_powers = scalar_powers(scale, engel.step)
    w = engel.dilate_by_powers(layer_powers, v)
    assert w.coords()[1] is v.coords()[1] and w.coords()[2] is v.coords()[2]
    powers = [scale, scale, scale ** 2, scale ** 3]
    assert list(w.coords()) == [p * c for p, c in zip(powers, v.coords())]
    assert w.coords()[3] == Fraction(-3, 25)
    zero = engel.dilate_by_powers(layer_powers, engel.zero())
    assert zero.coords() == engel.zero().coords()


def test_float_arguments_are_read_exactly(engel):
    """A float coordinate or factor is its exact binary fraction, so every
    result equals the one built from Fractions; 0.1 is not 1/10."""
    floats = [0.5, -0.25, 0.1, 3.0]
    v = engel.vector(floats)
    assert v == engel.vector([Fraction(x) for x in floats])
    assert all(isinstance(c, Fraction) for c in v.coords())
    assert v.coords()[2] != Fraction(1, 10)
    assert engel.from_layer(2, [0.1]) == engel.from_layer(2, [Fraction(0.1)])
    assert v.scale(0.75) == v.scale(Fraction(3, 4))
    assert v.scale(0.1) == v.scale(Fraction(0.1))


def test_vector_has_no_float_mode(engel):
    assert engel.vector([1, 2, 3, 4], exact=True) == engel.vector([1, 2, 3, 4])
    with pytest.raises(UnsupportedParams):
        engel.vector([1, 2, 3, 4], exact=False)


def test_layer_coordinates(heisenberg, rng):
    v = heisenberg.vector([1, 0, 5])
    assert v.layer(2) == (Fraction(5),)
    horizontal = heisenberg.vector([3, -2, 0])
    assert horizontal.layer(1) == (Fraction(3), Fraction(-2))
    with pytest.raises(LayerOutOfRange):
        v.layer(3)
    w = rand_vector(heisenberg, rng)
    rebuilt = sum(
        (
            heisenberg.from_layer(l, w.layer(l))
            for l in range(1, heisenberg.step + 1)
        ),
        heisenberg.zero(),
    )
    assert rebuilt == w


@pytest.mark.parametrize(
    "fixture", ["heisenberg", "h5", "engel", "free23", "engel-inner1"]
)
def test_flat_layout_agrees_with_dims(fixture, request, rng):
    """A vector is one flat tuple: ``offsets`` and ``layer_of`` agree with
    the dims, a layer is the slice at the offsets, and vector, from_layer
    and basis_vector round-trip.  The structure constants live over the
    same flat coordinates (engel-inner1's are the bracket kernel's output): every stored index lies in 0..dim-1, every
    output's layer is the sum of its factors' layers, every mirror entry is
    the negation of its pair, and ``bracket_items`` on sparse vectors is
    ``bracket``."""
    if fixture == "engel-inner1":
        alg = load_algebra(ENGEL_INNER1_DOC)
    else:
        alg = request.getfixturevalue(fixture)
    offsets = alg.offsets
    assert offsets[0] == 0 and len(offsets) == alg.step + 1
    assert tuple(b - a for a, b in zip(offsets, offsets[1:])) == alg.dims
    keys = [(l, i) for l, d in enumerate(alg.dims, start=1) for i in range(d)]
    assert alg.layer_of == tuple(l for l, _ in keys)
    v = rand_vector(alg, rng)
    coords = v.coords()
    assert type(coords) is tuple and len(coords) == alg.dim
    assert alg.vector(coords) == v and alg.vector(coords).coords() == coords
    for l in range(1, alg.step + 1):
        part = coords[offsets[l - 1] : offsets[l]]
        assert v.layer(l) == part
        alone = alg.from_layer(l, part).coords()
        assert alone[offsets[l - 1] : offsets[l]] == part
        assert alone[: offsets[l - 1]] + alone[offsets[l] :] == (0,) * (
            alg.dim - alg.dims[l - 1]
        )
    for o, (l, i) in enumerate(keys):
        e = alg.basis_vector(l, i)
        assert e.coords() == tuple(Fraction(p == o) for p in range(alg.dim))
        assert e == alg.from_layer(l, e.layer(l))
        assert alg.vector(e.coords()) == e
    with pytest.raises(LayerOutOfRange):
        v.layer(alg.step + 1)
    layer_of = alg.layer_of
    assert alg._table
    for (a, b), row in alg._table.items():
        assert all(type(o) is int and 0 <= o < alg.dim for o in (a, b, *row))
        assert all(layer_of[o] == layer_of[a] + layer_of[b] for o in row)
        assert alg._table[(b, a)] == {o: -c for o, c in row.items()}
    for _ in range(20):
        x, y = (
            {o: rand_fraction(rng) for o in rng.sample(range(alg.dim), rng.randint(1, 3))}
            for _ in range(2)
        )
        dense = alg.bracket(
            alg.vector([x.get(o, 0) for o in range(alg.dim)]),
            alg.vector([y.get(o, 0) for o in range(alg.dim)]),
        )
        sparse = alg.bracket_items(x, y)
        assert dense.coords() == tuple(sparse.get(o, 0) for o in range(alg.dim))


def test_bracket_generating_ranks(heisenberg, engel, h5, free23):
    for alg in (heisenberg, engel, h5, free23):
        for layer in range(2, alg.step + 1):
            assert mat_rank(alg.layer_bracket_matrix(layer)) == alg.dims[layer - 1]
    for layer in (1, engel.step + 1):
        with pytest.raises(LayerOutOfRange):
            engel.layer_bracket_matrix(layer)


@pytest.mark.parametrize(
    "token, expected",
    [
        ("abelian", 1),
        ("heisenberg:1", 2),
        ("heisenberg:3", 2),
        ("engel", 2),
        ("engel-inner1", 2),
        ("free_nilpotent:2,3", 2),
        ("free_nilpotent:2,4", 2),
        ("free_nilpotent:2,5", 3),
        ("free_nilpotent:2,6", 4),
        ("free_nilpotent:3,3", 2),
        ("free_nilpotent:3,4", 3),
    ],
)
def test_commuting_layer_is_the_least_abelian_tail(token, expected):
    """``commuting_layer``, read off the nonzero brackets when the algebra
    is built, is the least layer c such that the basis vectors of any two
    layers p, q >= c bracket to zero, found here by ``bracket`` over every
    pair of layers.  It is at most the grading bound k // 2 + 1, and below
    it on free_nilpotent(2,4), whose one-dimensional layer 2 commutes with
    itself."""
    if token == "abelian":
        alg = load_algebra({"dims": [3], "brackets": []})
    elif token == "engel-inner1":
        alg = load_algebra(ENGEL_INNER1_DOC)
    else:
        alg = resolve_algebra(token)

    def commute(p, q):
        return all(
            alg.bracket(alg.basis_vector(p, i), alg.basis_vector(q, j)).is_zero
            for i in range(alg.dims[p - 1])
            for j in range(alg.dims[q - 1])
        )

    k = alg.step
    brute = min(
        c
        for c in range(1, k + 2)
        if all(commute(p, q) for p in range(c, k + 1) for q in range(p, k + 1))
    )
    assert alg.commuting_layer == brute == expected
    assert brute <= k // 2 + 1
    assert (brute < k // 2 + 1) == (token == "free_nilpotent:2,4")


def test_orthonormalize_layer1(heisenberg):
    rescaled = orthonormalize_layer1(heisenberg, [[4, 0], [0, 9]])
    f1, f2 = rescaled.basis_vector(1, 0), rescaled.basis_vector(1, 1)
    out = rescaled.bracket(f1, f2)
    assert out == rescaled.basis_vector(2, 0).scale(Fraction(1, 6))
    with pytest.raises(UnsupportedParams):
        orthonormalize_layer1(heisenberg, [[2, 0], [0, 1]])
    with pytest.raises(UnsupportedParams):
        orthonormalize_layer1(heisenberg, [[-1, 0], [0, 1]])


def test_algebra_mismatch(heisenberg, engel):
    from carnotcert.errors import AlgebraMismatch
    from carnotcert.bch_engine import bch_product, product_fold

    with pytest.raises(AlgebraMismatch):
        heisenberg.bracket(
            heisenberg.basis_vector(1, 0), engel.basis_vector(1, 0)
        )
    with pytest.raises(AlgebraMismatch):
        bch_product(
            heisenberg, heisenberg.basis_vector(1, 0), engel.basis_vector(1, 0)
        )
    with pytest.raises(AlgebraMismatch):
        product_fold(
            heisenberg, [engel.basis_vector(1, 0), engel.basis_vector(1, 1)] * 2
        )
    with pytest.raises(AlgebraMismatch):
        product_fold(heisenberg, [engel.basis_vector(1, 0)])


def test_inner1_in_document():
    doc = dict(HEISENBERG_DOC)
    doc["inner1"] = [["4", "0"], ["0", "4"]]
    alg = load_algebra(json.dumps(doc))
    f1, f2 = alg.basis_vector(1, 0), alg.basis_vector(1, 1)
    assert alg.bracket(f1, f2) == alg.basis_vector(2, 0).scale(Fraction(1, 4))
