import itertools
import math
from fractions import Fraction

import pytest

from carnotcert import adjustment, bch_engine, popp_metric
from carnotcert.adjustment import adjust_to_layer_vector, adjust_tuple
from carnotcert.errors import LayerOutOfRange
from carnotcert.graded_algebra import (
    _free_nilpotent,
    builtin_family,
    load_algebra,
    resolve_algebra,
)
from carnotcert.popp_metric import build_popp
from carnotcert.scalars import RadExpr, as_float, lincomb, signed_root
from oracle_utils import (
    dilate,
    dilate_vector,
    folded_stage_product,
    full_rows,
    letter_fold_commutator,
    rand_layer_coords,
    rand_vector,
    rescale,
)
from reachability import ENGEL_INNER1

SQRT2 = math.sqrt(2.0)


def test_heisenberg_center_adjustment(heisenberg, heisenberg_metric):
    s = adjust_to_layer_vector(heisenberg, heisenberg_metric, [Fraction(1)], 2)
    assert [r.word for r in s.rows] == [(0, 1)]  # one row per pair word
    live = s.spelled_rows()
    assert [(r.word, r.alpha, r.sign) for r in live] == [
        ((0, 1), Fraction(1, 2), 1),
        ((1, 0), Fraction(-1, 2), -1),
    ]
    report = s.verify_conditions()
    assert report["sum_exact"] and report["norm_exact"] and report["balance_ok"]
    assert report["rows"] == 4
    assert report["norm_value"] == pytest.approx(1 / SQRT2, abs=1e-14)
    assert s.combinatorial_length() == pytest.approx(2 * SQRT2, abs=1e-14)
    y = s.measure()[1]
    assert y == heisenberg.basis_vector(2, 0)
    assert s.bracket_sum() == heisenberg.basis_vector(2, 0)


def test_single_row_example(heisenberg, heisenberg_metric):
    # one row (X1, X2): the commutator product is X3, total entry norm 2
    s = adjust_to_layer_vector(heisenberg, heisenberg_metric, [Fraction(1)], 2)
    (row,) = s.rows
    vs = s.row_vectors(row)
    assert len(vs) == 2
    # scaled entries both have norm (1/2)**0.5
    for v in vs:
        norm = heisenberg_metric.layer_norm(1, v.layer(1))
        assert norm == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_zero_target(heisenberg, heisenberg_metric):
    s = adjust_to_layer_vector(heisenberg, heisenberg_metric, [Fraction(0)], 2)
    assert all(r.is_zero for r in s.rows)
    assert s.combinatorial_length() == 0.0
    assert s.measure()[1].is_zero


# horizontal targets and their certified lengths (float.hex), recorded
# when every stage solved its minimal preimage
HORIZONTAL_TARGETS = [
    ("engel", (Fraction(1, 3), Fraction(-2, 5)), "0x1.0a9700c6e1bf4p-1"),
    ("free_nilpotent:2,4", (Fraction(3, 7), Fraction(1, 2)), "0x1.512c0265ba2f9p-1"),
]


@pytest.mark.parametrize("spec, head, length", HORIZONTAL_TARGETS)
def test_zero_stages_solve_no_preimage(spec, head, length, monkeypatch):
    """Stages 2..k of a horizontal target have zero targets: their minimal
    preimages form no linear combination, each stage has the zero rows the
    combinations give, and the length is the one recorded when they were
    formed."""
    alg = resolve_algebra(spec)
    metric = build_popp(alg)
    calls = []
    real = popp_metric.lincomb

    def counted(terms, den):
        calls.append(den)
        return real(terms, den)

    monkeypatch.setattr(popp_metric, "lincomb", counted)
    target = alg.vector(list(head) + [0] * (alg.dim - len(head)))
    tup, bound = adjustment.certified_dcc_upper(alg, metric, target)
    assert calls == []
    assert bound == tup.length == float.fromhex(length)
    assert bound == metric.layer_norm(1, head)
    for layer, stage in enumerate(tup.sets[1:], start=2):
        zeros = [Fraction(0)] * alg.dims[layer - 1]
        solved = [
            real([(n, zeros[j]) for _, j, n in entries], den) if entries else 0
            for den, entries in metric.preimage_rows[layer]
        ]
        alphas = [row.alpha for row in stage.rows]
        assert alphas == solved
        assert all(type(a) is Fraction and a == 0 for a in alphas)
    # a nonzero target does form its combinations
    metric.minimal_preimage(2, [1] + [0] * (alg.dims[1] - 1))
    assert calls


def test_layer1_set(heisenberg, heisenberg_metric):
    s = adjust_to_layer_vector(
        heisenberg, heisenberg_metric, [Fraction(2), Fraction(-1)], 1
    )
    assert len(s.rows) == 1  # the target row, with no zero padding
    assert s.row_vectors(s.rows[0]) == [heisenberg.vector([2, -1, 0])]
    assert s.combinatorial_length() == pytest.approx(math.sqrt(5), abs=1e-15)


def test_engel_top_layer(engel, engel_metric):
    s = adjust_to_layer_vector(engel, engel_metric, [Fraction(1)], 3)
    live = s.spelled_rows()
    assert [(r.word, r.alpha, r.sign) for r in live] == [
        ((0, 0, 1), Fraction(1, 2), 1),
        ((0, 1, 0), Fraction(-1, 2), -1),
    ]
    for r in live:
        assert as_float(r.scale) == pytest.approx(0.5 ** (1 / 3), abs=1e-15)
    report = s.verify_conditions()
    assert report["sum_exact"]
    assert s.measure()[1] == engel.basis_vector(3, 0)


def test_out_of_range_layer(heisenberg, heisenberg_metric):
    with pytest.raises(LayerOutOfRange):
        adjust_to_layer_vector(heisenberg, heisenberg_metric, [Fraction(1)], 3)


def test_conditions_random_targets(
    heisenberg, heisenberg_metric, engel, engel_metric, rng
):
    for alg, metric in ((heisenberg, heisenberg_metric), (engel, engel_metric)):
        for layer in range(2, alg.step + 1):
            for _ in range(20):
                coords = rand_layer_coords(alg, rng, layer)
                s = adjust_to_layer_vector(alg, metric, coords, layer)
                report = s.verify_conditions()
                assert report["sum_exact"]


def test_two_step_error_vectors_vanish(heisenberg, heisenberg_metric, rng):
    for _ in range(20):
        coords = rand_layer_coords(heisenberg, rng, 2)
        s = adjust_to_layer_vector(heisenberg, heisenberg_metric, coords, 2)
        assert s.layer_error_vectors() == {}
        # commutator product coincides with the bracket sum in 2-step
        assert s.measure()[1] == s.bracket_sum()


def test_engel_error_vector_layers(engel, engel_metric, rng):
    for _ in range(10):
        coords = rand_layer_coords(engel, rng, 2)
        s = adjust_to_layer_vector(engel, engel_metric, coords, 2)
        errors = s.layer_error_vectors()
        assert set(errors) == {3}
        y = s.measure()[1]
        # the layer-2 part reproduces the target exactly
        diff = [a - b for a, b in zip(y.layer(2), coords)]
        assert all(
            d == 0 or (hasattr(d, "is_zero") and d.is_zero) for d in diff
        )
    s_top = adjust_to_layer_vector(engel, engel_metric, [Fraction(1)], 3)
    assert s_top.layer_error_vectors() == {}


def test_tuple_two_step_central(heisenberg, heisenberg_metric, rng):
    """In two steps the height-2 stage is exactly the target layer: no
    corrections, and the product is the plain sum."""
    for _ in range(10):
        z = rand_vector(heisenberg, rng)
        tup = adjust_tuple(heisenberg, heisenberg_metric, z)
        assert all(
            all(c == 0 for c in coords) if not hasattr(coords, "is_zero") else coords.is_zero
            for coords in [tup.prefix_errors[(2, 1)]]
        )
        assert tup.prefixes[-1] == z


def test_tuple_zero(heisenberg, heisenberg_metric):
    tup = adjust_tuple(heisenberg, heisenberg_metric, heisenberg.zero())
    assert tup.total_combinatorial_length() == 0.0
    assert all(s.measure()[1].is_zero for s in tup.sets)


def test_tuple_engel_top(engel, engel_metric):
    z = engel.vector([0, 0, 0, 1])
    tup = adjust_tuple(engel, engel_metric, z)
    assert tup.sets[0].combinatorial_length() == 0.0
    assert tup.sets[1].combinatorial_length() == 0.0
    assert tup.prefixes[-1] == z
    # correction entering stage 3 is zero here
    assert all(
        c == 0 or (hasattr(c, "is_zero") and c.is_zero)
        for c in tup.prefix_errors[(3, 2)]
    )


def test_tuple_random_reconstruction(engel, engel_metric, free23, free23_metric, rng):
    for alg, metric in ((engel, engel_metric), (free23, free23_metric)):
        for _ in range(10):
            z = rand_vector(alg, rng)
            tup = adjust_tuple(alg, metric, z)
            assert tup.prefixes[-1] == z  # exact, through the radical ring


def test_dcom_values(heisenberg, heisenberg_metric):
    z = heisenberg.vector([0, 0, 1])
    tup = adjust_tuple(heisenberg, heisenberg_metric, z)
    assert tup.total_combinatorial_length() == pytest.approx(
        2 * SQRT2, abs=1e-14
    )
    z2 = heisenberg.vector([3, 4, 1])
    tup2 = adjust_tuple(heisenberg, heisenberg_metric, z2)
    expected = 5.0 + tup2.sets[1].combinatorial_length()
    assert tup2.total_combinatorial_length() == pytest.approx(expected, abs=1e-12)


def test_rescale_set_exact_scaling(heisenberg, heisenberg_metric, rng):
    for t in (Fraction(2), Fraction(3), Fraction(1, 2)):
        coords = rand_layer_coords(heisenberg, rng, 2)
        s = adjust_to_layer_vector(heisenberg, heisenberg_metric, coords, 2)
        scaled = rescale(s, t)
        assert scaled.combinatorial_length() == float(t) * s.combinatorial_length()
        report = scaled.verify_conditions()
        assert report["sum_exact"]
        # realized target is the dilated one
        assert list(scaled.target_coords) == [c * t ** 2 for c in coords]


def test_tuple_dilate_matches_direct(engel, engel_metric, rng):
    """Row-rescaling realizes the dilated target; lengths agree with a fresh
    decomposition of the dilated vector to float accuracy."""
    z = rand_vector(engel, rng)
    tup = adjust_tuple(engel, engel_metric, z)
    for t in (Fraction(2), Fraction(1, 2)):
        scaled = dilate(tup, t)
        assert scaled.target == dilate_vector(engel, t, z)
        assert scaled.total_combinatorial_length() == pytest.approx(
            float(t) * tup.total_combinatorial_length(), rel=1e-12
        )
        direct = adjust_tuple(engel, engel_metric, dilate_vector(engel, t, z))
        assert direct.total_combinatorial_length() == pytest.approx(
            scaled.total_combinatorial_length(), rel=1e-9
        )


def _rows(hs):
    return [(r.word, r.alpha, r.sign, r.scale) for r in hs.rows]


def test_float_inputs_are_read_exactly(heisenberg, heisenberg_metric):
    """A float layer target or rescale factor is its exact binary fraction:
    the set equals the one built from Fractions and certifies exactly."""
    s = adjust_to_layer_vector(heisenberg, heisenberg_metric, [0.75], 2)
    same = adjust_to_layer_vector(heisenberg, heisenberg_metric, [Fraction(3, 4)], 2)
    assert s.target_coords == same.target_coords == (Fraction(3, 4),)
    assert _rows(s) == _rows(same)
    report = s.verify_conditions()
    assert report["sum_exact"] and report["norm_exact"]
    assert "sum_residual" not in report
    scaled = rescale(s, 0.5)
    assert scaled.target_coords == rescale(same, Fraction(1, 2)).target_coords
    assert _rows(scaled) == _rows(rescale(same, Fraction(1, 2)))
    assert scaled.verify_conditions()["sum_exact"]
    z = heisenberg.vector([0.5, 0.25, 0.1])
    tup = adjust_tuple(heisenberg, heisenberg_metric, z)
    assert z == heisenberg.vector([Fraction(x) for x in (0.5, 0.25, 0.1)])
    assert tup.prefixes[-1] == z
    assert tup.total_combinatorial_length() > 0
    assert dilate(tup, 0.5).target == dilate_vector(heisenberg, Fraction(1, 2), z)


@pytest.mark.parametrize(
    "family, params, targets",
    [
        ("heisenberg", (1,), 4),
        ("heisenberg", (2,), 4),
        ("engel", (), 4),
        ("free_nilpotent", (2, 3), 3),
        ("free_nilpotent", (2, 4), 3),
        ("free_nilpotent", (2, 5), 2),
        ("free_nilpotent", (3, 3), 2),
        ("engel-inner1", ENGEL_INNER1, 3),
        ("free_nilpotent", (3, 4), 2),
    ],
)
def test_stage_product_matches_pairwise_fold(family, params, targets, rng):
    """Every stage's measured product equals the pairwise fold of its
    dilated row factors, coordinate for coordinate, on the adjusted sets
    and on their rescales by 5/3 (whose radical scales are c * r).  Some
    stage below the step sums its commuting factors except on step 2, and
    on free_nilpotent(2,4) stage 2 does.  The engel-inner1 document's
    orthonormalised brackets give tensor maps M_2 and M_3 with non-integer
    entries; free_nilpotent(3,4) has the commuting layer 3, so its stage 2
    folds and its stage 3 sums below a layer 4."""
    if family == "engel-inner1":
        alg = load_algebra(params)
    else:
        alg = builtin_family(family, params)
    metric = build_popp(alg)
    if family == "engel-inner1":
        assert all(
            any(m.denominator > 1 for row in metric.bracket_matrices[j] for m in row)
            for j in (2, 3)
        )
    summed = set()
    for _ in range(targets):
        tup = adjust_tuple(alg, metric, rand_vector(alg, rng))
        for stage in tup.sets:
            for s in (stage, rescale(stage, Fraction(5, 3))):
                y = s.measure()[1]
                assert y.coords() == folded_stage_product(s).coords()
                if alg.commuting_layer <= s.arity < alg.step and not y.is_zero:
                    summed.add(s.arity)
    assert summed or alg.step == 2
    if (family, params) == ("free_nilpotent", (2, 4)):
        assert 2 in summed  # its layer 2 is one-dimensional
    if (family, params) == ("free_nilpotent", (3, 4)):
        assert alg.commuting_layer == 3 and summed == {3}


def test_commuting_stage_makes_no_group_product(monkeypatch, rng):
    """A stage of layer j >= the algebra's commuting layer sums its
    factors: no group product, counted at the two evaluators of the law; a
    lower stage folds its nonzero rows pairwise.  On free_nilpotent(2,4)
    the commuting layer is 2, below the grading bound 3, since its layer 2
    is one-dimensional: stages 2, 3 and 4 sum."""
    alg = builtin_family("free_nilpotent", (2, 4))
    metric = build_popp(alg)
    tup = adjust_tuple(alg, metric, rand_vector(alg, rng))
    calls = []
    for name in ("integer_product", "_ring_product"):
        original = getattr(bch_engine, name)

        def counting(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bch_engine, name, counting)
    summed = []
    for stage in tup.sets:
        calls.clear()
        stage.measure()
        rows = len(full_rows(stage))
        if stage.arity >= alg.commuting_layer:
            assert rows > 1 and calls == []
            summed.append(stage.arity)
        else:
            assert len(calls) == max(rows - 1, 0)
    assert alg.commuting_layer == 2 and summed == [2, 3, 4]


@pytest.mark.parametrize(
    "token",
    [
        "heisenberg:1",
        "heisenberg:3",
        "engel",
        "free_nilpotent:2,4",
        "free_nilpotent:3,3",
        "free_nilpotent:2,5",
    ],
)
def test_word_commutators_equal_letter_fold(token):
    """Every C(w, sign), built from its suffix's memo entry, equals the
    iterated group commutator of its signed letters."""
    alg = resolve_algebra(token)
    for j in range(2, alg.step + 1):
        for word in itertools.product(range(alg.dims[0]), repeat=j):
            for sign in (1, -1):
                got = adjustment._word_commutator(alg, word, sign)
                assert got == letter_fold_commutator(alg, word, sign), (word, sign)


def test_cold_word_commutator_costs_one_group_commutator(monkeypatch):
    """A new length-j entry whose suffix is memoised costs exactly 3 integer
    products, one group commutator, where the letter fold costs 3(j - 1)."""
    alg = _free_nilpotent(2, 4)
    calls = []
    original = bch_engine.integer_product

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(bch_engine, "integer_product", counting)
    for word in [(0, 1), (1, 0, 1), (0, 1, 0, 1), (1, 1, 0, 0)]:
        for sign in (1, -1):
            if len(word) > 2:
                adjustment._word_commutator(alg, word[1:], 1)
            calls.clear()
            adjustment._word_commutator(alg, word, sign)
            assert len(calls) == 3, (word, sign)
            calls.clear()
            adjustment._word_commutator(alg, word, sign)
            assert calls == []



def test_lengths_beyond_the_float_range_raise_overflow(engel, engel_metric):
    """Row norms whose exact sum exceeds the float range raise
    OverflowError from the path length and the combinatorial length."""
    tup = adjust_tuple(engel, engel_metric, engel.vector([1, 2, 3, 4]))
    tup.norms = [[1e308] * len(norms) for norms in tup.norms]
    with pytest.raises(OverflowError):
        tup.verify_reconstruction()
    stage = adjust_to_layer_vector(engel, engel_metric, [Fraction(1)], 2)
    stage.row_norms = lambda: [1e308, 1e308]
    with pytest.raises(OverflowError):
        stage.combinatorial_length()


@pytest.mark.parametrize("case", ["none", "rational", "radical", "scaled-radical", "zero"])
def test_short_rational_lincomb_is_lincomb(case):
    """No term or one term is the lincomb of the same terms over their
    least common denominator: the same value in the same canonical form.
    The radicals are made inside the test, so no other test finds them
    interned."""
    terms = {
        "none": [],
        "rational": [(Fraction(-3, 4), Fraction(5, 6))],
        "radical": [(Fraction(2), signed_root(Fraction(3), 2)[1])],
        "scaled-radical": [
            (Fraction(7, 10), signed_root(Fraction(5, 7), 3)[1] * Fraction(15, 2))
        ],
        "zero": [(Fraction(1, 3), Fraction(0))],
    }[case]
    lcd = math.lcm(*(c.denominator for c, _ in terms))
    expected = lincomb(
        [(c.numerator * (lcd // c.denominator), x) for c, x in terms], lcd
    )
    got = adjustment._rational_lincomb(terms)
    assert type(got) is type(expected) and got == expected
    if isinstance(got, RadExpr):
        assert (got.den, got.nums) == (expected.den, expected.nums)
