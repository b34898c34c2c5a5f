import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from carnotcert import adjustment, bch_engine, scalars
from carnotcert.adjustment import (
    AdjustedRow,
    AdjustedTuple,
    HorizontalSet,
    adjust_tuple,
    cc_lower_bound,
    certified_dcc_upper,
    commutator_word,
    letter_count,
    row_segments,
)
from carnotcert.bch_engine import bch_product, product_fold
from carnotcert.errors import CertificateFailure
from carnotcert.graded_algebra import _builtin_family, builtin_family, resolve_algebra
from carnotcert.popp_metric import build_popp
from carnotcert.scalars import RadExpr
from oracle_utils import (
    created_radicals,
    dilate,
    dilate_vector,
    fold_and_measure,
    iterated_group_commutator,
    is_horizontal,
    rand_vector,
    full_rows,
    rescale,
    signed_row,
)

SQRT2 = math.sqrt(2.0)


def test_commutator_word_patterns():
    assert commutator_word(1) == [(0, 1)]
    assert commutator_word(2) == [(0, 1), (1, 1), (0, -1), (1, -1)]
    w3 = commutator_word(3)
    assert len(w3) == 10
    counts = Counter(pos for pos, _ in w3)
    assert counts == {0: 2, 1: 4, 2: 4}
    # every position nets to zero displacement
    for pos in range(3):
        assert sum(sign for p, sign in w3 if p == pos) == 0


def test_commutator_word_counts_general():
    for arity in range(1, 6):
        counts = Counter(pos for pos, _ in commutator_word(arity))
        for pos in range(arity - 1):
            assert counts[pos] == 2 ** (pos + 1)
        assert counts[arity - 1] == 2 ** (arity - 1)
    # a layer-j row of a step-k algebra spells at most 2**(k-1) letters per
    # entry, so a path is at most 2**(k-1) times its combinatorial length
    for k in range(1, 9):
        for j in range(1, k + 1):
            assert len(commutator_word(j)) == 3 * 2 ** (j - 1) - 2 <= 2 ** (k - 1) * j
            assert letter_count(j) == len(commutator_word(j))


def test_single_horizontal_target(heisenberg, heisenberg_metric):
    path, bound = certified_dcc_upper(
        heisenberg, heisenberg_metric, heisenberg.vector([1, 0, 0])
    )
    assert bound == 1.0
    assert len(path.segments) == 1
    assert path.endpoint == heisenberg.vector([1, 0, 0])


def test_center_target(heisenberg, heisenberg_metric):
    z = heisenberg.vector([0, 0, 1])
    path, bound = certified_dcc_upper(heisenberg, heisenberg_metric, z)
    assert len(path.segments) == 8
    assert bound == pytest.approx(4 * SQRT2, abs=1e-12)
    assert path.endpoint == z  # exact, through the radical ring
    tup = adjust_tuple(heisenberg, heisenberg_metric, z)
    assert bound <= 2 ** (heisenberg.step - 1) * tup.total_combinatorial_length() + 1e-15


def test_zero_target(heisenberg, heisenberg_metric):
    path, bound = certified_dcc_upper(
        heisenberg, heisenberg_metric, heisenberg.zero()
    )
    assert bound == 0.0 and path.segments == []
    assert path.endpoint.is_zero


def test_random_targets_exact_endpoints(
    heisenberg, heisenberg_metric, engel, engel_metric, free23, free23_metric, rng
):
    for alg, metric in (
        (heisenberg, heisenberg_metric),
        (engel, engel_metric),
        (free23, free23_metric),
    ):
        for _ in range(10):
            z = rand_vector(alg, rng)
            path, bound = certified_dcc_upper(alg, metric, z)
            assert path.endpoint == z
            segments = path.segments
            assert len(segments) == path.segment_count
            assert all(is_horizontal(seg) for seg in segments)
            assert product_fold(alg, segments) == path.endpoint
            tup = adjust_tuple(alg, metric, z)
            ceiling = 2 ** (alg.step - 1) * tup.total_combinatorial_length()
            assert bound <= ceiling * (1 + 1e-12)
            assert bound >= cc_lower_bound(metric, z) - 1e-9


def test_lower_bound_examples(heisenberg, heisenberg_metric):
    assert cc_lower_bound(heisenberg_metric, heisenberg.vector([0, 0, 1])) == 0.0
    assert cc_lower_bound(heisenberg_metric, heisenberg.vector([1, 0, 0])) == 1.0


def test_path_dilation_exact_length(heisenberg, heisenberg_metric):
    z = heisenberg.vector([0, 0, 1])
    path = adjust_tuple(heisenberg, heisenberg_metric, z)
    for t in (Fraction(2), Fraction(3), Fraction(1, 2)):
        dilated = dilate(path, t)
        assert dilated.length == float(t) * path.length  # bitwise
        assert dilated.endpoint == dilate_vector(heisenberg, t, z)
        assert dilated.segments == [s.scale(t) for s in path.segments]
        # the dilated path is the path of the row-rescaled decomposition,
        # whose length is measured from its own rows
        scaled_path = AdjustedTuple(
            heisenberg, heisenberg_metric, dilate_vector(heisenberg, t, z), dilated.sets
        )
        scaled_path.verify_reconstruction()
        assert scaled_path.length == pytest.approx(dilated.length, rel=1e-12)


def test_waypoints(heisenberg, heisenberg_metric):
    z = heisenberg.vector([0, 0, 1])
    path, _ = certified_dcc_upper(heisenberg, heisenberg_metric, z)
    points = path.waypoints()
    assert len(points) == len(path.segments)
    assert points[-1] == z


def test_float_target_is_read_exactly(heisenberg, heisenberg_metric):
    """A float coordinate is its exact binary fraction: 0.3 is not 3/10."""
    z = heisenberg.vector([0.125, -0.25, 0.3])
    exact = heisenberg.vector(
        [Fraction(1, 8), Fraction(-1, 4), Fraction(0.3)]
    )
    assert z == exact and z.layer(2)[0] != Fraction(3, 10)
    path, bound = certified_dcc_upper(heisenberg, heisenberg_metric, z)
    assert path.endpoint == z
    assert bound == certified_dcc_upper(heisenberg, heisenberg_metric, exact)[1]
    assert bound > 0


def _letter_fold(stage):
    """Stage commutator product by the definition: the commutator of every
    nonzero row of the full tensor folded letter by letter, then the rows
    folded in lex order of words."""
    factors = [
        stage.row_vectors(row)[0]
        if stage.arity == 1
        else iterated_group_commutator(stage.algebra, stage.row_vectors(row))
        for row in full_rows(stage)
    ]
    if not factors:
        return stage.algebra.zero()
    return product_fold(stage.algebra, factors)


@pytest.mark.parametrize(
    "family, params, targets",
    [
        ("heisenberg", (1,), 4),
        ("heisenberg", (2,), 4),
        ("engel", (), 4),
        ("free_nilpotent", (2, 3), 3),
        ("free_nilpotent", (2, 4), 2),
    ],
)
def test_row_fold_matches_letter_fold(family, params, targets, rng):
    """Every stage's measured product, and that of its rescale by 5/3, is
    the letter-by-letter fold of its rows.  The algebra is built afresh,
    so its word-commutator memo holds what these measures put there: words
    of length 2..k-1 only, none on step 2, since the central stage of the
    step k is read off the tensor map."""
    alg = _builtin_family.__wrapped__(family, params)
    metric = build_popp(alg)
    negative_rows = 0
    for _ in range(targets):
        z = rand_vector(alg, rng)
        tup = adjust_tuple(alg, metric, z)
        assert tup.endpoint == product_fold(alg, tup.segments) == z
        for stage in tup.sets:
            assert stage.measure()[1] == _letter_fold(stage)
            scaled = rescale(stage, Fraction(5, 3))
            assert scaled.measure()[1] == _letter_fold(scaled)
            negative_rows += sum(row.sign < 0 for row in full_rows(stage))
    assert negative_rows > 0
    d1 = alg.dims[0]
    bound = 2 * sum(d1**j for j in range(2, alg.step))
    assert len(alg.word_commutators) <= bound
    assert len(alg.word_commutators) > 0 or alg.step == 2


@pytest.mark.parametrize(
    "token", ["heisenberg:2", "engel", "free_nilpotent:2,4", "free_nilpotent:2,5"]
)
def test_certificate_makes_no_central_radical_or_word_commutator(token):
    """A certificate reads the product of its central stage, j = k, off
    Popp's tensor map: it creates no radical of degree k (stages 2..k-1
    create some above step 2) and adds no length-k word commutator to the
    memo, although its central rows have
    radical scales: they are split off alpha only when read, as the
    segments, built afterwards, read them.  The segments fold exactly to
    the target."""
    alg = resolve_algebra(token)
    metric = build_popp(alg)
    k = alg.step
    rng = random.Random(3601)
    central = made = 0
    for i in range(4):
        z = alg.vector(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(alg.dim)]
        )
        memo = set(alg.word_commutators)
        with created_radicals() as created:
            tup, bound = certified_dcc_upper(alg, metric, z)
        assert all(rad.degree < k for rad in created)
        made += len(created)
        assert all(len(key[0]) < k for key in set(alg.word_commutators) - memo)
        assert bound == tup.length > 0
        if i == 0:  # one fold of the segments: on step 5 it takes seconds
            assert product_fold(alg, tup.segments) == z
        central += any(isinstance(row.scale, RadExpr) for row in tup.sets[-1].rows)
    assert central > 0
    assert made > 0 or k == 2


@pytest.mark.parametrize(
    "token",
    ["heisenberg:3", "engel", "free_nilpotent:2,4", "free_nilpotent:2,5", "free_nilpotent:3,3"],
)
def test_each_mirrored_pair_is_split_once(token, monkeypatch):
    """Rows (u, a, b) and (u, b, a) of the full tensor have opposite alphas,
    and a stage of layer j >= 2 builds one row per pair word (u, a, b),
    a < b: d1**(j-2) * d1 (d1 - 1) / 2 rows, none for (u, a, a).  A
    certificate splits each pair once: ``signed_root`` and
    ``scalar_powers`` run once per nonzero row of stages 2..k-1, and
    ``root_norm`` once per nonzero row of the central stage.  Every row's
    (sign, scale), and its partner's, is what splitting its own alpha
    gives, and the radicals are created in row order, one per new
    radicand, as splitting every row of the full tensor would create
    them."""
    alg = resolve_algebra(token)
    metric = build_popp(alg)
    d1 = alg.dims[0]
    calls = Counter()
    for name in ("signed_root", "scalar_powers", "root_norm"):
        def counting(*args, name=name, real=getattr(adjustment, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(adjustment, name, counting)
    rng = random.Random(3801)
    for _ in range(3):
        z = alg.vector(
            [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(alg.dim)]
        )
        calls.clear()
        with created_radicals() as created:
            tup, _ = certified_dcc_upper(alg, metric, z)
        assert [len(stage.rows) for stage in tup.sets] == [1] + [
            d1 ** (j - 2) * d1 * (d1 - 1) // 2 for j in range(2, alg.step + 1)
        ]
        live = [sum(not row.is_zero for row in stage.rows) for stage in tup.sets]
        inner = sum(live[1:-1])
        assert calls == Counter(
            signed_root=inner, scalar_powers=inner, root_norm=live[-1]
        )
        order = []
        for j, stage in enumerate(tup.sets[1:], start=2):
            for row in full_rows(stage):
                if j < alg.step and isinstance(row.scale, RadExpr):
                    ((uid, _),) = next(iter(row.scale.nums))
                    if uid not in order:
                        order.append(uid)
                assert (row.sign, row.scale) == scalars.signed_root(row.alpha, j)
        assert [rad.uid for rad in created] == order
        assert order or alg.step == 2


def test_free_nilpotent_2_4_certificate_builds_seven_worded_rows(monkeypatch):
    """A free_nilpotent(2,4) certificate builds 7 worded rows, 1 + 2 + 4 for
    layers 2, 3 and 4, where the full tensors have 4 + 8 + 16 rows, and
    calls ``signed_root`` once per nonzero row of stages 2 and 3."""
    alg = resolve_algebra("free_nilpotent:2,4")
    metric = build_popp(alg)
    built, splits = [], []
    real_row, real_root = adjustment.AdjustedRow, adjustment.signed_root

    def counting_row(word, alpha, root=None):
        built.append(word)
        return real_row(word, alpha, root)

    def counting_root(alpha, arity):
        splits.append(arity)
        return real_root(alpha, arity)

    monkeypatch.setattr(adjustment, "AdjustedRow", counting_row)
    monkeypatch.setattr(adjustment, "signed_root", counting_root)
    z = alg.vector([Fraction(p, q) for p, q in [
        (1, 3), (2, 7), (5, 11), (1, 5), (-3, 7), (2, 9), (1, 4), (-1, 6)
    ]])
    tup, _ = certified_dcc_upper(alg, metric, z)
    assert tup.endpoint == z
    assert [word for word in built if word is not None] == [(0, 1), (0, 0, 1), (1, 0, 1)] + [
        (u, v, 0, 1) for u in range(2) for v in range(2)
    ]
    live = [row for stage in tup.sets[1:-1] for row in stage.rows if not row.is_zero]
    assert len(live) == 3 and splits == [2, 3, 3]


@pytest.mark.parametrize("pos", [0, 1, 2])
@pytest.mark.parametrize("tamper", ["rescaled", "other_letter", "negated"])
def test_row_fold_rejects_tampered_row(free23, free23_metric, pos, tamper):
    """A row is its word, sign and scale: tamper one field of the pos-th
    nonzero row of arity >= 2 (scale doubled, sign flipped, first letter
    changed), which moves its partner with it.  Their segments and their
    measured factors still agree, since both are built from the fields, so
    the forged tuple's segments fold exactly to its last prefix; that
    prefix misses the target and is refused.  free_nilpotent(2,3) has
    three nonzero rows of arity >= 2: (0, 1), (0, 0, 1) and (1, 0, 1)."""
    alg, metric = free23, free23_metric
    z = alg.vector([Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), Fraction(1, 7), Fraction(-2, 9)])
    tup = adjust_tuple(alg, metric, z)
    j, index = [
        (j, i)
        for j, stage in enumerate(tup.sets)
        if stage.arity >= 2
        for i, row in enumerate(stage.rows)
        if not row.is_zero
    ][pos]
    stage = tup.sets[j]
    row = stage.rows[index]
    word, sign, scale = row.word, row.sign, row.scale
    if tamper == "rescaled":
        scale = scale * 2
    elif tamper == "negated":
        sign = -sign
    else:
        word = (1 - word[0],) + word[1:]
    rows = list(stage.rows)  # a copy: the honest set stays as built
    rows[index] = signed_row(word, sign, scale)
    bad = HorizontalSet(alg, metric, stage.arity, stage.target_coords, rows)
    with pytest.raises(CertificateFailure):
        bad.verify_conditions()
    forged = AdjustedTuple(alg, metric, z, tup.sets[:j] + [bad] + tup.sets[j + 1:])
    segments = [
        seg for s in forged.sets for r in s.spelled_rows() for seg in row_segments(s, r)
    ]
    assert product_fold(alg, segments) == forged.prefixes[-1] != z
    with pytest.raises(CertificateFailure, match="do not rebuild the target"):
        forged.verify_reconstruction()
    assert forged.endpoint is None


def test_row_of_another_arity_is_refused(engel, engel_metric):
    """A set's arity is the word length of its rows: layer-3 rows in a set
    of arity 2, word-less layer-1 rows in a set of arity 3 and a worded row
    in a set of arity 1 are refused when the set is built, so its length
    counts each row's own letters."""
    z = engel.vector([Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), Fraction(1, 7)])
    tup = adjust_tuple(engel, engel_metric, z)
    stage = tup.sets[2]
    assert stage.arity == 3 and not all(row.is_zero for row in stage.rows)
    with pytest.raises(CertificateFailure, match="in a set of arity 2"):
        HorizontalSet(engel, engel_metric, 2, stage.target_coords, stage.rows)
    layer1 = tup.sets[0]
    with pytest.raises(CertificateFailure, match="in a set of arity 3"):
        HorizontalSet(engel, engel_metric, 3, stage.target_coords, layer1.rows)
    worded = [signed_row((0,), 1, Fraction(1))] + layer1.rows[1:]
    with pytest.raises(CertificateFailure, match="in a set of arity 1"):
        HorizontalSet(engel, engel_metric, 1, layer1.target_coords, worded)


def test_path_endpoint_comes_from_the_sets(engel, engel_metric):
    """Sets realising A under the target B: the tuple folds its prefixes
    from the sets, so the endpoint is A and the exact check refuses it."""
    a = engel.vector([Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), Fraction(1, 7)])
    b = engel.vector([Fraction(2, 3), Fraction(1, 5), Fraction(-1, 4), Fraction(3, 7)])
    tup_a = adjust_tuple(engel, engel_metric, a)
    forged = AdjustedTuple(engel, engel_metric, b, tup_a.sets)
    assert forged.prefixes[-1] == a
    with pytest.raises(CertificateFailure, match="do not rebuild the target"):
        forged.verify_reconstruction()
    honest = AdjustedTuple(engel, engel_metric, a, tup_a.sets)
    honest.verify_reconstruction()
    assert honest.endpoint == a


@pytest.mark.parametrize("family, params", [("engel", ()), ("free_nilpotent", (2, 4))])
def test_stage_products_folded_once(family, params, rng, monkeypatch):
    """adjust_tuple makes one group product per nonzero stage product of
    arity 2..k-1 and none for the stage of arity k, whose central product
    it adds; reading the certified endpoint and length makes none.  A
    random target makes 1 group product in all on engel (the prefix of
    stage 2) and 2 on free_nilpotent(2,4) (the prefixes of stages 2 and
    3; its stage-2 factors commute, since layer 2 is one-dimensional, and
    are summed), counted at the two evaluators of the law: the prefix
    products, which adjustment makes, are all of them."""
    products = {"engel": 1, "free_nilpotent": 2}[family]
    alg = builtin_family(family, params)
    metric = build_popp(alg)
    anywhere, in_adjustment = [], []

    def counting(log, real):
        def wrapped(*args):
            log.append(1)
            return real(*args)
        return wrapped

    for name in ("integer_product", "_ring_product"):
        monkeypatch.setattr(bch_engine, name, counting(anywhere, getattr(bch_engine, name)))
    monkeypatch.setattr(
        adjustment, "bch_product", counting(in_adjustment, adjustment.bch_product)
    )
    targets = [rand_vector(alg, rng) for _ in range(3)] + [alg.basis_vector(1, 0)]
    for z in targets:
        adjust_tuple(alg, metric, z)  # fills the per-algebra commutator memo
        anywhere.clear()
        in_adjustment.clear()
        tup = adjust_tuple(alg, metric, z)
        total = len(anywhere)
        prefix_products = len(in_adjustment)
        folded = sum(not stage.measure()[1].is_zero for stage in tup.sets[1:-1])
        assert prefix_products == folded
        if z != alg.basis_vector(1, 0):
            assert not tup.sets[-1].measure()[1].is_zero
            assert folded == alg.step - 2 == total == products
        anywhere.clear()
        in_adjustment.clear()
        assert tup.endpoint == z and tup.length >= 0.0
        assert anywhere == in_adjustment == []
    assert folded == total == 0  # the basis vector: every later stage is zero


@pytest.mark.parametrize(
    "family, params", [("engel", ()), ("free_nilpotent", (2, 4)), ("free_nilpotent", (2, 5))]
)
def test_central_stage_added_as_the_group_law_multiplies(family, params, rng):
    """The last stage's product lives in layer k alone, and the last prefix,
    formed by adding it, is exactly its group product with the prefix
    before it, radical coordinates included."""
    alg = builtin_family(family, params)
    metric = build_popp(alg)
    radical = 0
    for _ in range(4):
        tup = adjust_tuple(alg, metric, rand_vector(alg, rng))
        y = tup.sets[-1].measure()[1]
        assert all(c == 0 for c in y.coords()[: alg.offsets[-2]])
        assert tup.prefixes[-1] == bch_product(alg, tup.prefixes[-2], y)
        radical += any(isinstance(c, RadExpr) for c in y.layer(alg.step))
    assert radical


def test_tampered_central_stage_fails_the_endpoint_check(engel, engel_metric):
    """A last stage with one row's sign flipped moves only layer k of the
    last prefix, and the exact check refuses it."""
    z = engel.vector([Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), Fraction(1, 7)])
    tup = adjust_tuple(engel, engel_metric, z)
    last = tup.sets[-1]
    i = next(i for i, row in enumerate(last.rows) if not row.is_zero)
    row = last.rows[i]
    rows = list(last.rows)
    rows[i] = signed_row(row.word, -row.sign, row.scale)
    tampered = HorizontalSet(engel, engel_metric, last.arity, last.target_coords, rows)
    forged = AdjustedTuple(engel, engel_metric, z, tup.sets[:-1] + [tampered])
    below = engel.offsets[-2]
    assert forged.prefixes[-1].coords()[:below] == z.coords()[:below]
    assert forged.prefixes[-1] != z
    with pytest.raises(CertificateFailure, match="do not rebuild the target"):
        forged.verify_reconstruction()


@pytest.mark.parametrize("family, params", [("engel", ()), ("free_nilpotent", (2, 4))])
def test_certificate_builds_no_segment(family, params, rng, monkeypatch):
    """certified_dcc_upper reads the length and endpoint off the letter
    program; it expands no row into segments."""
    alg = builtin_family(family, params)
    metric = build_popp(alg)
    real = adjustment.row_segments
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(adjustment, "row_segments", counting)
    paths = []
    for z in [rand_vector(alg, rng) for _ in range(3)] + [alg.zero()]:
        path, bound = certified_dcc_upper(alg, metric, z)
        assert path.endpoint == z and bound == path.length
        paths.append(path)
    assert calls == []
    # the counted name is the one the segments of a report are built by
    assert len(paths[0].segments) == paths[0].segment_count > 0
    assert len(calls) == sum(len(full_rows(s)) for s in paths[0].sets)


def test_certificate_checks_its_endpoint_once(engel, engel_metric, monkeypatch):
    """certified_dcc_upper runs the exact reconstruction check once."""
    real = AdjustedTuple.verify_reconstruction
    calls = []

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(AdjustedTuple, "verify_reconstruction", counting)
    z = engel.vector([Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), Fraction(1, 7)])
    tup, bound = certified_dcc_upper(engel, engel_metric, z)
    assert tup.endpoint == z and bound == tup.length
    assert len(calls) == 1


def test_endpoint_only_after_the_check(engel, engel_metric):
    """A tuple built from sets has no endpoint and no length until it passes
    the exact check, and loses both when a stage is added."""
    z = engel.vector([Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), Fraction(1, 7)])
    sets = adjust_tuple(engel, engel_metric, z).sets
    tup = AdjustedTuple(engel, engel_metric, z, sets)
    assert tup.prefixes[-1] == z
    assert tup.endpoint is None and tup.length is None
    tup.verify_reconstruction()
    assert tup.endpoint == z and tup.length > 0
    tup.add_stage(sets[0])
    assert tup.endpoint is None and tup.length is None


def test_step5_path_endpoint_exact(rng):
    alg = builtin_family("free_nilpotent", (2, 5))
    metric = build_popp(alg)
    z = rand_vector(alg, rng)
    path, bound = certified_dcc_upper(alg, metric, z)
    assert path.endpoint == z
    assert bound == path.length > 0


@pytest.mark.parametrize(
    "family, params",
    [
        ("heisenberg", (1,)),
        ("engel", ()),
        ("free_nilpotent", (2, 3)),
        ("free_nilpotent", (2, 4)),
        ("free_nilpotent", (3, 3)),
    ],
)
def test_lengths_measured_once_per_row(family, params, rng):
    """Row norms measured once give the per-segment and per-entry fsums
    bit for bit, for negative-sign rows and rescaled rows too."""
    alg = builtin_family(family, params)
    metric = build_popp(alg)
    tups = []
    for _ in range(4):
        z = rand_vector(alg, rng)
        minus_z = alg.vector([-c for c in z.coords()])
        tup = adjust_tuple(alg, metric, z)
        tups.append(tup)
        tups.append(adjust_tuple(alg, metric, minus_z))
        # built by hand from rescaled sets: it measures its own rows
        t = Fraction(5, 3)
        tups.append(AdjustedTuple(
            alg, metric, dilate_vector(alg, t, z), [rescale(s, t) for s in tup.sets]
        ))
    negative_rows = 0
    for tup in tups:
        tup.verify_reconstruction()
        assert tup.length == fold_and_measure(alg, metric, tup.segments)[1]
        for stage in tup.sets:
            # a fresh set measures its rows; a rescaled one reports t times
            # its parent's length, asserted in test_adjustment
            fresh = HorizontalSet(
                alg, metric, stage.arity, stage.target_coords, stage.rows
            )
            entries = [
                [metric.layer_norm(1, v.layer(1)) for v in fresh.row_vectors(row)]
                for row in full_rows(stage)
            ]
            assert fresh.combinatorial_length() == math.fsum(
                n for row in entries for n in row
            )
            report = fresh.verify_conditions()
            assert report["balance_ok"]
            # the float of the exact form: sum of alpha**2 over the rows of
            # the full tensor, which the norm condition equates to it;
            # layer 1 is orthonormal
            form = (
                sum(c * c for c in stage.target_coords)
                if stage.arity == 1
                else sum(r.alpha * r.alpha for r in full_rows(stage))
            )
            assert report["norm_value"] == math.sqrt(scalars.as_float(form))
            negative_rows += sum(row.sign < 0 for row in stage.rows)
    assert negative_rows > 0

