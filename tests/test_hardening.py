"""Boundary, concurrency and integration checks beyond the acceptance bar."""

import gc
import itertools
import json
import math
import random
import sys
import threading
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from carnotcert import adjustment
from carnotcert.adjustment import (
    adjust_to_layer_vector,
    adjust_tuple,
    certified_dcc_upper,
)
from carnotcert.bch_engine import (
    bch_product,
    beta_table,
    gamma_table,
    product_fold,
)
from carnotcert.certificates import global_constants
from carnotcert.cli_reports import sample_in_box
from carnotcert.graded_algebra import (
    _free_nilpotent,
    builtin_family,
    load_algebra,
    orthonormalize_layer1,
)
from carnotcert.lattice_systole import Lattice, check_systolic_inequality
from carnotcert.popp_metric import build_popp
from oracle_utils import (
    iterated_group_commutator,
    letter_fold_commutator,
    rand_vector,
    substitute,
)

HEISENBERG_DOC = {
    "name": "h1",
    "dims": [2, 1],
    "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]}
    ],
}


def _corner_vector(algebra, radii):
    """A vector sitting exactly on the per-layer radius boundary."""
    coords = []
    metric = build_popp(algebra)
    for layer, (d, radius) in enumerate(zip(algebra.dims, radii), start=1):
        direction = [Fraction(1)] + [Fraction(0)] * (d - 1)
        norm_sq = metric.layer_quadform(layer, direction)
        # scale the single basis direction so the layer norm equals the radius
        # exactly when the quadratic form of the direction is a square
        root = norm_sq
        scale = Fraction(radius)
        if root == 1:
            coords.extend([scale] + [Fraction(0)] * (d - 1))
        else:
            # G entries here are 1/2: norm of c*e is c/sqrt(2); pick c with
            # c**2 * root == radius**2 exactly when possible, else stay inside
            c2 = scale * scale / root
            num = c2.numerator
            den = c2.denominator
            rn = math.isqrt(num)
            rd = math.isqrt(den)
            if rn * rn == num and rd * rd == den:
                coords.extend([Fraction(rn, rd)] + [Fraction(0)] * (d - 1))
            else:
                coords.extend([scale] + [Fraction(0)] * (d - 1))
    return algebra.vector(coords, exact=True)


@pytest.mark.parametrize("token", ["heisenberg:1", "heisenberg:2", "engel"])
def test_box_corner_certified(token):
    """Exact corner targets of the radius box still certify length <= 1."""
    base, _, arg = token.partition(":")
    params = tuple(int(x) for x in arg.split(",") if x) if arg else ()
    alg = builtin_family(base, params)
    metric = build_popp(alg)
    box = global_constants(alg.dims)
    corner = _corner_vector(alg, box.radii)
    for layer in range(1, alg.step + 1):
        assert metric.layer_norm(layer, corner.layer(layer)) <= float(
            box.radii[layer - 1]
        ) * (1 + 1e-12)
    path, bound = certified_dcc_upper(alg, metric, corner)
    assert path.endpoint == corner
    assert bound <= 1.0


def test_heisenberg_corner_value(heisenberg, heisenberg_metric):
    """The exact corner (1/2, 0, sqrt(2)/1024-ish) has a frozen bound 3/4."""
    z = heisenberg.vector([Fraction(1, 2), 0, Fraction(1, 512)])
    # layer-2 norm of (1/512) is (1/512)/sqrt(2) < radius: push to the radius
    # by using the exact coordinate whose norm is 1/512: c/sqrt(2) = 1/512.
    # c = sqrt(2)/512 is irrational, so test the axis-coordinate corner
    # instead, which is what the sampler can actually reach.
    path, bound = certified_dcc_upper(heisenberg, heisenberg_metric, z)
    assert path.endpoint == z
    # two rows of four letters each, every letter of norm sqrt(1/1024) = 1/32
    assert bound == pytest.approx(0.5 + 8 * math.sqrt(1 / 1024), rel=1e-12)
    assert bound == pytest.approx(0.75, rel=1e-12)
    assert bound <= 1.0


def test_document_accepts_reversed_bracket_order(heisenberg):
    doc = {
        "name": "h-rev",
        "dims": [2, 1],
        "brackets": [
            {
                "a": [1, 2],
                "b": [1, 1],
                "out": [{"layer": 2, "idx": 1, "coeff": "-1"}],
            }
        ],
    }
    alg = load_algebra(json.dumps(doc))
    x1, x2 = alg.basis_vector(1, 0), alg.basis_vector(1, 1)
    assert alg.bracket(x1, x2) == alg.basis_vector(2, 0)


def test_free23_layer3_gram(free23_metric):
    """Two-dimensional top layer: diagonal Gram with entries 1/2."""
    g3 = free23_metric.grams[3]
    assert g3 == (
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
    )
    assert free23_metric.layer_norm(3, [Fraction(1), Fraction(0)]) == (
        pytest.approx(1 / math.sqrt(2), abs=1e-15)
    )


def test_metric_independence_of_systolic_constant(heisenberg):
    """Rescaling the horizontal metric changes sys and vol but the same
    dimension-only constant still dominates."""
    rescaled = orthonormalize_layer1(heisenberg, [[4, 0], [0, 9]])
    metric = build_popp(rescaled)
    box = global_constants(rescaled.dims)
    assert box.radii == global_constants(heisenberg.dims).radii
    # the old integer lattice in the new coordinates: X1 = 2 f1, X2 = 3 f2
    gens = [rescaled.vector([2, 0, 0]), rescaled.vector([0, 3, 0])]
    basis = gens + [rescaled.vector([0, 0, 1])]
    lattice = Lattice(rescaled, gens, basis, "rescaled-integer")
    report = check_systolic_inequality(lattice, metric, box, 2)
    assert report["satisfied"]
    assert report["sys_upper"] == 2.0  # shortest generator now has length 2
    # covolume: det diag(2,3,1) times the frame density sqrt(det G2) = sqrt(18)
    assert report["covolume"] == pytest.approx(6 * math.sqrt(18), rel=1e-12)


def _run_threads(task) -> list:
    """Results of ``task()`` run twice on each of 8 daemon threads, with a
    tiny switch interval to force interleaving.  A worker still running at
    the 120 s join deadline fails the test instead of hanging the run (a
    daemon thread does not hold up exit); a worker that raised leaves its
    results missing."""
    results: list = []

    def worker():
        for _ in range(2):
            results.append(task())

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 120
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a worker hangs"
    assert len(results) == 16
    return results


def test_concurrent_table_construction():
    """Caches behave as compute-once under concurrent access."""
    results = _run_threads(lambda: (beta_table(5, 3), gamma_table(3, 4)))
    assert all(t is results[0][0] for t, _ in results)
    assert all(t is results[0][1] for _, t in results)


def test_concurrent_adjustments():
    """Threads adjusting on a fresh algebra build equal sets and share one
    memoised word commutator per key."""
    alg = load_algebra(json.dumps(HEISENBERG_DOC))
    metric = build_popp(alg)
    coords = [Fraction(7, 13)]

    def build():
        s = adjust_to_layer_vector(alg, metric, coords, 2)
        commutators = {
            (row.word, row.sign > 0): adjustment._word_commutator(
                alg, row.word, row.sign
            )
            for row in s.rows
            if not row.is_zero
        }
        return s, commutators

    assert alg.word_commutators == {}
    results = _run_threads(build)
    rows = [
        [(r.word, r.alpha, r.sign, r.scale) for r in s.rows] for s, _ in results
    ]
    assert all(r == rows[0] for r in rows)
    keys = set(results[0][1])
    assert keys and set(alg.word_commutators) == keys
    for _, commutators in results:
        assert set(commutators) == keys
        for key, value in commutators.items():
            assert value is alg.word_commutators[key]


def test_concurrent_adjustments_build_suffixes():
    """Threads certifying on a fresh free_nilpotent(2,4), whose pair sums
    are built on their suffixes' word commutators, get equal tuples, share
    one memoised object per key, and every entry is the letter fold (a pair
    entry the sum of its word's and its partner word's); a lock held across
    the recursive build fails the join timeout instead of hanging the
    run."""
    alg = _free_nilpotent(2, 4)
    metric = build_popp(alg)
    target = alg.vector([Fraction(p, q) for p, q in [
        (1, 3), (-2, 7), (5, 11), (1, 5), (-3, 7), (2, 9), (1, 4), (-1, 6)
    ]])

    def build():
        tup = adjust_tuple(alg, metric, target)
        commutators = {
            (row.word, row.sign > 0, "pair"): adjustment._word_commutator(
                alg, row.word, row.sign, True
            )
            for stage in tup.sets[1:-1]
            for row in stage.rows
            if not row.is_zero
        }
        return tup, commutators

    assert alg.word_commutators == {}
    results = _run_threads(build)
    first = results[0][0]
    for tup, _ in results:
        assert tup.prefixes == first.prefixes and tup.length == first.length
        assert [
            [(r.word, r.sign, r.scale) for r in s.rows] for s in tup.sets
        ] == [[(r.word, r.sign, r.scale) for r in s.rows] for s in first.sets]
    keys = set(results[0][1])
    assert keys and keys <= set(alg.word_commutators)
    assert any(len(word) == 3 for word, _, _ in keys)
    for _, commutators in results:
        assert set(commutators) == keys
        for key, value in commutators.items():
            assert value is alg.word_commutators[key]
    for key, value in alg.word_commutators.items():
        word, sign = key[0], 1 if key[1] else -1
        expected = letter_fold_commutator(alg, word, sign)
        if key[2:] == ("pair",):  # the sum with the partner word's commutator
            *u, a, b = word
            expected = expected + letter_fold_commutator(alg, (*u, b, a), -sign)
        assert value == expected


def test_certificate_stream_leaves_metric_state_unchanged(engel, free23):
    """Box samples drawn through ``rng.random()`` alone, from the CLI's
    ``random.Random`` or from a numpy Generator, lie in the box exactly and
    repeat with their seed; certifying them adds nothing to the metric."""
    for alg, make_rng in itertools.product(
        (engel, free23), (random.Random, np.random.default_rng)
    ):
        metric = build_popp(alg)
        radii = global_constants(alg.dims).radii

        def shape():
            return {
                name: len(value) if hasattr(value, "__len__") else None
                for name, value in vars(metric).items()
            }

        def draw(seed):
            rng = make_rng(seed)
            return [sample_in_box(alg, metric, radii, rng) for _ in range(30)]

        before = shape()
        samples = draw(7)
        assert [z.coords() for z in draw(7)] == [z.coords() for z in samples]
        assert len({z.coords() for z in samples}) == 30
        for z in samples:
            for layer, radius in enumerate(radii, start=1):
                coords = list(z.layer(layer))
                assert all(type(c) is Fraction for c in coords)
                assert metric.layer_quadform(layer, coords) <= Fraction(radius) ** 2
            certified_dcc_upper(alg, metric, z)
        assert shape() == before


@pytest.mark.parametrize(
    "family, params",
    [
        ("heisenberg", (1,)),
        ("engel", ()),
        ("free_nilpotent", (2, 3)),
        ("free_nilpotent", (3, 3)),
        ("free_nilpotent", (2, 4)),
        ("free_nilpotent", (2, 5)),
    ],
)
def test_box_samples_fill_every_layer(family, params):
    """50 seeded samples: every layer of every sample is nonzero, however
    small its radius (below 1e-46 at step 5), each coordinate is a Fraction
    over a power of two, and each exact layer form is at most radius**2."""
    alg = builtin_family(family, params)
    metric = build_popp(alg)
    radii = global_constants(alg.dims).radii
    rng = random.Random(5)
    for _ in range(50):
        z = sample_in_box(alg, metric, radii, rng)
        for layer, radius in enumerate(radii, start=1):
            coords = z.layer(layer)
            assert any(coords)
            for c in coords:
                assert type(c) is Fraction
                assert c.denominator & (c.denominator - 1) == 0
            assert metric.layer_quadform(layer, coords) <= Fraction(radius) ** 2


def test_algebra_metric_and_certificate_are_collected():
    """No module-level memo keeps a loaded algebra alive."""
    alg = load_algebra(json.dumps(HEISENBERG_DOC))
    metric = build_popp(alg)
    tup = adjust_tuple(
        alg, metric, alg.vector([Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7)])
    )
    refs = [weakref.ref(obj) for obj in (alg, metric, tup)]
    del alg, metric, tup
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_gamma_identity_step4(rng):
    """Commutator-tail tables stay exact at step 4 (deeper than the fixtures)."""
    alg = builtin_family("free_nilpotent", (2, 4))
    for arity in (2, 3):
        table = gamma_table(arity, 4)
        for _ in range(5):
            vs = [rand_vector(alg, rng, denom=10) for _ in range(arity)]
            gap = iterated_group_commutator(alg, vs) - alg.iterated_bracket(vs)
            assert substitute(table, alg, vs) == gap


def test_beta_identity_step4(rng):
    alg = builtin_family("free_nilpotent", (2, 4))
    table = beta_table(4, 4)
    for _ in range(3):
        vs = [rand_vector(alg, rng, denom=8) for _ in range(4)]
        linear = vs[0] + vs[1] + vs[2] + vs[3]
        assert linear + substitute(table, alg, vs) == product_fold(alg, vs)


def test_big_heisenberg_box(rng):
    """d1 = 6 two-step family: certification still holds off the fixtures."""
    alg = builtin_family("heisenberg", (3,))
    metric = build_popp(alg)
    box = global_constants(alg.dims)
    assert box.radii[1] == Fraction(1, 64 * 216)
    corner = _corner_vector(alg, box.radii)
    path, bound = certified_dcc_upper(alg, metric, corner)
    assert path.endpoint == corner and bound <= 1.0


def test_mixed_scalar_product_roundtrip(heisenberg, heisenberg_metric, rng):
    """Group products of radical-valued elements stay internally consistent."""
    s = adjust_to_layer_vector(heisenberg, heisenberg_metric, [Fraction(5, 7)], 2)
    y = s.measure()[1]
    assert y == heisenberg.from_layer(2, [Fraction(5, 7)])
    z = rand_vector(heisenberg, rng)
    roundtrip = bch_product(
        heisenberg, bch_product(heisenberg, z, y), -y
    )
    assert roundtrip == z
