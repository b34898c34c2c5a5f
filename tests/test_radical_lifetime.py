"""A radical lives exactly as long as some expression uses it.

The intern table maps each (degree, radicand) to its live radical weakly,
so a stream of certificates holds only the radicals of the certificate in
hand, while two equal radicands share one symbol as long as either is in
use.  Radicals are recorded as their constructor makes them
(``created_radicals``), by uid only, so the record keeps none alive.
"""

import gc
import random
import sys
import threading
from fractions import Fraction

import numpy as np

from carnotcert import scalars
from carnotcert.adjustment import certified_dcc_upper
from carnotcert.bch_engine import product_fold
from carnotcert.certificates import global_constants
from carnotcert.cli_reports import sample_in_box
from carnotcert.graded_algebra import resolve_algebra
from carnotcert.popp_metric import build_popp
from carnotcert.scalars import signed_root
from oracle_utils import created_radicals


def _live_uids() -> set:
    """Uids of the radicals the intern table holds, each alive."""
    rads = [ref() for ref in list(scalars._interned.values())]
    assert None not in rads, "the table holds a dead radical"
    return {rad.uid for rad in rads}


def _uid(radical) -> int:
    """The uid of a radical monomial r."""
    (((uid, _),),) = radical.nums
    return uid


def test_box_stream_holds_one_certificate_of_radicals(engel, engel_metric):
    """2,000 engel box samples, each certified and dropped before the next:
    besides the radicals live before the run, the table holds only those
    the certificate in hand created, and none of the run's once the last
    path is dropped and collected."""
    radii = global_constants(engel.dims).radii
    rng = np.random.default_rng(3701)
    before = _live_uids()
    with created_radicals(keep=False) as created:
        for _ in range(2000):
            first = len(created)
            vec = sample_in_box(engel, engel_metric, radii, rng)
            path, _ = certified_dcc_upper(engel, engel_metric, vec)
            assert _live_uids() - before <= set(created[first:])
            del path
    gc.collect()
    assert len(created) >= 1000
    assert _live_uids().isdisjoint(created)


def test_equal_radicands_share_one_symbol_while_alive():
    """Two roots of one radicand, the first still alive, are one symbol, so
    their difference is exactly zero; once both are gone, the next root of
    it is a new symbol with a larger uid.  (No other test keeps a root of
    this radicand alive.)"""
    radicand = Fraction(2, 3701)
    _, first = signed_root(radicand, 2)
    _, second = signed_root(radicand, 2)
    assert (first - second).is_zero
    assert _uid(first) == _uid(second)
    old = _uid(first)
    del first, second
    gc.collect()
    _, third = signed_root(radicand, 2)
    assert _uid(third) > old
    assert (third * third) == radicand


def test_threads_certify_and_drop_paths_at_once():
    """Four threads certify and drop free_nilpotent(2,4) paths at the same
    time, with a short switch interval and collections in between, so
    radicals die while others are interned: every certificate's exact
    endpoint check passes, the segments of some fold exactly to their
    targets, and no thread hangs."""
    alg = resolve_algebra("free_nilpotent:2,4")
    metric = build_popp(alg)
    errors: list = []

    def work(seed: int) -> None:
        try:
            rng = random.Random(seed)
            for i in range(12):
                z = alg.vector(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(alg.dim)]
                )
                tup, bound = certified_dcc_upper(alg, metric, z)
                assert tup.endpoint == z and bound == tup.length > 0
                if i % 4 == 0:
                    assert product_fold(alg, tup.segments) == z
                del tup
                if i % 3 == 0:
                    gc.collect()
        except BaseException as exc:  # re-raised in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(3702 + t,), daemon=True)
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a thread hung"
    assert not errors, errors
