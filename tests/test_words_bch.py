from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcert.bch_engine import (
    GroupLaw,
    _compile_group_law,
    _compute_beta,
    _compute_gamma,
    bch_product,
    beta_table,
    gamma_table,
    group_commutator,
    max_coeff_constants,
    product_fold,
)
from carnotcert.certificates import global_constants
from carnotcert.errors import ArityOutOfRange, CapExceeded, EmptyProduct
from carnotcert.graded_algebra import builtin_family, load_algebra, resolve_algebra
from carnotcert.scalars import signed_root
from carnotcert.words import (
    is_lyndon,
    log_of_exp_product,
    lyndon_basis_poly,
    lyndon_decompose,
    lyndon_words,
    right_nested,
)
from oracle_utils import (
    basis_tuples,
    FreeSeries,
    dense_group_law,
    exp_series,
    inverse_series,
    log_series,
    lyndon_basis_series,
    matrix_bch,
    rand_fraction,
    rand_horizontal,
    rand_vector,
    series_beta_entries,
    series_gamma_entries,
    series_log_of_exp_product,
    iterated_group_commutator,
    substitute,
)


# -- word series ---------------------------------------------------------------


def test_exp_log_roundtrip():
    u = FreeSeries.letter(0, 4) + FreeSeries.letter(1, 4).scale(Fraction(1, 3))
    assert log_series(exp_series(u)) == u


def test_inverse_series():
    g = exp_series(FreeSeries.letter(0, 4))
    assert g * inverse_series(g) == FreeSeries.unit(4)


def test_log_of_exp_product_matches_series(rng):
    """The integer kernel equals log of the exp_series product, on seeded
    sequences of +-1 letter exponentials."""
    for _ in range(300):
        cap = rng.randint(1, 5)
        letters = rng.randint(1, 3)
        factors = [
            (rng.randrange(letters), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 8))
        ]
        assert log_of_exp_product(factors, cap) == series_log_of_exp_product(
            factors, cap
        ).terms, (factors, cap)


def test_lyndon_words_and_witt():
    words = lyndon_words(2, 3)
    assert words == ((0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1))
    assert all(is_lyndon(w) for w in words)
    assert not is_lyndon((1, 0))
    assert len([w for w in lyndon_words(3, 4) if len(w) == 4]) == 18


def test_lyndon_decompose_roundtrip():
    # a homogeneous Lie element decomposes and reassembles exactly
    series = lyndon_basis_series((0, 0, 1), 3).scale(Fraction(3, 7)) + (
        lyndon_basis_series((0, 1, 1), 3).scale(Fraction(-2, 5))
    )
    coeffs = lyndon_decompose(series.terms)
    assert coeffs == {(0, 0, 1): Fraction(3, 7), (0, 1, 1): Fraction(-2, 5)}


@pytest.mark.parametrize(
    "d1, k", [(2, k) for k in range(2, 7)] + [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
)
def test_structure_constants_match_series_brackets(d1, k):
    """Each bracket of two Lyndon basis vectors, reassembled from its
    structure constants as a sum of basis series, is the series commutator
    of the two basis series, truncated at the step."""
    alg = builtin_family("free_nilpotent", (d1, k))
    layers = [[w for w in lyndon_words(d1, k) if len(w) == l] for l in range(1, k + 1)]
    keys = [(l, i) for l in range(1, k + 1) for i in range(alg.dims[l - 1])]
    for n, a in enumerate(keys):
        for b in keys[n + 1:]:
            bracket = alg.bracket(alg.basis_vector(*a), alg.basis_vector(*b))
            if a[0] + b[0] > k:
                assert bracket.is_zero, (a, b)
                continue
            total = FreeSeries.zero(k)
            for (l, i), c in zip(keys, bracket.coords()):
                total = total + lyndon_basis_series(layers[l - 1][i], k).scale(c)
            left = lyndon_basis_series(layers[a[0] - 1][a[1]], k)
            right = lyndon_basis_series(layers[b[0] - 1][b[1]], k)
            assert total == left.commutator(right), (a, b)


def test_right_nested_series_degree2():
    assert right_nested((0, 1)) == {(0, 1): 1, (1, 0): -1}


# -- coefficient tables ----------------------------------------------------------


def test_beta_table_two_letters():
    t2 = beta_table(2, 2)
    assert t2.entries == {(1, 2): Fraction(1, 2)}
    t3 = beta_table(2, 3)
    assert t3.entries == {
        (1, 2): Fraction(1, 2),
        (1, 1, 2): Fraction(1, 12),
        (2, 2, 1): Fraction(1, 12),
    }


def test_tables_match_series_construction():
    """Every small table equals, entry for entry, the one built by
    multiplying Fraction series: N**k <= 1024 with N <= 32 (step 1 has no
    table words, and the series product is quadratic in N), and beta(5, 5)."""
    shapes = [(n, k) for k in range(1, 7) for n in range(1, 33) if n ** k <= 1024]
    for n, k in shapes + [(5, 5)]:
        assert _compute_beta(n, k).entries == series_beta_entries(n, k), (n, k)
    for k in range(2, 7):
        for j in range(2, k + 1):
            assert _compute_gamma(j, k).entries == series_gamma_entries(j, k), (j, k)


def test_beta_table_single_factor():
    assert beta_table(1, 5).entries == {}


def test_beta_table_cap():
    with pytest.raises(CapExceeded):
        beta_table(2, 30)


def test_gamma_table_cap():
    """5**6 = 15625 exceeds the default cap of 4096."""
    with pytest.raises(CapExceeded):
        gamma_table(5, 6)


def test_beta_table_memoized():
    assert beta_table(2, 3) is beta_table(2, 3)


def test_shared_tables_are_read_only():
    """A cached table's entries, a cached Lyndon bracketing and the box
    constants refuse writes, so a group law compiled afterwards is the one
    compiled before."""
    engel_doc = {k: v for k, v in ENGEL_INNER1_DOC.items() if k != "inner1"}
    before = _compile_group_law(load_algebra(engel_doc))
    for table in (beta_table(2, 3), gamma_table(2, 3)):
        with pytest.raises(TypeError):
            table.entries[(1, 2)] = Fraction(7)
        with pytest.raises(TypeError):
            del table.entries[next(iter(table.entries))]
        with pytest.raises(AttributeError):
            table.entries = {}
    with pytest.raises(TypeError):
        lyndon_basis_poly((0, 1))[(0, 1)] = 7
    with pytest.raises(AttributeError):
        global_constants((2, 1, 1)).radii = ()
    engel = load_algebra(engel_doc)
    after = _compile_group_law(engel)
    for name in GroupLaw.__slots__:
        assert getattr(after, name) == getattr(before, name), name
    e1, e2 = engel.basis_vector(1, 0), engel.basis_vector(1, 1)
    assert bch_product(engel, e1, e2).coords() == (
        1, 1, Fraction(1, 2), Fraction(1, 12)
    )


def test_beta_substitution_identity(engel, free23, rng):
    """Substituting concrete vectors reproduces the product fold exactly."""
    for alg in (engel, free23):
        table = beta_table(3, alg.step)
        for _ in range(10):
            vs = [rand_vector(alg, rng) for _ in range(3)]
            direct = product_fold(alg, vs)
            linear = vs[0] + vs[1] + vs[2]
            assert linear + substitute(table, alg, vs) == direct


def test_gamma_tables():
    assert gamma_table(2, 2).entries == {}
    assert gamma_table(3, 3).entries == {}
    g23 = gamma_table(2, 3)
    assert set(g23.entries) == {(1, 1, 2), (2, 1, 2)}
    assert all(len(w) == 3 for w in g23.entries)
    with pytest.raises(ArityOutOfRange):
        gamma_table(1, 3)
    with pytest.raises(ArityOutOfRange):
        gamma_table(4, 3)


def test_gamma_substitution_identity(engel, free23, rng):
    """Commutator tail table matches the group-vs-Lie commutator gap."""
    for alg in (engel, free23):
        table = gamma_table(2, alg.step)
        for _ in range(10):
            x, y = rand_vector(alg, rng), rand_vector(alg, rng)
            gap = group_commutator(alg, x, y) - alg.bracket(x, y)
            assert substitute(table, alg, [x, y]) == gap


def test_max_coeff_constants():
    assert max_coeff_constants(2, 2, 2) == (Fraction(1, 2), Fraction(1))
    # arity == step: empty commutator tail
    assert max_coeff_constants(2, 3, 3)[1] == Fraction(1)
    beta_max, gamma_weight = max_coeff_constants(2, 2, 3)
    assert beta_max > 0 and gamma_weight >= 1


# -- group law --------------------------------------------------------------------


def test_bch_product_heisenberg(heisenberg):
    x1, x2 = heisenberg.basis_vector(1, 0), heisenberg.basis_vector(1, 1)
    expected = heisenberg.vector([1, 1, Fraction(1, 2)])
    assert bch_product(heisenberg, x1, x2) == expected


def test_inverse_is_negation(engel, rng):
    for _ in range(20):
        x = rand_vector(engel, rng)
        assert bch_product(engel, x, -x).is_zero


def test_associativity_exact(heisenberg, engel, free23, rng):
    for alg in (heisenberg, engel, free23):
        for _ in range(15):
            x, y, z = (rand_vector(alg, rng) for _ in range(3))
            left = bch_product(alg, bch_product(alg, x, y), z)
            right = bch_product(alg, x, bch_product(alg, y, z))
            assert left == right


def test_matrix_oracle_agreement(heisenberg, engel, rng):
    for alg in (heisenberg, engel):
        for _ in range(25):
            x, y = rand_vector(alg, rng), rand_vector(alg, rng)
            assert bch_product(alg, x, y) == matrix_bch(alg, x, y)


def test_product_fold(heisenberg, rng):
    x = rand_vector(heisenberg, rng)
    y = rand_vector(heisenberg, rng)
    assert product_fold(heisenberg, [x, -x, y]) == y
    assert product_fold(heisenberg, [x]) == x
    x1, x2 = heisenberg.basis_vector(1, 0), heisenberg.basis_vector(1, 1)
    assert product_fold(heisenberg, [x1, x2, -x1, -x2]) == heisenberg.basis_vector(2, 0)
    with pytest.raises(EmptyProduct):
        product_fold(heisenberg, [])


def test_group_commutator(heisenberg, engel, rng):
    x1, x2 = heisenberg.basis_vector(1, 0), heisenberg.basis_vector(1, 1)
    assert group_commutator(heisenberg, x1, x2) == heisenberg.basis_vector(2, 0)
    x = rand_vector(heisenberg, rng)
    assert group_commutator(heisenberg, x, x).is_zero
    e1, e2 = engel.basis_vector(1, 0), engel.basis_vector(1, 1)
    assert iterated_group_commutator(engel, [e1, e1, e2]) == engel.basis_vector(3, 0)


def test_two_step_commutator_equals_bracket(heisenberg, h5, rng):
    for alg in (heisenberg, h5):
        for _ in range(15):
            x, y = rand_vector(alg, rng), rand_vector(alg, rng)
            assert group_commutator(alg, x, y) == alg.bracket(x, y)


def test_table_json_shape():
    doc = beta_table(2, 3).to_json_dict()
    assert doc["kind"] == "beta" and doc["N"] == 2 and doc["k"] == 3
    assert {"idx": [1, 2], "coeff": "1/2"} in doc["entries"]
    gdoc = gamma_table(2, 3).to_json_dict()
    assert gdoc["kind"] == "gamma" and gdoc["j"] == 2


ENGEL_INNER1_DOC = {
    "name": "engel-inner1",
    "dims": [2, 1, 1],
    "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]},
        {"a": [1, 1], "b": [2, 1], "out": [{"layer": 3, "idx": 1, "coeff": "1"}]},
    ],
    "inner1": [["4", "2"], ["2", "5"]],
}


def _radical_vector(alg, rng):
    """Coordinates +-q**(1/j) from signed_root (j = 2, 3), every third one
    rational, so the pair mixes radical and rational variables."""
    coords = []
    for i in range(alg.dim):
        q = rand_fraction(rng)
        if i % 3 == 2 or q == 0:
            coords.append(q)
        else:
            sign, scale = signed_root(q, 2 + i % 2)
            coords.append(scale if sign > 0 else -scale)
    return alg.vector(coords)


def _law_pairs(alg, rng):
    yield "rational", rand_vector(alg, rng), rand_vector(alg, rng)
    yield "rational", rand_vector(alg, rng), rand_vector(alg, rng)
    yield "radical", _radical_vector(alg, rng), _radical_vector(alg, rng)
    yield "radical", _radical_vector(alg, rng), rand_vector(alg, rng)
    gen = alg.basis_vector(1, alg.dims[0] - 1)
    elem = rand_vector(alg, rng, denom=1)
    yield "sparse", gen, elem
    yield "sparse", elem, -gen
    yield "sparse", rand_horizontal(alg, rng), rand_horizontal(alg, rng)
    yield "sparse", alg.zero(), rand_vector(alg, rng)
    yield "sparse", rand_vector(alg, rng), alg.zero()


@pytest.mark.parametrize(
    "token",
    [
        "heisenberg:1",
        "heisenberg:2",
        "engel",
        "free_nilpotent:2,3",
        "free_nilpotent:2,4",
        "free_nilpotent:3,3",
        "free_nilpotent:2,5",
        "inner1",
    ],
)
def test_compiled_law_matches_table_substitution(token, rng):
    """The compiled group law equals x + y + beta_table(2, k) substituted
    with x and y, exactly."""
    if token == "inner1":
        alg = load_algebra(ENGEL_INNER1_DOC)
    else:
        alg = resolve_algebra(token)
    table = beta_table(2, alg.step)
    for kind, x, y in _law_pairs(alg, rng):
        expected = x + y + substitute(table, alg, [x, y])
        got = bch_product(alg, x, y)
        assert got == expected, (kind, x, y)


FRACTIONAL_DOC = {
    "name": "engel-fractional",
    "dims": [2, 1, 1],
    "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "3/2"}]},
        {"a": [1, 1], "b": [2, 1], "out": [{"layer": 3, "idx": 1, "coeff": "5/3"}]},
    ],
}


@pytest.mark.parametrize(
    "token",
    [
        "heisenberg:1",
        "heisenberg:3",
        "engel",
        "free_nilpotent:2,4",
        "free_nilpotent:3,3",
        "free_nilpotent:2,5",
        "fractional",
    ],
)
def test_compiled_law_matches_dense_brackets(token):
    """The law compiled from the structure constants equals, field for
    field, the compile that forms every basis bracket as a dense GVec."""
    if token == "fractional":
        alg = load_algebra(FRACTIONAL_DOC)
    else:
        alg = resolve_algebra(token)
    law, oracle = _compile_group_law(alg), dense_group_law(alg)
    for field in GroupLaw.__slots__:
        assert getattr(law, field) == getattr(oracle, field), field


@pytest.mark.parametrize(
    "token",
    ["heisenberg:2", "engel", "free_nilpotent:2,4", "free_nilpotent:3,3", "free_nilpotent:2,5"],
)
def test_compiled_law_grows_only_nonzero_brackets(token, monkeypatch):
    """The compile brackets a basis letter only onto a nonzero bracket,
    within the layer budget k, and so, above step 2, forms fewer brackets
    than there are basis tuples of length >= 2 and total layer <= k; its
    law equals, field for field, the exhaustive compile over every such
    tuple."""
    alg = resolve_algebra(token)
    k, layer_of = alg.step, alg.layer_of
    real, calls = alg.bracket_items, []

    def counting(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(alg, "bracket_items", counting)
    law = _compile_group_law(alg)
    monkeypatch.undo()
    for x, y in calls:
        assert any(y.values())
        assert sum(layer_of[a] for a in (*x, next(iter(y)))) <= k
    exhaustive = sum(
        1 for p in range(2, k + 1) for _ in basis_tuples(layer_of, p, k)
    )
    assert 0 < len(calls) <= exhaustive
    if k > 2:  # a vanishing bracket, such as [e_a, e_a], grows no further
        assert len(calls) < exhaustive
    oracle = dense_group_law(alg)
    for field in GroupLaw.__slots__:
        assert getattr(law, field) == getattr(oracle, field), field


FOLD_ALGEBRAS = ("heisenberg:2", "engel", "free_nilpotent:2,4")
rational = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_fold_equals_pairwise_products(data):
    """A fold of 2-5 rational factors in graded integers equals the
    pairwise bch_product fold."""
    alg = resolve_algebra(data.draw(st.sampled_from(FOLD_ALGEBRAS)))
    vectors = st.lists(rational, min_size=alg.dim, max_size=alg.dim).map(alg.vector)
    factors = data.draw(st.lists(vectors, min_size=2, max_size=5))
    pairwise = factors[0]
    for f in factors[1:]:
        pairwise = bch_product(alg, pairwise, f)
    assert product_fold(alg, factors) == pairwise


@pytest.mark.parametrize("token", ["engel", "free_nilpotent:2,4"])
def test_radical_fold_matches_table_substitution(token, rng):
    """A fold holding a RadExpr coordinate equals the sum of its N factors
    plus beta_table(N, k) substituted with them."""
    alg = resolve_algebra(token)
    for n in (2, 3, 4):
        factors = [_radical_vector(alg, rng)]
        factors += [rand_vector(alg, rng) for _ in range(n - 1)]
        rng.shuffle(factors)
        table = beta_table(n, alg.step)
        expected = sum(factors[1:], factors[0]) + substitute(table, alg, factors)
        assert product_fold(alg, factors) == expected
