"""The integer kernels against plain Fraction and ring evaluation.

Rational products, quadratic forms, the ball order, the whole systole
search and the rank, determinant and inverse of a matrix are evaluated in
integers over common denominators (the ball keeps one per layer); each must
give exactly what the direct definition gives: the matrix functions as
Gauss-Jordan over Fractions, the group law as x + y + beta_table(2, k)
substituted with x and y, the quadratic form as a double loop over the
Gram matrix, the ball order as a sort by Fraction tie keys, the systole
report as the search by ``bch_product`` on vectors.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carnotcert import adjustment, bch_engine, lattice_systole
from carnotcert.bch_engine import (
    _ring_product,
    bch_product,
    beta_table,
    bind_right,
    group_law,
    integer_product,
    layer_powers,
)
from carnotcert.graded_algebra import GVec, resolve_algebra
from carnotcert.lattice_systole import (
    Lattice,
    integer_ball,
    load_lattice,
    systole_upper_bound,
)
from carnotcert.popp_metric import build_popp
from carnotcert.ratlinalg import clear_denominators, mat_det, mat_inv, mat_rank
from carnotcert.scalars import signed_root
from oracle_utils import (
    ball_oracle,
    ball_vectors,
    det_oracle,
    dilate_vector,
    fraction_tie_key,
    inv_oracle,
    quadform_oracle,
    rank_oracle,
    signature_terms,
    substitute,
    systole_oracle,
)

SPECS = [
    "heisenberg:1",
    "heisenberg:2",
    "engel",
    "free_nilpotent:2,3",
    "free_nilpotent:2,4",
    "free_nilpotent:3,3",
]

# zero, integer and large-denominator coordinates
COORDS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 15)),
)


@st.composite
def rational_matrices(draw):
    """Matrices of 0 to 6 rows and columns of COORDS entries, square half
    the time; half of them are the product of an r x k and a k x c factor,
    k < min(r, c), so rank-deficient (and singular when square)."""
    rows = draw(st.integers(0, 6))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 6))
    if min(rows, cols) and draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols) - 1))
        left = [[draw(COORDS) for _ in range(k)] for _ in range(rows)]
        right = [[draw(COORDS) for _ in range(cols)] for _ in range(k)]
        return tuple(
            tuple(
                sum((x * r[j] for x, r in zip(row, right)), Fraction(0))
                for j in range(cols)
            )
            for row in left
        )
    return tuple(tuple(draw(COORDS) for _ in range(cols)) for _ in range(rows))


@lru_cache(maxsize=None)
def _setup(spec):
    alg = resolve_algebra(spec)
    return alg, build_popp(alg)


def _vector(data, alg):
    return alg.vector(data.draw(st.lists(COORDS, min_size=alg.dim, max_size=alg.dim)))


def _root2():
    return signed_root(Fraction(2), 2)[1]


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rational_product_matches_table_substitution(spec, data):
    alg, _ = _setup(spec)
    x, y = _vector(data, alg), _vector(data, alg)
    got = bch_product(alg, x, y)
    assert all(type(c) is Fraction for c in got.coords())
    assert got == x + y + substitute(beta_table(2, alg.step), alg, [x, y])


def _sparse(data, alg, shape):
    """A vector of the given shape: 'horizontal' keeps layer 1 only, with
    some of its coordinates zero; 'zero layer' zeroes one drawn layer;
    'zero' is the zero vector."""
    if shape == "zero":
        return alg.zero()
    coords = data.draw(st.lists(COORDS, min_size=alg.dim, max_size=alg.dim))
    if shape == "horizontal":
        live = data.draw(st.lists(st.booleans(), min_size=alg.dims[0], max_size=alg.dims[0]))
        coords = [c if f else 0 for c, f in zip(coords, live)]
        coords += [0] * (alg.dim - alg.dims[0])
    else:
        layer = data.draw(st.integers(1, alg.step))
        coords = [
            0 if l == layer else c for c, l in zip(coords, alg.layer_of)
        ]
    return alg.vector(coords)


SHAPES = ["horizontal", "zero layer", "zero"]


def _operand(data, alg):
    """A full vector or one of the sparse shapes of a ball step."""
    if data.draw(st.booleans()):
        return _vector(data, alg)
    return _sparse(data, alg, data.draw(st.sampled_from(SHAPES)))


@pytest.mark.parametrize("spec", SPECS + ["free_nilpotent:2,5"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_integer_core_matches_bch_product(spec, data):
    """The integer core on graded numerators x_o C^(l-1) D^l, for any
    multiple D of the least common denominator, read back over
    C^(l-1) D^l, is the product bch_product gives and the table gives;
    D and 7 D give the same product.  Either operand may be a horizontal
    step, have a zero layer or be zero."""
    alg, _ = _setup(spec)
    law = group_law(alg)
    assert all(type(a) is int for terms in law.graded for a, _ in terms)
    x, y = _operand(data, alg), _operand(data, alg)
    values = x.coords() + y.coords()
    lcd, _ = clear_denominators(values)
    den = lcd * data.draw(st.integers(1, 12))
    layers = [l for l, d in enumerate(alg.dims, start=1) for _ in range(d)]

    def product(den):
        scales = [law.scale ** (l - 1) * den ** l for l in layers]
        graded = [c * s for c, s in zip(values, scales + scales)]
        assert all(g.denominator == 1 for g in graded)
        nums = integer_product(law, [g.numerator for g in graded])
        assert all(type(m) is int for m in nums)
        return alg.vector([Fraction(m, s) for m, s in zip(nums, scales)])

    got = product(den)
    assert got == bch_product(alg, x, y)
    assert got == x + y + substitute(beta_table(2, alg.step), alg, [x, y])
    assert product(7 * den) == got


def _graded(alg, law, vectors):
    """The graded numerators x_o C^(l-1) D^l of the vectors' flat
    coordinates, D their least common denominator."""
    den, nums = clear_denominators(c for v in vectors for c in v.coords())
    up = layer_powers(alg, law.scale * den) * len(vectors)
    return [m * u for m, u in zip(nums, up)]


@pytest.mark.parametrize("spec", SPECS + ["free_nilpotent:2,5"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bound_law_is_the_law(spec, data):
    """The law bound to its right factor y gives, on x + y, the product the
    law gives, for x and y each full, horizontal, with a zero layer or
    zero; it has no more prefixes than the law."""
    alg, _ = _setup(spec)
    law = group_law(alg)
    x, y = _operand(data, alg), _operand(data, alg)
    nums = _graded(alg, law, [x, y])
    bound = bind_right(law, nums[alg.dim:])
    assert integer_product(bound, nums) == integer_product(law, nums)
    assert len(bound.prefixes) <= len(law.prefixes)


def test_bound_law_never_runs_in_the_ring():
    """A bound law is for the integer evaluator alone: the ring path fails
    on it instead of returning a wrong product."""
    alg, _ = _setup("engel")
    law = group_law(alg)
    x, y = alg.vector([1, 2, 3, 4]), alg.vector([1, 0, 0, 0])
    bound = bind_right(law, _graded(alg, law, [y]))
    with pytest.raises(TypeError):
        _ring_product(bound, x.coords() + y.coords(), layer_powers(alg, law.scale))


@pytest.mark.parametrize("spec", SPECS + ["free_nilpotent:2,5"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mixed_operands_match_ring_evaluation(spec, data):
    """The ring path, run on rational operands, gives as Fractions the
    product the integer path gives; RadExpr coordinates take the ring path,
    and it gives the value the table substitution gives.  The ring path
    reads C^(m-1) for a slot of m factors from the law."""
    alg, _ = _setup(spec)
    law = group_law(alg)
    factors = [1] * (2 * alg.dim)
    for prefix, _ in law.prefixes:
        factors.append(factors[prefix] + 1)
    assert law.powers == tuple(law.scale ** (m - 1) for m in factors)
    x, y = _vector(data, alg), _vector(data, alg)
    flags = data.draw(st.lists(st.booleans(), min_size=alg.dim, max_size=alg.dim))
    lcds = layer_powers(alg, law.scale)
    for a, b in ((x, y), (y, x)):
        ring = _ring_product(law, a.coords() + b.coords(), lcds)
        assert all(type(c) is Fraction for c in ring)
        assert alg.vector(ring) == bch_product(alg, a, b)
    r = _root2()
    radical = alg.vector(
        [c * r if f else c for c, f in zip(x.coords(), flags)]
    )
    table = beta_table(2, alg.step)
    expected = radical + y + substitute(table, alg, [radical, y])
    assert bch_product(alg, radical, y) == expected


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_quadform_matches_double_loop(spec, data):
    alg, metric = _setup(spec)
    for layer, d in enumerate(alg.dims, start=1):
        coords = data.draw(st.lists(COORDS, min_size=d, max_size=d))
        expected = quadform_oracle(metric.grams[layer], coords)
        got = metric.layer_quadform(layer, coords)
        assert type(got) is Fraction and got == expected
        radical = [c * _root2() for c in coords]
        assert metric.layer_quadform(layer, radical) == expected * 2


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_layer_norms_over_one_denominator_match_layer_norm(spec, data):
    """Many rows of integer numerators, each layer over one denominator of
    its own, give, bit for bit, the signature terms of each rational row
    with every layer measured on its own by layer_norm, whatever multiple
    of the rows' least common denominator in that layer each denominator
    is; gram_forms gives each row's exact form, as a list."""
    alg, metric = _setup(spec)
    vectors = data.draw(st.lists(st.builds(alg.vector, st.lists(
        COORDS, min_size=alg.dim, max_size=alg.dim
    )), max_size=6))
    dens = [
        clear_denominators(c for v in vectors for c in v.layer(layer))[0]
        * data.draw(st.integers(1, 10 ** 6))
        for layer in range(1, alg.step + 1)
    ]
    coord_dens = [dens[l - 1] for l in alg.layer_of]
    ints = [
        [int(c * d) for c, d in zip(v.coords(), coord_dens)] for v in vectors
    ]
    expected = [signature_terms(metric, v) for v in vectors]
    assert adjustment.signature_lower_bounds(metric, dens, ints) == expected
    for layer in range(1, alg.step + 1):
        scaled = [clear_denominators(v.layer(layer)) for v in vectors]
        forms = metric.gram_forms(layer, [nums for _, nums in scaled])
        assert type(forms) is list
        g_den = metric.gram_denominator(layer)
        assert [Fraction(f, g_den * d * d) for f, (d, _) in zip(forms, scaled)] == [
            quadform_oracle(metric.grams[layer], v.layer(layer)) for v in vectors
        ]


def _dilated_engel(t):
    alg, _ = _setup("engel")
    basis = [
        dilate_vector(alg, t, alg.basis_vector(layer, i))
        for layer, dim in enumerate(alg.dims, start=1)
        for i in range(dim)
    ]
    return Lattice(alg, basis[:2], basis, name=f"engel-dilated-{t}")


def _matrix(*rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(a=rational_matrices())
@example(a=())
@example(a=_matrix(("1/2", -3, 0, "5/7")))
@example(a=_matrix(("1/3", "2/5"), ("2/3", "4/5")))
@example(a=_matrix((0, 1, 2), (0, 2, 4), (1, 0, "1/9")))
def test_fraction_free_elimination_matches_fraction_gauss_jordan(a):
    """Rank, determinant and inverse by one fraction-free elimination in
    integers equal those of Gauss-Jordan over Fractions, as Fractions, on
    empty, one-row, rank-deficient and singular matrices.  A non-square
    determinant raises ValueError and a singular inverse ZeroDivisionError."""
    assert mat_rank(a) == rank_oracle(a)
    if any(len(row) != len(a) for row in a):
        with pytest.raises(ValueError):
            mat_det(a)
        return
    det = mat_det(a)
    assert type(det) is Fraction and det == det_oracle(a)
    if not det:
        with pytest.raises(ZeroDivisionError):
            mat_inv(a)
        with pytest.raises(ZeroDivisionError):
            inv_oracle(a)
        return
    inv = mat_inv(a)
    assert inv == inv_oracle(a)
    assert all(type(x) is Fraction for row in inv for x in row)


@pytest.mark.parametrize("t", [Fraction(7, 5), Fraction(3, 11), Fraction(12)])
def test_ball_order_matches_fraction_tie_key(t):
    lattice = _dilated_engel(t)
    ball = ball_vectors(lattice, 4)
    assert len(ball) == 152
    expected = sorted(
        ball, key=lambda item: (len(item[1].split(".")), fraction_tie_key(item[0]))
    )
    assert [w for _, w in ball] == [w for _, w in expected]
    # the minimizer is the least certified row by (upper, Fraction tie key)
    data = systole_upper_bound(lattice, _setup("engel")[1], 4)
    certified = [
        (row["upper"], fraction_tie_key(vec), row["word"])
        for row, (vec, _) in zip(data["rows"], ball)
        if not row["pruned"]
    ]
    assert min(certified)[2] == data["minimizer_word"]


@settings(max_examples=12, deadline=None)
@given(p=st.integers(1, 40), q=st.integers(1, 40))
def test_integer_engel_search_matches_vector_search_at_any_dilation(p, q):
    """At radius 3, on the integer Engel lattice dilated by t = p/q, the
    integer search (integer tie keys, word bounds along the BFS tree, each
    numerator formatted once) gives the report of the search by
    bch_product on vectors."""
    lattice = _dilated_engel(Fraction(p, q))
    metric = _setup("engel")[1]
    assert systole_upper_bound(lattice, metric, 3) == systole_oracle(
        lattice, metric, 3
    )


def test_rational_radexpr_equals_its_fraction():
    """RadExpr arithmetic of rational value gives a Fraction, so a vector
    of such coordinates equals its rational copy, and so do its products;
    an irrational coordinate equals no rational one."""
    alg, _ = _setup("engel")
    r = _root2()
    half, zero = (r + Fraction(1, 2)) - r, r - r
    assert type(half) is type(zero) is Fraction
    u = alg.vector([Fraction(1, 2), 0, 0, 0])
    v = GVec(alg, [half, zero, Fraction(0), Fraction(0)])
    assert u == v
    assert bch_product(alg, v, v) == bch_product(alg, u, u) == u.scale(2)
    irrational = alg.vector([r, 0, 0, 0])
    assert irrational != u


def _engel_doc(generators, basis):
    return {"algebra": "engel", "generators": generators, "malcev_basis": basis}


def _dilated_doc(algebra, dims, t):
    """Unit generators of layer 1 and the unit basis, dilated by t."""
    basis = []
    for layer, dim in enumerate(dims, start=1):
        for i in range(dim):
            row = ["0"] * sum(dims)
            row[sum(dims[: layer - 1]) + i] = str(Fraction(t) ** layer)
            basis.append(row)
    return {"algebra": algebra, "generators": basis[: dims[0]], "malcev_basis": basis}


# (name, lattice document, word radius): radius 3 from dimension 8 on
ORACLE_LATTICES = [
    (f"engel-{t}", _dilated_doc("engel", (2, 1, 1), t), 4)
    for t in ("1", "7/5", "3/11", "12/7", "1/12")
] + [
    ("heisenberg-integer", _dilated_doc("heisenberg:1", (2, 1), 1), 4),
    (
        "heisenberg-skewed",
        {
            "algebra": "heisenberg:1",
            "generators": [["1/2", "0", "1/3"], ["1/3", "3/4", "0"]],
            "malcev_basis": [
                ["1/2", "0", "1/3"], ["1/3", "3/4", "0"], ["0", "0", "3/8"]
            ],
        },
        4,
    ),
    ("heisenberg-2", _dilated_doc("heisenberg:2", (4, 1), 1), 4),
    (
        "engel-e4/3",
        _engel_doc(
            [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1/3"]],
            [
                ["1", "0", "0", "0"], ["0", "1", "0", "0"],
                ["0", "0", "1", "0"], ["0", "0", "0", "1/3"],
            ],
        ),
        4,
    ),
    (
        "engel-skewed",
        _engel_doc(
            [["1/2", "1/3", "0", "0"], ["0", "2/5", "1/7", "0"]],
            [
                ["1/2", "1/3", "0", "0"], ["0", "2/5", "1/7", "0"],
                ["0", "0", "1/5", "1/3"], ["0", "0", "0", "1/30"],
            ],
        ),
        4,
    ),
    ("free_nilpotent-2-3", _dilated_doc("free_nilpotent:2,3", (2, 1, 2), 1), 4),
    ("free_nilpotent-2-4", _dilated_doc("free_nilpotent:2,4", (2, 1, 2, 3), 1), 3),
    (
        # non-horizontal generator parts with mixed denominators in every layer
        "free_nilpotent-2-4-skewed",
        {
            "algebra": "free_nilpotent:2,4",
            "generators": [
                ["3/2", "1/3", "1/5", "0", "0", "1/7", "0", "1/2"],
                ["0", "2/3", "0", "1/4", "0", "0", "1/9", "0"],
            ],
            "malcev_basis": [
                ["3/2", "1/3", "1/5", "0", "0", "1/7", "0", "1/2"],
                ["0", "2/3", "0", "1/4", "0", "0", "1/9", "0"],
                ["0", "0", "1/2", "1/5", "0", "0", "1/3", "0"],
                ["0", "0", "0", "1/3", "1/4", "0", "0", "1/6"],
                ["0", "0", "0", "0", "1/5", "0", "0", "0"],
                ["0", "0", "0", "0", "0", "1/2", "0", "0"],
                ["0", "0", "0", "0", "0", "0", "1/3", "0"],
                ["0", "0", "0", "0", "0", "0", "0", "1/4"],
            ],
        },
        3,
    ),
    ("free_nilpotent-3-3", _dilated_doc("free_nilpotent:3,3", (3, 3, 8), 1), 3),
    (
        "free_nilpotent-2-5",
        _dilated_doc("free_nilpotent:2,5", (2, 1, 2, 3, 6), 1),
        3,
    ),
]


@pytest.mark.parametrize(
    "doc,radius",
    [pytest.param(doc, radius, id=name) for name, doc, radius in ORACLE_LATTICES]
    + [
        pytest.param(doc, radius, id=f"{name}-radius-{radius}")
        for name, doc, _ in ORACLE_LATTICES
        for radius in (1, 2)
    ],
)
def test_integer_search_matches_vector_search(doc, radius):
    """The integer ball and search give, value for value, the ball and
    report of the search by bch_product on vectors, at each lattice's own
    radius and at radii 1 and 2, whose first products, identity times a
    step, run the step's bound law too."""
    lattice = load_lattice(doc)
    metric = build_popp(lattice.algebra)
    assert ball_vectors(lattice, radius) == ball_oracle(lattice, radius)
    assert systole_upper_bound(lattice, metric, radius) == systole_oracle(
        lattice, metric, radius
    )


def test_integer_engel_ball_takes_160_products(monkeypatch):
    """Radius 4 on the integer Engel lattice: 152 elements from 160 integer
    products, none stepping back to a parent, and no bch_product call
    outside the certificates."""
    lattice = load_lattice(ORACLE_LATTICES[0][1])
    metric = build_popp(lattice.algebra)
    calls = {"core": 0, "bch": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(
        lattice_systole, "integer_product", counting("core", integer_product)
    )
    monkeypatch.setattr(bch_engine, "bch_product", counting("bch", bch_product))
    monkeypatch.setattr(adjustment, "bch_product", counting("bch", bch_product))
    _, elements, _, _ = integer_ball(lattice, 4)
    assert (len(elements), calls) == (152, {"core": 160, "bch": 0})
    calls["core"] = 0
    systole_upper_bound(lattice, metric, 4)
    assert calls["core"] == 160


@pytest.mark.parametrize("name", ["engel-1", "engel-7/5", "heisenberg-skewed"])
def test_ball_keeps_each_layer_over_its_own_denominator(name):
    """The ball's layer l is over C^(l-1) D^l, C the law's scale and D the
    generators' common denominator, and is not lifted to C^(k-1) D^k: some
    layer-l numerator is no multiple of (C D)^(k-l), as every lifted one
    would be."""
    lattice = load_lattice(dict((case[0], case[1]) for case in ORACLE_LATTICES)[name])
    alg = lattice.algebra
    scale, k = group_law(alg).scale, alg.step
    den, _ = clear_denominators(c for g in lattice.generator_logs for c in g.coords())
    dens, elements, _, _ = integer_ball(lattice, 3)
    assert dens == [scale ** (l - 1) * den ** l for l in range(1, k + 1)]
    for l in range(1, k):
        lift = (scale * den) ** (k - l)
        lo, hi = alg.offsets[l - 1], alg.offsets[l]
        assert any(m % lift for e in elements for m in e[lo:hi])


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_ball_binds_each_step_once_before_its_first_product(radius, monkeypatch):
    """At every radius the law is bound to each of the integer Engel
    lattice's four steps, g1, g1^-1, g2 and g2^-1, exactly once, all four
    before the first product, and every product runs one of those four
    bound laws."""
    lattice = load_lattice(ORACLE_LATTICES[0][1])
    events = []  # ("bind", step, bound law) or ("product", law)

    def binding(law, y):
        bound = bind_right(law, y)
        events.append(("bind", y, bound))
        return bound

    def product(law, xy):
        events.append(("product", law))
        return integer_product(law, xy)

    monkeypatch.setattr(lattice_systole, "bind_right", binding)
    monkeypatch.setattr(lattice_systole, "integer_product", product)
    _, _, _, generators = integer_ball(lattice, radius)
    binds, products = events[:4], events[4:]
    assert [event[1] for event in binds if event[0] == "bind"] == [
        nums
        for token in ("g1", "g2")
        for nums in (generators[token], tuple(-m for m in generators[token]))
    ]
    laws = [bound for _, _, bound in binds]
    assert products and all(
        kind == "product" and any(law is bound for bound in laws)
        for kind, law in products
    )
    assert ball_vectors(lattice, radius) == ball_oracle(lattice, radius)
