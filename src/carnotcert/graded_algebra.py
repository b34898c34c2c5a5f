"""Stratified nilpotent Lie algebras given by rational structure constants.

A ``GradedAlgebra`` stores the layer dimensions (d_1, ..., d_k) and its
structure constants once, as a sparse table over flat coordinates: basis
vector o is coordinate o, layer 1 first, and the table maps a pair (a, b) to
[e_a, e_b] as {o: coefficient}, in both orders.  :meth:`GradedAlgebra.bracket_items`
is the one bracket kernel that reads it.  Every loaded algebra is checked for
antisymmetry, grading closure, the Jacobi identity (all exact) and the
bracket-generating property, checked as [V_1, V_(j-1)] = V_j for each layer
j >= 2.  ``GVec`` is an element in graded coordinates, stored as one flat
tuple in basis order; the algebra owns the layout (``offsets``,
``layer_of``), computed once.  A (layer, index) pair is converted to a flat
coordinate, and range-checked, only where a document or a ``basis_vector``
call names one.  Via exponential coordinates of the first kind the same
object doubles as a group element.

Coordinates are exact scalars: a Fraction for every rational value, a
RadExpr exactly when the value is irrational; a float argument is read as
its exact binary fraction.  The structure
constants are rationals.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from fractions import Fraction
from functools import lru_cache

from .errors import (
    AlgebraMismatch,
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
from .ratlinalg import mat_inv, mat_rank
from .scalars import fraction_nthroot, to_exact
from .words import commutator, lyndon_basis_poly, lyndon_decompose, lyndon_words

DEFAULT_WORK_CAP = 4096


def resource_cap() -> int:
    """The free-algebra work cap: ``CARNOT_CERT_CAP`` if set, else 4096.

    Read afresh by each check that enforces it, so a changed environment is
    honoured.  A value that is not a positive integer is refused.
    """
    raw = os.environ.get("CARNOT_CERT_CAP")
    if not raw:
        return DEFAULT_WORK_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParseError(
            f"CARNOT_CERT_CAP must be a positive integer, got {raw!r}"
        )
    return cap


def _flat_index(offsets: tuple, layer: int, idx: int) -> int:
    """Flat coordinate of basis vector ``idx`` (0-based) of ``layer``
    (1-based) in the layout cut at ``offsets``; ParseError, naming the pair
    1-based, when the layout has no such vector."""
    if 1 <= layer < len(offsets) and 0 <= idx < offsets[layer] - offsets[layer - 1]:
        return offsets[layer - 1] + idx
    dims = [hi - lo for lo, hi in zip(offsets, offsets[1:])]
    raise ParseError(f"dims {dims} have no basis vector {idx + 1} in layer {layer}")


class GVec:
    """Element of a graded algebra in graded coordinates: one flat tuple,
    layer 1 first, cut into layers at ``algebra.offsets``.  Immutable."""

    __slots__ = ("algebra", "_coords")

    def __init__(self, algebra: "GradedAlgebra", coords):
        self.algebra = algebra
        self._coords = tuple(coords)

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "GVec") -> "GVec":
        """self + other; a coordinate is kept as it is where the other
        operand's is an exact zero, not added to."""
        self._check_mate(other)
        return GVec(self.algebra, (
            (a + b if b else a) if a else b
            for a, b in zip(self._coords, other._coords)
        ))

    def __sub__(self, other: "GVec") -> "GVec":
        return self + (-other)

    def __neg__(self) -> "GVec":
        return GVec(self.algebra, (-a for a in self._coords))

    def scale(self, c) -> "GVec":
        """c * self; exact zero coordinates are kept as they are, not
        multiplied."""
        c = to_exact(c)
        return GVec(
            self.algebra,
            (c * a if a else a for a in self._coords),
        )

    def __eq__(self, other):
        if not isinstance(other, GVec):
            return NotImplemented
        return self.algebra is other.algebra and self._coords == other._coords

    # -- structure queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self._coords)

    def layer(self, l: int) -> tuple:
        if not 1 <= l <= self.algebra.step:
            raise LayerOutOfRange(f"layer {l} outside 1..{self.algebra.step}")
        offsets = self.algebra.offsets
        return self._coords[offsets[l - 1] : offsets[l]]

    def coords(self) -> tuple:
        return self._coords

    def _check_mate(self, other: "GVec") -> None:
        if self.algebra is not other.algebra:
            raise AlgebraMismatch(
                f"vectors from {self.algebra.name!r} and {other.algebra.name!r}"
            )

    def __repr__(self):
        return f"GVec({self.algebra.name}, {self._coords})"


class GradedAlgebra:
    """Stratified nilpotent Lie algebra with rational structure constants."""

    def __init__(self, name: str, dims, bracket_entries):
        """bracket_entries: {(a, b): {o: coefficient}} over 0-based flat
        coordinates, [e_a, e_b] = sum of coefficient * e_o, coefficients
        rational; the antisymmetric closure is implied.
        """
        self.name = name
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ParseError(f"layer dimensions must be positive: {self.dims}")
        self.step = len(self.dims)
        self.dim = sum(self.dims)
        # flat coordinates: layer l is offsets[l - 1]:offsets[l], and
        # coordinate o lies in layer layer_of[o]
        self.offsets = (0, *itertools.accumulate(self.dims))
        self.layer_of = tuple(
            l for l, d in enumerate(self.dims, start=1) for _ in range(d)
        )
        self._table: dict = {}
        # (word, sign > 0) -> iterated group commutator of the signed
        # layer-1 letters, and (word, sign > 0, "pair") -> the sum of a pair
        # word's two commutators; filled lazily by the adjustment module.
        self.word_commutators: dict = {}
        # compiled two-factor group law; built lazily by the bch_engine module.
        self.group_law = None
        self._fill_table(bracket_entries)
        # the least layer c such that layers >= c span an abelian subalgebra:
        # 1 + the largest min(layer a, layer b) over nonzero [e_a, e_b]
        self.commuting_layer = 1 + max(
            (
                min(self.layer_of[a], self.layer_of[b])
                for (a, b), out in self._table.items()
                if out
            ),
            default=0,
        )
        self._validate_grading()
        self._validate_jacobi()
        self._validate_generating()

    # -- construction ----------------------------------------------------------

    def _fill_table(self, entries) -> None:
        for (a, b), out in entries.items():
            if not all(0 <= o < self.dim for o in (a, b, *out)):
                raise ParseError(
                    f"bracket entry {(a, b)}: {sorted(out)} names a coordinate"
                    f" outside 0..{self.dim - 1}"
                )
            if a == b and any(out.values()):
                raise AntisymmetryViolation(f"[X{a + 1},X{a + 1}] must vanish")
            clean = {o: Fraction(c) for o, c in out.items() if c}
            existing = self._table.get((a, b))
            if existing is not None and existing != clean:
                raise AntisymmetryViolation(
                    f"conflicting entries for [X{a + 1},X{b + 1}]"
                )
            self._table[(a, b)] = clean
            opposite = {o: -c for o, c in clean.items()}
            prior = self._table.get((b, a))
            if prior is not None and prior != opposite:
                raise AntisymmetryViolation(
                    f"[X{a + 1},X{b + 1}] and [X{b + 1},X{a + 1}] are not opposite"
                )
            self._table[(b, a)] = opposite

    def _validate_grading(self) -> None:
        layer_of = self.layer_of
        for (a, b), out in self._table.items():
            target = layer_of[a] + layer_of[b]
            for o in out:
                if layer_of[o] != target:
                    raise GradingViolation(
                        f"[X{a + 1},X{b + 1}] has a component in layer"
                        f" {layer_of[o]}, expected {target}"
                    )

    def _validate_jacobi(self) -> None:
        layer_of, bracket, n = self.layer_of, self.bracket_items, self.dim
        for x in range(n):
            for y in range(x + 1, n):
                for z in range(y + 1, n):
                    if layer_of[x] + layer_of[y] + layer_of[z] > self.step:
                        break  # the basis is in layer order: every later z is too deep
                    total: dict = {}
                    for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                        for o, c in bracket({p: 1}, bracket({q: 1}, {r: 1})).items():
                            total[o] = total.get(o, 0) + c
                    if any(total.values()):
                        raise JacobiViolation(
                            f"Jacobi identity fails on (X{x + 1},X{y + 1},X{z + 1})"
                        )

    def _validate_generating(self) -> None:
        for layer in range(2, self.step + 1):
            rank = mat_rank(self.layer_bracket_matrix(layer))
            if rank < self.dims[layer - 1]:
                raise NotBracketGenerating(
                    f"layer {layer}: bracket map has rank {rank} <"
                    f" {self.dims[layer - 1]}"
                )

    # -- vectors ---------------------------------------------------------------

    def zero(self) -> GVec:
        return GVec(self, (Fraction(0),) * self.dim)

    def basis_vector(self, layer: int, idx: int) -> GVec:
        if not 1 <= layer <= self.step:
            raise LayerOutOfRange(f"layer {layer} outside 1..{self.step}")
        coords = [Fraction(0)] * self.dim
        coords[_flat_index(self.offsets, layer, idx)] = Fraction(1)
        return GVec(self, coords)

    def vector(self, coords, exact: bool = True) -> GVec:
        """Vector with the given flat coordinates, read exactly.

        ``exact`` is accepted for callers that still pass ``exact=True``;
        there is no float mode, so ``exact=False`` is rejected.
        """
        if not exact:
            raise UnsupportedParams("there is no float mode: vectors are exact")
        coords = list(coords)
        if len(coords) != self.dim:
            raise ParseError(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )
        return GVec(self, map(to_exact, coords))

    def from_layer(self, layer: int, coords) -> GVec:
        if not 1 <= layer <= self.step:
            raise LayerOutOfRange(f"layer {layer} outside 1..{self.step}")
        coords = list(coords)
        if len(coords) != self.dims[layer - 1]:
            raise ParseError(
                f"layer {layer} needs {self.dims[layer - 1]} coordinates"
            )
        flat = [Fraction(0)] * self.dim
        flat[self.offsets[layer - 1] : self.offsets[layer]] = map(to_exact, coords)
        return GVec(self, flat)

    # -- operations --------------------------------------------------------------

    def bracket_items(self, x: dict, y: dict) -> dict:
        """[x, y] of two sparse vectors {flat coordinate: scalar}, in the
        same form: the bracket kernel, and the only reader of the structure
        constants for a bracket.  A coordinate whose terms cancel is kept as
        a zero."""
        table, out = self._table, {}
        for a, ca in x.items():
            for b, cb in y.items():
                row = table.get((a, b))
                if row:
                    scale = ca * cb
                    for o, c in row.items():
                        out[o] = out.get(o, 0) + c * scale
        return out

    def bracket(self, u: GVec, v: GVec) -> GVec:
        """[u, v]: :meth:`bracket_items` on the nonzero coordinates."""
        u._check_mate(v)
        if u.algebra is not self:
            raise AlgebraMismatch("vectors do not belong to this algebra")
        coords = [Fraction(0)] * self.dim
        for o, c in self.bracket_items(_support(u), _support(v)).items():
            coords[o] = c
        return GVec(self, coords)

    def iterated_bracket(self, vectors) -> GVec:
        """Right-nested bracket [v_0, [v_1, [...]]]; zero when depth > step."""
        vectors = list(vectors)
        if not vectors:
            raise ParseError("iterated bracket of an empty list")
        if len(vectors) > self.step:
            return self.zero()
        out = vectors[-1]
        for v in reversed(vectors[:-1]):
            out = self.bracket(v, out)
        return out

    def dilate_by_powers(self, powers, v: GVec) -> GVec:
        """Graded dilation by t given its powers [t, t**2, ..., t**k]: layer
        j scales by t**j; exact zero coordinates are kept as they are."""
        return GVec(self, (
            powers[l - 1] * a if a else a
            for a, l in zip(v.coords(), self.layer_of)
        ))

    # -- layer bracket maps ---------------------------------------------------------

    def layer_bracket_matrix(self, layer: int):
        """Matrix of the bracket map V_1 (x) V_(layer-1) -> V_layer: column
        (a, b), in lex order, holds the coordinates of [e_a, f_b], read from
        the structure constants.  Entries are exact rationals."""
        if not 2 <= layer <= self.step:
            raise LayerOutOfRange(f"layer {layer} outside 2..{self.step}")
        offsets = self.offsets
        cols = [
            self._table.get((a, b), {})
            for a in range(self.dims[0])
            for b in range(offsets[layer - 2], offsets[layer - 1])
        ]
        return tuple(
            tuple(col.get(r, Fraction(0)) for col in cols)
            for r in range(offsets[layer - 1], offsets[layer])
        )

    def __repr__(self):
        return f"GradedAlgebra({self.name!r}, dims={self.dims})"


def _support(v: GVec) -> dict:
    """The nonzero coordinates of v, as {flat coordinate: scalar}."""
    return {o: c for o, c in enumerate(v.coords()) if c}


# -- loading -------------------------------------------------------------------


def _json_int(raw, what: str) -> int:
    """A JSON integer of a document: an int that is not a bool, else
    ParseError naming the entry."""
    if type(raw) is not int:
        raise ParseError(f"{what} {raw!r} is not a JSON integer")
    return raw


def _parse_coeff(raw) -> Fraction:
    try:
        if isinstance(raw, str) or type(raw) is int:
            return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational coefficient {raw!r}") from exc
    raise ParseError(f"coefficients must be ints or 'p/q' strings, got {raw!r}")


def is_inline_document(ref: str) -> bool:
    """Whether a document argument is inline JSON rather than a file path."""
    return ref.lstrip().startswith("{")


def read_document(doc, kind: str) -> dict:
    """A JSON object given as a dict, inline JSON text or a file path.

    Text that is not UTF-8 JSON, or JSON that is not an object, raises
    ParseError; a file that cannot be opened raises OSError.
    """
    if isinstance(doc, str):
        try:
            if is_inline_document(doc):
                doc = json.loads(doc)
            else:
                with open(doc, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{kind} document must be a JSON object")
    return doc


def load_algebra(doc) -> GradedAlgebra:
    """Build and validate an algebra from a structure-constant document.

    ``doc`` is a dict (already parsed JSON), a JSON string, or a file path.
    Schema: {"name": str, "dims": [int...], "brackets": [{"a": [layer, idx],
    "b": [layer, idx], "out": [{"layer": int, "idx": int, "coeff": "p/q"}]}]}
    with 1-based layers and basis indices and implicit antisymmetry.  Every
    pair must name a basis vector of its layer, and an entry's outputs must
    be distinct; otherwise ParseError names the entry.
    """
    doc = read_document(doc, "algebra")
    try:
        name = str(doc.get("name", "anonymous"))
        dims = [_json_int(d, "dims entry") for d in doc["dims"]]
        raw_brackets = list(doc.get("brackets", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra document: {exc}") from exc

    offsets = (0, *itertools.accumulate(dims))
    entries: dict = {}
    for item in raw_brackets:
        try:
            pairs = [item["a"], item["b"]] + [[o["layer"], o["idx"]] for o in item["out"]]
            a, b, *outs = [
                _flat_index(
                    offsets, _json_int(p[0], "layer"), _json_int(p[1], "idx") - 1
                )
                for p in pairs
            ]
            coeffs = [o["coeff"] for o in item["out"]]
        except (KeyError, TypeError, ValueError, IndexError, ParseError) as exc:
            raise ParseError(f"malformed bracket entry {item!r}: {exc}") from exc
        if len(set(outs)) < len(outs):
            raise ParseError(f"bracket entry {item!r} names an output twice")
        if (a, b) in entries:
            raise ParseError(f"duplicate bracket entry for {item['a']}, {item['b']}")
        entries[(a, b)] = dict(zip(outs, map(_parse_coeff, coeffs)))
    algebra = GradedAlgebra(name, dims, entries)
    if "inner1" in doc:
        try:
            gram = [[_parse_coeff(x) for x in row] for row in doc["inner1"]]
        except TypeError as exc:
            raise ParseError(f"malformed inner1 matrix: {exc}") from exc
        algebra = orthonormalize_layer1(algebra, gram)
    return algebra


# -- builtin families ------------------------------------------------------------


def builtin_family(name: str, params: tuple = ()) -> GradedAlgebra:
    """Standard fixture algebras.

    heisenberg(n): dims (2n, 1) with [X_i, X_{n+i}] = X_{2n+1}.
    engel: dims (2, 1, 1) with [X1,X2] = X3, [X1,X3] = X4.
    free_nilpotent(d1, k): free k-step algebra on d1 generators over the
    Lyndon-word basis; layer sizes follow the Witt/necklace count.  It is
    refused when d1**k exceeds :func:`resource_cap`, checked on every call,
    outside the cache.  A repeated name and parameters return the same
    algebra object, with its compiled group law and word commutators.
    """
    if name == "free_nilpotent" and len(params) == 2:
        d1, k = int(params[0]), int(params[1])
        cap = resource_cap()
        if d1 >= 1 and k >= 1 and d1 ** k > cap:
            raise UnsupportedParams(
                f"free_nilpotent({d1},{k}) workload {d1 ** k} exceeds cap {cap}"
            )
    return _builtin_family(name, params)


@lru_cache(maxsize=None)
def _builtin_family(name: str, params: tuple) -> GradedAlgebra:
    if name == "heisenberg":
        if len(params) > 1:
            raise UnsupportedParams("heisenberg takes at most one parameter, n")
        n = params[0] if params else 1
        if n < 1:
            raise UnsupportedParams("heisenberg(n) needs n >= 1")
        entries = {(i, n + i): {2 * n: 1} for i in range(n)}
        return GradedAlgebra(f"heisenberg({n})", (2 * n, 1), entries)
    if name == "engel":
        if params:
            raise UnsupportedParams("engel takes no parameters")
        entries = {(0, 1): {2: 1}, (0, 2): {3: 1}}
        return GradedAlgebra("engel", (2, 1, 1), entries)
    if name == "free_nilpotent":
        if len(params) != 2:
            raise UnsupportedParams("free_nilpotent needs (d1, k)")
        d1, k = int(params[0]), int(params[1])
        if d1 < 1 or k < 1:
            raise UnsupportedParams("free_nilpotent needs d1 >= 1, k >= 1")
        return _free_nilpotent(d1, k)
    raise UnknownFamily(f"unknown builtin family {name!r}")


def witt_dimension(d1: int, length: int) -> int:
    """Number of Lyndon words of the given length over d1 letters."""
    total = 0
    for m in range(1, length + 1):
        if length % m == 0:
            total += _moebius(m) * d1 ** (length // m)
    return total // length


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _free_nilpotent(d1: int, k: int) -> GradedAlgebra:
    flat = lyndon_words(d1, k)
    dims = tuple(sum(len(w) == i for w in flat) for i in range(1, k + 1))
    index = {w: o for o, w in enumerate(flat)}
    entries: dict = {}
    for i, w1 in enumerate(flat):
        for w2 in flat[i + 1 :]:
            if len(w1) + len(w2) > k:
                continue
            poly = commutator(lyndon_basis_poly(w1), lyndon_basis_poly(w2))
            out = {index[w]: c for w, c in lyndon_decompose(poly).items()}
            if out:
                entries[(index[w1], index[w2])] = out
    algebra = GradedAlgebra(f"free_nilpotent({d1},{k})", dims, entries)
    for i in range(1, k + 1):
        expected = witt_dimension(d1, i)
        if dims[i - 1] != expected:
            raise CertificateFailure(
                f"internal: layer {i} dimension {dims[i - 1]} != Witt count {expected}"
            )
    return algebra


def is_builtin_token(token: str) -> bool:
    """Whether :func:`resolve_algebra` reads the token as a builtin spec
    (even where a file of that name exists) rather than a document."""
    return token.partition(":")[0] in ("heisenberg", "engel", "free_nilpotent")


# a builtin spec: name[:int(,int)*]
_BUILTIN_SPEC = re.compile(
    r"(heisenberg|engel|free_nilpotent)(?::(-?[0-9]+(?:,-?[0-9]+)*))?"
)


def resolve_algebra(token: str) -> GradedAlgebra:
    """Resolve a CLI token: builtin spec like 'heisenberg:2' or a file path.

    A builtin spec is the family name, optionally followed by ':' and a
    comma-separated list of integers; any other token with a builtin name
    before its first ':' is refused as malformed."""
    if is_builtin_token(token):
        match = _BUILTIN_SPEC.fullmatch(token)
        if match is None:
            raise ParseError(
                f"malformed builtin algebra {token!r}: expected"
                " name or name:int(,int)*"
            )
        base, arg = match.groups()
        params = tuple(int(x) for x in arg.split(",")) if arg else ()
        return builtin_family(base, params)
    return load_algebra(token)


def orthonormalize_layer1(algebra: GradedAlgebra, gram) -> GradedAlgebra:
    """Absorb a declared layer-1 scalar product into the basis.

    ``gram`` is an SPD rational Gram matrix for the current layer-1 basis.
    The returned algebra presents the same Lie algebra in a layer-1 basis
    that is orthonormal for that product (upper layers unchanged), so all
    metric machinery can keep its identity-Gram convention.  The exact
    change of basis needs the LDL^T pivots to be rational squares; other
    Gram matrices are rejected rather than silently approximated.
    """
    d1 = algebra.dims[0]
    g = [[Fraction(x) for x in row] for row in gram]
    if len(g) != d1 or any(len(row) != d1 for row in g):
        raise UnsupportedParams(f"layer-1 Gram matrix must be {d1}x{d1}")
    if any(g[i][j] != g[j][i] for i in range(d1) for j in range(d1)):
        raise UnsupportedParams("layer-1 Gram matrix must be symmetric")
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(d1)] for i in range(d1)]
    diag: list[Fraction] = []
    for j in range(d1):
        pivot = g[j][j] - sum(lower[j][m] ** 2 * diag[m] for m in range(j))
        if pivot <= 0:
            raise UnsupportedParams("layer-1 Gram matrix is not positive definite")
        diag.append(pivot)
        for i in range(j + 1, d1):
            lower[i][j] = (
                g[i][j] - sum(lower[i][m] * lower[j][m] * diag[m] for m in range(j))
            ) / pivot
    roots = []
    for pivot in diag:
        root = fraction_nthroot(pivot, 2)
        if root is None:
            raise UnsupportedParams(
                "exact orthonormalization needs square LDL^T pivots;"
                f" got pivot {pivot}"
            )
        roots.append(root)
    lower_inv_t = tuple(zip(*mat_inv(tuple(tuple(r) for r in lower))))
    change = [
        [lower_inv_t[c][a] / roots[a] for a in range(d1)] for c in range(d1)
    ]  # column a holds the new basis vector f_a in old coordinates

    # the new basis, in flat order: f_1..f_d1, then the upper layers
    vecs = [{c: change[c][a] for c in range(d1)} for a in range(d1)]
    vecs += [{o: 1} for o in range(d1, algebra.dim)]
    entries = {
        (a, b): algebra.bracket_items(vecs[a], vecs[b])
        for a in range(algebra.dim)
        for b in range(a + 1, algebra.dim)
    }
    return GradedAlgebra(
        f"{algebra.name}|onb", algebra.dims, entries
    )
