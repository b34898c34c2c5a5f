"""Stratified nilpotent Lie algebras given by rational structure constants.

A ``GradedAlgebra`` stores the layer dimensions (d_1, ..., d_k) and a sparse
bracket table on basis vectors; every loaded algebra is checked for
antisymmetry, grading closure, the Jacobi identity (all exact) and the
bracket-generating property, checked as [V_1, V_(j-1)] = V_j for each layer
j >= 2.  ``GVec`` is an element in graded coordinates, stored as one flat
tuple in basis order, layer 1 first; the algebra owns the layout (``offsets``,
``layer_of``, ``basis_keys``), computed once.  Via exponential coordinates of
the first kind the same object doubles as a group element.

Coordinates are exact scalars: Fractions, or RadExprs once a radical
enters; a float argument is read as its exact binary fraction.  The structure
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
    NonpositiveScale,
    NotBracketGenerating,
    ParseError,
    UnknownFamily,
    UnsupportedParams,
)
from .ratlinalg import mat_rank
from .scalars import (
    is_zero_scalar,
    scalar_key,
    scalar_powers,
    to_exact,
)
from .words import commutator, lyndon_basis_poly, lyndon_decompose, lyndon_words

BasisIndex = tuple[int, int]  # (layer, index within layer), layer 1-based

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


class GVec:
    """Element of a graded algebra in graded coordinates: one flat tuple,
    layer 1 first, cut into layers at ``algebra.offsets``.  Immutable."""

    __slots__ = ("algebra", "_coords")

    def __init__(self, algebra: "GradedAlgebra", coords):
        self.algebra = algebra
        self._coords = tuple(coords)

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "GVec") -> "GVec":
        self._check_mate(other)
        return GVec(
            self.algebra, (a + b for a, b in zip(self._coords, other._coords))
        )

    def __sub__(self, other: "GVec") -> "GVec":
        return self + (-other)

    def __neg__(self) -> "GVec":
        return GVec(self.algebra, (-a for a in self._coords))

    def scale(self, c) -> "GVec":
        """c * self; exact zero coordinates are kept as they are, not
        replaced by products (a RadExpr c would make each a new RadExpr)."""
        c = to_exact(c)
        return GVec(
            self.algebra,
            (a if is_zero_scalar(a) else c * a for a in self._coords),
        )

    def __eq__(self, other):
        if not isinstance(other, GVec):
            return NotImplemented
        return self.algebra is other.algebra and self._coords == other._coords

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Hashable coordinate key, canonical for dedup: equal vectors have
        equal keys, whichever exact scalar type holds a rational value."""
        return tuple(map(scalar_key, self._coords))

    # -- structure queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(map(is_zero_scalar, self._coords))

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
        """bracket_entries: {((i,a),(j,b)): {(l,c): Fraction}} for a < b pairs
        in the flattened basis order; the antisymmetric closure is implied.
        """
        self.name = name
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ParseError(f"layer dimensions must be positive: {self.dims}")
        self.step = len(self.dims)
        self.dim = sum(self.dims)
        # flat coordinates: layer l is offsets[l - 1]:offsets[l]; coordinate
        # o is basis_keys[o] = (layer, index) and lies in layer layer_of[o]
        self.offsets = (0, *itertools.accumulate(self.dims))
        self.basis_keys = tuple(
            (l, i) for l, d in enumerate(self.dims, start=1) for i in range(d)
        )
        self.layer_of = tuple(l for l, _ in self.basis_keys)
        self._table: dict = {}
        # (word, sign) -> iterated group commutator of the signed layer-1
        # letters; filled lazily by the adjustment module.
        self.word_commutators: dict = {}
        # compiled two-factor group law; built lazily by the bch_engine module.
        self.group_law = None
        self._fill_table(bracket_entries)
        self._validate_grading()
        self._validate_jacobi()
        self._validate_generating()

    # -- construction ----------------------------------------------------------

    def _flat(self, key: BasisIndex) -> int:
        layer, idx = key
        if not 1 <= layer <= self.step or not 0 <= idx < self.dims[layer - 1]:
            raise ParseError(f"basis index {key} out of range for dims {self.dims}")
        return self.offsets[layer - 1] + idx

    def basis_name(self, key: BasisIndex) -> str:
        return f"X{self._flat(key) + 1}"

    def _fill_table(self, entries) -> None:
        for (a, b), out in entries.items():
            fa, fb = self._flat(a), self._flat(b)
            if fa == fb and any(out.values()):
                raise AntisymmetryViolation(
                    f"[{self.basis_name(a)},{self.basis_name(a)}] must vanish"
                )
            clean = {t: Fraction(c) for t, c in out.items() if c}
            existing = self._table.get((a, b))
            if existing is not None and existing != clean:
                raise AntisymmetryViolation(
                    f"conflicting entries for [{self.basis_name(a)},{self.basis_name(b)}]"
                )
            self._table[(a, b)] = clean
            mirror = {t: -c for t, c in clean.items()}
            prior = self._table.get((b, a))
            if prior is not None and prior != mirror:
                raise AntisymmetryViolation(
                    f"[{self.basis_name(a)},{self.basis_name(b)}] and "
                    f"[{self.basis_name(b)},{self.basis_name(a)}] are not opposite"
                )
            self._table[(b, a)] = mirror

    def _validate_grading(self) -> None:
        for (a, b), out in self._table.items():
            target = a[0] + b[0]
            for (l, c), coeff in out.items():
                if coeff and l != target:
                    raise GradingViolation(
                        f"[{self.basis_name(a)},{self.basis_name(b)}] has a"
                        f" component in layer {l}, expected {target}"
                    )
                if not 1 <= l <= self.step:
                    raise GradingViolation(
                        f"bracket output layer {l} outside 1..{self.step}"
                    )

    def _validate_jacobi(self) -> None:
        basis = self.basis_keys
        vecs = {key: self.basis_vector(*key) for key in basis}
        for i, x in enumerate(basis):
            for j in range(i + 1, len(basis)):
                y = basis[j]
                for t in range(j + 1, len(basis)):
                    z = basis[t]
                    if x[0] + y[0] + z[0] > self.step:
                        break  # the basis is in layer order: every later z is too deep
                    total = (
                        self.bracket(vecs[x], self.bracket(vecs[y], vecs[z]))
                        + self.bracket(vecs[y], self.bracket(vecs[z], vecs[x]))
                        + self.bracket(vecs[z], self.bracket(vecs[x], vecs[y]))
                    )
                    if not total.is_zero:
                        raise JacobiViolation(
                            "Jacobi identity fails on "
                            f"({self.basis_name(x)},{self.basis_name(y)},{self.basis_name(z)})"
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
        coords[self._flat((layer, idx))] = Fraction(1)
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

    def bracket(self, u: GVec, v: GVec) -> GVec:
        u._check_mate(v)
        if u.algebra is not self:
            raise AlgebraMismatch("vectors do not belong to this algebra")
        keys, offsets, table = self.basis_keys, self.offsets, self._table
        acc = [Fraction(0)] * self.dim
        u_items = [
            (keys[o], c) for o, c in enumerate(u.coords()) if not is_zero_scalar(c)
        ]
        v_items = [
            (keys[o], c) for o, c in enumerate(v.coords()) if not is_zero_scalar(c)
        ]
        for a, ca in u_items:
            for b, cb in v_items:
                if a[0] + b[0] > self.step:
                    continue
                out = table.get((a, b))
                if not out:
                    continue
                scale = ca * cb
                for (l, c), coeff in out.items():
                    o = offsets[l - 1] + c
                    acc[o] = acc[o] + coeff * scale
        return GVec(self, acc)

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

    def dilate(self, t, v: GVec) -> GVec:
        """Graded dilation by a positive rational t (a float is read as its
        exact binary fraction): layer j scales by t**j; exact zero
        coordinates are kept as they are, as in :meth:`GVec.scale`.  A
        radical scale, such as a row scale, dilates through
        :meth:`dilate_by_powers`."""
        t = Fraction(t)
        if t <= 0:
            raise NonpositiveScale(f"dilation parameter must be positive: {t}")
        return self.dilate_by_powers(scalar_powers(t, self.step), v)

    def dilate_by_powers(self, powers, v: GVec) -> GVec:
        """Graded dilation by t given its powers [t, t**2, ..., t**k]: layer
        j scales by t**j; exact zero coordinates are kept as they are."""
        return GVec(self, (
            a if is_zero_scalar(a) else powers[l - 1] * a
            for a, l in zip(v.coords(), self.layer_of)
        ))

    # -- layer bracket maps ---------------------------------------------------------

    def layer_bracket_matrix(self, layer: int):
        """Matrix of the bracket map V_1 (x) V_(layer-1) -> V_layer: column
        (a, b), in lex order, holds the coordinates of [e_a, f_b], read from
        the structure constants.  Entries are exact rationals."""
        if not 2 <= layer <= self.step:
            raise LayerOutOfRange(f"layer {layer} outside 2..{self.step}")
        cols = [
            self._table.get(((1, a), (layer - 1, b)), {})
            for a in range(self.dims[0])
            for b in range(self.dims[layer - 2])
        ]
        return tuple(
            tuple(col.get((layer, r), Fraction(0)) for col in cols)
            for r in range(self.dims[layer - 1])
        )

    def __repr__(self):
        return f"GradedAlgebra({self.name!r}, dims={self.dims})"


# -- loading -------------------------------------------------------------------


def _parse_coeff(raw) -> Fraction:
    try:
        if isinstance(raw, str):
            return Fraction(raw)
        if isinstance(raw, int):
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
    with 1-based layers and basis indices and implicit antisymmetry.
    """
    doc = read_document(doc, "algebra")
    try:
        name = str(doc.get("name", "anonymous"))
        dims = [int(d) for d in doc["dims"]]
        raw_brackets = list(doc.get("brackets", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra document: {exc}") from exc
    if any(d <= 0 for d in dims):
        raise ParseError(f"dims must be positive: {dims}")

    entries: dict = {}
    for item in raw_brackets:
        try:
            a = (int(item["a"][0]), int(item["a"][1]) - 1)
            b = (int(item["b"][0]), int(item["b"][1]) - 1)
            out = {
                (int(o["layer"]), int(o["idx"]) - 1): _parse_coeff(o["coeff"])
                for o in item["out"]
            }
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ParseError(f"malformed bracket entry {item!r}: {exc}") from exc
        if (a, b) in entries:
            raise ParseError(f"duplicate bracket entry for {a}, {b}")
        entries[(a, b)] = out
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
        entries = {
            ((1, i), (1, n + i)): {(2, 0): Fraction(1)} for i in range(n)
        }
        return GradedAlgebra(f"heisenberg({n})", (2 * n, 1), entries)
    if name == "engel":
        if params:
            raise UnsupportedParams("engel takes no parameters")
        entries = {
            ((1, 0), (1, 1)): {(2, 0): Fraction(1)},
            ((1, 0), (2, 0)): {(3, 0): Fraction(1)},
        }
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
    basis = lyndon_words(d1, k)
    by_layer: dict[int, list] = {}
    for w in basis:
        by_layer.setdefault(len(w), []).append(w)
    dims = tuple(len(by_layer.get(i, ())) for i in range(1, k + 1))
    index = {
        w: (length, pos)
        for length, group in by_layer.items()
        for pos, w in enumerate(sorted(group))
    }
    entries: dict = {}
    flat = sorted(basis, key=lambda w: (len(w), w))
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
    from .ratlinalg import mat_inv as _inv
    from .scalars import fraction_nthroot

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
    lower_inv_t = tuple(zip(*_inv(tuple(tuple(r) for r in lower))))
    change = [
        [lower_inv_t[c][a] / roots[a] for a in range(d1)] for c in range(d1)
    ]  # column a holds the new basis vector f_a in old coordinates

    basis = algebra.basis_keys
    vecs = [  # the new basis, in flat order: f_1..f_d1, then the upper layers
        sum(
            (algebra.basis_vector(1, c).scale(change[c][a]) for c in range(d1)),
            algebra.zero(),
        )
        for a in range(d1)
    ] + [algebra.basis_vector(*key) for key in basis[d1:]]

    entries: dict = {}
    for i, (a_key, va) in enumerate(zip(basis, vecs)):
        for b_key, vb in zip(basis[i + 1 :], vecs[i + 1 :]):
            if a_key[0] + b_key[0] > algebra.step:
                continue
            # each pair is bracketed once: its entry is that bracket's coordinates
            coords = algebra.bracket(va, vb).coords()
            entries[(a_key, b_key)] = {k: c for k, c in zip(basis, coords) if c}
    return GradedAlgebra(
        f"{algebra.name}|onb", algebra.dims, entries
    )
