"""Based vector spaces and sparse exact linear maps.

Tensor products are flattened (strict monoidal): a tensor space remembers its
atomic factors and the basis is ordered lexicographically, leftmost factor
most significant. A tensor space stores only its factors and its dimension;
its joined basis labels ("a.b.c") are built on first access and cached, so
large intermediate tensor powers cost nothing until a report names a basis
vector. Linear maps are stored sparsely as {(row, col): Scalar}.

``apply_in_slot`` and ``precompose_in_slot`` compose a map with
``id_L (x) f (x) id_R`` by re-indexing one tensor slot of the sparse entries,
so the Kronecker product with the identities is never built; their cost is
nnz(g) times the number of entries in a column (or row) of f.

``tensor_map(f, g)`` returns a ``TensorMap`` that keeps its two factors. Its
Kronecker entries are built, through ``LinearMap.__init__``, only when
something reads them. ``compose``, ``apply_in_slot`` and
``precompose_in_slot`` take a factored operand apart instead: h . (a (x) b)
is two ``precompose_in_slot`` calls, (a (x) b) . g two ``apply_in_slot``
calls, identity factors are skipped, and (a (x) b) . (c (x) d) with matching
factor shapes stays factored as (a.c) (x) (b.d). A string diagram written as
a chain of ``tensor_map(f, id)`` therefore runs as slot contractions.

``solve_linear``, ``kernel_basis``, ``nullity``, ``equalizer`` and ``invert``
run sparse Gauss-Jordan elimination (``_rref``) on the rows of the entries.
The reduced row echelon form is unique, so solutions (free unknowns zero) and
kernel bases do not depend on the order in which rows are eliminated.
"""

from __future__ import annotations

from math import prod

from .errors import FieldMismatch, NoSolution, ShapeMismatch
from .fields import FieldSpec, Scalar

TENSOR_SEP = "."


class BasedSpace:
    """A vector space over ``field`` with a named, ordered basis.

    An atomic space is given its labels; a tensor space (``factors``
    non-empty, labels None) joins its factors' labels on first access.
    """

    __slots__ = ("name", "field", "factors", "dim", "_labels")

    def __init__(self, name: str, labels, field: FieldSpec, factors: tuple = ()):
        self.name = name
        self.field = field
        self.factors = factors
        if labels is None:
            self._labels = None
            self.dim = prod(f.dim for f in factors)
            # joined labels can only collide when a factor label contains
            # the separator (file labels never do)
            if any(TENSOR_SEP in lab for f in factors for lab in f.labels):
                labels = self.labels
        else:
            labels = self._labels = tuple(labels)
            self.dim = len(labels)
        if labels is not None and len(set(labels)) != len(labels):
            raise ValueError(f"duplicate basis labels in {name}")

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            labels = [""]
            for s in self.factors:
                labels = [a + TENSOR_SEP + b if a else b for a in labels for b in s.labels]
            self._labels = tuple(labels)
        return self._labels

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def same_basis(self, other: "BasedSpace") -> bool:
        """Structural compatibility: same field and basis labels."""
        if self is other:
            return True
        if self.field != other.field or self.dim != other.dim:
            return False
        if self.factors and len(self.factors) == len(other.factors) and all(
            a.same_basis(b) for a, b in zip(self.factors, other.factors)
        ):
            return True
        return self.labels == other.labels

    def atomic_factors(self) -> tuple["BasedSpace", ...]:
        return self.factors if self.factors else (self,)

    def _key(self) -> tuple:
        # a tensor space's labels are determined by its factors
        return (self.name, self.field, self.factors, None if self.factors else self._labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasedSpace):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"BasedSpace({self.name!r}, dim={self.dim}, field={self.field})"

    def __str__(self) -> str:
        return f"{self.name}[{self.dim}]"


def based_space(name: str, labels, field: FieldSpec) -> BasedSpace:
    return BasedSpace(name, tuple(labels), field)


def unit_space(field: FieldSpec) -> BasedSpace:
    """The monoidal unit: the 1-dimensional space with basis label "1"."""
    return BasedSpace("1", ("1",), field)


def tensor_space(*spaces: BasedSpace) -> BasedSpace:
    if not spaces:
        raise ValueError("tensor of no factors")
    if len(spaces) == 1:
        return spaces[0]
    field = spaces[0].field
    for s in spaces:
        if s.field != field:
            raise FieldMismatch("tensor factors over different fields")
    # the monoidal unit is strict: unit factors disappear from the product
    factors = [
        f for s in spaces for f in s.atomic_factors() if f.labels != ("1",)
    ]
    if not factors:
        return unit_space(field)
    if len(factors) == 1:
        return factors[0]
    name = "(" + "*".join(s.name for s in factors) + ")"
    return BasedSpace(name, None, field, tuple(factors))


class LinearMap:
    """A based linear map, stored as a sparse (row, col) -> Scalar dict."""

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: BasedSpace, target: BasedSpace, entries=None):
        self.source = source
        self.target = target
        ents = {}
        if entries:
            field = source.field
            for (i, j), v in entries.items():
                if not (0 <= i < target.dim and 0 <= j < source.dim):
                    raise ShapeMismatch(f"entry ({i},{j}) out of range")
                if v.field is not field and v.field != field:
                    raise FieldMismatch("entry field differs from space field")
                if not v.is_zero():
                    ents[(i, j)] = v
        self.entries = ents

    @staticmethod
    def from_labels(source: BasedSpace, target: BasedSpace, triples) -> "LinearMap":
        """Build from (row_label, col_label, Scalar) triples, summing duplicates."""
        entries = {}
        for row, col, v in triples:
            key = (target.index(row), source.index(col))
            entries[key] = entries.get(key, source.field.zero()) + v
        return LinearMap(source, target, entries)

    @staticmethod
    def identity(space: BasedSpace) -> "LinearMap":
        one = space.field.one()
        return LinearMap(space, space, {(i, i): one for i in range(space.dim)})

    @staticmethod
    def zero(source: BasedSpace, target: BasedSpace) -> "LinearMap":
        return LinearMap(source, target, {})

    def __getitem__(self, key) -> Scalar:
        return self.entries.get(key, self.source.field.zero())

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self) -> dict[int, list]:
        """The sparse columns: col -> [(row, value)]."""
        cols: dict[int, list] = {}
        for (i, j), v in self.entries.items():
            cols.setdefault(j, []).append((i, v))
        return cols

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.source.same_basis(other.source)
            and self.target.same_basis(other.target)
            and self.entries == other.entries
        )

    def __hash__(self):
        # same_basis implies equal dimensions, so equal maps hash alike
        return hash((self.source.dim, self.target.dim, frozenset(self.entries.items())))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._check_parallel(other)
        entries = dict(self.entries)
        zero = self.source.field.zero()
        for k, v in other.entries.items():
            entries[k] = entries.get(k, zero) + v
        return LinearMap(self.source, self.target, entries)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.source, self.target, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other)

    def _check_parallel(self, other: "LinearMap"):
        if not (self.source.same_basis(other.source) and self.target.same_basis(other.target)):
            raise ShapeMismatch("maps are not parallel")

    def __str__(self) -> str:
        parts = [
            f"{self.target.labels[i]} <- {self.source.labels[j]}: {v}"
            for (i, j), v in sorted(self.entries.items())
        ]
        return f"LinearMap({self.source} -> {self.target}; " + "; ".join(parts) + ")"


class TensorMap(LinearMap):
    """f (x) g kept as its two factors. The Kronecker entries are built on
    first read, through ``LinearMap.__init__``, and then kept."""

    __slots__ = ("factors", "_entries")

    def __init__(self, f: LinearMap, g: LinearMap):
        self.source = tensor_space(f.source, g.source)
        self.target = tensor_space(f.target, g.target)
        self.factors = (f, g)
        self._entries = None

    @property
    def entries(self) -> dict:
        if self._entries is None:
            f, g = self.factors
            gs, gt = g.source.dim, g.target.dim
            kron = {}
            for (i1, j1), v1 in f.entries.items():
                for (i2, j2), v2 in g.entries.items():
                    kron[(i1 * gt + i2, j1 * gs + j2)] = v1 * v2
            self._entries = LinearMap(self.source, self.target, kron).entries
        return self._entries


def _is_identity(f: LinearMap) -> bool:
    if isinstance(f, TensorMap):
        return all(_is_identity(x) for x in f.factors)
    if len(f.entries) != f.source.dim or not f.source.same_basis(f.target):
        return False
    one = f.source.field.one()
    return all(i == j and v == one for (i, j), v in f.entries.items())


def _respace(m: LinearMap, source: BasedSpace, target: BasedSpace) -> LinearMap:
    """m on the given (same-basis) spaces, so a result names the spaces its
    operands name."""
    if m.source == source and m.target == target:
        return m
    return LinearMap(source, target, m.entries)


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix product f.g (apply g first)."""
    if not f.source.same_basis(g.target):
        raise ShapeMismatch(f"cannot compose {f.source} after {g.target}")
    if isinstance(g, TensorMap):
        if isinstance(f, TensorMap) and all(
            a.source.same_basis(b.target) for a, b in zip(f.factors, g.factors)
        ):
            return TensorMap(*(compose(a, b) for a, b in zip(f.factors, g.factors)))
        unit = unit_space(g.source.field)
        return _respace(precompose_in_slot(f, unit, g, unit), g.source, f.target)
    if isinstance(f, TensorMap):
        unit = unit_space(f.source.field)
        return _respace(apply_in_slot(unit, f, unit, g), g.source, f.target)
    by_col = f.columns()
    entries: dict = {}
    for (k, j), gv in g.entries.items():
        for i, fv in by_col.get(k, ()):
            key = (i, j)
            acc = entries.get(key)
            entries[key] = fv * gv if acc is None else acc + fv * gv
    return LinearMap(g.source, f.target, entries)


def compose_all(*maps: LinearMap) -> LinearMap:
    result = maps[0]
    for m in maps[1:]:
        result = compose(result, m)
    return result


def _through_slot(entries: dict, axis: int, moves: dict, mid: int, mid_new: int, right: int) -> dict:
    """Re-index coordinate ``axis`` (0: rows, 1: columns) of sparse entries
    over L (x) X (x) R through ``moves`` (x -> [(y, value)]), giving the
    entries over L (x) Y (x) R with each value multiplied in."""
    block = mid * right
    block_new = mid_new * right
    out: dict = {}
    for key, gv in entries.items():
        l, rest = divmod(key[axis], block)
        x, r = divmod(rest, right)
        base = l * block_new + r
        for y, fv in moves.get(x, ()):
            flat = base + y * right
            k = (flat, key[1]) if axis == 0 else (key[0], flat)
            acc = out.get(k)
            out[k] = fv * gv if acc is None else acc + fv * gv
    return out


def apply_in_slot(left: BasedSpace, f: LinearMap, right: BasedSpace, g: LinearMap) -> LinearMap:
    """(id_left (x) f (x) id_right) . g, without the Kronecker product."""
    if not g.target.same_basis(tensor_space(left, f.source, right)):
        raise ShapeMismatch(f"cannot apply {f.source} -> {f.target} in a slot of {g.target}")
    if isinstance(f, TensorMap):
        a, b = f.factors
        g = apply_in_slot(left, a, tensor_space(b.source, right), g)
        return apply_in_slot(tensor_space(left, a.target), b, right, g)
    if _is_identity(f):
        return _respace(g, g.source, tensor_space(left, f.target, right))
    entries = _through_slot(g.entries, 0, f.columns(), f.source.dim, f.target.dim, right.dim)
    return LinearMap(g.source, tensor_space(left, f.target, right), entries)


def precompose_in_slot(g: LinearMap, left: BasedSpace, f: LinearMap, right: BasedSpace) -> LinearMap:
    """g . (id_left (x) f (x) id_right), without the Kronecker product."""
    if not g.source.same_basis(tensor_space(left, f.target, right)):
        raise ShapeMismatch(f"cannot precompose {f.source} -> {f.target} in a slot of {g.source}")
    if isinstance(f, TensorMap):
        a, b = f.factors
        g = precompose_in_slot(g, left, a, tensor_space(b.target, right))
        return precompose_in_slot(g, tensor_space(left, a.source), b, right)
    if _is_identity(f):
        return _respace(g, tensor_space(left, f.source, right), g.target)
    by_row: dict[int, list] = {}
    for (k, j), v in f.entries.items():
        by_row.setdefault(k, []).append((j, v))
    entries = _through_slot(g.entries, 1, by_row, f.target.dim, f.source.dim, right.dim)
    return LinearMap(tensor_space(left, f.source, right), g.target, entries)


def tensor_map(f: LinearMap, g: LinearMap) -> LinearMap:
    """f (x) g on the lexicographic tensor basis, kept factored (TensorMap)."""
    if f.source.field != g.source.field:
        raise FieldMismatch("tensor of maps over different fields")
    return TensorMap(f, g)


def tensor_maps(*maps: LinearMap) -> LinearMap:
    result = maps[0]
    for m in maps[1:]:
        result = tensor_map(result, m)
    return result


def permutation_map(factors, perm) -> LinearMap:
    """Reorder tensor factors: output factor i is input factor perm[i]."""
    factors = list(factors)
    dims = [s.dim for s in factors]
    source = tensor_space(*factors)
    target = tensor_space(*[factors[p] for p in perm])
    one = source.field.one()
    entries = {}
    for flat in range(source.dim):
        idx = []
        rest = flat
        for d in reversed(dims):
            idx.append(rest % d)
            rest //= d
        idx.reverse()
        out = 0
        for p in perm:
            out = out * dims[p] + idx[p]
        entries[(out, flat)] = one
    return LinearMap(source, target, entries)


def flip_map(x: BasedSpace, y: BasedSpace) -> LinearMap:
    """The symmetric vector-space flip x (tensor) y -> y (tensor) x."""
    one = x.field.one()
    entries = {}
    for i in range(x.dim):
        for j in range(y.dim):
            entries[(j * x.dim + i, i * y.dim + j)] = one
    return LinearMap(tensor_space(x, y), tensor_space(y, x), entries)


def _rref(entries) -> dict[int, dict]:
    """Sparse Gauss-Jordan elimination of the ((row, col), value) entries of a
    matrix (no zeros). Returns the reduced row echelon form as {pivot col:
    row}, each row {col: value} without its leading 1 and zero in every other
    pivot column; the form is unique, so it does not depend on the row order."""
    rows: dict[int, dict] = {}
    for (i, j), v in entries:
        rows.setdefault(i, {})[j] = v
    reduced: dict[int, dict] = {}
    for row in rows.values():
        for c in [c for c in row if c in reduced]:
            _eliminate(row, c, reduced[c])
        if not row:
            continue
        p = min(row)
        inv = row.pop(p).inverse()
        row = {k: v * inv for k, v in row.items()}
        for other in reduced.values():
            if p in other:
                _eliminate(other, p, row)
        reduced[p] = row
    return reduced


def _eliminate(row: dict, c: int, pivot_row: dict):
    """row -= row[c] * (e_c + pivot_row), dropping zeros."""
    factor = row.pop(c)
    zero = factor.field.zero()
    for k, v in pivot_row.items():
        new = row.pop(k, zero) - factor * v
        if not new.is_zero():
            row[k] = new


def _kernel(f: LinearMap) -> list[dict]:
    """The reduced-echelon kernel basis of f as sparse vectors {coord: value}."""
    reduced = _rref(f.entries.items())
    one = f.source.field.one()
    return [
        {c: one, **{p: -row[c] for p, row in reduced.items() if c in row}}
        for c in range(f.source.dim) if c not in reduced
    ]


def kernel_basis(f: LinearMap) -> list[list[Scalar]]:
    """Reduced-echelon kernel basis (as coordinate vectors in f.source)."""
    zero = f.source.field.zero()
    return [[vec.get(i, zero) for i in range(f.source.dim)] for vec in _kernel(f)]


def equalizer(f: LinearMap, g: LinearMap) -> tuple[BasedSpace, LinearMap]:
    """Equalizer of parallel maps: (E, inclusion) with E = ker(f - g)."""
    f._check_parallel(g)
    basis = _kernel(f - g)
    labels = tuple(f"e{k}" for k in range(len(basis)))
    space = BasedSpace(f"eq({f.source.name})", labels, f.source.field)
    entries = {(i, k): v for k, vec in enumerate(basis) for i, v in vec.items()}
    return space, LinearMap(space, f.source, entries)


def solve_linear(a: LinearMap, b: LinearMap) -> LinearMap:
    """Exact solution x of a.x = b, or NoSolution.

    When the system is underdetermined, free coordinates are set to zero,
    which makes the result deterministic.
    """
    if not a.target.same_basis(b.target):
        raise ShapeMismatch("solve: targets differ")
    na = a.source.dim
    rhs = [((i, na + j), v) for (i, j), v in b.entries.items()]
    reduced = _rref([*a.entries.items(), *rhs])
    if any(c >= na for c in reduced):
        raise NoSolution("inconsistent linear system")
    entries = {(c, j - na): v for c, row in reduced.items() for j, v in row.items() if j >= na}
    return LinearMap(b.source, a.source, entries)


def invert(f: LinearMap) -> LinearMap:
    """Two-sided matrix inverse of a square map, or NoSolution."""
    if f.source.dim != f.target.dim:
        raise ShapeMismatch("only square maps can be inverted")
    g = solve_linear(f, LinearMap.identity(f.target))
    if compose(g, f) != LinearMap.identity(f.source):
        raise NoSolution("map is singular")
    return g


def nullity(f: LinearMap) -> int:
    return f.source.dim - len(_rref(f.entries.items()))


def factor_through_injection(iota: LinearMap, g: LinearMap) -> LinearMap:
    """The unique h with iota.h = g, for injective iota; NoSolution if g misses the image."""
    return solve_linear(iota, g)
