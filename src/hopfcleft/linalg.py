"""Based vector spaces and sparse exact linear maps.

Tensor products are flattened (strict monoidal): a tensor space remembers its
atomic factors and the basis is ordered lexicographically, leftmost factor
most significant. A tensor space stores only its factors and its dimension,
never its joined basis labels ("a.b.c"): ``label(i)`` spells one label from
the factors' labels and ``index`` looks one up a factor at a time, so a report
that names a basis vector of a large tensor power costs one label. A linear
map keeps one sparse store, {(row, col): raw canonical value} without zeros
(``raw_entries``). Every value enters it through ``FieldSpec.value``;
``entries`` is a Scalar view of it for the benchmark, built on each read and
never kept. Maps never change after construction, so the kernels' column and
row groupings of the store (``_raw_columns``, ``_raw_rows``) are built on
first use and kept: a structure map is grouped once, however often it is
composed or convolved.

The kernels (``_contract``/``_through_slot``, the Kronecker entries of a
``TensorMap`` and ``_rref``/``_eliminate`` here; ``convolution`` and
``convolution_inverse`` in ``hopf``; every other product of maps is a
``compose`` chain) run on raw values: they read their operands'
``raw_entries`` or ``_raw_columns``, use the field's ``ops`` fetched once per
call, and hand their result to the trusted constructor
``LinearMap._from_raw``. It drops zeros and skips the range check and the
``FieldSpec.value`` normalization that ``LinearMap.__init__`` keeps for the
``io`` and public boundary.

``compose`` is the one contraction: every product runs through
``_through_slot``, which re-indexes one tensor slot of sparse raw entries, so
composing with ``id_L (x) f (x) id_R`` costs nnz times the number of entries
in a column (or row) of f and never builds the Kronecker product with the
identities; the plain product is the same kernel on a single slot.

``tensor_map(f, g)`` returns a ``TensorMap`` that keeps its two factors. Its
Kronecker entries are built only when something reads them. ``compose``
takes a factored operand apart instead: each factor is contracted in its own
slot, identity factors are skipped, and (a (x) b) . (c (x) d) with matching
factor shapes stays factored as (a.c) (x) (b.d). A string diagram written as
a chain of ``tensor_map(f, id)`` therefore runs as slot contractions; a slot
application is ``compose(tensor_maps(id_L, f, id_R), g)``.

``solve_linear``, ``equalizer`` (through ``_kernel``) and ``invert`` run
sparse Gauss-Jordan elimination (``_rref``) on the rows of the entries. The
reduced row echelon form is unique, so solutions (free unknowns zero) and
kernel bases do not depend on the order in which rows are eliminated.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .errors import FieldMismatch, NoSolution, ShapeMismatch
from .fields import FieldSpec, Scalar

TENSOR_SEP = "."


class BasedSpace:
    """A vector space over ``field`` with a named, ordered basis.

    An atomic space is given its labels, none of which may contain
    ``TENSOR_SEP``, so the joined labels of a product are unique; a tensor
    space (``factors`` non-empty, labels None) keeps no labels and spells
    each from its factors' labels. ``index`` looks atomic labels up in a
    label -> position dict built on first use.
    """

    __slots__ = ("name", "field", "factors", "dim", "_labels", "_positions")

    def __init__(self, name: str, labels, field: FieldSpec, factors: tuple = ()):
        self.name = name
        self.field = field
        self.factors = factors
        self._positions = None
        if labels is None:
            self._labels = None
            self.dim = prod(f.dim for f in factors)
            return
        labels = self._labels = tuple(labels)
        self.dim = len(labels)
        joined = next((lab for lab in labels if TENSOR_SEP in lab), None)
        if joined is not None:
            raise ValueError(f"basis label {joined!r} of {name} contains {TENSOR_SEP!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate basis labels in {name}")

    @property
    def labels(self) -> tuple[str, ...]:
        """All labels; a product spells them again on each read."""
        if self._labels is None:
            return tuple(map(self.label, range(self.dim)))
        return self._labels

    def label(self, i: int) -> str:
        """The label of basis vector ``i``: a product's is its atomic
        factors' labels joined by ``TENSOR_SEP``, the inverse of ``index``."""
        if self._labels is not None:
            return self._labels[i]
        pieces = []
        for f in reversed(self.factors):
            i, k = divmod(i, f.dim)
            pieces.append(f._labels[k])
        return TENSOR_SEP.join(reversed(pieces))

    def index(self, label: str) -> int:
        """The position of ``label``; ValueError when it is no basis label. A
        product label is split at ``TENSOR_SEP`` and each piece looked up in
        its factor, so a product's joined labels are never built here."""
        try:
            if self.factors:
                pieces = label.split(TENSOR_SEP)
                if len(pieces) != len(self.factors):
                    raise KeyError(label)
                flat = 0
                for f, piece in zip(self.factors, pieces):
                    flat = flat * f.dim + f.index(piece)
                return flat
            if self._positions is None:
                self._positions = {lab: i for i, lab in enumerate(self.labels)}
            return self._positions[label]
        except (KeyError, ValueError):
            raise ValueError(f"{label!r} is not a basis label of {self.name}") from None

    def same_basis(self, other: "BasedSpace") -> bool:
        """Same field and basis labels, compared factor by factor: a product
        label holds ``TENSOR_SEP`` and an atomic one cannot."""
        if self is other:
            return True
        if self.field != other.field or self.dim != other.dim:
            return False
        if not (self.factors or other.factors):
            return self._labels == other._labels
        return len(self.factors) == len(other.factors) and all(
            a.same_basis(b) for a, b in zip(self.factors, other.factors))

    def atomic_factors(self) -> tuple["BasedSpace", ...]:
        return self.factors if self.factors else (self,)

    def __repr__(self) -> str:
        return f"BasedSpace({self.name!r}, dim={self.dim}, field={self.field})"

    def __str__(self) -> str:
        return f"{self.name}[{self.dim}]"


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
    """A based linear map with one sparse store, ``raw_entries()``: the
    (row, col) -> raw canonical value dict, holding no zero. ``entries`` is
    the same dict with Scalar values, built on each read."""

    __slots__ = ("source", "target", "_raw", "_cols", "_rows")

    def __init__(self, source: BasedSpace, target: BasedSpace, entries=None):
        """Validate (row, col) -> value entries and store their raw values,
        ``FieldSpec.value`` of each, without zeros."""
        self.source = source
        self.target = target
        raw = {}
        if entries:
            field = source.field
            value, is_zero = field.value, field.ops.is_zero
            for (i, j), v in entries.items():
                if not (0 <= i < target.dim and 0 <= j < source.dim):
                    raise ShapeMismatch(f"entry ({i},{j}) out of range")
                v = value(v)
                if not is_zero(v):
                    raw[(i, j)] = v
        self._raw = raw
        self._cols = self._rows = None

    @staticmethod
    def _from_raw(source: BasedSpace, target: BasedSpace, raw: dict) -> "LinearMap":
        """The trusted constructor of kernel results: {(row, col): raw value}
        computed from validated maps, so indices and field are not checked
        again. Zeros are dropped, because ``__eq__`` compares entry dicts."""
        is_zero = source.field.ops.is_zero
        m = object.__new__(LinearMap)
        m.source, m.target = source, target
        m._raw = {k: v for k, v in raw.items() if not is_zero(v)}
        m._cols = m._rows = None
        return m

    @property
    def entries(self) -> dict:
        """The entries as Scalars: a new dict on each read, so a caller that
        needs it more than once reads it once."""
        field = self.source.field
        return {k: Scalar(field, v) for k, v in self.raw_entries().items()}

    def raw_entries(self) -> dict:
        """The store itself, for the kernels: callers read it and never
        change it."""
        return self._raw

    @staticmethod
    def from_labels(source: BasedSpace, target: BasedSpace, triples) -> "LinearMap":
        """Build from (row_label, col_label, value) triples, summing duplicates."""
        value, add = source.field.value, source.field.ops.add
        entries = {}
        for row, col, v in triples:
            key = (target.index(row), source.index(col))
            v = value(v)
            entries[key] = add(entries[key], v) if key in entries else v
        return LinearMap(source, target, entries)

    @staticmethod
    def identity(space: BasedSpace) -> "LinearMap":
        return LinearMap(space, space, {(i, i): 1 for i in range(space.dim)})

    def _raw_columns(self) -> dict[int, list]:
        """The sparse columns with raw values, for the kernels: col -> [(row,
        value)]. Built on first use and kept; callers never change it."""
        if self._cols is None:
            cols: dict[int, list] = {}
            for (i, j), v in self.raw_entries().items():
                cols.setdefault(j, []).append((i, v))
            self._cols = cols
        return self._cols

    def _raw_rows(self) -> dict[int, list]:
        """The sparse rows with raw values: row -> [(col, value)], kept like
        ``_raw_columns``."""
        if self._rows is None:
            rows: dict[int, list] = {}
            for (i, j), v in self.raw_entries().items():
                rows.setdefault(i, []).append((j, v))
            self._rows = rows
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.source.same_basis(other.source)
            and self.target.same_basis(other.target)
            and self.raw_entries() == other.raw_entries()
        )

    def __hash__(self):
        # same_basis implies equal dimensions, so equal maps hash alike
        return hash((self.source.dim, self.target.dim, frozenset(self.raw_entries().items())))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._check_parallel(other)
        add = self.source.field.ops.add
        raw = dict(self.raw_entries())
        for k, v in other.raw_entries().items():
            raw[k] = add(raw[k], v) if k in raw else v
        return LinearMap._from_raw(self.source, self.target, raw)

    def __neg__(self) -> "LinearMap":
        neg = self.source.field.ops.neg
        return LinearMap._from_raw(
            self.source, self.target, {k: neg(v) for k, v in self.raw_entries().items()})

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other)

    def _check_parallel(self, other: "LinearMap"):
        if not (self.source.same_basis(other.source) and self.target.same_basis(other.target)):
            raise ShapeMismatch("maps are not parallel")

    def __str__(self) -> str:
        parts = [
            f"{self.target.label(i)} <- {self.source.label(j)}: {self.source.field.format(v)}"
            for (i, j), v in sorted(self.raw_entries().items())
        ]
        return f"LinearMap({self.source} -> {self.target}; " + "; ".join(parts) + ")"


class TensorMap(LinearMap):
    """f (x) g kept as its two factors. The Kronecker entries are built on
    first read and then kept as the store."""

    __slots__ = ("factors",)

    def __init__(self, f: LinearMap, g: LinearMap):
        self.source = tensor_space(f.source, g.source)
        self.target = tensor_space(f.target, g.target)
        self.factors = (f, g)
        self._raw = self._cols = self._rows = None

    def raw_entries(self) -> dict:
        if self._raw is None:
            # products of nonzero field elements: no zero to drop
            f, g = self.factors
            gs, gt = g.source.dim, g.target.dim
            mul = self.source.field.ops.mul
            g_entries = g.raw_entries().items()
            self._raw = {
                (i1 * gt + i2, j1 * gs + j2): mul(v1, v2)
                for (i1, j1), v1 in f.raw_entries().items()
                for (i2, j2), v2 in g_entries
            }
        return self._raw


def _is_identity(f: LinearMap) -> bool:
    raw = f.raw_entries()
    if len(raw) != f.source.dim or not f.source.same_basis(f.target):
        return False
    one = f.source.field.value(1)
    return all(i == j and v == one for (i, j), v in raw.items())


def _kron_nnz(f: LinearMap) -> int:
    """The number of entries of f as a plain map; for a TensorMap the
    product of its factors' counts, so its Kronecker entries are not built."""
    if isinstance(f, TensorMap):
        return prod(_kron_nnz(x) for x in f.factors)
    return len(f.raw_entries())


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix product f.g (apply g first). Of two factored operands whose
    factor shapes differ, the one with the larger Kronecker product is taken
    apart and the other materialised."""
    if not f.source.same_basis(g.target):
        raise ShapeMismatch(f"cannot compose {f.source} after {g.target}")
    ops = g.source.field.ops
    if isinstance(g, TensorMap):
        if isinstance(f, TensorMap) and all(
            a.source.same_basis(b.target) for a, b in zip(f.factors, g.factors)
        ):
            return TensorMap(*(compose(a, b) for a, b in zip(f.factors, g.factors)))
        if not isinstance(f, TensorMap) or _kron_nnz(g) >= _kron_nnz(f):
            return LinearMap._from_raw(g.source, f.target, _contract(f.raw_entries(), 1, g, 1, ops))
    return LinearMap._from_raw(g.source, f.target, _contract(g.raw_entries(), 0, f, 1, ops))


def compose_all(*maps: LinearMap) -> LinearMap:
    result = maps[0]
    for m in maps[1:]:
        result = compose(result, m)
    return result


def _contract(entries: dict, axis: int, f: LinearMap, right: int, ops) -> dict:
    """The raw entries of a map m whose coordinate ``axis`` runs over
    L (x) X (x) R, with R of dimension ``right``, contracted with f in the X
    slot: on the rows (axis 0, X = f.source) this is (id_L (x) f (x) id_R) . m,
    on the columns (axis 1, X = f.target) m . (id_L (x) f (x) id_R). A
    TensorMap is applied factor by factor and identity factors are skipped,
    so no Kronecker product is built."""
    if isinstance(f, TensorMap):
        a, b = f.factors
        inner = b.source.dim if axis == 0 else b.target.dim
        entries = _contract(entries, axis, a, inner * right, ops)
        return _contract(entries, axis, b, right, ops)
    if _is_identity(f):
        return entries
    if axis == 0:
        return _through_slot(entries, 0, f._raw_columns(), f.source.dim, f.target.dim, right, ops)
    return _through_slot(entries, 1, f._raw_rows(), f.target.dim, f.source.dim, right, ops)


def _through_slot(
    entries: dict, axis: int, moves: dict, mid: int, mid_new: int, right: int, ops
) -> dict:
    """Re-index coordinate ``axis`` (0: rows, 1: columns) of sparse raw
    entries over L (x) X (x) R through ``moves`` (x -> [(y, raw value)]),
    giving the entries over L (x) Y (x) R with each value multiplied in."""
    add, mul = ops.add, ops.mul
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
            out[k] = mul(fv, gv) if acc is None else add(acc, mul(fv, gv))
    return out


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
    """Reorder tensor factors: output factor i is input factor perm[i],
    materialised entry by entry. The package builds its reorderings from
    ``flip_map`` in tensor slots; this stays as the tests' reference and
    because the benchmark's per-layer metrics name it."""
    dims = [s.dim for s in factors]
    entries = {}
    # product() runs through the multi-indices in the order of the flat basis
    for flat, idx in enumerate(product(*map(range, dims))):
        out = 0
        for p in perm:
            out = out * dims[p] + idx[p]
        entries[(out, flat)] = 1
    return LinearMap(tensor_space(*factors), tensor_space(*[factors[p] for p in perm]), entries)


def flip_map(x: BasedSpace, y: BasedSpace) -> LinearMap:
    """The symmetric vector-space flip x (tensor) y -> y (tensor) x."""
    entries = {}
    for i in range(x.dim):
        for j in range(y.dim):
            entries[(j * x.dim + i, i * y.dim + j)] = 1
    return LinearMap(tensor_space(x, y), tensor_space(y, x), entries)


def _rref(entries, ops) -> dict[int, dict]:
    """Sparse Gauss-Jordan elimination of the ((row, col), raw value) entries
    of a matrix (no zeros). Returns the reduced row echelon form as {pivot
    col: row}, each row {col: raw value} without its leading 1 and zero in
    every other pivot column; the form is unique, so it does not depend on
    the row order."""
    mul, inverse = ops.mul, ops.inverse
    rows: dict[int, dict] = {}
    for (i, j), v in entries:
        rows.setdefault(i, {})[j] = v
    reduced: dict[int, dict] = {}
    for row in rows.values():
        for c in [c for c in row if c in reduced]:
            _eliminate(row, c, reduced[c], ops)
        if not row:
            continue
        p = min(row)
        inv = inverse(row.pop(p))
        row = {k: mul(v, inv) for k, v in row.items()}
        for other in reduced.values():
            if p in other:
                _eliminate(other, p, row, ops)
        reduced[p] = row
    return reduced


def _eliminate(row: dict, c: int, pivot_row: dict, ops):
    """row -= row[c] * (e_c + pivot_row), dropping zeros."""
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    factor = ops.neg(row.pop(c))
    for k, v in pivot_row.items():
        old = row.get(k)
        new = mul(factor, v) if old is None else add(old, mul(factor, v))
        if is_zero(new):
            del row[k]
        else:
            row[k] = new


def _kernel(f: LinearMap) -> list[dict]:
    """The reduced-echelon kernel basis of f as sparse raw vectors {coord: value}."""
    ops = f.source.field.ops
    reduced = _rref(f.raw_entries().items(), ops)
    one, neg = f.source.field.value(1), ops.neg
    return [
        {c: one, **{p: neg(row[c]) for p, row in reduced.items() if c in row}}
        for c in range(f.source.dim) if c not in reduced
    ]


def equalizer(f: LinearMap, g: LinearMap) -> tuple[BasedSpace, LinearMap]:
    """Equalizer of parallel maps: (E, inclusion) with E = ker(f - g)."""
    f._check_parallel(g)
    basis = _kernel(f - g)
    labels = tuple(f"e{k}" for k in range(len(basis)))
    space = BasedSpace(f"eq({f.source.name})", labels, f.source.field)
    entries = {(i, k): v for k, vec in enumerate(basis) for i, v in vec.items()}
    return space, LinearMap._from_raw(space, f.source, entries)


def solve_linear(a: LinearMap, b: LinearMap) -> LinearMap:
    """Exact solution x of a.x = b, or NoSolution.

    When the system is underdetermined, free coordinates are set to zero,
    which makes the result deterministic.
    """
    if not a.target.same_basis(b.target):
        raise ShapeMismatch("solve: targets differ")
    na = a.source.dim
    rhs = [((i, na + j), v) for (i, j), v in b.raw_entries().items()]
    reduced = _rref([*a.raw_entries().items(), *rhs], a.source.field.ops)
    if any(c >= na for c in reduced):
        raise NoSolution("inconsistent linear system")
    entries = {(c, j - na): v for c, row in reduced.items() for j, v in row.items() if j >= na}
    return LinearMap._from_raw(b.source, a.source, entries)


def invert(f: LinearMap) -> LinearMap:
    """Two-sided matrix inverse of a square map, or NoSolution."""
    if f.source.dim != f.target.dim:
        raise ShapeMismatch("only square maps can be inverted")
    g = solve_linear(f, LinearMap.identity(f.target))
    if compose(g, f) != LinearMap.identity(f.source):
        raise NoSolution("map is singular")
    return g
