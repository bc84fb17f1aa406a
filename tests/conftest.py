import pytest
from hypothesis import settings

from hopfcleft.errors import NotInvertible
from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import cyclic_group_hopf, quantum_line, quantum_line_grading
from hopfcleft.lifting import GradedYDHopf, bosonize
from hopfcleft import linalg
from hopfcleft.linalg import LinearMap, TensorMap, tensor_space
from hopfcleft.report import CheckItem

# no per-example deadline: the exact arithmetic is slow on a slow host, and a
# deadline turns that into a flaky failure; no example database, so a run
# leaves no saved examples in the checkout
settings.register_profile("hopfcleft", deadline=None, database=None)
settings.load_profile("hopfcleft")


def column(m, j: int) -> dict:
    """Column j of m as {row: Scalar}."""
    return {i: v for (i, jj), v in m.entries.items() if jj == j}


def kron(*maps):
    """Reference Kronecker product f1 (x) f2 (x) ... on the lexicographic
    tensor basis, built entry by entry as a plain LinearMap. A chain composed
    of these runs through the plain matrix product, never through the
    factored maps or the slot kernel that the references check."""
    first = maps[0]
    result = LinearMap(first.source, first.target, first.entries)
    for g in maps[1:]:
        gs, gt = g.source.dim, g.target.dim
        entries = {
            (i1 * gt + i2, j1 * gs + j2): v1 * v2
            for (i1, j1), v1 in result.entries.items()
            for (i2, j2), v2 in g.entries.items()
        }
        result = LinearMap(
            tensor_space(result.source, g.source), tensor_space(result.target, g.target), entries)
    return result


# -- Scalar-only references for the raw-value kernels -------------------------
# They read only ``entries`` of their operands and multiply Scalar by Scalar,
# so they share no code with the kernels they check. Pass them plain maps:
# the Kronecker entries of a TensorMap are themselves a kernel result.


def ref_compose(f, g):
    """Reference matrix product f.g, entry by entry."""
    zero = f.source.field.zero()
    g_rows: dict = {}
    for (k, j), v in g.entries.items():
        g_rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), fv in f.entries.items():
        for j, gv in g_rows.get(k, ()):
            out[(i, j)] = out.get((i, j), zero) + fv * gv
    return LinearMap(g.source, f.target, out)


def ref_convolution(f, g, c, a):
    """Reference f * g = mul (f (x) g) comul."""
    return ref_compose(a.mul, ref_compose(kron(f, g), c.comul))


def ref_map_equal_item(name, lhs, rhs):
    """Reference for ``report.map_equal_item``: the witness is the least key
    of the Scalar difference lhs - rhs, built entry by entry."""
    left, right = lhs.entries, rhs.entries
    zero = lhs.source.field.zero()
    diff = {k: left.get(k, zero) - right.get(k, zero) for k in left.keys() | right.keys()}
    differing = [k for k, v in diff.items() if not v.is_zero()]
    if not differing:
        return CheckItem(name, True)
    (i, j) = min(differing)
    return CheckItem(name, False, (
        f"at {lhs.source.labels[j]} -> {lhs.target.labels[i]}: "
        f"{left.get((i, j), zero)} != {right.get((i, j), zero)}"))


def dense_rref(rows):
    """Reference: dense in-place Gauss-Jordan over Scalars, returning (rows,
    pivot columns)."""
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_convolution_inverse(f, c, a):
    """Reference convolution inverse: the system f * g = unit assembled from
    the reference convolutions f * e_ij with every one-entry map, solved by
    dense Gauss-Jordan with free unknowns zero, then the left identity
    g * f = unit checked. Raises NotInvertible like the kernel."""
    na, nc = a.space.dim, c.space.dim
    field = a.field
    n = na * nc  # unknown g[i, j] is column i * nc + j; the right-hand side is column n
    unit = ref_compose(a.unit, c.counit)
    rows = [[field.zero()] * (n + 1) for _ in range(n)]
    for i in range(na):
        for j in range(nc):
            e_ij = LinearMap(c.space, a.space, {(i, j): field.one()})
            for (r, s), v in ref_convolution(f, e_ij, c, a).entries.items():
                rows[r * nc + s][i * nc + j] = v
    for (r, s), v in unit.entries.items():
        rows[r * nc + s][n] = v
    rows, pivots = dense_rref(rows)
    if n in pivots:
        raise NotInvertible("no right convolution inverse")
    g = LinearMap(c.space, a.space, {divmod(p, nc): rows[k][n] for k, p in enumerate(pivots)})
    if ref_convolution(g, f, c, a) != unit:
        raise NotInvertible("right inverse is not a left inverse")
    return g


def ref_braided_product(f, a, b, c_ba):
    """Reference (mul_A (x) mul_B)(id (x) c_{B,A} (x) id)(f (x) f), through
    Kronecker products."""
    middle = kron(LinearMap.identity(a.space), c_ba, LinearMap.identity(b.space))
    return ref_compose(kron(a.mul, b.mul), ref_compose(middle, kron(f, f)))


def count_field_muls(monkeypatch) -> list:
    """Count every multiplication of field elements until ``monkeypatch``
    is undone: each field's ``ops`` reads as a copy whose raw ``mul``
    counts. The kernels and ``Scalar`` share those ops, so every product is
    counted once, wherever it runs. Returns a one-element list, the count."""
    calls = [0]
    build = FieldSpec.__dict__["ops"].func
    counted = {}

    def counted_ops(field):
        if field not in counted:
            ops = build(field)

            def mul(a, b):
                calls[0] += 1
                return ops.mul(a, b)

            counted[field] = ops._replace(mul=mul)
        return counted[field]

    # a property is a data descriptor, so it also hides the ops each field
    # has already cached in its instance dict
    monkeypatch.setattr(FieldSpec, "ops", property(counted_ops))
    return calls


def record_map_sizes(monkeypatch) -> list:
    """Record the size of every map built until ``monkeypatch`` is undone:
    a map checked by ``LinearMap.__init__``, a kernel result built by the
    trusted ``LinearMap._from_raw``, the Kronecker entries of a
    ``TensorMap`` once read, and every intermediate of a slot contraction
    (``_through_slot``). Returns a one-element list, the largest entry count
    seen; set it to 0 to start a new measurement."""
    largest = [0]
    init, from_raw = LinearMap.__init__, LinearMap._from_raw
    kron_entries, through_slot = TensorMap.raw_entries, linalg._through_slot

    def seen(n):
        largest[0] = max(largest[0], n)

    def counting_init(self, source, target, entries=None):
        init(self, source, target, entries)
        seen(len(self.entries))

    def counting_from_raw(source, target, raw):
        m = from_raw(source, target, raw)
        seen(len(m.raw_entries()))
        return m

    def counting_kron(self):
        raw = kron_entries(self)
        seen(len(raw))
        return raw

    def counting_slot(*args):
        out = through_slot(*args)
        seen(len(out))
        return out

    monkeypatch.setattr(LinearMap, "__init__", counting_init)
    monkeypatch.setattr(LinearMap, "_from_raw", staticmethod(counting_from_raw))
    monkeypatch.setattr(TensorMap, "raw_entries", counting_kron)
    monkeypatch.setattr(linalg, "_through_slot", counting_slot)
    return largest


@pytest.fixture(scope="session")
def rationals():
    return FieldSpec.rationals()


@pytest.fixture(scope="session")
def f3():
    return FieldSpec.prime_field(3)


@pytest.fixture(scope="session")
def f5():
    return FieldSpec.prime_field(5)


@pytest.fixture(scope="session")
def zeta4():
    return FieldSpec.cyclotomic(4)


@pytest.fixture(scope="session")
def kc2_q(rationals):
    return cyclic_group_hopf(rationals, 2)


@pytest.fixture(scope="session")
def kc2_f3(f3):
    return cyclic_group_hopf(f3, 2)


@pytest.fixture(scope="session")
def kc4_f5(f5):
    return cyclic_group_hopf(f5, 4)


@pytest.fixture(scope="session")
def kc4_zeta4(zeta4):
    return cyclic_group_hopf(zeta4, 4)


@pytest.fixture(scope="session")
def qline_f3(kc2_f3):
    return GradedYDHopf(quantum_line(kc2_f3), quantum_line_grading())


@pytest.fixture(scope="session")
def qline_f5(kc4_f5):
    return GradedYDHopf(quantum_line(kc4_f5), quantum_line_grading())


@pytest.fixture(scope="session")
def boson4(qline_f3):
    return bosonize(qline_f3)


@pytest.fixture(scope="session")
def boson8(qline_f5):
    return bosonize(qline_f5)
