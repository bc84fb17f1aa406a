from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfcleft.errors import NoSolution, ShapeMismatch
from hopfcleft.fields import FieldSpec, Scalar
from hopfcleft.linalg import (
    BasedSpace,
    LinearMap,
    TensorMap,
    _kernel,
    _rref,
    based_space,
    compose,
    equalizer,
    flip_map,
    invert,
    permutation_map,
    solve_linear,
    tensor_map,
    tensor_maps,
    tensor_space,
    unit_space,
)

from conftest import dense_rref, kron

F5 = FieldSpec.prime_field(5)

U = based_space("U", ["u0", "u1"], F5)
V = based_space("V", ["v0", "v1", "v2"], F5)
W = based_space("W", ["w0", "w1"], F5)


def kernel_basis(f: LinearMap) -> list[list[Scalar]]:
    """Reduced-echelon kernel basis (as coordinate vectors in f.source)."""
    field = f.source.field
    zero = field.zero().value
    return [[Scalar(field, vec.get(i, zero)) for i in range(f.source.dim)] for vec in _kernel(f)]


def nullity(f: LinearMap) -> int:
    return f.source.dim - len(_rref(f.raw_entries().items(), f.source.field.ops))


def maps_between(source, target):
    n = source.dim * target.dim
    return st.lists(
        st.integers(min_value=0, max_value=4), min_size=n, max_size=n,
    ).map(lambda vals: LinearMap(source, target, {
        (i, j): F5.scalar(v)
        for k, v in enumerate(vals)
        for i, j in [divmod(k, source.dim)]
        if v
    }))


@settings(max_examples=40)
@given(maps_between(U, V), maps_between(V, W), maps_between(W, U))
def test_compose_associativity(f, g, h):
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


@settings(max_examples=40)
@given(maps_between(U, V))
def test_identity_laws(f):
    assert compose(LinearMap.identity(V), f) == f
    assert compose(f, LinearMap.identity(U)) == f


@settings(max_examples=25)
@given(maps_between(U, V), maps_between(V, W), maps_between(U, W), maps_between(W, U))
def test_tensor_functoriality(f, g, h, k):
    # (g . f) (x) (k ... ) interchange: tensor of composites = composite of tensors
    lhs = tensor_map(compose(g, f), compose(h, k))
    rhs = compose(tensor_map(g, h), tensor_map(f, k))
    assert lhs == rhs


@settings(max_examples=25)
@given(maps_between(U, V), maps_between(W, U))
def test_flip_naturality(f, g):
    lhs = compose(flip_map(V, U), tensor_map(f, g))
    rhs = compose(tensor_map(g, f), flip_map(U, W))
    assert lhs == rhs


def test_tensor_space_is_strict_monoidal():
    one = unit_space(F5)
    assert tensor_space(one, V).same_basis(V)
    assert tensor_space(V, one).same_basis(V)
    uvw = tensor_space(tensor_space(U, V), W)
    assert uvw.same_basis(tensor_space(U, tensor_space(V, W)))
    assert uvw.labels[0] == "u0.v0.w0"


def test_permutation_map_composes_to_identity():
    factors = [U, V, W]
    forward = permutation_map(factors, [2, 0, 1])
    back = permutation_map([W, U, V], [1, 2, 0])
    assert compose(back, forward) == LinearMap.identity(tensor_space(U, V, W))


def test_permutation_map_matches_flip():
    assert permutation_map([U, V], [1, 0]) == flip_map(U, V)


@settings(max_examples=40)
@given(maps_between(V, W))
def test_rank_nullity(f):
    assert nullity(f) + (V.dim - nullity(f)) == V.dim
    ker = kernel_basis(f)
    assert len(ker) == nullity(f)
    for vec in ker:
        image = {
            i: sum((f[(i, j)] * vec[j] for j in range(V.dim)), F5.zero())
            for i in range(W.dim)
        }
        assert all(v.is_zero() for v in image.values())


@settings(max_examples=40)
@given(maps_between(V, V))
def test_invert_round_trip(f):
    try:
        g = invert(f)
    except NoSolution:
        assert nullity(f) > 0
        return
    assert compose(g, f) == LinearMap.identity(V)
    assert compose(f, g) == LinearMap.identity(V)


@settings(max_examples=40)
@given(maps_between(V, W), maps_between(V, W))
def test_equalizer_property(f, g):
    space, iota = equalizer(f, g)
    assert compose(f, iota) == compose(g, iota)
    assert space.dim == nullity(f - g)


@settings(max_examples=40)
@given(maps_between(V, W), maps_between(U, V))
def test_solve_linear(a, x):
    b = compose(a, x)
    sol = solve_linear(a, b)
    assert compose(a, sol) == b


def test_solve_linear_no_solution():
    a = LinearMap(V, W, {(0, 0): F5.one()})
    b = LinearMap(U, W, {(1, 0): F5.one()})
    with pytest.raises(NoSolution):
        solve_linear(a, b)


def test_factor_through_injection():
    iota = LinearMap(U, V, {(0, 0): F5.one(), (2, 1): F5.scalar(2)})
    g = LinearMap(W, V, {(0, 0): F5.scalar(3), (2, 1): F5.scalar(4)})
    h = solve_linear(iota, g)
    assert compose(iota, h) == g


def test_shape_mismatch_rejected():
    f = LinearMap(U, V, {})
    g = LinearMap(U, V, {})
    with pytest.raises(ShapeMismatch):
        compose(f, g)
    with pytest.raises(ShapeMismatch):
        LinearMap(U, V, {(5, 0): F5.one()})


def test_entries_drop_zeros():
    f = LinearMap(U, V, {(0, 0): F5.zero(), (1, 1): F5.one()})
    assert (0, 0) not in f.entries
    assert f.raw_entries()


@settings(max_examples=20)
@given(maps_between(U, V), maps_between(V, W))
def test_column_and_row_groupings_are_built_once(f, g):
    """The kernels' groupings of a map's store are kept on the map, so a
    structure map composed or convolved many times is grouped once."""
    for m in (f, tensor_map(f, g)):
        cols, rows = m._raw_columns(), m._raw_rows()
        assert m._raw_columns() is cols and m._raw_rows() is rows
        assert {(i, j): v for j, col in cols.items() for i, v in col} == m.raw_entries()
        assert {(i, j): v for i, row in rows.items() for j, v in row} == m.raw_entries()


def test_from_labels_sums_duplicates():
    triples = [("v0", "u0", F5.scalar(2)), ("v0", "u0", F5.scalar(3))]
    assert not LinearMap.from_labels(U, V, triples).raw_entries()


def test_maps_store_the_normalized_value_of_each_entry():
    """__init__ and from_labels store FieldSpec.value of each entry, so a raw
    value and a Scalar of the field give the same map; zeros are dropped."""
    raw = LinearMap(U, V, {(0, 0): 6, (1, 1): Fraction(1, 2), (2, 0): 5})
    wrapped = LinearMap(U, V, {(0, 0): F5.scalar(1), (1, 1): F5.scalar(3)})
    assert raw == wrapped and raw.raw_entries() == {(0, 0): 1, (1, 1): 3}
    triples = [("v0", "u0", 6), ("v1", "u1", F5.scalar(3)), ("v2", "u0", 2), ("v2", "u0", 3)]
    assert LinearMap.from_labels(U, V, triples) == wrapped
    z4 = FieldSpec.cyclotomic(4)
    x = based_space("X", ["x0", "x1"], z4)
    assert LinearMap.identity(x).raw_entries() == {(0, 0): (1, 0), (1, 1): (1, 0)}
    assert LinearMap(x, x, {(0, 1): [0, 0, 1]}).raw_entries() == {(0, 1): (-1, 0)}
    with pytest.raises(ValueError, match="0.5 is not a value of F_5"):
        LinearMap(U, V, {(0, 0): 0.5})


def test_based_space_requires_distinct_labels():
    with pytest.raises(Exception):
        BasedSpace("bad", ("a", "a"), F5)


Q = FieldSpec.rationals()


def _slot_spaces(field):
    a = based_space("A", ["a0", "a1"], field)
    b = based_space("B", ["b0", "b1", "b2"], field)
    return [unit_space(field), a, b, tensor_space(a, a)]


@st.composite
def _sparse_map(draw, source, target):
    field = source.field
    value = (st.integers(-2, 2) if field == F5 else
             st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    n = source.dim * target.dim
    vals = draw(st.lists(value, min_size=n, max_size=n))
    return LinearMap(source, target, {
        divmod(k, source.dim): field.scalar(v) for k, v in enumerate(vals) if v})


@st.composite
def _slot_case(draw):
    """(L, f, R, g, h) with g landing in L (x) f.source (x) R and h leaving
    L (x) f.target (x) R; L, R and the slot may be the unit space."""
    field = draw(st.sampled_from([F5, Q]))
    spaces = _slot_spaces(field)
    left, right, x, y = (draw(st.sampled_from(spaces)) for _ in range(4))
    outer = draw(st.sampled_from(spaces[1:3]))
    f = draw(_sparse_map(x, y))
    g = draw(_sparse_map(outer, tensor_space(left, x, right)))
    h = draw(_sparse_map(tensor_space(left, y, right), outer))
    return left, f, right, g, h


@settings(derandomize=True, max_examples=80)
@given(_slot_case())
def test_slot_kernel_matches_the_kronecker_product(case):
    left, f, right, g, h = case
    middle = kron(LinearMap.identity(left), f, LinearMap.identity(right))
    padded = tensor_maps(LinearMap.identity(left), f, LinearMap.identity(right))
    assert compose(padded, g) == compose(middle, g)
    assert compose(h, padded) == compose(h, middle)


@st.composite
def _factor(draw, field, spaces):
    """A factor map X -> Y: sparse, an identity, or itself a tensor_map of two
    (then nested), over atomic, tensor or unit spaces."""
    kind = draw(st.sampled_from(["sparse", "sparse", "identity", "nested"]))
    if kind == "identity":
        x = draw(st.sampled_from(spaces))
        return LinearMap.identity(x), LinearMap.identity(x)
    if kind == "nested":
        (f, kf), (g, kg) = (draw(_factor(field, spaces[:2])) for _ in range(2))
        return tensor_map(f, g), kron(kf, kg)
    x, y = (draw(st.sampled_from(spaces)) for _ in range(2))
    f = draw(_sparse_map(x, y))
    return f, f


@st.composite
def _factored_case(draw):
    """(factored, reference): tensor_map(f, g) and kron of the same factors."""
    field = draw(st.sampled_from([F5, Q]))
    spaces = _slot_spaces(field)
    (f, kf), (g, kg) = (draw(_factor(field, spaces)) for _ in range(2))
    return field, spaces, tensor_map(f, g), kron(kf, kg)


@settings(derandomize=True, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(_factored_case(), st.data())
def test_factored_tensor_map_equals_the_kronecker_product(case, data):
    field, spaces, factored, ref = case
    assert factored == ref and ref == factored
    assert hash(factored) == hash(ref)
    assert str(factored) == str(ref)
    outer = data.draw(st.sampled_from(spaces[1:3]))
    g = data.draw(_sparse_map(outer, factored.source))
    h = data.draw(_sparse_map(factored.target, outer))
    assert compose(factored, g) == compose(ref, g)
    assert compose(h, factored) == compose(h, ref)
    left, right = (data.draw(st.sampled_from(spaces[:2])) for _ in range(2))
    middle = kron(LinearMap.identity(left), ref, LinearMap.identity(right))
    padded = tensor_maps(LinearMap.identity(left), factored, LinearMap.identity(right))
    g2 = data.draw(_sparse_map(outer, middle.source))
    h2 = data.draw(_sparse_map(middle.target, outer))
    assert compose(padded, g2) == compose(middle, g2)
    assert compose(h2, padded) == compose(h2, middle)
    # a factored map on either side of compose: with matching factor shapes
    # the result stays factored, otherwise one side is taken apart
    a, b = factored.factors
    ka = data.draw(_sparse_map(a.target, data.draw(st.sampled_from(spaces))))
    kb = data.draw(_sparse_map(b.target, data.draw(st.sampled_from(spaces))))
    after = compose(tensor_map(ka, kb), factored)
    assert after == compose(kron(ka, kb), ref)
    assert isinstance(after, TensorMap)
    regrouped = tensor_map(
        LinearMap.identity(unit_space(field)), tensor_map(ka, kb))
    assert compose(regrouped, factored) == compose(kron(ka, kb), ref)


def test_slot_kernel_rejects_a_wrong_slot():
    padded = tensor_maps(LinearMap.identity(U), LinearMap.identity(V), LinearMap.identity(W))
    g = LinearMap.identity(tensor_space(U, W))
    with pytest.raises(ShapeMismatch):
        compose(padded, g)
    with pytest.raises(ShapeMismatch):
        compose(g, padded)


def test_tensor_labels_are_the_eager_join():
    uvw = tensor_space(U, V, W)
    assert uvw.dim == U.dim * V.dim * W.dim
    assert uvw.labels == tuple(
        f"{u}.{v}.{w}" for u in U.labels for v in V.labels for w in W.labels)
    assert uvw.index("u1.v2.w0") == uvw.labels.index("u1.v2.w0")


def test_index_reads_the_labels_once(monkeypatch):
    uvw = tensor_space(U, V, W)
    labels = uvw.labels
    reads = []
    getter = BasedSpace.labels.fget
    monkeypatch.setattr(BasedSpace, "labels", property(lambda s: reads.append(s) or getter(s)))
    assert [uvw.index(lab) for lab in labels] == list(range(uvw.dim))
    assert [uvw.index(lab) for lab in reversed(labels)] == list(reversed(range(uvw.dim)))
    assert reads == [uvw]
    # an unknown label is a ValueError, as from tuple.index
    for missing in ("u0.v0", "u0.v0.w9", "1"):
        with pytest.raises(ValueError):
            uvw.index(missing)


class _CountedLabel(str):
    """A label that counts the separator searches made in it."""

    searches = 0

    def __contains__(self, part):
        _CountedLabel.searches += 1
        return super().__contains__(part)


def test_separator_search_is_once_per_atomic_space(monkeypatch):
    monkeypatch.setattr(_CountedLabel, "searches", 0)
    a = based_space("A", [_CountedLabel(f"a{k}") for k in range(4)], F5)
    b = based_space("B", [_CountedLabel(f"b{k}") for k in range(3)], F5)
    assert _CountedLabel.searches == 7
    for _ in range(5):
        ab = tensor_space(a, b)
        tensor_space(ab, a, b)
    assert _CountedLabel.searches == 7
    assert ab.labels == tuple(f"{x}.{y}" for x in a.labels for y in b.labels)


def test_same_basis_between_tensor_and_atomic_spaces():
    uvw = tensor_space(U, V, W)
    # an atomic space never has the joined labels of a product
    with pytest.raises(ValueError):
        BasedSpace("flat", uvw.labels, F5)
    again = tensor_space(tensor_space(U, V), W)
    assert again is not uvw and uvw.same_basis(again) and again.same_basis(uvw)
    other = BasedSpace("other", tuple(f"x{k}" for k in range(uvw.dim)), F5)
    assert not uvw.same_basis(other) and not other.same_basis(uvw)
    assert not uvw.same_basis(tensor_space(V, U, W))
    over_q = (based_space(s.name, s.labels, Q) for s in (U, V, W))
    assert not uvw.same_basis(tensor_space(*over_q))
    # maps that compare equal hash alike
    f = LinearMap(uvw, U, {(1, 3): F5.one()})
    g = LinearMap(again, U, {(1, 3): F5.one()})
    assert f == g and hash(f) == hash(g)


def test_tensor_space_rejects_colliding_joined_labels():
    # "a" + "b.c" and "a.b" + "c" would both join to "a.b.c": an atomic
    # label holding the separator is refused, so joined labels are unique
    with pytest.raises(ValueError, match=r"'a\.b' of P contains '\.'"):
        based_space("P", ["a", "a.b"], F5)
    with pytest.raises(ValueError, match=r"'b\.c' of R contains '\.'"):
        based_space("R", ["b.c", "c"], F5)


# -- the sparse elimination against dense Gauss-Jordan ----------------------

FIELDS = (F5, FieldSpec.rationals(), FieldSpec.cyclotomic(4))


def _dense_rows(f):
    zero = f.source.field.zero()
    rows = [[zero] * f.source.dim for _ in range(f.target.dim)]
    for (i, j), v in f.entries.items():
        rows[i][j] = v
    return rows


def _dense_kernel_basis(f):
    field = f.source.field
    rows, pivots = dense_rref(_dense_rows(f))
    basis = []
    for c in (c for c in range(f.source.dim) if c not in pivots):
        vec = [field.zero()] * f.source.dim
        vec[c] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][c]
        basis.append(vec)
    return basis


def _dense_solve(a, b):
    na = a.source.dim
    rows = [ar + br for ar, br in zip(_dense_rows(a), _dense_rows(b))]
    rows, pivots = dense_rref(rows)
    if any(c >= na for c in pivots):
        raise NoSolution("inconsistent linear system")
    entries = {
        (c, j): rows[r][na + j]
        for r, c in enumerate(pivots) for j in range(b.source.dim)
        if not rows[r][na + j].is_zero()
    }
    return LinearMap(b.source, a.source, entries)


def _scalars(field):
    small = st.integers(min_value=-2, max_value=2)
    if field.kind == "prime":
        values = small
    elif field.kind == "rationals":
        values = st.builds(Fraction, small, st.integers(min_value=1, max_value=3))
    else:
        values = st.lists(small, min_size=2, max_size=2)
    # many zeros, so that the maps are sparse and often rank deficient
    return st.one_of(st.just(0), values).map(field.scalar)


@st.composite
def _systems(draw):
    """(a, b) over one field: a: S -> T rectangular, sometimes a product
    through a smaller space; b: B -> T either a . x (consistent) or random."""
    field = draw(st.sampled_from(FIELDS))
    scalar = _scalars(field)

    def space(name):
        n = draw(st.integers(min_value=1, max_value=5))
        return based_space(name, [f"{name}{k}" for k in range(n)], field)

    def random_map(source, target):
        return LinearMap(source, target, {
            (i, j): v for i in range(target.dim) for j in range(source.dim)
            for v in [draw(scalar)] if not v.is_zero()})

    s, t, rhs = space("s"), space("t"), space("b")
    if draw(st.booleans()):
        inner = based_space("k", [f"k{n}" for n in range(draw(st.integers(1, 2)))], field)
        a = compose(random_map(inner, t), random_map(s, inner))
    else:
        a = random_map(s, t)
    b = compose(a, random_map(rhs, s)) if draw(st.booleans()) else random_map(rhs, t)
    return a, b


@settings(derandomize=True, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(_systems())
def test_sparse_elimination_matches_dense_gauss_jordan(system):
    a, b = system
    try:
        expected = _dense_solve(a, b)
    except NoSolution:
        with pytest.raises(NoSolution):
            solve_linear(a, b)
    else:
        assert solve_linear(a, b) == expected
    for f in (a, b):
        dense = _dense_kernel_basis(f)
        assert kernel_basis(f) == dense
        assert nullity(f) == len(dense)
        _, iota = equalizer(f, LinearMap(f.source, f.target))
        assert iota.entries == {
            (i, k): v for k, vec in enumerate(dense) for i, v in enumerate(vec)
            if not v.is_zero()}
