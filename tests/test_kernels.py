"""The raw-value kernels against the Scalar-only references in conftest.

Every kernel result is compared with its reference over F_5, Q and Q(zeta_n)
for n in {3, 4, 8}. Both must keep the one-store invariants: no stored zero
(``LinearMap.__eq__`` compares entry dicts, so one would flip a verdict), and
``entries`` a Scalar view of ``raw_entries()`` that leaves the store in place.
"""

import cmath
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfcleft.errors import NotInvertible
from hopfcleft.fields import FieldSpec, Scalar
from hopfcleft.fixtures import cyclic_group_hopf
from hopfcleft.hopf import (
    AlgebraData,
    CoalgebraData,
    braided_product,
    convolution,
    convolution_inverse,
)
from hopfcleft.linalg import (
    BasedSpace,
    LinearMap,
    compose,
    tensor_map,
    tensor_maps,
    tensor_space,
    unit_space,
)
from hopfcleft.report import CheckItem, map_equal_item

from conftest import (
    entry_at,
    kron,
    ref_braided_product,
    ref_compose,
    ref_convolution,
    ref_convolution_inverse,
    ref_map_equal_item,
    scalar_is_zero,
    scalar_of,
    zero_scalar,
)

FIELDS = (
    FieldSpec.prime_field(5),
    FieldSpec.rationals(),
    *(FieldSpec.cyclotomic(n) for n in (3, 4, 8)),
)
KERNEL_SETTINGS = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow])


def _values(field):
    small = st.integers(min_value=-2, max_value=2)
    if field.kind == "prime":
        values = small
    elif field.kind == "rationals":
        values = st.builds(Fraction, small, st.integers(min_value=1, max_value=3))
    else:
        values = st.lists(small, min_size=field.degree, max_size=field.degree)
    # many zeros: sparse maps, and sums that cancel
    return st.one_of(st.just(0), values).map(lambda x: scalar_of(field, x))


def _space(data, field, name, max_dim=3):
    dim = data.draw(st.integers(min_value=1, max_value=max_dim))
    return BasedSpace(name, [f"{name.lower()}{i}" for i in range(dim)], field)


def _map(data, source, target):
    values = data.draw(st.lists(
        _values(source.field), min_size=source.dim * target.dim,
        max_size=source.dim * target.dim))
    return LinearMap(source, target, {
        divmod(k, source.dim): v for k, v in enumerate(values) if not scalar_is_zero(v)})


def _assert_one_store(m):
    field = m.source.field
    raw = m.raw_entries()
    assert not any(field.ops.is_zero(v) for v in raw.values())
    assert m.entries == {k: Scalar(field, v) for k, v in raw.items()}
    assert m.raw_entries() is raw  # reading the view kept the store
    keys = itertools.product(range(m.target.dim), range(m.source.dim))
    absent = next((k for k in keys if k not in raw), None)
    if absent is not None:
        assert entry_at(m, *absent) == zero_scalar(field)


def _assert_matches(result, reference):
    assert result == reference
    assert result.entries == reference.entries
    _assert_one_store(result)
    _assert_one_store(reference)


@KERNEL_SETTINGS
@given(st.data())
def test_compose_equals_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    p, q, r, s, t = (_space(data, field, name) for name in "PQRST")
    a, b = _map(data, p, q), _map(data, s, t)
    ab, ab_ref = tensor_map(a, b), kron(a, b)
    _assert_matches(ab, ab_ref)  # the Kronecker entries of a factored map
    # plain operands
    f, g = _map(data, q, r), _map(data, r, s)
    _assert_matches(compose(g, f), ref_compose(g, f))
    # sums and negatives, against entrywise Scalar arithmetic
    f2 = _map(data, q, r)
    keys = f.entries.keys() | f2.entries.keys()
    _assert_matches(f + f2, LinearMap(q, r, {k: entry_at(f, *k) + entry_at(f2, *k) for k in keys}))
    _assert_matches(-f, LinearMap(q, r, {k: -v for k, v in f.entries.items()}))
    # a factored operand on either side
    h = _map(data, tensor_space(q, t), r)
    _assert_matches(compose(h, ab), ref_compose(h, ab_ref))
    k = _map(data, r, tensor_space(p, s))
    _assert_matches(compose(ab, k), ref_compose(ab_ref, k))
    # two factored operands with matching factor shapes stay factored
    c, d = _map(data, q, r), _map(data, t, p)
    _assert_matches(compose(tensor_map(c, d), ab), ref_compose(kron(c, d), ab_ref))
    # and with different factor shapes, (Q (x) T) (x) P after P (x) (S (x) P)
    id_p = LinearMap.identity(p)
    h = _map(data, tensor_space(q, t), r)
    _assert_matches(
        compose(tensor_map(h, id_p), tensor_map(a, tensor_map(b, id_p))),
        ref_compose(kron(h, id_p), kron(a, b, id_p)))
    # a slot application id_P (x) f (x) id_S
    x = _map(data, r, tensor_space(p, q, s))
    ids = [LinearMap.identity(p), LinearMap.identity(s)]
    _assert_matches(
        compose(tensor_maps(ids[0], f, ids[1]), x),
        ref_compose(kron(ids[0], f, ids[1]), x))


def _random_coalgebra(data, field):
    c = _space(data, field, "C")
    return CoalgebraData(c, _map(data, c, tensor_space(c, c)), _map(data, c, unit_space(field)))


def _random_algebra(data, field, name="A", max_dim=3):
    a = _space(data, field, name, max_dim)
    return AlgebraData(a, _map(data, tensor_space(a, a), a), _map(data, unit_space(field), a))


@KERNEL_SETTINGS
@given(st.data())
def test_convolution_equals_the_reference(data):
    # structure constants need no axioms for f * g = mul (f (x) g) comul
    field = data.draw(st.sampled_from(FIELDS))
    c, a = _random_coalgebra(data, field), _random_algebra(data, field)
    for _ in range(2):  # the second call reuses the comultiplication index
        f, g = _map(data, c.space, a.space), _map(data, c.space, a.space)
        _assert_matches(convolution(f, g, c, a), ref_convolution(f, g, c, a))


def _inverse_or_message(solver, f, c, a):
    try:
        return solver(f, c, a)
    except NotInvertible as exc:
        return str(exc)


@KERNEL_SETTINGS
@given(st.data())
def test_convolution_inverse_equals_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    if data.draw(st.booleans()):
        # a group algebra: f is invertible when every f(g) is a unit
        h = cyclic_group_hopf(field, data.draw(st.integers(min_value=1, max_value=3)))
        c, a = h.coalg, h.alg
    else:
        c, a = _random_coalgebra(data, field), _random_algebra(data, field)
    f = _map(data, c.space, a.space)
    got = _inverse_or_message(convolution_inverse, f, c, a)
    want = _inverse_or_message(ref_convolution_inverse, f, c, a)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_matches(got, want)


@KERNEL_SETTINGS
@given(st.data())
def test_braided_product_equals_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a, b = (_random_algebra(data, field, name, max_dim=2) for name in "AB")
    x = _space(data, field, "X", max_dim=2)
    f = _map(data, x, tensor_space(a.space, b.space))
    c_ba = _map(data, tensor_space(b.space, a.space), tensor_space(a.space, b.space))
    _assert_matches(braided_product(f, a, b, c_ba), ref_braided_product(f, a, b, c_ba))


@KERNEL_SETTINGS
@given(st.data())
def test_map_equal_item_equals_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    p, q = _space(data, field, "P"), _space(data, field, "Q")
    lhs = _map(data, p, q)
    # rhs keeps or redraws each entry of lhs: keys on one side only, keys on
    # both sides with different values, and often no difference at all
    values = _values(field)
    rhs_entries = {}
    for key in itertools.product(range(q.dim), range(p.dim)):
        v = entry_at(lhs, *key) if data.draw(st.booleans()) else data.draw(values)
        if not scalar_is_zero(v):
            rhs_entries[key] = v
    rhs = LinearMap(p, q, rhs_entries)
    assert map_equal_item("relation", lhs, rhs) == ref_map_equal_item("relation", lhs, rhs)


_F5, _Q, _Z4 = FieldSpec.prime_field(5), FieldSpec.rationals(), FieldSpec.cyclotomic(4)


def _product_source():
    u = BasedSpace("U", ["u0", "u1"], _F5)
    return tensor_space(u, BasedSpace("V", ["v0", "v1", "v2"], _F5))


# (source, left, right, witness): the first differing entry is stored on both
# sides, then on one side only, where the other side prints its zero
WITNESSES = {
    "F_5 both": (_F5, {(0, 1): 2, (1, 0): 1}, {(0, 1): 3}, "at b -> x: 2 != 3"),
    "F_5 one side": (_F5, {(1, 0): 4}, {}, "at a -> y: 4 != 0"),
    "Q both": (_Q, {(0, 0): Fraction(1, 2)}, {(0, 0): -3}, "at a -> x: 1/2 != -3"),
    "Q one side": (_Q, {}, {(1, 1): Fraction(-1, 3)}, "at b -> y: 0 != -1/3"),
    "Q(zeta_4) both": (_Z4, {(1, 0): [0, 1]}, {(1, 0): [1, 1]}, "at a -> y: [0, 1] != [1, 1]"),
    "Q(zeta_4) one side": (_Z4, {}, {(0, 1): [2, -1]}, "at b -> x: [0, 0] != [2, -1]"),
    "product both": (_product_source, {(1, 4): 1}, {(1, 4): 2}, "at u1.v1 -> y: 1 != 2"),
    "product one side": (_product_source, {(0, 5): 3, (1, 2): 1}, {(1, 2): 1},
                         "at u1.v2 -> x: 3 != 0"),
}


@pytest.mark.parametrize("case", WITNESSES)
def test_map_equal_item_prints_the_witness_from_the_raw_entries(case):
    """The witness names the first differing entry by its two labels and
    prints both values as the file format does, zero for an entry one side
    does not store; a product's labels are spelled one at a time, never all
    joined."""
    source, left, right, witness = WITNESSES[case]
    source = source() if callable(source) else BasedSpace("S", ["a", "b"], source)
    target = BasedSpace("T", ["x", "y"], source.field)
    lhs, rhs = LinearMap(source, target, left), LinearMap(source, target, right)
    assert map_equal_item("relation", lhs, rhs) == CheckItem("relation", False, witness)
    assert map_equal_item("relation", lhs, lhs) == CheckItem("relation", True)
    if source.factors:
        assert source._labels is None


def _model(field, value):
    """An independent model of a raw value: the residue mod p, the Fraction,
    or the complex number sum c_k zeta^k with zeta = exp(2 pi i / n)."""
    if field.kind == "cyclotomic":
        zeta = cmath.exp(2j * cmath.pi / field.n)
        return sum(complex(c) * zeta ** k for k, c in enumerate(value))
    return value


def _close(field, x, y):
    if field.kind == "cyclotomic":
        return abs(x - y) < 1e-9 * (1 + abs(x) + abs(y))
    if field.kind == "prime":
        return (x - y) % field.p == 0
    return x == y


@settings(max_examples=200)
@given(st.data())
def test_field_ops_agree_with_scalar_and_an_independent_model(data):
    field = data.draw(st.sampled_from(FIELDS))
    x, y = data.draw(_values(field)), data.draw(_values(field))
    ops = field.ops
    a, b = x.value, y.value
    assert ops.add(a, b) == (x + y).value
    assert ops.mul(a, b) == (x * y).value
    assert ops.neg(a) == (-x).value
    assert ops.is_zero(a) == scalar_is_zero(x)
    assert _close(field, _model(field, ops.add(a, b)), _model(field, a) + _model(field, b))
    assert _close(field, _model(field, ops.mul(a, b)), _model(field, a) * _model(field, b))
    assert _close(field, _model(field, ops.neg(a)), -_model(field, a))
    if not scalar_is_zero(x):
        assert ops.inverse(a) == x.inverse().value
        assert _close(field, _model(field, ops.inverse(a)) * _model(field, a), 1)
