import pytest

from hopfcleft.errors import NotHopf, NotInvertible
from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import cyclic_group_hopf, non_hopf_bialgebra
from hopfcleft.hopf import (
    antipode,
    braided_product,
    check_bialgebra,
    check_conv_naturality,
    check_hopf,
    convolution,
    convolution_inverse,
    convolution_unit,
    iterated_comul,
    iterated_mul,
)
from hopfcleft.linalg import LinearMap, compose, compose_all, flip_map, tensor_map, tensor_maps


@pytest.mark.parametrize("field,n", [
    ("Q", 2), ("Q", 4), ("F3", 2), ("F5", 4), ("Z4", 4),
])
def test_cyclic_group_hopf_axioms(field, n):
    f = {
        "Q": FieldSpec.rationals(),
        "F3": FieldSpec.prime_field(3),
        "F5": FieldSpec.prime_field(5),
        "Z4": FieldSpec.cyclotomic(4),
    }[field]
    report = check_hopf(cyclic_group_hopf(f, n))
    assert report.ok, str(report)


def test_antipode_solved_from_bialgebra(kc4_f5):
    assert antipode(kc4_f5.bialg) == kc4_f5.antipode


def test_non_hopf_bialgebra(f3):
    b = non_hopf_bialgebra(f3)
    assert check_bialgebra(b).ok
    with pytest.raises(NotHopf):
        antipode(b)
    with pytest.raises(NotInvertible):
        convolution_inverse(LinearMap.identity(b.space), b.coalg, b.alg)


def test_convolution_unit_is_two_sided(kc2_q):
    h = kc2_q
    unit = convolution_unit(h.coalg, h.alg)
    f = h.antipode
    assert convolution(f, unit, h.coalg, h.alg) == f
    assert convolution(unit, f, h.coalg, h.alg) == f


def test_convolution_is_associative(kc4_f5):
    h = kc4_f5
    ident = LinearMap.identity(h.space)
    f, g, k = ident, h.antipode, compose(h.antipode, h.antipode)
    lhs = convolution(convolution(f, g, h.coalg, h.alg), k, h.coalg, h.alg)
    rhs = convolution(f, convolution(g, k, h.coalg, h.alg), h.coalg, h.alg)
    assert lhs == rhs


def test_convolution_inverse_is_two_sided(kc4_f5):
    h = kc4_f5
    unit = convolution_unit(h.coalg, h.alg)
    inv = convolution_inverse(h.antipode, h.coalg, h.alg)
    assert convolution(h.antipode, inv, h.coalg, h.alg) == unit
    assert convolution(inv, h.antipode, h.coalg, h.alg) == unit


def test_antipode_order_divides_group_exponent(kc4_f5):
    s = kc4_f5.antipode
    assert compose(s, s) == LinearMap.identity(kc4_f5.space)


def test_iterated_mul_comul_consistency(kc4_f5):
    h = kc4_f5
    id_h = LinearMap.identity(h.space)
    assert iterated_mul(h.alg, 2) == compose(h.mul, tensor_map(h.mul, id_h))
    assert iterated_comul(h.coalg, 2) == compose(tensor_map(h.comul, id_h), h.comul)


def test_conv_naturality_along_group_morphism(f3):
    # kC2 -> kC4 induced by the inclusion of the order-2 subgroup
    f5 = FieldSpec.prime_field(5)
    c2 = cyclic_group_hopf(f5, 2)
    c4 = cyclic_group_hopf(f5, 4)
    one = f5.one()
    # bialgebra morphism g -> g2
    psi = LinearMap.from_labels(
        c2.space, c4.space, [("1", "1", one), ("g2", "g", one)])
    report = check_conv_naturality(
        psi, LinearMap.identity(c2.space), c2.antipode, LinearMap.identity(c2.space),
        c2.coalg, c2.alg, c2.coalg, c4.alg)
    assert report.ok, str(report)


def _materialised_braided_product(f, a, b, c_ba):
    """Reference (mul_A (x) mul_B)(id (x) c_{B,A} (x) id)(f (x) f), through
    Kronecker products."""
    middle = tensor_maps(LinearMap.identity(a.space), c_ba, LinearMap.identity(b.space))
    return compose_all(tensor_map(a.mul, b.mul), middle, tensor_map(f, f))


def test_braided_product_equals_the_materialised_product(boson8, qline_f3):
    from hopfcleft.braided import trivial_measuring
    from hopfcleft.cocycle import crossed_product
    from hopfcleft.oracle import enumerate_cocycles

    h = boson8.hopf
    flip = flip_map(h.space, h.space)
    # comul is an algebra morphism; comul plus x -> x (x) 1 is not
    not_morphism = h.comul + tensor_map(LinearMap.identity(h.space), h.unit)
    for f in (h.comul, not_morphism):
        assert braided_product(f, h.alg, h.alg, flip) == _materialised_braided_product(
            f, h.alg, h.alg, flip)
    assert braided_product(h.comul, h.alg, h.alg, flip) == compose(h.comul, h.mul)
    assert braided_product(not_morphism, h.alg, h.alg, flip) != compose(not_morphism, h.mul)
    # a crossed product over the quantum line: the braiding is not a flip
    c = enumerate_cocycles(trivial_measuring(qline_f3.hopf))[1]
    b = crossed_product(c).comodule_algebra
    c_hb = b.hopf.braid_with(b.carrier)
    assert braided_product(b.coaction, b.algebra, b.hopf.alg, c_hb) == (
        _materialised_braided_product(b.coaction, b.algebra, b.hopf.alg, c_hb))
