import pytest

from hopfcleft.braided import braiding, trivial_measuring
from hopfcleft.cocycle import pair_coalgebra
from hopfcleft.errors import NoSolution, NotHopf, NotInvertible, ShapeMismatch
from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import (
    cyclic_group_hopf,
    non_hopf_bialgebra,
    quantum_line,
    quantum_line_grading,
)
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
from hopfcleft.lifting import GradedYDHopf, bosonize
from hopfcleft.linalg import (
    BasedSpace,
    LinearMap,
    compose,
    flip_map,
    solve_linear,
    tensor_map,
)
from hopfcleft.oracle import enumerate_zprime

from conftest import count_field_muls, kron, ref_braided_product


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
    assert antipode(kc4_f5) == kc4_f5.antipode


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


@pytest.fixture(scope="module")
def boson16_q():
    """The dim-16 bosonization of the quantum line over kC8/Q."""
    ambient = cyclic_group_hopf(FieldSpec.rationals(), 8)
    return bosonize(GradedYDHopf(quantum_line(ambient), quantum_line_grading()))


def _probe_convolution_inverse(f, c, a):
    """Reference: the system f * g = unit assembled from the convolutions
    f * e_ij with every one-entry map, over a flattened Hom(C, A)."""
    na, nc = a.space.dim, c.space.dim
    field = a.field
    hom = BasedSpace("hom", tuple(f"m{k}" for k in range(na * nc)), field)
    col = BasedSpace("rhs", ("r",), field)
    entries = {}
    for i in range(na):
        for j in range(nc):
            conv = convolution(f, LinearMap(c.space, a.space, {(i, j): field.one()}), c, a)
            for (r, s), v in conv.entries.items():
                entries[(r * nc + s, i * nc + j)] = v
    target = convolution_unit(c, a)
    rhs = LinearMap(col, hom, {(r * nc + s, 0): v for (r, s), v in target.entries.items()})
    try:
        sol = solve_linear(LinearMap(hom, hom, entries), rhs)
    except NoSolution as exc:
        raise NotInvertible("no right convolution inverse") from exc
    g = LinearMap(c.space, a.space, {divmod(k, nc): v for (k, _), v in sol.entries.items()})
    if convolution(g, f, c, a) != target:
        raise NotInvertible("right inverse is not a left inverse")
    return g


def _inverse_or_message(f, c, a, solver):
    try:
        return solver(f, c, a)
    except NotInvertible as exc:
        return str(exc)


def test_convolution_inverse_matches_the_probe_assembly(kc4_f5, boson8, boson16_q):
    cases = [(h.space, h.coalg, h.alg) for h in (kc4_f5, boson8.hopf, boson16_q.hopf)]
    for space, c, a in cases:
        ident = LinearMap.identity(space)
        first = LinearMap(space, space, {(0, 0): space.field.one()})
        for f in (ident, first, LinearMap.zero(space, space)):
            assert (_inverse_or_message(f, c, a, convolution_inverse)
                    == _inverse_or_message(f, c, a, _probe_convolution_inverse))
        with pytest.raises(NotInvertible):
            convolution_inverse(first, c, a)
    # a scalar cocycle sigma: H (x) H -> 1 over the pair coalgebra
    sigma = enumerate_zprime(boson8)[1].sigma
    pair = pair_coalgebra(boson8.hopf)
    unit_alg = trivial_measuring(boson8.hopf).algebra
    inv = convolution_inverse(sigma, pair, unit_alg)
    assert inv == _probe_convolution_inverse(sigma, pair, unit_alg)
    assert convolution(sigma, inv, pair, unit_alg) == convolution_unit(pair, unit_alg)
    b = non_hopf_bialgebra(FieldSpec.prime_field(3))
    for solver in (convolution_inverse, _probe_convolution_inverse):
        with pytest.raises(NotInvertible, match="no right convolution inverse"):
            solver(LinearMap.identity(b.space), b.coalg, b.alg)
        # a map of the wrong shape is refused before any solve
        with pytest.raises(ShapeMismatch, match="f is not a map C -> A"):
            solver(LinearMap.identity(boson8.space), kc4_f5.coalg, kc4_f5.alg)


def test_convolution_inverse_multiplication_count(boson16_q, monkeypatch):
    # machine-independent guard: the system is written from comul, f and mul
    # in one pass (471 field multiplications when this test was written);
    # probing f * e_ij for every one-entry map and solving densely took 83,408
    h = boson16_q.hopf
    calls = count_field_muls(monkeypatch)
    convolution_inverse(LinearMap.identity(h.space), h.coalg, h.alg)
    monkeypatch.undo()
    assert 0 < calls[0] <= 5000


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
    assert iterated_mul(h.alg, 2) == compose(h.mul, kron(h.mul, id_h))
    assert iterated_comul(h.coalg, 2) == compose(kron(h.comul, id_h), h.comul)


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


def test_braided_product_equals_the_materialised_product(boson8, qline_f3):
    from hopfcleft.braided import trivial_measuring
    from hopfcleft.cocycle import crossed_product
    from hopfcleft.oracle import enumerate_cocycles

    h = boson8.hopf
    flip = flip_map(h.space, h.space)
    # comul is an algebra morphism; comul plus x -> x (x) 1 is not
    not_morphism = h.comul + tensor_map(LinearMap.identity(h.space), h.unit)
    for f in (h.comul, not_morphism):
        assert braided_product(f, h.alg, h.alg, flip) == ref_braided_product(
            f, h.alg, h.alg, flip)
    assert braided_product(h.comul, h.alg, h.alg, flip) == compose(h.comul, h.mul)
    assert braided_product(not_morphism, h.alg, h.alg, flip) != compose(not_morphism, h.mul)
    # a crossed product over the quantum line: the braiding is not a flip
    c = enumerate_cocycles(trivial_measuring(qline_f3.hopf))[1]
    b = crossed_product(c).comodule_algebra
    c_hb = braiding(b.hopf.yd, b.carrier)
    assert braided_product(b.coaction, b.algebra, b.hopf.alg, c_hb) == (
        ref_braided_product(b.coaction, b.algebra, b.hopf.alg, c_hb))
