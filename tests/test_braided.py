import pytest

from hopfcleft.braided import (
    braiding,
    braiding_inverse,
    check_braiding_axioms,
    check_comodule_algebra,
    check_measuring,
    check_yd,
    classical_hopf,
    coinvariants,
    trivial_ambient,
    trivial_measuring,
    trivial_module,
    trivial_yd,
    twist,
    yd_tensor,
)
from hopfcleft.errors import BaseMismatch, ShapeMismatch
from hopfcleft.fixtures import cyclic_group_hopf
from hopfcleft.linalg import (
    LinearMap,
    based_space,
    compose,
    compose_all,
    flip_map,
    permutation_map,
    tensor_space,
)

from conftest import kron


def test_quantum_line_is_yetter_drinfeld(qline_f5):
    report = check_yd(qline_f5.hopf.yd)
    assert report.ok, str(report)


def test_braiding_axioms_on_quantum_line(qline_f5):
    yd = qline_f5.hopf.yd
    v = yd.module
    report = check_braiding_axioms(
        yd, yd, v, v,
        LinearMap.identity(yd.space), LinearMap.identity(v.space))
    assert report.ok, str(report)


def test_braiding_on_quantum_line_is_a_sign(qline_f5):
    yd = qline_f5.hopf.yd
    c = braiding(yd, yd.module)
    sq = tensor_space(yd.space, yd.space)
    # c(x (x) x) = g.x (x) x = -x (x) x; all other basis tensors flip plainly
    minus = yd.space.field.scalar(-1)
    xx = sq.index("x.x")
    assert c[(xx, xx)] == minus
    assert c[(sq.index("1.x"), sq.index("x.1"))] == yd.space.field.one()


def test_braiding_inverse(qline_f5):
    yd = qline_f5.hopf.yd
    c = braiding(yd, yd.module)
    c_inv = braiding_inverse(yd, yd.module)
    assert compose(c_inv, c) == LinearMap.identity(c.source)


def test_trivial_ambient_braiding_is_flip(kc2_f3):
    b = classical_hopf(kc2_f3)
    assert b.bialg.self_braiding == flip_map(kc2_f3.space, kc2_f3.space)


def test_unit_object_braids_trivially(qline_f5, kc4_f5):
    from hopfcleft.linalg import unit_space

    yd = qline_f5.hopf.yd
    one = unit_space(kc4_f5.space.field)
    v1 = trivial_module(kc4_f5, one)
    # c_{X, 1} = id
    assert braiding(yd, v1) == LinearMap.identity(yd.space)
    # c_{1, V} = id
    triv = trivial_yd(kc4_f5, one)
    assert braiding(triv, yd.module) == LinearMap.identity(yd.space)


def test_yd_tensor_is_yetter_drinfeld(qline_f5):
    yd = qline_f5.hopf.yd
    report = check_yd(yd_tensor(yd, yd))
    assert report.ok, str(report)


def _permuted_yd_tensor(x, y):
    """Reference structure of X (x) Y through Kronecker products and
    permutations: h.(x (x) y) = h1.x (x) h2.y and
    x (x) y -> x(-1) y(-1) (x) x(0) (x) y(0)."""
    base = x.base
    h = base.space
    id_x, id_y = LinearMap.identity(x.space), LinearMap.identity(y.space)
    action = compose_all(
        kron(x.module.action, y.module.action),
        permutation_map([h, h, x.space, y.space], [0, 2, 1, 3]),
        kron(base.comul, id_x, id_y),
    )
    coaction = compose_all(
        kron(base.mul, id_x, id_y),
        permutation_map([h, x.space, h, y.space], [0, 2, 1, 3]),
        kron(x.coaction, y.coaction),
    )
    return action, coaction


def _flipped_braiding(x, v):
    """Reference c(x (x) v) = x(-1).v (x) x(0) through Kronecker products."""
    return compose_all(
        kron(v.action, LinearMap.identity(x.space)),
        kron(LinearMap.identity(x.base.space), flip_map(x.space, v.space)),
        kron(x.coaction, LinearMap.identity(v.space)),
    )


def test_yd_tensor_and_braiding_equal_the_permutation_chains(qline_f3, qline_f5):
    for g in (qline_f3, qline_f5):
        yd = g.hopf.yd
        yy = yd_tensor(yd, yd)
        for x, y in ((yd, yd), (yy, yd), (yd, yy)):
            xy = yd_tensor(x, y)
            action, coaction = _permuted_yd_tensor(x, y)
            assert xy.module.action == action
            assert xy.coaction == coaction
            assert braiding(x, y.module) == _flipped_braiding(x, y.module)
        # over the trivial ambient the braiding is the flip
        classical = classical_hopf(g.ambient)
        plain = trivial_module(classical.ambient, yd.space)
        assert braiding(classical.yd, plain) == flip_map(classical.space, yd.space)


def test_braiding_requires_common_ambient(qline_f5, kc2_f3):
    other = trivial_module(kc2_f3, based_space("M", ["m"], kc2_f3.space.field))
    with pytest.raises(BaseMismatch):
        braiding(qline_f5.hopf.yd, other)
    # a coaction and an action through Hopf algebras of different dimensions
    with pytest.raises(ShapeMismatch):
        twist(kc2_f3.comul, qline_f5.hopf.yd.module.action)


def test_trivial_measuring_passes(qline_f5):
    report = check_measuring(trivial_measuring(qline_f5.hopf))
    assert report.ok, str(report)


def test_classical_trivial_measuring_passes(kc4_f5):
    report = check_measuring(trivial_measuring(classical_hopf(kc4_f5)))
    assert report.ok, str(report)


def test_trivial_ambient_is_hopf(f3):
    from hopfcleft.hopf import check_hopf

    assert check_hopf(trivial_ambient(f3)).ok


def test_regular_comodule_algebra_and_coinvariants(kc4_f5):
    # H coacting on itself by comultiplication: coinvariants are the scalars
    from hopfcleft.braided import ComoduleAlgebra

    b = classical_hopf(kc4_f5)
    carrier = trivial_module(b.ambient, b.space)
    comod = ComoduleAlgebra(b, kc4_f5.alg, carrier, kc4_f5.comul)
    report = check_comodule_algebra(comod)
    assert report.ok, str(report)
    coinv = coinvariants(comod)
    assert coinv.algebra.space.dim == 1


def test_group_like_coaction_coinvariants(kc2_f3):
    # kC4-style span: coaction with two group-like components has 1-dim coinvariants
    from hopfcleft.braided import ComoduleAlgebra

    h = cyclic_group_hopf(kc2_f3.space.field, 2)
    b = classical_hopf(h)
    carrier = trivial_module(b.ambient, h.space)
    comod = ComoduleAlgebra(b, h.alg, carrier, h.comul)
    assert coinvariants(comod).algebra.space.dim == 1
