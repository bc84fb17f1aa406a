import pytest

from hopfcleft import braided
from hopfcleft.braided import (
    HModule,
    Measuring,
    YDModule,
    braiding,
    braiding_inverse,
    check_braiding_axioms,
    check_comodule_algebra,
    check_measuring,
    check_yd,
    coinvariants,
    trivial_ambient,
    trivial_measuring,
    trivial_module,
    trivial_yd,
    twist,
    yd_tensor,
)
from hopfcleft.cocycle import pair_coalgebra
from hopfcleft.errors import BaseMismatch, ShapeMismatch
from hopfcleft.fixtures import cyclic_group_hopf
from hopfcleft.hopf import check_coalgebra, iterated_comul, iterated_mul
from hopfcleft.linalg import (
    LinearMap,
    based_space,
    compose,
    compose_all,
    flip_map,
    permutation_map,
    tensor_map,
    tensor_space,
)
from hopfcleft.report import map_equal_item

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
    b = kc2_f3
    assert b.self_braiding == flip_map(kc2_f3.space, kc2_f3.space)


def test_a_classical_hopf_algebra_is_braided_over_the_trivial_ambient(f5):
    """A classical Hopf algebra is used as it is wherever a braided one is:
    its Yetter-Drinfeld structure over K = k is the trivial one, built on
    first use, and its self-braiding is the flip."""
    h = cyclic_group_hopf(f5, 4)
    assert h.ambient.space.dim == 1
    ident = LinearMap.identity(h.space).raw_entries()
    # coaction unit (x) id: h -> 1 (x) h, action counit (x) id: 1 (x) h -> h
    assert h.yd.coaction.target.dim == h.yd.module.action.source.dim == h.space.dim
    assert h.yd.coaction.raw_entries() == ident
    assert h.yd.module.action.raw_entries() == ident
    assert h.yd is h.yd and h.yd.module.space is h.space
    flip = flip_map(h.space, h.space)
    assert h.self_braiding == braiding(h.yd, h.yd.module) == flip
    unit_measuring = trivial_measuring(h)
    assert check_measuring(unit_measuring).ok
    nu = tensor_map(h.counit, LinearMap.identity(h.space))  # x (x) a -> eps(x) a
    assert check_measuring(Measuring(h, h.alg, trivial_module(h.ambient, h.space), nu)).ok
    pair = pair_coalgebra(h)
    assert pair is pair_coalgebra(h) and check_coalgebra(pair).ok


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


def test_yd_compatibility_equals_the_permutation_chain(qline_f5, monkeypatch):
    """check_yd builds h1 x(-1) S(h3) (x) h2.x(0) with flips in tensor
    slots: the map of the materialised permutation chain, so on a module that
    is not Yetter-Drinfeld it reports the same witness."""
    yd = qline_f5.hopf.yd
    base, h, v = yd.base, yd.base.space, yd.space
    # g.x gains a 1-component: still a module, but g no longer keeps degrees
    extra = LinearMap.from_labels(yd.module.action.source, v, [("1", "g.x", v.field.one())])
    broken = YDModule(HModule(base, v, yd.module.action + extra), yd.coaction)
    id_h, id_v = LinearMap.identity(h), LinearMap.identity(v)
    rhs = compose_all(
        kron(iterated_mul(base.alg, 2), broken.module.action),
        permutation_map([h, h, h, h, v], [0, 3, 2, 1, 4]),
        kron(id_h, id_h, base.antipode, id_h, id_v),
        kron(iterated_comul(base.coalg, 2), broken.coaction),
    )
    want = map_equal_item(
        "Yetter-Drinfeld compatibility", compose(broken.coaction, broken.module.action), rhs)
    compared = {}

    def recording_item(name, lhs, rhs):
        compared[name] = rhs
        return map_equal_item(name, lhs, rhs)

    monkeypatch.setattr(braided, "map_equal_item", recording_item)
    report = check_yd(broken)
    monkeypatch.undo()
    assert compared[want.name] == rhs
    (item,) = [i for i in report.items if i.name == want.name]
    assert not item.ok and item == want


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
        classical = g.ambient
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
    report = check_measuring(trivial_measuring(kc4_f5))
    assert report.ok, str(report)


def test_trivial_ambient_is_hopf(f3):
    from hopfcleft.hopf import check_hopf

    assert check_hopf(trivial_ambient(f3)).ok


def test_regular_comodule_algebra_and_coinvariants(kc4_f5):
    # H coacting on itself by comultiplication: coinvariants are the scalars
    from hopfcleft.braided import ComoduleAlgebra

    b = kc4_f5
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
    b = h
    carrier = trivial_module(b.ambient, h.space)
    comod = ComoduleAlgebra(b, h.alg, carrier, h.comul)
    assert coinvariants(comod).algebra.space.dim == 1
