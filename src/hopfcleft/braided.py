"""Modules, comodules, Yetter-Drinfeld modules and the one-sided braiding.

The ambient Hopf algebra is an ordinary (vector-space flip) Hopf algebra K.
Yetter-Drinfeld modules over K braid from the left against plain K-modules:

    c(x (x) v) = x_(-1).v (x) x_(0)

This braiding is ``hopf.twist(coaction_X, action_V)``. Every structure on a
tensor product of two objects is built from a twist: ``braided_tensor_algebra``
and ``braided_tensor_coalgebra`` apply it inside one tensor slot (the
bosonization R (x) H takes c_{H,R} = twist(comul_H, action_R) and c_{R,H} =
twist(coaction_R, mul_H)), and so do the Yetter-Drinfeld and module tensor
products. A bialgebra object of the Yetter-Drinfeld category is a
``hopf.BialgebraData`` with its ``yd``; a classical one lives over the trivial
ambient K = k (``trivial_ambient``, ``trivial_yd``), for which the braiding
degenerates to the flip.
"""

from __future__ import annotations

from .errors import FactorizationFailure, NoSolution, ShapeMismatch, ValidationError
from .fields import FieldSpec
from .hopf import (
    AlgebraData,
    BialgebraData,
    CoalgebraData,
    braided_product,
    iterated_comul,
    iterated_mul,
    twist,
)
from .linalg import (
    BasedSpace,
    LinearMap,
    compose,
    compose_all,
    equalizer,
    flip_map,
    invert,
    solve_linear,
    tensor_map,
    tensor_maps,
    tensor_space,
    unit_space,
)
from .report import CheckReport, map_equal_item


class HModule:
    """A left module over a (classical) Hopf algebra."""

    def __init__(self, base: BialgebraData, space: BasedSpace, action: LinearMap):
        self.base = base
        self.space = space
        self.action = action  # base.space (x) space -> space
        want = tensor_space(base.space, space)
        if not action.source.same_basis(want) or not action.target.same_basis(space):
            raise ShapeMismatch("action must map H (x) M -> M")


class YDModule:
    """A left-left Yetter-Drinfeld module: module + left comodule, compatible."""

    def __init__(self, module: HModule, coaction: LinearMap):
        self.module = module
        self.coaction = coaction  # space -> H (x) space
        want = tensor_space(module.base.space, module.space)
        if not coaction.source.same_basis(module.space) or not coaction.target.same_basis(want):
            raise ShapeMismatch("coaction must map M -> H (x) M")

    @property
    def base(self) -> BialgebraData:
        return self.module.base

    @property
    def space(self) -> BasedSpace:
        return self.module.space


def check_module(m: HModule) -> CheckReport:
    report = CheckReport(f"module {m.space.name} over {m.base.space.name}")
    h, x = m.base.space, m.space
    ident = LinearMap.identity(x)
    report.add(map_equal_item(
        "action of a product",
        compose(m.action, tensor_map(m.base.mul, ident)),
        compose(m.action, tensor_map(LinearMap.identity(h), m.action)),
    ))
    report.add(map_equal_item(
        "action of the unit", compose(m.action, tensor_map(m.base.unit, ident)), ident))
    return report


def check_comodule(c: YDModule) -> CheckReport:
    """The left comodule axioms of a Yetter-Drinfeld module's coaction."""
    report = CheckReport(f"left comodule {c.space.name} over {c.base.space.name}")
    ident = LinearMap.identity(c.space)
    report.add(map_equal_item(
        "coassociativity",
        compose(tensor_map(c.base.comul, ident), c.coaction),
        compose(tensor_map(LinearMap.identity(c.base.space), c.coaction), c.coaction),
    ))
    report.add(map_equal_item(
        "counitality", compose(tensor_map(c.base.counit, ident), c.coaction), ident))
    return report


def check_yd(x: YDModule) -> CheckReport:
    """Module, comodule and the left-left compatibility in its antipode form:
    coaction(h.x) = h1 x_(-1) S(h3) (x) h2.x_(0)."""
    base = x.base
    report = check_module(x.module)
    report.subject = f"Yetter-Drinfeld module {x.space.name}"
    report.extend(check_comodule(x))
    h, v = base.space, x.space
    lhs = compose(x.coaction, x.module.action)
    id_h, id_v = LinearMap.identity(h), LinearMap.identity(v)
    spread = tensor_map(iterated_comul(base.coalg), x.coaction)  # h1 h2 h3 x-1 x0
    x_first = tensor_maps(id_h, flip_map(tensor_space(h, h), h), id_v)  # h1 x-1 h2 h3 x0
    s_h3 = compose(tensor_map(base.antipode, id_h), flip_map(h, h))
    h2_last = tensor_maps(id_h, id_h, s_h3, id_v)  # h1 x-1 S(h3) h2 x0
    rhs = compose(
        tensor_map(iterated_mul(base.alg), x.module.action),
        compose(h2_last, compose(x_first, spread)))
    report.add(map_equal_item("Yetter-Drinfeld compatibility", lhs, rhs))
    return report


def braiding(x: YDModule, v: HModule) -> LinearMap:
    """c(x (x) v) = x_(-1).v (x) x_(0), an isomorphism X (x) V -> V (x) X."""
    if x.base is not v.base and not x.base.space.same_basis(v.base.space):
        raise ShapeMismatch("braiding requires a shared ambient Hopf algebra")
    return twist(x.coaction, v.action)


def braiding_inverse(x: YDModule, v: HModule) -> LinearMap:
    try:
        return invert(braiding(x, v))
    except NoSolution as exc:
        raise ValidationError("braiding matrix is singular") from exc


def check_braiding_axioms(x: YDModule, v: HModule) -> CheckReport:
    """The braiding c_{X,V} is invertible and satisfies the two composition
    axioms of the one-sided braiding, c_{X(x)X,V} = (c (x) id)(id (x) c) and
    c_{X,V(x)V} = (id (x) c)(c (x) id), verified on the concrete matrices."""
    report = CheckReport("left-braiding axioms")
    c_xv = braiding(x, v)
    id_x, id_v = LinearMap.identity(x.space), LinearMap.identity(v.space)
    report.add(map_equal_item(
        "invertibility", compose(c_xv, braiding_inverse(x, v)),
        LinearMap.identity(tensor_space(v.space, x.space))))
    report.add(map_equal_item(
        "composition in the braided slot",
        braiding(yd_tensor(x, x), v),
        compose(tensor_map(c_xv, id_x), tensor_map(id_x, c_xv)),
    ))
    report.add(map_equal_item(
        "composition in the module slot",
        braiding(x, ambient_module_tensor(v, v)),
        compose(tensor_map(id_v, c_xv), tensor_map(c_xv, id_v)),
    ))
    return report


def trivial_ambient(field: FieldSpec) -> BialgebraData:
    """The ground field as a Hopf algebra; its modules are plain vector spaces."""
    one = unit_space(field)
    ident = LinearMap.identity(one)
    alg = AlgebraData(one, ident, ident)
    coalg = CoalgebraData(one, ident, ident)
    return BialgebraData(alg, coalg, ident)


def trivial_module(base: BialgebraData, space: BasedSpace) -> HModule:
    """The module with action eps (x) id (for the trivial ambient: the identity)."""
    action = tensor_map(base.counit, LinearMap.identity(space))
    return HModule(base, space, action)


def trivial_yd(base: BialgebraData, space: BasedSpace) -> YDModule:
    coaction = tensor_map(base.unit, LinearMap.identity(space))
    return YDModule(trivial_module(base, space), coaction)


def yd_tensor(x: YDModule, y: YDModule) -> YDModule:
    """Tensor product inside the Yetter-Drinfeld category: the diagonal
    action, and the coaction x (x) y -> x_(-1) y_(-1) (x) x_(0) (x) y_(0),
    which is twist(coaction_X, mul) applied to x (x) y_(-1)."""
    module = ambient_module_tensor(x.module, y.module)
    coaction = compose(
        tensor_map(twist(x.coaction, x.base.mul), LinearMap.identity(y.space)),
        tensor_map(LinearMap.identity(x.space), y.coaction))
    return YDModule(module, coaction)


def ambient_module_tensor(m: HModule, n: HModule) -> HModule:
    """Tensor product of modules over the (classical) ambient Hopf algebra:
    h.(m (x) n) = h1.m (x) h2.n, acting on n after twist(comul, action_M)."""
    c = twist(m.base.comul, m.action)  # h (x) m -> h1.m (x) h2
    action = compose(
        tensor_map(LinearMap.identity(m.space), n.action),
        tensor_map(c, LinearMap.identity(n.space)))
    return HModule(m.base, tensor_space(m.space, n.space), action)


def braided_tensor_algebra(
    a: AlgebraData, b: AlgebraData, c_ba: LinearMap
) -> AlgebraData:
    """The algebra A (x) B twisted by c_{B,A}: B (x) A -> A (x) B, with
    multiplication (mul_A (x) mul_B)(id (x) c_{B,A} (x) id). The bosonization
    is R (x) H with c_{H,R} = twist(comul_H, action_R)."""
    space = tensor_space(a.space, b.space)
    mul = compose(
        tensor_map(a.mul, b.mul),
        tensor_maps(LinearMap.identity(a.space), c_ba, LinearMap.identity(b.space)))
    unit = tensor_map(a.unit, b.unit)
    return AlgebraData(space, mul, unit)


def braided_tensor_coalgebra(
    b: CoalgebraData, a: CoalgebraData, c_ba: LinearMap
) -> CoalgebraData:
    """The coalgebra B (x) A twisted by c_{B,A}: B (x) A -> A (x) B, with
    comultiplication (id (x) c_{B,A} (x) id)(comul_B (x) comul_A). The
    bosonization is R (x) H with c_{R,H} = twist(coaction_R, mul_H); the pair
    coalgebra is H (x) H with the self-braiding."""
    space = tensor_space(b.space, a.space)
    comul = compose(
        tensor_maps(LinearMap.identity(b.space), c_ba, LinearMap.identity(a.space)),
        tensor_map(b.comul, a.comul))
    counit = tensor_map(b.counit, a.counit)
    return CoalgebraData(space, comul, counit)


class Measuring:
    """An algebra A in the ambient-module category with nu: H-bar (x) A -> A
    satisfying the measuring relations."""

    def __init__(self, hopf: BialgebraData, algebra: AlgebraData, carrier: HModule,
                 nu: LinearMap):
        self.hopf = hopf
        self.algebra = algebra
        self.carrier = carrier  # ambient module structure on A
        self.nu = nu

    @property
    def space(self) -> BasedSpace:
        return self.algebra.space


def c_nu(m: Measuring) -> LinearMap:
    """c^nu = (nu (x) id)(id (x) c_{H,A})(comul (x) id) : H (x) A -> A (x) H."""
    h = m.hopf.space
    id_h = LinearMap.identity(h)
    id_a = LinearMap.identity(m.space)
    return compose_all(
        tensor_map(m.nu, id_h),
        tensor_map(id_h, braiding(m.hopf.yd, m.carrier)),
        tensor_map(m.hopf.comul, id_a),
    )


def check_measuring(m: Measuring) -> CheckReport:
    report = CheckReport(f"measuring on {m.hopf.space.name} with carrier {m.space.name}")
    h = m.hopf.space
    a = m.algebra
    id_h = LinearMap.identity(h)
    id_a = LinearMap.identity(a.space)
    report.add(map_equal_item(
        "(1) unit of H acts as identity",
        compose(m.nu, tensor_map(m.hopf.unit, id_a)),
        id_a,
    ))
    report.add(map_equal_item(
        "(2) measures the unit of A",
        compose(m.nu, tensor_map(id_h, a.unit)),
        compose(a.unit, m.hopf.counit),
    ))
    rel3_rhs = compose_all(
        a.mul,
        tensor_map(m.nu, m.nu),
        tensor_maps(id_h, braiding(m.hopf.yd, m.carrier), id_a),
        tensor_maps(m.hopf.comul, id_a, id_a),
    )
    report.add(map_equal_item(
        "(3) measures products",
        compose(m.nu, tensor_map(id_h, a.mul)),
        rel3_rhs,
    ))
    report.add(map_equal_item(
        "(4) rewritten via c^nu",
        compose(m.nu, tensor_map(id_h, a.mul)),
        compose_all(a.mul, tensor_map(id_a, m.nu), tensor_map(c_nu(m), id_a)),
    ))
    return report


def trivial_measuring(hopf: BialgebraData) -> Measuring:
    """The monoidal unit as a measuring, with nu = counit."""
    field = hopf.space.field
    one = unit_space(field)
    ident = LinearMap.identity(one)
    algebra = AlgebraData(one, ident, ident)
    carrier = trivial_module(hopf.ambient, one)
    return Measuring(hopf, algebra, carrier, hopf.counit)


class ComoduleAlgebra:
    """A right H-bar-comodule algebra B in the ambient-module category."""

    def __init__(self, hopf: BialgebraData, algebra: AlgebraData, carrier: HModule,
                 coaction: LinearMap):
        self.hopf = hopf
        self.algebra = algebra
        self.carrier = carrier  # ambient module structure on B
        self.coaction = coaction  # B -> B (x) H-bar
        # the coinvariants, built on first use by ``coinvariants``
        self.coinvariants_cache: Coinvariants | None = None

    @property
    def space(self) -> BasedSpace:
        return self.algebra.space


def check_comodule_algebra(b: ComoduleAlgebra) -> CheckReport:
    report = CheckReport(f"comodule algebra {b.space.name} over {b.hopf.space.name}")
    h = b.hopf
    id_b = LinearMap.identity(b.space)
    id_h = LinearMap.identity(h.space)
    report.add(map_equal_item(
        "coaction coassociativity",
        compose(tensor_map(id_b, h.comul), b.coaction),
        compose(tensor_map(b.coaction, id_h), b.coaction),
    ))
    report.add(map_equal_item(
        "coaction counitality",
        compose(tensor_map(id_b, h.counit), b.coaction),
        id_b,
    ))
    report.add(map_equal_item(
        "coaction is an algebra morphism",
        compose(b.coaction, b.algebra.mul),
        braided_product(b.coaction, b.algebra, h.alg, braiding(h.yd, b.carrier)),
    ))
    report.add(map_equal_item(
        "coaction of the unit",
        compose(b.coaction, b.algebra.unit),
        tensor_map(b.algebra.unit, h.unit),
    ))
    return report


class Coinvariants:
    def __init__(self, algebra: AlgebraData, iota: LinearMap, carrier: HModule):
        self.algebra = algebra
        self.iota = iota  # inclusion into the ambient comodule algebra
        self.carrier = carrier  # ambient module structure restricted to the coinvariants


def coinvariants(b: ComoduleAlgebra) -> Coinvariants:
    """The equalizer of (coaction, id (x) unit), with its induced algebra
    structure and restricted ambient action, built once per comodule algebra."""
    if b.coinvariants_cache is not None:
        return b.coinvariants_cache
    id_b = LinearMap.identity(b.space)
    other = tensor_map(id_b, b.hopf.unit)
    space, iota = equalizer(b.coaction, other)
    try:
        unit = solve_linear(iota, b.algebra.unit)
        mul = solve_linear(iota, compose(b.algebra.mul, tensor_map(iota, iota)))
        action = solve_linear(
            iota,
            compose(b.carrier.action, tensor_map(LinearMap.identity(b.hopf.ambient.space), iota)),
        )
    except NoSolution as exc:
        raise FactorizationFailure(
            "induced structure does not factor through the coinvariants") from exc
    algebra = AlgebraData(space, mul, unit)
    carrier = HModule(b.hopf.ambient, space, action)
    b.coinvariants_cache = Coinvariants(algebra, iota, carrier)
    return b.coinvariants_cache
