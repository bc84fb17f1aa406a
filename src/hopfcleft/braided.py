"""Modules, comodules, Yetter-Drinfeld modules and the one-sided braiding.

The ambient Hopf algebra is an ordinary (vector-space flip) Hopf algebra K.
Yetter-Drinfeld modules over K braid from the left against plain K-modules:

    c(x (x) v) = x_(-1).v (x) x_(0)

A bialgebra object of the Yetter-Drinfeld category is represented by
``BraidedBialgebra``; the classical case is recovered by taking the trivial
ambient K = k, for which the braiding degenerates to the flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import BaseMismatch, CorruptFixture, InducedStructureFailure, NoSolution, ShapeMismatch
from .fields import FieldSpec
from .hopf import (
    AlgebraData,
    BialgebraData,
    CoalgebraData,
    HopfAlgebraData,
    iterated_comul,
    iterated_mul,
)
from .linalg import (
    BasedSpace,
    LinearMap,
    apply_in_slot,
    compose,
    compose_all,
    equalizer,
    flip_map,
    invert,
    permutation_map,
    precompose_in_slot,
    solve_linear,
    tensor_map,
    tensor_maps,
    tensor_space,
    unit_space,
)
from .report import CheckReport, map_equal_item


@dataclass
class HModule:
    """A left module over a (classical) Hopf algebra."""

    base: HopfAlgebraData
    space: BasedSpace
    action: LinearMap  # base.space (x) space -> space

    def __post_init__(self):
        want = tensor_space(self.base.space, self.space)
        if not self.action.source.same_basis(want) or not self.action.target.same_basis(self.space):
            raise ShapeMismatch("action must map H (x) M -> M")


@dataclass
class HComodule:
    base: HopfAlgebraData
    space: BasedSpace
    coaction: LinearMap
    side: str  # "left": M -> H (x) M, "right": M -> M (x) H

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        want = (
            tensor_space(self.base.space, self.space)
            if self.side == "left"
            else tensor_space(self.space, self.base.space)
        )
        if not self.coaction.target.same_basis(want):
            raise ShapeMismatch(f"coaction must map M -> {'H (x) M' if self.side == 'left' else 'M (x) H'}")


@dataclass
class YDModule:
    """A left-left Yetter-Drinfeld module: module + left comodule, compatible."""

    module: HModule
    coaction: LinearMap  # space -> H (x) space

    @property
    def base(self) -> HopfAlgebraData:
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


def check_comodule(c: HComodule) -> CheckReport:
    report = CheckReport(f"{c.side} comodule {c.space.name} over {c.base.space.name}")
    h = c.base.space
    ident = LinearMap.identity(c.space)
    id_h = LinearMap.identity(h)
    if c.side == "left":
        report.add(map_equal_item(
            "coassociativity",
            compose(tensor_map(c.base.comul, ident), c.coaction),
            compose(tensor_map(id_h, c.coaction), c.coaction),
        ))
        report.add(map_equal_item(
            "counitality", compose(tensor_map(c.base.counit, ident), c.coaction), ident))
    else:
        report.add(map_equal_item(
            "coassociativity",
            compose(tensor_map(ident, c.base.comul), c.coaction),
            compose(tensor_map(c.coaction, id_h), c.coaction),
        ))
        report.add(map_equal_item(
            "counitality", compose(tensor_map(ident, c.base.counit), c.coaction), ident))
    return report


def check_yd(x: YDModule) -> CheckReport:
    """Module, comodule and the left-left compatibility in its antipode form:
    coaction(h.x) = h1 x_(-1) S(h3) (x) h2.x_(0)."""
    base = x.base
    report = check_module(x.module)
    report.subject = f"Yetter-Drinfeld module {x.space.name}"
    report.extend(check_comodule(HComodule(base, x.space, x.coaction, "left")))
    h, v = base.space, x.space
    lhs = compose(x.coaction, x.module.action)
    id_h = LinearMap.identity(h)
    spread = tensor_map(iterated_comul(base.coalg, 2), x.coaction)  # h1 h2 h3 x-1 x0
    twist = compose(
        permutation_map([h, h, h, h, v], [0, 3, 2, 1, 4]),
        tensor_maps(id_h, id_h, base.antipode, id_h, LinearMap.identity(v)),
    )
    rhs = compose_all(
        tensor_map(iterated_mul(base.alg, 2), x.module.action), twist, spread)
    report.add(map_equal_item("Yetter-Drinfeld compatibility", lhs, rhs))
    return report


def braiding(x: YDModule, v: HModule) -> LinearMap:
    """c(x (x) v) = x_(-1).v (x) x_(0), an isomorphism X (x) V -> V (x) X."""
    if x.base is not v.base and not x.base.space.same_basis(v.base.space):
        raise BaseMismatch("braiding requires a shared ambient Hopf algebra")
    h = x.base.space
    return compose_all(
        tensor_map(v.action, LinearMap.identity(x.space)),
        tensor_map(LinearMap.identity(h), flip_map(x.space, v.space)),
        tensor_map(x.coaction, LinearMap.identity(v.space)),
    )


def braiding_inverse(x: YDModule, v: HModule) -> LinearMap:
    try:
        return invert(braiding(x, v))
    except NoSolution as exc:
        raise CorruptFixture("braiding matrix is singular") from exc


def check_braiding_axioms(
    x: YDModule,
    y: YDModule,
    v: HModule,
    w: HModule,
    f: LinearMap | None = None,
    g: LinearMap | None = None,
) -> CheckReport:
    """Naturality (for given f: X -> Y, g: V -> W) and the two composition
    axioms of the one-sided braiding, verified on the concrete matrices."""
    report = CheckReport("left-braiding axioms")
    c_xv = braiding(x, v)
    report.add(map_equal_item(
        "invertibility", compose(c_xv, braiding_inverse(x, v)),
        LinearMap.identity(tensor_space(v.space, x.space))))
    if f is not None and g is not None:
        report.add(map_equal_item(
            "naturality",
            compose(braiding(y, w), tensor_map(f, g)),
            compose(tensor_map(g, f), c_xv),
        ))
    xy = yd_tensor(x, y)
    report.add(map_equal_item(
        "composition in the braided slot",
        braiding(xy, v),
        compose(
            tensor_map(c_xv, LinearMap.identity(y.space)),
            tensor_map(LinearMap.identity(x.space), braiding(y, v)),
        ),
    ))
    vw = ambient_module_tensor(v, w)
    report.add(map_equal_item(
        "composition in the module slot",
        braiding(x, vw),
        compose(
            tensor_map(LinearMap.identity(v.space), braiding(x, w)),
            tensor_map(c_xv, LinearMap.identity(w.space)),
        ),
    ))
    return report


def trivial_ambient(field: FieldSpec) -> HopfAlgebraData:
    """The ground field as a Hopf algebra; its modules are plain vector spaces."""
    one = unit_space(field)
    ident = LinearMap.identity(one)
    alg = AlgebraData(one, ident, ident)
    coalg = CoalgebraData(one, ident, ident)
    return HopfAlgebraData(BialgebraData(alg, coalg, ident), ident)


def trivial_module(base: HopfAlgebraData, space: BasedSpace) -> HModule:
    """The module with action eps (x) id (for the trivial ambient: the identity)."""
    action = tensor_map(base.counit, LinearMap.identity(space))
    return HModule(base, space, action)


def trivial_yd(base: HopfAlgebraData, space: BasedSpace) -> YDModule:
    coaction = tensor_map(base.unit, LinearMap.identity(space))
    return YDModule(trivial_module(base, space), coaction)


def yd_tensor(x: YDModule, y: YDModule) -> YDModule:
    """Tensor product inside the Yetter-Drinfeld category."""
    base = x.base
    h = base.space
    id_x, id_y = LinearMap.identity(x.space), LinearMap.identity(y.space)
    action = compose(
        precompose_in_slot(
            tensor_map(x.module.action, y.module.action), h, flip_map(h, x.space), y.space),
        tensor_maps(base.comul, id_x, id_y),
    )
    coaction = compose_all(
        tensor_maps(base.mul, id_x, id_y),
        permutation_map([h, x.space, h, y.space], [0, 2, 1, 3]),
        tensor_map(x.coaction, y.coaction),
    )
    return YDModule(HModule(base, tensor_space(x.space, y.space), action), coaction)


def ambient_module_tensor(m: HModule, n: HModule) -> HModule:
    """Tensor product of modules over the (classical) ambient Hopf algebra."""
    base = m.base
    h = base.space
    action = compose(
        precompose_in_slot(tensor_map(m.action, n.action), h, flip_map(h, m.space), n.space),
        tensor_maps(base.comul, LinearMap.identity(m.space), LinearMap.identity(n.space)),
    )
    return HModule(base, tensor_space(m.space, n.space), action)


@dataclass
class BraidedBialgebra:
    """A bialgebra object H-bar of the Yetter-Drinfeld category over ``ambient``.

    ``bialg.self_braiding`` is the Yetter-Drinfeld self-braiding c_{H,H};
    for the trivial ambient this is the flip and the bialgebra is classical.
    ``antipode`` is present when the object is a Hopf algebra.
    """

    ambient: HopfAlgebraData
    yd: YDModule
    bialg: BialgebraData
    antipode: LinearMap | None = None
    # the braided coalgebras on H (x) H and H (x) H (x) H, built on first use
    # by cocycle.pair_coalgebra and cocycle.triple_coalgebra
    pair_cache: CoalgebraData | None = dc_field(
        default=None, init=False, repr=False, compare=False)
    triple_cache: CoalgebraData | None = dc_field(
        default=None, init=False, repr=False, compare=False)

    @property
    def space(self) -> BasedSpace:
        return self.bialg.space

    @property
    def mul(self) -> LinearMap:
        return self.bialg.mul

    @property
    def unit(self) -> LinearMap:
        return self.bialg.unit

    @property
    def comul(self) -> LinearMap:
        return self.bialg.comul

    @property
    def counit(self) -> LinearMap:
        return self.bialg.counit

    @property
    def alg(self) -> AlgebraData:
        return self.bialg.alg

    @property
    def coalg(self) -> CoalgebraData:
        return self.bialg.coalg

    def hopf_data(self) -> HopfAlgebraData:
        if self.antipode is None:
            raise ValueError("no antipode available")
        return HopfAlgebraData(self.bialg, self.antipode)

    def braid_with(self, v: HModule) -> LinearMap:
        """c_{H,V} for a module V in the ambient category."""
        return braiding(self.yd, v)


def classical_hopf(hopf: HopfAlgebraData) -> BraidedBialgebra:
    """Wrap an ordinary Hopf algebra as an object over the trivial ambient."""
    ambient = trivial_ambient(hopf.space.field)
    yd = trivial_yd(ambient, hopf.space)
    return BraidedBialgebra(ambient, yd, hopf.bialg, hopf.antipode)


def braided_tensor_algebra(
    a: AlgebraData, b: AlgebraData, c_ba: LinearMap
) -> AlgebraData:
    """The algebra A (x) B for A in the module category and B braided,
    with multiplication (mul_A (x) mul_B)(id (x) c_{B,A} (x) id)."""
    space = tensor_space(a.space, b.space)
    mul = precompose_in_slot(tensor_map(a.mul, b.mul), a.space, c_ba, b.space)
    unit = tensor_map(a.unit, b.unit)
    return AlgebraData(space, mul, unit)


def braided_tensor_coalgebra(
    b: CoalgebraData, a: CoalgebraData, c_ba: LinearMap
) -> CoalgebraData:
    """The coalgebra B (x) A for B braided and A in the module category,
    with comultiplication (id (x) c_{B,A} (x) id)(comul_B (x) comul_A)."""
    space = tensor_space(b.space, a.space)
    comul = apply_in_slot(b.space, c_ba, a.space, tensor_map(b.comul, a.comul))
    counit = tensor_map(b.counit, a.counit)
    return CoalgebraData(space, comul, counit)


@dataclass
class Measuring:
    """An algebra A in the ambient-module category with nu: H-bar (x) A -> A
    satisfying the measuring relations."""

    hopf: BraidedBialgebra
    algebra: AlgebraData
    carrier: HModule  # ambient module structure on A
    nu: LinearMap

    @property
    def space(self) -> BasedSpace:
        return self.algebra.space

    def braid_ha(self) -> LinearMap:
        return self.hopf.braid_with(self.carrier)


def c_nu(m: Measuring) -> LinearMap:
    """c^nu = (nu (x) id)(id (x) c_{H,A})(comul (x) id) : H (x) A -> A (x) H."""
    h = m.hopf.space
    id_h = LinearMap.identity(h)
    id_a = LinearMap.identity(m.space)
    return compose_all(
        tensor_map(m.nu, id_h),
        tensor_map(id_h, m.braid_ha()),
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
    rel3_rhs = compose(
        precompose_in_slot(compose(a.mul, tensor_map(m.nu, m.nu)), h, m.braid_ha(), a.space),
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


def trivial_measuring(hopf: BraidedBialgebra) -> Measuring:
    """The monoidal unit as a measuring, with nu = counit."""
    field = hopf.space.field
    one = unit_space(field)
    ident = LinearMap.identity(one)
    algebra = AlgebraData(one, ident, ident)
    carrier = trivial_module(hopf.ambient, one)
    return Measuring(hopf, algebra, carrier, hopf.counit)


@dataclass
class ComoduleAlgebra:
    """A right H-bar-comodule algebra B in the ambient-module category."""

    hopf: BraidedBialgebra
    algebra: AlgebraData
    carrier: HModule  # ambient module structure on B
    coaction: LinearMap  # B -> B (x) H-bar

    @property
    def space(self) -> BasedSpace:
        return self.algebra.space

    def braid_hb(self) -> LinearMap:
        return self.hopf.braid_with(self.carrier)

    def product_algebra(self) -> AlgebraData:
        """The braided algebra structure on B (x) H-bar."""
        return braided_tensor_algebra(self.algebra, self.hopf.alg, self.braid_hb())


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
    prod = b.product_algebra()
    report.add(map_equal_item(
        "coaction is an algebra morphism",
        compose(b.coaction, b.algebra.mul),
        compose(prod.mul, tensor_map(b.coaction, b.coaction)),
    ))
    report.add(map_equal_item(
        "coaction of the unit",
        compose(b.coaction, b.algebra.unit),
        tensor_map(b.algebra.unit, h.unit),
    ))
    return report


@dataclass
class Coinvariants:
    algebra: AlgebraData
    iota: LinearMap  # inclusion into the ambient comodule algebra
    carrier: HModule  # ambient module structure restricted to the coinvariants


def coinvariants(b: ComoduleAlgebra) -> Coinvariants:
    """The equalizer of (coaction, id (x) unit), with its induced algebra
    structure and restricted ambient action."""
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
        raise InducedStructureFailure(
            "induced structure does not factor through the coinvariants") from exc
    algebra = AlgebraData(space, mul, unit)
    carrier = HModule(b.hopf.ambient, space, action)
    return Coinvariants(algebra, iota, carrier)
