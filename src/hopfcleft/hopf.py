"""Algebras, coalgebras, bialgebras and Hopf algebras by structure constants.

A bialgebra here lives in a category where the tensor square of the carrier
is made into a (co)algebra through a designated braiding; ``self_braiding``
holds that map.  For a classical bialgebra it is the vector-space flip.
``braided_product`` multiplies in such a braided tensor product algebra term
by term, so "comul is an algebra morphism" never builds mul (x) mul.
Convolution inversion is an exact linear solve in the space Hom(C, A).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import NotHopf, NotInvertible, NoSolution, ShapeMismatch
from .fields import FieldSpec
from .linalg import (
    BasedSpace,
    LinearMap,
    compose,
    compose_all,
    solve_linear,
    tensor_map,
    tensor_space,
    unit_space,
)
from .report import CheckReport, map_equal_item


@dataclass
class AlgebraData:
    space: BasedSpace
    mul: LinearMap  # space (x) space -> space
    unit: LinearMap  # 1 -> space

    def __post_init__(self):
        if not self.mul.source.same_basis(tensor_space(self.space, self.space)):
            raise ShapeMismatch("mul source is not space (x) space")
        if not self.mul.target.same_basis(self.space):
            raise ShapeMismatch("mul target is not the carrier space")
        if self.unit.source.dim != 1 or not self.unit.target.same_basis(self.space):
            raise ShapeMismatch("unit must map the monoidal unit into the carrier")

    @property
    def field(self) -> FieldSpec:
        return self.space.field


@dataclass
class CoalgebraData:
    space: BasedSpace
    comul: LinearMap  # space -> space (x) space
    counit: LinearMap  # space -> 1

    def __post_init__(self):
        if not self.comul.target.same_basis(tensor_space(self.space, self.space)):
            raise ShapeMismatch("comul target is not space (x) space")
        if not self.comul.source.same_basis(self.space):
            raise ShapeMismatch("comul source is not the carrier space")
        if self.counit.target.dim != 1 or not self.counit.source.same_basis(self.space):
            raise ShapeMismatch("counit must map the carrier to the monoidal unit")

    @property
    def field(self) -> FieldSpec:
        return self.space.field


@dataclass
class BialgebraData:
    alg: AlgebraData
    coalg: CoalgebraData
    self_braiding: LinearMap  # H (x) H -> H (x) H, used on the tensor square

    def __post_init__(self):
        if not self.alg.space.same_basis(self.coalg.space):
            raise ShapeMismatch("algebra and coalgebra live on different spaces")

    @property
    def space(self) -> BasedSpace:
        return self.alg.space

    @property
    def mul(self) -> LinearMap:
        return self.alg.mul

    @property
    def unit(self) -> LinearMap:
        return self.alg.unit

    @property
    def comul(self) -> LinearMap:
        return self.coalg.comul

    @property
    def counit(self) -> LinearMap:
        return self.coalg.counit


@dataclass
class HopfAlgebraData:
    bialg: BialgebraData
    antipode: LinearMap  # space -> space

    @property
    def space(self) -> BasedSpace:
        return self.bialg.space

    @property
    def alg(self) -> AlgebraData:
        return self.bialg.alg

    @property
    def coalg(self) -> CoalgebraData:
        return self.bialg.coalg

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


def check_algebra(a: AlgebraData) -> CheckReport:
    report = CheckReport(f"algebra on {a.space.name}")
    ident = LinearMap.identity(a.space)
    report.add(map_equal_item(
        "associativity",
        compose(a.mul, tensor_map(a.mul, ident)),
        compose(a.mul, tensor_map(ident, a.mul)),
    ))
    report.add(map_equal_item("left unit", compose(a.mul, tensor_map(a.unit, ident)), ident))
    report.add(map_equal_item("right unit", compose(a.mul, tensor_map(ident, a.unit)), ident))
    return report


def check_coalgebra(c: CoalgebraData) -> CheckReport:
    report = CheckReport(f"coalgebra on {c.space.name}")
    ident = LinearMap.identity(c.space)
    report.add(map_equal_item(
        "coassociativity",
        compose(tensor_map(c.comul, ident), c.comul),
        compose(tensor_map(ident, c.comul), c.comul),
    ))
    report.add(map_equal_item("left counit", compose(tensor_map(c.counit, ident), c.comul), ident))
    report.add(map_equal_item("right counit", compose(tensor_map(ident, c.counit), c.comul), ident))
    return report


def check_bialgebra(b: BialgebraData) -> CheckReport:
    report = CheckReport(f"bialgebra on {b.space.name}")
    report.extend(check_algebra(b.alg))
    report.extend(check_coalgebra(b.coalg))
    report.add(map_equal_item(
        "comul is an algebra morphism",
        compose(b.comul, b.mul),
        braided_product(b.comul, b.alg, b.alg, b.self_braiding),
    ))
    report.add(map_equal_item(
        "counit is an algebra morphism",
        compose(b.counit, b.mul),
        tensor_map(b.counit, b.counit),
    ))
    report.add(map_equal_item("comul of unit", compose(b.comul, b.unit), tensor_map(b.unit, b.unit)))
    report.add(map_equal_item(
        "counit of unit",
        compose(b.counit, b.unit),
        LinearMap.identity(unit_space(b.alg.field)),
    ))
    return report


def braided_product(
    f: LinearMap, a: AlgebraData, b: AlgebraData, c_ba: LinearMap
) -> LinearMap:
    """x (x) y -> f(x) f(y) for f: X -> A (x) B, in the braided tensor
    product algebra with multiplication (mul_A (x) mul_B)(id (x) c_{B,A} (x) id).

    Each pair of terms of two sparse columns of f is multiplied one slot at a
    time (braid the inner B (x) A pair, multiply in A, multiply in B), so
    neither f (x) f nor mul_A (x) mul_B is built."""
    if not f.target.same_basis(tensor_space(a.space, b.space)):
        raise ShapeMismatch("f is not a map into A (x) B")
    dx, da, db = f.source.dim, a.space.dim, b.space.dim
    fcols, ccols, acols, bcols = f.columns(), c_ba.columns(), a.mul.columns(), b.mul.columns()
    entries: dict = {}
    for (x, fx), (y, fy) in product(fcols.items(), repeat=2):
        for (i, u), (k, w) in product(fx, fy):
            a1, b1 = divmod(i, db)
            a2, b2 = divmod(k, db)
            for j, cv in ccols.get(b1 * da + a2, ()):
                a3, b3 = divmod(j, db)
                t = u * w * cv
                in_a, in_b = acols.get(a1 * da + a3, ()), bcols.get(b3 * db + b2, ())
                for (r, av), (s, bv) in product(in_a, in_b):
                    key = (r * db + s, x * dx + y)
                    acc = entries.get(key)
                    entries[key] = t * av * bv if acc is None else acc + t * av * bv
    return LinearMap(tensor_space(f.source, f.source), f.target, entries)


def iterated_mul(a: AlgebraData, n: int) -> LinearMap:
    """The n-times multiplication A^(n+1) -> A, left-nested."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = a.mul
    power = a.space
    for _ in range(n - 1):
        result = compose(result, tensor_map(a.mul, LinearMap.identity(power)))
        power = tensor_space(a.space, power)
    return result


def iterated_comul(c: CoalgebraData, n: int) -> LinearMap:
    """The n-times comultiplication C -> C^(n+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = c.comul
    power = c.space
    for _ in range(n - 1):
        result = compose(tensor_map(c.comul, LinearMap.identity(power)), result)
        power = tensor_space(c.space, power)
    return result


def convolution(f: LinearMap, g: LinearMap, c: CoalgebraData, a: AlgebraData) -> LinearMap:
    """f * g = mul (f (x) g) comul in Hom(C, A).

    Evaluated column by column over the sparse comultiplication, so the
    Kronecker product f (x) g is never materialized.
    """
    if not (f.source.same_basis(c.space) and f.target.same_basis(a.space)):
        raise ShapeMismatch("f is not a map C -> A")
    if not (g.source.same_basis(c.space) and g.target.same_basis(a.space)):
        raise ShapeMismatch("g is not a map C -> A")
    d = c.space.dim
    da = a.space.dim
    fcols, gcols, mcols = f.columns(), g.columns(), a.mul.columns()
    entries: dict = {}
    for (k, j), dv in c.comul.entries.items():
        k1, k2 = divmod(k, d)
        for i1, fv in fcols.get(k1, ()):
            for i2, gv in gcols.get(k2, ()):
                w = fv * gv * dv
                for r, mv in mcols.get(i1 * da + i2, ()):
                    key = (r, j)
                    acc = entries.get(key)
                    entries[key] = mv * w if acc is None else acc + mv * w
    return LinearMap(c.space, a.space, entries)


def convolution_unit(c: CoalgebraData, a: AlgebraData) -> LinearMap:
    return compose(a.unit, c.counit)


def convolution_inverse(f: LinearMap, c: CoalgebraData, a: AlgebraData) -> LinearMap:
    """The two-sided convolution inverse of f, found by one exact linear solve.

    The right inverse is obtained from the linear system f * g = unit; the
    left identity g * f = unit is then verified explicitly (right invertibility
    alone would not be conclusive). Raises NotInvertible.
    """
    na, nc = a.space.dim, c.space.dim
    field = a.field
    hom = BasedSpace("hom", tuple(f"m{k}" for k in range(na * nc)), field)
    col = BasedSpace("rhs", ("r",), field)
    one = field.one()
    entries = {}
    for i in range(na):
        for j in range(nc):
            basis_map = LinearMap(c.space, a.space, {(i, j): one})
            conv = convolution(f, basis_map, c, a)
            for (r, s), v in conv.entries.items():
                entries[(r * nc + s, i * nc + j)] = v
    big = LinearMap(hom, hom, entries)
    target = convolution_unit(c, a)
    rhs = LinearMap(col, hom, {(r * nc + s, 0): v for (r, s), v in target.entries.items()})
    try:
        sol = solve_linear(big, rhs)
    except NoSolution as exc:
        raise NotInvertible("no right convolution inverse") from exc
    g = LinearMap(
        c.space, a.space,
        {(k // nc, k % nc): v for (k, _), v in sol.entries.items()},
    )
    if convolution(g, f, c, a) != target:
        raise NotInvertible("right inverse is not a left inverse")
    return g


def convolution_inverse_or_none(f: LinearMap, c: CoalgebraData, a: AlgebraData):
    try:
        return convolution_inverse(f, c, a)
    except NotInvertible:
        return None


def antipode(b: BialgebraData) -> LinearMap:
    """The convolution inverse of the identity; raises NotHopf if absent."""
    try:
        return convolution_inverse(LinearMap.identity(b.space), b.coalg, b.alg)
    except NotInvertible as exc:
        raise NotHopf("identity is not convolution invertible") from exc


def check_hopf(h: HopfAlgebraData) -> CheckReport:
    report = check_bialgebra(h.bialg)
    report.subject = f"Hopf algebra on {h.space.name}"
    ident = LinearMap.identity(h.space)
    eta_eps = convolution_unit(h.coalg, h.alg)
    report.add(map_equal_item(
        "id * S = unit", convolution(ident, h.antipode, h.coalg, h.alg), eta_eps))
    report.add(map_equal_item(
        "S * id = unit", convolution(h.antipode, ident, h.coalg, h.alg), eta_eps))
    return report


def check_conv_naturality(
    psi: LinearMap,
    f: LinearMap,
    g: LinearMap,
    phi: LinearMap,
    c: CoalgebraData,
    a: AlgebraData,
    c_src: CoalgebraData,
    a_dst: AlgebraData,
) -> CheckReport:
    """psi (f * g) phi = (psi f phi) * (psi g phi), for an algebra morphism psi
    and a coalgebra morphism phi; on invertible f also checks the inverse rule."""
    report = CheckReport("convolution naturality")
    report.add(map_equal_item(
        "psi is an algebra morphism",
        compose(psi, a.mul),
        compose(a_dst.mul, tensor_map(psi, psi)),
    ))
    report.add(map_equal_item(
        "phi is a coalgebra morphism",
        compose(c.comul, phi),
        compose(tensor_map(phi, phi), c_src.comul),
    ))
    lhs = compose_all(psi, convolution(f, g, c, a), phi)
    rhs = convolution(compose_all(psi, f, phi), compose_all(psi, g, phi), c_src, a_dst)
    report.add(map_equal_item("psi (f*g) phi = (psi f phi)*(psi g phi)", lhs, rhs))
    f_inv = convolution_inverse_or_none(f, c, a)
    if f_inv is not None:
        report.add(map_equal_item(
            "inverse transports: (psi f phi)^-1 = psi f^-1 phi",
            convolution_inverse(compose_all(psi, f, phi), c_src, a_dst),
            compose_all(psi, f_inv, phi),
        ))
    return report
