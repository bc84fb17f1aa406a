"""Algebras, coalgebras, bialgebras and Hopf algebras by structure constants.

A bialgebra here lives in a category where the tensor square of the carrier
is made into a (co)algebra through a designated braiding; ``self_braiding``
holds that map.  For a classical bialgebra it is the vector-space flip.
Convolution inversion is an exact linear solve in the space Hom(C, A).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotHopf, NotInvertible, NoSolution, ShapeMismatch
from .fields import FieldSpec
from .linalg import (
    BasedSpace,
    LinearMap,
    apply_in_slot,
    compose,
    compose_all,
    precompose_in_slot,
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


def braided_square_algebra(b: BialgebraData) -> AlgebraData:
    """The algebra on H (x) H with multiplication (mul (x) mul)(id (x) c (x) id)."""
    space = tensor_space(b.space, b.space)
    mul = precompose_in_slot(tensor_map(b.mul, b.mul), b.space, b.self_braiding, b.space)
    unit = tensor_map(b.unit, b.unit)
    return AlgebraData(space, mul, unit)


def braided_square_coalgebra(b: BialgebraData) -> CoalgebraData:
    """The coalgebra on H (x) H with comultiplication (id (x) c (x) id)(comul (x) comul)."""
    space = tensor_space(b.space, b.space)
    comul = apply_in_slot(b.space, b.self_braiding, b.space, tensor_map(b.comul, b.comul))
    counit = tensor_map(b.counit, b.counit)
    return CoalgebraData(space, comul, counit)


def check_bialgebra(b: BialgebraData) -> CheckReport:
    report = CheckReport(f"bialgebra on {b.space.name}")
    report.extend(check_algebra(b.alg))
    report.extend(check_coalgebra(b.coalg))
    sq = braided_square_coalgebra(b)
    report.add(map_equal_item(
        "comul is an algebra morphism",
        compose(b.comul, b.mul),
        compose(braided_square_algebra(b).mul, tensor_map(b.comul, b.comul)),
    ))
    report.add(map_equal_item(
        "counit is an algebra morphism",
        compose(b.counit, b.mul),
        sq.counit,
    ))
    report.add(map_equal_item("comul of unit", compose(b.comul, b.unit), tensor_map(b.unit, b.unit)))
    report.add(map_equal_item(
        "counit of unit",
        compose(b.counit, b.unit),
        LinearMap.identity(unit_space(b.alg.field)),
    ))
    return report


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
    fcols: dict[int, list] = {}
    for (i, j), v in f.entries.items():
        fcols.setdefault(j, []).append((i, v))
    gcols: dict[int, list] = {}
    for (i, j), v in g.entries.items():
        gcols.setdefault(j, []).append((i, v))
    mcols: dict[int, list] = {}
    for (i, j), v in a.mul.entries.items():
        mcols.setdefault(j, []).append((i, v))
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
