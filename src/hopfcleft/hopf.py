"""Algebras, coalgebras, bialgebras and Hopf algebras by structure constants.

One record, ``BialgebraData``, holds every bialgebra, classical or braided,
Hopf or not. The tensor square of its carrier is made into a (co)algebra
through the braiding of its Yetter-Drinfeld structure; ``self_braiding``
holds that map, derived from ``yd`` by ``twist`` and never passed in. For a
classical bialgebra, the one over the trivial ambient, it is the flip.
``braided_product`` multiplies in such a braided tensor product algebra term
by term, so "comul is an algebra morphism" never builds mul (x) mul.
Convolution inversion is one exact sparse linear solve in Hom(C, A).

``convolution``, ``convolution_inverse`` and ``braided_product`` are raw
kernels in the sense of ``linalg``: they read their operands' sparse columns
as raw values, use the field's ``ops`` fetched once per call, and build their
result with the trusted ``LinearMap._from_raw``. ``convolution`` is driven by
the support of f: for each nonzero column k1 of f it visits only the terms
k1 (x) k2 of the comultiplication, through the left-leg index that each
``CoalgebraData`` builds once.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import NotHopf, NotInvertible, ShapeMismatch
from .fields import FieldSpec
from .linalg import (
    BasedSpace,
    LinearMap,
    _rref,
    compose,
    compose_all,
    tensor_map,
    tensor_space,
    unit_space,
)
from .report import CheckReport, map_equal_item


class AlgebraData:
    def __init__(self, space: BasedSpace, mul: LinearMap, unit: LinearMap):
        self.space = space
        self.mul = mul  # space (x) space -> space
        self.unit = unit  # 1 -> space
        if not mul.source.same_basis(tensor_space(space, space)):
            raise ShapeMismatch("mul source is not space (x) space")
        if not mul.target.same_basis(space):
            raise ShapeMismatch("mul target is not the carrier space")
        if unit.source.dim != 1 or not unit.target.same_basis(space):
            raise ShapeMismatch("unit must map the monoidal unit into the carrier")

    @property
    def field(self) -> FieldSpec:
        return self.space.field


class CoalgebraData:
    def __init__(self, space: BasedSpace, comul: LinearMap, counit: LinearMap):
        self.space = space
        self.comul = comul  # space -> space (x) space
        self.counit = counit  # space -> 1
        if not comul.target.same_basis(tensor_space(space, space)):
            raise ShapeMismatch("comul target is not space (x) space")
        if not comul.source.same_basis(space):
            raise ShapeMismatch("comul source is not the carrier space")
        if counit.target.dim != 1 or not counit.source.same_basis(space):
            raise ShapeMismatch("counit must map the carrier to the monoidal unit")

    @cached_property
    def comul_by_left_leg(self) -> dict[int, list]:
        """The comultiplication indexed by its left tensor leg, with raw
        values: k1 -> [(k2, j, comul[(k1 (x) k2), j])]. Built once per
        object."""
        d = self.space.dim
        index: dict[int, list] = {}
        for (k, j), v in self.comul.raw_entries().items():
            k1, k2 = divmod(k, d)
            index.setdefault(k1, []).append((k2, j, v))
        return index


class BialgebraData:
    """A bialgebra H-bar in the Yetter-Drinfeld category over an ambient Hopf
    algebra K, with ``antipode`` set when it is a Hopf algebra.

    ``yd`` is the Yetter-Drinfeld structure of H-bar over K, so ``ambient``
    is ``yd.base``, and ``self_braiding`` holds c_{H,H} = ``braiding(yd,
    yd.module)``, derived from ``yd``. A classical bialgebra is the one over
    the trivial ambient K = k: it is built without ``yd``, gets the trivial
    Yetter-Drinfeld structure on first use, and its self-braiding is the flip.
    """

    def __init__(self, alg: AlgebraData, coalg: CoalgebraData,
                 antipode: LinearMap | None = None, yd=None):
        self.alg = alg
        self.coalg = coalg
        self.antipode = antipode  # space -> space
        if yd is not None:
            self.yd = yd
        # the braided coalgebras on H (x) H and H (x) H (x) H, built on first
        # use by cocycle.pair_coalgebra and cocycle.triple_coalgebra
        self.pair_cache: CoalgebraData | None = None
        self.triple_cache: CoalgebraData | None = None
        if not alg.space.same_basis(coalg.space):
            raise ShapeMismatch("algebra and coalgebra live on different spaces")
        if antipode is not None and not (
                antipode.source.same_basis(alg.space) and antipode.target.same_basis(alg.space)):
            raise ShapeMismatch("antipode must map the carrier to itself")

    @cached_property
    def yd(self):
        """The trivial Yetter-Drinfeld structure over k, unless one was given."""
        from .braided import trivial_ambient, trivial_yd  # braided imports this module

        return trivial_yd(trivial_ambient(self.space.field), self.space)

    @cached_property
    def self_braiding(self) -> LinearMap:
        """c_{H,H} = ``braiding(yd, yd.module)``, used on the tensor square."""
        return twist(self.yd.coaction, self.yd.module.action)

    @property
    def ambient(self) -> BialgebraData:
        return self.yd.base

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
    add, mul = f.source.field.ops.add, f.source.field.ops.mul
    fcols, ccols = f._raw_columns(), c_ba._raw_columns()
    acols, bcols = a.mul._raw_columns(), b.mul._raw_columns()
    entries: dict = {}
    for (x, fx), (y, fy) in product(fcols.items(), repeat=2):
        for (i, u), (k, w) in product(fx, fy):
            a1, b1 = divmod(i, db)
            a2, b2 = divmod(k, db)
            uw = mul(u, w)
            for j, cv in ccols.get(b1 * da + a2, ()):
                a3, b3 = divmod(j, db)
                t = mul(uw, cv)
                in_a, in_b = acols.get(a1 * da + a3, ()), bcols.get(b3 * db + b2, ())
                for (r, av), (s, bv) in product(in_a, in_b):
                    key = (r * db + s, x * dx + y)
                    term = mul(mul(t, av), bv)
                    acc = entries.get(key)
                    entries[key] = term if acc is None else add(acc, term)
    return LinearMap._from_raw(tensor_space(f.source, f.source), f.target, entries)


def twist(coaction: LinearMap, action: LinearMap) -> LinearMap:
    """x (x) v -> x_(-1).v (x) x_(0) : X (x) V -> V (x) X, for a left coaction
    X -> K (x) X and a left action K (x) V -> V, evaluated over the sparse
    entries. Every braiding is one: the ``self_braiding`` of a bialgebra,
    c_{X,V} of ``braided.braiding`` and the c_{H,R}, c_{R,H} of the
    bosonization."""
    dx, dv = coaction.source.dim, action.target.dim
    if coaction.target.dim * dv != action.source.dim * dx:
        raise ShapeMismatch("coaction and action act through different Hopf algebras")
    by_k: dict[int, list] = {}  # k -> [(v, k.v row, value)]
    for (w, kv), av in action.entries.items():
        k, v = divmod(kv, dv)
        by_k.setdefault(k, []).append((v, w, av))
    entries: dict = {}
    for (kx, x), cv in coaction.entries.items():
        k, x0 = divmod(kx, dx)
        for v, w, av in by_k.get(k, ()):
            key = (w * dx + x0, x * dv + v)
            acc = entries.get(key)
            entries[key] = cv * av if acc is None else acc + cv * av
    return LinearMap(
        tensor_space(coaction.source, action.target),
        tensor_space(action.target, coaction.source), entries)


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

    Driven by the support of f: each nonzero column k1 of f meets only the
    comultiplication terms with left leg k1 (``comul_by_left_leg``), and of
    those only the ones whose right leg is a nonzero column of g. The
    Kronecker product f (x) g is never materialized.
    """
    if not (f.source.same_basis(c.space) and f.target.same_basis(a.space)):
        raise ShapeMismatch("f is not a map C -> A")
    if not (g.source.same_basis(c.space) and g.target.same_basis(a.space)):
        raise ShapeMismatch("g is not a map C -> A")
    da = a.space.dim
    add, mul = a.field.ops.add, a.field.ops.mul
    gcols, mcols, by_left = g._raw_columns(), a.mul._raw_columns(), c.comul_by_left_leg
    entries: dict = {}
    for k1, fcol in f._raw_columns().items():
        for k2, j, dv in by_left.get(k1, ()):
            gcol = gcols.get(k2)
            if gcol is None:
                continue
            for i1, fv in fcol:
                fdv = mul(fv, dv)
                base = i1 * da
                for i2, gv in gcol:
                    w = mul(fdv, gv)
                    for r, mv in mcols.get(base + i2, ()):
                        key = (r, j)
                        acc = entries.get(key)
                        entries[key] = mul(mv, w) if acc is None else add(acc, mul(mv, w))
    return LinearMap._from_raw(c.space, a.space, entries)


def convolution_unit(c: CoalgebraData, a: AlgebraData) -> LinearMap:
    return compose(a.unit, c.counit)


def convolution_inverse(f: LinearMap, c: CoalgebraData, a: AlgebraData) -> LinearMap:
    """The two-sided convolution inverse of f, found by one exact linear solve.

    The rows (r, j) of the system f * g = unit are written in one pass: the
    unknown g[i2,k2] has coefficient sum comul[(k1,k2),j] f[i1,k1] mul[r,(i1,i2)].
    The left identity g * f = unit is then verified explicitly (right
    invertibility alone would not be conclusive). Raises NotInvertible.
    """
    if not (f.source.same_basis(c.space) and f.target.same_basis(a.space)):
        raise ShapeMismatch("f is not a map C -> A")
    na, nc = a.space.dim, c.space.dim
    n = na * nc  # unknowns i2 * nc + k2; the right-hand side is column n
    ops = a.field.ops
    add, mul = ops.add, ops.mul
    mcols, by_left = a.mul._raw_columns(), c.comul_by_left_leg
    target = convolution_unit(c, a)
    entries = {(r * nc + j, n): v for (r, j), v in target.raw_entries().items()}
    for k1, fcol in f._raw_columns().items():
        for k2, j, dv in by_left.get(k1, ()):
            for i1, fv in fcol:
                w = mul(dv, fv)
                for i2 in range(na):
                    col = i2 * nc + k2
                    for r, mv in mcols.get(i1 * na + i2, ()):
                        key = (r * nc + j, col)
                        acc = entries.get(key)
                        entries[key] = mul(w, mv) if acc is None else add(acc, mul(w, mv))
    reduced = _rref(((key, v) for key, v in entries.items() if not ops.is_zero(v)), ops)
    if any(col >= n for col in reduced):
        raise NotInvertible("no right convolution inverse")
    g = LinearMap._from_raw(c.space, a.space, {
        divmod(col, nc): row[n] for col, row in reduced.items() if n in row})
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


def check_hopf(h: BialgebraData) -> CheckReport:
    report = check_bialgebra(h)
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
