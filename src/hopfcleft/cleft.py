"""Cleft extensions, their cocycles, and the cocycle/cleft equivalence.

A cleft extension is a comodule algebra B with a convolution invertible
comodule morphism (section) gamma from the braided Hopf algebra into B.
The functor F, ``crossed_to_cleft``, sends a verified cocycle to its crossed
product with the canonical section; the functor G, ``cocycle_from_section``,
factors the canonical cocycle of a cleft extension through its coinvariants.
The two are mutually inverse and both directions are checked on concrete
matrices.
"""

from __future__ import annotations

from .braided import (
    ComoduleAlgebra,
    Measuring,
    braiding,
    check_comodule_algebra,
    coinvariants,
)
from .cocycle import Cocycle, check_cocycle, crossed_product, pair_coalgebra
from .errors import FactorizationFailure, NoSolution, ShapeMismatch, TheoremViolation
from .hopf import (
    convolution,
    convolution_inverse,
    convolution_unit,
    iterated_comul,
    iterated_mul,
)
from .linalg import (
    LinearMap,
    compose,
    compose_all,
    solve_linear,
    tensor_map,
    tensor_maps,
)
from .report import CheckItem, CheckReport, map_equal_item


class CleftExtension:
    def __init__(self, comodule_algebra: ComoduleAlgebra, gamma: LinearMap,
                 gamma_inv: LinearMap):
        self.comodule_algebra = comodule_algebra
        self.gamma = gamma  # H -> B, comodule morphism
        self.gamma_inv = gamma_inv  # two-sided convolution inverse of gamma

    @property
    def hopf(self):
        return self.comodule_algebra.hopf

    @property
    def algebra(self):
        return self.comodule_algebra.algebra

    @property
    def space(self):
        return self.comodule_algebra.space


def make_cleft(b: ComoduleAlgebra, gamma: LinearMap) -> CleftExtension:
    """Attach a section to a comodule algebra; raises NotInvertible if the
    candidate has no convolution inverse."""
    if not gamma.source.same_basis(b.hopf.space) or not gamma.target.same_basis(b.space):
        raise ShapeMismatch("section must map H -> B")
    gamma_inv = convolution_inverse(gamma, b.hopf.coalg, b.algebra)
    return CleftExtension(b, gamma, gamma_inv)


def check_cleft(ce: CleftExtension) -> CheckReport:
    """All defining properties: comodule algebra axioms, the section being a
    comodule morphism, two-sided convolution invertibility, and the induced
    coaction formula for the inverse section."""
    b = ce.comodule_algebra
    h = ce.hopf
    report = check_comodule_algebra(b)
    report.subject = f"cleft extension {b.space.name} over {h.space.name}"
    id_h = LinearMap.identity(h.space)
    report.add(map_equal_item(
        "section is a comodule morphism",
        compose(b.coaction, ce.gamma),
        compose(tensor_map(ce.gamma, id_h), h.comul),
    ))
    unit = convolution_unit(h.coalg, b.algebra)
    report.add(map_equal_item(
        "gamma * gamma_inv = unit",
        convolution(ce.gamma, ce.gamma_inv, h.coalg, b.algebra), unit))
    report.add(map_equal_item(
        "gamma_inv * gamma = unit",
        convolution(ce.gamma_inv, ce.gamma, h.coalg, b.algebra), unit))
    if h.antipode is not None:
        report.add(map_equal_item(
            "coaction of the inverse section",
            compose(b.coaction, ce.gamma_inv),
            compose_all(
                tensor_map(ce.gamma_inv, h.antipode),
                h.self_braiding,
                h.comul,
            ),
        ))
    return report


def closed_form_cleft(b: ComoduleAlgebra, gamma: LinearMap,
                      gamma_inv: LinearMap) -> CleftExtension:
    """The cleft extension of a section whose convolution inverse a theorem
    gives in closed form. Both sides are checked; a failure is a violated
    theorem, not bad input."""
    coalg = b.hopf.coalg
    unit = convolution_unit(coalg, b.algebra)
    if convolution(gamma, gamma_inv, coalg, b.algebra) != unit:
        raise TheoremViolation("closed-form inverse section fails on the right")
    if convolution(gamma_inv, gamma, coalg, b.algebra) != unit:
        raise TheoremViolation("closed-form inverse section fails on the left")
    return CleftExtension(b, gamma, gamma_inv)


def crossed_to_cleft(c: Cocycle) -> CleftExtension:
    """The functor F: the crossed product of a verified cocycle with its
    canonical section unit_A (x) id, and the closed-form convolution inverse
    of the section built from sigma_inv and the antipode."""
    b = crossed_product(c)
    m = c.measuring
    hopf = m.hopf
    if hopf.antipode is None:
        raise ShapeMismatch("crossed-to-cleft needs a Hopf algebra, not just a bialgebra")
    id_h = LinearMap.identity(hopf.space)
    gamma = tensor_map(m.algebra.unit, id_h)
    gamma_inv = compose_all(
        braiding(hopf.yd, m.carrier),
        tensor_map(id_h, c.sigma_inv),
        tensor_maps(hopf.antipode, hopf.antipode, id_h),
        iterated_comul(hopf.coalg),
    )
    return closed_form_cleft(b, gamma, gamma_inv)


def coinvariant_measuring(ce: CleftExtension) -> Measuring:
    """The measuring on the coinvariants induced by the section:
    iota nu = mul^2 (gamma (x) id (x) gamma_inv)(id (x) c_{H,B})(comul (x) iota)."""
    b = ce.comodule_algebra
    hopf = ce.hopf
    coinv = coinvariants(b)
    c_hb = braiding(hopf.yd, b.carrier)
    id_h = LinearMap.identity(hopf.space)
    through = compose_all(
        iterated_mul(b.algebra),
        tensor_maps(ce.gamma, LinearMap.identity(b.space), ce.gamma_inv),
        tensor_map(id_h, c_hb),
        tensor_map(hopf.comul, coinv.iota),
    )
    try:
        nu = solve_linear(coinv.iota, through)
    except NoSolution as exc:
        raise FactorizationFailure(
            "induced measuring does not land in the coinvariants") from exc
    return Measuring(hopf, coinv.algebra, coinv.carrier, nu)


def section_cocycle(ce: CleftExtension) -> tuple[Measuring, LinearMap, LinearMap]:
    """The functor G unchecked: the induced measuring, the cocycle sigma
    that sigma~ = (mul(gamma (x) gamma)) * (gamma_inv mul_H) factors into
    through the coinvariants, and the closed form of its inverse."""
    b = ce.comodule_algebra
    hopf = ce.hopf
    coinv = coinvariants(b)
    m = coinvariant_measuring(ce)
    pair = pair_coalgebra(hopf)
    sigma_tilde = convolution(
        compose(b.algebra.mul, tensor_map(ce.gamma, ce.gamma)),
        compose(ce.gamma_inv, hopf.mul),
        pair, b.algebra,
    )
    pi_tilde = convolution(
        compose(ce.gamma, hopf.mul),
        compose_all(
            b.algebra.mul,
            tensor_map(ce.gamma_inv, ce.gamma_inv),
            hopf.self_braiding,
        ),
        pair, b.algebra,
    )
    try:
        sigma = solve_linear(coinv.iota, sigma_tilde)
        pi = solve_linear(coinv.iota, pi_tilde)
    except NoSolution as exc:
        raise FactorizationFailure(
            "section cocycle does not land in the coinvariants") from exc
    return m, sigma, pi


def cocycle_from_section(ce: CleftExtension) -> tuple[Measuring, Cocycle, CheckReport]:
    """The functor G checked: ``section_cocycle``'s sigma verified a cocycle
    for its measuring, and its closed-form inverse equal to the solved one."""
    m, sigma, pi = section_cocycle(ce)
    cocycle, report = check_cocycle(m, sigma)
    report.require(FactorizationFailure, "section cocycle fails the cocycle relations")
    if cocycle.sigma_inv != pi:
        raise FactorizationFailure(
            "closed-form convolution inverse disagrees with the solved one")
    return m, cocycle, report


def iso_to_crossed(ce: CleftExtension) -> CheckReport:
    """Verify that mul (iota (x) gamma) is an isomorphism of comodule algebras
    from the crossed product over the coinvariants onto B, with explicit
    inverse (alpha (x) id) rho_B."""
    b = ce.comodule_algebra
    hopf = ce.hopf
    coinv = coinvariants(b)
    m, cocycle, _ = cocycle_from_section(ce)
    cp = crossed_product(cocycle)
    report = CheckReport(f"crossed product model of {b.space.name}")
    f = compose(b.algebra.mul, tensor_map(coinv.iota, ce.gamma))
    alpha_through = compose_all(
        b.algebra.mul,
        tensor_map(LinearMap.identity(b.space), ce.gamma_inv),
        b.coaction,
    )
    try:
        alpha = solve_linear(coinv.iota, alpha_through)
    except NoSolution as exc:
        raise FactorizationFailure(
            "projection onto the coinvariants does not factor") from exc
    g = compose(tensor_map(alpha, LinearMap.identity(hopf.space)), b.coaction)
    fg = compose(f, g)
    gf = compose(g, f)
    report.add(map_equal_item("f g = id", fg, LinearMap.identity(b.space)))
    report.add(map_equal_item("g f = id", gf, LinearMap.identity(cp.algebra.space)))
    report.add(map_equal_item(
        "f is an algebra morphism",
        compose(f, cp.algebra.mul),
        compose(b.algebra.mul, tensor_map(f, f)),
    ))
    report.add(map_equal_item(
        "f preserves the unit", compose(f, cp.algebra.unit), b.algebra.unit))
    report.add(map_equal_item(
        "f is a comodule morphism",
        compose(b.coaction, f),
        compose(tensor_map(f, LinearMap.identity(hopf.space)), cp.coaction),
    ))
    report.add(map_equal_item(
        "f restricts to the section",
        compose(f, tensor_map(m.algebra.unit, LinearMap.identity(hopf.space))),
        ce.gamma,
    ))
    return report


def round_trip_check(c: Cocycle) -> CheckReport:
    """G(F(A, sigma)) recovers (A, sigma) on the nose, after identifying the
    coinvariants of the crossed product with A via (id (x) counit) iota."""
    report = CheckReport("cocycle round trip")
    ce = crossed_to_cleft(c)
    coinv = coinvariants(ce.comodule_algebra)
    m2, c2, _ = cocycle_from_section(ce)
    m = c.measuring
    hopf = m.hopf
    # the identification of the recovered coinvariants with A
    ident = compose(
        tensor_map(LinearMap.identity(m.space), hopf.counit), coinv.iota)
    report.add(CheckItem(
        "coinvariants have the right dimension",
        coinv.algebra.space.dim == m.space.dim,
        None if coinv.algebra.space.dim == m.space.dim else
        f"dim {coinv.algebra.space.dim} != {m.space.dim}"))
    report.add(map_equal_item(
        "identification is an algebra morphism",
        compose(ident, m2.algebra.mul),
        compose(m.algebra.mul, tensor_map(ident, ident)),
    ))
    report.add(map_equal_item(
        "identification preserves the unit",
        compose(ident, m2.algebra.unit), m.algebra.unit))
    report.add(map_equal_item(
        "measuring is recovered",
        compose(ident, m2.nu),
        compose(m.nu, tensor_map(LinearMap.identity(hopf.space), ident)),
    ))
    report.add(map_equal_item(
        "cocycle is recovered", compose(ident, c2.sigma), c.sigma))
    return report
