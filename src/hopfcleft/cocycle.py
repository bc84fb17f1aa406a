"""Two-cocycles over a measuring and the crossed product they define.

All convolutions on the tensor square (and cube) of the braided bialgebra
use the braided coalgebra structure obtained from the one-sided braiding,
never the plain componentwise one. These pair and triple coalgebras depend
only on the bialgebra, so each is built once by
``braided.braided_tensor_coalgebra`` and kept on the ``BialgebraData`` it
belongs to.
"""

from __future__ import annotations

from .braided import (
    ComoduleAlgebra,
    Measuring,
    ambient_module_tensor,
    braided_tensor_coalgebra,
    braiding,
    c_nu,
)
from .errors import AxiomFailure, NotInvertible, ShapeMismatch
from .hopf import (
    AlgebraData,
    BialgebraData,
    CoalgebraData,
    check_algebra,
    convolution,
    convolution_inverse,
)
from .linalg import (
    LinearMap,
    compose,
    compose_all,
    tensor_map,
    tensor_maps,
    tensor_space,
)
from .report import CheckItem, CheckReport, map_equal_item


class Cocycle:
    def __init__(self, measuring: Measuring, sigma: LinearMap, sigma_inv: LinearMap,
                 verified: bool = False):
        self.measuring = measuring
        self.sigma = sigma  # H (x) H -> A
        self.sigma_inv = sigma_inv  # convolution inverse over the braided pair coalgebra
        self.verified = verified

    @property
    def hopf(self) -> BialgebraData:
        return self.measuring.hopf


def pair_coalgebra(hopf: BialgebraData) -> CoalgebraData:
    """The braided coalgebra on H (x) H used for every convolution here."""
    if hopf.pair_cache is None:
        hopf.pair_cache = braided_tensor_coalgebra(
            hopf.coalg, hopf.coalg, hopf.self_braiding)
    return hopf.pair_cache


def triple_coalgebra(hopf: BialgebraData) -> CoalgebraData:
    """The braided coalgebra on H (x) H (x) H (for the derived relations)."""
    if hopf.triple_cache is None:
        c = braiding(hopf.yd, ambient_module_tensor(hopf.yd.module, hopf.yd.module))
        hopf.triple_cache = braided_tensor_coalgebra(hopf.coalg, pair_coalgebra(hopf), c)
    return hopf.triple_cache


def sigma_hat(m: Measuring, sigma: LinearMap) -> LinearMap:
    """(sigma (x) mul) comul_{H (x) H} : H (x) H -> A (x) H."""
    return compose(tensor_map(sigma, m.hopf.mul), pair_coalgebra(m.hopf).comul)


def mu_sigma(m: Measuring, sigma: LinearMap) -> LinearMap:
    """The candidate multiplication on A (x) H induced by sigma."""
    a = m.algebra
    id_h = LinearMap.identity(m.hopf.space)
    return compose_all(
        tensor_map(a.mul, id_h),
        tensor_map(a.mul, sigma_hat(m, sigma)),
        tensor_maps(LinearMap.identity(a.space), c_nu(m), id_h),
    )


def trivial_sigma(m: Measuring) -> LinearMap:
    """sigma = unit_A (counit (x) counit), the smash-product cocycle."""
    return compose(m.algebra.unit, tensor_map(m.hopf.counit, m.hopf.counit))


def _shape_check(m: Measuring, sigma: LinearMap):
    want_src = tensor_space(m.hopf.space, m.hopf.space)
    if not sigma.source.same_basis(want_src) or not sigma.target.same_basis(m.space):
        raise ShapeMismatch("sigma must map H (x) H -> A")


def check_cocycle(m: Measuring, sigma: LinearMap) -> tuple[Cocycle | None, CheckReport]:
    """Verify convolution invertibility and relations (5)-(7); on success the
    derived relations are asserted as redundant consistency checks and a
    verified Cocycle is returned."""
    _shape_check(m, sigma)
    report = CheckReport("cocycle check")
    pair = pair_coalgebra(m.hopf)
    try:
        sigma_inv = convolution_inverse(sigma, pair, m.algebra)
    except NotInvertible:
        report.add(CheckItem(
            "convolution invertible", False, "no two-sided convolution inverse"))
        return None, report
    report.add(CheckItem("convolution invertible", True))
    a = m.algebra
    h = m.hopf.space
    id_a = LinearMap.identity(a.space)
    id_h = LinearMap.identity(h)
    cn = c_nu(m)
    hat = sigma_hat(m, sigma)
    report.add(map_equal_item(
        "(5) cocycle relation",
        compose_all(a.mul, tensor_map(id_a, sigma), tensor_map(hat, id_h)),
        compose_all(
            a.mul, tensor_map(id_a, sigma), tensor_map(cn, id_h), tensor_map(id_h, hat)),
    ))
    report.add(map_equal_item(
        "(6) twisted action relation",
        compose_all(a.mul, tensor_map(id_a, m.nu), tensor_map(hat, id_a)),
        compose_all(
            a.mul, tensor_map(id_a, sigma), tensor_map(cn, id_h), tensor_map(id_h, cn)),
    ))
    report.add(map_equal_item(
        "(7) normalization",
        compose(sigma, tensor_map(m.hopf.unit, m.hopf.unit)),
        a.unit,
    ))
    if report.ok:
        cocycle = Cocycle(m, sigma, sigma_inv, verified=True)
        report.extend(check_derived_relations(cocycle))
    else:
        cocycle = None
    return cocycle, report


def check_derived_relations(c: Cocycle) -> CheckReport:
    """The derived identities that hold for every cocycle."""
    m = c.measuring
    a = m.algebra
    hopf = m.hopf
    h = hopf.space
    id_h = LinearMap.identity(h)
    triple = triple_coalgebra(hopf)
    report = CheckReport("derived cocycle relations")

    def conv3(f, g):
        return convolution(f, g, triple, a)

    s, s_inv = c.sigma, c.sigma_inv
    s_eps = tensor_map(s, hopf.counit)
    s_inv_eps = tensor_map(s_inv, hopf.counit)
    s_mul_l = compose(s, tensor_map(hopf.mul, id_h))
    s_mul_r = compose(s, tensor_map(id_h, hopf.mul))
    s_inv_mul_l = compose(s_inv, tensor_map(hopf.mul, id_h))
    s_inv_mul_r = compose(s_inv, tensor_map(id_h, hopf.mul))
    nu_s = compose(m.nu, tensor_map(id_h, s))
    nu_s_inv = compose(m.nu, tensor_map(id_h, s_inv))
    report.add(map_equal_item(
        "(9) twisted module condition",
        conv3(s_eps, s_mul_l), conv3(nu_s, s_mul_r)))
    report.add(map_equal_item(
        "(10) inverse variant",
        conv3(s_mul_l, s_inv_mul_r), conv3(s_inv_eps, nu_s)))
    report.add(map_equal_item(
        "(11) inverse variant",
        conv3(s_mul_r, s_inv_mul_l), conv3(nu_s_inv, s_eps)))
    eta_eps = compose(a.unit, hopf.counit)
    report.add(map_equal_item(
        "(12) sigma is unital on the left",
        compose(s, tensor_map(hopf.unit, id_h)), eta_eps))
    report.add(map_equal_item(
        "(12) sigma is unital on the right",
        compose(s, tensor_map(id_h, hopf.unit)), eta_eps))
    report.add(map_equal_item(
        "(13) sigma_inv is unital on the left",
        compose(s_inv, tensor_map(hopf.unit, id_h)), eta_eps))
    report.add(map_equal_item(
        "(13) sigma_inv is unital on the right",
        compose(s_inv, tensor_map(id_h, hopf.unit)), eta_eps))
    return report


def check_mu_sigma_associativity(m: Measuring, sigma: LinearMap) -> CheckReport:
    """Direct associativity and unitality test of mu_sigma on A (x) H."""
    _shape_check(m, sigma)
    candidate = AlgebraData(
        tensor_space(m.space, m.hopf.space),
        mu_sigma(m, sigma),
        tensor_map(m.algebra.unit, m.hopf.unit),
    )
    report = check_algebra(candidate)
    report.subject = "mu_sigma associativity and unitality"
    return report


def sigma_recovery(m: Measuring, sigma: LinearMap) -> LinearMap:
    """(id (x) counit) mu_sigma (unit (x) id (x) unit (x) id), which must equal sigma."""
    id_h = LinearMap.identity(m.hopf.space)
    return compose_all(
        tensor_map(LinearMap.identity(m.space), m.hopf.counit),
        mu_sigma(m, sigma),
        tensor_maps(m.algebra.unit, id_h, m.algebra.unit, id_h),
    )


def crossed_product(c: Cocycle) -> ComoduleAlgebra:
    """The comodule algebra A #_sigma H with coaction id (x) comul."""
    if not c.verified:
        raise AxiomFailure("cocycle must be verified before forming the crossed product")
    m = c.measuring
    hopf = m.hopf
    a = m.algebra
    cn = c_nu(m)
    id_a = LinearMap.identity(a.space)
    id_h = LinearMap.identity(hopf.space)
    # intermediate identity of the associativity proof, asserted at build time
    lhs = compose(cn, tensor_map(id_h, a.mul))
    rhs = compose_all(
        tensor_map(a.mul, id_h), tensor_map(id_a, cn), tensor_map(cn, id_a))
    if lhs != rhs:
        raise AxiomFailure("c_nu fails the interchange identity; measuring is corrupt")
    algebra = AlgebraData(
        tensor_space(a.space, hopf.space),
        mu_sigma(m, c.sigma),
        tensor_map(a.unit, hopf.unit),
    )
    coaction = tensor_map(id_a, hopf.comul)
    carrier = ambient_module_tensor(m.carrier, hopf.yd.module)
    return ComoduleAlgebra(hopf, algebra, carrier, coaction)

