"""Bosonization, scalar cocycles on it, and cocycle deformations.

A connected graded Hopf algebra R in the Yetter-Drinfeld category over H
bosonizes to a classical Hopf algebra on R (x) H: the braided tensor product
algebra and coalgebra of R and H with the twists c_{H,R}(h (x) r) =
h1.r (x) h2 and c_{R,H}(r (x) h) = r(-1) h (x) r(0). Scalar two-cocycles on the
bosonization that are trivial on the H-part (the restricted ones) correspond
bijectively to braided scalar cocycles on R, and their deformations have the
bosonization as associated graded. A restricted cocycle is the classical
``Cocycle`` over the trivial measuring of the bosonization that
``check_zprime`` returns: one also determined by its values on R (x) R,
relation (8). Every degree is read off R's grading by ``_degrees``, which
tells R's factors apart from the ambient's by identity.
"""

from __future__ import annotations

# only the restricted-cocycle paths call into these; bosonize and the
# grading checks leave them unexecuted
from . import cleft as _cleft, cocycle as _cocycle, oracle as _oracle
from .braided import (
    ComoduleAlgebra,
    ambient_module_tensor,
    braided_tensor_algebra,
    braided_tensor_coalgebra,
    trivial_measuring,
    trivial_module,
    trivial_yd,
    twist,
    yd_tensor,
)
from .errors import (
    CENSUS_BOUND,
    AxiomFailure,
    NotInvertible,
    SearchSpaceTooLarge,
    ShapeMismatch,
    TheoremViolation,
    ValidationError,
)
from .hopf import (
    AlgebraData,
    BialgebraData,
    antipode,
    check_hopf,
    convolution,
    convolution_inverse,
    iterated_mul,
)
from .linalg import (
    BasedSpace,
    LinearMap,
    compose,
    compose_all,
    flip_map,
    invert,
    tensor_map,
    tensor_maps,
    tensor_space,
    unit_space,
)
from .report import CheckItem, CheckReport, map_equal_item


class GradedYDHopf:
    """A Hopf algebra in the Yetter-Drinfeld category with a connected
    grading on its basis. Cosemisimplicity of the ambient is assumed, never
    verified. R's space must be its own: ``_degrees`` tells R's factors from
    the ambient's by identity."""

    def __init__(self, hopf: BialgebraData, grading: dict[str, int]):
        if any(f is hopf.space for f in hopf.ambient.space.atomic_factors()):
            raise ShapeMismatch(
                f"space {hopf.space.name!r} is the space of its ambient; "
                "R needs a space of its own")
        self.hopf = hopf
        self.grading = grading

    @property
    def ambient(self) -> BialgebraData:
        return self.hopf.ambient

    @property
    def space(self) -> BasedSpace:
        return self.hopf.space


def _degrees(space: BasedSpace, g: GradedYDHopf) -> list[int]:
    """The degree of each basis vector of ``space``, a tensor product of R
    with other spaces: the sum of the degrees of its R factors. R's factors
    are told apart from the others by identity, never by their labels."""
    degrees = [0]
    for f in space.atomic_factors():
        own = [g.grading[lab] for lab in f.labels] if f is g.space else [0] * f.dim
        degrees = [d + e for d in degrees for e in own]
    return degrees


def check_graded(g: GradedYDHopf) -> CheckReport:
    """Connectedness and exact homogeneity of all six structure morphisms."""
    report = CheckReport(f"grading on {g.space.name}")
    r = g.hopf
    zero_labels = [lab for lab in g.space.labels if g.grading[lab] == 0]
    # the unit is a nonzero multiple of the one degree-zero basis vector
    connected = len(zero_labels) == 1 and list(r.unit.raw_entries()) == [
        (g.space.index(zero_labels[0]), 0)]
    report.add(CheckItem(
        "degree zero is spanned by the unit", connected,
        None if connected else f"degree-zero labels {zero_labels}"))

    report.add(_homogeneous("multiplication is graded", r.mul, g))
    report.add(_homogeneous("comultiplication is graded", r.comul, g))
    report.add(_homogeneous("counit is graded", r.counit, g))
    report.add(_homogeneous("ambient action preserves degree", r.yd.module.action, g))
    report.add(_homogeneous("ambient coaction preserves degree", r.yd.coaction, g))
    if r.antipode is not None:
        report.add(_homogeneous("antipode is graded", r.antipode, g))
    return report


def _homogeneous(name: str, f: LinearMap, g: GradedYDHopf) -> CheckItem:
    """f maps each basis vector into the span of vectors of its own degree,
    the degrees read off R's grading by ``_degrees``."""
    rows, cols = _degrees(f.target, g), _degrees(f.source, g)
    for i, j in f.raw_entries():
        if rows[i] != cols[j]:
            return CheckItem(
                name, False,
                f"{f.target.label(i)} <- {f.source.label(j)}: {rows[i]} != {cols[j]}")
    return CheckItem(name, True)


def check_graded_yd_hopf(g: GradedYDHopf) -> CheckReport:
    """R as a Hopf algebra in the Yetter-Drinfeld category: the Hopf axioms
    over its self-braiding, its five structure maps as morphisms of ambient
    modules and comodules, then ``check_graded``."""
    r, yd = g.hopf, g.hopf.yd
    report = check_hopf(r)
    report.subject = f"Hopf algebra on {g.space.name} in the Yetter-Drinfeld category"
    id_k = LinearMap.identity(g.ambient.space)
    pair, one = yd_tensor(yd, yd), trivial_yd(g.ambient, unit_space(g.space.field))
    for name, f, x, y in (("mul", r.mul, pair, yd), ("unit", r.unit, one, yd),
                          ("comul", r.comul, yd, pair), ("counit", r.counit, yd, one),
                          ("antipode", r.antipode, yd, yd)):
        report.add(map_equal_item(
            f"{name} is an ambient-module morphism",
            compose(f, x.module.action), compose(y.module.action, tensor_map(id_k, f))))
        report.add(map_equal_item(
            f"{name} is an ambient-comodule morphism",
            compose(tensor_map(id_k, f), x.coaction), compose(y.coaction, f)))
    report.extend(check_graded(g))
    return report


class Bosonization:
    """The bosonization of ``source``: ``hopf`` is the classical Hopf algebra
    on R (x) H, which keeps its own pair and triple coalgebras, and
    ``ambient`` is H, the ambient of R."""

    def __init__(self, source: GradedYDHopf, hopf: BialgebraData):
        self.source = source
        self.hopf = hopf  # classical Hopf algebra on R (x) H
        self.degrees = _degrees(hopf.space, source)  # of each basis vector of R (x) H
        # the check_zprime verdict on each distinct sigma checked so far,
        # empty on every new object
        self.zprime_cache: dict[LinearMap, tuple[_cocycle.Cocycle | None, CheckReport]] = {}
        # the two parts of the twisting equations, kept per sigma likewise
        self.sigma_hats: dict[LinearMap, LinearMap] = {}
        self.quadratic_parts: dict[LinearMap, LinearMap] = {}

    @property
    def space(self) -> BasedSpace:
        return self.hopf.space

    @property
    def ambient(self) -> BialgebraData:
        return self.source.ambient


def bosonize(g: GradedYDHopf) -> Bosonization:
    """The classical Hopf algebra on R (x) H (Radford's biproduct): the
    braided tensor product algebra with c_{H,R} = twist(comul_H, action_R),
    h (x) r -> h1.r (x) h2, and the braided tensor product coalgebra with
    c_{R,H} = twist(coaction_R, mul_H), r (x) h -> r(-1) h (x) r(0). The
    closed-form antipode is asserted against the convolution inverse of the
    identity."""
    check_graded_yd_hopf(g).require(AxiomFailure, "invalid graded input")
    r = g.hopf
    h = g.ambient
    alg = braided_tensor_algebra(r.alg, h.alg, twist(h.comul, r.yd.module.action))
    coalg = braided_tensor_coalgebra(r.coalg, h.coalg, twist(r.yd.coaction, h.mul))
    hopf = BialgebraData(alg, coalg)
    s_closed = convolution(
        tensor_map(compose(r.unit, r.counit), h.antipode),
        tensor_map(r.antipode, compose(h.unit, h.counit)),
        coalg, alg,
    )
    if s_closed != antipode(hopf):
        raise AxiomFailure("closed-form antipode disagrees with the convolution inverse")
    hopf.antipode = s_closed
    check_hopf(hopf).require(AxiomFailure, "bosonization fails")
    b = Bosonization(g, hopf)
    check_boson_grading(b).require(AxiomFailure, "bosonization grading fails")
    return b


def check_boson_grading(b: Bosonization) -> CheckReport:
    """The product grading is a Hopf algebra grading: multiplication adds
    degrees and comultiplication splits them, both exactly."""
    report = CheckReport(f"Hopf grading on {b.space.name}")
    report.add(_homogeneous("multiplication adds degrees", b.hopf.mul, b.source))
    report.add(_homogeneous("comultiplication splits degrees", b.hopf.comul, b.source))
    return report


def _embed_r(b: Bosonization) -> LinearMap:
    """R -> R (x) H, r -> r (x) 1."""
    g = b.source
    return tensor_map(LinearMap.identity(g.space), b.ambient.unit)


def _embed_h(b: Bosonization) -> LinearMap:
    """H -> R (x) H, h -> 1 (x) h."""
    g = b.source
    return tensor_map(g.hopf.unit, LinearMap.identity(b.ambient.space))


def _spread(b: Bosonization) -> LinearMap:
    """(r (x) h) (x) (r' (x) h') -> r (x) h.r' eps(h'), from pairs on the
    bosonization to R (x) R."""
    g = b.source
    return tensor_maps(LinearMap.identity(g.space), g.hopf.yd.module.action, b.ambient.counit)


def _restricted_form(b: Bosonization, sigma: LinearMap) -> LinearMap:
    """The map (r (x) h, r' (x) h') -> sigma(r (x) 1, (h.r') (x) 1) eps(h')."""
    j = _embed_r(b)
    return compose_all(sigma, tensor_map(j, j), _spread(b))


def check_zprime(b: Bosonization, sigma: LinearMap) -> tuple[_cocycle.Cocycle | None, CheckReport]:
    """``check_cocycle`` over the trivial measuring of the bosonization, then
    the restriction condition (8), with the derived consequences asserted
    whenever both hold. The cocycle is returned only when the whole report is
    ok: it is then a restricted cocycle.

    Each distinct sigma is verified once per bosonization: the verdict is kept
    on ``b`` and shared with every later call on an equal map (equal maps have
    the same basis labels, so the report text is the same too). Every call
    gets its own report, and a cocycle carrying the caller's sigma."""
    verdict = b.zprime_cache.get(sigma)
    if verdict is None:
        verdict = b.zprime_cache[sigma] = _check_zprime(b, sigma)
    cocycle, report = verdict
    if cocycle is not None:
        cocycle = _cocycle.Cocycle(cocycle.measuring, sigma, cocycle.sigma_inv, verified=True)
    return cocycle, CheckReport(report.subject, list(report.items))


def _check_zprime(b: Bosonization, sigma: LinearMap) -> tuple[_cocycle.Cocycle | None, CheckReport]:
    cocycle, report = _cocycle.check_cocycle(trivial_measuring(b.hopf), sigma)
    report.subject = f"scalar cocycle on {b.space.name}"
    report.add(map_equal_item(
        "(8) determined by values on R x R", sigma, _restricted_form(b, sigma)))
    if report.ok:
        report.extend(_zprime_derived(b, sigma, cocycle.sigma_inv))
    return (cocycle if report.ok else None), report


def _zprime_derived(b: Bosonization, sigma: LinearMap, sigma_inv: LinearMap) -> CheckReport:
    g = b.source
    report = CheckReport("derived restriction relations")
    id_hh = LinearMap.identity(b.space)
    id_r = LinearMap.identity(g.space)
    eps_h = b.ambient.counit
    project = tensor_map(id_r, compose(b.ambient.unit, eps_h))
    report.add(map_equal_item(
        "right factor reduces to its R part",
        sigma, compose(sigma, tensor_map(id_hh, project))))
    counit_pair = tensor_map(b.hopf.counit, eps_h)
    report.add(map_equal_item(
        "trivial on (anything, 1 x h)",
        compose(sigma, tensor_map(id_hh, _embed_h(b))), counit_pair))
    report.add(map_equal_item(
        "trivial on (1 x h, anything)",
        compose(sigma, tensor_map(_embed_h(b), id_hh)),
        tensor_map(eps_h, b.hopf.counit)))
    report.add(map_equal_item(
        "inverse is also determined by R x R values",
        sigma_inv, _restricted_form(b, sigma_inv)))
    return report


def phi(b: Bosonization, pi: _cocycle.Cocycle) -> _cocycle.Cocycle:
    """Extend a braided scalar cocycle on R to the bosonization:
    sigma(r (x) h, r' (x) h') = pi(r, h.r') eps(h')."""
    g = b.source
    if not pi.measuring.hopf.space.same_basis(g.space):
        raise ValidationError("pi must be a cocycle on the braided factor")
    if pi.measuring.space.dim != 1:
        raise ValidationError("phi needs a scalar-valued cocycle")
    check_equivariant_pair(g, pi.sigma).require(
        AxiomFailure, "pi is not an ambient-module morphism")
    spread = _spread(b)
    sigma = compose(pi.sigma, spread)
    closed_inv = compose(pi.sigma_inv, spread)
    result, report = check_zprime(b, sigma)
    report.require(TheoremViolation, "extension of a verified cocycle rejected")
    if result.sigma_inv != closed_inv:
        raise TheoremViolation("closed-form inverse disagrees with the solved one")
    return result


def check_equivariant_pair(g: GradedYDHopf, f: LinearMap) -> CheckReport:
    """f : R (x) R -> unit is an ambient-module morphism: f(h.(r (x) r')) =
    eps(h) f(r (x) r'), with the diagonal ambient action."""
    report = CheckReport("ambient equivariance")
    pair = ambient_module_tensor(g.hopf.yd.module, g.hopf.yd.module)
    report.add(map_equal_item(
        "equivariance",
        compose(f, pair.action),
        tensor_map(g.ambient.counit, f),
    ))
    return report


def phi_inverse(b: Bosonization, s: _cocycle.Cocycle) -> _cocycle.Cocycle:
    """Restrict a verified scalar cocycle on the bosonization that satisfies
    (8) to R (x) R; the result is a verified braided cocycle and extending it
    back recovers s exactly."""
    if not s.verified or _restricted_form(b, s.sigma) != s.sigma:
        raise AxiomFailure("only restricted cocycles can be pulled back")
    g = b.source
    j = _embed_r(b)
    pi_map = compose(s.sigma, tensor_map(j, j))
    m = trivial_measuring(g.hopf)
    cocycle, report = _cocycle.check_cocycle(m, pi_map)
    report.require(TheoremViolation, "restriction of a verified cocycle rejected")
    check_equivariant_pair(g, cocycle.sigma).require(
        TheoremViolation, "restricted cocycle lost ambient equivariance")
    if compose(s.sigma_inv, tensor_map(j, j)) != cocycle.sigma_inv:
        raise TheoremViolation("restricted inverse disagrees with the solved one")
    if compose(pi_map, _spread(b)) != s.sigma:
        raise TheoremViolation("extension of the restriction does not recover sigma")
    return cocycle


def smash_comodule_algebra(b: Bosonization, e: ComoduleAlgebra) -> ComoduleAlgebra:
    """The smash product E (x) H, the braided tensor product algebra with
    c_{H,E} = twist(comul_H, action_E), and the coaction
    rho(e (x) h) = e0 (x) e1(-1) h1 (x) e1(0) (x) h2 over the bosonization,
    c_{R,H} = twist(coaction_R, mul_H) applied to rho_E (x) comul_H."""
    g = b.source
    h = g.ambient
    algebra = braided_tensor_algebra(e.algebra, h.alg, twist(h.comul, e.carrier.action))
    coaction = compose(
        tensor_maps(LinearMap.identity(e.space), twist(g.hopf.yd.coaction, h.mul),
                    LinearMap.identity(h.space)),
        tensor_map(e.coaction, h.comul))
    carrier = trivial_module(b.hopf.ambient, algebra.space)
    return ComoduleAlgebra(b.hopf, algebra, coaction=coaction, carrier=carrier)


def psi(b: Bosonization, ce: _cleft.CleftExtension) -> _cleft.CleftExtension:
    """From a cleft object over R (in the ambient-module category, with an
    equivariant section) to a cleft object over the bosonization, with section
    gamma (x) id and closed-form convolution inverse."""
    g = b.source
    h = g.ambient
    e = ce.comodule_algebra
    if not ce.hopf.space.same_basis(g.space):
        raise ValidationError("the cleft input must live over the braided factor")
    equivariant = compose(ce.gamma, g.hopf.yd.module.action) == compose(
        e.carrier.action,
        tensor_map(LinearMap.identity(h.space), ce.gamma))
    if not equivariant:
        raise AxiomFailure("section is not an ambient-module morphism")
    big = smash_comodule_algebra(b, e)
    gamma_inv = convolution(
        tensor_map(compose(e.algebra.unit, g.hopf.counit), h.antipode),
        tensor_map(ce.gamma_inv, compose(h.unit, h.counit)),
        b.hopf.coalg, big.algebra,
    )
    section = tensor_map(ce.gamma, LinearMap.identity(h.space))
    return _cleft.closed_form_cleft(big, section, gamma_inv)


def check_cprime_section(b: Bosonization, ce: _cleft.CleftExtension) -> CheckReport:
    """The multiplicativity condition (9) of a section against group-algebra
    factors, and its three derived consequences when it holds."""
    g = b.source
    hs = b.ambient.space
    boson = b.hopf
    bigspace = b.space
    report = CheckReport(f"restricted section on {ce.space.name}")
    jh = _embed_h(b)
    gamma, gamma_inv = ce.gamma, ce.gamma_inv
    mul2 = iterated_mul(boson.alg)
    emul2 = iterated_mul(ce.algebra)
    id_big = LinearMap.identity(bigspace)
    sandwich = compose(mul2, tensor_maps(jh, id_big, jh))
    item = map_equal_item(
        "(9) section is multiplicative against the group part",
        compose(gamma, sandwich),
        compose(emul2, tensor_maps(compose(gamma, jh), gamma, compose(gamma, jh))),
    )
    report.add(item)
    if not item.ok:
        return report
    id_r = LinearMap.identity(g.space)
    report.add(map_equal_item(
        "splitting off a right group factor",
        compose(gamma, tensor_map(id_r, b.ambient.mul)),
        compose(ce.algebra.mul, tensor_map(gamma, compose(gamma, jh))),
    ))
    report.add(map_equal_item(
        "antipode gives the inverse on the group part",
        compose_all(gamma, jh, b.ambient.antipode),
        compose(gamma_inv, jh),
    ))
    reverse = compose(  # h (x) x (x) h' -> h' (x) x (x) h
        tensor_map(LinearMap.identity(hs), flip_map(hs, bigspace)),
        flip_map(tensor_space(hs, bigspace), hs))
    report.add(map_equal_item(
        "inverse section reverses the sandwich",
        compose(gamma_inv, sandwich),
        compose(emul2, compose(
            tensor_maps(compose(gamma_inv, jh), gamma_inv, compose(gamma_inv, jh)), reverse)),
    ))
    return report


def sigma_gamma_restricts(
    b: Bosonization, ce: _cleft.CleftExtension
) -> tuple[_cocycle.Cocycle, CheckReport]:
    """The canonical cocycle of a section satisfying (9) is itself restricted."""
    section_report = check_cprime_section(b, ce).require(
        AxiomFailure, "section fails the restriction condition")
    m, cocycle, _ = _cleft.cocycle_from_section(ce)
    if m.space.dim != 1:
        raise AxiomFailure("the input must be a cleft object (trivial coinvariants)")
    # identify the one-dimensional coinvariants with the monoidal unit
    sigma = compose(invert(m.algebra.unit), cocycle.sigma)
    result, report = check_zprime(b, sigma)
    report.require(TheoremViolation, "section cocycle is not restricted")
    return result, section_report


def deform(b: Bosonization, s: _cocycle.Cocycle) -> BialgebraData:
    """The cocycle deformation: the same coalgebra with Doi's twisted product

        x ._sigma y = sigma(x1, y1) x2 y2 sigma^-1(x3, y3).

    This is the convolution sigma * mul * sigma^-1 in Hom(H (x) H, H) over
    the pair coalgebra of the bosonization (sigma and its inverse land in H
    through the unit), evaluated as two sparse convolutions."""
    if not s.verified:
        raise AxiomFailure("deformation requires a verified cocycle")
    hopf = b.hopf
    pair = _cocycle.pair_coalgebra(hopf)
    left = convolution(compose(hopf.unit, s.sigma), hopf.mul, pair, hopf.alg)
    mul = convolution(left, compose(hopf.unit, s.sigma_inv), pair, hopf.alg)
    alg = AlgebraData(hopf.space, mul, hopf.unit)
    deformed = BialgebraData(alg, hopf.coalg)
    deformed.antipode = antipode(deformed)
    check_hopf(deformed).require(AxiomFailure, "deformation fails Hopf axioms")
    return deformed


def gr_check(b: Bosonization, deformed: BialgebraData) -> CheckReport:
    """The deformed product minus the undeformed one strictly lowers degree.
    The undeformed product is homogeneous (``bosonize`` checks it), so this
    says both that products never exceed the degree sum and that the
    top-degree component is the undeformed product exactly. The first column
    of the difference with an entry of degree at least its top degree names
    the failing item: the filtration if the entry lies above it."""
    report = CheckReport(f"graded comparison on {b.space.name}")
    filtered = "products respect the filtration"
    top = "top-degree component is the undeformed product"
    d, degs, label = b.space.dim, b.degrees, b.space.label
    tops = _degrees(b.hopf.mul.source, b.source)
    diff = (deformed.mul - b.hopf.mul)._raw_columns()
    for col in sorted(diff):
        high = [i for i, _ in diff[col] if degs[i] >= tops[col]]
        if high:
            pair = f"{label(col // d)} * {label(col % d)}"
            over = [i for i in high if degs[i] > tops[col]]
            if over:
                report.add(CheckItem(filtered, False, f"{label(over[0])} in {pair}"))
            else:
                report.add(CheckItem(filtered, True))
                report.add(CheckItem(top, False, pair))
            return report
    report.add(CheckItem(filtered, True))
    report.add(CheckItem(top, True))
    return report


def braided_cocycles(
    g: GradedYDHopf, bound: int
) -> tuple[list[_cocycle.Cocycle], list[_cocycle.Cocycle]]:
    """The braided scalar cocycles on R found by the exhaustive sweep, and the
    ambient-equivariant ones among them, in enumeration order: ``phi`` maps
    the latter one to one onto the restricted cocycles of the bosonization."""
    raw = _oracle.enumerate_cocycles(trivial_measuring(g.hopf), bound)
    return raw, [pi for pi in raw if check_equivariant_pair(g, pi.sigma).ok]


class CensusResult:
    """The restricted-cocycle census of a bosonization over a prime field."""

    def __init__(self, report: CheckReport, sigmas: list[_cocycle.Cocycle],
                 classes: list[list[int]]):
        self.report = report
        self.sigmas = sigmas  # extensions of the braided cocycles on R, enumeration order
        self.classes = classes  # crossed-product isomorphism classes (indices)


def cleft_prime_census(b: Bosonization, bound: int = CENSUS_BOUND) -> CensusResult:
    """Enumerate all braided scalar cocycles on R, extend them to the
    bosonization, cross-check against the direct sweep of restricted scalar
    cocycles, verify that the crossed-product route and the product-algebra
    route give the same cleft object for every entry, and group the results
    into comodule-algebra isomorphism classes. The extension, the direct
    sweep and the section cocycle each end in ``check_zprime`` on an equal
    map; the full check runs once per restricted cocycle and the later
    routes share its verdict."""
    report = CheckReport(f"restricted cocycle census on {b.space.name}")
    raw, cocycles = braided_cocycles(b.source, bound)
    report.add(CheckItem(
        "every enumerated braided cocycle is equivariant",
        len(raw) == len(cocycles),
        None if len(raw) == len(cocycles) else f"{len(raw) - len(cocycles)} dropped"))
    sigmas = [phi(b, pi) for pi in cocycles]
    direct = _oracle.enumerate_zprime(b, bound)
    same_list = [s.sigma for s in sigmas] == [s.sigma for s in direct]
    report.add(CheckItem(
        "extension of the braided sweep equals the direct restricted sweep",
        same_list,
        None if same_list else f"{len(sigmas)} extended vs {len(direct)} direct"))
    route_ok = True
    witness = None
    for pi, s in zip(cocycles, sigmas):
        ce = psi(b, _cleft.crossed_to_cleft(pi))
        back, _ = sigma_gamma_restricts(b, ce)
        if back.sigma != s.sigma:
            route_ok = False
            witness = "product-algebra route disagrees with the extension"
            break
        d = deform(b, s)
        if not gr_check(b, d).ok:
            route_ok = False
            witness = "deformation is not filtered with graded top"
            break
    report.add(CheckItem(
        "both routes agree and every deformation has the graded top", route_ok, witness))
    classes = census_classes(b, sigmas, bound)
    return CensusResult(report, sigmas, classes)


def census_classes(
    b: Bosonization, sigmas: list[_cocycle.Cocycle], bound: int = CENSUS_BOUND
) -> list[list[int]]:
    """Partition the extended cocycles into comodule-algebra isomorphism
    classes of their crossed products. Each member is compared with the first
    member of every class so far by a complete search for a twisting
    functional (see ``_cleft_objects_isomorphic``); ``bound`` caps the values
    one comparison may try. Returns index groups into the input list."""
    classes: list[list[int]] = []
    for idx, s in enumerate(sigmas):
        placed = False
        for group in classes:
            if _cleft_objects_isomorphic(b, sigmas[group[0]], s, bound):
                group.append(idx)
                placed = True
                break
        if not placed:
            classes.append([idx])
    return classes


def _cleft_objects_isomorphic(
    b: Bosonization, s1: _cocycle.Cocycle, s2: _cocycle.Cocycle, bound: int
) -> bool:
    """Two scalar crossed products are isomorphic as comodule algebras iff some
    convolution invertible functional phi with phi(1) = 1 twists one cocycle
    into the other: s2(x1,y1) phi(x2 y2) = phi(x1) phi(y1) s1(x2,y2).

    The equation for each basis pair (x, y) is a quadratic form in the values
    phi[k], and phi is found by backtracking: the unknowns are bound in degree
    order (grouplikes first), each equation is checked as soon as its last
    unknown is bound, and an unknown that some equation of its level contains
    only linearly, with a nonzero coefficient, is solved for instead of
    swept. The search is complete; every solution is tested for convolution
    invertibility. Raises SearchSpaceTooLarge once more than ``bound`` values
    have been tried."""
    field = b.space.field
    if field.kind != "prime":
        raise SearchSpaceTooLarge("isomorphism search needs a prime field")
    if s1.sigma == s2.sigma:
        return True
    hopf = b.hopf
    d = b.space.dim
    p = field.p
    # phi[d] = 1 is the constant slot; phi(1) = 1 is one more equation,
    # sum_k u_k phi[k] - 1 = 0 over the unit's coordinates u
    unit = [(d, k, v) for (k, _), v in hopf.unit.raw_entries().items()]
    order = sorted(range(d), key=lambda i: (b.degrees[i], i))
    rank = {u: t for t, u in enumerate(order)}
    rank[d] = -1
    # per level: (terms, solvable) for each equation whose last unknown is
    # bound there; solvable = (coefficients of u, the terms without u) when
    # the level's unknown u occurs only linearly
    levels: list[list] = [[] for _ in order]
    for terms in [[*unit, (d, d, p - 1)], *_twisting_equations(b, s1, s2)]:
        last = max(rank[a] for t in terms for a in t[:2])
        u = order[last]
        solvable = None
        if all(t[:2] != (u, u) for t in terms):
            solvable = ([(bb if a == u else a, c) for a, bb, c in terms if u in (a, bb)],
                        [t for t in terms if u not in t[:2]])
        levels[last].append((terms, solvable))
    ph = [0] * d + [1]
    unit_alg = s1.measuring.algebra
    tried = 0

    def holds(terms):
        return sum(c * ph[a] * ph[bb] for a, bb, c in terms) % p == 0

    def forced(equations):
        """The one value an equation linear in the level's unknown allows."""
        for _, solvable in equations:
            if solvable is not None:
                coeff = sum(c * ph[v] for v, c in solvable[0]) % p
                if coeff:
                    rest = sum(c * ph[a] * ph[bb] for a, bb, c in solvable[1])
                    return (-rest * pow(coeff, -1, p) % p,)
        return range(p)

    def search(level):
        nonlocal tried
        if level == len(order):
            phi_map = LinearMap._from_raw(
                b.space, s1.sigma.target, {(0, i): ph[i] for i in range(d)})
            try:
                convolution_inverse(phi_map, hopf.coalg, unit_alg)
            except NotInvertible:
                return False
            return True
        equations = levels[level]
        for value in forced(equations):
            tried += 1
            if tried > bound:
                raise SearchSpaceTooLarge(
                    f"twisting search tried more than the bound of {bound} values")
            ph[order[level]] = value
            if all(holds(terms) for terms, _ in equations) and search(level + 1):
                return True
        return False

    return search(0)


def _twisting_equations(b: Bosonization, s1: _cocycle.Cocycle, s2: _cocycle.Cocycle):
    """The twisting equation of each basis pair (x, y), in the order of the
    columns x d + y of H (x) H (d the dimension), as residue terms (a, b, c),
    read c phi[a] phi[b], with the constant slot phi[d] = 1 standing in for
    the linear terms. The linear part s2(x1, y1) x2 y2 is ``sigma_hat`` of
    s2, and the quadratic part s1(x2, y2) x1 (x) y1 is (id (x) s1) applied to
    the pair comultiplication, which for the classical bosonization is
    (id (x) flip (x) id)(comul (x) comul). Each part is built once per sigma
    on ``b``. Vanishing equations are left out; plain residue arithmetic
    keeps the search fast."""
    d = b.space.dim
    p = b.space.field.p
    if s2.sigma not in b.sigma_hats:
        b.sigma_hats[s2.sigma] = _cocycle.sigma_hat(s2.measuring, s2.sigma)
    if s1.sigma not in b.quadratic_parts:
        pair = _cocycle.pair_coalgebra(b.hopf)
        b.quadratic_parts[s1.sigma] = compose(
            tensor_map(LinearMap.identity(pair.space), s1.sigma), pair.comul)
    eqs: dict[int, dict] = {}
    for (k, xy), v in b.sigma_hats[s2.sigma].raw_entries().items():
        eqs.setdefault(xy, {})[(d, k)] = v
    for (x1y1, xy), v in b.quadratic_parts[s1.sigma].raw_entries().items():
        x1, y1 = divmod(x1y1, d)
        eq = eqs.setdefault(xy, {})
        key = (min(x1, y1), max(x1, y1))
        eq[key] = eq.get(key, 0) - v
    equations = []
    for xy in sorted(eqs):
        terms = [(a, bb, c % p) for (a, bb), c in eqs[xy].items() if c % p]
        if terms:
            equations.append(terms)
    return equations
