import itertools
import random
from pathlib import Path

import pytest

from hopfcleft import cleft, cocycle, lifting, oracle
from hopfcleft.braided import HModule, YDModule, trivial_measuring
from hopfcleft.cleft import CleftExtension, crossed_to_cleft
from hopfcleft.cocycle import (
    Cocycle,
    check_cocycle,
    pair_coalgebra,
    trivial_sigma,
    triple_coalgebra,
)
from hopfcleft.errors import (
    AxiomFailure,
    NotInvertible,
    SearchSpaceTooLarge,
    ShapeMismatch,
    ValidationError,
)
from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import cyclic_group_hopf, quantum_line, quantum_line_grading
from hopfcleft.hopf import (
    AlgebraData,
    BialgebraData,
    check_hopf,
    convolution,
    convolution_inverse,
    iterated_comul,
    iterated_mul,
)
from hopfcleft.lifting import (
    Bosonization,
    GradedYDHopf,
    _cleft_objects_isomorphic,
    bosonize,
    census_classes,
    check_boson_grading,
    check_cprime_section,
    check_equivariant_pair,
    check_graded,
    check_zprime,
    cleft_prime_census,
    deform,
    gr_check,
    phi,
    phi_inverse,
    psi,
    sigma_gamma_restricts,
    smash_comodule_algebra,
)
from hopfcleft.linalg import (
    BasedSpace,
    LinearMap,
    compose,
    compose_all,
    permutation_map,
    tensor_maps,
    tensor_space,
    unit_space,
)
from hopfcleft.oracle import enumerate_cocycles, enumerate_zprime
from hopfcleft.report import CheckItem, CheckReport, map_equal_item

from conftest import column, count_field_muls, kron, one_scalar, record_map_sizes, scalar_of


@pytest.fixture(scope="module")
def f5_sigmas(boson8):
    return enumerate_zprime(boson8)


def _empty_caches(b):
    """The same bosonization as a new object, with empty caches: its own
    verdict cache, and a new record of its Hopf algebra for the pair and
    triple coalgebras."""
    h = b.hopf
    return Bosonization(b.source, BialgebraData(h.alg, h.coalg, h.antipode))


def _permuted_smash_mul(e, action, h):
    """Reference smash multiplication (e (x) h)(e' (x) h') = e (h1.e') (x) h2 h'
    on E (x) H, through Kronecker products and a five-factor permutation."""
    es, hs = e.space, h.space
    id_e, id_h = LinearMap.identity(es), LinearMap.identity(hs)
    return compose_all(
        kron(e.mul, id_h),
        kron(id_e, action, h.mul),
        permutation_map([es, hs, hs, es, hs], [0, 1, 3, 2, 4]),
        kron(id_e, h.comul, id_e, id_h),
    )


def _permuted_cosmash(first, coaction_r, h):
    """Reference (id (x) mul_H (x) id)(perm)(id (x) coaction_R (x) id)(first (x) comul_H)
    for first: E -> E (x) R: e (x) h -> e0 (x) e1(-1) h1 (x) e1(0) (x) h2."""
    es, hs, rs = first.source, h.space, coaction_r.source
    id_e, id_h = LinearMap.identity(es), LinearMap.identity(hs)
    return compose_all(
        kron(id_e, h.mul, LinearMap.identity(rs), id_h),
        permutation_map([es, hs, rs, hs, hs], [0, 1, 3, 2, 4]),
        kron(id_e, coaction_r, id_h, id_h),
        kron(first, h.comul),
    )


@pytest.fixture(scope="module")
def boson_q():
    kc2 = cyclic_group_hopf(FieldSpec.rationals(), 2)
    return bosonize(GradedYDHopf(quantum_line(kc2), quantum_line_grading()))


@pytest.mark.parametrize("name", ["boson4", "boson8", "boson_q"])
def test_bosonize_equals_the_permutation_chains(request, name):
    b = request.getfixturevalue(name)
    r, h = b.source.hopf, b.ambient
    assert b.hopf.mul == _permuted_smash_mul(r.alg, r.yd.module.action, h)
    assert b.hopf.comul == _permuted_cosmash(r.comul, r.yd.coaction, h)
    assert b.hopf.unit == kron(r.unit, h.unit)
    assert b.hopf.counit == kron(r.counit, h.counit)


@pytest.mark.parametrize("name", ["boson4", "boson8"])
def test_smash_comodule_algebra_equals_the_permutation_chains(request, name):
    b = request.getfixturevalue(name)
    r, h = b.source.hopf, b.ambient
    # a cleft object over R with a nontrivial cocycle
    e = crossed_to_cleft(phi_inverse(b, enumerate_zprime(b)[1])).comodule_algebra
    big = smash_comodule_algebra(b, e)
    assert big.algebra.mul == _permuted_smash_mul(e.algebra, e.carrier.action, h)
    assert big.algebra.unit == kron(e.algebra.unit, h.unit)
    assert big.coaction == _permuted_cosmash(e.coaction, r.yd.coaction, h)


def test_quantum_line_is_graded(qline_f3, qline_f5):
    for g in (qline_f3, qline_f5):
        report = check_graded(g)
        assert report.ok, str(report)


def test_degrees_come_from_r_factors_only(qline_f3):
    """A space with R's labels is not R: its factors have degree 0."""
    g = qline_f3
    twin = BasedSpace("T", g.space.labels, g.space.field)
    assert lifting._degrees(tensor_space(twin, g.space, g.space), g) == [0, 1, 1, 2] * 2


def test_r_on_its_ambients_space_is_refused(kc2_f3):
    """Degrees are told apart by identity, so R on the ambient's own space
    would count every factor as R's; the constructor refuses it."""
    h = kc2_f3
    # kC2 over itself: regular action, coaction by comultiplication
    yd = YDModule(HModule(h, h.space, h.mul), h.comul)
    on_ambient = BialgebraData(h.alg, h.coalg, h.antipode, yd=yd)
    with pytest.raises(ShapeMismatch, match="R needs a space of its own"):
        GradedYDHopf(on_ambient, {"1": 0, "g": 1})


def test_bosonization_is_hopf(boson4, boson8):
    assert boson4.space.dim == 4
    assert boson8.space.dim == 8
    for b in (boson4, boson8):
        assert check_hopf(b.hopf).ok
        assert check_boson_grading(b).ok


def test_bosonize_solves_no_antipode(qline_f5, monkeypatch):
    """The closed-form antipode is verified by check_hopf alone: a two-sided
    convolution inverse is unique, so there is no solved one to compare."""
    def refuse(*args):
        raise AssertionError("bosonize solved for an antipode")

    for module in ("hopfcleft.lifting", "hopfcleft.hopf"):
        for name in ("antipode", "convolution_inverse"):
            monkeypatch.setattr(f"{module}.{name}", refuse)
    b = bosonize(qline_f5)
    assert b.space.dim == 8
    assert check_hopf(b.hopf).ok


def test_restricted_cocycle_counts_are_frozen(boson4, f5_sigmas):
    assert len(enumerate_zprime(boson4)) == 3
    assert len(f5_sigmas) == 5


def test_phi_maps_braided_cocycles_onto_restricted_ones(boson8, f5_sigmas):
    g = boson8.source
    braided = enumerate_cocycles(trivial_measuring(g.hopf))
    assert len(braided) == len(f5_sigmas)
    for pi in braided:
        assert check_equivariant_pair(g, pi.sigma).ok
    extended = [phi(boson8, pi).sigma for pi in braided]
    assert extended == [s.sigma for s in f5_sigmas]


def test_phi_inverse_is_a_two_sided_inverse(boson8, f5_sigmas):
    g = boson8.source
    braided = enumerate_cocycles(trivial_measuring(g.hopf))
    for pi, s in zip(braided, f5_sigmas):
        back = phi_inverse(boson8, s)
        assert back.sigma == pi.sigma
        assert phi(boson8, back).sigma == s.sigma


def test_section_square_commutes(boson4):
    # building the cleft object before or after extending the cocycle gives
    # the same restricted cocycle back
    g = boson4.source
    for pi in enumerate_cocycles(trivial_measuring(g.hopf)):
        s = phi(boson4, pi)
        ce = psi(boson4, crossed_to_cleft(pi))
        back, section_report = sigma_gamma_restricts(boson4, ce)
        assert section_report.ok, str(section_report)
        assert back.sigma == s.sigma


def test_section_reversal_equals_the_permutation_chain(boson4, monkeypatch):
    """check_cprime_section reverses the sandwich h (x) x (x) h' with flips:
    its right-hand side is the map of the materialised [2, 1, 0] permutation
    chain, so with a broken inverse section it reports the same witness."""
    pi = enumerate_cocycles(trivial_measuring(boson4.source.hopf))[1]
    ce = psi(boson4, crossed_to_cleft(pi))
    gi = ce.gamma_inv
    field = gi.source.field
    extra = LinearMap(gi.source, gi.target, {(0, gi.source.dim - 1): one_scalar(field)})
    broken = CleftExtension(ce.comodule_algebra, ce.gamma, gi + extra)
    hs, bigspace = boson4.ambient.space, boson4.space
    jh = lifting._embed_h(boson4)
    sandwich = compose(
        iterated_mul(boson4.hopf.alg), kron(jh, LinearMap.identity(bigspace), jh))
    inv_jh = compose(broken.gamma_inv, jh)
    rhs = compose_all(
        iterated_mul(ce.algebra),
        kron(inv_jh, broken.gamma_inv, inv_jh),
        permutation_map([hs, bigspace, hs], [2, 1, 0]),
    )
    want = map_equal_item(
        "inverse section reverses the sandwich", compose(broken.gamma_inv, sandwich), rhs)
    compared = {}

    def recording_item(name, lhs, rhs):
        compared[name] = rhs
        return map_equal_item(name, lhs, rhs)

    monkeypatch.setattr(lifting, "map_equal_item", recording_item)
    report = check_cprime_section(boson4, broken)
    monkeypatch.undo()
    assert compared[want.name] == rhs
    (item,) = [i for i in report.items if i.name == want.name]
    assert not item.ok and item == want


def _twisted_section(ce, functional, coalg):
    """``ce`` with its section gamma twisted to functional * gamma by a
    convolution-invertible functional on H: again a comodule morphism with a
    convolution inverse, so a section of the same comodule algebra."""
    e = ce.comodule_algebra
    twisted = convolution(compose(e.algebra.unit, functional), ce.gamma, coalg, e.algebra)
    return cleft.make_cleft(e, twisted)


def _functional(space, target, values):
    """The functional on ``space`` with the value ``values[label]`` on each
    basis vector, 0 where ``values`` has no label."""
    field = space.field
    return LinearMap(space, target, {(0, j): scalar_of(field, values[lab])
                                     for j, lab in enumerate(space.labels) if lab in values})


def test_psi_rejects_non_equivariant_section(boson4):
    s = phi(boson4, phi_inverse(boson4, enumerate_zprime(boson4)[1]))
    ce = crossed_to_cleft(phi_inverse(boson4, s))
    # this one is equivariant; a section over the wrong factor must be refused
    m = trivial_measuring(boson4.hopf)
    with pytest.raises(ValidationError):
        psi(boson4, crossed_to_cleft(check_cocycle(m, trivial_sigma(m))[0]))
    assert psi(boson4, ce) is not None
    # twisted by psi(1) = psi(x) = 1, the section sends x to 1 + x: still the
    # section of a cleft object over R, but g acts on x and on 1 + x
    # differently, so it is not an ambient-module morphism
    g = boson4.source
    twisted = _twisted_section(
        ce, _functional(g.space, ce.algebra.unit.source, {"1": 1, "x": 1}), g.hopf.coalg)
    assert cleft.check_cleft(twisted).ok
    with pytest.raises(AxiomFailure, match="^section is not an ambient-module morphism$"):
        psi(boson4, twisted)


def test_a_section_that_fails_condition_9_stops_its_restriction(boson8):
    """Over kC4/F_5, the twist of the trivial crossed product's section by
    phi(g^i) = 1, 2, 1, 2 is not multiplicative against the group part:
    gamma(g.g3) = 1 but gamma(g) gamma(g3) = 4. The section report stops at
    (9), and restricting its cocycle is refused with that line."""
    m = trivial_measuring(boson8.hopf)
    ce = crossed_to_cleft(check_cocycle(m, trivial_sigma(m))[0])
    values = {f"1.{h}": v for h, v in zip(boson8.ambient.space.labels, (1, 2, 1, 2))}
    twisted = _twisted_section(
        ce, _functional(boson8.space, ce.algebra.unit.source, values), boson8.hopf.coalg)
    line = ("(9) section is multiplicative against the group part: "
            "FAIL  [at 1.1.g.g3 -> 1.1: 1 != 4]")
    assert check_cprime_section(boson8, ce).ok
    assert check_cprime_section(boson8, twisted).lines()[1:] == [f"  {line}"]
    with pytest.raises(AxiomFailure) as raised:
        sigma_gamma_restricts(boson8, twisted)
    assert str(raised.value) == f"section fails the restriction condition: {line}"


def _sweep_isomorphic(b, s1, s2):
    """Reference for _cleft_objects_isomorphic: try every functional phi with
    phi(1) = 1, all p^(d-1) of them, against the twisting equations
    s2(x1,y1) phi(x2 y2) = phi(x1) phi(y1) s1(x2,y2), and test each solution
    for convolution invertibility. phi is swept on every basis vector but
    one, on which the unit has a nonzero coordinate u; phi(1) = 1 gives its
    value there. A trailing phi[d] = 1 stands in for the linear terms."""
    field, hopf, d = b.space.field, b.hopf, b.space.dim
    p = field.p
    if s1.sigma == s2.sigma:
        return True
    (u, u_value), *unit_rest = [(i, v.value) for (i, _), v in hopf.unit.entries.items()]
    u_inverse = pow(u_value, -1, p)
    sig1 = {j: v.value for (_, j), v in s1.sigma.entries.items()}
    sig2 = {j: v.value for (_, j), v in s2.sigma.entries.items()}
    equations = []
    for x in range(d):
        for y in range(d):
            eq = {}  # (a, b) -> c for the term c phi[a] phi[b]
            for xi, vx in column(hopf.comul, x).items():
                x1, x2 = divmod(xi, d)
                for yj, vy in column(hopf.comul, y).items():
                    y1, y2 = divmod(yj, d)
                    c = vx.value * vy.value
                    if x1 * d + y1 in sig2:
                        for k, mv in column(hopf.mul, x2 * d + y2).items():
                            key = (d, k)
                            eq[key] = eq.get(key, 0) + sig2[x1 * d + y1] * c * mv.value
                    if x2 * d + y2 in sig1:
                        eq[(x1, y1)] = eq.get((x1, y1), 0) - sig1[x2 * d + y2] * c
            terms = [(a, bb, c) for (a, bb), c in eq.items() if c % p]
            if terms:
                equations.append(terms)
    equations.sort(key=len)
    unit_alg = trivial_measuring(b.hopf).algebra
    for values in itertools.product(range(p), repeat=d - 1):
        ph = [*values[:u], 0, *values[u:], 1]
        ph[u] = (1 - sum(v * ph[k] for k, v in unit_rest)) * u_inverse % p
        for i, eq in enumerate(equations):
            if sum(c * ph[a] * ph[bb] for a, bb, c in eq) % p:
                # a failed equation is tried first next time: most
                # candidates fail the same few
                equations.insert(0, equations.pop(i))
                break
        else:
            phi_map = LinearMap(b.space, s1.sigma.target,
                                {(0, i): scalar_of(field, v) for i, v in enumerate(ph[:d]) if v})
            try:
                convolution_inverse(phi_map, hopf.coalg, unit_alg)
            except NotInvertible:
                continue
            return True
    return False


@pytest.mark.parametrize("name", ["boson4", "boson8", "boson4_rebased"])
def test_twisting_solver_agrees_with_the_exhaustive_sweep(request, name):
    b = request.getfixturevalue(name)
    if name == "boson4_rebased":  # the unit is 1.b0 + 2 1.b1
        assert b.hopf.unit.raw_entries() == {(0, 0): 1, (1, 0): 2}
    sigmas = enumerate_zprime(b)
    for s1 in sigmas:
        for s2 in sigmas:
            assert _cleft_objects_isomorphic(b, s1, s2, 10 ** 6) == _sweep_isomorphic(b, s1, s2)


def test_census_comparisons_try_at_most_2pd_values(boson8, f5_sigmas):
    p, d = boson8.space.field.p, boson8.space.dim
    classes = census_classes(boson8, f5_sigmas, bound=2 * p * d)
    assert classes == [[0], [1, 4], [2, 3]]


def test_the_twisting_search_refuses_a_solution_without_inverse(boson8, f5_sigmas, monkeypatch):
    """Every solution of the twisting equations is tested for convolution
    invertibility: when none is invertible, the crossed products of
    cocycles 1 and 4 (and of 2 and 3) are no longer isomorphic."""
    assert _cleft_objects_isomorphic(boson8, f5_sigmas[1], f5_sigmas[4], 10 ** 6)
    tried = []

    def not_invertible(f, *args):
        tried.append(f)
        raise NotInvertible("no convolution inverse")

    monkeypatch.setattr(lifting, "convolution_inverse", not_invertible)
    assert not _cleft_objects_isomorphic(boson8, f5_sigmas[1], f5_sigmas[4], 10 ** 6)
    assert len(tried) == 2
    assert census_classes(boson8, f5_sigmas) == [[0], [1], [2], [3], [4]]


def test_census_twisting_search_over_the_bound_is_too_large(boson8, f5_sigmas):
    # two distinct sigmas need a search that tries more than five values
    assert f5_sigmas[0].sigma != f5_sigmas[1].sigma
    with pytest.raises(SearchSpaceTooLarge, match=r"more than the bound of 5 values"):
        census_classes(boson8, f5_sigmas[:2], bound=5)


# The values each census_classes comparison tries, in comparison order, on
# the quantum line over kC_n and F_p (recorded before the residue solver was
# taken out of the twisting search, and pinned since)
VALUES_TRIED = {
    (4, 5): [43, 35, 39, 35, 39, 20, 43, 18],
    (4, 3): [19, 15, 19],
    (2, 3): [14, 10, 14],
    (2, 11): [38, 34, 38, 38, 34, 38, 38, 38, 34, 38, 38, 38, 38, 34, 38, 34, 38, 38, 38,
              34, 38, 34, 34, 38, 38, 38, 34, 38, 34, 34, 34, 38, 38, 38, 34, 38, 38, 34,
              34, 34, 38, 38, 38, 34, 38, 34, 38, 34, 34, 34, 38, 38, 38, 34, 38],
}


@pytest.mark.parametrize("n,p", list(VALUES_TRIED), ids=[f"kC{n}/F_{p}" for n, p in VALUES_TRIED])
def test_each_twisting_comparison_tries_its_pinned_number_of_values(n, p):
    """Replays census_classes: each cocycle against the first member of every
    class so far, until one matches. A comparison pinned at t values decides
    within the bound t and exceeds the bound t - 1."""
    b = _quantum_line_bosonization(n, p)
    sigmas = enumerate_zprime(b)
    pinned = iter(VALUES_TRIED[n, p])
    classes: list[list[int]] = []
    for idx, s in enumerate(sigmas):
        for group in classes:
            t = next(pinned)
            with pytest.raises(SearchSpaceTooLarge, match=rf"the bound of {t - 1} values"):
                _cleft_objects_isomorphic(b, sigmas[group[0]], s, t - 1)
            if _cleft_objects_isomorphic(b, sigmas[group[0]], s, t):
                group.append(idx)
                break
        else:
            classes.append([idx])
    assert next(pinned, None) is None
    assert classes == census_classes(b, sigmas)


# Residue systems over F_5 for the solver alone. With d unknowns, slot d is
# the constant slot x[d] = 1: here (0, 0, 1) reads x0^2 and (0, 2, 3) reads
# 3 x0, so this system is x0^2 = 1 and x1 = 2 x0.
TWO_UNKNOWNS = [[(0, 0, 1), (2, 2, 4)], [(1, 2, 1), (0, 2, 3)]]


def test_the_residue_solver_yields_every_solution_lazily_in_order():
    solutions = lifting._residue_solutions([[(0, 0, 1), (1, 1, 4)]], [0], 5, 5)
    assert next(solutions) == [1]  # after trying 0 and 1
    assert next(solutions) == [4]
    assert next(solutions, None) is None
    # x1 = 2 x0 is linear in x1, whose level comes second
    assert list(lifting._residue_solutions(TWO_UNKNOWNS, [0, 1], 5, 10 ** 6)) == [[1, 2], [4, 3]]
    # x1 first: both equations are checked at x0, which x1 = 2 x0 then forces
    assert list(lifting._residue_solutions(TWO_UNKNOWNS, [1, 0], 5, 5 + 5)) == [[1, 2], [4, 3]]


def test_the_residue_solver_solves_for_a_linear_unknown():
    """2 x0 = 1 forces x0 = 3: one value tried, not p. x0 x1 = 1 is linear in
    x1 with the coefficient x0, so x1 is swept where x0 = 0 and solved for
    where x0 = 1."""
    assert list(lifting._residue_solutions([[(0, 1, 2), (1, 1, 4)]], [0], 5, 1)) == [[3]]
    system = [[(0, 0, 1), (0, 2, 4)], [(0, 1, 1), (2, 2, 4)]]  # x0^2 = x0, x0 x1 = 1
    assert list(lifting._residue_solutions(system, [0, 1], 5, 5 + 5 + 1)) == [[1, 1]]
    with pytest.raises(SearchSpaceTooLarge):
        list(lifting._residue_solutions(system, [0, 1], 5, 5 + 5))


def test_an_inconsistent_residue_system_has_no_solution():
    system = [[(0, 1, 1), (1, 1, 4)], [(0, 1, 1), (1, 1, 3)]]  # x0 = 1 and x0 = 2
    assert list(lifting._residue_solutions(system, [0], 5, 1)) == []


def test_the_residue_solver_refuses_past_its_bound():
    # five values for x0, one for x1 at each of its two solutions
    assert len(list(lifting._residue_solutions(TWO_UNKNOWNS, [0, 1], 5, 7))) == 2
    solutions = lifting._residue_solutions(TWO_UNKNOWNS, [0, 1], 5, 6)
    assert next(solutions) == [1, 2]
    with pytest.raises(SearchSpaceTooLarge) as raised:
        next(solutions)
    assert str(raised.value) == "twisting search tried more than the bound of 6 values"


def _column_walk_gr_check(b, deformed):
    """Reference gr_check: walk the columns of the deformed and undeformed
    products side by side; in the first column with an entry above the
    degree sum the filtration fails, and in the first one whose top-degree
    part differs from the undeformed product the top-degree item fails."""
    report = CheckReport(f"graded comparison on {b.space.name}")
    d = b.space.dim
    degs = b.degrees
    labels = b.space.labels
    orig = b.hopf.mul
    new = deformed.mul
    new_cols, orig_cols = new._raw_columns(), orig._raw_columns()
    filtered_ok = True
    top_ok = True
    witness_f = witness_t = None
    for col, top in enumerate(lifting._degrees(orig.source, b.source)):
        new_col = new_cols.get(col, ())
        for i, _ in new_col:
            if degs[i] > top:
                filtered_ok = False
                witness_f = f"{labels[i]} in {labels[col // d]} * {labels[col % d]}"
                break
        if not filtered_ok:
            break
        top_new = {i: v for i, v in new_col if degs[i] == top}
        if top_new != dict(orig_cols.get(col, ())):
            top_ok = False
            witness_t = f"{labels[col // d]} * {labels[col % d]}"
            break
    report.add(CheckItem("products respect the filtration", filtered_ok, witness_f))
    if filtered_ok:
        report.add(CheckItem(
            "top-degree component is the undeformed product", top_ok, witness_t))
    return report


def _perturbed(b, mul, changes):
    """A bialgebra for gr_check: the bosonization's coalgebra with the
    product ``mul`` plus ``value`` at each ((row, col), value) of
    ``changes``."""
    add = b.space.field.ops.add
    raw = dict(mul.raw_entries())
    for key, value in changes:
        raw[key] = add(raw.get(key, 0), value)
    product = LinearMap._from_raw(mul.source, mul.target, raw)
    return BialgebraData(AlgebraData(b.space, product, b.hopf.unit), b.hopf.coalg)


def _assert_gr_check_agrees(b, deformed):
    report, reference = gr_check(b, deformed), _column_walk_gr_check(b, deformed)
    assert (report.subject, report.items) == (reference.subject, reference.items)
    return report


def test_every_deformation_is_filtered_with_graded_top(boson4, boson8, f5_sigmas):
    for b, sigmas in ((boson4, enumerate_zprime(boson4)), (boson8, f5_sigmas)):
        for s in sigmas:
            report = _assert_gr_check_agrees(b, deform(b, s))
            assert report.ok, str(report)


@pytest.mark.parametrize("name", ["boson4", "boson8"])
def test_gr_check_agrees_with_the_column_walk_on_perturbed_products(request, name):
    b = request.getfixturevalue(name)
    p, d = b.space.field.p, b.space.dim
    rng = random.Random(2020)
    outcomes = set()
    for s in enumerate_zprime(b):
        mul = deform(b, s).mul
        for _ in range(60):
            changes = [((rng.randrange(d), rng.randrange(d * d)), rng.randrange(1, p))
                       for _ in range(rng.randint(1, 3))]
            failure = _assert_gr_check_agrees(b, _perturbed(b, mul, changes)).first_failure()
            outcomes.add(failure and failure.name)
    assert outcomes == {None, "products respect the filtration",
                        "top-degree component is the undeformed product"}


@pytest.mark.parametrize("name", ["boson4", "boson8"])
def test_gr_check_reports_the_first_failing_column(request, name):
    b = request.getfixturevalue(name)
    d, degs, labels = b.space.dim, b.degrees, b.space.labels
    tops = lifting._degrees(b.hopf.mul.source, b.source)
    first, *_, last = [col for col in range(d * d) if tops[col] == 0]
    low, high = degs.index(0), degs.index(1)  # a top-degree row and one above
    pair = f"{labels[first // d]} * {labels[first % d]}"
    mul = b.hopf.mul
    # a top-degree mismatch before a later entry above the degree sum
    report = _assert_gr_check_agrees(b, _perturbed(b, mul, [((low, first), 1), ((high, last), 1)]))
    assert report.items == [
        CheckItem("products respect the filtration", True),
        CheckItem("top-degree component is the undeformed product", False, pair)]
    # an entry above the degree sum before a later top-degree mismatch, and
    # both in one column
    for second in (last, first):
        report = _assert_gr_check_agrees(
            b, _perturbed(b, mul, [((high, first), 1), ((low, second), 1)]))
        assert report.items == [CheckItem(
            "products respect the filtration", False, f"{labels[high]} in {pair}")]
    # two entries above the degree sum in one column
    highs = [i for i in range(d) if degs[i] == 1]
    _assert_gr_check_agrees(b, _perturbed(b, mul, [((highs[-1], first), 1), ((high, first), 1)]))


def _materialised_doi_product(b, sigmas):
    """Independent reference: sigma (x) mul (x) sigma^-1 applied to
    x1 y1 x2 y2 x3 y3, built from Kronecker products and a factor permutation."""
    hopf = b.hopf
    hs = hopf.space
    com2 = iterated_comul(hopf.coalg)
    spread = compose(permutation_map([hs] * 6, [0, 3, 1, 4, 2, 5]), kron(com2, com2))
    return [compose(kron(s.sigma, hopf.mul, s.sigma_inv), spread) for s in sigmas]


def test_deform_equals_the_materialised_doi_chain(boson4, boson8, f5_sigmas):
    # every deformation of boson4 equals the undeformed product (there
    # x^2 = lambda (1 - g^2) = 0), so a nontrivial one of boson8 is added
    for b, sigmas in ((boson4, enumerate_zprime(boson4)), (boson8, f5_sigmas[1:2])):
        for s, reference in zip(sigmas, _materialised_doi_product(b, sigmas)):
            assert deform(b, s).mul == reference


def test_check_hopf_builds_no_large_map(monkeypatch, boson8, f5_sigmas):
    """Machine-independent size guard: checking the dim-8 bosonization and a
    deformation multiplies in H (x) H without building mul (x) mul (2,304
    entries here, 6,400 for the deformation) or comul (x) comul."""
    deformed = deform(boson8, f5_sigmas[1])
    for h in (boson8.hopf, deformed):
        largest = record_map_sizes(monkeypatch)
        report = check_hopf(h)
        monkeypatch.undo()
        assert report.ok, str(report)
        assert largest[0] <= 1_000


@pytest.fixture(scope="module")
def boson16_f17():
    """The dim-16 bosonization of the quantum line over kC8/F_17, with its
    pair and triple coalgebras built."""
    ambient = cyclic_group_hopf(FieldSpec.prime_field(17), 8)
    b = bosonize(GradedYDHopf(quantum_line(ambient), quantum_line_grading()))
    triple_coalgebra(b.hopf)
    return b


def _restricted_sigma(b, value: int) -> LinearMap:
    """The unital map on R (x) R with (x, x) -> value, extended to H (x) H by
    the restriction formula, as the restricted-cocycle sweep builds it."""
    rs = b.source.space
    field = rs.field
    pi_map = LinearMap.from_labels(tensor_space(rs, rs), unit_space(field), [
        ("1", "1.1", one_scalar(field)), ("1", "x.x", scalar_of(field, value))])
    spread = tensor_maps(
        LinearMap.identity(rs), b.source.hopf.yd.module.action, b.ambient.counit)
    return compose(pi_map, spread)


def test_check_zprime_multiplication_count(boson16_f17, monkeypatch):
    # machine-independent guard: the cocycle relations run as slot
    # contractions of factored tensor maps (54,953 field multiplications
    # when this test was last changed); materialising every tensor_map as a
    # Kronecker product took 106,869
    sigma = _restricted_sigma(boson16_f17, 3)
    calls = count_field_muls(monkeypatch)
    result, report = check_zprime(boson16_f17, sigma)
    monkeypatch.undo()
    assert result is not None, str(report)
    assert 0 < calls[0] <= 60_000


def test_check_zprime_space_count(boson16_f17, monkeypatch):
    # machine-independent guard: compose checks a shape once and contracts
    # on dimensions, so a check builds few BasedSpaces (94 when this test was
    # written); re-checking every slot with fresh tensor spaces built 418
    sigma = _restricted_sigma(boson16_f17, 5)  # a value no other test checks
    calls = 0
    original = BasedSpace.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(BasedSpace, "__init__", counting_init)
    result, report = check_zprime(boson16_f17, sigma)
    monkeypatch.undo()
    assert result is not None, str(report)
    assert calls <= 150


def test_checks_build_no_kronecker_product(boson16_f17, monkeypatch):
    """Machine-independent size guard on the dim-16 bosonization: no map
    built while checking, and no intermediate of a slot contraction, is
    larger than the structure maps the check reads or the relation sides it
    compares. Materialised, tensor_map(mul, id) has 3,072 entries in
    check_hopf, and the cocycle chains reach 24,576 in check_cocycle."""
    b = boson16_f17
    hopf = b.hopf
    sigma = _restricted_sigma(b, 3)
    m = trivial_measuring(hopf)
    ident = LinearMap.identity(b.space)
    structure = [b.hopf.mul, b.hopf.comul, b.hopf.antipode, hopf.self_braiding]
    # associativity compares two maps H (x) H (x) H -> H
    assoc = compose(b.hopf.mul, kron(b.hopf.mul, ident))
    coalgebras = [pair_coalgebra(hopf).comul, triple_coalgebra(hopf).comul, sigma]
    for check, reads in (
        (lambda: check_hopf(b.hopf), [*structure, assoc]),
        (lambda: check_cocycle(m, sigma)[1], [*structure, *coalgebras]),
    ):
        largest = record_map_sizes(monkeypatch)
        report = check()
        monkeypatch.undo()
        assert report.ok, str(report)
        assert largest[0] <= max(len(f.entries) for f in reads)


def test_census_readers_scan_each_map_once(boson8, f5_sigmas, monkeypatch):
    """Machine-independent guard: the twisting equations and gr_check read
    each map they use once, as sparse columns, instead of rescanning all its
    entries for every basis vector (152 and 128 full scans per call when
    columns were looked up one at a time)."""
    b = boson8
    deformed = deform(b, f5_sigmas[1])
    counts = {"entries": 0, "_raw_columns": 0}
    view, raw_columns = LinearMap.entries, LinearMap._raw_columns

    def counting_view(self):
        counts["entries"] += 1
        return view.fget(self)

    def counting_columns(self):
        counts["_raw_columns"] += 1
        return raw_columns(self)

    monkeypatch.setattr(LinearMap, "entries", property(counting_view))
    monkeypatch.setattr(LinearMap, "_raw_columns", counting_columns)
    equations = lifting._twisting_equations(b, f5_sigmas[1], f5_sigmas[2])
    assert max(counts.values()) <= 4, counts  # the two cocycles and mul
    counts.update(entries=0, _raw_columns=0)
    report = gr_check(b, deformed)
    assert max(counts.values()) <= 2, counts  # at most the two products
    monkeypatch.undo()
    assert equations and report.ok


def _loop_twisting_equations(b, s1, s2):
    """Reference twisting equations, written out over the comultiplication:
    for each basis pair (x, y), sum over the terms x1 (x) x2 and y1 (x) y2 of
    s2(x1, y1) phi(x2 y2) - phi(x1) phi(y1) s1(x2, y2), as residue terms
    (a, b, c) with the constant slot phi[d] = 1."""
    hopf = b.hopf
    d = b.space.dim
    p = b.space.field.p
    com = hopf.comul._raw_columns()
    mul = hopf.mul._raw_columns()
    sig1 = {j: v for (_, j), v in s1.sigma.raw_entries().items()}
    sig2 = {j: v for (_, j), v in s2.sigma.raw_entries().items()}
    equations = []
    for x in range(d):
        for y in range(d):
            eq: dict[tuple[int, int], int] = {}
            for xi, vx in com.get(x, ()):
                x1, x2 = divmod(xi, d)
                for yj, vy in com.get(y, ()):
                    y1, y2 = divmod(yj, d)
                    c = vx * vy
                    sv = sig2.get(x1 * d + y1)
                    if sv is not None:
                        for k, mv in mul.get(x2 * d + y2, ()):
                            key = (d, k)
                            eq[key] = eq.get(key, 0) + sv * c * mv
                    sv = sig1.get(x2 * d + y2)
                    if sv is not None:
                        key = (min(x1, y1), max(x1, y1))
                        eq[key] = eq.get(key, 0) - sv * c
            terms = [(a, bb, c % p) for (a, bb), c in eq.items() if c % p]
            if terms:
                equations.append(terms)
    return equations


def _quantum_line_bosonization(n: int, p: int) -> Bosonization:
    ambient = cyclic_group_hopf(FieldSpec.prime_field(p), n)
    return bosonize(GradedYDHopf(quantum_line(ambient), quantum_line_grading()))


@pytest.mark.parametrize("name", ["boson4", "boson8", "kC2/F_7"])
def test_twisting_equations_equal_the_loop_over_the_comultiplication(request, name):
    """The equations built from sigma_hat and the pair comultiplication are
    the reference's, equation for equation in the order of the basis pairs;
    the search only sums the terms of an equation, so their order within it
    is free."""
    b = _quantum_line_bosonization(2, 7) if name == "kC2/F_7" else request.getfixturevalue(name)
    sigmas = enumerate_zprime(b)
    assert len(sigmas) == b.space.field.p
    for s1, s2 in itertools.permutations(sigmas, 2):
        equations = lifting._twisting_equations(b, s1, s2)
        reference = _loop_twisting_equations(b, s1, s2)
        assert equations and [sorted(eq) for eq in equations] == [sorted(eq) for eq in reference]


def test_a_census_builds_each_twisting_part_once(monkeypatch):
    """The twisting equations of a comparison take sigma_hat of the new
    cocycle and the quadratic part of the class representative; each is
    built once per sigma, not once per comparison. Over kC4/F_5 the census
    makes 8 comparisons: 4 cocycles are compared and 3 representatives
    compared with."""
    b = _quantum_line_bosonization(4, 5)
    sigmas = enumerate_zprime(b)
    linear, quadratic = [], []
    hat, tensor = cocycle.sigma_hat, lifting.tensor_map
    # inside census_classes only the quadratic part calls lifting.tensor_map
    monkeypatch.setattr(cocycle, "sigma_hat", lambda m, s: linear.append(s) or hat(m, s))
    monkeypatch.setattr(lifting, "tensor_map", lambda f, g: quadratic.append(g) or tensor(f, g))
    classes = census_classes(b, sigmas)
    assert classes == [[0], [1, 4], [2, 3]]
    assert linear == [s.sigma for s in sigmas[1:]]
    assert quadratic == [sigmas[c[0]].sigma for c in classes]


@pytest.mark.parametrize("n,p", [(2, 3), (2, 7), (2, 11), (4, 3), (4, 5)])
def test_census_class_count_of_the_quantum_line(n, p):
    """ROADMAP oracle 1 on every quantum line the census benchmark runs: p
    restricted cocycles, the trivial one alone in class 0, and
    1 + (p - 1)/|S| classes, S = {l^2 : l in F_p^x, l^n = 1}.

    For n = N = 2 the count is p, Masuoka's count of the cleft objects of the
    Taft algebra. For n > N it is derived as follows. A restricted cocycle is
    fixed by mu = sigma(x, x), which takes each value of F_p once, and its
    crossed product is generated by u = u_g and y = u_x with u^n = 1,
    u y = -y u and y^2 = mu. By Doi's criterion an isomorphism of crossed
    products is a twist by a convolution invertible functional phi: it sends
    u to l u with l = phi(g), so l^n = 1, and y to l y + phi(x) 1, where
    u y = -y u forces phi(x) = 0 (p is odd). It then respects y^2 = mu
    exactly when the source's mu is l^2 times the target's, and each such l
    defines one. So the classes are {0} and the orbits of S on F_p^x, each
    of size |S|."""
    squares = {pow(l, 2, p) for l in range(1, p) if pow(l, n, p) == 1}
    result = cleft_prime_census(_quantum_line_bosonization(n, p))
    assert result.report.ok, str(result.report)
    assert len(result.sigmas) == p
    assert result.classes[0] == [0]
    assert len(result.classes) == 1 + (p - 1) // len(squares)
    assert all(len(group) == len(squares) for group in result.classes[1:])


def test_deformed_square_of_the_generator(boson4, boson8, f5_sigmas):
    # x^2 = 0 in the bosonization deforms to lambda(1 - g^2), lambda the
    # cocycle value on (x, x); over kC2, g^2 = 1 and x^2 stays 0
    for b, sigmas, g_squared in ((boson4, enumerate_zprime(boson4), "1"),
                                 (boson8, f5_sigmas, "g2")):
        space = b.space
        col = space.index("x.1") * space.dim + space.index("x.1")
        field = space.field
        assert len(sigmas) == field.p
        for k, s in enumerate(sigmas):
            deformed = deform(b, s)
            entries = {
                space.labels[i]: v for i, v in column(deformed.mul, col).items()}
            expected = {}
            for label, value in (("1.1", k), (f"1.{g_squared}", -k)):
                expected[label] = (expected.get(label, 0) + value) % field.p
            assert entries == {
                label: scalar_of(field, value) for label, value in expected.items() if value}


def test_undeformed_square_vanishes(boson8):
    space = boson8.space
    col = space.index("x.1") * space.dim + space.index("x.1")
    assert column(boson8.hopf.mul, col) == {}


def test_deform_requires_verified_cocycle(boson8, f5_sigmas):
    s = f5_sigmas[1]
    stale = Cocycle(s.measuring, s.sigma, s.sigma_inv)
    with pytest.raises(AxiomFailure):
        deform(boson8, stale)


def _pulled_back_group_coboundary(b, phi_values):
    """sigma(r (x) g^i, r' (x) g^j) = eps(r) eps(r') phi_i phi_j / phi_(i+j),
    the coboundary of a functional phi on the cyclic group pulled back along
    the Hopf projection onto H: a cocycle, restricted only when phi is a
    character."""
    field = b.space.field
    n = b.ambient.space.dim
    labels = b.ambient.space.labels  # 1, g, g2, ...: index i is g^i
    value = [scalar_of(field, v) for v in phi_values]
    entries = [("1", f"1.{labels[i]}.1.{labels[j]}",
                value[i] * value[j] * value[(i + j) % n].inverse())
               for i in range(n) for j in range(n)]
    return LinearMap.from_labels(tensor_space(b.space, b.space), unit_space(field), entries)


def test_a_cocycle_that_fails_the_restriction_is_refused(boson8, f5_sigmas):
    """A classical cocycle on the bosonization that is not determined by its
    values on R x R passes check_cocycle, fails (8) in check_zprime and is
    refused by phi_inverse; so is an unverified copy of a restricted one."""
    sigma = _pulled_back_group_coboundary(boson8, [1, 2, 1, 1])
    classical, _ = check_cocycle(trivial_measuring(boson8.hopf), sigma)
    assert classical is not None
    result, report = check_zprime(boson8, sigma)
    assert result is None and _cocycle_items_ok(report)
    assert [i.name for i in report.items if not i.ok] == [RESTRICTION]
    s = f5_sigmas[1]
    for refused in (classical, Cocycle(s.measuring, s.sigma, s.sigma_inv)):
        with pytest.raises(AxiomFailure, match="only restricted cocycles"):
            phi_inverse(boson8, refused)
    assert phi_inverse(boson8, s).verified


def test_non_cocycle_is_rejected_by_check_zprime(boson4):
    from hopfcleft.linalg import LinearMap, tensor_space, unit_space

    space = boson4.space
    field = space.field
    src = tensor_space(space, space)
    bad = LinearMap(src, unit_space(field),
                    {(0, j): one_scalar(field) for j in range(src.dim)})
    result, report = check_zprime(boson4, bad)
    assert result is None and not _cocycle_items_ok(report)


RESTRICTION = "(8) determined by values on R x R"


def _cocycle_items_ok(report):
    """Whether the cocycle check passed: every item before the restriction
    condition (8)."""
    names = [i.name for i in report.items]
    return all(i.ok for i in report.items[:names.index(RESTRICTION)])


def _swept_and_rejected(b, monkeypatch):
    """Every unital candidate the restricted-cocycle sweep checks on b, then
    the zero map (not convolution-invertible) and a restricted cocycle with
    its (1, 1) value changed (invertible, but not normalised)."""
    swept = []
    original = lifting.check_zprime

    def record(bos, sigma):
        swept.append(sigma)
        return original(bos, sigma)

    monkeypatch.setattr(lifting, "check_zprime", record)
    found = enumerate_zprime(b)
    monkeypatch.undo()
    field = b.space.field
    zero = LinearMap(tensor_space(b.space, b.space), unit_space(field))
    entries = dict(found[-1].sigma.entries)
    entries[(0, 0)] = entries[(0, 0)] + one_scalar(field)
    changed = LinearMap(zero.source, zero.target, entries)
    return swept, [zero, changed]


@pytest.mark.parametrize("name", ["boson4", "boson8"])
def test_shared_zprime_verdict_equals_a_fresh_check(request, monkeypatch, name):
    b = _empty_caches(request.getfixturevalue(name))
    swept, rejected = _swept_and_rejected(b, monkeypatch)
    assert len(swept) == b.space.field.p
    fresh = bosonize(b.source)
    for sigma in [*swept, *rejected]:
        first, _ = check_zprime(b, sigma)
        equal = LinearMap(sigma.source, sigma.target, dict(sigma.entries))
        cached = len(b.zprime_cache)
        shared, shared_report = check_zprime(b, equal)
        assert len(b.zprime_cache) == cached  # the second call was a hit
        expected, expected_report = check_zprime(fresh, sigma)
        assert (first is None) == (shared is None) == (expected is None)
        if shared is not None:
            assert first.sigma is sigma and shared.sigma is equal
            assert shared.sigma_inv == expected.sigma_inv
        assert _cocycle_items_ok(shared_report) == _cocycle_items_ok(expected_report)
        assert shared_report.ok == expected_report.ok
        assert shared_report.lines() == expected_report.lines()
    (zero, zero_report), (changed, changed_report) = (
        check_zprime(b, sigma) for sigma in rejected)
    assert zero is None and changed is None
    assert not _cocycle_items_ok(zero_report) and not _cocycle_items_ok(changed_report)
    # "convolution invertible" fails only for the zero map
    assert not zero_report.items[0].ok and changed_report.items[0].ok


def test_shared_zprime_report_is_not_shared(boson8):
    b = _empty_caches(boson8)
    sigma = _restricted_sigma(b, 1)
    _, first = check_zprime(b, sigma)
    first.add(CheckItem("appended by the first caller", True))
    _, later = check_zprime(b, sigma)
    later.add(CheckItem("appended by a later caller", True))
    _, last = check_zprime(b, sigma)
    assert last.lines() == first.lines()[:-1]
    assert last.lines() == later.lines()[:-1]


def test_census_check_cocycle_call_count(boson8, monkeypatch):
    # the 5 cocycles on R are checked by the braided sweep, in phi and in
    # the section-cocycle construction; the direct sweep and the section
    # route share phi's check_zprime verdict (25 calls without sharing)
    calls = 0
    original = check_cocycle

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for module in (cocycle, oracle, cleft):
        monkeypatch.setattr(module, "check_cocycle", counting)
    result = cleft_prime_census(_empty_caches(boson8))
    assert result.report.ok, str(result.report)
    assert result.classes == [[0], [1, 4], [2, 3]]
    assert calls <= 15


def test_census_builds_the_pair_and_triple_coalgebras_once(boson8, monkeypatch):
    """They are kept on the bosonization's Hopf algebra, so the many
    convolutions of one census share one build of each."""
    b = _empty_caches(boson8)
    builds = []
    original = cocycle.braided_tensor_coalgebra

    def counting(first, *args):
        if first is b.hopf.coalg:
            builds.append(args[0].space.dim)
        return original(first, *args)

    monkeypatch.setattr(cocycle, "braided_tensor_coalgebra", counting)
    result = cleft_prime_census(b)
    assert result.report.ok, str(result.report)
    assert builds == [8, 64]  # H (x) H, then H (x) (H (x) H)


def test_census_classes_f5(boson8):
    result = cleft_prime_census(boson8)
    assert result.report.ok, str(result.report)
    assert result.classes == [[0], [1, 4], [2, 3]]
    # one representative per class, three distinct restricted cocycles
    assert len({result.sigmas[group[0]].sigma for group in result.classes}) == 3


def test_readme_library_example_prints_the_census_classes(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "[[0], [1, 4], [2, 3]]\n"


def test_census_classes_f3(boson4):
    result = cleft_prime_census(boson4)
    assert result.report.ok, str(result.report)
    assert result.classes == [[0], [1], [2]]
