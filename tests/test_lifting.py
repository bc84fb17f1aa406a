import pytest

from hopfcleft.braided import trivial_measuring
from hopfcleft.cleft import crossed_to_cleft, functor_F
from hopfcleft.cocycle import crossed_product
from hopfcleft.errors import AxiomFailure
from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import cyclic_group_hopf, quantum_line, quantum_line_grading
from hopfcleft.hopf import check_hopf, iterated_comul
from hopfcleft.lifting import (
    GradedYDHopf,
    bosonize,
    check_boson_grading,
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
    LinearMap,
    compose,
    compose_all,
    permutation_map,
    tensor_map,
    tensor_maps,
)
from hopfcleft.oracle import enumerate_cocycles, enumerate_zprime


@pytest.fixture(scope="module")
def f5_sigmas(boson8):
    return enumerate_zprime(boson8)


def _permuted_smash_mul(e, action, h):
    """Reference smash multiplication (e (x) h)(e' (x) h') = e (h1.e') (x) h2 h'
    on E (x) H, through Kronecker products and a five-factor permutation."""
    es, hs = e.space, h.space
    id_e, id_h = LinearMap.identity(es), LinearMap.identity(hs)
    return compose_all(
        tensor_map(e.mul, id_h),
        tensor_maps(id_e, action, h.mul),
        permutation_map([es, hs, hs, es, hs], [0, 1, 3, 2, 4]),
        tensor_maps(id_e, h.comul, id_e, id_h),
    )


def _permuted_cosmash(first, coaction_r, h):
    """Reference (id (x) mul_H (x) id)(perm)(id (x) coaction_R (x) id)(first (x) comul_H)
    for first: E -> E (x) R: e (x) h -> e0 (x) e1(-1) h1 (x) e1(0) (x) h2."""
    es, hs, rs = first.source, h.space, coaction_r.source
    id_e, id_h = LinearMap.identity(es), LinearMap.identity(hs)
    return compose_all(
        tensor_maps(id_e, h.mul, LinearMap.identity(rs), id_h),
        permutation_map([es, hs, rs, hs, hs], [0, 1, 3, 2, 4]),
        tensor_maps(id_e, coaction_r, id_h, id_h),
        tensor_map(first, h.comul),
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
    assert b.hopf.unit == tensor_map(r.unit, h.unit)
    assert b.hopf.counit == tensor_map(r.counit, h.counit)


@pytest.mark.parametrize("name", ["boson4", "boson8"])
def test_smash_comodule_algebra_equals_the_permutation_chains(request, name):
    b = request.getfixturevalue(name)
    r, h = b.source.hopf, b.ambient
    # a cleft object over R with a nontrivial cocycle
    e = functor_F(phi_inverse(enumerate_zprime(b)[1])).comodule_algebra
    big = smash_comodule_algebra(b, e)
    assert big.algebra.mul == _permuted_smash_mul(e.algebra, e.carrier.action, h)
    assert big.algebra.unit == tensor_map(e.algebra.unit, h.unit)
    assert big.coaction == _permuted_cosmash(e.coaction, r.yd.coaction, h)


def test_quantum_line_is_graded(qline_f3, qline_f5):
    for g in (qline_f3, qline_f5):
        report = check_graded(g)
        assert report.ok, str(report)


def test_bosonization_is_hopf(boson4, boson8):
    assert boson4.space.dim == 4
    assert boson8.space.dim == 8
    for b in (boson4, boson8):
        assert check_hopf(b.hopf).ok
        assert check_boson_grading(b).ok


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
        back = phi_inverse(s)
        assert back.sigma == pi.sigma
        assert phi(boson8, back).sigma == s.sigma


def test_section_square_commutes(boson4):
    # building the cleft object before or after extending the cocycle gives
    # the same restricted cocycle back
    g = boson4.source
    for pi in enumerate_cocycles(trivial_measuring(g.hopf)):
        s = phi(boson4, pi)
        ce = psi(boson4, crossed_to_cleft(crossed_product(pi)))
        back, section_report = sigma_gamma_restricts(boson4, ce)
        assert section_report.ok, str(section_report)
        assert back.sigma == s.sigma


def test_psi_rejects_non_equivariant_section(boson4):
    s = phi(boson4, phi_inverse(enumerate_zprime(boson4)[1]))
    ce = functor_F(phi_inverse(s))
    # this one is equivariant; a section over the wrong factor must be refused
    from hopfcleft.errors import CorruptFixture

    from hopfcleft.cocycle import smash_product

    with pytest.raises(CorruptFixture):
        psi(boson4, crossed_to_cleft(
            smash_product(trivial_measuring(boson4.braided()))))
    assert psi(boson4, ce) is not None


def test_every_deformation_is_filtered_with_graded_top(boson8, f5_sigmas):
    for s in f5_sigmas:
        deformed = deform(boson8, s)
        report = gr_check(boson8, deformed)
        assert report.ok, str(report)


def _materialised_doi_product(b, sigmas):
    """Independent reference: sigma (x) mul (x) sigma^-1 applied to
    x1 y1 x2 y2 x3 y3, built from Kronecker products and a factor permutation."""
    hopf = b.hopf
    hs = hopf.space
    com2 = iterated_comul(hopf.coalg, 2)
    spread = compose(permutation_map([hs] * 6, [0, 3, 1, 4, 2, 5]), tensor_map(com2, com2))
    return [compose(tensor_maps(s.sigma, hopf.mul, s.sigma_inv), spread) for s in sigmas]


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
    largest = [0]
    original = LinearMap.__init__

    def counting_init(self, source, target, entries=None):
        original(self, source, target, entries)
        largest[0] = max(largest[0], len(self.entries))

    for h in (boson8.hopf, deformed):
        largest[0] = 0
        monkeypatch.setattr(LinearMap, "__init__", counting_init)
        report = check_hopf(h)
        monkeypatch.undo()
        assert report.ok, str(report)
        assert largest[0] <= 1_000


def test_deformed_square_of_the_generator(boson8, f5_sigmas):
    # x^2 = 0 in the bosonization deforms to lambda(1 - g^2), lambda the
    # cocycle value on (x, x)
    space = boson8.space
    col = space.index("x.1") * space.dim + space.index("x.1")
    field = space.field
    for k, s in enumerate(f5_sigmas):
        deformed = deform(boson8, s)
        entries = {
            space.labels[i]: v for i, v in deformed.mul.column(col).items()}
        if k == 0:
            assert entries == {}
        else:
            assert entries == {
                "1.1": field.scalar(k), "1.g2": field.scalar(-k)}


def test_undeformed_square_vanishes(boson8):
    space = boson8.space
    col = space.index("x.1") * space.dim + space.index("x.1")
    assert boson8.hopf.mul.column(col) == {}


def test_deform_requires_verified_cocycle(boson8, f5_sigmas):
    from dataclasses import replace

    stale = replace(f5_sigmas[1], in_z=False)
    with pytest.raises(AxiomFailure):
        deform(boson8, stale)


def test_non_cocycle_is_rejected_by_check_zprime(boson4):
    from hopfcleft.linalg import LinearMap, tensor_space, unit_space

    space = boson4.space
    field = space.field
    src = tensor_space(space, space)
    bad = LinearMap(src, unit_space(field),
                    {(0, j): field.one() for j in range(src.dim)})
    result = check_zprime(boson4, bad)
    assert not result.in_z and not result.in_zprime


def test_census_classes_f5(boson8):
    result = cleft_prime_census(boson8)
    assert result.report.ok, str(result.report)
    assert result.classes == [[0], [1, 4], [2, 3]]
    assert len(result.representatives()) == 3


def test_census_classes_f3(boson4):
    result = cleft_prime_census(boson4)
    assert result.report.ok, str(result.report)
    assert result.classes == [[0], [1], [2]]
