import itertools

import pytest

from hopfcleft import cleft, cocycle, lifting, oracle
from hopfcleft.braided import trivial_measuring
from hopfcleft.cleft import CleftExtension, crossed_to_cleft, functor_F
from hopfcleft.cocycle import check_cocycle, crossed_product, pair_coalgebra, triple_coalgebra
from hopfcleft.errors import AxiomFailure, NotInvertible, SearchSpaceTooLarge
from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import cyclic_group_hopf, quantum_line, quantum_line_grading
from hopfcleft.hopf import (
    BialgebraData,
    check_hopf,
    convolution_inverse,
    iterated_comul,
    iterated_mul,
)
from hopfcleft.lifting import (
    Bosonization,
    GradedYDHopf,
    ScalarCocycleH,
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
from hopfcleft.report import CheckItem, map_equal_item

from conftest import column, count_field_muls, kron, record_map_sizes


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
    e = functor_F(phi_inverse(enumerate_zprime(b)[1])).comodule_algebra
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


def test_section_reversal_equals_the_permutation_chain(boson4, monkeypatch):
    """check_cprime_section reverses the sandwich h (x) x (x) h' with flips:
    its right-hand side is the map of the materialised [2, 1, 0] permutation
    chain, so with a broken inverse section it reports the same witness."""
    pi = enumerate_cocycles(trivial_measuring(boson4.source.hopf))[1]
    ce = psi(boson4, crossed_to_cleft(crossed_product(pi)))
    gi = ce.gamma_inv
    field = gi.source.field
    extra = LinearMap(gi.source, gi.target, {(0, gi.source.dim - 1): field.one()})
    broken = CleftExtension(ce.comodule_algebra, ce.gamma, gi + extra)
    hs, bigspace = boson4.ambient.space, boson4.space
    jh = lifting._embed_h(boson4)
    sandwich = compose(
        iterated_mul(boson4.hopf.alg, 2), kron(jh, LinearMap.identity(bigspace), jh))
    inv_jh = compose(broken.gamma_inv, jh)
    rhs = compose_all(
        iterated_mul(ce.algebra, 2),
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


def test_psi_rejects_non_equivariant_section(boson4):
    s = phi(boson4, phi_inverse(enumerate_zprime(boson4)[1]))
    ce = functor_F(phi_inverse(s))
    # this one is equivariant; a section over the wrong factor must be refused
    from hopfcleft.errors import CorruptFixture

    from hopfcleft.cocycle import smash_product

    with pytest.raises(CorruptFixture):
        psi(boson4, crossed_to_cleft(
            smash_product(trivial_measuring(boson4.hopf))))
    assert psi(boson4, ce) is not None


def _sweep_isomorphic(b, s1, s2):
    """Reference for _cleft_objects_isomorphic: try every functional phi with
    phi(1) = 1, all p^(d-1) of them, against the twisting equations
    s2(x1,y1) phi(x2 y2) = phi(x1) phi(y1) s1(x2,y2), and test each solution
    for convolution invertibility."""
    field, hopf, d = b.space.field, b.hopf, b.space.dim
    p = field.p
    if s1.sigma == s2.sigma:
        return True
    unit_col = next(iter(hopf.unit.entries))[0]
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
                            key = (unit_col, k)
                            eq[key] = eq.get(key, 0) + sig2[x1 * d + y1] * c * mv.value
                    if x2 * d + y2 in sig1:
                        eq[(x1, y1)] = eq.get((x1, y1), 0) - sig1[x2 * d + y2] * c
            terms = [(a, bb, c) for (a, bb), c in eq.items() if c % p]
            if terms:
                equations.append(terms)
    equations.sort(key=len)
    unit_alg = trivial_measuring(b.hopf).algebra
    for values in itertools.product(range(p), repeat=d - 1):
        ph = values[:unit_col] + (1,) + values[unit_col:]
        for eq in equations:
            if sum(c * ph[a] * ph[bb] for a, bb, c in eq) % p:
                break
        else:
            phi_map = LinearMap(b.space, s1.sigma.target,
                                {(0, i): field.scalar(v) for i, v in enumerate(ph) if v})
            try:
                convolution_inverse(phi_map, hopf.coalg, unit_alg)
            except NotInvertible:
                continue
            return True
    return False


@pytest.mark.parametrize("name", ["boson4", "boson8"])
def test_twisting_solver_agrees_with_the_exhaustive_sweep(request, name):
    b = request.getfixturevalue(name)
    sigmas = enumerate_zprime(b)
    for s1 in sigmas:
        for s2 in sigmas:
            assert _cleft_objects_isomorphic(b, s1, s2, 10 ** 6) == _sweep_isomorphic(b, s1, s2)


def test_census_comparisons_try_at_most_2pd_values(boson8, f5_sigmas):
    p, d = boson8.space.field.p, boson8.space.dim
    classes = census_classes(boson8, f5_sigmas, bound=2 * p * d)
    assert classes == [[0], [1, 4], [2, 3]]


def test_census_twisting_search_over_the_bound_is_too_large(boson8, f5_sigmas):
    # two distinct sigmas need a search that tries more than five values
    assert f5_sigmas[0].sigma != f5_sigmas[1].sigma
    with pytest.raises(SearchSpaceTooLarge, match=r"more than the bound of 5 values"):
        census_classes(boson8, f5_sigmas[:2], bound=5)


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
        ("1", "1.1", field.one()), ("1", "x.x", field.scalar(value))])
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
    result = check_zprime(boson16_f17, sigma)
    monkeypatch.undo()
    assert result.in_zprime, str(result.report)
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
    result = check_zprime(boson16_f17, sigma)
    monkeypatch.undo()
    assert result.in_zprime, str(result.report)
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
    unit_col = next(iter(b.hopf.unit.raw_entries()))[0]
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
    equations = lifting._twisting_equations(b, f5_sigmas[1], f5_sigmas[2], unit_col)
    assert max(counts.values()) <= 4, counts  # comul, mul and the two cocycles
    counts.update(entries=0, _raw_columns=0)
    report = gr_check(b, deformed)
    assert max(counts.values()) <= 2, counts  # the undeformed and deformed products
    monkeypatch.undo()
    assert equations and report.ok


def test_deformed_square_of_the_generator(boson8, f5_sigmas):
    # x^2 = 0 in the bosonization deforms to lambda(1 - g^2), lambda the
    # cocycle value on (x, x)
    space = boson8.space
    col = space.index("x.1") * space.dim + space.index("x.1")
    field = space.field
    for k, s in enumerate(f5_sigmas):
        deformed = deform(boson8, s)
        entries = {
            space.labels[i]: v for i, v in column(deformed.mul, col).items()}
        if k == 0:
            assert entries == {}
        else:
            assert entries == {
                "1.1": field.scalar(k), "1.g2": field.scalar(-k)}


def test_undeformed_square_vanishes(boson8):
    space = boson8.space
    col = space.index("x.1") * space.dim + space.index("x.1")
    assert column(boson8.hopf.mul, col) == {}


def test_deform_requires_verified_cocycle(boson8, f5_sigmas):
    s = f5_sigmas[1]
    stale = ScalarCocycleH(s.bosonization, s.sigma, s.sigma_inv, False, s.in_zprime, s.report)
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
    zero = LinearMap.zero(tensor_space(b.space, b.space), unit_space(field))
    entries = dict(found[-1].sigma.entries)
    entries[(0, 0)] = entries[(0, 0)] + field.one()
    changed = LinearMap(zero.source, zero.target, entries)
    return swept, [zero, changed]


@pytest.mark.parametrize("name", ["boson4", "boson8"])
def test_shared_zprime_verdict_equals_a_fresh_check(request, monkeypatch, name):
    b = _empty_caches(request.getfixturevalue(name))
    swept, rejected = _swept_and_rejected(b, monkeypatch)
    assert len(swept) == b.space.field.p
    fresh = bosonize(b.source)
    for sigma in [*swept, *rejected]:
        first = check_zprime(b, sigma)
        equal = LinearMap(sigma.source, sigma.target, dict(sigma.entries))
        cached = len(b.zprime_cache)
        shared = check_zprime(b, equal)
        assert len(b.zprime_cache) == cached  # the second call was a hit
        expected = check_zprime(fresh, sigma)
        assert first.sigma is sigma and shared.sigma is equal
        assert shared.in_z == expected.in_z
        assert shared.in_zprime == expected.in_zprime
        assert shared.sigma_inv == expected.sigma_inv
        assert shared.report.lines() == expected.report.lines()
    zero, changed = (check_zprime(b, sigma) for sigma in rejected)
    assert not zero.in_z and not changed.in_z
    # "convolution invertible" fails only for the zero map
    assert not zero.report.items[0].ok and changed.report.items[0].ok


def test_shared_zprime_report_is_not_shared(boson8):
    b = _empty_caches(boson8)
    sigma = _restricted_sigma(b, 1)
    first = check_zprime(b, sigma)
    first.report.add(CheckItem("appended by the first caller", True))
    later = check_zprime(b, sigma)
    later.report.add(CheckItem("appended by a later caller", True))
    last = check_zprime(b, sigma)
    assert last.report.lines() == first.report.lines()[:-1]
    assert last.report.lines() == later.report.lines()[:-1]


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

    for module in (lifting, oracle, cleft):
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
    assert len(result.representatives()) == 3


def test_census_classes_f3(boson4):
    result = cleft_prime_census(boson4)
    assert result.report.ok, str(result.report)
    assert result.classes == [[0], [1], [2]]
