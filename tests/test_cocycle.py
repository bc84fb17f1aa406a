import pytest

from hopfcleft.braided import braiding, check_comodule_algebra, trivial_measuring
from hopfcleft.cocycle import (
    Cocycle,
    check_cocycle,
    check_mu_sigma_associativity,
    crossed_product,
    mu_sigma,
    pair_coalgebra,
    sigma_recovery,
    trivial_sigma,
    triple_coalgebra,
)
from hopfcleft.errors import AxiomFailure, ShapeMismatch
from hopfcleft.fixtures import cyclic_group_hopf
from hopfcleft.hopf import BialgebraData
from hopfcleft.io import build, parse
from hopfcleft.linalg import LinearMap, compose, tensor_space
from hopfcleft.oracle import enumerate_cocycles

from conftest import convolution_inverse_or_none, kron, record_map_sizes
from make_cli_digests import BRAIDED, CLASSICAL, _corruptions


@pytest.fixture(scope="module")
def braided_measuring(qline_f3):
    return trivial_measuring(qline_f3.hopf)


@pytest.fixture(scope="module")
def braided_cocycles(braided_measuring):
    return enumerate_cocycles(braided_measuring)


def test_trivial_sigma_is_a_cocycle(braided_measuring):
    cocycle, report = check_cocycle(braided_measuring, trivial_sigma(braided_measuring))
    assert cocycle is not None and report.ok, str(report)


@pytest.mark.parametrize("name,corrupt", [
    ("classical.had", "classical-H_counit.had"), ("braided.had", "braided-R_counit.had")])
def test_a_cocycle_comes_back_only_with_a_passing_report(name, corrupt):
    """A corrupt counit keeps (5)-(7) but breaks the derived relation (9):
    the report fails, so no cocycle comes back. Over every one-entry
    corruption of the same file, a cocycle comes back exactly when its
    report passes."""
    text = {"classical.had": CLASSICAL, "braided.had": BRAIDED}[name]
    corruptions = _corruptions(name, text)
    df = parse(corruptions[corrupt])
    cocycle, report = check_cocycle(build(df, "M"), df.tensor_map("SIG"))
    assert [item.ok for item in report.items[:4]] == [True] * 4
    assert report.first_failure().name == "(9) twisted module condition"
    assert cocycle is None
    for other in (text, *corruptions.values()):
        df = parse(other)
        cocycle, report = check_cocycle(build(df, "M"), df.tensor_map("SIG"))
        assert (cocycle is not None) == report.ok


def test_braided_cocycle_count_is_frozen(braided_cocycles):
    # sigma is determined by sigma(x, x) = lambda in F_3; all three work
    assert len(braided_cocycles) == 3


def test_classical_cocycle_count_is_frozen(f3):
    m = trivial_measuring(cyclic_group_hopf(f3, 2))
    cocycles = enumerate_cocycles(m)
    # sigma(g, g) = lambda must be nonzero for convolution invertibility
    assert len(cocycles) == 2


def _all_candidates(m):
    from hopfcleft.oracle import SearchSpace, _candidate_maps

    source = tensor_space(m.hopf.space, m.hopf.space)
    slots = tuple((0, j) for j in range(source.dim))
    return _candidate_maps(source, m.space, SearchSpace(slots, m.space.field))


def test_cocycle_iff_crossed_product_associative(braided_measuring):
    """Over the 81-candidate sweep, the cocycle relations hold exactly when
    mu_sigma is associative and unital (given convolution invertibility)."""
    m = braided_measuring
    disagreements = []
    for sigma in _all_candidates(m):
        invertible = convolution_inverse_or_none(
            sigma, pair_coalgebra(m.hopf), m.algebra) is not None
        cocycle, _ = check_cocycle(m, sigma)
        direct = invertible and check_mu_sigma_associativity(m, sigma).ok
        if (cocycle is not None) != direct:
            disagreements.append(sigma)
    assert not disagreements


def test_sigma_recovery(braided_measuring, braided_cocycles):
    for c in braided_cocycles:
        assert sigma_recovery(braided_measuring, c.sigma) == c.sigma


def test_crossed_product_is_comodule_algebra(braided_cocycles):
    for c in braided_cocycles:
        report = check_comodule_algebra(crossed_product(c))
        assert report.ok, str(report)


def test_smash_product_multiplication(qline_f3, braided_measuring):
    m = braided_measuring
    cp = crossed_product(check_cocycle(m, trivial_sigma(m))[0])
    assert cp.algebra.mul == mu_sigma(m, trivial_sigma(m))


def test_unverified_cocycle_rejected(braided_measuring, braided_cocycles):
    c = braided_cocycles[0]
    stale = Cocycle(c.measuring, c.sigma, c.sigma_inv, verified=False)
    with pytest.raises(AxiomFailure):
        crossed_product(stale)


def test_shape_mismatch_rejected(braided_measuring, kc2_f3):
    bad = LinearMap.identity(kc2_f3.space)
    with pytest.raises(ShapeMismatch):
        check_cocycle(braided_measuring, bad)


def test_derived_relations_reported(braided_cocycles):
    # names of the redundant consequences appear in every passing report
    from hopfcleft.cocycle import check_derived_relations

    report = check_derived_relations(braided_cocycles[1])
    assert report.ok, str(report)
    names = [item.name for item in report.items]
    assert any("unital" in n for n in names)


def _materialised_braided_coalgebra(b, a, c_ba):
    """Reference comultiplication (id (x) c_{B,A} (x) id)(comul_B (x) comul_A),
    through the Kronecker product with the identities."""
    middle = kron(LinearMap.identity(b.space), c_ba, LinearMap.identity(a.space))
    return compose(middle, kron(b.comul, a.comul))


@pytest.mark.parametrize("name", ["qline_f3", "boson4", "boson8"])
def test_braided_coalgebras_equal_the_materialised_chain(request, name):
    obj = request.getfixturevalue(name)
    hopf = obj.hopf
    h = hopf.space
    id_h = LinearMap.identity(h)
    c_hh = braiding(hopf.yd, hopf.yd.module)
    pair_comul = _materialised_braided_coalgebra(hopf.coalg, hopf.coalg, c_hh)
    pair = pair_coalgebra(hopf)
    assert pair.comul == pair_comul
    assert pair.counit == kron(hopf.counit, hopf.counit)
    # c_{H, H (x) H} = (id (x) c_{H,H})(c_{H,H} (x) id), a braiding axiom
    c_h_hh = compose(kron(id_h, c_hh), kron(c_hh, id_h))
    triple_comul = compose(
        kron(id_h, c_h_hh, LinearMap.identity(pair.space)),
        kron(hopf.comul, pair_comul))
    triple = triple_coalgebra(hopf)
    assert triple.comul == triple_comul
    assert triple.counit == kron(hopf.counit, pair.counit)


def test_triple_coalgebra_builds_no_large_map(monkeypatch, boson8):
    """Machine-independent size guard: the largest map built, or slot
    contraction computed, on the way to the dim-8 triple coalgebra
    (512 -> 262,144, 1,728 entries) stays small."""
    h = boson8.hopf
    fresh = BialgebraData(h.alg, h.coalg, h.antipode, h.yd)  # empty pair and triple caches
    largest = record_map_sizes(monkeypatch)
    triple = triple_coalgebra(fresh)
    monkeypatch.undo()
    assert fresh.pair_cache is not None and fresh.triple_cache is triple
    assert len(triple.comul.entries) == 1728
    assert largest[0] <= 10_000
