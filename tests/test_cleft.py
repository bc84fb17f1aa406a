import pytest

from hopfcleft import cleft
from hopfcleft.braided import coinvariants, trivial_measuring
from hopfcleft.cleft import (
    CleftExtension,
    check_cleft,
    closed_form_cleft,
    cocycle_from_section,
    crossed_to_cleft,
    iso_to_crossed,
    make_cleft,
    round_trip_check,
)
from hopfcleft.cocycle import check_cocycle, crossed_product, trivial_sigma
from hopfcleft.errors import NotInvertible, ShapeMismatch, TheoremViolation
from hopfcleft.fixtures import cyclic_group_hopf
from hopfcleft.linalg import LinearMap, compose, tensor_map
from hopfcleft.oracle import enumerate_cocycles

from conftest import scalar_of


@pytest.fixture(scope="module")
def braided_cocycles(qline_f3):
    return enumerate_cocycles(trivial_measuring(qline_f3.hopf))


@pytest.fixture(scope="module")
def classical_cocycles(f3):
    return enumerate_cocycles(trivial_measuring(cyclic_group_hopf(f3, 2)))


def test_crossed_to_cleft_passes_all_checks(braided_cocycles):
    for c in braided_cocycles:
        ce = crossed_to_cleft(c)
        report = check_cleft(ce)
        assert report.ok, str(report)


def is_cleft_object(ce: CleftExtension) -> bool:
    """A cleft extension is a cleft object when the coinvariants are trivial."""
    return coinvariants(ce.comodule_algebra).algebra.space.dim == 1


def normalize_section(ce: CleftExtension) -> CleftExtension:
    """Replace gamma by gamma' = mul (gamma_inv (x) gamma)(unit (x) id), which
    is again a section and satisfies gamma'(1) = 1."""
    b = ce.comodule_algebra
    h = ce.hopf
    gamma = compose(
        b.algebra.mul, tensor_map(compose(ce.gamma_inv, h.unit), ce.gamma))
    gamma_inv = compose(
        b.algebra.mul, tensor_map(ce.gamma_inv, compose(ce.gamma, h.unit)))
    return CleftExtension(b, gamma, gamma_inv)


def test_crossed_product_sections_are_cleft_objects(braided_cocycles):
    # the measuring algebra is the base field, so coinvariants are trivial
    for c in braided_cocycles:
        assert is_cleft_object(crossed_to_cleft(c))


def test_round_trip_on_every_enumerated_cocycle(braided_cocycles, classical_cocycles):
    for c in braided_cocycles + classical_cocycles:
        report = round_trip_check(c)
        assert report.ok, str(report)


def test_functor_G_recovers_sigma_values(classical_cocycles):
    for c in classical_cocycles:
        m2, c2, _ = cocycle_from_section(crossed_to_cleft(c))
        assert m2.space.dim == 1
        # both sigma live on a 1-dim target; compare entry by entry
        assert set(c2.sigma.entries.values()) == set(c.sigma.entries.values())


def test_iso_to_crossed(braided_cocycles):
    for c in braided_cocycles:
        report = iso_to_crossed(crossed_to_cleft(c))
        assert report.ok, str(report)


def test_normalize_section_fixes_unit(kc4_f5):
    b = kc4_f5
    m = trivial_measuring(b)
    ce = crossed_to_cleft(check_cocycle(m, trivial_sigma(m))[0])
    # perturb the section by a unit scalar so gamma(1) = 2, then renormalize
    two = scalar_of(kc4_f5.space.field, 2)
    scaled = LinearMap(ce.gamma.source, ce.gamma.target,
                       {k: two * v for k, v in ce.gamma.entries.items()})
    perturbed = make_cleft(ce.comodule_algebra, scaled)
    fixed = normalize_section(perturbed)
    assert compose(fixed.gamma, fixed.hopf.unit) == ce.comodule_algebra.algebra.unit
    assert check_cleft(fixed).ok


def test_make_cleft_rejects_wrong_shape(kc4_f5, kc2_f3):
    m = trivial_measuring(kc4_f5)
    ce = crossed_to_cleft(check_cocycle(m, trivial_sigma(m))[0])
    with pytest.raises(ShapeMismatch):
        make_cleft(ce.comodule_algebra, LinearMap.identity(kc2_f3.space))


def test_make_cleft_rejects_non_invertible_section(kc4_f5):
    m = trivial_measuring(kc4_f5)
    ce = crossed_to_cleft(check_cocycle(m, trivial_sigma(m))[0])
    zero = LinearMap(ce.gamma.source, ce.gamma.target, {})
    with pytest.raises(NotInvertible):
        make_cleft(ce.comodule_algebra, zero)


def test_coinvariants_of_crossed_product_match_base(braided_cocycles):
    for c in braided_cocycles:
        coinv = coinvariants(crossed_product(c))
        assert coinv.algebra.space.dim == c.measuring.space.dim


def test_a_failed_closed_form_section_is_a_theorem_violation(braided_cocycles, boson4,
                                                             monkeypatch):
    """The closed-form inverse of the canonical section and of psi's section
    is guaranteed by a theorem: a failure of either is a TheoremViolation,
    never a failed check."""
    from hopfcleft.lifting import phi_inverse, psi
    from hopfcleft.oracle import enumerate_zprime

    c = braided_cocycles[1]
    ce = crossed_to_cleft(c)
    r_cleft = crossed_to_cleft(phi_inverse(boson4, enumerate_zprime(boson4)[1]))
    assert closed_form_cleft(ce.comodule_algebra, ce.gamma, ce.gamma_inv).gamma is ce.gamma

    def zero(f, g, c, a):
        return LinearMap(c.space, a.space, {})

    monkeypatch.setattr(cleft, "convolution", zero)
    for build in (lambda: crossed_to_cleft(c), lambda: psi(boson4, r_cleft)):
        with pytest.raises(TheoremViolation, match="closed-form inverse section fails"):
            build()
