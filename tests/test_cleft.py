import pytest

from hopfcleft.braided import coinvariants, trivial_measuring
from hopfcleft.cleft import (
    check_cleft,
    crossed_to_cleft,
    functor_F,
    functor_G,
    is_cleft_object,
    iso_to_crossed,
    make_cleft,
    normalize_section,
    round_trip_check,
)
from hopfcleft.cocycle import crossed_product
from hopfcleft.errors import NotInvertible, ShapeMismatch
from hopfcleft.fixtures import cyclic_group_hopf
from hopfcleft.linalg import LinearMap
from hopfcleft.oracle import enumerate_cocycles


@pytest.fixture(scope="module")
def braided_cocycles(qline_f3):
    return enumerate_cocycles(trivial_measuring(qline_f3.hopf))


@pytest.fixture(scope="module")
def classical_cocycles(f3):
    return enumerate_cocycles(trivial_measuring(cyclic_group_hopf(f3, 2)))


def test_crossed_to_cleft_passes_all_checks(braided_cocycles):
    for c in braided_cocycles:
        ce = crossed_to_cleft(crossed_product(c))
        report = check_cleft(ce)
        assert report.ok, str(report)


def test_crossed_product_sections_are_cleft_objects(braided_cocycles):
    # the measuring algebra is the base field, so coinvariants are trivial
    for c in braided_cocycles:
        assert is_cleft_object(functor_F(c))


def test_round_trip_on_every_enumerated_cocycle(braided_cocycles, classical_cocycles):
    for c in braided_cocycles + classical_cocycles:
        report = round_trip_check(c)
        assert report.ok, str(report)


def test_functor_G_recovers_sigma_values(classical_cocycles):
    for c in classical_cocycles:
        m2, c2 = functor_G(functor_F(c))
        assert m2.space.dim == 1
        # both sigma live on a 1-dim target; compare entry by entry
        assert set(c2.sigma.entries.values()) == set(c.sigma.entries.values())


def test_iso_to_crossed(braided_cocycles):
    for c in braided_cocycles:
        report = iso_to_crossed(functor_F(c))
        assert report.ok, str(report)


def test_normalize_section_fixes_unit(kc4_f5):
    b = kc4_f5
    m = trivial_measuring(b)
    from hopfcleft.cocycle import smash_product

    ce = crossed_to_cleft(smash_product(m))
    # perturb the section by a unit scalar so gamma(1) = 2, then renormalize
    two = kc4_f5.space.field.scalar(2)
    scaled = LinearMap(ce.gamma.source, ce.gamma.target,
                       {k: two * v for k, v in ce.gamma.entries.items()})
    perturbed = make_cleft(ce.comodule_algebra, scaled)
    fixed = normalize_section(perturbed)
    assert compose_unit(fixed) == ce.comodule_algebra.algebra.unit
    assert check_cleft(fixed).ok


def compose_unit(ce):
    from hopfcleft.linalg import compose

    return compose(ce.gamma, ce.hopf.unit)


def test_make_cleft_rejects_wrong_shape(kc4_f5, kc2_f3):
    b = kc4_f5
    from hopfcleft.cocycle import smash_product

    ce = crossed_to_cleft(smash_product(trivial_measuring(b)))
    with pytest.raises(ShapeMismatch):
        make_cleft(ce.comodule_algebra, LinearMap.identity(kc2_f3.space))


def test_make_cleft_rejects_non_invertible_section(kc4_f5):
    b = kc4_f5
    from hopfcleft.cocycle import smash_product

    ce = crossed_to_cleft(smash_product(trivial_measuring(b)))
    zero = LinearMap(ce.gamma.source, ce.gamma.target, {})
    with pytest.raises(NotInvertible):
        make_cleft(ce.comodule_algebra, zero)


def test_coinvariants_of_crossed_product_match_base(braided_cocycles):
    for c in braided_cocycles:
        cp = crossed_product(c)
        coinv = coinvariants(cp.comodule_algebra)
        assert coinv.algebra.space.dim == c.measuring.space.dim
