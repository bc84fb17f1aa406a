import itertools

import pytest

from hopfcleft.braided import trivial_measuring
from hopfcleft.errors import NotInvertible, SearchSpaceTooLarge
from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import cyclic_group_hopf
from hopfcleft.hopf import convolution_inverse
from hopfcleft.cocycle import check_cocycle
from hopfcleft.lifting import check_zprime
from hopfcleft.linalg import LinearMap, compose, tensor_space, unit_space
from hopfcleft.oracle import (
    SearchSpace,
    enumerate_cocycles,
    enumerate_zprime,
    oracle_convolution_inverse,
)

from conftest import entry_at, kron, non_hopf_bialgebra, scalar_of


def test_antipode_matches_exhaustive_inverse(kc2_f3):
    ident = LinearMap.identity(kc2_f3.space)
    found = oracle_convolution_inverse(ident, kc2_f3.coalg, kc2_f3.alg)
    assert found == kc2_f3.antipode


def test_solver_matches_exhaustive_inverse(f5):
    h = cyclic_group_hopf(f5, 2)
    solved = convolution_inverse(h.antipode, h.coalg, h.alg)
    assert oracle_convolution_inverse(h.antipode, h.coalg, h.alg) == solved


def test_exhaustive_search_confirms_non_invertibility(f3):
    b = non_hopf_bialgebra(f3)
    with pytest.raises(NotInvertible):
        oracle_convolution_inverse(LinearMap.identity(b.space), b.coalg, b.alg)


def test_classical_cocycle_count_kc2_f3(f3):
    found = enumerate_cocycles(trivial_measuring(cyclic_group_hopf(f3, 2)))
    # sigma(g, g) must be a nonzero scalar; two choices in F_3
    assert len(found) == 2
    target = found[0].sigma.target
    gg = found[0].sigma.source.index("g.g")
    values = [int(entry_at(c.sigma, 0, gg).value) for c in found]
    assert values == [1, 2]


def test_braided_cocycle_count_and_equivariance(qline_f3, qline_f5):
    from hopfcleft.lifting import check_equivariant_pair

    for g, expected in ((qline_f3, 3), (qline_f5, 5)):
        found = enumerate_cocycles(trivial_measuring(g.hopf))
        assert len(found) == expected
        for c in found:
            assert check_equivariant_pair(g, c.sigma).ok


def test_restricted_sweep_counts(boson4, boson8):
    assert len(enumerate_zprime(boson4)) == 3
    assert len(enumerate_zprime(boson8)) == 5


def test_enumeration_order_is_deterministic(qline_f3):
    m = trivial_measuring(qline_f3.hopf)
    first = [c.sigma for c in enumerate_cocycles(m)]
    second = [c.sigma for c in enumerate_cocycles(m)]
    assert first == second
    # lexicographic order over the slot values: the trivial cocycle comes first
    from hopfcleft.cocycle import trivial_sigma

    assert first[0] == trivial_sigma(m)


def _full_sweep(source, target, slots, unit, want, verify):
    """Reference for the restricted sweeps: every assignment of all the slots,
    in lexicographic order, filtered on unitality, sigma(1 (x) h) =
    sigma(h (x) 1) = want(h), and then on ``verify(sigma)``."""
    field = target.field
    id_h = LinearMap.identity(unit.target)
    left, right = kron(unit, id_h), kron(id_h, unit)
    found = []
    for values in itertools.product(range(field.p), repeat=len(slots)):
        sigma = LinearMap(source, target,
                          {slot: scalar_of(field, v) for slot, v in zip(slots, values) if v})
        if compose(sigma, left) != want or compose(sigma, right) != want:
            continue
        result = verify(sigma)
        if result is not None:
            found.append(result)
    return found


def test_cocycle_sweep_equals_the_unrestricted_sweep(qline_f3):
    m = trivial_measuring(qline_f3.hopf)
    source = tensor_space(m.hopf.space, m.hopf.space)
    slots = [(i, j) for i in range(m.space.dim) for j in range(source.dim)]
    full = _full_sweep(source, m.space, slots, m.hopf.unit,
                       compose(m.algebra.unit, m.hopf.counit),
                       lambda sigma: check_cocycle(m, sigma)[0])
    assert len(full) == 3
    assert [c.sigma for c in enumerate_cocycles(m)] == [c.sigma for c in full]


@pytest.mark.parametrize("name", ["boson4", "boson8"])
def test_restricted_sweep_equals_the_unrestricted_sweep(request, name):
    b = request.getfixturevalue(name)
    r = b.source.hopf
    source = tensor_space(r.space, r.space)
    spread = kron(LinearMap.identity(r.space), r.yd.module.action, b.ambient.counit)

    def verify(pi_map):
        return check_zprime(b, compose(pi_map, spread))[0]

    full = _full_sweep(source, unit_space(r.space.field), [(0, j) for j in range(source.dim)],
                       r.unit, r.counit, verify)
    assert [s.sigma for s in enumerate_zprime(b)] == [s.sigma for s in full]


def test_search_space_requires_prime_field():
    with pytest.raises(SearchSpaceTooLarge):
        SearchSpace(((0, 0),), FieldSpec.rationals())
    with pytest.raises(SearchSpaceTooLarge):
        SearchSpace(((0, 0),), FieldSpec.cyclotomic(4))


def test_search_space_bound(f5):
    with pytest.raises(SearchSpaceTooLarge):
        SearchSpace(tuple((0, j) for j in range(4)), f5, bound=100)
    h = cyclic_group_hopf(f5, 4)
    with pytest.raises(SearchSpaceTooLarge):
        oracle_convolution_inverse(h.antipode, h.coalg, h.alg, bound=1000)


def test_non_prime_field_rejected_by_enumeration(kc2_q):
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_cocycles(trivial_measuring(kc2_q))


def test_search_space_assignment_order(f3):
    space = SearchSpace(((0, 0), (0, 1)), f3)
    assert list(space.assignments()) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert space.count() == 9
