import pytest

from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import cyclic_group_hopf, quantum_line, quantum_line_grading
from hopfcleft.lifting import GradedYDHopf, bosonize
from hopfcleft.linalg import LinearMap, tensor_space


def kron(*maps):
    """Reference Kronecker product f1 (x) f2 (x) ... on the lexicographic
    tensor basis, built entry by entry as a plain LinearMap. A chain composed
    of these runs through the plain matrix product, never through the
    factored maps or the slot kernel that the references check."""
    first = maps[0]
    result = LinearMap(first.source, first.target, first.entries)
    for g in maps[1:]:
        gs, gt = g.source.dim, g.target.dim
        entries = {
            (i1 * gt + i2, j1 * gs + j2): v1 * v2
            for (i1, j1), v1 in result.entries.items()
            for (i2, j2), v2 in g.entries.items()
        }
        result = LinearMap(
            tensor_space(result.source, g.source), tensor_space(result.target, g.target), entries)
    return result


@pytest.fixture(scope="session")
def rationals():
    return FieldSpec.rationals()


@pytest.fixture(scope="session")
def f3():
    return FieldSpec.prime_field(3)


@pytest.fixture(scope="session")
def f5():
    return FieldSpec.prime_field(5)


@pytest.fixture(scope="session")
def zeta4():
    return FieldSpec.cyclotomic(4)


@pytest.fixture(scope="session")
def kc2_q(rationals):
    return cyclic_group_hopf(rationals, 2)


@pytest.fixture(scope="session")
def kc2_f3(f3):
    return cyclic_group_hopf(f3, 2)


@pytest.fixture(scope="session")
def kc4_f5(f5):
    return cyclic_group_hopf(f5, 4)


@pytest.fixture(scope="session")
def kc4_zeta4(zeta4):
    return cyclic_group_hopf(zeta4, 4)


@pytest.fixture(scope="session")
def qline_f3(kc2_f3):
    return GradedYDHopf(quantum_line(kc2_f3), quantum_line_grading())


@pytest.fixture(scope="session")
def qline_f5(kc4_f5):
    return GradedYDHopf(quantum_line(kc4_f5), quantum_line_grading())


@pytest.fixture(scope="session")
def boson4(qline_f3):
    return bosonize(qline_f3)


@pytest.fixture(scope="session")
def boson8(qline_f5):
    return bosonize(qline_f5)
