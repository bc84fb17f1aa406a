"""Concrete structure-constant fixtures used by tests, the CLI and the census.

All fixtures are small (dim <= 16): cyclic group algebras, the quantum line
over a cyclic group, and a bialgebra that is not Hopf.
"""

from __future__ import annotations

from .braided import HModule, YDModule
from .fields import FieldSpec
from .hopf import AlgebraData, BialgebraData, CoalgebraData, antipode
from .linalg import LinearMap, based_space, tensor_space, unit_space


def cyclic_group_hopf(field: FieldSpec, n: int, name: str | None = None) -> BialgebraData:
    """The group algebra of the cyclic group of order n, as a Hopf algebra."""
    name = name or f"kC{n}"
    labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    space = based_space(name, labels, field)
    one_s = field.one()
    unit1 = unit_space(field)
    mul = LinearMap.from_labels(
        tensor_space(space, space), space,
        [(labels[(i + j) % n], labels[i] + "." + labels[j], one_s)
         for i in range(n) for j in range(n)],
    ) if n > 1 else LinearMap.identity(space)
    unit = LinearMap.from_labels(unit1, space, [("1", "1", one_s)])
    comul = LinearMap.from_labels(
        space, tensor_space(space, space),
        [(lab + "." + lab, lab, one_s) for lab in labels],
    ) if n > 1 else LinearMap.identity(space)
    counit = LinearMap.from_labels(space, unit1, [("1", lab, one_s) for lab in labels])
    s_map = LinearMap.from_labels(
        space, space, [(labels[(-i) % n], labels[i], one_s) for i in range(n)])
    alg = AlgebraData(space, mul, unit)
    coalg = CoalgebraData(space, comul, counit)
    return BialgebraData(alg, coalg, s_map)


def non_hopf_bialgebra(field: FieldSpec) -> BialgebraData:
    """The monoid algebra of {1, e} with e^2 = e and e grouplike: a bialgebra
    whose identity map is not convolution invertible."""
    space = based_space("kM2", ["1", "e"], field)
    one_s = field.one()
    unit1 = unit_space(field)
    mul = LinearMap.from_labels(
        tensor_space(space, space), space,
        [("1", "1.1", one_s), ("e", "1.e", one_s), ("e", "e.1", one_s), ("e", "e.e", one_s)],
    )
    unit = LinearMap.from_labels(unit1, space, [("1", "1", one_s)])
    comul = LinearMap.from_labels(
        space, tensor_space(space, space), [("1.1", "1", one_s), ("e.e", "e", one_s)])
    counit = LinearMap.from_labels(space, unit1, [("1", "1", one_s), ("1", "e", one_s)])
    return BialgebraData(AlgebraData(space, mul, unit), CoalgebraData(space, comul, counit))


def quantum_line(ambient: BialgebraData, name: str = "R") -> BialgebraData:
    """The quantum line R = k[x]/(x^2) as a Hopf algebra in the Yetter-Drinfeld
    category over a cyclic group algebra: x is g-homogeneous and g.x = -x."""
    field = ambient.space.field
    q = field.scalar(-1)
    n = ambient.space.dim
    space = based_space(name, ["1", "x"], field)
    one_s = field.one()
    zero1 = unit_space(field)
    # action: g^i . 1 = 1, g^i . x = (-1)^i x
    triples = []
    for i, hlab in enumerate(ambient.space.labels):
        triples.append(("1", hlab + ".1", one_s))
        triples.append(("x", hlab + ".x", q ** i))
    action = LinearMap.from_labels(tensor_space(ambient.space, space), space, triples)
    glab = ambient.space.labels[1 % n]
    coaction = LinearMap.from_labels(
        space, tensor_space(ambient.space, space),
        [("1.1", "1", one_s), (glab + ".x", "x", one_s)],
    )
    yd = YDModule(HModule(ambient, space, action), coaction)

    mul = LinearMap.from_labels(
        tensor_space(space, space), space,
        [("1", "1.1", one_s), ("x", "1.x", one_s), ("x", "x.1", one_s)],
    )
    unit = LinearMap.from_labels(zero1, space, [("1", "1", one_s)])
    comul = LinearMap.from_labels(
        space, tensor_space(space, space),
        [("1.1", "1", one_s), ("x.1", "x", one_s), ("1.x", "x", one_s)],
    )
    counit = LinearMap.from_labels(space, zero1, [("1", "1", one_s)])
    line = BialgebraData(
        AlgebraData(space, mul, unit),
        CoalgebraData(space, comul, counit),
        yd=yd,
    )
    line.antipode = antipode(line)
    return line


def quantum_line_grading() -> dict[str, int]:
    return {"1": 0, "x": 1}

