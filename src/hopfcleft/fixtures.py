"""Concrete structure-constant fixtures: cyclic group algebras and the
quantum line over a cyclic group.

The tests and the benchmark's input generator build their inputs from these
(so does the README's library example). The CLI never imports this module:
its commands read definition files.
"""

from __future__ import annotations

from .braided import HModule, YDModule
from .fields import FieldSpec
from .hopf import AlgebraData, BialgebraData, CoalgebraData, antipode
from .linalg import LinearMap, based_space, tensor_space, unit_space


def cyclic_group_hopf(field: FieldSpec, n: int) -> BialgebraData:
    """The group algebra of the cyclic group of order n, as a Hopf algebra."""
    labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    space = based_space(f"kC{n}", labels, field)
    unit1 = unit_space(field)
    mul = LinearMap.from_labels(
        tensor_space(space, space), space,
        [(labels[(i + j) % n], labels[i] + "." + labels[j], 1)
         for i in range(n) for j in range(n)],
    ) if n > 1 else LinearMap.identity(space)
    unit = LinearMap.from_labels(unit1, space, [("1", "1", 1)])
    comul = LinearMap.from_labels(
        space, tensor_space(space, space),
        [(lab + "." + lab, lab, 1) for lab in labels],
    ) if n > 1 else LinearMap.identity(space)
    counit = LinearMap.from_labels(space, unit1, [("1", lab, 1) for lab in labels])
    s_map = LinearMap.from_labels(
        space, space, [(labels[(-i) % n], labels[i], 1) for i in range(n)])
    alg = AlgebraData(space, mul, unit)
    coalg = CoalgebraData(space, comul, counit)
    return BialgebraData(alg, coalg, s_map)


def quantum_line(ambient: BialgebraData) -> BialgebraData:
    """The quantum line R = k[x]/(x^2) as a Hopf algebra in the Yetter-Drinfeld
    category over a cyclic group algebra: x is g-homogeneous and g.x = -x."""
    field = ambient.space.field
    n = ambient.space.dim
    space = based_space("R", ["1", "x"], field)
    zero1 = unit_space(field)
    # action: g^i . 1 = 1, g^i . x = (-1)^i x
    action = LinearMap.from_labels(tensor_space(ambient.space, space), space, [
        t for i, h in enumerate(ambient.space.labels)
        for t in (("1", h + ".1", 1), ("x", h + ".x", (-1) ** i))])
    glab = ambient.space.labels[1 % n]
    coaction = LinearMap.from_labels(
        space, tensor_space(ambient.space, space), [("1.1", "1", 1), (glab + ".x", "x", 1)])
    yd = YDModule(HModule(ambient, space, action), coaction)

    mul = LinearMap.from_labels(
        tensor_space(space, space), space, [("1", "1.1", 1), ("x", "1.x", 1), ("x", "x.1", 1)])
    unit = LinearMap.from_labels(zero1, space, [("1", "1", 1)])
    comul = LinearMap.from_labels(
        space, tensor_space(space, space), [("1.1", "1", 1), ("x.1", "x", 1), ("1.x", "x", 1)])
    counit = LinearMap.from_labels(space, zero1, [("1", "1", 1)])
    line = BialgebraData(
        AlgebraData(space, mul, unit), CoalgebraData(space, comul, counit), yd=yd)
    line.antipode = antipode(line)
    return line


def quantum_line_grading() -> dict[str, int]:
    return {"1": 0, "x": 1}

