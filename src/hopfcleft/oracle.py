"""Brute-force enumeration oracles over small prime fields.

These independently validate the closed-form constructions: cocycles are
found by sweeping every scalar assignment of the slots that unitality leaves
free and filtering with the full verifier, and convolution inverses are found
by exhaustive two-sided search.
Enumeration order is lexicographic over the unknown assignments, so results
are deterministic.
"""

from __future__ import annotations

from itertools import product

from . import lifting  # imports this module; the package registers it lazily
from .braided import Measuring, trivial_measuring
from .cocycle import Cocycle, check_cocycle
from .errors import DEFAULT_BOUND, NotInvertible, SearchSpaceTooLarge
from .fields import FieldSpec
from .hopf import AlgebraData, CoalgebraData, convolution, convolution_unit
from .linalg import LinearMap, compose, tensor_map, tensor_space


class SearchSpace:
    """A finite family of scalar maps: unknowns indexed by (row, col) slots."""

    def __init__(self, unknowns: tuple[tuple[int, int], ...], field: FieldSpec,
                 bound: int = DEFAULT_BOUND):
        self.unknowns = unknowns
        self.field = field
        self.bound = bound
        if field.kind != "prime":
            raise SearchSpaceTooLarge("exhaustive search requires a prime field")
        if self.count() > bound:
            raise SearchSpaceTooLarge(
                f"{field.p}^{len(unknowns)} candidates exceed the bound {bound}")

    def count(self) -> int:
        return self.field.p ** len(self.unknowns)

    def assignments(self):
        """All value tuples in lexicographic order."""
        return product(range(self.field.p), repeat=len(self.unknowns))


def _candidate_maps(source, target, space: SearchSpace, fixed=None):
    """Every map with the swept unknowns of ``space`` and the ``fixed``
    {slot: raw value} entries, in lexicographic order of the unknowns."""
    for values in space.assignments():
        entries = dict(fixed or {})
        entries.update(zip(space.unknowns, values))
        yield LinearMap(source, target, entries)


def enumerate_cocycles(m: Measuring, bound: int = DEFAULT_BOUND) -> list[Cocycle]:
    """Every map H (x) H -> A passing the full cocycle check, in deterministic
    order."""
    found = []
    for sigma in _unital_candidates(m, bound):
        cocycle, _ = check_cocycle(m, sigma)
        if cocycle is not None:
            found.append(cocycle)
    return found


def _unital_candidates(m: Measuring, bound: int):
    """Every map sigma: H (x) H -> A with sigma(1 (x) h) = sigma(h (x) 1) =
    eps(h) 1, in lexicographic order of the swept slots. Every cocycle is
    unital on both slots, so the sweeps filter here, before verifying."""
    source = tensor_space(m.hopf.space, m.hopf.space)
    target = m.space
    slots = [(i, j) for i in range(target.dim) for j in range(source.dim)]
    id_h = LinearMap.identity(m.hopf.space)
    left = tensor_map(m.hopf.unit, id_h)
    right = tensor_map(id_h, m.hopf.unit)
    want = compose(m.algebra.unit, m.hopf.counit)
    fixed = _pinned_by_unitality(m.hopf.unit, want, slots)
    space = SearchSpace(tuple(s for s in slots if s not in fixed), target.field, bound)
    for sigma in _candidate_maps(source, target, space, fixed):
        if compose(sigma, left) == want and compose(sigma, right) == want:
            yield sigma


def _pinned_by_unitality(unit: LinearMap, want: LinearMap, slots) -> dict:
    """The slots of a map sigma: H (x) H -> A that unitality, sigma(1 (x) h) =
    sigma(h (x) 1) = want(h), fixes outright, with their values. This needs
    the unit to be one basis vector with coefficient 1; otherwise nothing is
    pinned. Sweeping only the other slots, with these
    held fixed, visits the unital candidates of the full sweep in the same
    order."""
    unit_entries = unit.raw_entries()
    if len(unit_entries) != 1:
        return {}
    (u, _), one = next(iter(unit_entries.items()))
    if one != unit.target.field.value(1):
        return {}
    d = unit.target.dim
    want_entries = want.raw_entries()
    pinned = {}
    for i, col in slots:
        x, y = divmod(col, d)
        if x == u or y == u:
            pinned[(i, col)] = want_entries.get((i, y if x == u else x), 0)
    return pinned


def oracle_convolution_inverse(
    f: LinearMap, c: CoalgebraData, a: AlgebraData, bound: int = DEFAULT_BOUND
) -> LinearMap:
    """Exhaustive search for the two-sided convolution inverse; raises
    NotInvertible after a full sweep without a witness."""
    slots = tuple((i, j) for i in range(a.space.dim) for j in range(c.space.dim))
    space = SearchSpace(slots, a.space.field, bound)
    unit = convolution_unit(c, a)
    for g in _candidate_maps(c.space, a.space, space):
        if convolution(f, g, c, a) == unit and convolution(g, f, c, a) == unit:
            return g
    raise NotInvertible("exhausted all candidates without finding an inverse")


def enumerate_zprime(b, bound: int = DEFAULT_BOUND) -> list:
    """Every restricted scalar cocycle on a bosonization, found by sweeping
    the values on R x R pairs (which determine the whole map by the
    restriction formula) and filtering with the full verifier: their verified
    ``Cocycle``s in deterministic order."""
    spread = lifting._spread(b)
    found = []
    # the restriction pi: R (x) R -> k is a unital scalar map on R
    for pi_map in _unital_candidates(trivial_measuring(b.source.hopf), bound):
        cocycle, _ = lifting.check_zprime(b, compose(pi_map, spread))
        if cocycle is not None:
            found.append(cocycle)
    return found
