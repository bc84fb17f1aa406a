"""Structured pass/fail reports produced by the axiom checkers."""

from __future__ import annotations

from .linalg import LinearMap


class CheckItem:
    """One named verdict; equal to another item with the same name, verdict
    and witness."""

    def __init__(self, name: str, ok: bool, witness: str | None = None):
        self.name = name
        self.ok = ok
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not CheckItem:
            return NotImplemented
        return (self.name, self.ok, self.witness) == (other.name, other.ok, other.witness)

    def __repr__(self) -> str:
        return f"CheckItem(name={self.name!r}, ok={self.ok!r}, witness={self.witness!r})"

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        tail = f"  [{self.witness}]" if self.witness else ""
        return f"{self.name}: {status}{tail}"


class CheckReport:
    def __init__(self, subject: str, items: list[CheckItem] | None = None):
        self.subject = subject
        self.items = [] if items is None else items

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def add(self, item: CheckItem) -> CheckItem:
        self.items.append(item)
        return item

    def extend(self, other: "CheckReport"):
        self.items.extend(other.items)

    def first_failure(self) -> CheckItem | None:
        return next((i for i in self.items if not i.ok), None)

    def lines(self) -> list[str]:
        return [f"{self.subject}:"] + ["  " + i.line() for i in self.items]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def map_equal_item(name: str, lhs: LinearMap, rhs: LinearMap) -> CheckItem:
    """Compare two parallel maps; the witness is the first differing matrix
    entry. Raw values are canonical and no zero is stored, so the entries
    differ exactly at the keys of the items on one side only."""
    lhs._check_parallel(rhs)
    left, right = lhs.raw_entries(), rhs.raw_entries()
    if left == right:
        return CheckItem(name, True)
    (i, j) = min(k for k, _ in left.items() ^ right.items())
    field = lhs.source.field
    lv, rv = (field.format(side.get((i, j), field.value(0))) for side in (left, right))
    witness = f"at {lhs.source.label(j)} -> {lhs.target.label(i)}: {lv} != {rv}"
    return CheckItem(name, False, witness)
