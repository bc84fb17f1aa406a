"""The structure-constants file format (.had) and its canonical serializer.

A definition file is line oriented:

    field: F_5
    space H: 1 g g2 g3
    grade GR@R: 1=0 x=1
    tensor Hmul mul@H: (1, 1.1, 1) (g, 1.g, 1) ...
    role hopf_algebra KC4: space=H mul=Hmul unit=Hunit comul=Hcm counit=Hcu antipode=HS

Composite basis labels join atomic labels with ".", matching the tensor
basis order; the one-dimensional ground space has the single label "1".
Scalars use the field notation: integers, "a/b" fractions, or "[c0, c1]"
cyclotomic coefficient lists. "#" starts a comment. parse followed by
serialize is the identity on canonical text; serialize after parse
canonicalizes any valid file deterministically (spaces, grades, tensors and
roles sorted by name, entries sorted by row then column index).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .braided import (
    BraidedBialgebra,
    ComoduleAlgebra,
    HModule,
    Measuring,
    YDModule,
    classical_hopf,
)
from .errors import ParseError, ShapeMismatch, ValidationError
from .fields import FieldSpec
from .hopf import AlgebraData, BialgebraData, CoalgebraData, HopfAlgebraData
from .linalg import TENSOR_SEP, BasedSpace, LinearMap, flip_map, tensor_space, unit_space

_LABEL_RE = re.compile(r"^[A-Za-z0-9_'-]+$")
_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")

# tensor role -> number of space names it takes; its shape is _role_shape
TENSOR_ROLES = {
    "mul": 1,
    "unit": 1,
    "comul": 1,
    "counit": 1,
    "antipode": 1,
    "action": 2,
    "coaction": 2,
    "right_coaction": 2,
    "section": 2,
    "cocycle": 2,
    "measuring": 2,
    "map": 2,
}

ROLE_KINDS = {
    "hopf_algebra": {
        "required": ("space", "mul", "unit", "comul", "counit"),
        "optional": ("antipode",),
    },
    "yd_module": {
        "required": ("ambient", "space", "action", "coaction"),
        "optional": (),
    },
    "graded_yd_hopf": {
        "required": ("ambient", "space", "action", "coaction",
                     "mul", "unit", "comul", "counit", "grading"),
        "optional": ("antipode",),
    },
    "measuring": {
        "required": ("hopf", "space", "mul", "unit", "nu"),
        "optional": ("carrier_action",),
    },
    "cocycle": {
        "required": ("measuring", "sigma"),
        "optional": (),
    },
    "cleft_extension": {
        "required": ("hopf", "space", "mul", "unit", "coaction", "section"),
        "optional": ("carrier_action",),
    },
}


@dataclass
class Tensor:
    name: str
    role: str
    space_names: tuple[str, ...]
    map: LinearMap

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.name, self.role, self.space_names, self.map) == (
            other.name, other.role, other.space_names, other.map)


@dataclass
class Role:
    kind: str
    name: str
    bindings: dict[str, str]


@dataclass
class DefinitionFile:
    field: FieldSpec
    spaces: dict[str, BasedSpace] = dc_field(default_factory=dict)
    grades: dict[str, tuple[str, dict[str, int]]] = dc_field(default_factory=dict)
    tensors: dict[str, Tensor] = dc_field(default_factory=dict)
    roles: dict[str, Role] = dc_field(default_factory=dict)

    def tensor_map(self, name: str) -> LinearMap:
        if name not in self.tensors:
            raise ValidationError(f"unknown tensor {name!r}")
        return self.tensors[name].map

    def space(self, name: str) -> BasedSpace:
        if name not in self.spaces:
            raise ValidationError(f"unknown space {name!r}")
        return self.spaces[name]


def _role_shape(role: str, spaces: list[BasedSpace], f: FieldSpec):
    one = unit_space(f)
    s = spaces
    if role == "mul":
        return tensor_space(s[0], s[0]), s[0]
    if role == "unit":
        return one, s[0]
    if role == "comul":
        return s[0], tensor_space(s[0], s[0])
    if role == "counit":
        return s[0], one
    if role == "antipode":
        return s[0], s[0]
    if role == "action":
        return tensor_space(s[0], s[1]), s[1]
    if role == "coaction":
        return s[1], tensor_space(s[0], s[1])
    if role == "right_coaction":
        return s[1], tensor_space(s[1], s[0])
    if role in ("section", "map"):
        return s[0], s[1]
    if role == "cocycle":
        return tensor_space(s[0], s[0]), s[1]
    if role == "measuring":
        return tensor_space(s[0], s[1]), s[1]
    raise ValidationError(f"unknown tensor role {role!r}")


def parse_field(text: str) -> FieldSpec:
    text = text.strip()
    if text == "Q":
        return FieldSpec.rationals()
    m = re.fullmatch(r"F_(\d+)", text)
    if m:
        return FieldSpec.prime_field(int(m.group(1)))
    m = re.fullmatch(r"Q\(zeta_(\d+)\)", text)
    if m:
        return FieldSpec.cyclotomic(int(m.group(1)))
    raise ValueError(f"unknown field {text!r}")


def _split_entries(body: str, line_no: int) -> list[list[str]]:
    """Split '(a, b, c) (d, e, f)' into token lists."""
    out = []
    i, n = 0, len(body)
    while i < n:
        if body[i].isspace():
            i += 1
            continue
        if body[i] != "(":
            raise ParseError("expected '(' in tensor entries", line_no)
        j = body.find(")", i)
        if j < 0:
            raise ParseError("unbalanced '(' in tensor entries", line_no)
        # split on top-level commas only; cyclotomic literals contain commas
        # inside their [...] coefficient lists
        tokens, depth, start = [], 0, i + 1
        for k in range(i + 1, j):
            ch = body[k]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                tokens.append(body[start:k].strip())
                start = k + 1
        tokens.append(body[start:j].strip())
        out.append(tokens)
        i = j + 1
    return out


def parse(text: str) -> DefinitionFile:
    """Parse and validate definition-file text; raises ParseError with the
    offending line number, or ValidationError for semantic problems."""
    df: DefinitionFile | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'keyword ...: body'", line_no)
        head, _, body = line.partition(":")
        words = head.strip().split()
        body = body.strip()
        if not words:
            raise ParseError("missing line keyword before ':'", line_no)
        if words[0] == "field":
            if len(words) != 1:
                raise ParseError("field line takes no name", line_no)
            if df is not None:
                raise ParseError("duplicate field line", line_no)
            try:
                df = DefinitionFile(parse_field(body))
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
            continue
        if df is None:
            raise ParseError("first line must be 'field: ...'", line_no)
        if words[0] == "space":
            _parse_space(df, words, body, line_no)
        elif words[0] == "grade":
            _parse_grade(df, words, body, line_no)
        elif words[0] == "tensor":
            _parse_tensor(df, words, body, line_no)
        elif words[0] == "role":
            _parse_role(df, words, body, line_no)
        else:
            raise ParseError(f"unknown line keyword {words[0]!r}", line_no)
    if df is None:
        raise ParseError("missing 'field: ...' line", 1)
    _validate_roles(df)
    return df


def _parse_space(df, words, body, line_no):
    if len(words) != 2 or not _NAME_RE.match(words[1]):
        raise ParseError("expected 'space NAME: labels'", line_no)
    name = words[1]
    if name in df.spaces:
        raise ParseError(f"duplicate space {name!r}", line_no)
    labels = body.split()
    if not labels:
        raise ParseError("space needs at least one label", line_no)
    for lab in labels:
        if not _LABEL_RE.match(lab):
            raise ParseError(f"bad basis label {lab!r}", line_no)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate basis label", line_no)
    df.spaces[name] = BasedSpace(name, tuple(labels), df.field)


def _parse_grade(df, words, body, line_no):
    if len(words) != 2 or "@" not in words[1]:
        raise ParseError("expected 'grade NAME@SPACE: label=k ...'", line_no)
    name, _, space_name = words[1].partition("@")
    if name in df.grades:
        raise ParseError(f"duplicate grade {name!r}", line_no)
    if space_name not in df.spaces:
        raise ParseError(f"unknown space {space_name!r}", line_no)
    space = df.spaces[space_name]
    grading = {}
    for item in body.split():
        lab, _, deg = item.partition("=")
        if lab not in space.labels:
            raise ParseError(f"unknown basis label {lab!r}", line_no)
        try:
            grading[lab] = int(deg)
        except ValueError as exc:
            raise ParseError(f"bad degree {deg!r}", line_no) from exc
    missing = [lab for lab in space.labels if lab not in grading]
    if missing:
        raise ParseError(f"labels without a degree: {missing}", line_no)
    df.grades[name] = (space_name, grading)


def _parse_tensor(df, words, body, line_no):
    if len(words) != 3 or "@" not in words[2]:
        raise ParseError("expected 'tensor NAME ROLE@SPACES: entries'", line_no)
    name = words[1]
    if name in df.tensors:
        raise ParseError(f"duplicate tensor {name!r}", line_no)
    role, _, space_part = words[2].partition("@")
    if role not in TENSOR_ROLES:
        raise ParseError(f"unknown tensor role {role!r}", line_no)
    space_names = tuple(space_part.split(","))
    if len(space_names) != TENSOR_ROLES[role]:
        raise ParseError(
            f"role {role!r} takes {TENSOR_ROLES[role]} space name(s)", line_no)
    try:
        spaces = [df.space(n) for n in space_names]
        source, target = _role_shape(role, spaces, df.field)
    except ValidationError as exc:
        raise ParseError(str(exc), line_no) from exc
    entries = {}
    for tokens in _split_entries(body, line_no):
        if len(tokens) != 3:
            raise ParseError("tensor entry must be (row, col, value)", line_no)
        row, col, value = tokens
        try:
            key = (target.index(row), source.index(col))
        except Exception as exc:
            raise ParseError(f"unknown basis label in entry ({row}, {col})", line_no) from exc
        if key in entries:
            raise ParseError(f"duplicate entry ({row}, {col})", line_no)
        try:
            entries[key] = df.field.parse(value)
        except Exception as exc:
            raise ParseError(f"bad scalar literal {value!r}", line_no) from exc
    df.tensors[name] = Tensor(name, role, space_names, LinearMap(source, target, entries))


def _parse_role(df, words, body, line_no):
    if len(words) != 3:
        raise ParseError("expected 'role KIND NAME: key=value ...'", line_no)
    kind, name = words[1], words[2]
    if kind not in ROLE_KINDS:
        raise ParseError(f"unknown role kind {kind!r}", line_no)
    if name in df.roles:
        raise ParseError(f"duplicate role {name!r}", line_no)
    bindings = {}
    for item in body.split():
        key, eq, value = item.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {item!r}", line_no)
        if key in bindings:
            raise ParseError(f"duplicate role key {key!r}", line_no)
        bindings[key] = value
    allowed = ROLE_KINDS[kind]
    for key in bindings:
        if key not in allowed["required"] and key not in allowed["optional"]:
            raise ParseError(f"unknown key {key!r} for role kind {kind!r}", line_no)
    missing = [k for k in allowed["required"] if k not in bindings]
    if missing:
        raise ParseError(f"role {name!r} is missing keys {missing}", line_no)
    df.roles[name] = Role(kind, name, bindings)


# which role kinds each cross-reference key may point at
_REFERENCE_KINDS = {
    "ambient": ("hopf_algebra",),
    "hopf": ("hopf_algebra", "graded_yd_hopf"),
    "measuring": ("measuring",),
}


def _validate_roles(df: DefinitionFile):
    """Every binding resolves to an object of the right kind; done after
    parsing so declaration order does not matter. Semantic checks (axioms,
    invertibility) are left to the commands so that a well-shaped but corrupt
    structure is a check failure, not a parse failure."""
    for role in df.roles.values():
        for key, value in role.bindings.items():
            if key == "space":
                df.space(value)
            elif key == "grading":
                if value not in df.grades:
                    raise ValidationError(
                        f"role {role.name!r}: unknown grade {value!r}")
            elif key in _REFERENCE_KINDS:
                if value not in df.roles:
                    raise ValidationError(
                        f"role {role.name!r}: unknown role {value!r}")
                kinds = _REFERENCE_KINDS[key]
                if df.roles[value].kind not in kinds:
                    raise ValidationError(
                        f"role {role.name!r}: {key}={value!r} must be one of {kinds}")
            else:
                df.tensor_map(value)


def serialize(df: DefinitionFile) -> str:
    """Canonical text: fixed section order, everything sorted by name."""
    lines = [f"field: {df.field}"]
    for name in sorted(df.spaces):
        lines.append(f"space {name}: " + " ".join(df.spaces[name].labels))
    for name in sorted(df.grades):
        space_name, grading = df.grades[name]
        space = df.spaces[space_name]
        body = " ".join(f"{lab}={grading[lab]}" for lab in space.labels)
        lines.append(f"grade {name}@{space_name}: {body}")
    for name in sorted(df.tensors):
        t = df.tensors[name]
        src, tgt = t.map.source, t.map.target
        parts = []
        for (i, j) in sorted(t.map.entries):
            v = df.field.format(t.map.entries[(i, j)])
            parts.append(f"({tgt.labels[i]}, {src.labels[j]}, {v})")
        head = f"tensor {name} {t.role}@{','.join(t.space_names)}:"
        lines.append(head + (" " + " ".join(parts) if parts else ""))
    for name in sorted(df.roles):
        r = df.roles[name]
        body = " ".join(f"{k}={r.bindings[k]}" for k in sorted(r.bindings))
        lines.append(f"role {r.kind} {name}: {body}")
    return "\n".join(lines) + "\n"


def load(path) -> DefinitionFile:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save(df: DefinitionFile, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(df))


def build(df: DefinitionFile, name: str):
    """Construct the core object declared by the named role."""
    if name not in df.roles:
        raise ValidationError(f"unknown role {name!r}")
    role = df.roles[name]
    builder = _BUILDERS[role.kind]
    try:
        return builder(df, role)
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"role {name!r} ({role.kind}): {exc}") from exc


def _build_hopf(df, role) -> HopfAlgebraData:
    b = role.bindings
    space = df.space(b["space"])
    bialg = BialgebraData(
        AlgebraData(space, df.tensor_map(b["mul"]), df.tensor_map(b["unit"])),
        CoalgebraData(space, df.tensor_map(b["comul"]), df.tensor_map(b["counit"])),
        flip_map(space, space),
    )
    if "antipode" in b:
        return HopfAlgebraData(bialg, df.tensor_map(b["antipode"]))
    from .hopf import antipode

    return HopfAlgebraData(bialg, antipode(bialg))


def _build_yd(df, role) -> YDModule:
    b = role.bindings
    ambient = build(df, b["ambient"])
    if not isinstance(ambient, HopfAlgebraData):
        raise ValidationError(f"role {role.name!r}: ambient must be a hopf_algebra")
    space = df.space(b["space"])
    module = HModule(ambient, space, df.tensor_map(b["action"]))
    return YDModule(module, df.tensor_map(b["coaction"]))


def _build_graded(df, role):
    from .braided import braiding
    from .lifting import GradedYDHopf

    b = role.bindings
    yd = _build_yd(df, role)
    space = yd.space
    bialg = BialgebraData(
        AlgebraData(space, df.tensor_map(b["mul"]), df.tensor_map(b["unit"])),
        CoalgebraData(space, df.tensor_map(b["comul"]), df.tensor_map(b["counit"])),
        braiding(yd, yd.module),
    )
    if "antipode" in b:
        antipode_map = df.tensor_map(b["antipode"])
    else:
        from .hopf import antipode

        antipode_map = antipode(bialg)
    hopf = BraidedBialgebra(yd.base, yd, bialg, antipode_map)
    _, grading = df.grades[b["grading"]]
    return GradedYDHopf(hopf, grading)


def _algebra_over_hopf(df, b) -> tuple[BraidedBialgebra, AlgebraData, HModule]:
    """The parts a measuring and a cleft extension share: the braided
    bialgebra of the ``hopf=`` binding (a hopf_algebra over the trivial
    ambient, or the one a graded_yd_hopf wraps), the algebra on ``space=``
    and its ambient carrier (trivial unless ``carrier_action=`` is bound)."""
    from .braided import trivial_module

    hopf = build(df, b["hopf"])
    if isinstance(hopf, HopfAlgebraData):
        hopf = classical_hopf(hopf)
    elif not isinstance(hopf, BraidedBialgebra):
        hopf = hopf.hopf
    space = df.space(b["space"])
    algebra = AlgebraData(space, df.tensor_map(b["mul"]), df.tensor_map(b["unit"]))
    if "carrier_action" in b:
        return hopf, algebra, HModule(hopf.ambient, space, df.tensor_map(b["carrier_action"]))
    return hopf, algebra, trivial_module(hopf.ambient, space)


def _build_measuring(df, role) -> Measuring:
    b = role.bindings
    hopf, algebra, carrier = _algebra_over_hopf(df, b)
    return Measuring(hopf, algebra, carrier, df.tensor_map(b["nu"]))


def _build_cocycle(df, role):
    from .cocycle import check_cocycle

    b = role.bindings
    m = build(df, b["measuring"])
    sigma = df.tensor_map(b["sigma"])
    cocycle, report = check_cocycle(m, sigma)
    if cocycle is None:
        raise ValidationError(
            f"role {role.name!r}: sigma fails the cocycle check "
            f"({report.first_failure()})")
    return cocycle


def _build_cleft(df, role):
    from .cleft import make_cleft

    b = role.bindings
    hopf, algebra, carrier = _algebra_over_hopf(df, b)
    comod = ComoduleAlgebra(hopf, algebra, carrier, df.tensor_map(b["coaction"]))
    return make_cleft(comod, df.tensor_map(b["section"]))


_BUILDERS = {
    "hopf_algebra": _build_hopf,
    "yd_module": _build_yd,
    "graded_yd_hopf": _build_graded,
    "measuring": _build_measuring,
    "cocycle": _build_cocycle,
    "cleft_extension": _build_cleft,
}


def graded_to_definition(g, ambient_name: str = "K", name: str = "R") -> DefinitionFile:
    """A graded braided Hopf algebra (with its ambient) as a definition file."""
    df = hopf_to_definition(g.hopf.ambient, ambient_name)
    space = g.space
    df.spaces[space.name] = space
    df.grades[f"{name}_degrees"] = (space.name, dict(g.grading))
    pair = (g.hopf.ambient.space.name, space.name)
    for t in [
        Tensor(f"{name}_mul", "mul", (space.name,), g.hopf.mul),
        Tensor(f"{name}_unit", "unit", (space.name,), g.hopf.unit),
        Tensor(f"{name}_comul", "comul", (space.name,), g.hopf.comul),
        Tensor(f"{name}_counit", "counit", (space.name,), g.hopf.counit),
        Tensor(f"{name}_action", "action", pair, g.hopf.yd.module.action),
        Tensor(f"{name}_coaction", "coaction", pair, g.hopf.yd.coaction),
    ]:
        df.tensors[t.name] = t
    bindings = {
        "ambient": ambient_name,
        "space": space.name,
        "mul": f"{name}_mul",
        "unit": f"{name}_unit",
        "comul": f"{name}_comul",
        "counit": f"{name}_counit",
        "action": f"{name}_action",
        "coaction": f"{name}_coaction",
        "grading": f"{name}_degrees",
    }
    if g.hopf.antipode is not None:
        df.tensors[f"{name}_antipode"] = Tensor(
            f"{name}_antipode", "antipode", (space.name,), g.hopf.antipode)
        bindings["antipode"] = f"{name}_antipode"
    df.roles[name] = Role("graded_yd_hopf", name, bindings)
    return df


def hopf_to_definition(h: HopfAlgebraData, name: str = "H") -> DefinitionFile:
    """A classical Hopf algebra as a definition file with one hopf_algebra role.
    A composite carrier (a bosonization or its deformation) is written as the
    space ``name`` with dot-free labels, see ``file_space``."""
    space = file_space(h.space, name) if h.space.factors else h.space
    df = DefinitionFile(space.field)
    df.spaces[space.name] = space
    bindings = {"space": space.name}
    for role in ("mul", "unit", "comul", "counit", "antipode"):
        t = role_tensor(f"{name}_{role}", role, (space,), getattr(h, role))
        df.tensors[t.name] = t
        bindings[role] = t.name
    df.roles[name] = Role("hopf_algebra", name, bindings)
    return df


def file_space(space: BasedSpace, name: str) -> BasedSpace:
    """``space`` renamed, with "_" for the tensor separator in its labels, so
    that a basis built from tensor products can be written to a file."""
    labels = tuple(lab.replace(TENSOR_SEP, "_") for lab in space.labels)
    return BasedSpace(name, labels, space.field)


def role_tensor(name: str, role: str, spaces: tuple[BasedSpace, ...], f: LinearMap) -> Tensor:
    """The tensor NAME ROLE@SPACES holding the entries of f. Its source and
    target are the shape the role takes on ``spaces``, which relabels f's own
    basis; the dimensions must agree."""
    source, target = _role_shape(role, spaces, spaces[0].field)
    if (source.dim, target.dim) != (f.source.dim, f.target.dim):
        raise ShapeMismatch(f"tensor {name!r} does not have the shape of a {role}")
    return Tensor(name, role, tuple(s.name for s in spaces), LinearMap(source, target, f.entries))
