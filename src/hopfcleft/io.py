"""The structure-constants file format (.had) and its canonical serializer.

A definition file is line oriented:

    field: F_5
    space H: 1 g g2 g3
    grade GR@R: 1=0 x=1
    tensor Hmul mul@H: (1, 1.1, 1) (g, 1.g, 1) ...
    role hopf_algebra KC4: space=H mul=Hmul unit=Hunit comul=Hcm counit=Hcu antipode=HS

Composite basis labels join atomic labels with ".", matching the tensor
basis order; the one-dimensional ground space has the single label "1". The
writer spells each composite label from its factors (``BasedSpace.label``).
Values use the field notation: integers, "a/b" fractions, or "[c0, c1]"
cyclotomic coefficient lists with a rational literal in every slot.
``FieldSpec.parse`` reads each into a raw value and ``FieldSpec.format``
prints one back, so no ``Scalar`` is built between a file and its maps.
"#" starts a comment. parse followed by serialize is the identity on
canonical text; serialize after parse canonicalizes any valid file
deterministically (spaces, grades, tensors and roles sorted by name, entries
sorted by row then column index).

The schema is two tables, ``TENSOR_SHAPES`` and ``ROLE_KINDS``; the parser,
the binding validator and the writer ``add_role`` read only these.
"""

from __future__ import annotations

import re

# registered lazily by the package, so executed when a builder first reads
# them: parsing and building a hopf_algebra role need none of these
from . import braided as _braided, cleft as _cleft, lifting as _lifting
from .errors import ParseError, ShapeMismatch, TheoremViolation, ValidationError
from .fields import FieldSpec
from .hopf import AlgebraData, BialgebraData, CoalgebraData, antipode
from .linalg import TENSOR_SEP, BasedSpace, LinearMap, tensor_space, unit_space

_LABEL_RE = re.compile(r"^[A-Za-z0-9_'-]+$")
_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_DEGREE_RE = re.compile(r"[0-9]+")  # a connected grading has no negative degree

# tensor role -> (number of spaces, source, target): source and target list
# the positions of their tensor factors among the spaces, () the ground field
TENSOR_SHAPES = {
    "mul": (1, (0, 0), (0,)),
    "unit": (1, (), (0,)),
    "comul": (1, (0,), (0, 0)),
    "counit": (1, (0,), ()),
    "antipode": (1, (0,), (0,)),
    "action": (2, (0, 1), (1,)),
    "coaction": (2, (1,), (0, 1)),
    "right_coaction": (2, (1,), (1, 0)),
    "section": (2, (0,), (1,)),
    "cocycle": (2, (0, 0), (1,)),
    "measuring": (2, (0, 1), (1,)),
    "map": (2, (0,), (1,)),  # bound by no role key
}

# role kind -> key -> what the key binds: "space", "grade", a tensor role, or
# a tuple of role kinds; a key ending in "?" is optional
ROLE_KINDS = {
    "hopf_algebra": {
        "space": "space", "mul": "mul", "unit": "unit", "comul": "comul",
        "counit": "counit", "antipode?": "antipode",
    },
    "yd_module": {
        "ambient": ("hopf_algebra",), "space": "space", "action": "action",
        "coaction": "coaction",
    },
    "graded_yd_hopf": {
        "ambient": ("hopf_algebra",), "space": "space", "action": "action",
        "coaction": "coaction", "mul": "mul", "unit": "unit", "comul": "comul",
        "counit": "counit", "grading": "grade", "antipode?": "antipode",
    },
    "measuring": {
        "hopf": ("hopf_algebra", "graded_yd_hopf"), "space": "space", "mul": "mul",
        "unit": "unit", "nu": "measuring", "carrier_action?": "action",
    },
    "cocycle": {"measuring": ("measuring",), "sigma": "cocycle"},
    "cleft_extension": {
        "hopf": ("hopf_algebra", "graded_yd_hopf"), "space": "space", "mul": "mul",
        "unit": "unit", "coaction": "right_coaction", "section": "section",
        "carrier_action?": "action",
    },
}


def role_keys(kind: str) -> dict[str, tuple[str | tuple[str, ...], bool]]:
    """key -> (what it binds, whether it is optional) for a role kind."""
    return {k.rstrip("?"): (binds, k.endswith("?")) for k, binds in ROLE_KINDS[kind].items()}


class Tensor:
    def __init__(self, name: str, role: str, space_names: tuple[str, ...], map: LinearMap):
        self.name = name
        self.role = role
        self.space_names = space_names
        self.map = map


class Role:
    def __init__(self, kind: str, name: str, bindings: dict[str, str], line: int | None = None):
        self.kind = kind
        self.name = name
        self.bindings = bindings
        self.line = line  # where the file declares it


class DefinitionFile:
    def __init__(self, field: FieldSpec):
        self.field = field
        self.spaces: dict[str, BasedSpace] = {}
        self.grades: dict[str, tuple[str, dict[str, int]]] = {}
        self.tensors: dict[str, Tensor] = {}
        self.roles: dict[str, Role] = {}
        self.built: dict[str, object] = {}  # role name -> the object ``build`` made of it
        self.judged: set[str] = set()  # the roles whose definition ``cli._built`` passed

    def tensor_map(self, name: str) -> LinearMap:
        if name not in self.tensors:
            raise ValidationError(f"unknown tensor {name!r}")
        return self.tensors[name].map

    def space(self, name: str) -> BasedSpace:
        if name not in self.spaces:
            raise ValidationError(f"unknown space {name!r}")
        return self.spaces[name]


def _role_shape(role: str, spaces, f: FieldSpec):
    """The (source, target) of a tensor of ``role`` on ``spaces``."""
    return tuple(tensor_space(*(spaces[i] for i in side)) if side else unit_space(f)
                 for side in TENSOR_SHAPES[role][1:])


def parse_field(text: str) -> FieldSpec:
    text = text.strip()
    if text == "Q":
        return FieldSpec.rationals()
    m = re.fullmatch(r"F_([0-9]+)", text)
    if m:
        return FieldSpec.prime_field(int(m.group(1)))
    m = re.fullmatch(r"Q\(zeta_([0-9]+)\)", text)
    if m:
        return FieldSpec.cyclotomic(int(m.group(1)))
    raise ValueError(f"unknown field {text!r}")


# one tensor entry: "(" and what follows it up to the first ")" (group 2 is
# empty when no ")" follows), or any other character that is not whitespace;
# each quantifier stops at the one character its successor needs, so a scan
# never backtracks
_ENTRY_RE = re.compile(r"\(([^)]*)(\)?)|[^\s(]")


def _split_entries(body: str, line_no: int) -> list[list[str]]:
    """Split '(a, b, c) (d, e, f)' into token lists, on the commas outside
    [...] (cyclotomic literals hold commas in their coefficient lists)."""
    out = []
    for m in _ENTRY_RE.finditer(body):
        if m[1] is None:
            raise ParseError("expected '(' in tensor entries", line_no)
        if not m[2]:
            raise ParseError("unbalanced '(' in tensor entries", line_no)
        tokens, held, depth = [], [], 0
        for piece in m[1].split(","):
            held.append(piece)
            depth += piece.count("[") - piece.count("]")
            if not depth:
                tokens.append(",".join(held).strip())
                held = []
        if held:
            tokens.append(",".join(held).strip())
        out.append(tokens)
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
        try:
            space.index(lab)
        except ValueError:
            raise ParseError(f"unknown basis label {lab!r}", line_no) from None
        if lab in grading:
            raise ParseError(f"duplicate degree for label {lab!r}", line_no)
        if not _DEGREE_RE.fullmatch(deg):
            raise ParseError(f"bad degree {deg!r}", line_no)
        grading[lab] = int(deg)
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
    if role not in TENSOR_SHAPES:
        raise ParseError(f"unknown tensor role {role!r}", line_no)
    space_names = tuple(space_part.split(","))
    if len(space_names) != TENSOR_SHAPES[role][0]:
        raise ParseError(
            f"role {role!r} takes {TENSOR_SHAPES[role][0]} space name(s)", line_no)
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
    keys = role_keys(kind)
    for key in bindings:
        if key not in keys:
            raise ParseError(f"unknown key {key!r} for role kind {kind!r}", line_no)
    missing = [k for k, (_, optional) in keys.items() if not optional and k not in bindings]
    if missing:
        raise ParseError(f"role {name!r} is missing keys {missing}", line_no)
    df.roles[name] = Role(kind, name, bindings, line_no)


def _validate_roles(df: DefinitionFile):
    """Every binding resolves to an object of the kind its key binds, then
    every tensor and grading binding to one on the role's spaces; done after
    parsing so declaration order does not matter. Neither this nor ``build``
    checks an axiom: the commands do, what a role rests on before their own
    checks, so a well-shaped structure that breaks one is a check failure
    (exit 1). What a role needs to be built is not: when a
    ``hopf_algebra`` bound without ``antipode=`` has no antipode, or a
    section has no convolution inverse, ``build`` raises an input error."""
    for role in df.roles.values():
        keys = role_keys(role.kind)
        for key, value in role.bindings.items():
            try:
                _validate_binding(df, role, key, value, keys[key][0])
            except ValidationError as exc:
                raise ValidationError(f"line {role.line}: {exc}") from exc
    for role in df.roles.values():
        _validate_spaces(df, role)


def _validate_binding(df, role, key, value, binds):
    if binds == "space":
        df.space(value)
    elif binds == "grade":
        if value not in df.grades:
            raise ValidationError(f"role {role.name!r}: unknown grade {value!r}")
    elif isinstance(binds, tuple):
        if value not in df.roles:
            raise ValidationError(f"role {role.name!r}: unknown role {value!r}")
        if df.roles[value].kind not in binds:
            raise ValidationError(
                f"role {role.name!r}: {key}={value!r} must be one of {binds}")
    else:
        df.tensor_map(value)
        found = df.tensors[value].role
        if found != binds:
            raise ParseError(
                f"role {role.name!r}: {key}={value!r} is {_a(found)} {found} tensor, "
                f"not {_a(binds)} {binds}", role.line)


def _validate_spaces(df, role):
    """Each tensor binding lies on the role's space, after the space of the
    role that ambient= or hopf= names when it is on two spaces, and a
    grading on the role's space; a cocycle role's spaces are those of its
    measuring. A graded_yd_hopf needs a space other than its ambient's,
    since its degrees are read off its own tensor factors. The constructor
    checks carrier_action."""
    b = role.bindings
    if role.kind == "cocycle":
        b = df.roles[b["measuring"]].bindings
    ref = df.roles.get(b.get("ambient", b.get("hopf")))
    if role.kind == "graded_yd_hopf" and b["space"] == ref.bindings["space"]:
        raise ParseError(
            f"role {role.name!r}: space={b['space']!r} is the space of its ambient "
            f"{b['ambient']!r}; R needs a space of its own", role.line)
    keys = role_keys(role.kind)
    for key, value in role.bindings.items():
        binds = keys[key][0]
        if binds == "grade":
            want, lies_on = (b["space"],), (df.grades[value][0],)
        elif binds in TENSOR_SHAPES and key != "carrier_action":
            want = (b["space"],) if TENSOR_SHAPES[binds][0] == 1 else (ref.bindings["space"], b["space"])
            lies_on = df.tensors[value].space_names
        else:
            continue
        if lies_on != want:
            raise ParseError(
                f"role {role.name!r}: {key}={value!r} is on {','.join(lies_on)}, "
                f"not on {','.join(want)}", role.line)


def _a(word: str) -> str:
    return "an" if word[0] in "aeio" else "a"


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
        for (i, j), v in sorted(t.map.raw_entries().items()):
            parts.append(f"({tgt.label(i)}, {src.label(j)}, {df.field.format(v)})")
        head = f"tensor {name} {t.role}@{','.join(t.space_names)}:"
        lines.append(head + (" " + " ".join(parts) if parts else ""))
    for name in sorted(df.roles):
        r = df.roles[name]
        body = " ".join(f"{k}={r.bindings[k]}" for k in sorted(r.bindings))
        lines.append(f"role {r.kind} {name}: {body}")
    return "\n".join(lines) + "\n"


def load(path) -> DefinitionFile:
    """Parse the file at ``path``, after one leading byte-order mark;
    ParseError on the line of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    return parse(text.removeprefix("\ufeff"))


def save(df: DefinitionFile, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(df))


def build(df: DefinitionFile, name: str):
    """Construct the core object declared by the named role, checking no
    axiom; it is kept on ``df``, so every route to the role (a builder
    reaches a role it references here) gets this one object. A cocycle role
    is not built. A violated theorem is a bug, not bad input, so it passes
    through unwrapped."""
    if name not in df.roles:
        raise ValidationError(f"unknown role {name!r}")
    role = df.roles[name]
    builder = _BUILDERS.get(role.kind)
    if builder is None:
        raise ValidationError(f"role {name!r} (cocycle) is not built; the cocycle commands check it")
    if name not in df.built:
        try:
            df.built[name] = builder(df, role)
        except (ValidationError, TheoremViolation):
            raise
        except Exception as exc:
            raise ValidationError(f"role {name!r} ({role.kind}): {exc}") from exc
    return df.built[name]


def _build_hopf(df, role, yd: _braided.YDModule | None = None) -> BialgebraData:
    """The bialgebra of a hopf_algebra role, or of a graded_yd_hopf role over
    its Yetter-Drinfeld structure ``yd``, with the bound antipode or else the
    solved one."""
    b = role.bindings
    space = df.space(b["space"])
    alg = AlgebraData(space, df.tensor_map(b["mul"]), df.tensor_map(b["unit"]))
    coalg = CoalgebraData(space, df.tensor_map(b["comul"]), df.tensor_map(b["counit"]))
    bound = df.tensor_map(b["antipode"]) if "antipode" in b else None
    hopf = BialgebraData(alg, coalg, bound, yd=yd)
    if bound is None:
        hopf.antipode = antipode(hopf)
    return hopf


def _build_yd(df, role) -> _braided.YDModule:
    b = role.bindings
    module = _braided.HModule(
        build(df, b["ambient"]), df.space(b["space"]), df.tensor_map(b["action"]))
    return _braided.YDModule(module, df.tensor_map(b["coaction"]))


def _build_graded(df, role) -> _lifting.GradedYDHopf:
    hopf = _build_hopf(df, role, _build_yd(df, role))
    _, grading = df.grades[role.bindings["grading"]]
    return _lifting.GradedYDHopf(hopf, grading)


def _algebra_over_hopf(df, b) -> tuple[BialgebraData, AlgebraData, _braided.HModule]:
    """The parts a measuring and a cleft extension share: the bialgebra of
    the ``hopf=`` binding (a hopf_algebra over the trivial ambient, or the one
    a graded_yd_hopf grades), the algebra on ``space=`` and its ambient
    carrier (trivial unless ``carrier_action=`` is bound)."""
    hopf = build(df, b["hopf"])
    if df.roles[b["hopf"]].kind == "graded_yd_hopf":
        hopf = hopf.hopf
    space = df.space(b["space"])
    algebra = AlgebraData(space, df.tensor_map(b["mul"]), df.tensor_map(b["unit"]))
    if "carrier_action" in b:
        carrier = _braided.HModule(hopf.ambient, space, df.tensor_map(b["carrier_action"]))
        return hopf, algebra, carrier
    return hopf, algebra, _braided.trivial_module(hopf.ambient, space)


def _build_measuring(df, role) -> _braided.Measuring:
    b = role.bindings
    hopf, algebra, carrier = _algebra_over_hopf(df, b)
    return _braided.Measuring(hopf, algebra, carrier, df.tensor_map(b["nu"]))


def _build_cleft(df, role):
    b = role.bindings
    hopf, algebra, carrier = _algebra_over_hopf(df, b)
    comod = _braided.ComoduleAlgebra(hopf, algebra, carrier, df.tensor_map(b["coaction"]))
    return _cleft.make_cleft(comod, df.tensor_map(b["section"]))


_BUILDERS = {
    "hopf_algebra": _build_hopf,
    "yd_module": _build_yd,
    "graded_yd_hopf": _build_graded,
    "measuring": _build_measuring,
    "cleft_extension": _build_cleft,
}


def graded_to_definition(g, ambient_name: str = "K", name: str = "R") -> DefinitionFile:
    """A graded braided Hopf algebra (with its ambient) as a definition file."""
    df = hopf_to_definition(g.ambient, ambient_name)
    df.grades[f"{name}_degrees"] = (g.space.name, dict(g.grading))
    maps = {key: getattr(g.hopf, key) for key in ("mul", "unit", "comul", "counit", "antipode")}
    maps.update(action=g.hopf.yd.module.action, coaction=g.hopf.yd.coaction)
    add_role(df, "graded_yd_hopf", name, g.space, maps,
             {"ambient": ambient_name, "grading": f"{name}_degrees"},
             over=df.space(df.roles[ambient_name].bindings["space"]))
    return df


def hopf_to_definition(h: BialgebraData, name: str = "H") -> DefinitionFile:
    """A classical Hopf algebra as a definition file with one hopf_algebra role.
    A composite carrier (a bosonization or its deformation) is written as the
    space ``name`` with dot-free labels, see ``file_space``."""
    space = file_space(h.space, name) if h.space.factors else h.space
    df = DefinitionFile(space.field)
    maps = {key: getattr(h, key) for key in ("mul", "unit", "comul", "counit", "antipode")}
    add_role(df, "hopf_algebra", name, space, maps, {})
    return df


def add_role(df: DefinitionFile, kind: str, name: str, space: BasedSpace,
             maps: dict[str, LinearMap | None], refs: dict[str, str] | None,
             over: BasedSpace | None = None):
    """Write ``space`` and each map of ``maps`` but None as the tensor NAME_KEY
    of the role its key binds in ``kind``, on ``space`` (after ``over`` for
    a role on two spaces), relabelling its entries. With ``refs``, the other
    bindings, also declare the role NAME."""
    df.spaces[space.name] = space
    keys = role_keys(kind)
    bindings = {"space": space.name}
    for key, f in maps.items():
        if f is None:
            continue
        role = keys[key][0]
        tensor = bindings[key] = f"{name}_{key}"
        spaces = (space,) if TENSOR_SHAPES[role][0] == 1 else (over, space)
        source, target = _role_shape(role, spaces, space.field)
        if (source.dim, target.dim) != (f.source.dim, f.target.dim):
            raise ShapeMismatch(f"tensor {tensor!r} does not have the shape of a {role}")
        df.tensors[tensor] = Tensor(tensor, role, tuple(s.name for s in spaces),
                                    LinearMap._from_raw(source, target, f.raw_entries()))
    if refs is not None:
        df.roles[name] = Role(kind, name, {**bindings, **refs})


def file_space(space: BasedSpace, name: str) -> BasedSpace:
    """``space`` renamed, with "_" for the tensor separator in its labels, so
    that a basis built from tensor products can be written to a file;
    ValidationError if two labels collide."""
    written: dict[str, str] = {}
    for lab in space.labels:
        flat = lab.replace(TENSOR_SEP, "_")
        if written.setdefault(flat, lab) != lab:
            raise ValidationError(
                f"labels {written[flat]!r} and {lab!r} of {space.name} are both written as {flat!r}")
    return BasedSpace(name, tuple(written), space.field)
