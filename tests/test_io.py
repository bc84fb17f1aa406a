import re
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfcleft.errors import ParseError, ValidationError
from hopfcleft.fields import FieldSpec
from hopfcleft.fixtures import cyclic_group_hopf, quantum_line, quantum_line_grading
from hopfcleft.hopf import BialgebraData, check_hopf
from hopfcleft.io import (
    ROLE_KINDS,
    _split_entries,
    TENSOR_SHAPES,
    build,
    graded_to_definition,
    hopf_to_definition,
    parse,
    role_keys,
    serialize,
)
from hopfcleft.lifting import GradedYDHopf, check_graded

DATA_FILES = ["kc2_q.had", "kc4_zeta4.had", "qline_kc2_f3.had", "qline_kc4_f5.had"]


def data_text(name):
    return resources.files("hopfcleft.data").joinpath(name).read_text()


@pytest.mark.parametrize("name", DATA_FILES)
def test_shipped_files_are_canonical(name):
    text = data_text(name)
    assert serialize(parse(text)) == text


def _qline_definition(p, n):
    line = quantum_line(cyclic_group_hopf(FieldSpec.prime_field(p), n))
    return graded_to_definition(GradedYDHopf(line, quantum_line_grading()), ambient_name=f"KC{n}")


GENERATED = {
    "kc2_q.had": lambda: hopf_to_definition(
        cyclic_group_hopf(FieldSpec.rationals(), 2), name="KC2"),
    "kc4_zeta4.had": lambda: hopf_to_definition(
        cyclic_group_hopf(FieldSpec.cyclotomic(4), 4), name="KC4"),
    "qline_kc2_f3.had": lambda: _qline_definition(3, 2),
    "qline_kc4_f5.had": lambda: _qline_definition(5, 4),
}


@pytest.mark.parametrize("name", DATA_FILES)
def test_generated_definitions_serialize_to_the_shipped_files(name):
    """Full-byte pin of serialize on definitions built from the fixtures,
    whose tensors add_role re-homes: each shipped file is the serialized
    definition of its fixture."""
    assert serialize(GENERATED[name]()) == data_text(name)


@pytest.mark.parametrize("name", DATA_FILES)
def test_every_shipped_role_builds_and_passes_checks(name):
    df = parse(data_text(name))
    for role_name, role in df.roles.items():
        obj = build(df, role_name)
        if role.kind == "hopf_algebra":
            assert check_hopf(obj).ok
        elif role.kind == "graded_yd_hopf":
            assert check_graded(obj).ok


def test_serialize_canonicalizes():
    messy = "\n".join([
        "field: F_5",
        "# comment lines and unsorted entries are normalized away",
        "space H: 1 g",
        "tensor Hmul mul@H: (g, g.1, 1)  (1, 1.1, 1) (g, 1.g, 1) (1, g.g, 1)",
    ])
    canon = serialize(parse(messy))
    assert canon == serialize(parse(canon))
    assert canon.splitlines()[0] == "field: F_5"
    assert "(1, 1.1, 1) (1, g.g, 1) (g, 1.g, 1) (g, g.1, 1)" in canon


def test_empty_file_with_field_is_valid():
    df = parse("field: Q\n")
    assert df.field == FieldSpec.rationals()
    assert not df.spaces and not df.tensors


@pytest.mark.parametrize("text,bad_line", [
    ("space H: 1 g", 1),                       # field must come first
    ("field: Q\nspace H: a a", 2),             # duplicate labels
    ("field: Q\nspace H: a.b", 2),             # dots are reserved for tensors
    ("field: F_4\n", 1),                       # not a prime
    ("field: Q\nspace H: 1 g\ntensor T mul@H: (a, b)", 3),  # wrong entry arity
    ("field: Q\ntensor T mul@H: (1, 1.1, 1)", 2),           # unknown space
    ("field: Q\nnonsense line here", 2),
    ("field: Q\nspace H: 1 g\ntensor T wat@H: (1, 1.1, 1)", 3),
    ("field: Q\n: foo", 2),                  # empty keyword
    ("field: F_1000000000000000003\n", 1),    # beyond the proven primality range
    ("field: Q(zeta_1000000007)\n", 1),       # cyclotomic index over the cap
    ("field: Q\nspace H: 1 g\ntensor T unit@H: (1, 1, 1e999999999)", 3),  # not a literal
    # Arabic-Indic digits, which int() reads: the format's digits are ASCII
    pytest.param("field: F_\u0665\n", 1, id="arabic-indic prime"),
    pytest.param("field: Q\nspace H: 1 g\ntensor T unit@H: (1, 1, \u0661/\u0662)", 3,
                 id="arabic-indic literal"),
    # every slot of a cyclotomic literal holds a rational literal
    *[pytest.param(data_text("kc4_zeta4.had").replace("(g, g3, [1, 0])", f"(g, g3, {lit})", 1),
                   3, id=f"kc4_zeta4 {lit}") for lit in ("[1,, 0]", "[,1]", "[1,]", "[,]")],
])
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == bad_line


@pytest.mark.parametrize("degrees,message", [
    ("1=0 x=1 x=2", "duplicate degree for label 'x'"),
    ("1=0 x=-1", "bad degree '-1'"),
    ("1=0 x=1_0", "bad degree '1_0'"),
    ("1=0 x=\u0661", "bad degree '\u0661'"),  # Arabic-Indic one, which int() reads
])
def test_a_degree_is_given_once_in_ascii_digits(degrees, message):
    text = data_text("qline_kc2_f3.had")
    assert "grade R_degrees@R: 1=0 x=1\n" in text
    with pytest.raises(ParseError) as exc:
        parse(text.replace("1=0 x=1", degrees, 1))
    assert str(exc.value) == f"line 4: {message}"


def test_a_large_space_parses_without_joining_its_products():
    """An entry's product labels are looked up one factor at a time, and a
    grade line's labels through the space's position dict, so a file that
    declares n labels costs about n, not n^2: joining the 9,000,000 labels
    of H (x) H here would take seconds and hundreds of megabytes. Writing
    the file back spells each entry's two labels from the factors, so it
    joins none either."""
    n = 3000
    labels = [f"a{k}" for k in range(n)]
    text = "\n".join([
        "field: F_5",
        "space H: " + " ".join(labels),
        "grade G@H: " + " ".join(f"{lab}=1" for lab in labels),
        f"tensor m mul@H: (a0, a0.a0, 1) (a1, a{n - 1}.a2, 3)",
    ])
    df = parse(text)
    m = df.tensors["m"].map
    assert m.source._labels is None
    assert m.raw_entries() == {(0, 0): 1, (1, (n - 1) * n + 2): 3}
    assert df.grades["G"] == ("H", dict.fromkeys(labels, 1))
    assert serialize(df) == text + "\n"
    assert m.source._labels is None


def test_unknown_label_in_entry_is_an_error():
    with pytest.raises(ParseError):
        parse("field: F_5\nspace H: 1 g\ntensor T unit@H: (h, 1, 1)")


def test_tensor_shape_is_validated():
    # a counit must map H to the ground field, so a 2-dim row label fails
    with pytest.raises(ParseError):
        parse("field: F_5\nspace H: 1 g\ntensor T counit@H: (g, 1, 1)")


def test_role_reference_validation():
    text = "\n".join([
        "field: F_5",
        "space H: 1 g",
        "tensor Hmul mul@H: (1, 1.1, 1) (g, 1.g, 1) (g, g.1, 1) (1, g.g, 1)",
        "tensor Hunit unit@H: (1, 1, 1)",
        "tensor Hcm comul@H: (1.1, 1, 1) (g.g, g, 1)",
        "tensor Hcu counit@H: (1, 1, 1) (1, g, 1)",
        "role yd_module V: ambient=Hmul space=H action=Hmul coaction=Hcm",
    ])
    with pytest.raises(ValidationError):
        parse(text)
    # ambient= must name a hopf_algebra role, not a role of another kind
    graded_ambient = data_text("qline_kc2_f3.had") + (
        "role yd_module V: action=R_action ambient=R coaction=R_coaction space=R\n")
    with pytest.raises(ValidationError, match=r"ambient='R' must be one of \('hopf_algebra',\)"):
        parse(graded_ambient)


def test_a_binding_must_name_a_tensor_of_its_role():
    text = data_text("qline_kc2_f3.had").replace("antipode=R_antipode", "antipode=KC2_mul")
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 18
    assert str(exc.value) == (
        "line 18: role 'R': antipode='KC2_mul' is a mul tensor, not an antipode")
    text = data_text("qline_kc2_f3.had").replace("mul=KC2_mul", "mul=R_action")
    with pytest.raises(ParseError, match=(
            r"^line 17: role 'KC2': mul='R_action' is an action tensor, not a mul$")):
        parse(text)


@pytest.mark.parametrize("old,new,message", [
    ("antipode=R_antipode", "antipode=R_nothing", "line 18: unknown tensor 'R_nothing'"),
    ("space=R", "space=S", "line 18: unknown space 'S'"),
    ("grading=R_degrees", "grading=G", "line 18: role 'R': unknown grade 'G'"),
    ("ambient=KC2", "ambient=K", "line 18: role 'R': unknown role 'K'"),
    ("ambient=KC2", "ambient=R",
     "line 18: role 'R': ambient='R' must be one of ('hopf_algebra',)"),
])
def test_binding_errors_carry_the_line_of_their_role(old, new, message):
    with pytest.raises(ValidationError) as exc:
        parse(data_text("qline_kc2_f3.had").replace(old, new))
    assert str(exc.value) == message


def test_missing_required_binding_rejected():
    with pytest.raises(ParseError):
        parse("field: Q\nspace H: 1\nrole hopf_algebra X: space=H")


def test_corrupt_but_well_shaped_structure_parses():
    # semantic failures belong to the check commands, not the parser
    text = "\n".join([
        "field: F_5",
        "space H: 1 g",
        "tensor Hmul mul@H: (1, 1.1, 1)",
        "tensor Hunit unit@H: (1, 1, 1)",
        "tensor Hcm comul@H: (1.1, 1, 1) (g.g, g, 1)",
        "tensor Hcu counit@H: (1, 1, 1) (1, g, 1)",
        "tensor HS antipode@H: (1, 1, 1) (g, g, 1)",
        "role hopf_algebra X: space=H mul=Hmul unit=Hunit comul=Hcm counit=Hcu antipode=HS",
    ])
    df = parse(text)
    obj = build(df, "X")
    assert not check_hopf(obj).ok


def test_a_failing_sigma_names_its_relation():
    """The cocycle check's first failure is printed with its relation and
    witness, never as an object address."""
    text = "\n".join([
        "field: Q",
        "space A: 1",
        "space H: 1 g",
        "tensor A_mul mul@A: (1, 1, 1)",
        "tensor A_unit unit@A: (1, 1, 1)",
        "tensor H_comul comul@H: (1.1, 1, 1) (g.g, g, 1)",
        "tensor H_counit counit@H: (1, 1, 1) (1, g, 1)",
        "tensor H_mul mul@H: (1, 1.1, 1) (1, g.g, 1) (g, 1.g, 1) (g, g.1, 1)",
        "tensor H_unit unit@H: (1, 1, 1)",
        "tensor M_nu measuring@H,A: (1, 1, 1) (1, g, 1)",
        "tensor SIG cocycle@H,A: (1, 1.1, 1) (1, 1.g, 2) (1, g.1, 1) (1, g.g, -1)",
        "role cocycle C: measuring=M sigma=SIG",
        "role hopf_algebra KC2: comul=H_comul counit=H_counit mul=H_mul space=H unit=H_unit",
        "role measuring M: hopf=KC2 mul=A_mul nu=M_nu space=A unit=A_unit",
    ])
    with pytest.raises(ValidationError) as exc:
        build(parse(text), "C")
    message = str(exc.value)
    assert message.startswith("role 'C': sigma fails the cocycle check (CheckItem(name='")
    assert re.search(r"name='\(\d+\) [^']+', ok=False, witness='at [^']+'\)\)$", message)
    assert "object at" not in message


def _readme_role_table() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## The definition-file format", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def _binds_cell(binds) -> str:
    if binds in ("space", "grade"):
        return f"a {binds}"
    if isinstance(binds, tuple):
        return " or ".join(f"`{kind}`" for kind in binds) + " role"
    return f"`{binds}` tensor"


def test_readme_role_table_is_the_schema():
    """The README's table of role keys is the io schema, row for row: each
    role kind's keys in order, what each binds and which are optional."""
    expected = [
        [f"`{kind}`", f"`{key}`", _binds_cell(binds), "optional" if optional else "required"]
        for kind in ROLE_KINDS for key, (binds, optional) in role_keys(kind).items()]
    assert _readme_role_table() == expected
    bound = {binds for kind in ROLE_KINDS for binds, _ in role_keys(kind).values()}
    assert set(TENSOR_SHAPES) - bound == {"map"}


def test_hopf_round_trip_through_definition(kc4_f5):
    df = hopf_to_definition(kc4_f5)
    again = parse(serialize(df))
    rebuilt = build(again, "H")
    assert isinstance(rebuilt, BialgebraData)
    assert rebuilt.mul == kc4_f5.mul
    assert rebuilt.antipode == kc4_f5.antipode


def test_graded_round_trip_through_definition(qline_f5):
    df = graded_to_definition(qline_f5)
    rebuilt = build(parse(serialize(df)), "R")
    assert isinstance(rebuilt, GradedYDHopf)
    assert rebuilt.hopf.mul == qline_f5.hopf.mul
    assert rebuilt.grading == qline_f5.grading


def test_cyclotomic_scalars_round_trip():
    text = data_text("kc4_zeta4.had")
    df = parse(text)
    assert df.field == FieldSpec.cyclotomic(4)
    assert serialize(df) == text


# fragments spliced into the shipped files by the parser fuzz
_FRAGMENTS = list(":@=,.()[]#/-_ ") + [
    "1", "g", "x", "0", "-1", "2/3", "[1, 0]", "F_", "Q", "space", "tensor", "role",
    "grade", "field", "1e999999999", "9" * 5000, "F_1000000000000000003",
    "Q(zeta_1000000007)", "\n"]


@st.composite
def _mutated_file(draw):
    """A shipped file with a few lines edited, dropped or repeated."""
    lines = data_text(draw(st.sampled_from(DATA_FILES))).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.sampled_from(range(len(lines))))
        line = lines[k]
        i = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(("insert", "delete", "truncate", "drop", "repeat")))
        if edit == "insert":
            lines[k] = line[:i] + draw(st.sampled_from(_FRAGMENTS)) + line[i:]
        elif edit == "delete":
            lines[k] = line[:i] + line[i + 1:]
        elif edit == "truncate":
            lines[k] = line[:i]
        elif edit == "drop":
            del lines[k]
        else:
            lines.insert(draw(st.sampled_from(range(len(lines) + 1))), line)
        if not lines:
            break
    return "\n".join(lines)


@settings(derandomize=True, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_file())
def test_parse_fuzz_fails_only_with_input_errors(text):
    try:
        df = parse(text)
    except (ParseError, ValidationError):
        return
    canon = serialize(df)
    assert serialize(parse(canon)) == canon


def _walk_entries(body: str, line_no: int) -> list[list[str]]:
    """The character walker that split tensor entries before the regex scan,
    kept as the reference of ``_split_entries``."""
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


_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_ENTRY_TEXT = st.lists(st.sampled_from(
    ["(", "[", "]", ",", " ", "g", "1.g", "x_1", "1", "-1/2", "[1, 0]"]), max_size=12).map("".join)
# entries with and without their ")", whitespace of every kind str.isspace
# accepts, and stray characters
_ENTRY_BODIES = st.lists(st.one_of(
    _ENTRY_TEXT.map(lambda text: f"({text})"), _ENTRY_TEXT.map(lambda text: f"({text}"),
    st.sampled_from(_WHITESPACE), st.sampled_from(["(", ")", "[", "]", ",", "g", "1"]),
), max_size=8).map("".join)


def _split_or_error(split, body):
    try:
        return split(body, 7)
    except ParseError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=400)
@given(_ENTRY_BODIES)
def test_split_entries_equals_the_character_walker(body):
    """Same token lists and the same two errors as the walker, on bodies of
    parentheses, brackets, commas, whitespace, labels and literals."""
    assert _split_or_error(_split_entries, body) == _split_or_error(_walk_entries, body)


def test_split_entries_examples():
    assert _split_entries(" (g, g3, [1, 0])\t(1, 1.1, -1/2) ", 1) == [
        ["g", "g3", "[1, 0]"], ["1", "1.1", "-1/2"]]
    # brackets count across the entry: a comma splits only at depth zero
    assert _split_entries("(a], [b, c)", 1) == [["a], [b", "c"]]
    assert _split_entries("((a, b)", 1) == [["(a", "b"]]
    for body, message in (("(a, b) c", "expected '('"), ("(a, b) (c", "unbalanced '('")):
        with pytest.raises(ParseError, match=rf"^line 4: {re.escape(message)} in tensor entries$"):
            _split_entries(body, 4)
