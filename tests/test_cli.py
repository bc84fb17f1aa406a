import ast
import hashlib
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from hopfcleft import cli, errors
from hopfcleft.cli import main

import hopfcleft

DATA_DIR = str(resources.files(hopfcleft).joinpath("data"))
QLINE_KC2_F3 = resources.files(hopfcleft).joinpath("data", "qline_kc2_f3.had").read_text()

CLASSICAL_COCYCLE = """\
field: Q
space A: 1
space H: 1 g
tensor A_mul mul@A: (1, 1, 1)
tensor A_unit unit@A: (1, 1, 1)
tensor H_antipode antipode@H: (1, 1, 1) (g, g, 1)
tensor H_comul comul@H: (1.1, 1, 1) (g.g, g, 1)
tensor H_counit counit@H: (1, 1, 1) (1, g, 1)
tensor H_mul mul@H: (1, 1.1, 1) (1, g.g, 1) (g, 1.g, 1) (g, g.1, 1)
tensor H_unit unit@H: (1, 1, 1)
tensor M_nu measuring@H,A: (1, 1, 1) (1, g, 1)
tensor SIG cocycle@H,A: (1, 1.1, 1) (1, 1.g, 1) (1, g.1, 1) (1, g.g, -1)
role cocycle C: measuring=M sigma=SIG
role hopf_algebra KC2: antipode=H_antipode comul=H_comul counit=H_counit mul=H_mul space=H unit=H_unit
role measuring M: hopf=KC2 mul=A_mul nu=M_nu space=A unit=A_unit
"""


# qline_kc2_f3.had with R relabelled a, a_1 and kC2 relabelled e, 1_e: the
# bosonization's labels a.1_e and a_1.e are both written as a_1_e
COLLIDING_LABELS = """\
field: F_3
space R: a a_1
space kC2: e 1_e
grade R_degrees@R: a=0 a_1=1
tensor KC2_antipode antipode@kC2: (e, e, 1) (1_e, 1_e, 1)
tensor KC2_comul comul@kC2: (e.e, e, 1) (1_e.1_e, 1_e, 1)
tensor KC2_counit counit@kC2: (1, e, 1) (1, 1_e, 1)
tensor KC2_mul mul@kC2: (e, e.e, 1) (e, 1_e.1_e, 1) (1_e, e.1_e, 1) (1_e, 1_e.e, 1)
tensor KC2_unit unit@kC2: (e, 1, 1)
tensor R_action action@kC2,R: (a, e.a, 1) (a, 1_e.a, 1) (a_1, e.a_1, 1) (a_1, 1_e.a_1, 2)
tensor R_antipode antipode@R: (a, a, 1) (a_1, a_1, 2)
tensor R_coaction coaction@kC2,R: (e.a, a, 1) (1_e.a_1, a_1, 1)
tensor R_comul comul@R: (a.a, a, 1) (a.a_1, a_1, 1) (a_1.a, a_1, 1)
tensor R_counit counit@R: (1, a, 1)
tensor R_mul mul@R: (a, a.a, 1) (a_1, a.a_1, 1) (a_1, a_1.a, 1)
tensor R_unit unit@R: (a, 1, 1)
role hopf_algebra KC2: antipode=KC2_antipode comul=KC2_comul counit=KC2_counit mul=KC2_mul space=kC2 unit=KC2_unit
role graded_yd_hopf R: action=R_action ambient=KC2 antipode=R_antipode coaction=R_coaction comul=R_comul counit=R_counit grading=R_degrees mul=R_mul space=R unit=R_unit
"""

# qline_kc2_f3.had with R's x relabelled g, so R is labelled 1 g like kC2:
# degrees are read off R's own factors, so this is the same graded input
RELABELLED_R = re.sub(r"\bx\b", "g", QLINE_KC2_F3)


@pytest.fixture(scope="module")
def cocycle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "classical_cocycle.had"
    path.write_text(CLASSICAL_COCYCLE)
    return str(path)


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_verify_hopf_passes_on_shipped_files(runner):
    for name in ("kc2_q.had", "kc4_zeta4.had", "qline_kc2_f3.had"):
        result = run(runner, ["verify-hopf", name, "--role", "KC2"]
                     if name == "qline_kc2_f3.had" else ["verify-hopf", name],
                     env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
        assert result.exit_code == 0, result.output


def test_verify_graded_role(runner):
    result = run(runner, ["verify-hopf", "qline_kc4_f5.had", "--role", "R"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output


def test_verify_yd(runner):
    result = run(runner, ["verify-yd", "qline_kc4_f5.had"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output


def test_json_reports_are_byte_deterministic(runner):
    digests = set()
    for _ in range(3):
        result = run(runner, ["verify-hopf", "qline_kc2_f3.had", "--role", "KC2",
                              "--report", "json"],
                     env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
        assert result.exit_code == 0
        digests.add(hashlib.sha256(result.output.encode()).hexdigest())
        payload = json.loads(result.output)
        assert payload["ok"] is True
        assert all(item["ok"] for item in payload["items"])
    assert len(digests) == 1


def test_verify_cocycle_passes(runner, cocycle_file):
    result = run(runner, ["verify-cocycle", cocycle_file])
    assert result.exit_code == 0, result.output


def test_corrupted_cocycle_fails_with_named_relation(runner, tmp_path, cocycle_file):
    # breaking sigma(1, g) keeps invertibility but kills the cocycle relations
    bad = CLASSICAL_COCYCLE.replace("(1, 1.g, 1)", "(1, 1.g, 2)")
    path = tmp_path / "bad.had"
    path.write_text(bad)
    result = run(runner, ["verify-cocycle", str(path)])
    assert result.exit_code == 1
    assert "(5)" in result.output or "(6)" in result.output or "(7)" in result.output


def test_parse_error_exits_2(runner, tmp_path):
    path = tmp_path / "broken.had"
    path.write_text("space H: 1 g\n")
    result = run(runner, ["verify-hopf", str(path)])
    assert result.exit_code == 2


# a declared space of 3,000 labels: its product with itself is never joined
LARGE_SPACE = "field: F_5\nspace H: " + " ".join(f"a{k}" for k in range(3000)) + "\n"


@pytest.mark.parametrize("text,message", [
    ("field: Q\n: foo\n", "line 2: missing line keyword"),
    ("field: F_1000000000000000003\n", "line 1: characteristic"),
    ("field: Q(zeta_1000000007)\n", "line 1: cyclotomic index"),
    # only ASCII digits are digits, though int() reads other scripts' too
    pytest.param("field: F_\u0665\n", "line 1: unknown field 'F_\u0665'",
                 id="arabic-indic prime"),
    pytest.param("field: Q(zeta_\u0664)\n", "line 1: unknown field 'Q(zeta_\u0664)'",
                 id="arabic-indic index"),
    pytest.param("field: Q\nspace H: 1 g\ntensor T unit@H: (g, 1, \u0661/\u0662)\n",
                 "line 3: bad scalar literal '\u0661/\u0662'", id="arabic-indic literal"),
    pytest.param(LARGE_SPACE + "tensor m mul@H: (a0, a0.a0, 1) (a1, a0.b1, 1)\n",
                 "line 3: unknown basis label in entry (a1, a0.b1)", id="large space"),
])
def test_malformed_line_exits_2_with_its_line_number(tmp_path, text, message):
    path = tmp_path / "malformed.had"
    path.write_text(text, encoding="utf-8")
    runner = _separate_streams_runner()
    result = runner.invoke(main, ["verify-hopf", str(path)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: {message}") and result.stderr.count("\n") == 1
    as_json = runner.invoke(main, ["verify-hopf", str(path), "--report", "json"])
    assert (as_json.exit_code, as_json.stderr) == (2, result.stderr)
    assert json.loads(as_json.stdout) == {"error": result.stderr.rstrip("\n"), "ok": False}


@pytest.mark.parametrize("literal", ["[1,, 0]", "[,1]", "[1,]", "[,]"])
def test_an_empty_slot_in_a_cyclotomic_literal_exits_2(tmp_path, literal):
    """An empty coefficient slot is a malformed literal, not a dropped zero
    or a shifted coefficient."""
    shipped = resources.files(hopfcleft).joinpath("data", "kc4_zeta4.had").read_text()
    path = tmp_path / "empty_slot.had"
    path.write_text(shipped.replace("(g, g3, [1, 0])", f"(g, g3, {literal})", 1))
    runner = _separate_streams_runner()
    text = runner.invoke(main, ["verify-hopf", str(path)])
    assert (text.exit_code, text.stdout) == (2, "")
    assert text.stderr == f"error: line 3: bad scalar literal {literal!r}\n"
    as_json = runner.invoke(main, ["verify-hopf", str(path), "--report", "json"])
    assert (as_json.exit_code, as_json.stderr) == (2, text.stderr)
    assert json.loads(as_json.stdout) == {"error": text.stderr.rstrip("\n"), "ok": False}


def test_a_file_that_is_not_utf8_exits_2_with_its_line_number(tmp_path):
    path = tmp_path / "bad.had"
    path.write_bytes(b"\xff\xfe")
    runner = _separate_streams_runner()
    result = runner.invoke(main, ["verify-hopf", str(path)])
    assert (result.exit_code, result.stdout, result.stderr) == (
        2, "", "error: line 1: not UTF-8 text\n")


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    """A file saved with a UTF-8 byte-order mark reads as the same file
    without one, and a bad byte later in it keeps its line number."""
    shipped = resources.files(hopfcleft).joinpath("data", "kc2_q.had").read_bytes()
    (tmp_path / "plain.had").write_bytes(shipped)
    (tmp_path / "marked.had").write_bytes(b"\xef\xbb\xbf" + shipped)
    (tmp_path / "bad.had").write_bytes(b"\xef\xbb\xbffield: Q\nspace H: 1\n\xff\n")
    runner = _separate_streams_runner()
    plain, marked, bad = (runner.invoke(main, ["verify-hopf", str(tmp_path / name)])
                          for name in ("plain.had", "marked.had", "bad.had"))
    assert (marked.exit_code, marked.stdout, marked.stderr) == (0, plain.stdout, "")
    assert (bad.exit_code, bad.stderr) == (2, "error: line 3: not UTF-8 text\n")


def test_missing_file_exits_2(runner):
    result = run(runner, ["verify-hopf", "no_such_file.had"])
    assert result.exit_code == 2


def test_verify_measuring(runner, cocycle_file):
    result = run(runner, ["verify-measuring", cocycle_file])
    assert result.exit_code == 0, result.output


def test_crossed_product_output_round_trips(runner, tmp_path, cocycle_file):
    out = tmp_path / "crossed.had"
    result = run(runner, ["crossed-product", cocycle_file, "--out", str(out)])
    assert result.exit_code == 0, result.output
    # the emitted cleft extension verifies and returns the cocycle values
    back = run(runner, ["cocycle-from-cleft", str(out)])
    assert back.exit_code == 0, back.output
    assert "sigma(g.g) = -1" in back.output
    coinv = run(runner, ["coinvariants", str(out)])
    assert coinv.exit_code == 0
    assert "dimension: 1" in coinv.output


# complete standard output of the commands that print map entries, as the
# reports stood when these pins were recorded
CLEFT_CHECKS = """\
  coaction coassociativity: pass
  coaction counitality: pass
  coaction is an algebra morphism: pass
  coaction of the unit: pass
  section is a comodule morphism: pass
  gamma * gamma_inv = unit: pass
  gamma_inv * gamma = unit: pass
  coaction of the inverse section: pass
  convolution invertible: pass
  (5) cocycle relation: pass
  (6) twisted action relation: pass
  (7) normalization: pass
  (9) twisted module condition: pass
  (10) inverse variant: pass
  (11) inverse variant: pass
  (12) sigma is unital on the left: pass
  (12) sigma is unital on the right: pass
  (13) sigma_inv is unital on the left: pass
  (13) sigma_inv is unital on the right: pass
"""
PINNED_STDOUT = {
    "cocycle-from-cleft": "cleft extension B over H:\n" + CLEFT_CHECKS + """\
coinvariants: eq(B) (dim 1)
sigma(1.1) = 1 e0
sigma(1.g) = 1 e0
sigma(g.1) = 1 e0
sigma(g.g) = -1 e0
""",
    "coinvariants": """\
coinvariants of B:
  coinvariants carry an induced algebra: pass
dimension: 1
e0 = 1 1
""",
    "kc2_q.had": """\
convolution inverse over kC2:
  two-sided convolution inverse exists: pass
1 -> 1 1
g -> 1 g
""",
    "kc4_zeta4.had": """\
convolution inverse over kC4:
  two-sided convolution inverse exists: pass
1 -> [1, 0] 1
g3 -> [1, 0] g
g2 -> [1, 0] g2
g -> [1, 0] g3
""",
}


@pytest.mark.parametrize("command", ["cocycle-from-cleft", "coinvariants"])
def test_cleft_entry_reports_are_pinned(runner, tmp_path, cocycle_file, command):
    out = tmp_path / "crossed.had"
    assert run(runner, ["crossed-product", cocycle_file, "--out", str(out)]).exit_code == 0
    result = run(runner, [command, str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout == PINNED_STDOUT[command]


@pytest.mark.parametrize("name", ["kc2_q.had", "kc4_zeta4.had"])
def test_convolution_inverse_report_is_pinned(runner, name):
    result = run(runner, ["convolution-inverse", name], env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output
    assert result.stdout == PINNED_STDOUT[name]


# a measuring over a graded Hopf algebra R on a one-dimensional algebra,
# with sigma = eps (x) eps; over the R of qline_kc2_f3.had, a braided cocycle
OVER_R = """\
space A: 1
tensor A_mul mul@A: (1, 1, 1)
tensor A_unit unit@A: (1, 1, 1)
tensor M_nu measuring@R,A: (1, 1, 1)
tensor SIG cocycle@R,A: (1, 1.1, 1)
role measuring M: hopf=R mul=A_mul nu=M_nu space=A unit=A_unit
role cocycle C: measuring=M sigma=SIG
"""
BRAIDED_COCYCLE = QLINE_KC2_F3 + OVER_R

# complete bytes of the --out files, as written when these pins were
# recorded: a cleft_extension role over a classical Hopf algebra, plain
# tensors over a nontrivial ambient
CLASSICAL_CROSSED_OUT = """\
field: Q
space B: 1 g
space H: 1 g
tensor B_coaction right_coaction@H,B: (1.1, 1, 1) (g.g, g, 1)
tensor B_mul mul@B: (1, 1.1, 1) (1, g.g, -1) (g, 1.g, 1) (g, g.1, 1)
tensor B_section section@H,B: (1, 1, 1) (g, g, 1)
tensor B_unit unit@B: (1, 1, 1)
tensor H_antipode antipode@H: (1, 1, 1) (g, g, 1)
tensor H_comul comul@H: (1.1, 1, 1) (g.g, g, 1)
tensor H_counit counit@H: (1, 1, 1) (1, g, 1)
tensor H_mul mul@H: (1, 1.1, 1) (1, g.g, 1) (g, 1.g, 1) (g, g.1, 1)
tensor H_unit unit@H: (1, 1, 1)
role cleft_extension B: coaction=B_coaction hopf=H mul=B_mul section=B_section space=B unit=B_unit
role hopf_algebra H: antipode=H_antipode comul=H_comul counit=H_counit mul=H_mul space=H unit=H_unit
"""
BRAIDED_CROSSED_OUT = """\
field: F_3
space B: 1 x
tensor B_mul mul@B: (1, 1.1, 1) (x, 1.x, 1) (x, x.1, 1)
tensor B_unit unit@B: (1, 1, 1)
"""
WRITTEN_FILES = {
    ("classical", "crossed-product"): CLASSICAL_CROSSED_OUT,
    ("classical", "cleft-from-cocycle"): CLASSICAL_CROSSED_OUT,
    # the smash product has the trivial cocycle: g * g = 1
    ("classical", "smash"): CLASSICAL_CROSSED_OUT.replace("(1, g.g, -1)", "(1, g.g, 1)"),
    ("braided", "crossed-product"): BRAIDED_CROSSED_OUT,
    ("braided", "cleft-from-cocycle"): BRAIDED_CROSSED_OUT,
    ("braided", "smash"): BRAIDED_CROSSED_OUT,
}


@pytest.mark.parametrize("source,command", list(WRITTEN_FILES))
def test_written_crossed_products_are_pinned(runner, tmp_path, source, command):
    path = tmp_path / "cocycle.had"
    path.write_text(CLASSICAL_COCYCLE if source == "classical" else BRAIDED_COCYCLE)
    out = tmp_path / "out.had"
    result = run(runner, [command, str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text() == WRITTEN_FILES[source, command]


def _tensors(text):
    """name -> (tensor role, spaces) for each tensor line of ``text``."""
    return {name: (role, spaces) for name, role, spaces in
            re.findall(r"^tensor (\S+) (\w+)@(\S+):", text, re.MULTILINE)}


def test_binding_matrix(runner, tmp_path):
    """Every tensor binding of qline_kc2_f3.had swapped for every other
    tensor of the file. A tensor of another role is refused at its role's
    line. Every tensor of the same role lives on other spaces there, and is
    refused at the same line; a same-role copy on the same spaces reaches
    the axiom checks and passes them."""
    lines = QLINE_KC2_F3.splitlines()
    tensors = _tensors(QLINE_KC2_F3)
    path = tmp_path / "swapped.had"
    swaps = 0
    for number, line in enumerate(lines, start=1):
        if not line.startswith("role "):
            continue
        role = line.split()[2].rstrip(":")
        for key, bound in re.findall(r"(\w+)=(\w+)", line):
            if bound not in tensors:
                continue
            copy = next(t for t in lines if t.startswith(f"tensor {bound} "))
            for other in [*tensors, "COPY"]:
                if other == bound:
                    continue
                text = QLINE_KC2_F3.replace(line, line.replace(f"{key}={bound}", f"{key}={other}"))
                path.write_text(text + copy.replace(bound, "COPY", 1) + "\n")
                result = _separate_streams_runner().invoke(
                    main, ["verify-hopf", str(path), "--role", role])
                swaps += 1
                if other == "COPY":
                    assert result.exit_code == 0, result.output
                    continue
                (found, lies_on), (want, on) = tensors[other], tensors[bound]
                assert result.exit_code == 2, (key, other)
                if found != want:
                    a, b = ("an" if w[0] in "aeio" else "a" for w in (found, want))
                    assert result.stderr == (
                        f"error: line {number}: role {role!r}: {key}={other!r} is {a} {found} "
                        f"tensor, not {b} {want}\n")
                else:
                    assert result.stderr == (
                        f"error: line {number}: role {role!r}: {key}={other!r} is on "
                        f"{lies_on}, not on {on}\n")
    assert swaps == 12 * 12


# three corruptions of R in qline_kc2_f3.had that keep the grading: each
# breaks a Hopf axiom in the Yetter-Drinfeld category
CORRUPTED_R = [
    ("(x, x, 2)", "(x, x, 1)", "id * S = unit", "at x -> x: 2 != 0"),
    (" (x.1, x, 1)", "", "right counit", "at x -> x: 0 != 1"),
    ("(x, g.x, 2)", "(x, g.x, 1)", "comul is an algebra morphism", "at x.x -> x.x: 0 != 2"),
]


@pytest.mark.parametrize("old,new,relation,witness", CORRUPTED_R)
def test_a_corrupt_graded_role_fails_verify_hopf_and_bosonize(tmp_path, old, new, relation, witness):
    assert old in QLINE_KC2_F3
    path = tmp_path / "corrupt.had"
    path.write_text(QLINE_KC2_F3.replace(old, new, 1))
    runner = _separate_streams_runner()
    result = runner.invoke(main, ["verify-hopf", str(path), "--role", "R"])
    assert result.exit_code == 1
    assert f"  {relation}: FAIL  [{witness}]\n" in result.stdout
    # bosonize reports the first failure of the same check, by name and witness
    result = runner.invoke(main, ["bosonize", str(path), "--role", "R"])
    assert result.exit_code == 1
    assert result.stderr == f"check failed: invalid graded input: {relation}: FAIL  [{witness}]\n"
    assert "object at" not in result.stderr


def test_a_product_of_the_wrong_degree_stops_bosonize(tmp_path):
    """x * x = 1 in the quantum line maps degree 2 to degree 0: bosonize
    ends with the failing grading report, before building anything."""
    old = "tensor R_mul mul@R: (1, 1.1, 1)"
    assert old in QLINE_KC2_F3
    path = tmp_path / "ungraded.had"
    path.write_text(QLINE_KC2_F3.replace(old, old + " (1, x.x, 1)", 1))
    result = _separate_streams_runner().invoke(main, ["bosonize", str(path)])
    assert (result.exit_code, result.stderr) == (1, "")
    assert result.stdout.startswith("grading on R:\n")
    assert "  multiplication is graded: FAIL  [1 <- x.x: 0 != 2]\n" in result.stdout
    assert "bosonization" not in result.stdout


def test_round_trip_command(runner, cocycle_file):
    result = run(runner, ["round-trip", cocycle_file])
    assert result.exit_code == 0, result.output


def test_bosonize_writes_a_hopf_file(runner, tmp_path):
    out = tmp_path / "boson.had"
    result = run(runner, ["bosonize", "qline_kc2_f3.had", "--out", str(out)],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output
    assert "bosonization: dim 4" in result.output
    again = run(runner, ["verify-hopf", str(out)])
    assert again.exit_code == 0, again.output


def test_out_with_colliding_written_labels_exits_2(runner, tmp_path):
    path = tmp_path / "colliding.had"
    path.write_text(COLLIDING_LABELS)
    assert run(runner, ["bosonize", str(path), "--role", "R"]).exit_code == 0
    for args in (["bosonize"], ["deform", "--sigma-index", "1"]):
        out = tmp_path / "out.had"
        result = run(runner, [*args, str(path), "--role", "R", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert ("error: labels 'a.1_e' and 'a_1.e' of (R*kC2) are both written as 'a_1_e'"
                in result.output)
        assert not out.exists()


def test_r_labelled_like_its_ambient_is_accepted(runner, tmp_path):
    assert "space R: 1 g\nspace kC2: 1 g\n" in RELABELLED_R
    path = tmp_path / "relabelled.had"
    path.write_text(RELABELLED_R)
    for command in ("verify-hopf", "bosonize"):
        result = run(runner, [command, str(path), "--role", "R"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
    result = run(runner, ["census", str(path)])
    assert result.exit_code == 0, result.output
    shipped = run(runner, ["census", "qline_kc2_f3.had"], env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.output == shipped.output


# qline_kc2_f3.had on kC2 alone: R's space dropped, x renamed g, and R's
# tensors, grade and space= moved onto kC2
R_ON_ITS_AMBIENT = re.sub(
    r"@(kC2,)?R\b", lambda m: "@kC2,kC2" if m[1] else "@kC2",
    RELABELLED_R.replace("space R: 1 g\n", "").replace("space=R", "space=kC2"))


def test_r_on_its_ambients_space_is_an_input_error(tmp_path):
    """Degrees are read off R's own tensor factors, so an R on its ambient's
    space would count every factor as R's: refused at its role's line."""
    assert "@R" not in R_ON_ITS_AMBIENT and "space R" not in R_ON_ITS_AMBIENT
    path = tmp_path / "r_on_kc2.had"
    path.write_text(R_ON_ITS_AMBIENT)
    runner = _separate_streams_runner()
    for command in ("bosonize", "verify-hopf"):
        result = runner.invoke(main, [command, str(path), "--role", "R"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == (
            "error: line 17: role 'R': space='kC2' is the space of its ambient 'KC2'; "
            "R needs a space of its own\n")


# qline_kc2_f3.had with R graded by a grade declared on kC2
GRADED_ON_KC2 = QLINE_KC2_F3.replace(
    "grade R_degrees@R: 1=0 x=1\n", "grade R_degrees@R: 1=0 x=1\ngrade H_degrees@kC2: 1=0 g=1\n"
).replace("grading=R_degrees", "grading=H_degrees")


def test_a_grading_on_another_space_is_an_input_error(tmp_path):
    """R's degrees are read off R's labels, so a grading= that names a grade
    on the ambient's space is refused at R's line, not left to fail on the
    first label it lacks."""
    assert "grading=H_degrees" in GRADED_ON_KC2
    path = tmp_path / "graded_on_kc2.had"
    path.write_text(GRADED_ON_KC2)
    runner = _separate_streams_runner()
    for command in ("verify-hopf", "bosonize", "census", "phi-inverse"):
        result = runner.invoke(main, [command, str(path), "--role", "R"])
        assert (result.exit_code, result.stdout) == (2, ""), result.stderr
        assert result.stderr == (
            "error: line 19: role 'R': grading='H_degrees' is on kC2, not on R\n")


def test_sigma_on_other_spaces_is_refused_at_its_role(tmp_path):
    """sigma lies on the spaces of its measuring's hopf= and space=; A2 has
    A's labels, which the cocycle constructor's shape check accepted."""
    text = CLASSICAL_COCYCLE.replace("space H: 1 g\n", "space H: 1 g\nspace A2: 1\n")
    path = tmp_path / "lookalike.had"
    path.write_text(text.replace("SIG cocycle@H,A:", "SIG cocycle@H,A2:"))
    result = _separate_streams_runner().invoke(main, ["verify-cocycle", str(path)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: line 14: role 'C': sigma='SIG' is on H,A2, not on H,A\n"


def test_phi_inverse_and_gr_check(runner):
    env = {"HOPFCLEFT_FIXTURE_DIR": DATA_DIR}
    for idx in range(3):
        result = run(runner, ["phi-inverse", "qline_kc2_f3.had",
                              "--sigma-index", str(idx)], env=env)
        assert result.exit_code == 0, result.output
    result = run(runner, ["gr-check", "qline_kc2_f3.had", "--sigma-index", "2"], env=env)
    assert result.exit_code == 0, result.output


# a second graded role R2: qline_kc2_f3.had's R with its own space and tensors
SECOND_R = "".join(
    re.sub(r"\bR(?=_|\b)", "R2", line) + "\n" for line in QLINE_KC2_F3.splitlines()
    if re.match(r"(space R:|grade R_|tensor R_|role graded_yd_hopf R:)", line))


def test_phi_extends_over_the_role_its_cocycle_is_on(runner, tmp_path):
    """phi bosonizes the role that the cocycle's measuring binds as hopf=,
    so a second graded role changes nothing; a cocycle over a hopf_algebra
    role is not on a braided factor."""
    assert SECOND_R.count("\n") == 10 and not re.search(r"\bR\b|\bR_", SECOND_R)
    one, two, classical = tmp_path / "one.had", tmp_path / "two.had", tmp_path / "h.had"
    one.write_text(BRAIDED_COCYCLE)
    two.write_text(BRAIDED_COCYCLE + SECOND_R)
    classical.write_text(CLASSICAL_COCYCLE)
    expected = run(runner, ["phi", str(one)])
    result = run(runner, ["phi", str(two), "--role", "C"])
    assert expected.exit_code == result.exit_code == 0, result.output
    assert result.stdout == expected.stdout
    # the role kind is refused before any check, even of a failing cocycle
    broken = tmp_path / "broken.had"
    broken.write_text(CLASSICAL_COCYCLE.replace(
        "(1, 1.1, 1) (1, 1.g, 1)", "(1, 1.1, 1) (1, 1.g, 2)", 1))
    assert run(runner, ["verify-cocycle", str(broken)]).exit_code == 1
    for path in (classical, broken):
        result = _separate_streams_runner().invoke(main, ["phi", str(path)])
        assert (result.exit_code, result.stderr) == (
            2, "error: pi must be a cocycle on the braided factor\n")


CORRUPT_AMBIENT_UNIT = ("tensor KC2_unit unit@kC2: (1, 1, 1)", "tensor KC2_unit unit@kC2: (1, 1, 2)")


@pytest.mark.parametrize("command,role", [
    ("verify-cocycle", "C"), ("crossed-product", "C"), ("cleft-from-cocycle", "C"),
    ("round-trip", "C"), ("phi", "C"), ("smash", "M"), ("verify-measuring", "M"),
    ("verify-hopf", "R"), ("oracle", "M"), ("oracle", "R"), ("verify-yd", "R"),
    ("bosonize", "R"), ("census", "R"), ("phi-inverse", "R"), ("psi", "R"), ("deform", "R"),
    ("gr-check", "R")])
def test_a_cocycle_command_checks_the_ambient_of_its_measuring(runner, tmp_path, command, role):
    """The cocycle and measuring relations, and R's own axioms, hold over an
    ambient whose unit is corrupt; every command on a role that rests on
    the ambient, a sweep included, ends with the ambient's failing report."""
    path = tmp_path / "corrupt.had"
    path.write_text(BRAIDED_COCYCLE.replace(*CORRUPT_AMBIENT_UNIT, 1))
    result = run(runner, [command, str(path), "--role", role])
    assert result.exit_code == 1, result.output
    assert result.stdout.startswith("Hopf algebra on kC2:\n")
    assert "  left unit: FAIL  [at 1 -> 1: 2 != 1]\n" in result.stdout


@pytest.mark.parametrize("corruptions,first,failing", [
    # sigma's normalization and the ambient's unit: the ambient comes first
    ((("tensor SIG cocycle@R,A: (1, 1.1, 1)", "tensor SIG cocycle@R,A: (1, 1.1, 2)"),
      CORRUPT_AMBIENT_UNIT), "Hopf algebra on kC2:", "left unit: FAIL  [at 1 -> 1: 2 != 1]"),
    # nu: the measuring relations come before the cocycle's
    ((("tensor M_nu measuring@R,A: (1, 1, 1)", "tensor M_nu measuring@R,A: (1, 1, 2)"),),
     "measuring on R with carrier A:", "(1) unit of H acts as identity: FAIL  [at 1 -> 1: 2 != 1]"),
], ids=["sigma-and-ambient", "nu"])
def test_verify_cocycle_reports_the_first_premise_that_fails(tmp_path, corruptions, first, failing):
    """A cocycle rests on the ambient, R, A and the measuring relations, in
    that order: the first of them that fails is the report, never sigma's."""
    text = BRAIDED_COCYCLE
    for old, new in corruptions:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "corrupt.had"
    path.write_text(text)
    result = _separate_streams_runner().invoke(main, ["verify-cocycle", str(path)])
    assert (result.exit_code, result.stderr) == (1, "")
    assert result.stdout.startswith(f"{first}\n")
    assert f"  {failing}\n" in result.stdout
    assert "cocycle check" not in result.stdout


# qline_kc4_f5.had with g^2 acting on x by 2 while g.(g.x) = x, so R is no
# ambient module, and a measuring and cocycle over R
NOT_YD = resources.files(hopfcleft).joinpath("data", "qline_kc4_f5.had").read_text().replace(
    "(x, g2.x, 1)", "(x, g2.x, 2)", 1) + OVER_R
NOT_YD_FAILURE = "action of a product: FAIL  [at g.g.x -> x: 2 != 1]"


@pytest.mark.parametrize("command,role", [
    ("verify-hopf", "R"), ("bosonize", "R"), ("census", "R"), ("gr-check", "R"),
    ("verify-measuring", "M"), ("verify-cocycle", "C"), ("crossed-product", "C"),
    ("cleft-from-cocycle", "C"), ("round-trip", "C"), ("smash", "M"), ("phi", "C"),
    ("oracle", "M")])
def test_every_route_judges_r_by_its_whole_definition(tmp_path, command, role):
    """R that is no Yetter-Drinfeld module is refused by R's one definition,
    whichever command reaches it: a report names the failing module axiom
    on stdout, and the bosonization names it as its invalid input."""
    assert NOT_YD.count("(x, g2.x, 2)") == 1 and "role cocycle C: measuring=M" in NOT_YD
    path = tmp_path / "not-yd.had"
    path.write_text(NOT_YD)
    result = _separate_streams_runner().invoke(main, [command, str(path), "--role", role])
    assert result.exit_code == 1, result.output
    if command in ("bosonize", "census", "gr-check"):
        assert (result.stdout, result.stderr) == (
            "", f"check failed: invalid graded input: {NOT_YD_FAILURE}\n")
    else:
        assert result.stderr == ""
        assert result.stdout.startswith("Hopf algebra on R in the Yetter-Drinfeld category:\n")
        assert f"  {NOT_YD_FAILURE}\n" in result.stdout


def test_verify_yd_reports_the_module_that_is_not_yetter_drinfeld(tmp_path):
    path = tmp_path / "not-yd.had"
    path.write_text(NOT_YD)
    result = _separate_streams_runner().invoke(main, ["verify-yd", str(path), "--role", "R"])
    assert (result.exit_code, result.stderr) == (1, "")
    assert result.stdout.startswith(f"Yetter-Drinfeld module R:\n  {NOT_YD_FAILURE}\n")


@pytest.mark.parametrize("text,nu,hopf", [
    (BRAIDED_COCYCLE, "tensor M_nu measuring@R,A: (1, 1, ", "R"),
    (CLASSICAL_COCYCLE, "tensor M_nu measuring@H,A: (1, 1, 1) (1, g, ", "H"),
], ids=["braided", "classical"])
def test_smash_checks_the_measuring_before_its_trivial_cocycle(tmp_path, text, nu, hopf):
    """smash's trivial cocycle rests on the measuring relations like any
    other cocycle: a measuring that fails (2) is reported as the measuring's
    failure, never as a failed cocycle relation, just as verify-cocycle does."""
    assert text.count(nu + "1)\n") == 1
    path = tmp_path / "bad-nu.had"
    path.write_text(text.replace(nu + "1)\n", nu + "2)\n", 1))
    for command, role in (("smash", "M"), ("verify-cocycle", "C")):
        result = _separate_streams_runner().invoke(main, [command, str(path), "--role", role])
        assert (result.exit_code, result.stderr) == (1, ""), result.output
        assert result.stdout.startswith(f"measuring on {hopf} with carrier A:\n")
        assert "  (2) measures the unit of A: FAIL" in result.stdout
        assert "cocycle check" not in result.stdout


def test_oracle_names_a_missing_role(runner):
    result = _separate_streams_runner().invoke(
        main, ["oracle", "kc2_q.had", "--role", "NOPE"], env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: no role named 'NOPE' in the file\n"


def test_oracle_names_a_role_of_a_kind_it_cannot_sweep(cocycle_file):
    result = _separate_streams_runner().invoke(main, ["oracle", cocycle_file, "--role", "C"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == ("error: role 'C' has kind 'cocycle', expected one of "
                             "('hopf_algebra', 'measuring', 'graded_yd_hopf')\n")


def test_sigma_index_out_of_range_exits_2(runner):
    result = run(runner, ["gr-check", "qline_kc2_f3.had", "--sigma-index", "9"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 2


def test_sigma_index_sweep_stops_at_the_selected_cocycle(runner, monkeypatch):
    """kC4/F_5 has five restricted cocycles: a command fully checks only the
    selected one on the bosonization, and none for an index out of range,
    whose message keeps the count."""
    from hopfcleft import lifting

    checked = []
    original = lifting._check_zprime
    monkeypatch.setattr(lifting, "_check_zprime", lambda b, s: checked.append(s) or original(b, s))
    env = {"HOPFCLEFT_FIXTURE_DIR": DATA_DIR}
    for index in ("0", "4"):
        checked.clear()
        result = run(runner, ["phi-inverse", "qline_kc4_f5.had", "--sigma-index", index], env=env)
        assert result.exit_code == 0, result.output
        assert len(checked) == 1
    for index in ("5", "-1"):
        checked.clear()
        result = run(runner, ["phi-inverse", "qline_kc4_f5.had", "--sigma-index", index],
                     env=env)
        assert result.exit_code == 2
        assert result.output == (
            f"error: --sigma-index {index} out of range; 5 restricted cocycles exist\n")
        assert not checked


def test_psi_command(runner):
    result = run(runner, ["psi", "qline_kc2_f3.had", "--sigma-index", "1"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output


def test_psi_checks_the_section_condition_once(runner, monkeypatch):
    """The report lists the section conditions twice, from one check."""
    from hopfcleft import cli, lifting

    calls = []
    original = lifting.check_cprime_section

    def counted(b, ce):
        calls.append(ce)
        return original(b, ce)

    # count the calls made from either module
    monkeypatch.setattr(lifting, "check_cprime_section", counted)
    monkeypatch.setattr(cli, "check_cprime_section", counted, raising=False)
    result = run(runner, ["psi", "qline_kc2_f3.had", "--sigma-index", "1"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    assert result.output.count(
        "  (9) section is multiplicative against the group part: pass\n") == 2


def _calls(monkeypatch, module, name):
    """The argument tuples of every call of ``module.name``, made from any
    package module that imported it."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, imported in list(sys.modules.items()):
        if module_name.startswith("hopfcleft") and getattr(imported, name, None) is original:
            monkeypatch.setattr(imported, name, counted)
    return calls


@pytest.mark.parametrize("args,expected", [
    # K, R and M built once each; R's definition (it begins with check_yd)
    # computed once; check_hopf on K, on R and on the bosonization
    (["phi", "braided_cocycle.had", "--role", "C"],
     {"built": ["KC2", "M", "R"], "check_yd": 1, "check_hopf": 3}),
    # 2n: the braided cocycles on R, then one check_zprime verdict per
    # restricted cocycle, shared by the extension, the sweep and the section
    (["census", "qline_kc2_f3.had"], {"check_cocycle": 6}),
    (["census", "qline_kc4_f5.had"], {"check_cocycle": 10}),
    # three on R, then the selected extension: the R-cleft object comes from
    # the selected braided cocycle, not from restricting its extension again
    (["psi", "qline_kc2_f3.had", "--sigma-index", "1"], {"check_cocycle": 4}),
    (["bosonize", "qline_kc2_f3.had"], {"check_graded": 1}),
], ids=["phi", "census-kc2-f3", "census-kc4-f5", "psi", "bosonize"])
def test_a_command_builds_each_role_once_and_judges_each_structure_once(
        runner, tmp_path, monkeypatch, args, expected):
    from hopfcleft import braided, cocycle, hopf, io, lifting

    path = tmp_path / "braided_cocycle.had"
    path.write_text(BRAIDED_COCYCLE)
    built = []
    for kind, builder in list(io._BUILDERS.items()):
        monkeypatch.setitem(io._BUILDERS, kind,
                            lambda df, role, builder=builder: built.append(role.name)
                            or builder(df, role))
    calls = {name: _calls(monkeypatch, module, name) for module, name in (
        (braided, "check_yd"), (hopf, "check_hopf"), (cocycle, "check_cocycle"),
        (lifting, "check_graded"))}
    result = run(runner, [str(path) if a == path.name else a for a in args],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output
    counts = {"built": sorted(built), **{name: len(c) for name, c in calls.items()}}
    assert {key: counts[key] for key in expected} == expected


def test_the_section_route_keeps_its_tripwires(runner, tmp_path, monkeypatch):
    """The section cocycle of psi is checked only through check_zprime: one
    that differs from the extension gets its own full check (a cache miss),
    a closed-form inverse that disagrees is a violated theorem, and
    cocycle-from-cleft still checks its section cocycle with check_cocycle."""
    from make_cli_digests import CLASSICAL_CLEFT

    from hopfcleft import cleft, lifting

    env = {"HOPFCLEFT_FIXTURE_DIR": DATA_DIR}
    args = ["psi", "qline_kc2_f3.had", "--sigma-index", "1"]
    section_cocycle = cleft.section_cocycle
    checked = []
    original = lifting._check_zprime
    monkeypatch.setattr(lifting, "_check_zprime", lambda b, s: checked.append(s) or original(b, s))

    def doubled(which):
        def patched(ce):
            parts = list(section_cocycle(ce))
            parts[which] = parts[which] + parts[which]
            return tuple(parts)
        return patched

    assert run(runner, args, env=env).exit_code == 0
    assert len(checked) == 1  # the extension's verdict, shared by the section cocycle
    checked.clear()
    monkeypatch.setattr(cleft, "section_cocycle", doubled(1))
    result = run(runner, args, env=env)
    assert result.exit_code != 0
    assert len(checked) == 2 and checked[1] != checked[0]
    monkeypatch.setattr(cleft, "section_cocycle", doubled(2))
    result = run(runner, args, env=env)
    assert result.exit_code == 3
    assert ("internal error: theorem violated: closed-form inverse of the section cocycle "
            "disagrees\n" in result.output)
    monkeypatch.setattr(cleft, "section_cocycle", section_cocycle)
    calls = _calls(monkeypatch, cleft, "check_cocycle")
    path = tmp_path / "classical_cleft.had"
    path.write_text(CLASSICAL_CLEFT)
    result = run(runner, ["cocycle-from-cleft", str(path)])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_smash_checks_the_cocycle_once(runner, tmp_path, monkeypatch):
    """The smash product is built from the trivial cocycle the report
    checked, not from a second check of it."""
    from hopfcleft import cocycle

    calls = _calls(monkeypatch, cocycle, "check_cocycle")
    path = tmp_path / "cocycle.had"
    path.write_text(CLASSICAL_COCYCLE)
    result = run(runner, ["smash", str(path)])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_census_f3(runner):
    result = run(runner, ["census", "qline_kc2_f3.had"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output
    assert "restricted cocycles: 3" in result.output
    assert "class 0: cocycle indices [0]" in result.output


def test_oracle_command(runner):
    result = run(runner, ["oracle", "qline_kc2_f3.had"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output
    assert "3 restricted cocycles" in result.output


def test_oracle_bound_too_small_exits_2(runner):
    result = run(runner, ["oracle", "qline_kc2_f3.had", "--bound", "2"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["oracle", "census", "gr-check"])
@pytest.mark.parametrize("bound", ["0", "-5"])
def test_non_positive_bound_is_a_usage_error(runner, command, bound):
    result = run(runner, [command, "qline_kc2_f3.had", "--bound", bound],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 2
    assert "Invalid value for '--bound'" in result.output
    assert "candidates exceed" not in result.output


def test_convolution_inverse_prints_antipode(runner):
    result = run(runner, ["convolution-inverse", "kc2_q.had"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output
    assert "g -> 1 g" in result.output


def test_deform_writes_a_verified_hopf_file(runner, tmp_path):
    out = tmp_path / "deformed.had"
    result = run(runner, ["deform", "qline_kc4_f5.had", "--sigma-index", "2",
                          "--out", str(out)],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 0, result.output
    again = run(runner, ["verify-hopf", str(out)])
    assert again.exit_code == 0, again.output


def test_theorem_violation_exits_3(runner, monkeypatch):
    """A failed proved identity is a bug, reported apart from a failed check."""
    from hopfcleft import lifting
    from hopfcleft.report import CheckItem, CheckReport

    def broken_equivariance(g, f):
        report = CheckReport("equivariance")
        report.add(CheckItem("equivariance", False, "forced"))
        return report

    original = lifting.phi

    def phi_then_break(b, pi):
        # the sweep and phi hold equivariance; the restriction then loses it
        s = original(b, pi)
        monkeypatch.setattr(lifting, "check_equivariant_pair", broken_equivariance)
        return s

    monkeypatch.setattr(lifting, "phi", phi_then_break)
    result = run(runner, ["phi-inverse", "qline_kc2_f3.had", "--sigma-index", "1"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 3
    assert ("internal error: theorem violated: restricted cocycle lost ambient equivariance: "
            "equivariance: FAIL  [forced]\n" in result.output)
    assert "check failed" not in result.output


def test_theorem_violation_inside_a_builder_exits_3(runner, monkeypatch):
    """io.build wraps bad input as a validation error (exit 2), but a theorem
    violated while building is still a bug (exit 3)."""
    from hopfcleft import io
    from hopfcleft.errors import TheoremViolation

    def broken(df, role):
        raise TheoremViolation("forced in a builder")

    monkeypatch.setitem(io._BUILDERS, "hopf_algebra", broken)
    result = run(runner, ["verify-hopf", "kc2_q.had"], env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 3, result.output
    assert "internal error: theorem violated: forced in a builder" in result.output
    assert "error: role" not in result.output


def test_internal_error_in_a_factorization_is_not_a_failed_check(
        runner, tmp_path, cocycle_file, monkeypatch):
    from hopfcleft import cleft
    from hopfcleft.errors import ShapeMismatch

    out = tmp_path / "crossed.had"
    assert run(runner, ["crossed-product", cocycle_file, "--out", str(out)]).exit_code == 0

    def broken(iota, g):
        raise ShapeMismatch("forced")

    monkeypatch.setattr(cleft, "solve_linear", broken)
    result = run(runner, ["cocycle-from-cleft", str(out)])
    assert result.exit_code == 2
    assert "check failed" not in result.output
    assert "forced" in result.output


def test_a_failed_closed_form_section_exits_3(runner, tmp_path, cocycle_file, monkeypatch):
    """The canonical section's closed-form inverse is a theorem: its failure
    is an internal error (exit 3), not a failed check."""
    from hopfcleft import cleft
    from hopfcleft.linalg import LinearMap

    monkeypatch.setattr(cleft, "convolution", lambda f, g, c, a: LinearMap(c.space, a.space, {}))
    out = tmp_path / "crossed.had"
    result = run(runner, ["crossed-product", cocycle_file, "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert ("internal error: theorem violated: closed-form inverse section fails on the right"
            in result.output)
    assert "check failed" not in result.output and not out.exists()


# where each error class of the package sends a command: 1 for a failed
# check, 3 for a violated theorem, 2 for bad input; a new class is placed here
EXIT_CODES = {
    "HopfcleftError": 2, "CheckFailure": 1, "FieldMismatch": 2, "DivisionByZero": 2,
    "ShapeMismatch": 2, "NoSolution": 2, "NotInvertible": 1, "AxiomFailure": 1,
    "FactorizationFailure": 1, "TheoremViolation": 3, "SearchSpaceTooLarge": 2,
    "ParseError": 2, "ValidationError": 2,
}
PREFIXES = {1: "check failed: ", 2: "error: ", 3: "internal error: theorem violated: "}


def test_every_error_class_has_an_exit_code():
    assert sorted(EXIT_CODES) == sorted(
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.HopfcleftError))


@pytest.mark.parametrize("name,code", list(EXIT_CODES.items()))
def test_an_errors_class_decides_its_exit_code(monkeypatch, name, code):
    """Raised in a command body, outside io.build (which wraps what its
    builders raise as a ValidationError), an error exits by its class."""
    cls = getattr(errors, name)
    assert code == (1 if issubclass(cls, errors.CheckFailure) else
                    3 if issubclass(cls, errors.TheoremViolation) else 2)

    def raising(*args):
        raise cls("forced")

    monkeypatch.setattr(cli, "_find_role", raising)
    runner = _separate_streams_runner()
    shipped = os.path.join(DATA_DIR, "kc2_q.had")
    text = runner.invoke(main, ["verify-hopf", shipped])
    assert (text.exit_code, text.stdout, text.stderr) == (code, "", f"{PREFIXES[code]}forced\n")
    as_json = runner.invoke(main, ["verify-hopf", shipped, "--report", "json"])
    assert (as_json.exit_code, json.loads(as_json.stdout)) == (
        code, {"error": f"{PREFIXES[code]}forced", "ok": False})


def test_coinvariants_that_are_not_a_subalgebra_fail_a_check(tmp_path):
    """B = Q[x]/(x^3), graded by C2 with x^2 in degree g: the coinvariants
    span{1, x} carry no induced product, a failed check of the input."""
    from make_cli_digests import NOT_A_SUBALGEBRA

    path = tmp_path / "not_a_subalgebra.had"
    path.write_text(NOT_A_SUBALGEBRA)
    result = _separate_streams_runner().invoke(main, ["coinvariants", str(path)])
    assert (result.exit_code, result.stdout, result.stderr) == (
        1, "", "check failed: induced structure does not factor through the coinvariants\n")


def test_coinvariants_check_the_hopf_algebra_first(tmp_path):
    """A wrong antipode leaves the coinvariants and the section's cocycle
    computable; both commands on a cleft extension rest on the Hopf axioms,
    so they end with their failing report."""
    from make_cli_digests import CLASSICAL_CLEFT

    old = "tensor H_antipode antipode@H: (1, 1, 1) (g, g, 1)"
    assert old in CLASSICAL_CLEFT
    path = tmp_path / "wrong_antipode.had"
    path.write_text(CLASSICAL_CLEFT.replace(old, old[:-2] + "2)", 1))
    for command in ("coinvariants", "cocycle-from-cleft"):
        result = _separate_streams_runner().invoke(main, [command, str(path)])
        assert (result.exit_code, result.stderr) == (1, ""), command
        assert result.stdout.startswith("Hopf algebra on H:\n")
        assert "  id * S = unit: FAIL  [at g -> 1: 2 != 1]\n" in result.stdout


def test_cleft_from_cocycle_builds_the_crossed_product_once(runner, tmp_path, cocycle_file,
                                                            monkeypatch):
    import hopfcleft.cocycle

    calls = _calls(monkeypatch, hopfcleft.cocycle, "crossed_product")
    out = tmp_path / "cleft.had"
    result = run(runner, ["cleft-from-cocycle", cocycle_file, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


@pytest.mark.parametrize("report", [["--report", "json"], ["--report=json"]])
def test_a_usage_error_under_a_json_report_prints_its_error_object(report):
    """Click's own usage errors keep their stderr text and exit 2; asked
    for a JSON report, they also print the JSON error object on stdout."""
    runner = _separate_streams_runner()
    args = ["census", "qline_kc2_f3.had", "--bound", "0"]
    env = {"HOPFCLEFT_FIXTURE_DIR": DATA_DIR}
    text = runner.invoke(main, args, env=env)
    result = runner.invoke(main, [*args, *report], env=env)
    message = "Invalid value for '--bound': 0 is not in the range x>=1."
    assert (text.exit_code, text.stdout) == (2, "")
    assert text.stderr.endswith(f"Error: {message}\n")
    assert (result.exit_code, result.stderr) == (2, text.stderr)
    assert result.stdout == json.dumps(
        {"error": f"error: {message}", "ok": False}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("first,last", [
    (["--report", "json"], ["--report", "text"]),
    (["--report", "text"], ["--report", "json"]),
    (["--report=json"], ["--report=text"]),
    (["--report=text"], ["--report=json"]),
    (["--report", "json"], ["--report=text"]),
    (["--report=text"], ["--report", "json"]),
])
def test_a_usage_error_prints_the_error_object_only_when_the_last_report_is_json(first, last):
    """argparse keeps the last --report, and so does the error object."""
    runner = _separate_streams_runner()
    args = ["census", "qline_kc2_f3.had", *first, *last, "--bound", "0"]
    result = runner.invoke(main, args, env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    message = "error: Invalid value for '--bound': 0 is not in the range x>=1."
    assert result.exit_code == 2
    assert result.stderr.endswith(f"\nError: {message[7:]}\n")
    if last[-1].endswith("json"):
        assert json.loads(result.stdout) == {"error": message, "ok": False}
    else:
        assert result.stdout == ""


@pytest.mark.parametrize("args,message", [
    (["census", "qline_kc2_f3.had", "--foo"], "No such option '--foo'."),
    (["census"], "Missing argument 'FILE'."),
    (["census", "qline_kc2_f3.had", "--report", "xml"],
     "Invalid value for '--report': 'xml' is not one of 'text', 'json'."),
    (["psi", "qline_kc2_f3.had", "--sigma-index", "x"],
     "Invalid value for '--sigma-index': 'x' is not a valid integer."),
    (["census", "qline_kc2_f3.had", "--bou", "5"], "No such option '--bou'."),
    (["census", "qline_kc2_f3.had", "--bound", "0"],
     "Invalid value for '--bound': 0 is not in the range x>=1."),
    (["census", "qline_kc2_f3.had", "--bound", "-5"],
     "Invalid value for '--bound': -5 is not in the range x>=1."),
    ([], "Missing command."),
    (["nope", "qline_kc2_f3.had"], "No such command 'nope'."),
    (["--bound", "5", "census", "qline_kc2_f3.had"], "No such option '--bound'."),
    (["census", "qline_kc2_f3.had", "--bound"], "Option '--bound' requires an argument."),
    (["census", "qline_kc2_f3.had", "--help=x"], "Option '--help' does not take a value."),
], ids=["unknown-option", "missing-file", "report-xml", "sigma-index-x", "abbreviation",
        "bound-0", "bound-negative", "missing-command", "unknown-command",
        "option-before-command", "bound-without-value", "help-with-value"])
def test_every_usage_error_takes_one_path(args, message):
    """A usage error exits 2 with the usage line of its command, or of the
    program when it names none, and ``Error: <message>`` on stderr and
    nothing on stdout; asked for a JSON report, in either spelling, it also
    prints the JSON error object on stdout. Options are never abbreviated.
    A command line without a command has no place for a --report."""
    runner = _separate_streams_runner()
    env = {"HOPFCLEFT_FIXTURE_DIR": DATA_DIR}
    command = args[0] if args and args[0] in main.commands else None
    text = runner.invoke(main, args, env=env)
    assert (text.exit_code, text.stdout) == (2, "")
    usage = f"main {command} [OPTIONS] FILE" if command else "main [OPTIONS] COMMAND [ARGS]..."
    assert text.stderr.startswith(f"Usage: {usage}\n")
    assert text.stderr.endswith(f"\nError: {message}\n")
    # right after the command, so that a --report given in args is the one that counts
    at = 1 if command else len(args)
    for report in (["--report", "json"], ["--report=json"]) if args else ():
        result = runner.invoke(main, [*args[:at], *report, *args[at:]], env=env)
        assert (result.exit_code, result.stderr) == (2, text.stderr)
        assert result.stdout == json.dumps(
            {"error": f"error: {message}", "ok": False}, indent=2, sort_keys=True) + "\n"


def test_help_lists_every_command_and_the_census_bound():
    result = _separate_streams_runner().invoke(main, ["--help"])
    assert result.exit_code == 0
    assert all(re.search(rf"^\s+{name}\s", result.stdout, re.M) for name in COMMAND_OPTIONS)
    result = _separate_streams_runner().invoke(main, ["census", "--help"])
    assert result.exit_code == 0
    assert "--bound" in result.stdout and "200000" in result.stdout


def test_convolution_inverse_of_a_non_endomorphism_names_the_tensor(runner):
    result = run(runner, ["convolution-inverse", "kc2_q.had", "--tensor", "KC2_comul"],
                 env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    assert result.exit_code == 2
    assert ("tensor 'KC2_comul' is a map kC2 -> (kC2*kC2) (2 -> 4); "
            "--tensor needs an H -> H map with H = kC2") in result.output


def test_census_finishes_on_the_quantum_line_over_kc4_f7(runner, tmp_path):
    from hopfcleft import fixtures, io
    from hopfcleft.fields import FieldSpec
    from hopfcleft.lifting import GradedYDHopf

    line = fixtures.quantum_line(fixtures.cyclic_group_hopf(FieldSpec.prime_field(7), 4))
    path = tmp_path / "qline_kc4_f7.had"
    io.save(io.graded_to_definition(
        GradedYDHopf(line, fixtures.quantum_line_grading()), ambient_name="KC4"), str(path))
    result = run(runner, ["census", str(path)])
    assert result.exit_code == 0, result.output
    assert "restricted cocycles: 7" in result.output


@pytest.mark.parametrize("name,unit", [
    ("qline_f5_rebased", "tensor KC4_unit unit@kC4: (b0, 1, 1) (b1, 1, 4)"),
    ("qline_f5_rescaled", "tensor R_unit unit@R: (e, 1, 3)"),
], ids=["rebased", "rescaled"])
def test_a_unit_off_the_basis_gives_the_standard_census(runner, tmp_path, request, name, unit):
    """phi(1) = 1 in the twisting search and connectedness are statements
    about the unit, not about a basis vector. The kC4/F_5 line with its
    ambient on b0 = 1 + g, b_i = g^i, or with R on e = 2 * 1 and x, has the
    census classes of the shipped presentation, and the commands that read
    one restricted cocycle pass on it."""
    from hopfcleft import io

    path = str(tmp_path / f"{name}.had")
    io.save(io.graded_to_definition(request.getfixturevalue(name), ambient_name="KC4"), path)
    assert unit in Path(path).read_text().splitlines()
    standard = run(runner, ["census", "qline_kc4_f5.had"], env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
    result = run(runner, ["census", path])
    assert result.exit_code == 0, result.output

    def classes(output):
        return [line for line in output.splitlines() if line.startswith("class ")]

    assert classes(result.output) == classes(standard.output) == [
        "class 0: cocycle indices [0]", "class 1: cocycle indices [1, 4]",
        "class 2: cocycle indices [2, 3]"]
    for command in ("psi", "gr-check", "phi-inverse", "deform"):
        result = run(runner, [command, path, "--sigma-index", "1"])
        assert result.exit_code == 0, (command, result.output)


def _separate_streams_runner():
    # click < 8.2 mixes stderr into stdout unless told not to; later
    # versions always keep both and no longer take the flag
    if "mix_stderr" in inspect.signature(CliRunner).parameters:
        return CliRunner(mix_stderr=False)
    return CliRunner()


@pytest.mark.parametrize("args,files,code", [
    (["bosonize", "qline.had", "--role", "R", "--out", "boson.had"],
     {"qline.had": QLINE_KC2_F3}, 0),
    (["verify-cocycle", "bad.had"],
     {"bad.had": CLASSICAL_COCYCLE.replace("(1, 1.g, 1)", "(1, 1.g, 2)")}, 1),
    (["verify-hopf", "malformed.had"], {"malformed.had": "field: Q\n: foo\n"}, 2),
], ids=["exit0-out", "exit1-check", "exit2-malformed"])
def test_child_process_matches_the_in_process_run(tmp_path, monkeypatch, args, files, code):
    """``python -m hopfcleft.cli`` in a child process gives the exit code,
    stdout and stderr bytes and written files of the in-process run: the
    real interpreter exit (with its frozen heap) flushes and closes alike."""
    runs = []
    for where in ("child", "in_process"):
        work = tmp_path / where
        work.mkdir()
        for name, text in files.items():
            (work / name).write_text(text)
        if where == "child":
            package_root = os.path.dirname(os.path.dirname(hopfcleft.__file__))
            path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "hopfcleft.cli", *args], cwd=work, capture_output=True,
                env=dict(os.environ, PYTHONPATH=path), timeout=300)
            streams = (proc.returncode, proc.stdout, proc.stderr)
        else:
            monkeypatch.chdir(work)
            result = _separate_streams_runner().invoke(main, args)
            streams = (result.exit_code, result.stdout_bytes, result.stderr_bytes)
        written = {p.name: p.read_bytes() for p in work.iterdir() if p.name not in files}
        runs.append((*streams, written))
    assert runs[0] == runs[1]
    exit_code, stdout, stderr, written = runs[0]
    assert exit_code == code
    assert stdout if code < 2 else stderr  # the report, or the error
    assert list(written) == (["boson.had"] if code == 0 else [])
    assert all(written.values())


def test_version_without_installed_metadata(runner):
    """--version reads the package's own version, so it works from a source
    tree on PYTHONPATH as well as from an installed package."""
    result = run(runner, ["--version"])
    assert result.exit_code == 0
    assert hopfcleft.__version__ in result.output


def test_version_in_a_child_process():
    package_root = os.path.dirname(os.path.dirname(hopfcleft.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcleft.cli", "--version"], capture_output=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hopfcleft.__version__.encode() in proc.stdout


def test_the_installed_script_entry_runs():
    """The ``[project.scripts]`` entry that installing makes the
    ``hopfcleft`` command resolves to ``cli.main``; a child process runs it
    as the generated script does (program name set, exit with its result)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    entry = re.search(r'^hopfcleft = "([^"]+)"$', text, re.MULTILINE)[1]
    module, _, attr = entry.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    package_root = os.path.dirname(os.path.dirname(hopfcleft.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    script = f"import sys; from {module} import {attr}; sys.argv[0] = 'hopfcleft'; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", script, "--version"], capture_output=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == f"hopfcleft, version {hopfcleft.__version__}\n".encode()


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)[1] == hopfcleft.__version__


_BOUND = ("bound", "--bound", 1_000_000)
_SIGMA_INDEX = ("sigma_index", "--sigma-index", 0)
_OUT = ("out_path", "--out", None)
# each command's own options, after FILE, --role and --report
COMMAND_OPTIONS = {
    "verify-hopf": [],
    "verify-yd": [],
    "verify-measuring": [],
    "verify-cocycle": [],
    "crossed-product": [_OUT],
    "smash": [_OUT],
    "cleft-from-cocycle": [_OUT],
    "cocycle-from-cleft": [],
    "round-trip": [],
    "bosonize": [_OUT],
    "phi": [],
    "phi-inverse": [_BOUND, _SIGMA_INDEX],
    "psi": [_BOUND, _SIGMA_INDEX],
    "deform": [_BOUND, _SIGMA_INDEX, _OUT],
    "gr-check": [_BOUND, _SIGMA_INDEX],
    "census": [("bound", "--bound", 200_000)],
    "oracle": [_BOUND],
    "convolution-inverse": [("tensor_name", "--tensor", None)],
    "coinvariants": [],
}


def test_every_command_takes_file_role_and_report_then_its_own_options(monkeypatch):
    """The command table gives every command FILE, --role and --report, then
    its own options; ``main`` calls the command's callback with each of them
    by dest, in that order, at its default when the command line omits it."""
    assert list(main.commands) == list(COMMAND_OPTIONS)
    for name, own in COMMAND_OPTIONS.items():
        shape = [("role_name", "--role", None), ("fmt", "--report", "text"), *own]
        params = main.commands[name].params
        assert [(dest, flag, default) for flag, dest, default, *_ in params] == shape, name
        calls = []
        monkeypatch.setattr(main.commands[name], "callback", lambda **kw: calls.append(kw))
        with pytest.raises(SystemExit) as exited:
            main([name, "f.had"], prog_name="hopfcleft")
        assert exited.value.code is None, name
        assert list(calls[0].items()) == [
            ("file", "f.had"), *((dest, default) for dest, _, default in shape)], name


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_every_command_rejects_a_missing_or_malformed_file(tmp_path, command):
    runner = _separate_streams_runner()
    result = runner.invoke(main, [command, "no_such_file.had"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("error: ") and "no_such_file.had" in result.stderr
    path = tmp_path / "malformed.had"
    path.write_text("field: Q\n: foo\n")
    result = runner.invoke(main, [command, str(path)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: line 2: missing line keyword before ':'\n"
    # with a JSON report, the error line is also a JSON object on stdout
    as_json = runner.invoke(main, [command, str(path), "--report", "json"])
    assert (as_json.exit_code, as_json.stderr) == (2, result.stderr)
    assert as_json.stdout == json.dumps(
        {"error": result.stderr.rstrip("\n"), "ok": False}, indent=2, sort_keys=True) + "\n"


def test_a_json_report_of_a_failed_check_or_theorem_is_its_error_line(tmp_path, monkeypatch):
    """Exits 1 and 3 raised as exceptions print, under --report json, the
    stderr line as {"error": ..., "ok": false} on stdout; stderr and the exit
    code are those of the text run, which prints nothing on stdout."""
    from hopfcleft import io
    from hopfcleft.errors import TheoremViolation

    corrupt = tmp_path / "corrupt.had"
    corrupt.write_text(QLINE_KC2_F3.replace(*CORRUPTED_R[0][:2], 1))
    shipped = os.path.join(DATA_DIR, "kc2_q.had")

    def broken(df, role):
        raise TheoremViolation("forced in a builder")

    runner = _separate_streams_runner()
    for args, code, stderr in (
        (["bosonize", str(corrupt), "--role", "R"], 1, "check failed: invalid graded input: "),
        (["verify-hopf", shipped], 3, "internal error: theorem violated: forced in a builder"),
    ):
        if code == 3:
            monkeypatch.setitem(io._BUILDERS, "hopf_algebra", broken)
        text = runner.invoke(main, args)
        as_json = runner.invoke(main, [*args, "--report", "json"])
        assert (text.exit_code, text.stdout) == (code, "")
        assert text.stderr.startswith(stderr) and text.stderr.count("\n") == 1
        assert (as_json.exit_code, as_json.stderr) == (code, text.stderr)
        assert as_json.stdout == json.dumps(
            {"error": text.stderr.rstrip("\n"), "ok": False}, indent=2, sort_keys=True) + "\n"


def test_the_file_argument_is_declared_once():
    """Every command gets FILE, --role and --report from one declaration;
    a second one would fork the command shape."""
    for command in main.commands.values():
        assert all(p is q for p, q in zip(command.params, cli._COMMON_OPTIONS))
    tree = ast.parse(Path(cli.__file__).read_text())
    declared = [
        node for node in ast.walk(tree) if isinstance(node, ast.Call)
        and "FILE" in [getattr(arg, "value", None)
                       for arg in (*node.args, *(kw.value for kw in node.keywords))]]
    assert [ast.unparse(node) for node in declared] == [
        "parser.add_argument('file', metavar='FILE', nargs='?', help='Definition file.')"]


def test_readme_command_lines_exit_0(runner, tmp_path, monkeypatch):
    """Every line of the README's command-line block exits 0: the shipped
    files are found under $HOPFCLEFT_FIXTURE_DIR, my_cocycle.had is the
    classical cocycle, and later lines read the files earlier ones wrote."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 8 and all(line.startswith("hopfcleft ") for line in lines)
    (tmp_path / "my_cocycle.had").write_text(CLASSICAL_COCYCLE)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        result = run(runner, shlex.split(line)[1:], env={"HOPFCLEFT_FIXTURE_DIR": DATA_DIR})
        assert result.exit_code == 0, (line, result.output)


NO_ANTIPODE = """\
field: Q
space M: 1 e
tensor M_comul comul@M: (1.1, 1, 1) (e.e, e, 1)
tensor M_counit counit@M: (1, 1, 1) (1, e, 1)
tensor M_mul mul@M: (1, 1.1, 1) (e, 1.e, 1) (e, e.1, 1) (e, e.e, 1)
tensor M_unit unit@M: (1, 1, 1)
role hopf_algebra X: comul=M_comul counit=M_counit mul=M_mul space=M unit=M_unit
"""


def test_a_structure_that_cannot_be_inverted_is_an_input_error(runner, tmp_path):
    """Building a role solves for what it needs: the antipode of a
    hopf_algebra bound without one (here the monoid bialgebra kM2, e^2 = e)
    and the inverse of a section. When there is none, the build fails and
    the command exits 2 without a report."""
    path = tmp_path / "km2.had"
    path.write_text(NO_ANTIPODE)
    result = run(runner, ["verify-hopf", str(path)])
    assert (result.exit_code, result.output) == (
        2, "error: role 'X' (hopf_algebra): identity is not convolution invertible\n")
    crossed = tmp_path / "crossed.had"
    cocycle = tmp_path / "cocycle.had"
    cocycle.write_text(CLASSICAL_COCYCLE)
    assert run(runner, ["crossed-product", str(cocycle), "--out", str(crossed)]).exit_code == 0
    # the section 1 -> 1 # 1, g -> 0
    crossed.write_text(re.sub(
        r"^(tensor \w+ section@\S+).*$", r"\1 (1, 1, 1)", crossed.read_text(), flags=re.M))
    result = run(runner, ["cocycle-from-cleft", str(crossed)])
    assert (result.exit_code, result.output) == (
        2, "error: role 'B' (cleft_extension): no right convolution inverse\n")
