"""Record the CLI digest corpus: every invocation's exit code, stdout, stderr
and ``--out`` bytes, as the current code produces them.

    PYTHONPATH=src python3 tests/make_cli_digests.py

writes ``tests/cli_digests.json``; ``tests/test_cli_digests.py`` reruns the
corpus in process and compares. Rerun this script only when output changes
on purpose, and list every changed invocation in CHANGES.md.

The inputs are the shipped files, the classical and braided cocycle files
and the crossed product of the classical one, quantum lines over F_7, Q,
Q(zeta_4) and Q(zeta_8), a comodule algebra whose coinvariants are not a
subalgebra, a file that starts with a byte-order mark, malformed files, and
one-entry corruptions of each tensor of six files. Every command runs with
no role, with each role of a kind it takes and with one role of a kind it
does not take, in text and JSON; ``--sigma-index``, ``--out``, ``--bound``
and ``--tensor`` vary where a command takes them. Each run starts in a
working directory that holds only the inputs, named by relative paths.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io as _io
import json
import os
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

import hopfcleft
from hopfcleft import cli, fixtures, io
from hopfcleft.errors import HopfcleftError
from hopfcleft.lifting import GradedYDHopf

DIGESTS = Path(__file__).with_name("cli_digests.json")
PROG = "hopfcleft"

# the role kinds each command takes, and its own option variants beyond the
# default (a variant runs in text only)
COMMANDS = {
    "verify-hopf": (("hopf_algebra", "graded_yd_hopf"), ()),
    "verify-yd": (("yd_module", "graded_yd_hopf"), ()),
    "verify-measuring": (("measuring",), ()),
    "verify-cocycle": (("cocycle",), ()),
    "crossed-product": (("cocycle",), (("--out", "out.had"),)),
    "smash": (("measuring",), (("--out", "out.had"),)),
    "cleft-from-cocycle": (("cocycle",), (("--out", "out.had"),)),
    "cocycle-from-cleft": (("cleft_extension",), ()),
    "round-trip": (("cocycle",), ()),
    "bosonize": (("graded_yd_hopf",), (("--out", "out.had"),)),
    "phi": (("cocycle",), ()),
    "phi-inverse": (("graded_yd_hopf",), (("--sigma-index", "1"),)),
    "psi": (("graded_yd_hopf",), (("--sigma-index", "1"),)),
    "deform": (("graded_yd_hopf",), (("--sigma-index", "1"), ("--out", "out.had"))),
    "gr-check": (("graded_yd_hopf",), (("--sigma-index", "1"), ("--sigma-index", "9"))),
    "census": (("graded_yd_hopf",), (("--bound", "1"),)),
    "oracle": (("hopf_algebra", "measuring", "graded_yd_hopf"), (("--bound", "1"),)),
    "convolution-inverse": (("hopf_algebra",), (("--tensor", "{antipode}"),)),
    "coinvariants": (("cleft_extension",), ()),
}

_DATA = resources.files(hopfcleft).joinpath("data")
SHIPPED = {name: _DATA.joinpath(name).read_text(encoding="utf-8")
           for name in ("kc2_q.had", "kc4_zeta4.had", "qline_kc2_f3.had", "qline_kc4_f5.had")}

CLASSICAL = """\
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

# the crossed product of CLASSICAL as a cleft extension, with its canonical section
CLASSICAL_CLEFT = """\
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

# a measuring of the quantum line R over F_3 on a one-dimensional algebra,
# with sigma = eps (x) eps
BRAIDED = SHIPPED["qline_kc2_f3.had"] + """\
space A: 1
tensor A_mul mul@A: (1, 1, 1)
tensor A_unit unit@A: (1, 1, 1)
tensor M_nu measuring@R,A: (1, 1, 1)
tensor SIG cocycle@R,A: (1, 1.1, 1)
role measuring M: hopf=R mul=A_mul nu=M_nu space=A unit=A_unit
role cocycle C: measuring=M sigma=SIG
"""

# B = Q[x]/(x^3) graded by C2 with x^2 in degree g: its coinvariants
# span{1, x} are not closed under products
NOT_A_SUBALGEBRA = """\
field: Q
space H: 1 g
space B: 1 x x2
tensor H_mul mul@H: (1, 1.1, 1) (1, g.g, 1) (g, 1.g, 1) (g, g.1, 1)
tensor H_unit unit@H: (1, 1, 1)
tensor H_comul comul@H: (1.1, 1, 1) (g.g, g, 1)
tensor H_counit counit@H: (1, 1, 1) (1, g, 1)
tensor B_mul mul@B: (1, 1.1, 1) (x, 1.x, 1) (x, x.1, 1) (x2, 1.x2, 1) (x2, x2.1, 1) (x2, x.x, 1)
tensor B_unit unit@B: (1, 1, 1)
tensor B_co right_coaction@H,B: (1.1, 1, 1) (x.1, x, 1) (x2.g, x2, 1)
tensor B_sec section@H,B: (1, 1, 1) (1, g, 1) (x2, g, 1)
role hopf_algebra KC2: space=H mul=H_mul unit=H_unit comul=H_comul counit=H_counit
role cleft_extension E: hopf=KC2 space=B mul=B_mul unit=B_unit coaction=B_co section=B_sec
"""

MALFORMED = {
    "no_field.had": b"space H: 1 g\n",
    "no_keyword.had": b"field: Q\n: foo\n",
    "not_utf8.had": b"field: Q\n\xff\xfe\n",
    "empty_slot.had": SHIPPED["kc4_zeta4.had"].replace(
        "(g, g3, [1, 0])", "(g, g3, [1,, 0])", 1).encode(),
}

# the slowest inputs run in text only: a JSON report is the same report in
# another shape, which the other inputs cover
TEXT_ONLY = {"qline_kc4_f5.had", "qline_kc2_f7.had", "qline_kc4_z4.had", "qline_kc8_z8.had"}

_ENTRY = re.compile(r", ([^,()\[\]]+|\[[^\]]*\])\)$")


def _quantum_line(n: int, field: str) -> str:
    line = fixtures.quantum_line(fixtures.cyclic_group_hopf(io.parse_field(field), n))
    g = GradedYDHopf(line, fixtures.quantum_line_grading())
    return io.serialize(io.graded_to_definition(g, ambient_name=f"KC{n}"))


def _corruptions(name: str, text: str) -> dict[str, str]:
    """One file per tensor, with the value of the tensor's last entry changed."""
    lines = text.splitlines(keepends=True)
    out = {}
    for k, line in enumerate(lines):
        match = _ENTRY.search(line.rstrip("\n"))
        if line.startswith("tensor ") and match:
            value = "1" if match[1] == "2" else "2"
            lines_k = [*lines[:k], line[:match.start(1)] + value + ")\n", *lines[k + 1:]]
            out[f"{name[:-4]}-{line.split()[1]}.had"] = "".join(lines_k)
    return out


def inputs() -> tuple[dict[str, bytes], dict[str, bytes]]:
    """The input files by name: those every command runs on, and the
    corrupted and malformed ones that only some commands run on."""
    main = dict(SHIPPED)
    main.update({
        "classical.had": CLASSICAL, "classical_cleft.had": CLASSICAL_CLEFT,
        "braided.had": BRAIDED,
        "not_a_subalgebra.had": NOT_A_SUBALGEBRA,
        "qline_kc2_f7.had": _quantum_line(2, "F_7"),
        "qline_kc2_q.had": _quantum_line(2, "Q"),
        "qline_kc4_z4.had": _quantum_line(4, "Q(zeta_4)"),
        "qline_kc8_z8.had": _quantum_line(8, "Q(zeta_8)"),
    })
    main = {name: text.encode() for name, text in main.items()}
    main["bom.had"] = b"\xef\xbb\xbf" + main["kc2_q.had"]
    extra = dict(MALFORMED)
    for name in ("kc2_q.had", "kc4_zeta4.had", "qline_kc2_f3.had", "classical.had",
                 "classical_cleft.had", "braided.had"):
        extra.update({k: v.encode() for k, v in _corruptions(name, main[name].decode()).items()})
    return main, extra


def _roles(data: bytes) -> dict[str, io.Role]:
    # read past a byte-order mark, so that the command lines do not depend
    # on whether the code under test does
    try:
        return dict(sorted(io.parse(data.decode("utf-8-sig")).roles.items()))
    except (UnicodeDecodeError, HopfcleftError):
        return {}


def invocations(main: dict[str, bytes], extra: dict[str, bytes]) -> list[list[str]]:
    """Every command line of the corpus, in a fixed order."""
    runs = []
    for name, data in main.items():
        roles = _roles(data)
        for command, (kinds, variants) in COMMANDS.items():
            fitting = [r for r in roles.values() if r.kind in kinds]
            other = [r for r in roles.values() if r.kind not in kinds][:1]
            # a command picks the one role of its kinds unnamed
            for role in [None, *(fitting if len(fitting) > 1 else []), *other]:
                base = [command, name] + (["--role", role.name] if role else [])
                runs += [base] if name in TEXT_ONLY else [base, base + ["--report", "json"]]
            runs += [[command, name, "--role", role.name, flag, value.format(**role.bindings)]
                     for role in fitting for flag, value in variants
                     if "{antipode}" not in value or "antipode" in role.bindings]
    runs += [["verify-hopf", "kc2_q.had", "--role", "NOPE"], ["oracle", "kc2_q.had", "--role", "NOPE"]]
    for name, data in extra.items():
        roles = _roles(data)
        if not roles:
            runs += [["verify-hopf", name], ["verify-hopf", name, "--report", "json"]]
        for command, (kinds, _) in COMMANDS.items():
            runs += [[command, name, "--role", r.name] for r in roles.values() if r.kind in kinds]
    runs += [["verify-hopf", "no_such_file.had"]]
    return runs


def _run(args: list[str]) -> dict:
    """Run one command line in process: its exit code, streams and new files."""
    before = set(os.listdir())
    stdout, stderr = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli.main(args, prog_name=PROG)
            code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so that a traceback shows as a change
            code = f"uncaught {type(exc).__name__}: {exc}"
    gc.unfreeze()  # a command freezes the heap for the exit that does not come here
    files = {}
    for name in sorted(set(os.listdir()) - before):
        files[name] = Path(name).read_text(encoding="utf-8")
        os.remove(name)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def run_corpus(work: str) -> tuple[dict[str, str], dict[str, str], dict[str, dict]]:
    """Write the inputs into the empty directory ``work`` and run the corpus
    there: the digest of each input and of each run, and each distinct run
    result by its digest."""
    main, extra = inputs()
    files = {**main, **extra}
    for name, data in files.items():
        Path(work, name).write_bytes(data)
    cwd, fixture_dir = os.getcwd(), os.environ.pop(cli.FIXTURE_DIR_VAR, None)
    os.chdir(work)
    try:
        runs, outputs = {}, {}
        for args in invocations(main, extra):
            record = _run(args)
            key = digest(record)
            runs[" ".join(args)] = key
            outputs[key] = record
    finally:
        os.chdir(cwd)
        if fixture_dir is not None:
            os.environ[cli.FIXTURE_DIR_VAR] = fixture_dir
    sums = {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}
    return sums, runs, outputs


def main():
    with tempfile.TemporaryDirectory() as work:
        inputs_, runs, outputs = run_corpus(work)
    text = json.dumps({"inputs": inputs_, "runs": runs, "outputs": outputs},
                      indent=0, sort_keys=True, ensure_ascii=False)
    DIGESTS.write_text(text + "\n", encoding="utf-8")
    codes = [outputs[key]["exit"] for key in runs.values()]
    print(f"{len(runs)} runs, {len(outputs)} distinct results, exit codes "
          f"{ {c: codes.count(c) for c in sorted(set(codes), key=str)} }: wrote {DIGESTS}")


if __name__ == "__main__":
    sys.exit(main())
