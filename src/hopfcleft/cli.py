"""Command-line driver.

Every command has one shape, declared by ``_file_command`` in the table
``main.commands`` and parsed with argparse: a definition FILE (see io.py
for the format), ``--role`` to pick a role when the file declares several
of a kind, ``--report text|json``, then the command's own options. The
command's body starts from the loaded file and takes its role's object
from ``_built``, which first checks what the object rests on; it prints a
deterministic report and exits with 0 when all checks pass, 1 when an
axiom or verification fails, 2 on input and usage errors and 3 when an
identity guaranteed by a proved statement fails (a bug here, not in the
input); an exception that ends a command exits by its class, as errors.py
sets out. Constructive commands additionally write their result with
``--out``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from types import SimpleNamespace

from . import __version__, io
# registered lazily by the package, so executed on a command's first call
# into them: verify-hopf and convolution-inverse on a hopf_algebra role
# never execute most of these
from . import braided as _braided, cleft as _cleft, cocycle as _cocycle
from . import lifting as _lifting, oracle as _oracle
from .errors import (
    CENSUS_BOUND,
    DEFAULT_BOUND,
    CheckFailure,
    HopfcleftError,
    TheoremViolation,
    ValidationError,
)
from .hopf import check_algebra, check_hopf, convolution_inverse
from .linalg import LinearMap
from .report import CheckItem, CheckReport

FIXTURE_DIR_VAR = "HOPFCLEFT_FIXTURE_DIR"


def _load(path: str) -> io.DefinitionFile:
    """Load the file found directly, else the one in the fixture directory."""
    fixture_dir = os.environ.get(FIXTURE_DIR_VAR)
    if fixture_dir and not os.path.exists(path):
        candidate = os.path.join(fixture_dir, path)
        if os.path.exists(candidate):
            path = candidate
    return io.load(path)


def _find_role(df: io.DefinitionFile, kinds: tuple[str, ...], name: str | None) -> io.Role:
    if name is not None:
        if name not in df.roles:
            raise ValidationError(f"no role named {name!r} in the file")
        role = df.roles[name]
        if role.kind not in kinds:
            raise ValidationError(
                f"role {name!r} has kind {role.kind!r}, expected one of {kinds}")
        return role
    matches = [r for r in df.roles.values() if r.kind in kinds]
    if not matches:
        raise ValidationError(f"file declares no role of kind {kinds}")
    if len(matches) > 1:
        names = sorted(r.name for r in matches)
        raise ValidationError(f"ambiguous role; use --role with one of {names}")
    return matches[0]


def _finish(report: CheckReport, fmt: str, notes: list[str] | None = None):
    """Print the report and its notes, then exit 0 if every check passed."""
    if fmt == "json":
        payload = {"subject": report.subject, "ok": report.ok, "items": [
            {"name": i.name, "ok": i.ok, "witness": i.witness} for i in report.items]}
        if notes:
            payload["notes"] = notes
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(*report.lines(), *(notes or []), sep="\n")
    sys.exit(0 if report.ok else 1)


def _passed(report: CheckReport, fmt: str) -> CheckReport:
    """``report`` when every check passed; otherwise the command ends with it."""
    if not report.ok:
        _finish(report, fmt)
    return report


def _terms(m: LinearMap, field) -> list[tuple[int, str]]:
    """(column, "value row-label") of each entry of ``m``, by row then column."""
    return [(j, f"{field.format(v)} {m.target.label(i)}")
            for (i, j), v in sorted(m.raw_entries().items())]


def _fail(line: str, code: int, fmt: str, text: str | None = None):
    """Print ``text`` or ``line`` on stderr, and ``line`` as a JSON object under ``fmt`` json."""
    print(text or line, file=sys.stderr)
    if fmt == "json":
        print(json.dumps({"error": line, "ok": False}, indent=2, sort_keys=True))
    sys.exit(code)


def _usage_error(args: list[str], prog: str, usage: str, message: str):
    """Refuse the command line ``args`` with ``message`` under ``prog``'s usage."""
    # argparse keeps the last --report: the error object follows the last
    # one that names a report shape
    values = [b if a == "--report" else a.partition("=")[2]
              for a, b in zip(args, [*args[1:], ""]) if a.partition("=")[0] == "--report"]
    shapes = [v for v in values if v in ("text", "json")]
    _fail(f"error: {message}", 2, "json" if shapes[-1:] == ["json"] else "text",
          f"Usage: {prog} {usage}\nTry '{prog} --help' for help.\n\nError: {message}")


def _report_shape(value: str) -> str:
    if value not in ("text", "json"):
        raise ValueError(f"{value!r} is not one of 'text', 'json'.")
    return value


def _integer(value: str, least: int | None = None) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"{value!r} is not a valid integer.") from None
    if least is not None and number < least:
        raise ValueError(f"{number} is not in the range x>={least}.")
    return number


# (flag, dest, default, converter of a given value or None, help) of each option
_COMMON_OPTIONS = (
    ("--role", "role_name", None, None, "Role to use."),
    ("--report", "fmt", "text", _report_shape, "Report output shape: text or json."),
)
_positive = functools.partial(_integer, least=1)
_bound_option = ("--bound", "bound", DEFAULT_BOUND, _positive, "Maximum number of "
                 "candidates an exhaustive sweep may visit (default: %(default)s).")
_sigma_index_option = ("--sigma-index", "sigma_index", 0, _integer, "Index into the "
                       "deterministic enumeration of restricted cocycles (default: %(default)s).")
_out_option = ("--out", "out_path", None, None, "Write the result as a definition file.")


def main(args=None, prog_name=None, **extra):
    """Run the command that ``args`` (by default ``sys.argv[1:]``) name with its parameters
    by name; ``prog_name`` names the program in usage lines and ``extra`` is ignored."""
    args = sys.argv[1:] if args is None else list(args)
    spec = getattr(sys.modules["__main__"], "__spec__", None)  # set under python -m
    prog = prog_name or (f"python -m {spec.name}" if spec else os.path.basename(sys.argv[0]))
    # the first word names the command: the flags before it are the program's
    at, name = next(((i, a) for i, a in enumerate(args) if a[:1] != "-"), (len(args), None))
    if at and args[0] in ("--version", "--help"):
        print(f"{prog}, version {__version__}" if args[0] == "--version" else "\n  ".join([
            f"Usage: {prog} [--version] [--help] COMMAND [ARGS]...\n\nCommands:",
            *(f"{n:20} {c.help}" for n, c in main.commands.items())]))
        sys.exit(0)
    if at or name not in main.commands:
        _usage_error(args, prog, "[OPTIONS] COMMAND [ARGS]...", f"No such option '{args[0]}'."
                     if at else f"No such command '{name}'." if args else "Missing command.")
    command = main.commands[name]
    parser = argparse.ArgumentParser(f"{prog} {name}", "%(prog)s [OPTIONS] FILE", command.help,
                                     add_help=False, allow_abbrev=False, exit_on_error=False)
    parser.add_argument("file", metavar="FILE", nargs="?", help="Definition file.")
    for flag, dest, default, _, text in command.params:
        parser.add_argument(flag, dest=dest, default=default, metavar=flag[2:].upper(), help=text)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    refuse = functools.partial(_usage_error, args, parser.prog, "[OPTIONS] FILE")
    try:
        values, extras = parser.parse_known_args(args[at + 1:])
    except argparse.ArgumentError as exc:  # an option without its value, or --help with one
        needs = "does not take a value" if exc.argument_name == "--help" else "requires an argument"
        refuse(f"Option '{exc.argument_name}' {needs}.")
    if extras:
        refuse(f"No such option '{extras[0]}'." if extras[0].startswith("-") else
               f"Got unexpected extra argument{'s' * (len(extras) > 1)} ({' '.join(extras)})")
    for flag, dest, _, convert, _ in command.params:
        try:
            if convert:
                setattr(values, dest, convert(getattr(values, dest)))
        except ValueError as exc:
            refuse(f"Invalid value for '{flag}': {exc}")
    if values.file is None:
        refuse("Missing argument 'FILE'.")
    sys.exit(command.callback(**vars(values)))  # a body exits; one that returns exits 0


# the command table by name, and the entry point and name that click's test runner reads
main.commands, main.main, main.name = {}, main, "main"


def _file_command(name: str, *options):
    """Declare the command ``name``: FILE, --role and --report, then
    ``options`` in order. Its callback loads FILE, calls the decorated body
    with the definition file in its place and the other parameters by name,
    and maps exceptions onto the documented exit codes, with the error line
    on stderr and, under ``--report json``, as a JSON object on stdout."""

    def decorate(body):
        def callback(file, **params):
            try:
                return body(_load(file), **params)
            except TheoremViolation as exc:
                _fail(f"internal error: theorem violated: {exc}", 3, params["fmt"])
            except CheckFailure as exc:
                _fail(f"check failed: {exc}", 1, params["fmt"])
            except (HopfcleftError, OSError) as exc:
                _fail(f"error: {exc}", 2, params["fmt"])
            finally:
                # the process exits next. Interpreter shutdown runs full
                # garbage collections that walk every object left from the
                # imports and the command, a large share of a short job;
                # they skip a frozen heap. Nothing may rely on them: files
                # are closed by `with` blocks, never left for the collector.
                gc.freeze()

        main.commands[name] = SimpleNamespace(callback=callback, params=_COMMON_OPTIONS + options,
                                              help=" ".join(body.__doc__.split()))
        return body

    return decorate


def _definition(role, obj) -> CheckReport:
    """The one check of what a hopf_algebra, graded_yd_hopf or measuring role
    defines, on whichever route reaches the role."""
    if role.kind == "graded_yd_hopf":
        return _lifting.check_graded_yd_hopf(obj)[0]
    return (check_hopf if role.kind == "hopf_algebra" else _braided.check_measuring)(obj)


def _built(df, kinds, role_name, fmt):
    """The role of one of ``kinds`` that ``role_name`` names (the only one
    when None) and the object ``io.build`` keeps for it, once what it rests
    on has passed: each role it references (ambient=, hopf=, measuring=),
    reached here and judged by its ``_definition`` once per command, then
    the algebra of a measuring or cleft_extension. A cocycle's object is its
    measuring. A failed check ends the command with its report. Every
    command reaches a role's object here."""
    role = _find_role(df, kinds, role_name)
    for key, (binds, _) in io.role_keys(role.kind).items():
        name = role.bindings.get(key)
        if isinstance(binds, tuple) and name not in df.judged:  # the key binds a role
            _passed(_definition(*_built(df, binds, name, fmt)), fmt)
            df.judged.add(name)
    obj = io.build(df, role.bindings["measuring"] if role.kind == "cocycle" else role.name)
    if role.kind in ("measuring", "cleft_extension"):
        _passed(check_algebra(obj.algebra), fmt)
    return role, obj


def _checked_cocycle(df, kinds, role_name, fmt):
    """The cocycle of the role ``_built`` gives, checked after what the role
    rests on, and its passing report (else the command ends with it): a
    cocycle role's sigma, or a measuring role's trivial cocycle (smash's)."""
    role, m = _built(df, kinds, role_name, fmt)
    if role.kind == "measuring":  # the trivial cocycle rests on the measuring too
        _passed(_definition(role, m), fmt)
    sigma = (df.tensor_map(role.bindings["sigma"]) if role.kind == "cocycle"
             else _cocycle.trivial_sigma(m))
    cocycle, report = _cocycle.check_cocycle(m, sigma)
    return cocycle, _passed(report, fmt)


@_file_command("verify-hopf")
def verify_hopf(df, role_name, fmt):
    """Check all Hopf algebra axioms for a hopf_algebra or graded_yd_hopf role."""
    _finish(_definition(*_built(df, ("hopf_algebra", "graded_yd_hopf"), role_name, fmt)), fmt)


@_file_command("verify-yd")
def verify_yd(df, role_name, fmt):
    """Check the Yetter-Drinfeld axioms and the braiding axioms."""
    role, obj = _built(df, ("yd_module", "graded_yd_hopf"), role_name, fmt)
    yd = obj if role.kind == "yd_module" else obj.hopf.yd
    report = _braided.check_yd(yd)
    report.extend(_braided.check_braiding_axioms(yd, yd.module))
    _finish(report, fmt)


@_file_command("verify-measuring")
def verify_measuring(df, role_name, fmt):
    """Check the measuring conditions for a measuring role."""
    _finish(_definition(*_built(df, ("measuring",), role_name, fmt)), fmt)


@_file_command("verify-cocycle")
def verify_cocycle(df, role_name, fmt):
    """Check convolution invertibility and the cocycle relations."""
    _finish(_checked_cocycle(df, ("cocycle",), role_name, fmt)[1], fmt)


def _crossed_output(ce, out_path) -> list[str]:
    """Write the crossed product of a cleft extension as a definition file
    with a cleft_extension role when the ambient is trivial, else only the
    role's mul and unit tensors."""
    hopf = ce.hopf
    b = ce.comodule_algebra
    space = b.space
    notes = [f"crossed product space: {space.name} (dim {space.dim})"]
    if out_path is None:
        return notes
    maps = {"mul": b.algebra.mul, "unit": b.algebra.unit}
    df, refs, over = io.DefinitionFile(space.field), None, None
    if hopf.ambient.space.dim == 1:
        df = io.hopf_to_definition(hopf, "H")
        maps.update(coaction=b.coaction, section=ce.gamma)
        refs, over = {"hopf": "H"}, df.space(df.roles["H"].bindings["space"])
    io.add_role(df, "cleft_extension", "B", io.file_space(space, "B"), maps, refs, over)
    io.save(df, out_path)
    notes.append(f"wrote {out_path}")
    return notes


@_file_command("crossed-product", _out_option)
def crossed_product_cmd(df, role_name, fmt, out_path):
    """Build and verify the crossed product of a cocycle role."""
    cocycle, report = _checked_cocycle(df, ("cocycle",), role_name, fmt)
    _finish(report, fmt, _crossed_output(_cleft.crossed_to_cleft(cocycle), out_path))


@_file_command("smash", _out_option)
def smash(df, role_name, fmt, out_path):
    """Build the smash product of a measuring role (trivial cocycle)."""
    cocycle, report = _checked_cocycle(df, ("measuring",), role_name, fmt)
    _finish(report, fmt, _crossed_output(_cleft.crossed_to_cleft(cocycle), out_path))


@_file_command("cleft-from-cocycle", _out_option)
def cleft_from_cocycle(df, role_name, fmt, out_path):
    """Crossed product with its canonical section, verified as a cleft extension."""
    cocycle, report = _checked_cocycle(df, ("cocycle",), role_name, fmt)
    ce = _cleft.crossed_to_cleft(cocycle)
    report.extend(_cleft.check_cleft(ce))
    _finish(report, fmt, _crossed_output(ce, out_path))


@_file_command("cocycle-from-cleft")
def cocycle_from_cleft(df, role_name, fmt):
    """Extract and verify the cocycle of a cleft extension role."""
    _, ce = _built(df, ("cleft_extension",), role_name, fmt)
    report = _passed(_cleft.check_cleft(ce), fmt)
    m, cocycle, cocycle_report = _cleft.cocycle_from_section(ce)
    report.extend(cocycle_report)
    label = cocycle.sigma.source.label
    notes = [f"coinvariants: {m.space.name} (dim {m.space.dim})"] + [
        f"sigma({label(j)}) = {term}" for j, term in _terms(cocycle.sigma, df.field)]
    _finish(report, fmt, notes)


@_file_command("round-trip")
def round_trip(df, role_name, fmt):
    """Cocycle -> cleft extension -> cocycle recovers the input exactly."""
    cocycle, report = _checked_cocycle(df, ("cocycle",), role_name, fmt)
    report.extend(_cleft.round_trip_check(cocycle))
    _finish(report, fmt)


@_file_command("bosonize", _out_option)
def bosonize_cmd(df, role_name, fmt, out_path):
    """Build and verify the bosonization of a graded_yd_hopf role."""
    _, g = _built(df, ("graded_yd_hopf",), role_name, fmt)
    # R's one verdict: its grading report first, then bosonize stops at the rest
    report = _passed(_lifting.check_graded_yd_hopf(g)[1], fmt)
    b = _lifting.bosonize(g)
    notes = [f"bosonization: dim {b.space.dim}"]
    if out_path is not None:
        out = io.hopf_to_definition(b.hopf, "HB")
        io.save(out, out_path)
        notes.append(f"wrote {out_path}")
    report.add(CheckItem("bosonization passes the Hopf axioms", True))
    _finish(report, fmt, notes)


def _boson_and_sigma(df, role_name, fmt, index, bound):
    _, g = _built(df, ("graded_yd_hopf",), role_name, fmt)
    b = _lifting.bosonize(g)
    # phi maps the equivariant braided cocycles on R onto the restricted
    # cocycles in enumeration order: the selected one and its extension
    _, cocycles = _lifting.braided_cocycles(g, bound)
    if not 0 <= index < len(cocycles):
        raise ValidationError(
            f"--sigma-index {index} out of range; {len(cocycles)} restricted cocycles exist")
    return b, cocycles[index], _lifting.phi(b, cocycles[index])


@_file_command("phi")
def phi_cmd(df, role_name, fmt):
    """Extend a braided scalar cocycle on R to the bosonization."""
    role = _find_role(df, ("cocycle",), role_name)
    # R is the role that the cocycle's measuring is over; its kind is refused
    # before any check runs
    over = df.roles[df.roles[role.bindings["measuring"]].bindings["hopf"]]
    if over.kind != "graded_yd_hopf":
        raise ValidationError("pi must be a cocycle on the braided factor")
    cocycle, report = _checked_cocycle(df, ("cocycle",), role.name, fmt)
    b = _lifting.bosonize(_built(df, ("graded_yd_hopf",), over.name, fmt)[1])
    _, restricted = _lifting.check_zprime(b, _lifting.phi(b, cocycle).sigma)
    report.extend(restricted)
    _finish(report, fmt)


@_file_command("phi-inverse", _bound_option, _sigma_index_option)
def phi_inverse_cmd(df, role_name, fmt, bound, sigma_index):
    """Restrict a scalar cocycle on the bosonization back to the braided factor."""
    b, _, s = _boson_and_sigma(df, role_name, fmt, sigma_index, bound)
    _, report = _lifting.check_zprime(b, s.sigma)
    pi = _lifting.phi_inverse(b, s)
    report.add(CheckItem("restriction is a braided cocycle", pi.verified))
    again = _lifting.phi(b, pi)
    report.add(CheckItem("phi of the restriction recovers sigma", again.sigma == s.sigma))
    _finish(report, fmt)


@_file_command("psi", _bound_option, _sigma_index_option)
def psi_cmd(df, role_name, fmt, bound, sigma_index):
    """Induce an H-cleft object from the R-cleft object of a restricted cocycle."""
    b, pi, s = _boson_and_sigma(df, role_name, fmt, sigma_index, bound)
    ce = _lifting.psi(b, _cleft.crossed_to_cleft(pi))
    report = _cleft.check_cleft(ce)
    back, section_report = _lifting.sigma_gamma_restricts(b, ce)
    # the report lists the section conditions twice: once as checked on the
    # induced section, once as the premise of restricting its cocycle
    report.extend(section_report)
    report.extend(section_report)
    report.add(CheckItem(
        "section cocycle recovers sigma", back.sigma == s.sigma))
    _finish(report, fmt)


@_file_command("deform", _bound_option, _sigma_index_option, _out_option)
def deform_cmd(df, role_name, fmt, bound, sigma_index, out_path):
    """Deform the bosonization by a restricted cocycle."""
    b, _, s = _boson_and_sigma(df, role_name, fmt, sigma_index, bound)
    deformed = _lifting.deform(b, s)
    report = CheckReport(f"deformation of {b.space.name}")
    report.add(CheckItem("deformed bialgebra passes the Hopf axioms", True))
    notes = []
    if out_path is not None:
        io.save(io.hopf_to_definition(deformed, "HD"), out_path)
        notes.append(f"wrote {out_path}")
    _finish(report, fmt, notes)


@_file_command("gr-check", _bound_option, _sigma_index_option)
def gr_check_cmd(df, role_name, fmt, bound, sigma_index):
    """Deform, then verify the associated graded product is undeformed."""
    b, _, s = _boson_and_sigma(df, role_name, fmt, sigma_index, bound)
    _finish(_lifting.gr_check(b, _lifting.deform(b, s)), fmt)


@_file_command("census", (
    "--bound", "bound", CENSUS_BOUND, _positive,
    "Maximum number of candidates a restricted-cocycle sweep may visit, and of "
    "values one twisting search may try (default: %(default)s)."))
def census(df, role_name, fmt, bound):
    """Enumerate restricted cocycles, run both cleft-object constructions and
    classify the results up to comodule algebra isomorphism."""
    b = _lifting.bosonize(_built(df, ("graded_yd_hopf",), role_name, fmt)[1])
    result = _lifting.cleft_prime_census(b, bound)
    notes = [f"restricted cocycles: {len(result.sigmas)}"]
    for k, cls in enumerate(result.classes):
        members = ", ".join(str(i) for i in cls)
        notes.append(f"class {k}: cocycle indices [{members}]")
    _finish(result.report, fmt, notes)


@_file_command("oracle", _bound_option)
def oracle(df, role_name, fmt, bound):
    """Exhaustive-search cross-checks of the closed-form constructions."""
    kinds = ("hopf_algebra", "measuring", "graded_yd_hopf")
    names = (sorted(r.name for r in df.roles.values() if r.kind in kinds) if role_name is None
             else [role_name])
    report = CheckReport(f"oracle sweeps over {df.field}")
    notes = []
    for name in names:
        role, obj = _built(df, kinds, name, fmt)
        if role.kind == "hopf_algebra":
            found = _oracle.oracle_convolution_inverse(
                LinearMap.identity(obj.space), obj.coalg, obj.alg, bound)
            report.add(CheckItem(
                f"{role.name}: antipode matches the exhaustive search",
                found == obj.antipode))
        elif role.kind == "measuring":
            cocycles = _oracle.enumerate_cocycles(obj, bound)
            notes.append(f"{role.name}: {len(cocycles)} cocycles")
            report.add(CheckItem(f"{role.name}: cocycle sweep completed", True))
        else:
            b = _lifting.bosonize(obj)
            sigmas = _oracle.enumerate_zprime(b, bound)
            notes.append(f"{role.name}: {len(sigmas)} restricted cocycles")
            report.add(CheckItem(f"{role.name}: restricted sweep completed", True))
    if not report.items:
        raise ValidationError("no role suitable for an oracle sweep")
    _finish(report, fmt, notes)


@_file_command("convolution-inverse", (
    "--tensor", "tensor_name", None, None, "Invert this H -> H tensor instead of the identity."))
def convolution_inverse_cmd(df, role_name, fmt, tensor_name):
    """Convolution inverse in Hom(H, H); the identity's inverse is the antipode."""
    _, h = _built(df, ("hopf_algebra",), role_name, fmt)
    f = LinearMap.identity(h.space) if tensor_name is None else df.tensor_map(tensor_name)
    if not (f.source.same_basis(h.space) and f.target.same_basis(h.space)):
        raise ValidationError(
            f"tensor {tensor_name!r} is a map {f.source.name} -> {f.target.name} "
            f"({f.source.dim} -> {f.target.dim}); "
            f"--tensor needs an H -> H map with H = {h.space.name}")
    inverse = convolution_inverse(f, h.coalg, h.alg)
    report = CheckReport(f"convolution inverse over {h.space.name}")
    report.add(CheckItem("two-sided convolution inverse exists", True))
    notes = [f"{h.space.label(j)} -> {term}" for j, term in _terms(inverse, df.field)]
    _finish(report, fmt, notes)


@_file_command("coinvariants")
def coinvariants_cmd(df, role_name, fmt):
    """Compute the coinvariant subalgebra of a cleft_extension role."""
    _, ce = _built(df, ("cleft_extension",), role_name, fmt)
    coinv = _braided.coinvariants(ce.comodule_algebra)
    report = CheckReport(f"coinvariants of {ce.space.name}")
    report.add(CheckItem("coinvariants carry an induced algebra", True))
    notes = [f"dimension: {coinv.algebra.space.dim}"]
    src = coinv.iota.source
    terms = _terms(coinv.iota, df.field)
    for j in range(src.dim):
        notes.append(f"{src.label(j)} = " + " + ".join(t for jj, t in terms if jj == j))
    _finish(report, fmt, notes)


if __name__ == "__main__":
    main()
