"""Command-line driver.

Every command reads definition files (see io.py for the format), prints a
deterministic report in text or JSON and exits with 0 when all checks pass,
1 when an axiom or verification fails, 2 on input errors and 3 when an
identity guaranteed by a proved statement fails (a bug here, not in the
input). Constructive commands additionally write their result as a
definition file.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import io
from .braided import (
    check_braiding_axioms,
    check_measuring,
    check_yd,
    coinvariants,
)
from .cleft import crossed_to_cleft, functor_F, round_trip_check, check_cleft, cocycle_from_section
from .cocycle import check_cocycle, crossed_product, smash_product, trivial_sigma
from .errors import (
    AxiomFailure,
    FactorizationFailure,
    HopfcleftError,
    NotHopf,
    NotInvertible,
    TheoremViolation,
    ValidationError,
)
from .hopf import check_hopf, convolution_inverse
from .lifting import (
    bosonize,
    check_cprime_section,
    check_graded,
    cleft_prime_census,
    deform,
    gr_check,
    phi,
    phi_inverse,
    psi,
    sigma_gamma_restricts,
)
from .linalg import LinearMap
from .oracle import (
    CENSUS_BOUND,
    DEFAULT_BOUND,
    enumerate_cocycles,
    enumerate_zprime,
    oracle_convolution_inverse,
)
from .report import CheckItem, CheckReport

FIXTURE_DIR_VAR = "HOPFCLEFT_FIXTURE_DIR"

_CHECK_ERRORS = (AxiomFailure, NotHopf, NotInvertible, FactorizationFailure)


def _resolve(path: str) -> str:
    """Look the file up directly, then in the fixture directory."""
    if os.path.exists(path):
        return path
    fixture_dir = os.environ.get(FIXTURE_DIR_VAR)
    if fixture_dir:
        candidate = os.path.join(fixture_dir, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load(path: str) -> io.DefinitionFile:
    return io.load(_resolve(path))


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


def _report_dict(report: CheckReport) -> dict:
    return {
        "subject": report.subject,
        "ok": report.ok,
        "items": [
            {"name": i.name, "ok": i.ok, "witness": i.witness} for i in report.items
        ],
    }


def _emit(report: CheckReport, fmt: str, extra_lines: list[str] | None = None):
    if fmt == "json":
        payload = _report_dict(report)
        if extra_lines:
            payload["notes"] = extra_lines
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in report.lines():
            click.echo(line)
        for line in extra_lines or []:
            click.echo(line)


def _finish(report: CheckReport, fmt: str, extra_lines: list[str] | None = None):
    _emit(report, fmt, extra_lines)
    sys.exit(0 if report.ok else 1)


def _command_errors(func):
    """Map exceptions onto the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except TheoremViolation as exc:
            click.echo(f"internal error: theorem violated: {exc}", err=True)
            sys.exit(3)
        except _CHECK_ERRORS as exc:
            click.echo(f"check failed: {exc}", err=True)
            sys.exit(1)
        except (HopfcleftError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    wrapper.__name__ = func.__name__
    wrapper.__doc__ = func.__doc__
    return wrapper


_fmt_option = click.option(
    "--report", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="Report output shape.")
_role_option = click.option("--role", "role_name", default=None, help="Role to use.")
_bound_option = click.option(
    "--bound", type=click.IntRange(min=1), default=DEFAULT_BOUND, show_default=True,
    help="Maximum number of candidates an exhaustive sweep may visit.")
_out_option = click.option(
    "--out", "out_path", default=None, help="Write the result as a definition file.")


@click.group()
@click.version_option()
def main():
    """Exact verification and construction for Hopf-algebra cocycles,
    cleft extensions and liftings."""


@main.command("verify-hopf")
@click.argument("file")
@_role_option
@_fmt_option
@_command_errors
def verify_hopf(file, role_name, fmt):
    """Check all Hopf algebra axioms for a hopf_algebra or graded_yd_hopf role."""
    df = _load(file)
    role = _find_role(df, ("hopf_algebra", "graded_yd_hopf"), role_name)
    obj = io.build(df, role.name)
    if role.kind == "hopf_algebra":
        report = check_hopf(obj)
    else:
        report = check_graded(obj)
    _finish(report, fmt)


@main.command("verify-yd")
@click.argument("file")
@_role_option
@_fmt_option
@_command_errors
def verify_yd(file, role_name, fmt):
    """Check the Yetter-Drinfeld axioms and the braiding axioms."""
    df = _load(file)
    role = _find_role(df, ("yd_module", "graded_yd_hopf"), role_name)
    obj = io.build(df, role.name)
    yd = obj if role.kind == "yd_module" else obj.hopf.yd
    report = check_yd(yd)
    report.extend(check_braiding_axioms(yd, yd, yd.module, yd.module))
    _finish(report, fmt)


@main.command("verify-measuring")
@click.argument("file")
@_role_option
@_fmt_option
@_command_errors
def verify_measuring(file, role_name, fmt):
    """Check the measuring conditions for a measuring role."""
    df = _load(file)
    role = _find_role(df, ("measuring",), role_name)
    _finish(check_measuring(io.build(df, role.name)), fmt)


def _cocycle_parts(df, role_name):
    role = _find_role(df, ("cocycle",), role_name)
    m = io.build(df, role.bindings["measuring"])
    sigma = df.tensor_map(role.bindings["sigma"])
    return m, sigma


@main.command("verify-cocycle")
@click.argument("file")
@_role_option
@_fmt_option
@_command_errors
def verify_cocycle(file, role_name, fmt):
    """Check convolution invertibility and the cocycle relations."""
    df = _load(file)
    m, sigma = _cocycle_parts(df, role_name)
    _, report = check_cocycle(m, sigma)
    _finish(report, fmt)


def _crossed_output(cp, out_path) -> list[str]:
    """Write a crossed product as a definition file with a cleft_extension
    role when the ambient is trivial, plain tensors otherwise."""
    hopf = cp.cocycle.measuring.hopf
    b = cp.comodule_algebra
    space = b.space
    notes = [f"crossed product space: {space.name} (dim {space.dim})"]
    if out_path is None:
        return notes
    product_space = io.file_space(space, "B")
    tensors = [
        io.role_tensor("B_mul", "mul", (product_space,), b.algebra.mul),
        io.role_tensor("B_unit", "unit", (product_space,), b.algebra.unit),
    ]
    if hopf.ambient.space.dim == 1:
        df = io.hopf_to_definition(hopf.hopf_data(), "H")
        df.spaces["B"] = product_space
        pair = (df.spaces[hopf.space.name], product_space)
        tensors.append(io.role_tensor("B_coaction", "right_coaction", pair, b.coaction))
        tensors.append(io.role_tensor("B_section", "section", pair, crossed_to_cleft(cp).gamma))
        for t in tensors:
            df.tensors[t.name] = t
        df.roles["B"] = io.Role("cleft_extension", "B", {
            "hopf": "H", "space": "B", "mul": "B_mul", "unit": "B_unit",
            "coaction": "B_coaction", "section": "B_section",
        })
    else:
        df = io.DefinitionFile(space.field)
        df.spaces["B"] = product_space
        for t in tensors:
            df.tensors[t.name] = t
    io.save(df, out_path)
    notes.append(f"wrote {out_path}")
    return notes


@main.command("crossed-product")
@click.argument("file")
@_role_option
@_fmt_option
@_out_option
@_command_errors
def crossed_product_cmd(file, role_name, fmt, out_path):
    """Build and verify the crossed product of a cocycle role."""
    df = _load(file)
    m, sigma = _cocycle_parts(df, role_name)
    cocycle, report = check_cocycle(m, sigma)
    if cocycle is None:
        _finish(report, fmt)
    cp = crossed_product(cocycle)
    _finish(report, fmt, _crossed_output(cp, out_path))


@main.command("smash")
@click.argument("file")
@_role_option
@_fmt_option
@_out_option
@_command_errors
def smash(file, role_name, fmt, out_path):
    """Build the smash product of a measuring role (trivial cocycle)."""
    df = _load(file)
    role = _find_role(df, ("measuring",), role_name)
    m = io.build(df, role.name)
    cocycle, report = check_cocycle(m, trivial_sigma(m))
    if cocycle is None:
        _finish(report, fmt)
    cp = smash_product(m)
    _finish(report, fmt, _crossed_output(cp, out_path))


@main.command("cleft-from-cocycle")
@click.argument("file")
@_role_option
@_fmt_option
@_out_option
@_command_errors
def cleft_from_cocycle(file, role_name, fmt, out_path):
    """Crossed product with its canonical section, verified as a cleft extension."""
    df = _load(file)
    m, sigma = _cocycle_parts(df, role_name)
    cocycle, report = check_cocycle(m, sigma)
    if cocycle is None:
        _finish(report, fmt)
    ce = functor_F(cocycle)
    cleft_report = check_cleft(ce)
    report.extend(cleft_report)
    notes = _crossed_output(crossed_product(cocycle), out_path)
    _finish(report, fmt, notes)


@main.command("cocycle-from-cleft")
@click.argument("file")
@_role_option
@_fmt_option
@_command_errors
def cocycle_from_cleft(file, role_name, fmt):
    """Extract and verify the cocycle of a cleft extension role."""
    df = _load(file)
    role = _find_role(df, ("cleft_extension",), role_name)
    ce = io.build(df, role.name)
    report = check_cleft(ce)
    if not report.ok:
        _finish(report, fmt)
    m, cocycle, cocycle_report = cocycle_from_section(ce)
    report.extend(cocycle_report)
    notes = [f"coinvariants: {m.space.name} (dim {m.space.dim})"]
    for (i, j) in sorted(cocycle.sigma.entries):
        v = df.field.format(cocycle.sigma.entries[(i, j)])
        notes.append(
            f"sigma({cocycle.sigma.source.labels[j]}) = {v} {cocycle.sigma.target.labels[i]}")
    _finish(report, fmt, notes)


@main.command("round-trip")
@click.argument("file")
@_role_option
@_fmt_option
@_command_errors
def round_trip(file, role_name, fmt):
    """Cocycle -> cleft extension -> cocycle recovers the input exactly."""
    df = _load(file)
    m, sigma = _cocycle_parts(df, role_name)
    cocycle, report = check_cocycle(m, sigma)
    if cocycle is None:
        _finish(report, fmt)
    report.extend(round_trip_check(cocycle))
    _finish(report, fmt)


@main.command("bosonize")
@click.argument("file")
@_role_option
@_fmt_option
@_out_option
@_command_errors
def bosonize_cmd(file, role_name, fmt, out_path):
    """Build and verify the bosonization of a graded_yd_hopf role."""
    df = _load(file)
    role = _find_role(df, ("graded_yd_hopf",), role_name)
    g = io.build(df, role.name)
    report = check_graded(g)
    if not report.ok:
        _finish(report, fmt)
    b = bosonize(g)
    notes = [f"bosonization: dim {b.space.dim}"]
    if out_path is not None:
        out = io.hopf_to_definition(b.hopf, "HB")
        io.save(out, out_path)
        notes.append(f"wrote {out_path}")
    report.add(CheckItem("bosonization passes the Hopf axioms", True))
    _finish(report, fmt, notes)


def _boson_and_sigma(df, role_name, index, bound):
    role = _find_role(df, ("graded_yd_hopf",), role_name)
    g = io.build(df, role.name)
    b = bosonize(g)
    sigmas = enumerate_zprime(b, bound)
    if not 0 <= index < len(sigmas):
        raise ValidationError(
            f"--sigma-index {index} out of range; {len(sigmas)} restricted cocycles exist")
    return b, sigmas[index]


_sigma_index_option = click.option(
    "--sigma-index", default=0, show_default=True,
    help="Index into the deterministic enumeration of restricted cocycles.")


@main.command("phi")
@click.argument("file")
@_role_option
@_fmt_option
@_command_errors
def phi_cmd(file, role_name, fmt):
    """Extend a braided scalar cocycle on R to the bosonization."""
    df = _load(file)
    m, sigma = _cocycle_parts(df, role_name)
    cocycle, report = check_cocycle(m, sigma)
    if cocycle is None:
        _finish(report, fmt)
    grole = _find_role(df, ("graded_yd_hopf",), None)
    b = bosonize(io.build(df, grole.name))
    result = phi(b, cocycle)
    report.extend(result.report)
    _finish(report, fmt)


@main.command("phi-inverse")
@click.argument("file")
@_role_option
@_fmt_option
@_bound_option
@_sigma_index_option
@_command_errors
def phi_inverse_cmd(file, role_name, fmt, bound, sigma_index):
    """Restrict a scalar cocycle on the bosonization back to the braided factor."""
    df = _load(file)
    b, s = _boson_and_sigma(df, role_name, sigma_index, bound)
    pi = phi_inverse(s)
    report = s.report
    report.add(CheckItem("restriction is a braided cocycle", pi.verified))
    again = phi(b, pi)
    report.add(CheckItem("phi of the restriction recovers sigma", again.sigma == s.sigma))
    _finish(report, fmt)


@main.command("psi")
@click.argument("file")
@_role_option
@_fmt_option
@_bound_option
@_sigma_index_option
@_command_errors
def psi_cmd(file, role_name, fmt, bound, sigma_index):
    """Induce an H-cleft object from the R-cleft object of a restricted cocycle."""
    df = _load(file)
    b, s = _boson_and_sigma(df, role_name, sigma_index, bound)
    r_cleft = functor_F(phi_inverse(s))
    ce = psi(b, r_cleft)
    report = check_cleft(ce)
    report.extend(check_cprime_section(b, ce))
    back, back_report = sigma_gamma_restricts(b, ce)
    report.extend(back_report)
    report.add(CheckItem(
        "section cocycle recovers sigma", back.sigma == s.sigma))
    _finish(report, fmt)


@main.command("deform")
@click.argument("file")
@_role_option
@_fmt_option
@_bound_option
@_sigma_index_option
@_out_option
@_command_errors
def deform_cmd(file, role_name, fmt, bound, sigma_index, out_path):
    """Deform the bosonization by a restricted cocycle."""
    df = _load(file)
    b, s = _boson_and_sigma(df, role_name, sigma_index, bound)
    deformed = deform(b, s)
    report = CheckReport(f"deformation of {b.space.name}")
    report.add(CheckItem("deformed bialgebra passes the Hopf axioms", True))
    notes = []
    if out_path is not None:
        io.save(io.hopf_to_definition(deformed, "HD"), out_path)
        notes.append(f"wrote {out_path}")
    _finish(report, fmt, notes)


@main.command("gr-check")
@click.argument("file")
@_role_option
@_fmt_option
@_bound_option
@_sigma_index_option
@_command_errors
def gr_check_cmd(file, role_name, fmt, bound, sigma_index):
    """Deform, then verify the associated graded product is undeformed."""
    df = _load(file)
    b, s = _boson_and_sigma(df, role_name, sigma_index, bound)
    _finish(gr_check(b, deform(b, s)), fmt)


@main.command("census")
@click.argument("file")
@_role_option
@_fmt_option
@click.option("--bound", type=click.IntRange(min=1), default=CENSUS_BOUND, show_default=True,
              help="Maximum number of candidates a restricted-cocycle sweep may "
                   "visit, and of values one twisting search may try.")
@_command_errors
def census(file, role_name, fmt, bound):
    """Enumerate restricted cocycles, run both cleft-object constructions and
    classify the results up to comodule algebra isomorphism."""
    df = _load(file)
    role = _find_role(df, ("graded_yd_hopf",), role_name)
    b = bosonize(io.build(df, role.name))
    result = cleft_prime_census(b, bound)
    notes = [f"restricted cocycles: {len(result.sigmas)}"]
    for k, cls in enumerate(result.classes):
        members = ", ".join(str(i) for i in cls)
        notes.append(f"class {k}: cocycle indices [{members}]")
    _finish(result.report, fmt, notes)


@main.command("oracle")
@click.argument("file")
@_role_option
@_fmt_option
@_bound_option
@_command_errors
def oracle(file, role_name, fmt, bound):
    """Exhaustive-search cross-checks of the closed-form constructions."""
    df = _load(file)
    report = CheckReport(f"oracle sweeps over {df.field}")
    notes = []
    for role in sorted(df.roles.values(), key=lambda r: r.name):
        if role_name is not None and role.name != role_name:
            continue
        if role.kind == "hopf_algebra":
            h = io.build(df, role.name)
            found = oracle_convolution_inverse(
                LinearMap.identity(h.space), h.coalg, h.alg, bound)
            report.add(CheckItem(
                f"{role.name}: antipode matches the exhaustive search",
                found == h.antipode))
        elif role.kind == "measuring":
            m = io.build(df, role.name)
            cocycles = enumerate_cocycles(m, bound)
            notes.append(f"{role.name}: {len(cocycles)} cocycles")
            report.add(CheckItem(f"{role.name}: cocycle sweep completed", True))
        elif role.kind == "graded_yd_hopf":
            g = io.build(df, role.name)
            b = bosonize(g)
            sigmas = enumerate_zprime(b, bound)
            notes.append(f"{role.name}: {len(sigmas)} restricted cocycles")
            report.add(CheckItem(f"{role.name}: restricted sweep completed", True))
    if not report.items:
        raise ValidationError("no role suitable for an oracle sweep")
    _finish(report, fmt, notes)


@main.command("convolution-inverse")
@click.argument("file")
@_role_option
@_fmt_option
@click.option("--tensor", "tensor_name", default=None,
              help="Invert this H -> H tensor instead of the identity.")
@_command_errors
def convolution_inverse_cmd(file, role_name, fmt, tensor_name):
    """Convolution inverse in Hom(H, H); the identity's inverse is the antipode."""
    df = _load(file)
    role = _find_role(df, ("hopf_algebra",), role_name)
    h = io.build(df, role.name)
    f = LinearMap.identity(h.space) if tensor_name is None else df.tensor_map(tensor_name)
    if not (f.source.same_basis(h.space) and f.target.same_basis(h.space)):
        raise ValidationError(
            f"tensor {tensor_name!r} is a map {f.source.name} -> {f.target.name} "
            f"({f.source.dim} -> {f.target.dim}); "
            f"--tensor needs an H -> H map with H = {h.space.name}")
    inverse = convolution_inverse(f, h.coalg, h.alg)
    report = CheckReport(f"convolution inverse over {h.space.name}")
    report.add(CheckItem("two-sided convolution inverse exists", True))
    notes = []
    for (i, j) in sorted(inverse.entries):
        v = df.field.format(inverse.entries[(i, j)])
        notes.append(f"{h.space.labels[j]} -> {v} {h.space.labels[i]}")
    _finish(report, fmt, notes)


@main.command("coinvariants")
@click.argument("file")
@_role_option
@_fmt_option
@_command_errors
def coinvariants_cmd(file, role_name, fmt):
    """Compute the coinvariant subalgebra of a cleft_extension role."""
    df = _load(file)
    role = _find_role(df, ("cleft_extension",), role_name)
    ce = io.build(df, role.name)
    coinv = coinvariants(ce.comodule_algebra)
    report = CheckReport(f"coinvariants of {ce.space.name}")
    report.add(CheckItem("coinvariants carry an induced algebra", True))
    notes = [f"dimension: {coinv.algebra.space.dim}"]
    src = coinv.iota.source
    for j in range(src.dim):
        terms = []
        for (i, jj) in sorted(coinv.iota.entries):
            if jj == j:
                v = df.field.format(coinv.iota.entries[(i, jj)])
                terms.append(f"{v} {coinv.iota.target.labels[i]}")
        notes.append(f"{src.labels[j]} = " + " + ".join(terms))
    _finish(report, fmt, notes)


if __name__ == "__main__":
    main()
