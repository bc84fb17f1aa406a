"""Start-up guards. Every CLI command is a fresh process. It executes the
modules that ``import hopfcleft.cli`` loads eagerly, and then only the
modules it calls into: braided, cleft, cocycle, lifting and oracle are
registered lazily. Whatever a module builds when it is executed is paid
by every command that executes it: a ``@dataclass`` generates and compiles
its methods at import, and importing ``dataclasses`` pulls in ``copy``
too."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import hopfcleft

MODULES = [
    importlib.import_module(f"{hopfcleft.__name__}.{info.name}")
    for info in pkgutil.iter_modules(hopfcleft.__path__)
]


def _fresh(script: str, *args: str):
    """The JSON value that ``script`` prints on its last line of output, run
    with ``args`` in a fresh interpreter that imports the package under test."""
    package_root = os.path.dirname(os.path.dirname(hopfcleft.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_cli_imports_only_the_package_and_the_standard_library():
    """``import hopfcleft.cli`` in a fresh interpreter adds no module from
    outside the package and the standard library: the command line is
    parsed with argparse, not with a third-party parser such as click."""
    added = _fresh("import json, sys; before = set(sys.modules); import hopfcleft.cli; "
                   "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert "hopfcleft.cli" in added
    top = {name.partition(".")[0] for name in added}
    assert sorted(top - {hopfcleft.__name__} - sys.stdlib_module_names) == []


def test_the_cli_registers_every_module_but_the_fixtures():
    """``import hopfcleft.cli`` puts every module of the package but
    ``fixtures`` in ``sys.modules``, executed or lazily registered: the
    benchmark's tracer wraps the functions of the modules it finds there."""
    loaded = _fresh("import json, sys, hopfcleft.cli; print(json.dumps(sorted("
                    "n for n in sys.modules if n.startswith('hopfcleft.'))))")
    registered = [mod.__name__ for mod in MODULES if not mod.__name__.endswith(".fixtures")]
    assert loaded == sorted(registered)


# a script that runs the command its arguments name and prints its exit code
# and the modules of the package that it left unexecuted: a lazily registered
# module is not a plain module until its first attribute access, and type()
# reads no attribute
UNEXECUTED = """\
import json, sys, types
from hopfcleft import cli
try:
    cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print()
unexecuted = [name.partition(".")[2] for name, mod in sys.modules.items()
              if name.startswith("hopfcleft.") and type(mod) is not types.ModuleType]
print(json.dumps([code, sorted(unexecuted)]))
"""

# the trivial measuring of kC2 on the ground field, added to kc2_q.had
MEASURING = """\
space A: 1
tensor A_mul mul@A: (1, 1, 1)
tensor A_unit unit@A: (1, 1, 1)
tensor M_nu measuring@kC2,A: (1, 1, 1) (1, g, 1)
role measuring M: hopf=KC2 mul=A_mul nu=M_nu space=A unit=A_unit
"""


@pytest.mark.parametrize("command,shipped,added,unexecuted", [
    ("verify-hopf", "kc4_zeta4.had", "", ["cleft", "cocycle", "lifting", "oracle"]),
    ("convolution-inverse", "kc4_zeta4.had", "",
     ["braided", "cleft", "cocycle", "lifting", "oracle"]),
    ("verify-measuring", "kc2_q.had", MEASURING, ["cleft", "cocycle", "lifting", "oracle"]),
], ids=["verify-hopf", "convolution-inverse", "verify-measuring"])
def test_a_command_executes_only_the_modules_it_uses(command, shipped, added, unexecuted,
                                                      tmp_path):
    path = tmp_path / shipped
    path.write_text(resources.files(hopfcleft).joinpath("data", shipped).read_text() + added)
    assert _fresh(UNEXECUTED, command, str(path), "--report", "json") == [0, unexecuted]


def test_executing_a_lazy_module_imports_nothing_new():
    """Executing every lazily registered module adds no module to
    ``sys.modules``, so a loop over ``sys.modules`` that reads their
    attributes (as the benchmark's self-test does) never sees it grow."""
    lazy, added = _fresh("""\
import json, sys, types, hopfcleft.cli
lazy = [mod for name, mod in sys.modules.items()
        if name.startswith("hopfcleft.") and type(mod) is not types.ModuleType]
before = set(sys.modules)
for mod in lazy:
    vars(mod)
print(json.dumps([len(lazy), sorted(set(sys.modules) - before)]))
""")
    assert (lazy, added) == (5, [])


def test_no_module_imports_dataclasses():
    assert len(MODULES) > 10
    for mod in MODULES:
        for node in ast.walk(ast.parse(Path(mod.__file__).read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), mod.__name__


def test_no_class_is_a_dataclass():
    classes = [
        obj for mod in MODULES for obj in vars(mod).values()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    assert len(classes) > 26
    assert [c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


# (module, function, imported module) of each import inside a function that
# breaks a real import cycle: lifting imports oracle, and braided imports hopf
DEFERRED_IMPORTS = {
    ("oracle", "zprime_sweep", "lifting"),
    ("hopf", "yd", "braided"),
}


def test_package_imports_are_deferred_only_to_break_a_cycle():
    """A package import inside a function hides a dependency from the top of
    the module; it is kept only where importing at the top would be a cycle."""
    deferred = set()
    for mod in MODULES:
        tree = ast.parse(Path(mod.__file__).read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    if name.startswith(".") or name.split(".")[0] == hopfcleft.__name__:
                        deferred.add((mod.__name__.rpartition(".")[2], fn.name, name.lstrip(".")))
    assert deferred == DEFERRED_IMPORTS


# the functions outside fields.py that see a Scalar, exactly the two that the
# benchmark reads: a map's entries view (its map-size counter) and twist (whose
# Scalar products it counts). Every report prints raw values.
SCALAR_SITES = {"linalg.LinearMap.entries", "hopf.twist"}


def _scalar_sites(node, scope: str, maps: set, sites: set):
    """Add to ``sites`` the scope of every reference to ``Scalar``, read of
    ``.entries``, call of ``.scalar()``, ``.zero()`` or ``.one()``, and
    subscript of a parameter annotated ``LinearMap`` (the ``m[i, j]`` view)
    under ``node``; ``maps`` holds the names of those parameters."""
    if isinstance(node, ast.ClassDef):
        scope, maps = f"{scope}.{node.name}", set()
    elif isinstance(node, ast.FunctionDef):
        scope = f"{scope}.{node.name}"
        args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        maps = {a.arg for a in args if getattr(a.annotation, "id", None) == "LinearMap"}
    if (
        getattr(node, "id", None) == "Scalar"
        or getattr(node, "attr", None) == "Scalar"
        or isinstance(node, ast.Attribute) and node.attr == "entries"
        and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Call) and getattr(node.func, "attr", None) in {"scalar", "zero", "one"}
        or isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in maps
    ):
        sites.add(scope)
    for child in ast.iter_child_nodes(node):
        _scalar_sites(child, scope, maps, sites)


def test_scalar_stays_at_the_boundary():
    """Values enter the engine raw, through FieldSpec.value; a Scalar is met
    only in fields.py and at the exact sites above. Import statements hold
    no Name node, so they are not sites."""
    sites: set = set()
    for mod in MODULES:
        module = mod.__name__.rpartition(".")[2]
        if module != "fields":
            _scalar_sites(ast.parse(Path(mod.__file__).read_text()), module, set(), sites)
    assert sites == SCALAR_SITES


ROOT = Path(__file__).resolve().parents[1]

# checks of the paper's theorems that only the acceptance tests run, kept in
# the package: check_mu_sigma_associativity (criterion 3), sigma_recovery
# (criterion 4) and iso_to_crossed (criterion 5)
THEOREM_CHECKS = {
    "cocycle.check_mu_sigma_associativity", "cocycle.sigma_recovery", "cleft.iso_to_crossed"}


def _references(nodes, names: set, owned: set):
    """Add the names that ``nodes`` reference, as a ``Name`` or as the name
    of an ``Attribute``, to ``names``, and the (owner, name) pairs of the
    attributes read off a plain name, such as ``LinearMap.identity``, to
    ``owned``."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.value, ast.Name):
                    owned.add((node.value.id, node.attr))


def _definitions(mod):
    """(qualified name, name, owning class or None, static, called from
    outside, the nodes it reaches once reached) of each top-level function
    and class and each non-dunder method of module ``mod``. A class reaches
    its bases, decorators, attributes and dunder methods; a function or
    method reaches its decorators and body. A command body is called by the
    command line, and a method that overrides one of a base class from
    outside the package (such as a standard-library class) is called by
    that base."""
    module = mod.__name__.rpartition(".")[2]
    for node in ast.parse(Path(mod.__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            command = any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_file_command"
                for d in node.decorator_list)
            yield f"{module}.{node.name}", node.name, None, False, command, [node]
        elif isinstance(node, ast.ClassDef):
            methods = [fn for fn in node.body if isinstance(fn, ast.FunctionDef)
                       and not (fn.name.startswith("__") and fn.name.endswith("__"))]
            rest = [stmt for stmt in node.body if stmt not in methods]
            yield (f"{module}.{node.name}", node.name, None, False, False,
                   [*node.bases, *node.keywords, *node.decorator_list, *rest])
            outside = [base for base in getattr(mod, node.name).__mro__[1:]
                       if base.__module__.split(".")[0] != hopfcleft.__name__]
            for fn in methods:
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                override = any(fn.name in vars(base) for base in outside)
                yield f"{module}.{node.name}.{fn.name}", fn.name, node.name, static, override, [fn]


def test_every_package_function_is_reached_outside_the_tests():
    """Each top-level function and class and each non-dunder method of the
    package is reached from outside the tests. The roots are the modules'
    top-level statements, the command bodies, the overrides of methods of
    bases outside the package, the benchmark (``bench/*.py`` and the words
    of ``BENCHMARK.json``), the README's Python examples and the theorem
    checks above; a definition is reached when a reached one references its
    name, and a static method only when it is read off its class, ``self``
    or ``cls``. Test-only code belongs in the tests.

    The scan matches names, not types: a method that shares its name with
    another class's method is reached by every attribute of that name."""
    readme = (ROOT / "README.md").read_text()
    roots = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    roots += [ast.parse(block.split("```", 1)[0]) for block in readme.split("```python\n")[1:]]
    roots += [stmt for mod in MODULES for stmt in ast.parse(Path(mod.__file__).read_text()).body
              if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    pending = []
    for mod in MODULES:
        for *definition, called, reaches in _definitions(mod):
            if called:
                roots += reaches
            else:
                pending.append((*definition, reaches))
    names = set(re.findall(r"\w+", (ROOT / "BENCHMARK.json").read_text()))
    owned: set = set()
    _references(roots, names, owned)
    grew = True
    while grew:
        grew = False
        for definition in list(pending):
            qualname, name, owner, static, reaches = definition
            if static:
                reached = {(owner, name), ("self", name), ("cls", name)} & owned
            else:
                reached = name in names or qualname in THEOREM_CHECKS
            if reached:
                pending.remove(definition)
                _references(reaches, names, owned)
                grew = True
    unreached = [qualname for qualname, *_ in pending]
    assert not unreached, "reached only from the tests: " + ", ".join(unreached)


def test_every_top_level_import_is_used():
    """No linter runs on the package, so an import that a deletion left
    behind is caught here: each name a module imports at top level is read
    somewhere in that module (``from __future__ import annotations`` binds
    no name)."""
    for mod in MODULES:
        tree = ast.parse(Path(mod.__file__).read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], mod.__name__


# the only functions outside linalg.py that loop over a map's sparse columns
# or rows: the two convolution kernels, which a compose chain would run about
# twice as slowly, and gr_check's one scan of a difference of products
RAW_LOOP_SITES = {"hopf.convolution", "hopf.convolution_inverse", "lifting.gr_check"}


def _attribute_sites(node, scope: str, attrs: set, sites: set):
    """Add to ``sites`` the scope of every attribute named in ``attrs``
    under ``node``."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope = f"{scope}.{node.name}"
    if isinstance(node, ast.Attribute) and node.attr in attrs:
        sites.add(scope)
    for child in ast.iter_child_nodes(node):
        _attribute_sites(child, scope, attrs, sites)


def test_raw_loops_run_only_in_the_convolution_kernels_and_gr_check():
    """``compose`` is the one contraction: outside linalg.py a map's kernel
    groupings ``_raw_columns()`` and ``_raw_rows()`` are read only at the
    sites above, and every other product of maps is a composition."""
    sites: set = set()
    for mod in MODULES:
        module = mod.__name__.rpartition(".")[2]
        if module != "linalg":
            tree = ast.parse(Path(mod.__file__).read_text())
            _attribute_sites(tree, module, {"_raw_columns", "_raw_rows"}, sites)
    assert sites == RAW_LOOP_SITES
