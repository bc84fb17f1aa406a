"""Start-up guards. Every CLI command is a fresh process that imports the
whole package, so whatever the import builds is paid by every command: a
``@dataclass`` generates and compiles its methods at import, and importing
``dataclasses`` pulls in ``copy`` too."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hopfcleft

MODULES = [
    importlib.import_module(f"{hopfcleft.__name__}.{info.name}")
    for info in pkgutil.iter_modules(hopfcleft.__path__)
]


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
    outside the package (``click.Command``) is called by that base."""
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
    top-level statements, the command bodies and click overrides, the
    benchmark (``bench/*.py`` and the words of ``BENCHMARK.json``), the
    README's Python examples and the theorem checks above; a definition is
    reached when a reached one references its name, and a static method
    only when it is read off its class, ``self`` or ``cls``. Test-only code
    belongs in the tests.

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
