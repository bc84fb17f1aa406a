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
