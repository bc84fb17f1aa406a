"""Start-up guards. Every CLI command is a fresh process that imports the
whole package, so whatever the import builds is paid by every command: a
``@dataclass`` generates and compiles its methods at import, and importing
``dataclasses`` pulls in ``copy`` too."""

import ast
import importlib
import inspect
import pkgutil
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
