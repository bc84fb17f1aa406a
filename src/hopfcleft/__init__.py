"""Exact-arithmetic engine for two-cocycles and cleft extensions of Hopf
algebras in left braided categories.

The submodules in ``_LAZY_MODULES`` are registered here, before any of them
can be imported, behind a LazyLoader: each is compiled and executed on its
first attribute access, so a command executes only the modules it calls
into. Importers reach them as module objects (``from . import lifting``),
which reads no attribute. That also breaks the two import cycles, hopf with
braided and oracle with lifting: each side may import the other at its top."""

import importlib.util
import sys

__version__ = "0.1.0"

_LAZY_MODULES = ("braided", "cleft", "cocycle", "lifting", "oracle")


def _lazy(name: str):
    """Put the submodule ``name`` in ``sys.modules`` and on the package
    behind a LazyLoader."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = globals()[name] = module
    spec.loader.exec_module(module)


for _name in _LAZY_MODULES:
    _lazy(_name)
