"""Exact-arithmetic engine for two-cocycles and cleft extensions of Hopf
algebras in left braided categories."""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule ``name``, put in ``sys.modules`` and on the package
    behind a LazyLoader: its source is compiled and executed on its first
    attribute access. A submodule already imported is returned as it is."""
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = globals()[name] = module
    spec.loader.exec_module(module)
    return module
