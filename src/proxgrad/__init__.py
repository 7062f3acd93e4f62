"""Composite-optimization solver: backtracking proximal gradient methods that
need no Lipschitz constants, with oracle libraries, trace diagnostics, and a
CLI for reproducible desk-scale experiments.  Public names load on first use."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = ("core", "diagnostics", "prox_oracles", "smooth_oracles", "solver")


def __getattr__(name):
    if name == "__all__":
        return [n for m in _MODULES for n in _import_module(f".{m}", __name__).__all__]
    # ``from . import diagnostics`` asks here first: a search would import all five
    if not (name.startswith("_") or name in _MODULES or name == "cli"):
        for module in (_import_module(f".{m}", __name__) for m in _MODULES):
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
