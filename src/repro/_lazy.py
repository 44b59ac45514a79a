"""Lazy package re-exports (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
declares them once, as ``name -> submodule``, and imports a submodule
the first time one of its names is read::

    _EXPORTS = {"Network": ".topology", "Link": ".link"}
    __all__ = sorted(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

So ``from repro.scale import run_sharded`` loads the modules that
``run_sharded`` needs, not every module the package holds.
"""

from __future__ import annotations

import importlib
import typing


def lazy_exports(namespace: dict, exports: typing.Mapping[str, str]):
    """The module-level ``__getattr__`` and ``__dir__`` for ``namespace``."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module_name, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
