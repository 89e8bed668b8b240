"""Package re-exports that load their module on first use (PEP 562).

A package ``__init__`` that imported every module it re-exports would
make each CLI process load, and compile, the whole package even when it
runs one kernel.  A package instead declares where each exported name
lives::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.des.engine": ("Engine",),
    })

``repro.des.Engine`` and ``from repro.des import Engine`` then import
:mod:`repro.des.engine` when the name is first read, and cache the
value in the package namespace, so later reads are plain attribute
lookups.  ``from package import *`` resolves every name in ``__all__``
the same way; a name in no table raises :class:`AttributeError` as
usual.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """A package's module ``__getattr__`` and ``__dir__``.

    ``table`` maps a module path to the names the package re-exports
    from it.
    """
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__
