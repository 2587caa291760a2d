"""Lazy package surfaces (PEP 562).

Each ``repro`` package ``__init__`` declares one table
``{module: (names...)}`` and hands it to :func:`lazy_surface`, which
returns the package's ``__getattr__``, ``__dir__`` and ``__all__``.  A
module is imported the first time one of its names, or the submodule
itself, is read from the package; the value is then stored in the
package's globals, so later reads are plain attribute lookups.

A table key is a submodule name (``"dtd"``) or a relative module path
(``"..errors"``) for names the package re-exports from elsewhere; only
plain submodule names resolve as package attributes.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_surface(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``table``.

    A name that is also a submodule's name (``repro.testing.shrink``) is
    bound at once: the import system sets the submodule as a package
    attribute the first time any sibling imports it, which would
    otherwise hide the exported name for good.
    """
    owner = {}
    for module, names in table.items():
        for name in names:
            if name in owner:
                raise ValueError(f"{package}: {name!r} is exported by both {owner[name]!r} and {module!r}")
            owner[name] = module

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            if name.startswith(".") or name not in table:
                raise AttributeError(f"module {package!r} has no attribute {name!r}")
            value = importlib.import_module(f"{package}.{name}")
        else:
            path = module if module.startswith(".") else f".{module}"
            value = getattr(importlib.import_module(path, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        public = {name for name in table if not name.startswith(".")}
        return sorted(public.union(owner, vars(sys.modules[package])))

    for name in owner:
        if name in table:
            __getattr__(name)
    return __getattr__, __dir__, list(owner)
