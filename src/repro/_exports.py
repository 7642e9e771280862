"""Package names that resolve on first use.

A package re-exports the names of its subsystems so callers can write
``from repro.relational import SegmentShipper``.  Importing every subsystem
up front would make each process compile modules it never calls, so a
package lists its optional names here instead: the module that defines a
name is imported the first time the name is read (PEP 562), and the value is
then stored on the package so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(package: str, modules: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``modules`` maps a submodule (relative to ``package``) to the names it
    defines that the package re-exports.  ``dir(package)`` lists them before
    they are loaded.
    """
    origin = {name: f"{package}.{module}"
              for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
