"""PEP 562 re-exports for package ``__init__`` modules.

A package whose ``__init__`` imports every submodule makes each process
that touches any part of it pay for all of it — a worker daemon that
only runs stages would compile the selector, the service and the data
presets.  :func:`lazy_exports` lets an ``__init__`` keep its public
surface (``__all__``, ``from pkg import X``, ``from pkg import *``,
``dir()``) while importing a re-exported name's submodule only on the
first read of that name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps each public name to the submodule that defines it,
    relative to ``package`` (``".options"``).  The first read of a name
    imports its submodule and binds the value in the package namespace,
    so later reads are plain attribute lookups.  A name must not also be
    a submodule of ``package``: importing that submodule would bind the
    module over the name.
    """

    def __getattr__(name: str) -> object:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
