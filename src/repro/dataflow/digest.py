"""Structural, streamed digests of plan parts — DoFns, node extras and
eager-source shards — for :meth:`Pipeline._compute_digest`.

A part is pickled by a :class:`pickle.Pickler` subclass whose "file" is
the hash: frames and large buffers go straight into SHA-256, no
intermediate ``bytes``.  Everything pickles as the stdlib pickles it,
except the two things the stdlib cannot pickle and cloudpickle pickles
with the checkout baked in, and the one it pickles in an order that
depends on the process:

- a **by-value function** (a lambda, a nested function, anything under
  ``__main__`` — whatever is not importable as ``module.qualname``)
  reduces to its module name, its qualname and a *structural code
  digest*, with its defaults, keyword defaults, closure-cell contents,
  the globals its code (and the code nested in it) names, and its
  ``__dict__`` as pickle *state*.  State is written after the function
  is memoised, so self- and mutually-recursive closures terminate;
- a **module** reduces to its name;
- a **set** or **frozenset** (exactly those types) writes its elements
  sorted by their own digests, not in hash-table order — which for
  strings is ``PYTHONHASHSEED`` order, and can differ between two copies
  of one set.

The code digest covers what the code *does* — ``co_code``, constants
(recursively; a ``frozenset`` constant in sorted order, so the digest
does not move with ``PYTHONHASHSEED``), names, variable names, argument
counts, flags, the exception table — and nothing about where it was
written: no ``co_filename``, no ``co_firstlineno``, no line table.  A
checkout moved to another path, or an edit *above* a DoFn, leaves its
digest alone.  It is still sensitive to the Python minor version (through
the bytecode) and blind to library code reached by reference (an
importable function pickles as its name, as it always has).

Stdlib only, and nothing from ``repro.dataflow``: the recipe has no
dependency that could change under it.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import types
import weakref
from typing import Any, Optional, Tuple

__all__ = ["part_digest", "update_digest"]

#: Pinned rather than ``HIGHEST_PROTOCOL``: a newer interpreter must not
#: re-key every boundary by itself.
_PROTOCOL = 5

_EMPTY_CELL = "<empty cell>"

#: A frozenset, not a tuple: the hook sees every object pickled, and a
#: hashed lookup is the cheaper test.
_SET_TYPES = frozenset((set, frozenset))

_Summary = Tuple[str, Tuple[str, ...]]

#: code object -> (structural digest, sorted global-name candidates).
#: Code objects are immutable, so the entry never goes stale; weak, so a
#: discarded lambda's code is not kept alive.
_code_memo: "weakref.WeakKeyDictionary[types.CodeType, _Summary]" = (
    weakref.WeakKeyDictionary()
)


def _by_value(*_args):  # pragma: no cover - digest streams are write-only
    """Reduce target of by-value functions and modules (pickled by
    reference into the stream; never called — nothing loads a digest)."""
    raise TypeError("a digest stream cannot be loaded")


def _const_token(const: Any) -> bytes:
    """Canonical, path-free rendering of one code constant."""
    if isinstance(const, types.CodeType):
        return b"code:" + _code_summary(const)[0].encode()
    if isinstance(const, frozenset):
        return b"{" + b",".join(sorted(map(_const_token, const))) + b"}"
    if isinstance(const, tuple):
        return b"(" + b",".join(map(_const_token, const)) + b")"
    return f"{type(const).__name__}:{const!r}".encode()


def _code_summary(code: types.CodeType) -> _Summary:
    """``(structural digest, names)`` of ``code``: the digest is free of
    paths and line numbers; ``names`` are the ``co_names`` of ``code`` and
    of every code object nested in it — the globals it may read."""
    cached = _code_memo.get(code)
    if cached is not None:
        return cached
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names.update(_code_summary(const)[1])
    h = hashlib.sha256(
        repr((
            code.co_name, code.co_argcount, code.co_posonlyargcount,
            code.co_kwonlyargcount, code.co_flags, code.co_code,
            code.co_names, code.co_varnames, code.co_freevars,
            code.co_cellvars, getattr(code, "co_exceptiontable", b""),
        )).encode()
    )
    h.update(_const_token(code.co_consts))
    summary = _code_memo[code] = (h.hexdigest(), tuple(sorted(names)))
    return summary


def _importable(fn: types.FunctionType) -> bool:
    """Would ``module.qualname`` give back ``fn`` in another process?"""
    module = sys.modules.get(fn.__module__)
    if module is None or fn.__module__ == "__main__":
        return False
    obj: Any = module
    try:
        for name in fn.__qualname__.split("."):
            obj = getattr(obj, name)
    except AttributeError:  # "<locals>" ends every nested function's walk
        return False
    return obj is fn


def _reduce_function(fn: types.FunctionType):
    digest, names = _code_summary(fn.__code__)
    cells = []
    for cell in fn.__closure__ or ():
        try:
            cells.append(cell.cell_contents)
        except ValueError:
            cells.append(_EMPTY_CELL)
    fn_globals = fn.__globals__
    state = (
        fn.__defaults__,
        fn.__kwdefaults__,
        tuple(cells),
        {name: fn_globals[name] for name in names if name in fn_globals},
        fn.__dict__,
    )
    return _by_value, (fn.__module__, fn.__qualname__, digest), state


def _element_digest(obj: Any) -> bytes:
    h = hashlib.sha256()
    update_digest(h, obj)
    return h.digest()


class _DigestPickler(pickle.Pickler):
    def persistent_id(self, obj: Any):
        # The one hook the C pickler consults before its fast path for
        # exact sets (``reducer_override`` never sees them).  Iteration
        # order is the hash table's: hash-seed order for strings, and two
        # copies of one set may differ.
        if type(obj) in _SET_TYPES:
            return type(obj).__name__, sorted(obj, key=_element_digest)
        return None

    def reducer_override(self, obj: Any):
        if isinstance(obj, types.FunctionType):
            if _importable(obj):
                return NotImplemented  # by reference, as the stdlib does it
            return _reduce_function(obj)
        if isinstance(obj, types.ModuleType):
            return _by_value, (obj.__name__,)
        return NotImplemented


def update_digest(h: Any, obj: Any) -> None:
    """Stream ``obj``'s structural pickle into the hash object ``h``.

    Raises whatever the pickler raises for an object it cannot reduce (a
    lock, a generator, an instance of a local class, …)."""
    # The pickler's "file" is the hash: ``write`` is ``update``.
    sink = types.SimpleNamespace(write=h.update)
    _DigestPickler(sink, protocol=_PROTOCOL).dump(obj)


def part_digest(obj: Any) -> Optional[bytes]:
    """SHA-256 of ``obj``'s structural pickle; ``None`` when ``obj``
    cannot be reduced — the caller's "not checkpointable"."""
    h = hashlib.sha256()
    try:
        update_digest(h, obj)
    except Exception:
        return None
    return h.digest()
