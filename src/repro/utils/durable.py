"""Durable files: the one atomic writer every store on disk goes through.

Checkpoints (:mod:`repro.dataflow.pcollection`), the adaptive planner's
history, the incremental driver's version file and the service's job
store all replace a file whole or not at all, with
:func:`write_atomic`.  Stdlib only, so a worker daemon can load it.
"""

from __future__ import annotations

import os
import uuid
from typing import Iterable

__all__ = ["write_atomic"]


def write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path``: a reader sees the old file or the
    whole new one, never a part of it.

    The bytes stream into ``f"{path}.tmp-{uuid4().hex}"``, which then
    replaces ``path`` in one ``os.replace``.  The temp name is unique, so
    concurrent writers of one path never share a temp file, and a
    checkpoint GC can tell a killed writer's ``.ckpt.tmp-`` leftover
    from an entry.  ``chunks`` is consumed lazily: a caller that yields
    one piece at a time keeps one piece resident.  On any failure the
    temp file is removed and the error re-raised, and ``path`` keeps
    what it held.
    """
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
