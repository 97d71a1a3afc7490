"""Durable files: the one writer and the one reader of every store on disk.

Checkpoints (:mod:`repro.dataflow.pcollection`), the adaptive planner's
history, the incremental driver's version file and the service's job
store all replace a file whole or not at all, with :func:`write_atomic`,
and read it back with :func:`read_verified`.

A file is its payload followed by a trailer: a magic tag, the payload's
length and its SHA-256.  A reader checks the trailer before any byte
reaches ``pickle`` or ``json``, so a torn file, a flipped byte, or a
file from before the trailer raises one typed :class:`CorruptFile`
instead of loading as something else.  Each store moves such a file
aside with :func:`quarantine` and carries on without it; the JSON stores
read through :func:`read_payload`, which does both.  There is no
fsync: a file lost with the machine reads as absent or corrupt, which
every store already survives.  Stdlib only, so a worker daemon can load
it.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import uuid
from contextlib import contextmanager
from typing import BinaryIO, Iterable, Iterator, Optional, Tuple

__all__ = [
    "CorruptFile",
    "quarantine",
    "read_payload",
    "read_verified",
    "write_atomic",
]

_MAGIC = b"repro-d1"
_TRAILER = struct.Struct(">8sQ32s")  # magic, payload length, SHA-256
_READ_CHUNK = 1 << 20


class CorruptFile(ValueError):
    """A durable file whose trailer does not vouch for its payload."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` and their trailer to ``path``: a reader sees the
    old file or the whole new one, never a part of it.

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
    digest = hashlib.sha256()
    length = 0
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
                length += len(chunk)
            fh.write(_TRAILER.pack(_MAGIC, length, digest.digest()))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Payload(io.RawIOBase):
    """The first ``length`` bytes of an open file, and nothing after."""

    def __init__(self, raw: BinaryIO, length: int) -> None:
        self._raw = raw
        self._left = length

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n


def _vouched(path: str, size: int, trailer: bytes) -> Tuple[int, bytes]:
    """The payload length and SHA-256 a file's trailer vouches for."""
    if size < _TRAILER.size:
        raise CorruptFile(path, "shorter than its trailer")
    magic, length, expected = _TRAILER.unpack(trailer)
    if magic != _MAGIC or length != size - _TRAILER.size:
        raise CorruptFile(path, "torn or unknown trailer")
    return length, expected


def _check(path: str, digest: bytes, expected: bytes) -> None:
    if digest != expected:
        raise CorruptFile(path, "payload does not match its SHA-256")


@contextmanager
def read_verified(path: str) -> Iterator[BinaryIO]:
    """Open a file :func:`write_atomic` wrote, as a binary stream over
    its payload alone.

    One streaming pass checks the trailer first, a chunk at a time, so
    a large file is never resident whole; a mismatch raises
    :class:`CorruptFile` before the caller reads a byte.  A missing file
    raises ``FileNotFoundError``.
    """
    with open(path, "rb", buffering=0) as raw:
        size = os.fstat(raw.fileno()).st_size
        raw.seek(max(0, size - _TRAILER.size))
        length, expected = _vouched(path, size, raw.read(_TRAILER.size))
        raw.seek(0)
        digest = hashlib.sha256()
        left = length
        while left:
            chunk = raw.read(min(_READ_CHUNK, left))
            digest.update(chunk)
            left -= len(chunk)
        _check(path, digest.digest(), expected)
        raw.seek(0)
        yield io.BufferedReader(_Payload(raw, length), _READ_CHUNK)


def quarantine(path: str) -> None:
    """Move a corrupt file aside as ``<path>.corrupt`` (replacing an
    older one), so the store rewrites ``path`` and the bytes stay for a
    post-mortem.  A file already gone is fine."""
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        pass


def read_payload(path: str) -> Optional[bytes]:
    """A small file's whole payload, or ``None`` when it is missing or
    corrupt — a corrupt one is moved aside first (:func:`quarantine`).
    Read whole, then checked: one read where :func:`read_verified`
    streams."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        trailer = data[-_TRAILER.size:]
        length, expected = _vouched(path, len(data), trailer)
        payload = data[:length]
        _check(path, hashlib.sha256(payload).digest(), expected)
        return payload
    except FileNotFoundError:
        return None
    except CorruptFile:
        quarantine(path)
        return None
