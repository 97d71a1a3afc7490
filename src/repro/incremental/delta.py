"""Dataset versions and delta logs for incremental selection.

The incremental runtime models a *changing* dataset as an overlay over a
fixed ground set: a :class:`SubsetProblem` pins the similarity graph and
base utilities for ``n`` candidate ids once, and a :class:`DatasetVersion`
says which of those ids are currently **alive** and what their utilities
are right now.  Three mutation kinds evolve a version:

``append``
    Previously-dead ids become alive (optionally with fresh utilities) —
    new records arriving.
``update``
    Alive ids get new utilities — e.g. fresh margin scores after a model
    update.
``expire``
    Alive ids become dead — records aging out of the selection universe.

The ground set is cut into ``num_shards`` contiguous id ranges
(:func:`shard_bounds`), and :meth:`DatasetVersion.shard_payload` yields
exactly the (id, utility) pairs alive inside one range.  The
:class:`~repro.incremental.driver.IncrementalDriver` feeds each payload
to its own checkpointed branch, whose digest is keyed by that content —
so a delta invalidates only the shards whose ranges it touches, and the
engine's checkpoint lookup is the whole reuse decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distributed import fingerprint
from repro.utils.rng import SeedLike, as_generator

_KINDS = ("append", "update", "expire")


@dataclass(frozen=True)
class Delta:
    """One mutation batch: ``kind`` applied to ``ids`` at ``timestamp``.

    ``utilities`` aligns with ``ids`` for ``append``/``update``; it must
    be ``None`` for ``expire``.  ``timestamp`` is event time (seconds) —
    the windowed driver assigns deltas to windows by it.
    """

    kind: str
    ids: np.ndarray
    utilities: Optional[np.ndarray] = None
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"delta kind must be one of {_KINDS}, got {self.kind!r}")
        ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"delta ids must be 1-D, got shape {ids.shape}")
        if np.unique(ids).size != ids.size:
            raise ValueError("delta ids must be unique within one delta")
        object.__setattr__(self, "ids", ids)
        if self.kind == "expire":
            if self.utilities is not None:
                raise ValueError("expire deltas carry no utilities")
            return
        if self.utilities is not None:
            utilities = np.ascontiguousarray(self.utilities, dtype=np.float64)
            if utilities.shape != ids.shape:
                raise ValueError(
                    f"utilities shape {utilities.shape} does not match ids "
                    f"shape {ids.shape}"
                )
            if utilities.size and not np.isfinite(utilities).all():
                raise ValueError("delta utilities contain NaN or infinite values")
            object.__setattr__(self, "utilities", utilities)
        elif self.kind == "update":
            raise ValueError("update deltas must carry utilities")

    @property
    def num_records(self) -> int:
        return int(self.ids.size)


@dataclass
class DeltaLog:
    """Append-only, timestamp-ordered log of :class:`Delta` batches."""

    deltas: List[Delta] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._check_ordered(self.deltas)

    @staticmethod
    def _check_ordered(deltas: Sequence[Delta]) -> None:
        for prev, cur in zip(deltas, deltas[1:]):
            if cur.timestamp < prev.timestamp:
                raise ValueError(
                    "delta log must be ordered by timestamp "
                    f"({cur.timestamp} after {prev.timestamp})"
                )

    def record(self, delta: Delta) -> None:
        if self.deltas and delta.timestamp < self.deltas[-1].timestamp:
            raise ValueError(
                f"delta at t={delta.timestamp} precedes log tail "
                f"t={self.deltas[-1].timestamp}"
            )
        self.deltas.append(delta)

    def between(self, start: float, end: float) -> List[Delta]:
        """Deltas with ``start <= timestamp < end``."""
        return [d for d in self.deltas if start <= d.timestamp < end]

    @property
    def num_records(self) -> int:
        return sum(d.num_records for d in self.deltas)

    @property
    def span(self) -> Tuple[float, float]:
        """(min, max) timestamp; (0.0, 0.0) when empty."""
        if not self.deltas:
            return (0.0, 0.0)
        return (self.deltas[0].timestamp, self.deltas[-1].timestamp)

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[Delta]:
        return iter(self.deltas)


def shard_bounds(n: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` id ranges cutting ``0..n`` into shards.

    Boundaries depend only on ``(n, num_shards)`` — never on which ids are
    alive — so a delta touching few ids invalidates few shards.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    size = -(-n // num_shards) if n else 0  # ceil division
    bounds = []
    for s in range(num_shards):
        start = min(s * size, n)
        end = min(start + size, n)
        bounds.append((start, end))
    return bounds


@dataclass(frozen=True)
class DatasetVersion:
    """One immutable snapshot of the changing dataset.

    ``alive`` and ``utilities`` are dense over the fixed ground set of
    ``n`` ids; :meth:`apply` is functional — it returns a new version and
    leaves this one untouched, so a window's drive can always be replayed.
    """

    alive: np.ndarray
    utilities: np.ndarray
    version: int = 0

    def __post_init__(self) -> None:
        alive = np.ascontiguousarray(self.alive, dtype=bool)
        utilities = np.ascontiguousarray(self.utilities, dtype=np.float64)
        if alive.ndim != 1 or utilities.ndim != 1:
            raise ValueError("alive and utilities must be 1-D")
        if alive.shape != utilities.shape:
            raise ValueError(
                f"alive {alive.shape} and utilities {utilities.shape} "
                "must cover the same ground set"
            )
        object.__setattr__(self, "alive", alive)
        object.__setattr__(self, "utilities", utilities)

    @classmethod
    def initial(
        cls,
        utilities: np.ndarray,
        *,
        alive: Optional[np.ndarray] = None,
    ) -> "DatasetVersion":
        """Version 0: everything alive unless an ``alive`` mask is given."""
        utilities = np.ascontiguousarray(utilities, dtype=np.float64)
        if alive is None:
            alive = np.ones(utilities.shape[0], dtype=bool)
        return cls(alive=alive, utilities=utilities, version=0)

    @property
    def n(self) -> int:
        """Ground-set size (alive or not)."""
        return int(self.alive.shape[0])

    @property
    def num_alive(self) -> int:
        return int(self.alive.sum())

    @property
    def alive_ids(self) -> np.ndarray:
        return np.flatnonzero(self.alive).astype(np.int64)

    def apply(self, delta: Delta) -> "DatasetVersion":
        """A new version with ``delta`` applied (this one is unchanged)."""
        ids = delta.ids
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise ValueError(
                f"delta ids out of range for ground set of {self.n}"
            )
        alive = self.alive.copy()
        utilities = self.utilities.copy()
        if delta.kind == "append":
            if alive[ids].any():
                raise ValueError("append delta targets ids that are already alive")
            alive[ids] = True
            if delta.utilities is not None:
                utilities[ids] = delta.utilities
        elif delta.kind == "update":
            if not alive[ids].all():
                raise ValueError("update delta targets ids that are not alive")
            utilities[ids] = delta.utilities
        else:  # expire
            if not alive[ids].all():
                raise ValueError("expire delta targets ids that are not alive")
            alive[ids] = False
        return DatasetVersion(
            alive=alive, utilities=utilities, version=self.version + 1
        )

    def apply_all(self, deltas: Iterable[Delta]) -> "DatasetVersion":
        version = self
        for delta in deltas:
            version = version.apply(delta)
        return version

    # -- per-shard content addressing -----------------------------------

    def shard_payload(
        self, shard: int, num_shards: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(alive ids, their utilities) inside ``shard``'s id range."""
        start, end = shard_bounds(self.n, num_shards)[shard]
        ids = start + np.flatnonzero(self.alive[start:end]).astype(np.int64)
        return ids, self.utilities[ids]

    def shard_fingerprint(self, shard: int, num_shards: int) -> str:
        """Content hash of exactly what ``shard`` contributes to a drive
        (no drive reads it: the bench's fingerprint probe does)."""
        ids, utilities = self.shard_payload(shard, num_shards)
        return fingerprint("incr-shard", shard, num_shards, ids, utilities)

    def fingerprints(self, num_shards: int) -> List[str]:
        return [self.shard_fingerprint(s, num_shards) for s in range(num_shards)]


def synthetic_deltas(
    version: DatasetVersion,
    *,
    seed: SeedLike,
    steps: int = 1,
    frac: float = 0.1,
    start_time: float = 0.0,
    dt: float = 1.0,
    kinds: Sequence[str] = ("update", "expire", "append"),
) -> DeltaLog:
    """A deterministic delta stream for smokes, benches, and the service.

    Each step mutates about ``frac`` of the currently-alive records,
    cycling through ``kinds``; appends only fire when dead ids exist to
    revive.  Mutated ids are a *contiguous run* of the candidate pool —
    real delta streams have locality (recent records churn), and locality
    is what keeps most shard branches' checkpoints valid; a uniformly
    scattered delta would invalidate every shard.  The same ``(version,
    seed, steps, frac)`` always produces the same log — the service
    derives a job's dataset version ``v`` by replaying ``v`` steps from
    version 0.
    """
    if not 0 < frac <= 1:
        raise ValueError(f"frac must be in (0, 1], got {frac}")
    rng = as_generator(seed)
    log = DeltaLog()
    current = version

    def contiguous(pool: np.ndarray, count: int) -> np.ndarray:
        count = min(count, int(pool.size))
        if count <= 0:
            return pool[:0]
        start = int(rng.integers(0, pool.size - count + 1))
        return pool[start : start + count]

    for step in range(steps):
        kind = kinds[step % len(kinds)]
        alive_ids = current.alive_ids
        dead_ids = np.flatnonzero(~current.alive).astype(np.int64)
        count = max(1, int(round(frac * max(current.num_alive, 1))))
        if kind == "append" and dead_ids.size == 0:
            kind = "update"
        if kind == "append":
            ids = contiguous(dead_ids, count)
            utilities = rng.random(ids.size)
        elif kind == "update":
            ids = contiguous(alive_ids, count)
            utilities = rng.random(ids.size)
        else:  # expire — never drain the dataset completely
            limit = min(count, max(alive_ids.size - 1, 0))
            if limit == 0:
                continue
            ids = contiguous(alive_ids, limit)
            utilities = None
        delta = Delta(
            kind=kind,
            ids=ids,
            utilities=utilities,
            timestamp=start_time + step * dt,
        )
        log.record(delta)
        current = current.apply(delta)
    return log


def synthetic_version(
    utilities: np.ndarray, steps: int, *, seed: SeedLike, frac: float = 0.1
) -> Tuple[DatasetVersion, DeltaLog]:
    """``(version, log)`` of a synthetic delta family: the base version
    over ``utilities`` advanced by ``steps`` :func:`synthetic_deltas`
    steps (step ``i`` carries timestamp ``i``; ``steps=0`` is the base)."""
    base = DatasetVersion.initial(utilities)
    log = synthetic_deltas(base, seed=seed, steps=steps, frac=frac)
    return base.apply_all(log), log
