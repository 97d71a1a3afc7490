"""Multi-round partition-based distributed greedy (Sec. 4.4, Algorithm 6).

Unlike GreeDi/RandGreeDi, there is **no** final centralized greedy over the
union of per-partition results — the per-round size targets (the Δ-schedule)
shrink the surviving set toward ``k`` so the union of the last round *is*
the subset, and no machine ever needs DRAM for all of it.

Round structure (with ``m`` machines, ``r`` rounds, budget ``k``):

1. ``partition_cap = ceil(|V| / m)`` — fixed machine capacity.
2. Each round: point ``v`` goes to partition ``partition_of(v, seed,
   m_round)`` under one seed per round, a counter-based hash (Salmon et
   al., SC 2011) every engine and worker evaluates alike.  Each partition
   ``P`` of the round's ``N`` survivors runs the centralized heap greedy
   (Alg. 2) on its own subgraph (cross-partition edges discarded) with
   target ``ceil(n_round · |P| / N)``; results union.  These targets sum
   to at least ``n_round`` and none exceeds ``|P|``: no round comes up
   short.
3. *Adaptive partitioning* sets ``m_round = ceil(|V_{round-1}| /
   partition_cap)`` — the minimum number of machines that fit the surviving
   set — so later rounds approach the centralized algorithm.  (This is the
   reading of Alg. 6 consistent with Fig. 14: with 2 partitions and 2 rounds
   the second round collapses to a single partition and recovers 100 % of the
   centralized score, while round 1 matches the non-adaptive score.)
   Non-adaptive mode keeps ``m_round = m``.
4. The last round's union exceeds ``k`` by fewer than ``m_r`` points
   (each target rounds up); uniform subsampling trims it.  Both engines
   run this loop through :func:`run_rounds`, so they select alike.

Dropping cross-partition edges leaves each partition sparse: with ``m``
machines a point keeps about ``1/m`` of its neighbors, so most points a
partition's greedy sees are isolated or paired (57 % and 19 % over the
128 partition calls of the 16-machine, 8-round Sec. 6.3 benchmark
shape).  :func:`~repro.core.greedy.greedy_heap` selects those in closed
form and queues only the rest, so more machines make each partition's
greedy cheaper per point, not just smaller.  A partitioner must return
disjoint parts covering the survivors; anything else is a ``ValueError``.

The Δ-schedule defaults to the paper's linear interpolation with factor
γ=0.75: ``Δ(|V|, r, round, k) = ceil(γ (r - round) (|V| - k) / r) + k``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.greedy import greedy_heap
from repro.core.problem import SubsetProblem
from repro.core.sampling import partition_of_column
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_cardinality

# A partitioner maps (round_index [1-based], ids, m_round, rng) to a list of
# disjoint id arrays covering `ids`.
Partitioner = Callable[[int, np.ndarray, int, np.random.Generator], List[np.ndarray]]


def fingerprint(*parts: Any) -> str:
    """Deterministic content hash over arrays/scalars/strings.

    Incremental reuse is not keyed by it: the pipeline's content digests
    (:mod:`repro.dataflow.digest`) key the checkpoints a drive resumes.
    Its one caller is
    :meth:`~repro.incremental.delta.DatasetVersion.shard_fingerprint`,
    which no drive reads: only the bench's span list names it (the
    ``incremental.delta.fingerprint`` probe).  NumPy arrays hash by
    dtype, shape, and raw bytes (no serialization round trip);
    containers hash recursively with type markers so e.g. ``(1, 2)`` and
    ``[1, 2]`` cannot collide.
    """
    h = hashlib.sha256()
    _fingerprint_update(h, parts)
    return h.hexdigest()


def _fingerprint_update(h, part: Any) -> None:
    if part is None:
        h.update(b"\x00N")
    elif isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part)
        h.update(f"\x00a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(part, bytes):
        h.update(b"\x00b" + part)
    elif isinstance(part, str):
        h.update(b"\x00s" + part.encode())
    elif isinstance(part, (bool, int, float, np.integer, np.floating)):
        h.update(f"\x00n{type(part).__name__}:{part!r}".encode())
    elif isinstance(part, (tuple, list)):
        marker = "t" if isinstance(part, tuple) else "l"
        h.update(f"\x00{marker}{len(part)}".encode())
        for item in part:
            _fingerprint_update(h, item)
    else:
        raise TypeError(
            f"cannot fingerprint {type(part).__name__!r}; pass arrays, "
            "scalars, strings, bytes, or nestings of those"
        )


@dataclass(frozen=True)
class LinearDeltaSchedule:
    """Linear Δ-schedule (Sec. 6.1 / Appendix E).

    ``delta(n0, r, round, k) = ceil(gamma * (r - round) * (n0 - k) / r) + k``

    Satisfies the only hard constraint Δ(., r, r, k) = k.  ``gamma`` < 1
    shrinks intermediate sets faster (forcing earlier decisions), > 1 would
    keep more; the paper evaluates γ ∈ {0.25, 0.5, 0.75, 1.0} (App. E).
    """

    gamma: float = 0.75

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")

    def __call__(self, n0: int, r: int, round_idx: int, k: int) -> int:
        if not 1 <= round_idx <= r:
            raise ValueError(f"round must be in [1, {r}], got {round_idx}")
        raw = int(np.ceil(self.gamma * (r - round_idx) * (n0 - k) / r)) + k
        # Intermediate targets may exceed n0 for gamma > 1; clamp into range.
        return int(min(max(raw, k), n0))


@dataclass(frozen=True)
class RoundShapes:
    """The shape of each round of Algorithm 6 (steps 1–3 of the module
    docstring) over ``n0`` starting points and budget ``k`` — the one
    definition the in-memory engine, the dataflow engine and the
    cluster cost model share.  ``m`` and ``rounds`` must be >= 1."""

    n0: int
    k: int
    m: int
    rounds: int
    adaptive: bool = False
    schedule: Callable[[int, int, int, int], int] = LinearDeltaSchedule()

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")

    def machines_for(self, size: int) -> int:
        """The fewest machines of ``partition_cap = ceil(n0 / m)`` points
        that hold ``size`` points (adaptive partitioning)."""
        return int(np.ceil(size / int(np.ceil(self.n0 / self.m))))

    def at(self, round_idx: int, size: int) -> Tuple[int, int, int]:
        """``(n_round, m_round, per_target)`` of round ``round_idx``
        (1-based) over ``size`` surviving points: the Δ-schedule's target
        capped at ``size``, the machines (adaptive or ``m``, at most one
        per point) and each partition's greedy target."""
        n_round = min(
            self.schedule(self.n0, self.rounds, round_idx, self.k), size
        )
        m_round = self.machines_for(size) if self.adaptive else self.m
        m_round = max(1, min(m_round, size))
        return n_round, m_round, int(np.ceil(n_round / m_round))

    @staticmethod
    def part_target(n_round: int, part_size: int, input_size: int) -> int:
        """``ceil(n_round * part_size / input_size)``, in integers: a
        round's targets sum to ``[n_round, n_round + #parts)``."""
        return -(-int(n_round) * int(part_size) // int(input_size))


def resolve_ground(
    n: int, candidates: Optional[np.ndarray], k: int
) -> "tuple[np.ndarray, int]":
    """Resolve the candidate ground set and validate ``k`` against it.

    Shared by the in-memory and dataflow greedy drivers so candidate
    semantics (dedup, range check, empty-set policy) cannot diverge.
    Returns ``(ground_ids, k)``; ``k == 0`` signals nothing to select.
    """
    if candidates is None:
        ground = np.arange(n, dtype=np.int64)
    else:
        ground = np.unique(np.asarray(candidates, dtype=np.int64))
        if ground.size and (ground[0] < 0 or ground[-1] >= n):
            raise ValueError("candidate ids out of range")
    n0 = int(ground.size)
    return ground, (check_cardinality(k, n0) if n0 else 0)


def draw_partition_seed(rng: np.random.Generator) -> int:
    """A round's one partition seed (step 2 of the module docstring)."""
    return int(rng.integers(0, 2**31 - 1))


def random_partitioner(
    round_idx: int, ids: np.ndarray, m_round: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Uniform random partition (the paper's only partitioner): point ``v``
    goes to ``partition_of(v, seed, m_round)`` under one
    :func:`draw_partition_seed` draw — the dataflow engine's assignment.
    Each part keeps the order of ``ids``; empty parts are dropped."""
    pid = partition_of_column(ids, draw_partition_seed(rng), m_round)
    parts = (ids[pid == j] for j in range(m_round))
    return [part for part in parts if part.size]


def stratified_partitioner(strata: np.ndarray) -> Partitioner:
    """Stratified random partitioning (extension; the paper uses uniform only).

    Spreads each stratum (e.g. class label, or a clustering of the
    embedding space) evenly across partitions, so per-partition greedy sees
    a miniature of the global utility/diversity structure.  The Appendix-E
    discussion suggests partition composition matters; the stratified
    ablation bench quantifies it.

    Parameters
    ----------
    strata:
        Integer stratum id per ground-set point.
    """
    strata = np.asarray(strata, dtype=np.int64)

    def partition(
        round_idx: int, ids: np.ndarray, m_round: int, rng: np.random.Generator
    ) -> List[np.ndarray]:
        if m_round == 1:
            return [rng.permutation(ids)]
        buckets: List[List[np.ndarray]] = [[] for _ in range(m_round)]
        # Deal each stratum round-robin (randomized order within stratum,
        # random starting bucket so strata don't all pile into bucket 0).
        for stratum in np.unique(strata[ids]):
            members = rng.permutation(ids[strata[ids] == stratum])
            offset = int(rng.integers(m_round))
            for j, chunk in enumerate(np.array_split(members, m_round)):
                if chunk.size:
                    buckets[(j + offset) % m_round].append(chunk)
        return [
            np.concatenate(bucket) if bucket else np.empty(0, dtype=np.int64)
            for bucket in buckets
            if bucket
        ]

    return partition


def worst_case_partitioner(
    reference_solution: np.ndarray,
    fallback: Partitioner = random_partitioner,
) -> Partitioner:
    """Sec. 6.4's adversarial first-round assignment.

    Round 1 stuffs the entire ``reference_solution`` (e.g. the centralized
    greedy subset) into one partition; the rest of the points are split
    randomly over the remaining partitions.  Later rounds fall back to the
    random partitioner.
    """
    reference = np.asarray(reference_solution, dtype=np.int64)

    def partition(
        round_idx: int, ids: np.ndarray, m_round: int, rng: np.random.Generator
    ) -> List[np.ndarray]:
        if round_idx != 1 or m_round < 2:
            return fallback(round_idx, ids, m_round, rng)
        in_ref = np.isin(ids, reference)
        ref_part = ids[in_ref]
        others = rng.permutation(ids[~in_ref])
        parts = [p for p in np.array_split(others, m_round - 1) if p.size]
        return [ref_part] + parts

    return partition


@dataclass
class RoundStats:
    """Telemetry for one round of Algorithm 6."""

    round_idx: int
    input_size: int
    target_size: int
    m_round: int
    per_partition_target: int
    output_size: int


@dataclass
class DistributedResult:
    """Outcome of the multi-round distributed greedy."""

    selected: np.ndarray
    rounds: List[RoundStats] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.selected.size)

    @property
    def max_partitions_used(self) -> int:
        return max((s.m_round for s in self.rounds), default=0)


def _check_cover(
    parts: Sequence[np.ndarray], survivors: np.ndarray, n: int
) -> None:
    """Raise unless ``parts`` are disjoint and cover exactly ``survivors``
    (ascending, unique ids in ``[0, n)``): one ``bincount``, O(n)."""
    ids = np.concatenate(parts) if parts else survivors[:0]
    in_range = ids.size == 0 or (ids.min() >= 0 and ids.max() < n)
    if not (
        ids.size == survivors.size
        and in_range
        and (np.bincount(ids, minlength=n)[survivors] == 1).all()
    ):
        raise ValueError(
            "partitioner must return disjoint parts that cover all surviving "
            "points"
        )


def partition_greedy(
    problem: SubsetProblem,
    part: np.ndarray,
    target: int,
    base_penalty: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The global ids one partition keeps: Alg. 2 for ``target`` points on
    ``problem`` restricted to ``part`` (local ids in ``part``'s order),
    warm-started by ``base_penalty[part]``."""
    local_penalty = base_penalty[part] if base_penalty is not None else None
    result = greedy_heap(
        problem.restrict(part), target, base_penalty=local_penalty
    )
    return part[result.selected]


def run_rounds(
    shapes: RoundShapes,
    step: Callable[..., int],
    survivors: Callable[[], np.ndarray],
    rng: np.random.Generator,
) -> DistributedResult:
    """Algorithm 6's round loop for both engines, as
    :func:`~repro.core.bounding.alternate` is Alg. 5's: it owns the
    shapes, the :class:`RoundStats` and the final trim.

    ``step(round_idx, input_size, n_round, m_round, rng)`` runs a round on
    the engine's survivors (:func:`partition_greedy` on each part, for
    :meth:`RoundShapes.part_target` points) and returns how many survive;
    ``survivors()`` returns them sorted.  A round that keeps fewer than
    ``n_round`` is a ``RuntimeError``.
    """
    if shapes.k == 0:
        return DistributedResult(np.empty(0, dtype=np.int64))
    stats: List[RoundStats] = []
    size = shapes.n0
    for round_idx in range(1, shapes.rounds + 1):
        n_round, m_round, per_target = shapes.at(round_idx, size)
        output_size = step(round_idx, size, n_round, m_round, rng)
        if output_size < n_round:
            raise RuntimeError(
                f"round {round_idx} kept {output_size} of its target "
                f"{n_round} points"
            )
        stats.append(RoundStats(
            round_idx, size, n_round, m_round, per_target, output_size
        ))
        size = output_size
    selected = survivors()
    if selected.size > shapes.k:
        selected = np.sort(rng.choice(selected, size=shapes.k, replace=False))
    return DistributedResult(selected=selected, rounds=stats)


def distributed_greedy(
    problem: SubsetProblem,
    k: int,
    *,
    m: int,
    rounds: int = 1,
    adaptive: bool = False,
    schedule: Optional[Callable[[int, int, int, int], int]] = None,
    partitioner: Partitioner = random_partitioner,
    candidates: Optional[np.ndarray] = None,
    base_penalty: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> DistributedResult:
    """Algorithm 6: adaptive-partitioning multi-round distributed greedy.

    Parameters
    ----------
    m:
        Number of machines available at the start (sets ``partition_cap``).
    rounds:
        Number of rounds ``r``.
    adaptive:
        Scale partitions down each round to the minimum that fit the
        surviving set (see module docstring).
    schedule:
        Δ function; defaults to :class:`LinearDeltaSchedule` (γ=0.75).
    candidates:
        Restrict the ground set to these ids (the remaining set ``V`` after
        bounding).  Defaults to all points.
    base_penalty:
        Per-point penalty ``beta * Σ_{nb ∈ S'} s(v, nb)`` from an existing
        partial solution (bounding output); passed into every per-partition
        greedy so marginal gains account for already-selected neighbors.
    seed:
        Seeds both partitioning and subsampling.

    Returns
    -------
    DistributedResult
        ``selected`` are global ids, ``len == k`` (unless fewer candidates
        exist).
    """
    rng = as_generator(seed)
    survivors, k = resolve_ground(problem.n, candidates, k)
    shapes = RoundShapes(
        int(survivors.size), k, m, rounds, adaptive,
        LinearDeltaSchedule() if schedule is None else schedule,
    )

    def step(round_idx, input_size, n_round, m_round, rng) -> int:
        nonlocal survivors
        parts = partitioner(round_idx, survivors, m_round, rng)
        _check_cover(parts, survivors, problem.n)
        survivors = np.sort(np.concatenate([
            partition_greedy(
                problem, part,
                RoundShapes.part_target(n_round, part.size, input_size),
                base_penalty,
            )
            for part in parts
        ]))
        return int(survivors.size)

    return run_rounds(shapes, step, lambda: survivors, rng)
