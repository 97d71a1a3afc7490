"""Counter-based randomness: the approximate-bounding sampler (Def. 4.5)
and the greedy rounds' partition draw.

Approximate bounding replaces the minimum utility with an *expected utility*
computed over a sampled subset of each point's not-yet-assigned neighbors
(neighbors already in the partial solution are always counted).  Two sampling
strategies appear in the evaluation (Sec. 6.2):

- *uniform*: every neighbor kept independently with probability ``p``
  (this is the regime Theorem 4.6 analyzes),
- *weighted*: "the sampling probability is [proportional] to the pairwise
  interaction between the neighbors"; a round keeps neighbor ``i`` of row
  ``v`` with probability ``min(1, p * w_i / mean(w))``, the mean taken over
  ``v``'s neighbors still unassigned in that round, so the expected kept
  fraction stays ~``p`` while strong interactions are (almost) always seen.

Both draw from one counter-based hash, :func:`edge_hash01` — SplitMix64
over (row, neighbor, round, seed) — rather than a generator stream: a
distributed runner has no global RNG stream, and a hash gives every
engine, shard and executor the same draw for an edge.  :func:`keep_mask`
is the one keep rule both bounding engines call.  The partition draw
(:func:`partition_of`) mixes the same way under its own domain salt.
Every scalar function has a column twin, bit-identical per element.
"""

from __future__ import annotations

import numpy as np

#: The approximate-bounding samplers :func:`keep_mask` implements.
EDGE_SAMPLERS = ("uniform", "weighted")

_MASK64 = (1 << 64) - 1


def _mix01(x: int) -> float:
    """SplitMix64 finalizer of a 64-bit state, as a float in [0, 1)."""
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return (x >> 11) / float(1 << 53)


def _mix01_column(x: np.ndarray) -> np.ndarray:
    """:func:`_mix01` over a fresh uint64 column (mixed in place).

    uint64 arithmetic wraps exactly like the masked Python ints, and the
    53-bit mantissa division is exact in float64, so every element is
    bit-identical to the scalar mixer.
    """
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)) / float(1 << 53)


def edge_hash01(b: int, a: int, round_salt: int, seed_salt: int) -> float:
    """Deterministic float in [0, 1) per (edge, round) — distributed-safe.

    SplitMix64-style mixing over plain Python ints (wrap-around masked):
    the draw of row ``b``'s edge to neighbor ``a`` in round ``round_salt``
    of the run salted ``seed_salt``.
    """
    x = (b * 0x9E3779B97F4A7C15) & _MASK64
    x = (x + a * 0xBF58476D1CE4E5B9) & _MASK64
    x = (x + round_salt * 2654435761 + seed_salt) & _MASK64
    return _mix01(x)


def edge_hash01_column(
    b: "int | np.ndarray", a: np.ndarray, round_salt: int, seed_salt: int
) -> np.ndarray:
    """Vectorized :func:`edge_hash01` over a neighbor-id column ``a``.

    ``b`` is one id for the whole column or a column aligned with ``a``
    (a whole shard's edges in one call).  Bit-identical to the scalar
    hash for every edge (property-tested in ``test_columnar.py``).
    """
    # At least 1-d: array arithmetic wraps silently, scalar arithmetic warns.
    b = np.atleast_1d(np.asarray(b, dtype=np.int64)).astype(np.uint64)
    x = np.asarray(a, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
    x = x + b * np.uint64(0x9E3779B97F4A7C15)
    x = x + np.uint64((int(round_salt) * 2654435761 + int(seed_salt)) & _MASK64)
    return _mix01_column(x)


def keep_mask(
    rows: "int | np.ndarray",
    neighbors: np.ndarray,
    weights: np.ndarray,
    segment: np.ndarray,
    *,
    p: float,
    sampler: str,
    round_salt: int,
    seed_salt: int,
) -> np.ndarray:
    """Which of a round's unassigned edges the sample keeps.

    The edges are ``rows[i] -> neighbors[i]`` with weight ``weights[i]``;
    ``segment[i]`` numbers edge ``i``'s row (equal for the edges of one
    row, any non-negative ints) and ``rows`` may be one id for them all.
    With ``h`` the edge's :func:`edge_hash01_column` draw, ``uniform``
    keeps ``h < p`` and ``weighted`` keeps ``h < min(1, p * w / mean)``,
    ``mean`` over the row's edges given here, or ``h < p`` where that
    mean is 0.  ``p >= 1`` keeps every edge: at ``p = 1`` approximate
    bounding is exact bounding.  A row's mean is its weights added one
    by one in the order given (``np.bincount``), so a caller that hands
    in a row's edges in one order gets the same bits on every path.
    """
    if p >= 1.0:
        return np.ones(len(neighbors), dtype=bool)
    h = edge_hash01_column(rows, neighbors, round_salt, seed_salt)
    if sampler == "uniform":
        return h < p
    mean = np.bincount(segment, weights=weights) / np.maximum(
        np.bincount(segment), 1
    )
    mean = mean[segment]
    with np.errstate(divide="ignore", invalid="ignore"):
        return h < np.where(mean > 0, np.minimum(1.0, p * weights / mean), p)


#: Domain separator of the partition hash: keeps ``partition_of(v, seed)``
#: off the ``edge_hash01(v, seed, 0, 0)`` stream the bounding sampler draws.
_PARTITION_SALT = 0xD6E8FEB86659FD93


def partition_of(v: int, seed: int, m: int) -> int:
    """Partition id in ``[0, m)`` of point ``v`` under ``seed``.

    Counter-based, like :func:`edge_hash01`: ``int(hash01 * m)`` of the
    SplitMix64-mixed ``(v, seed)`` pair — iid-uniform over ids,
    independent across seeds, no RNG object, and the same answer on every
    worker.  ``m == 1`` is always partition 0.
    """
    # int(): a np.int64 id would overflow against the 64-bit constants.
    x = int(v) * 0x9E3779B97F4A7C15 + int(seed) * 0xBF58476D1CE4E5B9
    return int(_mix01((x + _PARTITION_SALT) & _MASK64) * m)


def partition_of_column(ids: np.ndarray, seed: int, m: int) -> np.ndarray:
    """Vectorized :func:`partition_of` over an id column — bit-identical
    to the scalar draw for every id (property-tested in
    ``test_columnar.py``)."""
    x = np.asarray(ids, dtype=np.int64).astype(np.uint64)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x += np.uint64((int(seed) * 0xBF58476D1CE4E5B9 + _PARTITION_SALT) & _MASK64)
    return (_mix01_column(x) * m).astype(np.int64)
