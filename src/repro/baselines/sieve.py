"""Sieve-Streaming baseline (Badanidiyuru et al., 2014).

The paper's related work cites streaming submodular maximization as the
other route to bounded memory.  Sieve-Streaming keeps one candidate set per
threshold in a geometric grid of guesses of OPT and adds a streamed element
to every sieve whose threshold its marginal gain clears, using
``O((k log k)/ε)`` memory and a single pass.

Included as a baseline to contrast with the paper's approach: sieves bound
*one machine's* memory but still materialize a full k-subset per sieve — at
billion-point scale with k in the billions that is exactly what breaks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.greedi import BaselineResult
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_cardinality


def sieve_pass(
    problem: SubsetProblem,
    k: int,
    epsilon: float,
    order: Sequence[int],
) -> Tuple[List[int], int, int]:
    """The single streaming pass of :func:`sieve_streaming`.

    Consumes element ids in ``order`` and returns ``(best_ids,
    num_sieves, memory_points)`` — the best sieve's selection (in
    admission order), how many threshold sieves were live at the end, and
    the largest per-sieve candidate set.
    """
    alpha, beta = problem.alpha, problem.beta
    u = problem.utilities
    graph = problem.graph

    m_best = 0.0  # best singleton value so far
    # sieve state per threshold index i: (ids list, mask, value)
    sieves: Dict[int, tuple] = {}
    log_base = np.log(1.0 + epsilon)

    def live_range(m: float) -> range:
        lo = int(np.floor(np.log(max(m, 1e-300)) / log_base))
        hi = int(np.ceil(np.log(max(2.0 * k * m, 1e-300)) / log_base))
        return range(lo, hi + 1)

    for v in order:
        singleton = alpha * u[v]
        if singleton > m_best:
            m_best = singleton
            valid = set(live_range(m_best))
            for i in [i for i in sieves if i not in valid]:
                del sieves[i]
        if m_best <= 0:
            continue
        nbrs, ws = graph.neighbors(v)
        for i in live_range(m_best):
            if i not in sieves:
                sieves[i] = ([], np.zeros(problem.n, dtype=bool), 0.0)
            ids, mask, value = sieves[i]
            if len(ids) >= k or mask[v]:
                continue
            delta = (1.0 + epsilon) ** i
            gain = alpha * u[v] - beta * float(ws[mask[nbrs]].sum())
            need = (delta / 2.0 - value) / (k - len(ids))
            if gain >= need:
                ids.append(v)
                mask[v] = True
                sieves[i] = (ids, mask, value + gain)

    best_ids: List[int] = []
    best_value = -np.inf
    for ids, _mask, value in sieves.values():
        if ids and value > best_value:
            best_value = value
            best_ids = ids
    memory_points = max((len(ids) for ids, _m, _v in sieves.values()), default=0)
    return best_ids, len(sieves), memory_points


def sieve_streaming(
    problem: SubsetProblem,
    k: int,
    *,
    epsilon: float = 0.2,
    seed: SeedLike = None,
) -> BaselineResult:
    """Single-pass sieve-streaming under a cardinality constraint.

    Elements stream in random order (``seed``).  Thresholds form the grid
    ``{(1+ε)^i}`` covering ``[m, 2·k·m]`` where ``m`` is the best singleton
    seen so far; each sieve admits an element whose marginal gain is at
    least ``(Δ/2 - f(S))/(k - |S|)`` for its OPT-guess ``Δ``.
    """
    k = check_cardinality(k, problem.n)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    rng = as_generator(seed)
    if k == 0:
        return BaselineResult(np.empty(0, dtype=np.int64), 0.0, 0)

    objective = PairwiseObjective(problem)
    stream = rng.permutation(problem.n)
    best_ids, num_sieves, memory_points = sieve_pass(
        problem, k, epsilon, stream.tolist()
    )
    selected = np.array(sorted(best_ids), dtype=np.int64)
    # Top up with random unselected points if the best sieve is short.
    if selected.size < k:
        pool = np.setdiff1d(np.arange(problem.n), selected)
        extra = rng.choice(pool, size=k - selected.size, replace=False)
        selected = np.sort(np.concatenate([selected, extra]))
    return BaselineResult(
        selected=selected,
        objective=float(objective.value(selected)),
        central_memory_points=int(memory_points * max(num_sieves, 1)),
    )
