"""Nearest-neighbor graph substrate.

The pairwise submodular objective is defined over a sparse similarity graph
``E`` (Sec. 3).  The paper builds a 10-nearest-neighbor graph in embedding
space with ScaNN and symmetrizes it (Sec. 6).  This package provides:

- :class:`~repro.graph.csr.NeighborGraph` — an immutable CSR adjacency
  structure with subgraph restriction (needed by partition-based greedy),
- exact blocked brute-force kNN (:mod:`repro.graph.knn`),
- symmetrization utilities (:mod:`repro.graph.symmetrize`), whose
  :func:`~repro.graph.symmetrize.build_knn_graph` also builds the
  approximate graph (``method="ann"``) — ScaNN's IVF stage, run by the
  dataflow kNN build (:func:`repro.dataflow.knn_beam.beam_knn_graph`).

Names below are imported on first read (:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "NeighborGraph": ".csr",
    "exact_knn": ".knn",
    "cosine_similarity_matrix": ".knn",
    "symmetrize_knn": ".symmetrize",
    "build_knn_graph": ".symmetrize",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
