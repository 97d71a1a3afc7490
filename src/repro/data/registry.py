"""Named dataset presets mirroring the paper's evaluation datasets.

``cifar100_like`` matches CIFAR-100's statistics (100 classes, 50 k points,
64-dim embeddings from the coarse ResNet's penultimate layer);
``imagenet_like`` is a sub-sampled stand-in for ImageNet (1 k classes; we
default to 100 k points and a reduced embedding dim so laptop runs finish —
both are overridable).  ``*_tiny`` variants keep CI fast.

Every preset bundles embeddings, labels, margin utilities from a coarse
classifier trained on a 10 % split, and a symmetrized 10-NN graph — i.e.
everything Section 6's experiments consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from repro.data.classifier import margin_utilities
from repro.data.synthetic import make_class_clusters
from repro.graph.csr import NeighborGraph
from repro.graph.symmetrize import build_knn_graph
from repro.utils.rng import SeedLike

if TYPE_CHECKING:
    from repro.dataflow.context import DataflowContext
    from repro.dataflow.options import EngineOptions


@dataclass
class SelectionDataset:
    """Everything a selection experiment needs, bundled."""

    name: str
    embeddings: np.ndarray
    labels: np.ndarray
    utilities: np.ndarray
    graph: NeighborGraph
    neighbors: np.ndarray = field(repr=False, default=None)  # directed kNN
    similarities: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class _Preset:
    n_points: int
    n_classes: int
    dim: int
    class_sep: float
    within_std: float
    knn_k: int = 10


DATASET_PRESETS: Dict[str, _Preset] = {
    # CIFAR-100: 100 classes, 50k points, 64-d embeddings (Sec. 6).
    "cifar100_like": _Preset(50_000, 100, 64, class_sep=3.0, within_std=1.0),
    # ImageNet: 1k classes, 1.28M points, 2048-d embeddings in the paper;
    # defaults reduced (n=100k, d=128) so the full grid benches run on a
    # laptop.  Shapes (class structure, degree stats) are preserved.
    "imagenet_like": _Preset(100_000, 1_000, 128, class_sep=3.0, within_std=1.0),
    # CI-scale variants with identical structure.
    "cifar100_tiny": _Preset(2_000, 20, 16, class_sep=3.0, within_std=1.0),
    "imagenet_tiny": _Preset(4_000, 50, 24, class_sep=3.0, within_std=1.0),
}


def load_dataset(
    name: str,
    *,
    n_points: Optional[int] = None,
    knn_k: Optional[int] = None,
    knn_method: str = "exact",
    train_fraction: float = 0.1,
    temperature: float = 4.0,
    seed: SeedLike = 0,
    options: "Optional[EngineOptions]" = None,
    context: "Optional[DataflowContext]" = None,
) -> SelectionDataset:
    """Materialize a preset dataset (embeddings, utilities, kNN graph).

    Parameters
    ----------
    name:
        One of :data:`DATASET_PRESETS`.
    n_points:
        Override the preset's point count (scales experiments down for CI).
    knn_k:
        Override the neighbor count (paper default: 10).
    knn_method:
        ``"exact"`` or ``"ann"`` (ScaNN's IVF stage, run by the dataflow
        kNN build on engine ``options`` or a shared ``context``; see
        :func:`repro.graph.symmetrize.build_knn_graph`).
    temperature:
        Coarse-classifier softmax temperature; larger values spread the
        margin-utility distribution (a very confident model would make all
        utilities ~0).
    """
    if name not in DATASET_PRESETS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_PRESETS)}"
        )
    preset = DATASET_PRESETS[name]
    n = int(n_points) if n_points is not None else preset.n_points
    n_classes = min(preset.n_classes, n)
    k = int(knn_k) if knn_k is not None else preset.knn_k
    embeddings, labels = make_class_clusters(
        n,
        n_classes,
        preset.dim,
        class_sep=preset.class_sep,
        within_std=preset.within_std,
        seed=seed,
    )
    utilities = margin_utilities(
        embeddings,
        labels,
        train_fraction=train_fraction,
        temperature=temperature,
        seed=seed,
    )
    graph, neighbors, sims = build_knn_graph(
        embeddings, k, method=knn_method, seed=seed, options=options,
        context=context,
    )
    return SelectionDataset(
        name=name,
        embeddings=embeddings,
        labels=labels,
        utilities=utilities,
        graph=graph,
        neighbors=neighbors,
        similarities=sims,
    )
