"""Dataset substrate.

The paper evaluates on CIFAR-100 (50 k points), ImageNet (1.2 M points), and
a synthetic 13 B-point Perturbed-ImageNet.  Offline reproduction uses
statistically matched synthetic stand-ins (see DESIGN.md substitutions):

- :func:`~repro.data.synthetic.make_class_clusters` — Gaussian mixture
  embeddings with per-class clusters,
- :class:`~repro.data.classifier.CoarseClassifier` — a nearest-centroid model
  trained on a 10 % split, whose softmax margin supplies the paper's
  margin-based uncertainty utility,
- :func:`~repro.data.registry.load_dataset` — named presets
  (``cifar100_like``, ``imagenet_like``, tiny CI variants),
- :class:`~repro.data.perturbed.PerturbedDataset` — virtual on-the-fly
  expansion of a base dataset (the 13 B stress-test stand-in).
"""

from repro.data.classifier import CoarseClassifier, margin_utilities
from repro.data.perturbed import PerturbedDataset
from repro.data.registry import DATASET_PRESETS, SelectionDataset, load_dataset
from repro.data.synthetic import make_class_clusters

__all__ = [
    "make_class_clusters",
    "CoarseClassifier",
    "margin_utilities",
    "SelectionDataset",
    "load_dataset",
    "DATASET_PRESETS",
    "PerturbedDataset",
]
