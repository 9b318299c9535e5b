"""Named scenes on top of the clustering engine.

A classifier trains on (scene name, feature vector) pairs, all of one
modality and one width, and takes its modality from the vectors.  Fitting
forces k to the number of distinct scene names, then names each cluster by
majority vote over the training members it captured (alphabetical
tie-break).  Oddities — a majority tie, a cluster that caught no training
vectors, or two clusters sharing a name — do not fail the fit; they
surface as warning strings on the classifier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import clustering
from .errors import DimensionMismatch, EmptyTrainingSet, ModalityMismatch, UsageError
from .features import MODALITIES, FeatureVector, check_width


@dataclass(frozen=True, eq=False)
class SceneClassifier:
    """A fitted model, the scene each centroid row names, and how it was fitted.

    `seed` seeded the fit and featurizes photos, so prediction sees the
    palettes training saw; `scale` is the confidence divisor.  As after
    training, names are non-empty and the width obeys `check_width`.
    """

    modality: str
    model: clustering.KMeansModel
    cluster_names: tuple[str, ...]
    seed: int
    scale: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise UsageError(f"unknown modality {self.modality!r}")
        if len(self.cluster_names) != len(self.model.centroids):
            raise UsageError("cluster_names must name each centroid row exactly once")
        if not all(self.cluster_names):
            raise UsageError("scene names cannot be empty")
        check_width(self.modality, self.model.dim)
        clustering.check_scale(self.scale)


@dataclass(frozen=True)
class ScenePrediction:
    scene: str
    confidence: float
    modality: str
    at: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 100.0):
            raise UsageError("confidence must lie in [0, 100]")
        if self.modality not in MODALITIES:
            raise UsageError(f"unknown modality {self.modality!r}")


def train_classifier(
    items: Sequence[tuple[str, FeatureVector]],
    seed: int = 0,
    scale: float = clustering.DEFAULT_SCALE,
) -> SceneClassifier:
    """Fit one cluster per distinct scene name and name the clusters.

    `items` are (scene name, vector) pairs; the classifier takes the
    vectors' modality.  The fit draws from `seed`; `scale` becomes the
    confidence divisor.

    Raises:
        EmptyTrainingSet: no items.
        UsageError: an empty scene name.
        ModalityMismatch: vectors of two modalities.
        DimensionMismatch: vectors of two widths.
    """
    if not items:
        raise EmptyTrainingSet("training set holds no examples")
    names = [name for name, _ in items]
    if not all(names):
        raise UsageError("scene names cannot be empty")
    modalities = {vec.modality for _, vec in items}
    if len(modalities) > 1:
        raise ModalityMismatch(f"mixed modalities {sorted(modalities)} in one training set")
    dims = {len(vec) for _, vec in items}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed feature lengths {sorted(dims)}")
    k = len(set(names))
    matrix = np.vstack([vec.values for _, vec in items])
    model, labels, sq = clustering.fit(matrix, clustering.KMeansParams(k=k, seed=seed))

    warnings: list[str] = []
    cluster_names: list[str] = []
    for c in range(k):
        members = [names[i] for i in np.flatnonzero(labels == c)]
        if members:
            counts = Counter(members)
            top = max(counts.values())
            winners = sorted(name for name, count in counts.items() if count == top)
            cluster_names.append(winners[0])
            if len(winners) > 1:
                warnings.append(
                    f"cluster {c}: majority tie between {winners}, named "
                    f"{winners[0]!r} alphabetically"
                )
        else:
            nearest = int(np.argmin(sq[:, c]))
            cluster_names.append(names[nearest])
            warnings.append(
                f"cluster {c} captured no training vectors; named "
                f"{names[nearest]!r} after its nearest example"
            )
    if len(set(cluster_names)) < k:
        shared = sorted(name for name, n in Counter(cluster_names).items() if n > 1)
        warnings.append(f"clusters share scene names: {shared}")

    return SceneClassifier(
        modality=modalities.pop(),
        model=model,
        cluster_names=tuple(cluster_names),
        seed=seed,
        scale=scale,
        warnings=tuple(warnings),
    )


def classify(
    classifier: SceneClassifier, features: FeatureVector, now: float
) -> ScenePrediction:
    """Nearest scene plus its scaled-distance confidence, stamped at `now`."""
    if features.modality != classifier.modality:
        raise ModalityMismatch(
            f"{features.modality} features against a {classifier.modality} classifier"
        )
    label, distance = clustering.predict(classifier.model, features.values)
    return ScenePrediction(
        scene=classifier.cluster_names[label],
        confidence=clustering.confidence(distance, classifier.scale),
        modality=classifier.modality,
        at=now,
    )
