"""Named scenes on top of the clustering engine.

A training set is a bag of (scene name, feature vector) pairs of one
modality.  Fitting forces k to the number of distinct scene names, then
names each cluster by majority vote over the training members it captured
(alphabetical tie-break).  Oddities — a majority tie, a cluster that caught
no training vectors, or two clusters sharing a name — do not fail the fit;
they surface as warning strings on the classifier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import clustering
from .errors import InconsistentDims, ModalityMismatch, TooFewExamples
from .features import MODALITIES, FeatureVector


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Labeled feature vectors, all one modality and one length."""

    modality: str
    items: tuple[tuple[str, FeatureVector], ...]

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        object.__setattr__(self, "items", tuple(self.items))
        dims = set()
        for name, vec in self.items:
            if not name:
                raise ValueError("scene names cannot be empty")
            if vec.modality != self.modality:
                raise ModalityMismatch(
                    f"{vec.modality} vector in a {self.modality} training set"
                )
            dims.add(len(vec))
        if len(dims) > 1:
            raise InconsistentDims(f"mixed feature lengths {sorted(dims)}")

    @property
    def scene_names(self) -> tuple[str, ...]:
        return tuple(sorted({name for name, _ in self.items}))


@dataclass(frozen=True, eq=False)
class SceneClassifier:
    """A fitted model, the scene each centroid row names, and how it was fitted.

    `seed` seeded the fit and featurizes photos, so prediction sees the
    palettes training saw; `scale` is the confidence divisor.
    """

    modality: str
    model: clustering.KMeansModel
    cluster_names: tuple[str, ...]
    seed: int
    scale: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if len(self.cluster_names) != len(self.model.centroids):
            raise ValueError("cluster_names must name each centroid row exactly once")
        clustering.check_scale(self.scale)

    @property
    def feature_dim(self) -> int:
        return self.model.dim


@dataclass(frozen=True)
class ScenePrediction:
    scene: str
    confidence: float
    modality: str
    at: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 100.0):
            raise ValueError("confidence must lie in [0, 100]")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")


def train_classifier(
    training_set: TrainingSet, seed: int = 0, scale: float = 10000.0
) -> SceneClassifier:
    """Fit one cluster per distinct scene name and name the clusters.

    The fit draws from `seed`; `scale` becomes the confidence divisor.
    Raises TooFewExamples when the set is empty.
    """
    scenes = training_set.scene_names
    k = len(scenes)
    if k == 0:
        raise TooFewExamples("training set holds no examples")
    if len(training_set.items) < k:
        raise TooFewExamples(f"{len(training_set.items)} examples for {k} scenes")

    names = [name for name, _ in training_set.items]
    matrix = np.vstack([vec.values for _, vec in training_set.items])
    model = clustering.fit(matrix, clustering.KMeansParams(k=k, seed=seed))
    labels, sq = clustering.assign(matrix, model.centroids)

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
        modality=training_set.modality,
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
    assignment = clustering.predict(classifier.model, features.values)
    return ScenePrediction(
        scene=classifier.cluster_names[assignment.label],
        confidence=clustering.confidence(assignment.distance, classifier.scale),
        modality=classifier.modality,
        at=now,
    )
