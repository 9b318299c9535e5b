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
from dataclasses import dataclass, replace

import numpy as np

from . import clustering
from .errors import DimensionMismatch, InconsistentDims, ModalityMismatch, TooFewExamples
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
    """A fitted model plus the cluster-index-to-scene-name map."""

    modality: str
    model: clustering.KMeansModel
    cluster_names: dict[int, str]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if sorted(self.cluster_names) != list(range(self.model.params.k)):
            raise ValueError(f"cluster_names must cover labels 0..{self.model.params.k - 1}")

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
    training_set: TrainingSet, params: clustering.KMeansParams | None = None
) -> SceneClassifier:
    """Fit one cluster per distinct scene name and name the clusters.

    params.k is overridden by the scene count; seed and scale pass
    through.  Raises TooFewExamples when the set is empty.
    """
    scenes = training_set.scene_names
    k = len(scenes)
    if k == 0:
        raise TooFewExamples("training set holds no examples")
    if len(training_set.items) < k:
        raise TooFewExamples(f"{len(training_set.items)} examples for {k} scenes")
    if params is None:
        params = clustering.KMeansParams(k=k)
    else:
        params = replace(params, k=k)

    names = [name for name, _ in training_set.items]
    matrix = np.vstack([vec.values for _, vec in training_set.items])
    model = clustering.fit(matrix, params)
    labels, sq = clustering.assign(matrix, model.centroids)

    warnings: list[str] = []
    cluster_names: dict[int, str] = {}
    for c in range(k):
        members = [names[i] for i in np.flatnonzero(labels == c)]
        if members:
            counts = Counter(members)
            top = max(counts.values())
            winners = sorted(name for name, count in counts.items() if count == top)
            cluster_names[c] = winners[0]
            if len(winners) > 1:
                warnings.append(
                    f"cluster {c}: majority tie between {winners}, named "
                    f"{winners[0]!r} alphabetically"
                )
        else:
            nearest = int(np.argmin(sq[:, c]))
            cluster_names[c] = names[nearest]
            warnings.append(
                f"cluster {c} captured no training vectors; named "
                f"{names[nearest]!r} after its nearest example"
            )
    if len(set(cluster_names.values())) < k:
        shared = sorted(
            name for name, n in Counter(cluster_names.values()).items() if n > 1
        )
        warnings.append(f"clusters share scene names: {shared}")

    return SceneClassifier(
        modality=training_set.modality,
        model=model,
        cluster_names=cluster_names,
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
    if len(features) != classifier.feature_dim:
        raise DimensionMismatch(
            f"vector of length {len(features)}, classifier expects "
            f"{classifier.feature_dim}"
        )
    assignment = clustering.predict(classifier.model, features.values)
    return ScenePrediction(
        scene=classifier.cluster_names[assignment.label],
        confidence=clustering.confidence(assignment.distance, classifier.model.params.scale),
        modality=classifier.modality,
        at=now,
    )
