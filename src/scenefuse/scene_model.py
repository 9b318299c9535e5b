"""Named scenes on top of the clustering engine.

A classifier is its fitted centroids and the scene each one names.  It
trains on one (n, d) matrix of feature rows, one scene name per row.
Fitting forces k to the number of distinct scene names, then names each
cluster by majority vote over the training rows it captured (alphabetical
tie-break).  Oddities — a majority tie, a cluster that caught no training
rows, or two clusters sharing a name — do not fail the fit; training
returns them as warning strings beside the classifier and the inertia.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import clustering
from .errors import UsageError, check_array, check_int, check_positive, check_range


@dataclass(frozen=True, eq=False)
class SceneClassifier:
    """Fitted (k, d) centroids, the scene each row names, and how they were fitted.

    `seed` seeded the fit and featurizes photos, so prediction sees the
    palettes training saw; `scale` is the confidence divisor.  As after
    training, the centroids are a finite float64 NumPy matrix with no empty axis,
    the names a tuple of non-empty str, one per row, and the seed is not
    negative.  What the feature vectors are, and so which widths d may be,
    is for the bundle slot that holds it.
    """

    centroids: np.ndarray
    cluster_names: tuple[str, ...]
    seed: int
    scale: float

    def __post_init__(self) -> None:
        centroids, names = self.centroids, self.cluster_names
        check_array(centroids, "centroids", np.float64, 2)
        if not np.isfinite(centroids).all():
            raise UsageError("centroids must be finite")
        # a str would read as one name per character
        if not (type(names) is tuple and all(isinstance(name, str) for name in names)):
            raise UsageError("cluster_names must be a tuple of str")
        if len(names) != len(centroids):
            raise UsageError("cluster_names must name each centroid row exactly once")
        if not all(names):
            raise UsageError("scene names cannot be empty")
        check_int(self.seed, 0, "seed")  # `fit` refused it, and featurizing a photo would too
        check_positive(self.scale, "scale")


@dataclass(frozen=True)
class ScenePrediction:
    scene: str
    confidence: float
    at: float

    def __post_init__(self) -> None:
        if not (isinstance(self.scene, str) and self.scene):
            got = "an empty str" if isinstance(self.scene, str) else type(self.scene).__name__
            raise UsageError(f"scene must be a non-empty str, not {got}")
        check_range(self.confidence, "confidence", 0.0, 100.0)
        check_range(self.at, "at")


def train_classifier(
    names: Sequence[str],
    matrix: np.ndarray,
    seed: int = 0,
    scale: float = clustering.DEFAULT_SCALE,
) -> tuple[SceneClassifier, float, tuple[str, ...]]:
    """Fit one cluster per distinct scene name and name the clusters.

    Row i of the (n, d) `matrix` is the feature vector of scene `names[i]`;
    the fit reads the matrix in place and draws from `seed`.  `scale`
    becomes the confidence divisor.  Returns the classifier, the inertia
    `clustering.fit` reports, and the warnings its naming raised.

    Raises UsageError for no rows, a matrix `errors.check_array` refuses as
    a float64 matrix, a name count other than the row count, an empty scene
    name, or a seed or scale the `errors` checks refuse.
    """
    if not names:
        raise UsageError("training set holds no examples")
    check_array(matrix, "matrix", np.float64, 2)
    if len(names) != len(matrix):
        raise UsageError(f"{len(names)} scene names for {len(matrix)} feature rows")
    if not all(names):
        raise UsageError("scene names cannot be empty")
    k = len(set(names))
    centroids, labels, sq, inertia = clustering.fit(matrix, clustering.KMeansParams(k=k, seed=seed))

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

    classifier = SceneClassifier(centroids, tuple(cluster_names), seed, scale)
    return classifier, inertia, tuple(warnings)


def classify(classifier: SceneClassifier, vector: np.ndarray, now: float) -> ScenePrediction:
    """Nearest scene to one 1-D feature vector, with its scaled-distance confidence, at `now`.

    Raises UsageError for a vector of the wrong shape or a non-finite entry.
    """
    label, distance = clustering.predict(classifier.centroids, vector)
    return ScenePrediction(
        scene=classifier.cluster_names[label],
        confidence=clustering.confidence(distance, classifier.scale),
        at=now,
    )
