"""Seeded Lloyd's K-Means plus the scaled-distance confidence score.

One engine serves every caller: acoustic feature vectors, palette vectors,
and raw pixel triples.  Everything is deterministic given the seed — the
k-means++ draw, the lowest-index tie-break on assignment, and the repair
rule that hands an empty cluster the single worst-represented point.

Every squared distance goes through `_sq_distances`, which fills its
(n, k) result one centroid at a time, so a pass needs O(n·d) scratch
memory rather than an (n, k, d) temporary.  Points and query vectors must
be finite: NaN or inf is refused with ValueError at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewPoints, ZeroK


_MAX_ITERS = 300  # Lloyd iterations per run, at most
_TOL = 1e-6  # a run has converged once no centroid coordinate moves further
_N_INIT = 10  # k-means++ restarts per fit; the lowest-inertia run wins


@dataclass(frozen=True)
class KMeansParams:
    """What a fit is asked for: `k` clusters from the stream seeded by `seed`.

    Only `fit` reads it; callers build one per fit.  The restart count,
    iteration cap and convergence tolerance are module constants: a fit
    restarts `_N_INIT` times from fresh k-means++ draws of one seeded
    stream and keeps the lowest-inertia run, so results stay deterministic
    while single-start local minima get smoothed out.
    """

    k: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ZeroK(f"k must be at least 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class KMeansModel:
    """Fitted centroids plus the objective trace that produced them.

    inertia_history holds the within-cluster sum of squared distances
    measured after every assignment pass, final pass included; it never
    increases.  The cluster count and the width `dim` are read off
    `centroids`, the final `inertia` off `inertia_history`; none is stored.
    """

    centroids: np.ndarray  # shape (k, dim)
    inertia_history: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.inertia_history:
            raise ValueError("inertia_history cannot be empty")
        if not (math.isfinite(self.inertia) and self.inertia >= 0.0):
            raise ValueError("inertia must be finite and not negative")
        if not np.isfinite(self.centroids).all():
            raise ValueError("centroids must be finite")
        if self.centroids.ndim != 2 or self.centroids.shape[0] == 0:
            raise ValueError(f"centroid shape {self.centroids.shape} is not a matrix with rows")

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]


@dataclass(frozen=True)
class ClusterAssignment:
    label: int
    distance: float


def _as_matrix(points) -> np.ndarray:
    try:
        matrix = np.asarray(points, dtype=np.float64)
    except ValueError as exc:  # ragged rows, or text
        raise DimensionMismatch(f"points must form one (n, d) matrix: {exc}") from exc
    if matrix.size == 0:
        raise TooFewPoints("no points at all")
    if matrix.ndim != 2:
        raise DimensionMismatch(f"points must form one (n, d) matrix, not shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("points must be finite, not NaN or inf")
    return matrix


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every point to every centroid.

    `points` is (n, d), `centroids` is (k, d), the result is (n, k).  One
    centroid column at a time, so the scratch is a single (n, d) difference.
    """
    sq = np.empty((points.shape[0], centroids.shape[0]), dtype=np.float64)
    diff = np.empty(points.shape, dtype=np.float64)
    for j, centroid in enumerate(centroids):
        np.subtract(points, centroid, out=diff)
        sq[:, j] = np.einsum("nd,nd->n", diff, diff)
    return sq


def assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label each point with its nearest centroid, ties to the lowest index.

    `points` is (n, d) and `centroids` is (k, d).  Returns the (n,) labels
    and the (n, k) squared distances they were chosen from.  Unlike the
    labels inside `fit`, these are never repaired: a centroid may own no
    point, which is exactly how `predict` routes new vectors.
    """
    sq = _sq_distances(points, centroids)
    return sq.argmin(axis=1), sq


def _init_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: each next centroid drawn proportional to squared distance."""
    n = points.shape[0]
    chosen = np.empty((k, points.shape[1]), dtype=np.float64)
    idx = int(rng.integers(n))
    chosen[0] = points[idx]
    closest_sq = _sq_distances(points, chosen[0:1])[:, 0]
    for j in range(1, k):
        total = float(closest_sq.sum())
        if total > 0.0:
            # inverse-CDF draw keeps the stream deterministic per seed
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest_sq), r, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(rng.integers(n))
        chosen[j] = points[idx]
        closest_sq = np.minimum(closest_sq, _sq_distances(points, chosen[j : j + 1])[:, 0])
    return chosen


def _repair_empties(
    points: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    sq: np.ndarray,
) -> None:
    """Give every empty cluster the point farthest from its current centroid.

    Empty clusters are visited in ascending index order; each seizes the
    worst-represented point whose own cluster still has another member
    (ties broken by the lowest point index).  `centroids`, `labels` and
    `sq` are updated in place.  Inertia can only drop: the seized point's
    distance becomes 0.
    """
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    for empty in np.flatnonzero(counts == 0):
        point_sq = sq[np.arange(points.shape[0]), labels]
        donors = counts[labels] > 1
        candidates = np.flatnonzero(donors)
        if candidates.size == 0:  # unreachable while n >= k, kept defensive
            continue
        victim = int(candidates[np.argmax(point_sq[candidates])])
        counts[labels[victim]] -= 1
        labels[victim] = empty
        counts[empty] = 1
        centroids[empty] = points[victim]
        sq[:, empty] = _sq_distances(points, centroids[empty : empty + 1])[:, 0]


def _lloyd_run(
    matrix: np.ndarray, params: KMeansParams, rng: np.random.Generator
) -> tuple[np.ndarray, list[float]]:
    n = matrix.shape[0]
    centroids = _init_pp(matrix, params.k, rng)
    history: list[float] = []

    for _ in range(_MAX_ITERS):
        labels, sq = assign(matrix, centroids)
        _repair_empties(matrix, centroids, labels, sq)
        history.append(float(sq[np.arange(n), labels].sum()))

        updated = centroids.copy()
        for c in range(params.k):
            members = matrix[labels == c]
            if members.shape[0] > 0:
                updated[c] = members.mean(axis=0)
        shift = float(np.max(np.abs(updated - centroids)))
        centroids = updated
        if shift <= _TOL:
            break

    # one closing assignment against the final centroids, repaired so that
    # every cluster owns at least one point
    labels, sq = assign(matrix, centroids)
    _repair_empties(matrix, centroids, labels, sq)
    history.append(float(sq[np.arange(n), labels].sum()))
    return centroids, history


def fit(points, params: KMeansParams) -> KMeansModel:
    """Run Lloyd's algorithm from seeded k-means++ starts, keeping the best.

    Deterministic: identical points and params give bit-identical centroids.
    Within each run, convergence is declared when no centroid coordinate
    moved more than `_TOL` (infinity norm) in one update; across runs,
    the lowest final inertia wins, earliest run on a tie.

    Raises:
        TooFewPoints: fewer points than clusters.
        DimensionMismatch: points of mixed lengths, or not one (n, d) matrix.
        ValueError: a NaN or infinite coordinate, or points so large that
            a centroid or the inertia overflows.
    """
    matrix = _as_matrix(points)
    n = matrix.shape[0]
    if n < params.k:
        raise TooFewPoints(f"{n} points cannot fill {params.k} clusters")

    rng = np.random.default_rng(params.seed)
    best: tuple[np.ndarray, list[float]] | None = None
    for _ in range(_N_INIT):
        centroids, history = _lloyd_run(matrix, params, rng)
        if best is None or history[-1] < best[1][-1]:
            best = (centroids, history)
    centroids, history = best

    return KMeansModel(centroids=centroids, inertia_history=tuple(history))


def predict(model: KMeansModel, point) -> ClusterAssignment:
    """Nearest centroid for one vector; ties go to the lowest label.

    Raises DimensionMismatch for a vector of the wrong length and
    ValueError for a NaN or infinite coordinate.
    """
    vec = np.asarray(point, dtype=np.float64)
    if vec.ndim != 1 or vec.size != model.dim:
        raise DimensionMismatch(
            f"point has {vec.size} dims, model expects {model.dim}"
        )
    if not np.isfinite(vec).all():
        raise ValueError("point must be finite, not NaN or inf")
    labels, sq = assign(vec[None, :], model.centroids)
    label = int(labels[0])
    return ClusterAssignment(label=label, distance=float(np.sqrt(sq[0, label])))


def check_scale(scale: float) -> None:
    """Refuse a confidence divisor that is not finite and positive, with ValueError."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError("scale must be finite and positive")


def confidence(distance: float, scale: float = 10000.0) -> float:
    """Scaled-distance confidence: 100 - distance/scale, clamped to [0, 100].

    Zero distance scores a perfect 100; anything at or past 100*scale floors
    at 0 rather than going negative.
    """
    if not distance >= 0.0:
        raise ValueError("distance must be a number, not negative or NaN")
    check_scale(scale)
    return min(100.0, max(0.0, 100.0 - distance / scale))
