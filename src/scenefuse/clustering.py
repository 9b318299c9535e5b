"""Seeded Lloyd's K-Means plus the scaled-distance confidence score.

One engine serves every caller: acoustic feature vectors, palette vectors,
and raw pixel triples.  Everything is deterministic given the seed — the
k-means++ draw, the lowest-index tie-break on assignment, and the repair
rule that hands a cluster left empty inside the Lloyd loop the single
worst-represented point.  Each run ends, as Lloyd's algorithm does, on a
plain assignment to its final centroids; `fit` returns that partition with
the model, and its sum of squares is the model's inertia.

Columns on which every point agrees add exactly 0 to every distance, so
`fit` finds them once per fit and clusters a contiguous copy of the
others; an acoustic vector's frequency half is such a block.  Every
squared distance goes through `_sq_distances`, which fills its (n, k)
result one centroid at a time, so a pass needs O(n·d_varying) scratch
memory rather than an (n, k, d) temporary.  Points and query vectors must
be finite: NaN or inf is refused with UsageError at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError


_MAX_ITERS = 300  # Lloyd iterations per run, at most
_TOL = 1e-6  # a run has converged once no centroid coordinate moves further
_N_INIT = 10  # k-means++ restarts per fit; the lowest-inertia run wins
DEFAULT_SCALE = 10000.0  # confidence divisor unless training is given another


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
            raise UsageError(f"k must be at least 1, got {self.k}")
        if self.seed < 0:  # numpy's generators take non-negative seeds only
            raise UsageError(f"seed must not be negative, got {self.seed}")


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
            raise UsageError("inertia_history cannot be empty")
        if not (math.isfinite(self.inertia) and self.inertia >= 0.0):
            raise UsageError("inertia must be finite and not negative")
        if not np.isfinite(self.centroids).all():
            raise UsageError("centroids must be finite")
        if self.centroids.ndim != 2 or self.centroids.shape[0] == 0:
            raise UsageError(f"centroid shape {self.centroids.shape} is not a matrix with rows")

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]


def _as_matrix(points) -> np.ndarray:
    try:
        matrix = np.asarray(points, dtype=np.float64)
    except ValueError as exc:  # ragged rows, or text
        raise UsageError(f"points must form one (n, d) matrix: {exc}") from exc
    if matrix.size == 0:
        raise UsageError("no points at all")
    if matrix.ndim != 2:
        raise UsageError(f"points must form one (n, d) matrix, not shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise UsageError("points must be finite, not NaN or inf")
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
    and the (n, k) squared distances they were chosen from.  A centroid may
    own no point.
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
    own: np.ndarray,
) -> None:
    """Give every empty cluster the point farthest from its current centroid.

    `own` holds each point's squared distance to its own centroid.  Empty
    clusters are visited in ascending index order; each seizes the
    worst-represented point whose own cluster still has another member
    (ties broken by the lowest point index), so one exists while n >= k.
    `centroids`, `labels` and `own` are updated in place.  Inertia can only
    drop: the seized point becomes its cluster's centroid, at distance 0.
    """
    counts = np.bincount(labels, minlength=centroids.shape[0])
    for empty in np.flatnonzero(counts == 0):
        candidates = np.flatnonzero(counts[labels] > 1)
        victim = int(candidates[np.argmax(own[candidates])])
        counts[labels[victim]] -= 1
        labels[victim] = empty
        counts[empty] = 1
        centroids[empty] = points[victim]
        own[victim] = 0.0


def _lloyd_run(
    matrix: np.ndarray, params: KMeansParams, rng: np.random.Generator
) -> tuple[np.ndarray, list[float], np.ndarray, np.ndarray]:
    """One seeded run: (centroids, inertia history, closing labels, closing sq)."""
    rows = np.arange(matrix.shape[0])
    centroids = _init_pp(matrix, params.k, rng)
    history: list[float] = []

    for _ in range(_MAX_ITERS):
        labels, sq = assign(matrix, centroids)
        own = sq[rows, labels]
        _repair_empties(matrix, centroids, labels, own)
        history.append(float(own.sum()))

        # the repair left every cluster at least one member, as n >= k
        updated = np.empty_like(centroids)
        for c in range(params.k):
            updated[c] = matrix[labels == c].mean(axis=0)
        shift = float(np.max(np.abs(updated - centroids), initial=0.0))  # none if no column varies
        centroids = updated
        if shift <= _TOL:
            break

    # Lloyd's closing assignment against the final centroids: the partition
    # the run reports and scores, not repaired, so a cluster may own no point
    labels, sq = assign(matrix, centroids)
    history.append(float(sq[rows, labels].sum()))
    return centroids, history, labels, sq


def fit(points, params: KMeansParams) -> tuple[KMeansModel, np.ndarray, np.ndarray]:
    """Run Lloyd's algorithm from seeded k-means++ starts, keeping the best.

    Returns `(model, labels, sq)`: the winning run's model and the closing
    assignment it was scored on.  `model.inertia` is that partition's sum
    of squared distances.

    Columns equal across all points are dropped once, before the first
    run: every run clusters one contiguous copy of the varying columns
    (all of them when every column varies), and each dropped column's
    centroid entry is the points' shared value.  So `sq` and every
    inertia are sums over the varying columns.  They equal
    `assign(points, model.centroids)` up to summation order, and bit for
    bit when at most two columns vary.  When no column varies, every
    centroid is the shared point itself and the inertia is 0.  Scratch
    memory is O(n·d_varying) on top of that copy.

    Deterministic: identical points and params give bit-identical centroids.
    Within each run, convergence is declared when no centroid coordinate
    moved more than `_TOL` (infinity norm) in one update; across runs,
    the lowest final inertia wins, earliest run on a tie.

    Raises UsageError for no points or fewer points than clusters, points
    of mixed lengths or not one (n, d) matrix, a NaN or infinite coordinate,
    or points so large that a centroid or the inertia overflows.
    """
    matrix = _as_matrix(points)
    n = matrix.shape[0]
    if n < params.k:
        raise UsageError(f"{n} points cannot fill {params.k} clusters")

    # a column on which every point agrees adds exactly 0 to every distance:
    # cluster one contiguous copy of the others, which may be none at all
    varying = (matrix != matrix[0]).any(axis=0)
    work = np.compress(varying, matrix, axis=1)

    rng = np.random.default_rng(params.seed)
    runs = (_lloyd_run(work, params, rng) for _ in range(_N_INIT))
    centroids, history, labels, sq = min(runs, key=lambda run: run[1][-1])  # earliest on a tie

    # the shared value is each constant column's exact mean
    full = np.repeat(matrix[:1], params.k, axis=0)
    full[:, varying] = centroids
    return KMeansModel(centroids=full, inertia_history=tuple(history)), labels, sq


def predict(model: KMeansModel, point) -> tuple[int, float]:
    """(label, Euclidean distance) of the centroid nearest one vector; ties to the lowest label.

    Raises UsageError for a vector of the wrong length or a NaN or infinite
    coordinate.
    """
    vec = np.asarray(point, dtype=np.float64)
    if vec.ndim != 1 or vec.size != model.dim:
        raise UsageError(
            f"point has {vec.size} dims, model expects {model.dim}"
        )
    if not np.isfinite(vec).all():
        raise UsageError("point must be finite, not NaN or inf")
    labels, sq = assign(vec[None, :], model.centroids)
    label = int(labels[0])
    return label, float(np.sqrt(sq[0, label]))


def check_scale(scale: float) -> None:
    """Refuse a confidence divisor that is not finite and positive, with UsageError."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise UsageError("scale must be finite and positive")


def confidence(distance: float, scale: float = DEFAULT_SCALE) -> float:
    """Scaled-distance confidence: 100 - distance/scale, clamped to [0, 100].

    Zero distance scores a perfect 100; anything at or past 100*scale floors
    at 0 rather than going negative.
    """
    if not distance >= 0.0:
        raise UsageError("distance must be a number, not negative or NaN")
    check_scale(scale)
    return min(100.0, max(0.0, 100.0 - distance / scale))
