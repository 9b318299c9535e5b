"""Seeded Lloyd's K-Means plus the scaled-distance confidence score.

One engine serves every caller: acoustic feature vectors, palette vectors,
and raw pixel triples.  Everything is deterministic given the seed — the
k-means++ draw, the lowest-index tie-break on assignment, and the repair
rule that hands a cluster left empty inside the Lloyd loop the single
worst-represented point.  A run's first assignment uses the distance rows
its k-means++ draws computed.  Each run ends, as Lloyd's algorithm does, on
a plain assignment to its final centroids; when the last update moved no
centroid and nothing was repaired, the last pass already is that
assignment and is reused.  `fit` returns that partition with the model,
and its sum of squares is the model's inertia.

Columns on which every point agrees add exactly 0 to every distance, so
`fit` finds them once per fit and clusters a contiguous copy of the
others; an acoustic vector's frequency half is such a block.  That copy
lays the points along its longer axis, so NumPy's inner loops run long:
as columns of a (d, n) array when fewer columns vary than there are
points (a photo's thousands of pixel triples), as rows of an (n, d) array
otherwise.  The private helpers take that point axis and share one
distance kernel, which subtracts one centroid at a time, squares in place
and reduces over the dimension axis into row j of a (k, n) result, so a
pass needs O(n·(d_varying + k)) scratch memory rather than an (n, k, d)
temporary.  Labels come from k − 1 `<` comparisons down those rows.
Points and query vectors must be finite: NaN or inf is refused with
UsageError at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, check_int, check_positive


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
    while single-start local minima get smoothed out.  `errors.check_int`
    refuses a `k` below 1 and a seed below 0, as numpy's generators would.
    """

    k: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.k, 1, "k")
        check_int(self.seed, 0, "seed")


@dataclass(frozen=True, eq=False)
class KMeansModel:
    """Fitted centroids plus the objective trace that produced them.

    inertia_history holds the within-cluster sum of squared distances
    measured after every assignment, the closing one included; it never
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


def _sq_distances(points: np.ndarray, axis: int, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every centroid to every point, as (k, n).

    `points` holds one point per index of `axis`: (n, d) rows for 0, (d, n)
    columns for 1.  `centroids` is (k, d).  One centroid at a time, so the
    scratch is a single difference the size of `points`; each sum is
    `np.add.reduce` over the dimension axis.
    """
    sq = np.empty((centroids.shape[0], points.shape[axis]), dtype=np.float64)
    diff = np.empty(points.shape, dtype=np.float64)
    for j, centroid in enumerate(np.expand_dims(centroids, axis + 1)):
        np.subtract(points, centroid, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1 - axis, out=sq[j])
    return sq


def _nearest(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, own squared distance) per point of the (k, n) `sq`, ties to the lowest index."""
    labels = np.zeros(sq.shape[1], dtype=np.intp)
    own = sq[0].copy()
    for j in range(1, sq.shape[0]):
        closer = sq[j] < own
        labels[closer] = j
        np.minimum(own, sq[j], out=own)
    return labels, own


def assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label each point with its nearest centroid, ties to the lowest index.

    `points` is (n, d), taken as rows, and `centroids` is (k, d).  Each
    squared distance sums its row of squared differences with
    `np.add.reduce`, in NumPy's pairwise order (left to right below eight
    columns).  Returns the (n,) labels and the (n, k) squared distances they
    were chosen from, a transposed view of a (k, n) array.  A centroid may
    own no point.  Scratch memory is O(n·(d + k)).
    """
    sq = _sq_distances(points, 0, centroids)
    return _nearest(sq)[0], sq.T


def _init_pp(
    points: np.ndarray, axis: int, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++: each next centroid drawn proportional to squared distance.

    Each draw after the first is one inverse-CDF step, clamped to the last
    point, which is the pick once every point sits on a chosen centroid.
    Returns the (k, d) centroids and the (k, n) squared distances from each
    to every point: row j is the one computed when centroid j was drawn.
    """
    n = points.shape[axis]
    chosen = np.empty((k, points.shape[1 - axis]), dtype=np.float64)
    sq = np.empty((k, n), dtype=np.float64)
    idx = int(rng.integers(n))
    chosen[0] = np.take(points, idx, axis)
    sq[0] = _sq_distances(points, axis, chosen[0:1])[0]
    closest_sq = sq[0]
    for j in range(1, k):
        r = rng.random() * float(closest_sq.sum())
        idx = min(int(np.searchsorted(np.cumsum(closest_sq), r, side="right")), n - 1)
        chosen[j] = np.take(points, idx, axis)
        sq[j] = _sq_distances(points, axis, chosen[j : j + 1])[0]
        closest_sq = np.minimum(closest_sq, sq[j])
    return chosen, sq


def _repair_empties(
    points: np.ndarray,
    axis: int,
    centroids: np.ndarray,
    labels: np.ndarray,
    own: np.ndarray,
) -> bool:
    """Give every empty cluster the point farthest from its current centroid.

    `own` holds each point's squared distance to its own centroid.  Empty
    clusters are visited in ascending index order; each seizes the
    worst-represented point whose own cluster still has another member
    (ties broken by the lowest point index), so one exists while n >= k.
    `centroids`, `labels` and `own` are updated in place.  Inertia can only
    drop: the seized point becomes its cluster's centroid, at distance 0.
    Returns whether any cluster was empty, so whether a point was seized.
    """
    counts = np.bincount(labels, minlength=centroids.shape[0])
    empties = np.flatnonzero(counts == 0)
    for empty in empties:
        candidates = np.flatnonzero(counts[labels] > 1)
        victim = int(candidates[np.argmax(own[candidates])])
        counts[labels[victim]] -= 1
        labels[victim] = empty
        counts[empty] = 1
        centroids[empty] = np.take(points, victim, axis)
        own[victim] = 0.0
    return empties.size > 0


def _lloyd_run(
    points: np.ndarray, axis: int, params: KMeansParams, rng: np.random.Generator
) -> tuple[np.ndarray, list[float], np.ndarray, np.ndarray]:
    """One seeded run: (centroids, inertia history, closing labels, closing (k, n) sq)."""
    centroids, sq = _init_pp(points, axis, params.k, rng)
    history: list[float] = []

    for _ in range(_MAX_ITERS):
        labels, own = _nearest(sq)
        repaired = _repair_empties(points, axis, centroids, labels, own)
        history.append(float(own.sum()))

        # the repair left every cluster at least one member, as n >= k
        updated = np.empty_like(centroids)
        for c in range(params.k):
            updated[c] = np.compress(labels == c, points, axis).mean(axis)
        shift = float(np.max(np.abs(updated - centroids), initial=0.0))  # none if no column varies
        centroids = updated
        if shift == 0.0 and not repaired:
            # `sq` was measured against these very centroids, so this pass,
            # left unrepaired, already is the closing assignment
            history.append(history[-1])
            return centroids, history, labels, sq
        sq = _sq_distances(points, axis, centroids)
        if shift <= _TOL:
            break

    # Lloyd's closing assignment against the final centroids: the partition
    # the run reports and scores, not repaired, so a cluster may own no point
    labels, own = _nearest(sq)
    history.append(float(own.sum()))
    return centroids, history, labels, sq


def fit(points, params: KMeansParams) -> tuple[KMeansModel, np.ndarray, np.ndarray]:
    """Run Lloyd's algorithm from seeded k-means++ starts, keeping the best.

    Returns `(model, labels, sq)`: the winning run's model and the closing
    assignment it was scored on, with `sq` the (n, k) squared distances.
    `model.inertia` is that partition's sum of squared distances.

    Columns equal across all points are dropped once, before the first
    run: every run clusters one contiguous copy of the varying columns
    (all of them when every column varies), and each dropped column's
    centroid entry is the points' shared value.  The copy holds the points
    as columns, a (d_varying, n) array, when d_varying < n, and as rows
    otherwise; every run keeps that layout.  So `sq` and every inertia are
    sums over the varying columns: added left to right in the column
    layout, in NumPy's pairwise order along each row in the row layout.
    They equal `assign(points, model.centroids)` up to summation order,
    and bit for bit when at most two columns vary.  When no column varies,
    every centroid is the shared point itself and the inertia is 0.
    Scratch memory is O(n·(d_varying + k)) on top of that copy.  The
    distance work of a run is k single-centroid rows at the k-means++
    draws, which the first assignment reuses, plus one (k, n) pass per
    update that moved a centroid or followed a repair.

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
    # cluster one contiguous copy of the others, which may be none at all,
    # with the points along the longer axis
    varying = (matrix != matrix[0]).any(axis=0)
    axis = 1 if np.count_nonzero(varying) < n else 0
    work = np.compress(varying, matrix.T if axis else matrix, axis=1 - axis)

    rng = np.random.default_rng(params.seed)
    runs = (_lloyd_run(work, axis, params, rng) for _ in range(_N_INIT))
    centroids, history, labels, sq = min(runs, key=lambda run: run[1][-1])  # earliest on a tie

    # the shared value is each constant column's exact mean
    full = np.repeat(matrix[:1], params.k, axis=0)
    full[:, varying] = centroids
    return KMeansModel(centroids=full, inertia_history=tuple(history)), labels, sq.T


def predict(model: KMeansModel, point) -> tuple[int, float]:
    """(label, Euclidean distance) of the centroid nearest one vector; ties to the lowest label.

    Raises UsageError for anything but a 1-D vector of `model.dim` entries,
    or a NaN or infinite coordinate.
    """
    vec = np.asarray(point, dtype=np.float64)
    if vec.shape != (model.dim,):
        raise UsageError(f"point has shape {vec.shape}, model expects ({model.dim},)")
    if not np.isfinite(vec).all():
        raise UsageError("point must be finite, not NaN or inf")
    labels, sq = assign(vec[None, :], model.centroids)
    label = int(labels[0])
    return label, float(np.sqrt(sq[0, label]))


def confidence(distance: float, scale: float = DEFAULT_SCALE) -> float:
    """Scaled-distance confidence: 100 - distance/scale, clamped to [0, 100].

    Zero distance scores a perfect 100; anything at or past 100*scale floors
    at 0 rather than going negative.
    """
    if not distance >= 0.0:
        raise UsageError("distance must be a number, not negative or NaN")
    check_positive(scale, "scale")
    return min(100.0, max(0.0, 100.0 - distance / scale))
