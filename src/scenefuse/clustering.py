"""Seeded Lloyd's K-Means plus the scaled-distance confidence score.

One engine serves every caller: acoustic feature vectors, palette vectors,
and raw pixel triples.  Everything is deterministic given the seed — the
k-means++ draw, the lowest-index tie-break on assignment, and the repair
rule that hands a cluster left empty inside the Lloyd loop the single
worst-represented point.  A run's first assignment uses the distance rows
its k-means++ draws computed.  Each run ends, as Lloyd's algorithm does, on
a plain assignment to its final centroids; when the last update moved no
centroid and nothing was repaired, the last pass already is that
assignment and is reused.  `fit` returns the centroids with that
partition and its sum of squares, the inertia.

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

A fit of more than `_SEED_POINTS` points runs its restarts on every
stride-th point only, each restart from its own offset, and one more
Lloyd run on all points, started from the winner's centroids, refines it
(Bradley & Fayyad 1998, "Refining Initial Points for K-Means
Clustering").  A restart that ends in a poor local minimum takes many
iterations, which are cheap on a subsample; restarts on different
subsamples do not share one subsample's pull toward the same poor minimum.

Restarts that see every point (stride 1, as in every fit of at most
`_SEED_POINTS` points) all cluster the same points, and in the row layout
they share their distance rows.  A row
depends only on its centroid, and a centroid only on the points it is the
mean of, so each distinct k-means++ draw and each distinct member set of
an update is measured once per fit, and a later restart that repeats one
copies its row.  This is the narrowest exact form of Elkan (2003), "Using
the Triangle Inequality to Accelerate k-Means": skip a distance whose
answer is already known.  Only bit-for-bit repeats are skipped, so every
output keeps its bits.  In the column layout a row of d_varying < n
columns costs no more than its key, so there every row is computed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, check_int, check_positive, check_range


_MAX_ITERS = 300  # Lloyd iterations per run, at most
_TOL = 1e-6  # a run has converged once no centroid coordinate moves further
_N_INIT = 10  # k-means++ restarts per fit; the lowest-inertia run wins
_SEED_POINTS = 1000  # the restarts run on at most this many points of a fit
DEFAULT_SCALE = 10000.0  # confidence divisor unless training is given another


@dataclass(frozen=True)
class KMeansParams:
    """What a fit is asked for: `k` clusters from the stream seeded by `seed`.

    Only `fit` reads it; callers build one per fit.  The restart count,
    subsample size, iteration cap and convergence tolerance are module
    constants: a fit restarts `_N_INIT` times from fresh k-means++ draws of
    one seeded stream, on at most `_SEED_POINTS` of its points, and
    keeps the lowest-inertia run, refined on all points when it saw fewer,
    so results stay deterministic while single-start local minima get
    smoothed out.  `errors.check_int` refuses a `k` below 1 and a seed
    below 0, as numpy's generators would.
    """

    k: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.k, 1, "k")
        check_int(self.seed, 0, "seed")


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


def _sq_rows(
    points: np.ndarray,
    axis: int,
    centroids: np.ndarray,
    keys: Iterable[object],
    memo: dict[object, np.ndarray] | None,
) -> np.ndarray:
    """`_sq_distances(points, axis, centroids)`, each row computed once per `memo`.

    A centroid is the mean of a set of points, so its distance row depends
    on that member set alone; `keys` names the set of each centroid in turn
    (a k-means++ draw by its point's index, an update by the bytes of its
    member mask) and is read only when there is a memo.  A row whose key
    the memo holds is copied from it; any other is computed on its own and
    remembered while the memo holds fewer than n rows.  With no memo every
    row is computed in one pass.
    """
    if memo is None:
        return _sq_distances(points, axis, centroids)
    sq = np.empty((centroids.shape[0], points.shape[axis]), dtype=np.float64)
    for j, key in enumerate(keys):
        row = memo.get(key)
        if row is None:
            row = _sq_distances(points, axis, centroids[j : j + 1])[0]
            if len(memo) < points.shape[axis]:
                memo[key] = row
        sq[j] = row
    return sq


def _init_pp(
    points: np.ndarray,
    axis: int,
    k: int,
    rng: np.random.Generator,
    memo: dict[object, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++: each next centroid drawn proportional to squared distance.

    Each draw after the first is one inverse-CDF step, clamped to the last
    point, which is the pick once every point sits on a chosen centroid.
    Returns the (k, d) centroids and the (k, n) squared distances from each
    to every point: row j is the one `_sq_rows` gave when centroid j was
    drawn.
    """
    n = points.shape[axis]
    chosen = np.empty((k, points.shape[1 - axis]), dtype=np.float64)
    sq = np.empty((k, n), dtype=np.float64)
    idx = int(rng.integers(n))
    chosen[0] = np.take(points, idx, axis)
    sq[0] = _sq_rows(points, axis, chosen[0:1], (idx,), memo)[0]
    closest_sq = sq[0]
    for j in range(1, k):
        r = rng.random() * float(closest_sq.sum())
        idx = min(int(np.searchsorted(np.cumsum(closest_sq), r, side="right")), n - 1)
        chosen[j] = np.take(points, idx, axis)
        sq[j] = _sq_rows(points, axis, chosen[j : j + 1], (idx,), memo)[0]
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
    points: np.ndarray,
    axis: int,
    start: tuple[np.ndarray, np.ndarray],
    memo: dict[object, np.ndarray] | None,
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """One run from `start`: (centroids, inertia, closing labels, closing (k, n) sq).

    `start` is the (k, d) starting centroids and their (k, n) squared
    distances to `points`; the run updates the centroids in place on a
    repair.  Pass it as a temporary: the run drops its hold on both arrays
    as it replaces them, so they need not outlive the first update.  Each
    update's distance rows come from `_sq_rows` with `memo`.  The inertia
    is the closing assignment's sum of squares.
    """
    centroids, sq = start
    del start

    for _ in range(_MAX_ITERS):
        labels, own = _nearest(sq)
        repaired = _repair_empties(points, axis, centroids, labels, own)

        # the repair left every cluster at least one member, as n >= k
        updated = np.empty_like(centroids)
        for c in range(centroids.shape[0]):
            updated[c] = np.compress(labels == c, points, axis).mean(axis)
        shift = float(np.max(np.abs(updated - centroids), initial=0.0))  # none if no column varies
        centroids = updated
        if shift == 0.0 and not repaired:
            # `sq` was measured against these very centroids, so this pass,
            # left unrepaired, already is the closing assignment
            return centroids, float(own.sum()), labels, sq
        members = ((labels == c).tobytes() for c in range(centroids.shape[0]))
        sq = _sq_rows(points, axis, centroids, members, memo)
        if shift <= _TOL:
            break

    # Lloyd's closing assignment against the final centroids: the partition
    # the run reports and scores, not repaired, so a cluster may own no point
    labels, own = _nearest(sq)
    return centroids, float(own.sum()), labels, sq


def fit(points, params: KMeansParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Run Lloyd's algorithm from seeded k-means++ starts, keeping the best.

    The `_N_INIT` restarts run on every stride-th point, stride =
    ceil(n / `_SEED_POINTS`) (lowered, if need be, so they see at least k
    points): restart i on the n // stride points from offset i % stride,
    so every restart's inertia sums over as many points.  The lowest
    inertia wins, earliest run on a tie.  With stride 1 every restart sees
    all points and the winner is the result.  Otherwise one more Lloyd run
    on all points, started from the winner's centroids, is the result.

    Returns `(centroids, labels, sq, inertia)`: the resulting run's (k, d)
    centroids, the closing assignment it was scored on, with `sq` the
    (n, k) squared distances, and the inertia, that partition's
    within-cluster sum of squares, as a float.

    Columns equal across all points are dropped once, before the first
    run: every run clusters one contiguous copy of the varying columns
    (all of them when every column varies), and each dropped column's
    centroid entry is the points' shared value.  The copy holds the points
    as columns, a (d_varying, n) array, when d_varying < n, and as rows
    otherwise; every run keeps that layout.  So `sq` and every inertia are
    sums over the varying columns: added left to right in the column
    layout, in NumPy's pairwise order along each row in the row layout.
    They equal `assign(points, centroids)` up to summation order,
    and bit for bit when at most two columns vary.  When no column varies,
    every centroid is the shared point itself and the inertia is 0.
    Scratch memory is O(n·(d_varying + k)) on top of that copy.  The
    distance work of a run is k single-centroid rows at the k-means++
    draws, which the first assignment reuses, plus one (k, n) pass per
    update that moved a centroid or followed a repair.  A refinement run
    starts with one (k, n) pass.  When the restarts share all points
    (stride 1) in the row layout, they share one memo of distance rows
    instead, keyed by the member set whose mean each centroid is (a draw's
    one point, an update's members): a row is computed once per distinct
    draw and per distinct member set, and any later restart that needs it
    copies it, bit for bit.  The memo keeps at most n rows, and n <=
    d_varying there, so it never outgrows the copy.

    Deterministic: identical points and params give bit-identical centroids.
    Within each run, convergence is declared when no centroid coordinate
    moved more than `_TOL` (infinity norm) in one update.

    Raises UsageError for no points or fewer points than clusters, points
    of mixed lengths or not one (n, d) matrix, a NaN or infinite coordinate,
    or points so large that a returned centroid or the inertia overflows.
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

    # restart i sees every stride-th point from offset i % stride, a view of
    # n // stride points, at least k; restarts on different subsamples miss a
    # basin independently.  Each k-means++ start goes straight into its run,
    # so no frame here holds it
    stride = min(-(-n // _SEED_POINTS), n // params.k)
    span = n // stride * stride
    samples = (
        work[:, i % stride : span : stride] if axis else work[i % stride : span : stride]
        for i in range(_N_INIT)
    )
    # with stride 1 every restart clusters the same points, so a member set's
    # distance row, once computed, serves every later restart that needs it.
    # Only in the row layout, where a row's d_varying >= n columns cost more
    # than its n-byte key: in the column layout keys cost more than they save
    memo = {} if stride == 1 and axis == 0 else None
    rng = np.random.default_rng(params.seed)
    runs = (_lloyd_run(s, axis, _init_pp(s, axis, params.k, rng, memo), memo) for s in samples)
    centroids, inertia, labels, sq = min(runs, key=lambda run: run[1])  # earliest on a tie
    if stride > 1:
        # one Lloyd run on every point refines the winner
        centroids, inertia, labels, sq = _lloyd_run(
            work, axis, (centroids, _sq_distances(work, axis, centroids)), None
        )

    # the shared value is each constant column's exact mean
    full = np.repeat(matrix[:1], params.k, axis=0)
    full[:, varying] = centroids
    if not (np.isfinite(full).all() and math.isfinite(inertia)):
        raise UsageError("points so large that a centroid or the inertia overflows")
    return full, labels, sq.T, inertia


def predict(centroids: np.ndarray, point) -> tuple[int, float]:
    """(label, Euclidean distance) of the nearest of the (k, d) `centroids` to one vector.

    Ties go to the lowest label.  Raises UsageError for anything but a 1-D
    vector of d entries, or a NaN or infinite coordinate.
    """
    vec = np.asarray(point, dtype=np.float64)
    if vec.shape != centroids.shape[1:]:
        raise UsageError(f"point has shape {vec.shape}, model expects {centroids.shape[1:]}")
    if not np.isfinite(vec).all():
        raise UsageError("point must be finite, not NaN or inf")
    labels, sq = assign(vec[None, :], centroids)
    label = int(labels[0])
    return label, float(np.sqrt(sq[0, label]))


def confidence(distance: float, scale: float = DEFAULT_SCALE) -> float:
    """Scaled-distance confidence: 100 - distance/scale, clamped to [0, 100].

    Zero distance scores a perfect 100; anything at or past 100*scale floors
    at 0 rather than going negative, an infinite distance too.
    """
    check_range(distance, "distance", 0.0, math.inf)
    check_positive(scale, "scale")
    return min(100.0, max(0.0, 100.0 - distance / scale))
