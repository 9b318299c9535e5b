"""Seeded Lloyd's K-Means plus the scaled-distance confidence score.

One engine serves every caller: acoustic feature vectors, palette vectors,
and raw pixel triples.  Everything is deterministic given the seed — the
k-means++ draw, the lowest-index tie-break on assignment, and the repair
rule that hands a cluster left empty inside the Lloyd loop the single
worst-represented point.  A run's first assignment uses the distance rows
its k-means++ draws computed.  Each run ends, as Lloyd's algorithm does, on
a plain assignment to its final centroids; when the last update moved no
centroid and nothing was repaired, the last pass already is that
assignment and is reused.  So is a pass that, unrepaired, finds the very
partition its centroids were averaged from: averaging it again would add
the same points in the same order, so the run closes without that update.
`fit` returns its last run's centroids with that partition and its sum of
squares, the inertia.

Columns on which every point agrees add exactly 0 to every distance, so
`fit` finds them once per fit and clusters only the others; an acoustic
vector's frequency half is such a block.  The points lie along the
longer axis, so NumPy's inner loops run long: as columns of a (d, n)
copy when fewer columns vary than there are points (a photo's thousands
of pixel triples), as rows otherwise.  Rows need no copy when their
varying columns form one run and each row's coordinates are contiguous,
as in every acoustic fit (the amplitude half) and every fit whose columns
all vary: the fit clusters a view of the caller's points, and no run
writes to them.  Scattered varying columns, or rows that are not
contiguous, are copied into one contiguous (n, d_varying) array.  The
input checks and the search for varying columns also read the points a
block of rows at a time, so neither holds a mask of the whole input.  The
private helpers take that point axis and share one distance kernel,
which subtracts one centroid at a time, squares in place and reduces over
the dimension axis into row j of a (k, n) result, so a pass never holds
an (n, k, d) temporary.  Columns subtract into one difference of their
size.  Rows go through blocks of at most `_BLOCK_BYTES` (Lam, Rothberg &
Wolf 1991, "The cache performance and optimizations of blocked
algorithms"), each block's difference from every centroid in turn, so
the scratch is one block that stays in cache whatever n is, and each
point's sum is still one `np.add.reduce` over its own row of that
contiguous block, whether the block came from a view or a copy.  Labels
come from k − 1 `<` comparisons down the rows of that (k, n) result.  A
row-layout update adds each cluster's member rows in place, in point
order, as NumPy's `mean` of their copy would, so it copies no rows
either.  Points, centroids and query vectors must be finite: NaN or inf
is refused with UsageError at the boundary.

Every run of a fit draws into and updates one (k, d_varying) centroid
buffer, which `fit` allocates once, or one (k, n) buffer for runs in the
span below.  A k-means++ start overwrites it, and an update replaces it
row by row: each mean is built in one scratch row, its move is measured
in the old row, and only then does it overwrite that row.  So a run holds
no second (k, d_varying) array.  The stacked restarts below keep their
own centroids.  When every column varies, as in every acoustic fit, that
buffer is what `fit` returns.

Every fit ends the same way: one more Lloyd run on all its points gives
the result.  It starts from the winning restart's centroids when the
restarts ran as a stack, and otherwise from the winner's partition, which
a run returns and `fit` keeps in place of a copy of its centroids,
averaged into the (k, d_varying) buffer over that restart's points.  A
winner that saw every point and closed on a fixed point of them gives
back the same partition, after one pass and one update.

A fit of more than `_SEED_POINTS` points runs its restarts on every
stride-th point only, each restart from its own offset, and the last run
refines the winner on all points (Bradley & Fayyad 1998, "Refining
Initial Points for K-Means Clustering").  A restart that ends in a poor
local minimum takes many iterations, which are cheap on a subsample;
restarts on different subsamples do not share one subsample's pull toward
the same poor minimum.

In the column layout those restarts run side by side, as one (R, d, m)
stack of their R = `_N_INIT` subsamples of m points each, because a photo
fit's restarts cost NumPy calls more than arithmetic.  Every step is one
call across the stack: the k-means++ draws (their uniforms drawn first, in
the order one restart at a time draws them), each distance row, the k − 1
label comparisons, and each column's sums, one `np.bincount` over all
restarts and clusters.  A restart leaves the stack when its run closes, so
later passes cost less, and one that leaves a cluster empty is repaired on
its own.  The scratch is O(R·m·(d_varying + k)), one centroid's difference
at a time as above, and never depends on n.  Each restart gives the bits
it gives when run alone wherever its means are exact: a `np.bincount` sum
adds in point order and `mean` in NumPy's pairwise order, and the two
agree on integer coordinates, such as every pixel, whose sums are exact.
Elsewhere a restart's means may differ in the last bits; only the
winner's centroids leave the stack, to start the last run.  The row
layout keeps one restart at a time: there a stack would hold R copies of
d_varying >= m columns.

Restarts that see every point (stride 1, as in every fit of at most
`_SEED_POINTS` points) in the row layout run in the span of the points
instead, on n coordinates a point rather than d_varying >= n (Dhillon,
Guan & Kulis 2004, "Kernel k-means, spectral clustering and normalized
cuts").  k-means sees only distances between points and means of points,
and every mean lies in the points' span, so coordinates with the points'
pairwise distances serve as well in exact arithmetic.  They are the rows
of an (n, n) array, from the eigen-decomposition of the points' centred
(n, n) Gram matrix, summed over column blocks of at most `_BLOCK_BYTES`
after one exact power-of-two scale that keeps every sum finite, and the
restarts run on them as on any rows, with a (k, n) buffer.  Only the
winner's partition reaches the full space, to start the last run, so
rounding in the span changes a fit only where it leads a restart
elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, check_array, check_int, check_positive, check_range


# Lloyd iterations per run, at most; at least 1, so a run ends on an averaged partition
_MAX_ITERS = 300
_TOL = 1e-6  # a run has converged once no centroid coordinate moves further
_N_INIT = 10  # k-means++ restarts per fit; the lowest-inertia run wins
_SEED_POINTS = 1000  # the restarts run on at most this many points of a fit
# The row layout's difference buffer, a block of points that stays in L2.  On the
# bench's acoustic shape, (64, 32,769) varying columns, on a 2-core x86_64 with 2 MiB of
# L2 a core, one distance row took 2.48 ms in 512 KiB blocks (one 256 KiB row each),
# 2.67 ms in 1 MiB blocks (three rows) and 2.47 ms in 256 KiB blocks (one row).  512 KiB
# keeps a photo's input, at most about 240 KB, one block of the input checks.
_BLOCK_BYTES = 1 << 19
DEFAULT_SCALE = 10000.0  # confidence divisor unless training is given another


@dataclass(frozen=True)
class KMeansParams:
    """What a fit is asked for: `k` clusters from the stream seeded by `seed`.

    Only `fit` reads it; callers build one per fit.  The restart count,
    subsample size, iteration cap and convergence tolerance are module
    constants: a fit restarts `_N_INIT` times from fresh k-means++ draws of
    one seeded stream, on at most `_SEED_POINTS` of its points, and
    ends with one run on all points from the lowest-inertia one, so
    results stay deterministic while single-start local minima get
    smoothed out.  `errors.check_int` refuses a `k` below 1 and a seed
    below 0, as numpy's generators would.
    """

    k: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.k, 1, "k")
        check_int(self.seed, 0, "seed")


def _block_rows(d: int) -> int:
    """How many rows of d float64 coordinates fill `_BLOCK_BYTES`: at least one."""
    return max(1, _BLOCK_BYTES // (8 * max(d, 1)))


def _sq_distances(points: np.ndarray, axis: int, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every centroid to every point, as (..., k, n).

    `points` holds one point per index of `axis` of its last two axes: (n, d)
    rows for 0, (d, n) columns for 1.  `centroids` is (k, d).  A leading
    axis, on `points` and `centroids` alike, stacks that many independent
    sets of columns.  One centroid at a time, so no (n, k, d) temporary;
    each sum is `np.add.reduce` over the dimension axis.  Columns subtract
    into one difference the size of `points`.  Rows go through blocks of at
    most `_BLOCK_BYTES` (one row, if a row is larger), so their scratch is
    one block whatever n is.
    """
    sq = np.empty(centroids.shape[:-1] + (points.shape[axis - 2],), dtype=np.float64)
    if axis:
        diff = np.empty(points.shape, dtype=np.float64)
        for j in range(centroids.shape[-2]):
            np.subtract(points, centroids[..., j, :, None], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=-2, out=sq[..., j, :])
        return sq
    n, d = points.shape
    rows = _block_rows(d)
    diff = np.empty((min(rows, n), d), dtype=np.float64)
    for start in range(0, n, rows):
        block = points[start : start + rows]
        part = diff[: len(block)]
        for j, centroid in enumerate(centroids):
            np.subtract(block, centroid, out=part)
            np.multiply(part, part, out=part)
            np.add.reduce(part, axis=1, out=sq[j, start : start + rows])
    return sq


def _nearest(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, own squared distance) per point of the (..., k, n) `sq`.

    Ties go to the lowest label.
    """
    labels = np.zeros(sq.shape[:-2] + sq.shape[-1:], dtype=np.intp)
    own = sq[..., 0, :].copy()
    for j in range(1, sq.shape[-2]):
        closer = sq[..., j, :] < own
        labels[closer] = j
        np.minimum(own, sq[..., j, :], out=own)
    return labels, own


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label each point with its nearest centroid, ties to the lowest index.

    `points` is (n, d), taken as rows, and `centroids` is (k, d).  Each
    squared distance sums its row of squared differences with
    `np.add.reduce`, in NumPy's pairwise order (left to right below eight
    columns).  Returns the (n,) labels and the (n, k) squared distances they
    were chosen from, a transposed view of a (k, n) array.  A centroid may
    own no point.  Scratch memory is one block of at most `_BLOCK_BYTES`
    (one row, if a row is larger) plus O(n·k), whatever d is.
    """
    sq = _sq_distances(points, 0, centroids)
    return _nearest(sq)[0], sq.T


def _point(points: np.ndarray, axis: int, idx: int) -> np.ndarray:
    """Point `idx` of `points` along `axis`, as a view.

    Basic indexing: `np.take` would first copy a strided subsample whole.
    """
    return points[:, idx] if axis else points[idx]


def _init_pp(
    points: np.ndarray,
    axis: int,
    centroids: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ into the (k, d) `centroids`: each next one drawn proportional to squared distance.

    Each draw after the first is one inverse-CDF step, clamped to the last
    point, which is the pick once every point sits on a chosen centroid.
    Returns the (k, n) squared distances from each drawn centroid to every
    point: row j is measured when centroid j is drawn.
    """
    n = points.shape[axis]
    sq = np.empty((centroids.shape[0], n), dtype=np.float64)
    idx = int(rng.integers(n))
    centroids[0] = _point(points, axis, idx)
    sq[0] = _sq_distances(points, axis, centroids[0:1])[0]
    closest_sq = sq[0]
    for j in range(1, centroids.shape[0]):
        r = rng.random() * float(closest_sq.sum())
        idx = min(int(np.searchsorted(np.cumsum(closest_sq), r, side="right")), n - 1)
        centroids[j] = _point(points, axis, idx)
        sq[j] = _sq_distances(points, axis, centroids[j : j + 1])[0]
        closest_sq = np.minimum(closest_sq, sq[j])
    return sq


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
        centroids[empty] = _point(points, axis, victim)
        own[victim] = 0.0
    return empties.size > 0


def _mean(points: np.ndarray, axis: int, members: np.ndarray, out: np.ndarray) -> None:
    """Write into the (d,) `out` the mean of the points the mask `members` names; it names one.

    A column-layout mean is NumPy's `mean` of its members' copy.  A
    row-layout mean is that `mean` without the copy: NumPy sums an axis-0
    reduction from the first row on, in point order, so the member rows are
    added in place in that order.
    """
    if axis:
        out[:] = np.compress(members, points, axis).mean(axis)
        return
    rows = np.flatnonzero(members)
    out[:] = points[rows[0]]
    for i in rows[1:]:
        out += points[i]
    out /= rows.size


def _lloyd_run(
    points: np.ndarray,
    axis: int,
    centroids: np.ndarray,
    sq: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """One run from the (k, d) `centroids`, updated in place: (inertia, labels, sq, averaged).

    `sq` is the (k, n) squared distances from the starting centroids to
    `points`.  The run returns its closing assignment's labels, its (k, n)
    sq and its sum of squares, the inertia, and `averaged`, the partition
    the final centroids are the means of, so that a caller can average it
    again, into a buffer a later run has overwritten or over other points.
    A repair writes its seized points into `centroids`.  An update replaces
    them row by row: each mean is built in one (d,) scratch row, its move is
    measured in the old row, and then it overwrites that row, so the run's
    scratch is one row, not a second (k, d) array.  A pass that needs no
    repair and finds the partition the centroids were averaged from closes
    the run, as the update it skips would find no centroid moved; with a
    centroid past the largest float that update's shift is NaN, and the run
    would go on to `_MAX_ITERS` and close on the same state.
    """
    row = np.empty(centroids.shape[1], dtype=np.float64)
    moves = np.empty(centroids.shape[0], dtype=np.float64)  # each centroid's largest move
    averaged = None  # the labels `centroids` are the means of, once an update made them

    for _ in range(_MAX_ITERS):
        labels, own = _nearest(sq)
        repaired = _repair_empties(points, axis, centroids, labels, own)
        if not repaired and np.array_equal(labels, averaged):
            # the update would average the same members, in the same order,
            # into these very centroids: this pass already is the closing
            # assignment, as the `shift == 0.0` below would find
            return float(own.sum()), labels, sq, averaged

        # the repair left every cluster at least one member, as n >= k
        for c, centroid in enumerate(centroids):
            _mean(points, axis, labels == c, row)
            np.abs(np.subtract(row, centroid, out=centroid), out=centroid)
            moves[c] = np.max(centroid, initial=0.0)  # none if no column varies
            centroid[:] = row
        shift = float(np.max(moves))  # NaN, as inf - inf, when a mean overflows
        averaged = labels
        if shift == 0.0 and not repaired:
            # `sq` was measured against these very centroids, so this pass,
            # left unrepaired, already is the closing assignment
            return float(own.sum()), labels, sq, averaged
        sq = _sq_distances(points, axis, centroids)
        if shift <= _TOL:
            break

    # Lloyd's closing assignment against the final centroids: the partition
    # the run reports and scores, not repaired, so a cluster may own no point
    labels, own = _nearest(sq)
    return float(own.sum()), labels, sq, averaged


def _stacked_restarts(
    stack: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Each restart's centroids and inertia, restart i clustering plane i of the (R, d, m) `stack`.

    Each plane runs as `_init_pp` and `_lloyd_run` run it, bit for bit
    wherever its means are exact, as they are on integer coordinates.  The
    k-means++ uniforms are drawn first, in the order `_init_pp` draws them;
    each inverse-CDF step counts the cumulative sums at or below its draw,
    which is where `searchsorted` (side "right") puts it; each mean is a
    `np.bincount` sum in point order over the member count.  A plane leaves
    the stack when its run closes, as `_lloyd_run` closes it, so later
    passes cost less.  Returns the (R, k, d) centroids and (R,) inertias.
    """
    restarts, d, m = stack.shape
    live = np.arange(restarts)  # the restart each plane holds

    idx = np.empty(restarts, dtype=np.intp)
    uniforms = np.empty((restarts, k - 1), dtype=np.float64)
    for i in range(restarts):
        idx[i] = rng.integers(m)
        uniforms[i] = rng.random(k - 1)
    centroids = np.empty((restarts, k, d), dtype=np.float64)
    sq = np.empty((restarts, k, m), dtype=np.float64)
    for j in range(k):
        if j:
            draws = uniforms[:, j - 1] * closest.sum(axis=1)
            below = np.cumsum(closest, axis=1) <= draws[:, None]
            idx = np.minimum(np.count_nonzero(below, axis=1), m - 1)
        centroids[:, j] = stack[live, :, idx]
        sq[:, j : j + 1] = _sq_distances(stack, 1, centroids[:, j : j + 1])
        closest = sq[:, 0] if j == 0 else np.minimum(closest, sq[:, j])

    inertias = np.empty(restarts, dtype=np.float64)
    results = np.empty((restarts, k, d), dtype=np.float64)
    closing = np.zeros(restarts, dtype=bool)  # planes whose next assignment closes their run
    for passes in range(_MAX_ITERS + 1):
        labels, own = _nearest(sq)
        totals = own.sum(axis=1)
        if passes == _MAX_ITERS:
            closing[:] = True
        if closing.any():
            # Lloyd's closing assignment against the final centroids, not repaired
            inertias[live[closing]] = totals[closing]
            results[live[closing]] = centroids[closing]
            stack, centroids, labels, own, totals, live = (
                a[~closing] for a in (stack, centroids, labels, own, totals, live)
            )
            if not live.size:
                break

        bins = labels + k * np.arange(live.size)[:, None]  # each point's (plane, cluster)
        counts = np.bincount(bins.ravel(), minlength=live.size * k).reshape(-1, k)
        repaired = (counts == 0).any(axis=1)
        for i in np.flatnonzero(repaired):
            _repair_empties(stack[i], 1, centroids[i], labels[i], own[i])
            bins[i] = labels[i] + k * i
            counts[i] = np.bincount(labels[i], minlength=k)
        updated = np.empty_like(centroids)
        for c in range(d):
            sums = np.bincount(bins.ravel(), weights=stack[:, c].ravel(), minlength=live.size * k)
            updated[:, :, c] = sums.reshape(-1, k) / counts
        shift = np.max(np.abs(updated - centroids), axis=(1, 2), initial=0.0)
        centroids = updated
        # a pass that moved and repaired nothing already is its run's closing assignment
        done = (shift == 0.0) & ~repaired
        if done.any():
            inertias[live[done]] = totals[done]
            results[live[done]] = centroids[done]
            stack, centroids, shift, live = (a[~done] for a in (stack, centroids, shift, live))
            if not live.size:
                break
        sq = _sq_distances(stack, 1, centroids)
        closing = shift <= _TOL

    return results, inertias


def _span_coordinates(rows: np.ndarray) -> np.ndarray:
    """The (n, d) `rows` as n coordinates each in their span, one row a point, (n, n) C-ordered.

    The rows are scaled by 2**-e, e the `math.frexp` exponent of their
    largest |coordinate| (at least −1022, so that the factor is finite),
    so that no sum below overflows.  Each block of w = `_block_rows(n)`
    consecutive columns, copied scaled into one reused C-ordered (n, w)
    scratch block (the last one narrower), is centred by its own
    `mean(axis=0)`, and its `block @ block.T` is added into an (n, n) Gram
    matrix.  `np.linalg.eigh` of that gives eigenvalues λ and vectors V, and
    row i of V · sqrt(max(λ, 0)) is point i: in exact arithmetic its
    distances are those of the scaled rows.  Scratch: one block and O(n²).
    """
    n, d = rows.shape
    largest = max(float(rows.max()), -float(rows.min()))
    scale = math.ldexp(1.0, -max(math.frexp(largest)[1], -1022))
    width = _block_rows(n)
    scratch = np.empty(n * min(width, d), dtype=np.float64)
    gram = np.zeros((n, n), dtype=np.float64)
    for start in range(0, d, width):
        block = scratch[: n * min(width, d - start)].reshape(n, -1)
        np.multiply(rows[:, start : start + width], scale, out=block)
        block -= block.mean(axis=0)
        gram += block @ block.T
    values, vectors = np.linalg.eigh(gram)
    vectors *= np.sqrt(np.maximum(values, 0.0))
    return vectors


def fit(points, params: KMeansParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Run Lloyd's algorithm from seeded k-means++ starts, keeping the best.

    The `_N_INIT` restarts run on every stride-th point, stride =
    ceil(n / `_SEED_POINTS`) (lowered, if need be, so they see at least k
    points): restart i on the n // stride points from offset i % stride,
    so every restart's inertia sums over as many points.  The restarts
    draw in turn from one `np.random.default_rng(seed)` stream: restart i
    takes its first start with `integers(m)`, m being its point count, and
    each later one with one `random()` u, as the first point whose
    cumulative sum in point order of squared distances to its nearest start
    exceeds u times their NumPy sum, clamped to the last point.  The lowest
    inertia wins, earliest run on a tie.

    Every fit ends with one more Lloyd run on all points, whose result is
    the fit's.  It starts from the winner's centroids when the restarts ran
    as one stack, and otherwise from the winner's last averaged partition,
    its means over that restart's points.  The restarts run as a stack of
    their subsamples in the column layout with stride > 1, each step one
    NumPy call across them, with O(`_N_INIT` · `_SEED_POINTS` ·
    (d_varying + k)) scratch whatever n is.  Each stacked restart gives the
    bits it gives alone when its means are exact, as on integer coordinates
    such as pixels: the stack adds each cluster's sum in point order and a
    restart alone in NumPy's pairwise order.  Outside the stack, every
    column-layout run, the last one too, takes each mean as NumPy's pairwise
    `mean` of each column of its members, and every row-layout run as a
    running sum of its member rows in point order.

    With stride 1 in the row layout (d_varying >= n), the restarts run on n
    span coordinates a point instead, as rows.  The varying columns are
    multiplied by 2**-e, e being the `math.frexp` exponent of their largest
    |coordinate| but at least −1022, so no sum overflows.
    Each block of w = max(1, `_BLOCK_BYTES` // (8n)) consecutive columns,
    the last one narrower, is copied so scaled into a C-ordered (n, w)
    array, centred by subtracting its `mean(axis=0)`, and its
    `block @ block.T` added into an (n, n) Gram matrix that starts at 0.
    With λ and V the eigenvalues and eigenvectors `np.linalg.eigh` gives
    for that sum, row i of V · sqrt(max(λ, 0)) holds point i's coordinates:
    the same distances in exact arithmetic.  The winner's partition is
    averaged over the varying columns to start the last run, so rounding
    in the span changes only which partition wins, and only in a near tie.

    Returns `(centroids, labels, sq, inertia)`: the last run's (k, d)
    centroids, the closing assignment it was scored on, with `sq` the
    (n, k) squared distances, and the inertia, that partition's
    within-cluster sum of squares, as a float.

    Columns equal across all points are dropped once, before the first run:
    every run clusters the varying columns only, and each dropped column's
    centroid entry is the points' shared value.  They hold the points as
    columns, a (d_varying, n) copy, when d_varying < n, and as rows
    otherwise; every run keeps that layout.  As rows, the runs cluster a
    view of the points when the varying columns form one run and each row's
    coordinates are contiguous in float64 (a C-contiguous float64 input
    qualifies), and otherwise one C-ordered (n, d_varying) copy, gathered
    with `np.compress`: a boolean column index gives an F-ordered copy,
    whose row sums run in another order.  The view
    gives the copy's bits: each distance sums a row of a contiguous block,
    and each update adds whole rows element by element.  So `sq` and every
    inertia are sums over the varying columns: added left to right in the
    column layout, in NumPy's pairwise order along each row in the row
    layout.  They equal `_assign(points, centroids)` up to summation order,
    and bit for bit when at most two columns vary.  When no column varies,
    every centroid is the shared point itself and the inertia is 0.  Beyond
    the copy, if any, and the input checks' masks of one byte per coordinate
    of a block of rows, the scratch memory is the one (k, d_varying)
    centroid buffer every run draws into and updates in place, the array
    returned when every column varies, and a (k, d) one beside it when some
    do not; in the row layout, one (d_varying,) row, one block of at most
    `_BLOCK_BYTES`, O(k·n), and O(n²) in the span, never a copy of the
    points; in the column layout O(n·(d_varying + k)), or the stack's bound
    if larger.  The winning restart is kept as its partition, not as a copy
    of its centroids, and averaged into the buffer after the last restart.
    The distance work of a run is k single-centroid rows at the k-means++
    draws, which the first assignment reuses, plus one (k, n) pass per
    update that moved a centroid or followed a repair.  The last run
    starts with one (k, n) pass.  A run averages its
    clusters once per pass, except on a pass that needs no repair and finds
    the partition its centroids were averaged from: that pass closes it.

    Deterministic: identical points and params give bit-identical centroids.
    Within each run, convergence is declared when no centroid coordinate
    moved more than `_TOL` (infinity norm) in one update.  Each pass assigns
    every point to its nearest centroid, the lowest label on a tie; then
    each cluster left empty, in label order, seizes the point farthest from
    its own centroid among those whose cluster keeps another member, the
    lowest index on a tie, and becomes that point; then every centroid
    becomes the mean of its members.  A run makes at most `_MAX_ITERS`
    updates, at least 1, and ends on one more assignment, which is not
    repaired, so a cluster may own no point.  Its inertia is NumPy's pairwise sum, in point
    order, of each point's squared distance to its own centroid.
    `reference_fit` in `tests/oracles.py` is this docstring written as
    plain NumPy, and changes with it.

    Raises UsageError for points that `errors.check_array` refuses as a
    float64 matrix, fewer points than clusters, a NaN or infinite
    coordinate, or points so large that a returned centroid or the inertia
    overflows.
    """
    if not isinstance(params, KMeansParams):
        raise UsageError(f"params must be a KMeansParams, not {type(params).__name__}")
    check_array(points, "points", np.float64, 2)
    n = points.shape[0]
    # the finiteness test and the mask below each read a block of rows at a time
    rows = _block_rows(points.shape[1])
    if not all(np.isfinite(points[i : i + rows]).all() for i in range(0, n, rows)):
        raise UsageError("points must be finite, not NaN or inf")
    if n < params.k:
        raise UsageError(f"{n} points cannot fill {params.k} clusters")

    # a column on which every point agrees adds exactly 0 to every distance:
    # cluster only the others, which may be none at all, with the points
    # along the longer axis
    varying = (points[:rows] != points[0]).any(axis=0)
    for start in range(rows, n, rows):
        varying |= (points[start : start + rows] != points[0]).any(axis=0)
    count = np.count_nonzero(varying)
    axis = 1 if count < n else 0
    if not axis:
        # the points' own rows when the varying columns form one run and
        # each row's coordinates are contiguous; no run writes to its points
        first = int(np.argmax(varying))
        work = points[:, first : first + count]
    if axis or not varying[first : first + count].all() or work.strides[1] != work.itemsize:
        work = np.compress(varying, points.T if axis else points, axis=1 - axis)

    # restart i sees every stride-th point from offset i % stride, a view of
    # n // stride points, at least k; restarts on different subsamples miss a
    # basin independently
    stride = min(-(-n // _SEED_POINTS), n // params.k)
    span = n // stride * stride
    samples = [
        work[:, i % stride : span : stride] if axis else work[i % stride : span : stride]
        for i in range(_N_INIT)
    ]
    # every run on the varying columns draws into and updates this one buffer,
    # the last one on all points too; it is what `fit` returns
    centroids = np.empty((params.k, count), dtype=np.float64)
    rng = np.random.default_rng(params.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if it ends non-finite
        if stride > 1 and axis:
            results, inertias = _stacked_restarts(np.stack(samples), params.k, rng)
            winner = min(range(_N_INIT), key=inertias.__getitem__)  # earliest on a tie
            centroids[:] = results[winner]
        else:
            if stride == 1 and not axis:
                # every restart clusters all points: in their span, on n
                # coordinates a point, with a (k, n) buffer of their own
                coordinates = [_span_coordinates(work)] * _N_INIT
                buffer = np.empty((params.k, n))
            else:
                coordinates, buffer = samples, centroids
            runs = (
                (sample, *_lloyd_run(coords, axis, buffer, _init_pp(coords, axis, buffer, rng)))
                for sample, coords in zip(samples, coordinates)
            )
            sample, *_, averaged = min(runs, key=lambda run: run[1])
            # runs after the winner overwrote its centroids, or it ran in the
            # span: they are the means of its partition over its points
            for c, centroid in enumerate(centroids):
                _mean(sample, axis, averaged == c, centroid)
        # one Lloyd run on every point ends every fit
        start_sq = _sq_distances(work, axis, centroids)
        inertia, labels, sq, _ = _lloyd_run(work, axis, centroids, start_sq)

    if not (np.isfinite(centroids).all() and math.isfinite(inertia)):
        raise UsageError("points so large that a centroid or the inertia overflows")
    if count < points.shape[1]:
        # the shared value is each constant column's exact mean
        full = np.repeat(points[:1], params.k, axis=0)
        full[:, varying] = centroids
        centroids = full
    return centroids, labels, sq.T, inertia


def predict(centroids: np.ndarray, vector: np.ndarray) -> tuple[int, float]:
    """(label, Euclidean distance) of the nearest of the (k, d) `centroids` to one vector.

    Ties go to the lowest label; finite vectors too far apart for a float
    distance are an infinite distance apart.  Raises UsageError for
    centroids or a vector that `errors.check_array` refuses as a float64
    matrix and vector, centroids that hold a NaN or infinite entry, a vector
    of another width than the centroids, or a NaN or infinite entry.
    """
    check_array(centroids, "centroids", np.float64, 2)
    check_array(vector, "vector", np.float64, 1)
    if vector.shape != centroids.shape[1:]:
        raise UsageError(f"vector has shape {vector.shape}, model expects {centroids.shape[1:]}")
    if not np.isfinite(vector).all():
        raise UsageError("vector must be finite, not NaN or inf")
    with np.errstate(over="ignore"):  # a difference or its square past the largest float
        labels, sq = _assign(vector[None, :], centroids)
    # a NaN or infinite centroid is a NaN or infinite distance away, so the k·d
    # centroids are scanned only when one of the k distances is not finite;
    # finite centroids too far away are an infinite distance away as well
    if not np.isfinite(sq).all() and not np.isfinite(centroids).all():
        raise UsageError("centroids must be finite, not NaN or inf")
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
