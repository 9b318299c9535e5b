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
`fit` returns the centroids with that partition and its sum of squares,
the inertia.

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
either.  Points and query vectors must be finite: NaN or inf is refused
with UsageError at the boundary.

A fit of more than `_SEED_POINTS` points runs its restarts on every
stride-th point only, each restart from its own offset, and one more
Lloyd run on all points, started from the winner's centroids, refines it
(Bradley & Fayyad 1998, "Refining Initial Points for K-Means
Clustering").  A restart that ends in a poor local minimum takes many
iterations, which are cheap on a subsample; restarts on different
subsamples do not share one subsample's pull toward the same poor minimum.

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
winner's centroids leave the stack, to start the refinement run.  The row
layout keeps one restart at a time: there a stack would hold R copies of
d_varying >= m columns.

Restarts that see every point (stride 1, as in every fit of at most
`_SEED_POINTS` points) all cluster the same points, and in the row layout
they share their distance rows.  A row
depends only on its centroid, and a centroid only on the points it is the
mean of, so each distinct k-means++ draw and each distinct member set of
an update is measured once per fit, and a later restart that repeats one
copies its row.  A draw is a point, and a draw's row that the memo lacks
copies its entry for every point whose own draw row the memo holds:
(x_i − x_j)² and (x_j − x_i)² are equal bit for bit, and each entry sums
the same row of squares in the same order.  Only the other entries go
through the block kernel, on views of the points, one run of consecutive
points at a time.  This is the narrowest exact form of Elkan (2003),
"Using the Triangle Inequality to Accelerate k-Means": skip a distance
whose answer is already known.  Only bit-for-bit repeats are skipped, so
every output keeps its bits.  In the column layout a row of d_varying < n
columns costs no more than its key, so there every row is computed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, check_array, check_int, check_positive, check_range


_MAX_ITERS = 300  # Lloyd iterations per run, at most
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


def _real(values, refusal: str) -> np.ndarray:
    """`values` as a float64 array, or UsageError(`refusal`: why) for anything but real numbers.

    NumPy would cast a complex array by dropping each imaginary part, so a
    complex one is refused before the cast.
    """
    try:
        if np.asarray(values).dtype.kind != "c":
            return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, text, an int past any float
        raise UsageError(f"{refusal}: {exc}") from exc
    raise UsageError(f"{refusal}: got complex values")


def _block_rows(d: int) -> int:
    """How many rows of d float64 coordinates fill `_BLOCK_BYTES`: at least one."""
    return max(1, _BLOCK_BYTES // (8 * max(d, 1)))


def _as_matrix(points) -> np.ndarray:
    matrix = _real(points, "points must form one (n, d) matrix")
    check_array(matrix, "points", np.float64, 2)
    rows = _block_rows(matrix.shape[1])
    if not all(np.isfinite(matrix[i : i + rows]).all() for i in range(0, len(matrix), rows)):
        raise UsageError("points must be finite, not NaN or inf")
    return matrix


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


def assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    member mask) and is read only when there is a memo, which only the row
    layout keeps.  A row whose key the memo holds is copied from it.  Any
    other is computed on its own and remembered: a draw's through
    `_draw_row`, which copies its entries of the earlier draws, always, as
    a fit draws at most n distinct points; an update's while the memo holds
    fewer than n rows.  So the memo holds at most 2n rows.  With no memo
    every row is computed in one pass.
    """
    if memo is None:
        return _sq_distances(points, axis, centroids)
    sq = np.empty((centroids.shape[0], points.shape[axis]), dtype=np.float64)
    for j, key in enumerate(keys):
        row = memo.get(key)
        if row is None:
            if isinstance(key, int):
                row = memo[key] = _draw_row(points, key, memo)
            else:
                row = _sq_distances(points, axis, centroids[j : j + 1])[0]
                if len(memo) < points.shape[axis]:
                    memo[key] = row
        sq[j] = row
    return sq


def _draw_row(points: np.ndarray, idx: int, memo: dict[object, np.ndarray]) -> np.ndarray:
    """The distance row of point `idx` of the (n, d) rows `points`, drawn by k-means++.

    Entry j is copied from point j's own draw row wherever `memo` holds one:
    (x_idx − x_j)² and (x_j − x_idx)² are equal bit for bit, and each entry
    sums the same row of squares in the same order.  The other entries go
    through `_sq_distances` on views of `points`, one run of consecutive
    points at a time, so nothing is gathered.
    """
    row = np.empty(points.shape[0], dtype=np.float64)
    missing = np.ones(points.shape[0], dtype=bool)
    for j, other in memo.items():
        if isinstance(j, int):  # a draw's point; an update's key is its member mask
            row[j] = other[idx]
            missing[j] = False
    # each run of missing points as its (start, stop) pair
    edges = np.flatnonzero(np.diff(missing, prepend=False, append=False)).reshape(-1, 2)
    for start, stop in edges:
        row[start:stop] = _sq_distances(points[start:stop], 0, points[idx : idx + 1])[0]
    return row


def _point(points: np.ndarray, axis: int, idx: int) -> np.ndarray:
    """Point `idx` of `points` along `axis`, as a view.

    Basic indexing: `np.take` would first copy a strided subsample whole.
    """
    return points[:, idx] if axis else points[idx]


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
    chosen[0] = _point(points, axis, idx)
    sq[0] = _sq_rows(points, axis, chosen[0:1], (idx,), memo)[0]
    closest_sq = sq[0]
    for j in range(1, k):
        r = rng.random() * float(closest_sq.sum())
        idx = min(int(np.searchsorted(np.cumsum(closest_sq), r, side="right")), n - 1)
        chosen[j] = _point(points, axis, idx)
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
        centroids[empty] = _point(points, axis, victim)
        own[victim] = 0.0
    return empties.size > 0


def _means(points: np.ndarray, axis: int, labels: np.ndarray, k: int) -> np.ndarray:
    """The (k, d) means of the points each of labels 0..k-1 names; each must name one.

    A column-layout mean is NumPy's `mean` of its members' copy.  A
    row-layout mean is that `mean` without the copy: NumPy sums an axis-0
    reduction from the first row on, in point order, so the member rows are
    added in place in that order.
    """
    means = np.empty((k, points.shape[1 - axis]), dtype=np.float64)
    for c, mean in enumerate(means):
        if axis:
            mean[:] = np.compress(labels == c, points, axis).mean(axis)
        else:
            members = np.flatnonzero(labels == c)
            mean[:] = points[members[0]]
            for i in members[1:]:
                mean += points[i]
            mean /= members.size
    return means


def _lloyd_run(
    points: np.ndarray,
    axis: int,
    start: tuple[np.ndarray, np.ndarray],
    memo: dict[object, np.ndarray] | None,
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """One run from `start`: (centroids, inertia, closing labels, closing (k, n) sq).

    `start` is the (k, d) starting centroids and their (k, n) squared
    distances to `points`; the run writes into the centroids, on a repair
    and to measure the first update's shift.  Pass it as a temporary: the
    run drops its hold on both arrays as it replaces them, so they need not
    outlive the first update.  Each update measures its shift in the old
    centroids' buffer, so a run holds two (k, d) arrays at a time.  Each
    update's distance rows come from `_sq_rows` with `memo`.  The inertia
    is the closing assignment's sum of squares.  A pass that needs no
    repair and finds the partition the centroids were averaged from closes
    the run, as the update it skips would find no centroid moved; with a
    centroid past the largest float that update's shift is NaN, and the
    run would go on to `_MAX_ITERS` and close on the same state.
    """
    centroids, sq = start
    del start
    averaged = None  # the labels `centroids` are the means of, once an update made them

    for _ in range(_MAX_ITERS):
        labels, own = _nearest(sq)
        repaired = _repair_empties(points, axis, centroids, labels, own)
        if not repaired and np.array_equal(labels, averaged):
            # the update would average the same members, in the same order,
            # into these very centroids: this pass already is the closing
            # assignment, as the `shift == 0.0` below would find.  They go
            # back in a new buffer, as from that update, and this one is
            # freed for the next run: returned as they are, they left a heap
            # hole that raised `train` peak RSS by about 2 MB
            return centroids.copy(), float(own.sum()), labels, sq

        # the repair left every cluster at least one member, as n >= k
        updated = _means(points, axis, labels, centroids.shape[0])
        # each coordinate's move, measured in the old centroids' buffer
        np.abs(np.subtract(updated, centroids, out=centroids), out=centroids)
        shift = float(np.max(centroids, initial=0.0))  # none if no column varies
        centroids, averaged = updated, labels
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


def fit(points, params: KMeansParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Run Lloyd's algorithm from seeded k-means++ starts, keeping the best.

    The `_N_INIT` restarts run on every stride-th point, stride =
    ceil(n / `_SEED_POINTS`) (lowered, if need be, so they see at least k
    points): restart i on the n // stride points from offset i % stride,
    so every restart's inertia sums over as many points.  The lowest
    inertia wins, earliest run on a tie.  With stride 1 every restart sees
    all points and the winner is the result.  Otherwise one more Lloyd run
    on all points, started from the winner's centroids, is the result, and
    in the column layout the restarts run as one stack of their
    subsamples, each step one NumPy call across them, with O(`_N_INIT` ·
    `_SEED_POINTS` · (d_varying + k)) scratch whatever n is.  Each stacked
    restart gives the bits it gives alone when its means are exact, as on
    integer coordinates such as pixels: the stack adds each cluster's sum
    in point order and a restart alone in NumPy's pairwise order.

    Returns `(centroids, labels, sq, inertia)`: the resulting run's (k, d)
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
    qualifies), and otherwise one contiguous (n, d_varying) copy.  The view
    gives the copy's bits: each distance sums a row of a contiguous block,
    and each update adds whole rows element by element.  So `sq` and every
    inertia are sums over the varying columns: added left to right in the
    column layout, in NumPy's pairwise order along each row in the row
    layout.  They equal `assign(points, centroids)` up to summation order,
    and bit for bit when at most two columns vary.  When no column varies,
    every centroid is the shared point itself and the inertia is 0.  Beyond
    the copy, if any, and the input checks' masks of one byte per coordinate
    of a block of rows, the scratch memory is, in the row layout, one block
    of at most `_BLOCK_BYTES`, O(k·(n + d)) and the memo below, never a copy
    of the points; in the column layout O(n·(d_varying + k)), or the stack's
    bound if larger.  The distance work of a run is k single-centroid rows
    at the k-means++ draws, which the first assignment reuses, plus one
    (k, n) pass per update that moved a centroid or followed a repair.  A
    refinement run starts with one (k, n) pass.  A run averages its
    clusters once per pass, except on a pass that needs no repair and finds
    the partition its centroids were averaged from: that pass closes it.
    When the restarts share all points (stride 1) in the row layout, they
    share one memo of distance rows instead, keyed by the member set whose
    mean each centroid is (a draw's one point, an update's members): a row
    is computed once per distinct draw and per distinct member set, and any
    later restart that needs it copies it, bit for bit.  A draw's row also
    copies its entry of every earlier distinct draw from that draw's row,
    so the i-th distinct draw computes n − i entries.  The memo keeps every
    distinct draw's row, at most n, and update rows while it holds fewer
    than n, so at most 2n rows of n; n <= d_varying there, so it never
    outgrows twice the points.

    Deterministic: identical points and params give bit-identical centroids.
    Within each run, convergence is declared when no centroid coordinate
    moved more than `_TOL` (infinity norm) in one update.

    Raises UsageError for no points or fewer points than clusters, points
    of mixed lengths or not one (n, d) matrix, a coordinate that is not a
    real number (complex, text, an int past any float), a NaN or infinite
    coordinate, or points so large that a returned centroid or the inertia
    overflows.
    """
    if not isinstance(params, KMeansParams):
        raise UsageError(f"params must be a KMeansParams, not {type(params).__name__}")
    matrix = _as_matrix(points)
    n = matrix.shape[0]
    if n < params.k:
        raise UsageError(f"{n} points cannot fill {params.k} clusters")

    # a column on which every point agrees adds exactly 0 to every distance:
    # cluster only the others, which may be none at all, with the points
    # along the longer axis; the mask is taken a block of rows at a time
    rows = _block_rows(matrix.shape[1])
    varying = (matrix[:rows] != matrix[0]).any(axis=0)
    for start in range(rows, n, rows):
        varying |= (matrix[start : start + rows] != matrix[0]).any(axis=0)
    count = np.count_nonzero(varying)
    axis = 1 if count < n else 0
    if not axis:
        # the points' own rows when the varying columns form one run and
        # each row's coordinates are contiguous; no run writes to its points
        columns = np.flatnonzero(varying)
        work = matrix[:, columns[0] : columns[-1] + 1]
    if axis or work.shape[1] != count or work.strides[1] != work.itemsize:
        work = np.compress(varying, matrix.T if axis else matrix, axis=1 - axis)

    # restart i sees every stride-th point from offset i % stride, a view of
    # n // stride points, at least k; restarts on different subsamples miss a
    # basin independently
    stride = min(-(-n // _SEED_POINTS), n // params.k)
    span = n // stride * stride
    samples = [
        work[:, i % stride : span : stride] if axis else work[i % stride : span : stride]
        for i in range(_N_INIT)
    ]
    rng = np.random.default_rng(params.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if it ends non-finite
        if stride > 1 and axis:
            runs = zip(*_stacked_restarts(np.stack(samples), params.k, rng))
        else:
            # with stride 1 every restart clusters the same points, so a member
            # set's distance row, once computed, serves every later restart that
            # needs it.  Only in the row layout, where a row's d_varying >= n
            # columns cost more than its n-byte key: in the column layout keys
            # cost more than they save.  Each k-means++ start goes straight into
            # its run, so no frame here holds it
            memo = {} if stride == 1 and axis == 0 else None
            runs = (
                _lloyd_run(s, axis, _init_pp(s, axis, params.k, rng, memo), memo) for s in samples
            )
        winner = min(runs, key=lambda run: run[1])  # earliest on a tie
        if stride > 1:
            # one Lloyd run on every point refines the winner
            start = winner[0]
            winner = _lloyd_run(work, axis, (start, _sq_distances(work, axis, start)), None)
    centroids, inertia, labels, sq = winner

    # the shared value is each constant column's exact mean
    full = np.repeat(matrix[:1], params.k, axis=0)
    full[:, varying] = centroids
    if not (np.isfinite(full).all() and math.isfinite(inertia)):
        raise UsageError("points so large that a centroid or the inertia overflows")
    return full, labels, sq.T, inertia


def predict(centroids: np.ndarray, point) -> tuple[int, float]:
    """(label, Euclidean distance) of the nearest of the (k, d) `centroids` to one vector.

    Ties go to the lowest label; finite vectors too far apart for a float
    distance are an infinite distance apart.  Raises UsageError for
    centroids that `errors.check_array` refuses as a float64 matrix, and
    for anything but a 1-D point of d real numbers, or a NaN or infinite
    coordinate.
    """
    check_array(centroids, "centroids", np.float64, 2)
    vec = _real(point, "point must be a vector of real numbers")
    if vec.shape != centroids.shape[1:]:
        raise UsageError(f"point has shape {vec.shape}, model expects {centroids.shape[1:]}")
    if not np.isfinite(vec).all():
        raise UsageError("point must be finite, not NaN or inf")
    with np.errstate(over="ignore"):  # a difference or its square past the largest float
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
