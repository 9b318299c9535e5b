"""Clustering engine: worked cases, optimality, determinism, confidence."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import never_increases
from oracles import brute_force_inertia, nearest_centroid_scan, reference_fit
from scenefuse import clustering
from scenefuse.clustering import (
    KMeansParams,
    _assign,
    confidence,
    fit,
    predict,
)
from scenefuse.errors import UsageError


def test_single_cluster_lands_on_the_mean(lloyd_traces):
    points = np.array([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
    centroids, _, _, inertia = fit(points, KMeansParams(k=1))
    assert centroids.tolist() == [[2.0, 0.0]]
    assert inertia == 8.0
    # a move of exactly the tolerance, 1e-6, from a point to the mean has
    # converged: only the closing assignment follows, in every restart; the
    # last run, on all points, starts on the mean and moves nothing
    lloyd_traces.clear()
    *_, inertia = fit(np.array([[0.0], [2e-6]]), KMeansParams(k=1))
    assert inertia == 2e-12
    assert lloyd_traces == [[4e-12, 2e-12]] * clustering._N_INIT + [[2e-12, 2e-12]]


def test_two_separated_pairs_split_cleanly():
    points = np.array([(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)])
    centroids, _, _, inertia = fit(points, KMeansParams(k=2, seed=0))
    got = sorted(map(tuple, centroids.tolist()))
    assert got == [(0.0, 0.5), (10.0, 0.5)]
    assert inertia == 1.0


def test_fit_is_bit_identical_per_seed():
    rng = np.random.default_rng(17)
    points = rng.uniform(0.0, 10.0, (40, 3))
    a, _, _, a_inertia = fit(points, KMeansParams(k=4, seed=5))
    b, _, _, b_inertia = fit(points, KMeansParams(k=4, seed=5))
    *_, c_inertia = fit(points, KMeansParams(k=4, seed=6))
    assert np.array_equal(a, b)
    assert a_inertia == b_inertia
    # a different seed may legitimately converge to the same optimum, but
    # both runs must still be internally consistent
    assert c_inertia >= 0.0


def test_objective_never_increases_during_a_fit(lloyd_traces):
    rng = np.random.default_rng(23)
    for trial in range(5):
        lloyd_traces.clear()
        points = rng.uniform(-5.0, 5.0, (30, 2))
        *_, inertia = fit(points, KMeansParams(k=3, seed=trial))
        # the restarts, then one run on all points from the winner's partition
        *restarts, last = lloyd_traces
        assert len(restarts) == clustering._N_INIT
        assert all(map(never_increases, lloyd_traces))
        assert inertia == last[-1] and last[0] <= min(trace[-1] for trace in restarts)


@st.composite
def _crowded_points(draw):
    """A few integer points on a 4-wide grid, so duplicates and tied centroids abound."""
    d = draw(st.integers(1, 2))
    row = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    return np.asarray(rows, dtype=np.float64)


# the test clears the Lloyd traces it shares across examples before each fit
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(points=_crowded_points(), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
# two runs whose last pass measured other centroids, so it cannot close them:
# an empty cluster seizes a point and then no centroid moves, and the last
# update moves a centroid by no more than the convergence tolerance
@example(points=np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0], [3.0, 0.0]]), k=3, seed=0)
@example(points=np.array([[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]) * 1e-9, k=2, seed=0)
def test_fit_returns_the_partition_it_scored(lloyd_traces, points, k, seed):
    lloyd_traces.clear()
    k = min(k, points.shape[0])
    centroids, labels, sq, inertia = fit(points, KMeansParams(k=k, seed=seed))
    again_labels, again_sq = _assign(points, centroids)
    assert np.array_equal(labels, again_labels)
    assert np.array_equal(sq, again_sq)
    assert inertia == sq[np.arange(points.shape[0]), labels].sum()
    assert all(map(never_increases, lloyd_traces))


def _spy_on_rows(monkeypatch) -> list[bytes]:
    """The centroids whose distance rows `fit` computes from now on, one centroid's bytes a row."""
    real = clustering._sq_distances
    computed = []

    def distances(points, axis, centroids):
        computed.extend(row.tobytes() for row in centroids.reshape(-1, centroids.shape[-1]))
        return real(points, axis, centroids)

    monkeypatch.setattr(clustering, "_sq_distances", distances)
    return computed


def _spy_on_means(monkeypatch) -> list[int]:
    """How many means `fit` computes from now on, as the one count of a list."""
    real = clustering._mean
    means = [0]

    def mean(*args):
        means[0] += 1
        return real(*args)

    monkeypatch.setattr(clustering, "_mean", mean)
    return means


def _separated_blobs(n, d, k):
    """n points in k blobs of unit spread, far apart, blob i % k for point i."""
    rng = np.random.default_rng(9)
    centres = rng.uniform(-100.0, 100.0, (k, d))
    return centres[np.arange(n) % k] + rng.normal(0.0, 1.0, (n, d))


def test_a_run_that_moves_and_repairs_nothing_makes_no_full_pass(monkeypatch):
    computed = _spy_on_rows(monkeypatch)
    # per restart, the two k-means++ draw rows; the first update moves no
    # centroid, so the first assignment closes the run.  The last run, on
    # all points, makes its starting pass only: the column layout, a stack
    # of restarts, and the row layout, whose restarts run in the span
    for points in (
        np.array([[0.0], [0.0], [10.0], [10.0]]),
        np.array([[0.0], [0.0], [10.0], [10.0]] * 300),
        np.array([[0.0, 0.0], [10.0, 10.0]]),
    ):
        computed.clear()
        fit(points, KMeansParams(k=2))
        assert len(computed) == 2 * clustering._N_INIT + 2


def test_a_run_that_repeats_its_partition_closes_without_averaging_again(monkeypatch):
    means = _spy_on_means(monkeypatch)
    rng = np.random.default_rng(22)
    # two blobs of four points; the start sits off both, so the first update
    # moves every centroid and the next pass finds the same partition.  Eight
    # columns are the row layout, two the column layout
    for d in (8, 2):
        points = np.repeat([[0.0] * d, [50.0] * d], 4, axis=0) + rng.standard_normal((8, d))
        axis = int(d < len(points))
        layout = points.T.copy() if axis else points
        centroids = points[[0, 4]] + 0.5  # updated in place
        means[0] = 0
        inertia, labels, sq, averaged = clustering._lloyd_run(
            layout, axis, centroids, clustering._sq_distances(layout, axis, centroids)
        )
        assert means[0] == 2  # one update of two clusters, not two
        assert np.array_equal(averaged, labels)
        assert labels.tolist() == [0] * 4 + [1] * 4
        again_labels, again_sq = _assign(points, centroids)
        assert np.array_equal(labels, again_labels) and np.array_equal(sq.T, again_sq)
        assert inertia == sq.T[np.arange(8), labels].sum()
        assert np.array_equal(centroids, [points[:4].mean(axis=0), points[4:].mean(axis=0)])
        # a mean that overflows to inf is a fixed point: every later update
        # would give it again, yet its shift, inf - inf, is NaN and never
        # converges.  The run closes on its second pass, as it would after
        # `_MAX_ITERS` updates, on the same centroids and partition
        huge = np.zeros((3, d))
        huge[:, 0] = (1e308, 1e308, -1e308)
        axis = int(d < len(huge))
        layout = huge.T.copy() if axis else huge
        centroids = huge[:1].copy()
        means[0] = 0
        with np.errstate(over="ignore", invalid="ignore"):
            inertia, labels, sq, _ = clustering._lloyd_run(
                layout, axis, centroids, clustering._sq_distances(layout, axis, centroids)
            )
        assert means[0] == 1
        assert centroids.tolist() == [[math.inf] + [0.0] * (d - 1)] and inertia == math.inf
        assert labels.tolist() == [0, 0, 0] and np.all(sq == math.inf)


def _spy_on_runs(monkeypatch) -> list[np.ndarray]:
    """The points of each Lloyd run `fit` makes from now on, in order, as (n, d) rows."""
    real = clustering._lloyd_run
    seen = []

    def spy(points, axis, start, *rest):
        seen.append(points.T if axis else points)
        return real(points, axis, start, *rest)

    monkeypatch.setattr(clustering, "_lloyd_run", spy)
    return seen


def _spy_on_stacks(monkeypatch) -> list[np.ndarray]:
    """The (R, d, m) stack of restart subsamples of each stacked fit from now on, in order."""
    real = clustering._stacked_restarts
    stacks = []

    def spy(stack, *rest):
        stacks.append(stack)
        return real(stack, *rest)

    monkeypatch.setattr(clustering, "_stacked_restarts", spy)
    return stacks


def test_restarts_see_a_subsample_and_one_run_refines_on_all_points(monkeypatch):
    runs, stacks = _spy_on_runs(monkeypatch), _spy_on_stacks(monkeypatch)
    limit = clustering._SEED_POINTS
    rng = np.random.default_rng(5)
    # (n, d): the column layout just past the limit and well past it, whose
    # restarts run as one stack, then at the limit, and the row layout
    # (d >= n) past it, whose restarts each run on their own
    for n, d in ((limit + 1, 3), (4 * limit + 7, 3), (limit, 3), (limit + 1, limit + 1)):
        runs.clear()
        stacks.clear()
        points = rng.standard_normal((n, d))
        centroids, labels, sq, inertia = fit(points, KMeansParams(k=3, seed=1))
        stride = -(-n // limit)
        *restarts, last = runs
        if stride > 1 and d < n:
            assert len(stacks) == 1
            assert stacks[0].shape == (clustering._N_INIT, d, n // stride)
            assert restarts == []
        else:
            assert stacks == []
            assert [len(run) for run in restarts] == [n // stride] * clustering._N_INIT
        assert n // stride <= limit
        # the returned partition and inertia are the last run's, on all points
        assert len(last) == n
        assert sq.shape == (n, 3) and np.array_equal(labels, sq.argmin(axis=1))
        assert inertia == pytest.approx(float(sq.min(axis=1).sum()), rel=1e-12)


def test_the_restarts_see_at_least_k_points(monkeypatch):
    runs, stacks = _spy_on_runs(monkeypatch), _spy_on_stacks(monkeypatch)
    monkeypatch.setattr(clustering, "_SEED_POINTS", 2)
    points = np.arange(14.0).reshape(7, 2)
    fit(points, KMeansParams(k=3))  # every 4th point would leave 1: every 2nd leaves 3
    assert [stack.shape for stack in stacks] == [(clustering._N_INIT, 2, 3)]
    assert [len(run) for run in runs] == [7]
    runs.clear()
    stacks.clear()
    fit(points, KMeansParams(k=5))  # no stride leaves 5 of 7 but 1: all see every point
    assert stacks == []
    assert [len(run) for run in runs] == [7] * (clustering._N_INIT + 1)


def _spy_on_spans(monkeypatch) -> list[np.ndarray]:
    """The (n, d_varying) rows `fit` takes span coordinates of from now on, in order."""
    real = clustering._span_coordinates
    rows = []

    def spy(points):
        rows.append(points)
        return real(points)

    monkeypatch.setattr(clustering, "_span_coordinates", spy)
    return rows


def test_only_restarts_on_every_point_in_the_row_layout_run_in_the_span(monkeypatch):
    runs, spans = _spy_on_runs(monkeypatch), _spy_on_spans(monkeypatch)
    rng = np.random.default_rng(9)
    # (n, d, `_SEED_POINTS`): stride 1 with d_varying > n and d_varying == n,
    # the span's two cases; then the column layout, and strided rows
    for n, d, seed_points, spanned in (
        (12, 30, clustering._SEED_POINTS, True),
        (12, 12, clustering._SEED_POINTS, True),
        (30, 3, clustering._SEED_POINTS, False),
        (30, 45, 10, False),
    ):
        monkeypatch.setattr(clustering, "_SEED_POINTS", seed_points)
        runs.clear()
        spans.clear()
        points = rng.standard_normal((n, d))
        centroids, labels, sq, _ = fit(points, KMeansParams(k=3, seed=4))
        if spanned:
            # the points' own rows, once; every restart on n coordinates a
            # point, and the last run on the d columns
            assert len(spans) == 1 and np.may_share_memory(spans[0], points)
            assert [run.shape for run in runs] == [(n, n)] * clustering._N_INIT + [(n, d)]
        else:
            assert spans == []
        assert centroids.shape == (3, d) and sq.shape == (n, 3)
        assert np.array_equal(labels, sq.argmin(axis=1))
    # constant columns leave the span: it sees the varying ones only
    monkeypatch.setattr(clustering, "_SEED_POINTS", 1000)
    points = np.insert(rng.standard_normal((8, 20)), [0, 5, 5, 20], 3.0, axis=1)
    fit(points, KMeansParams(k=2, seed=1))
    assert [rows.shape for rows in spans] == [(8, 20)]


def test_span_coordinates_keep_the_pairwise_distances_of_the_scaled_rows(monkeypatch):
    rng = np.random.default_rng(45)
    normal, integer = rng.standard_normal((9, 23)), rng.integers(-3, 4, (9, 23)) * 1.0
    # near the largest float an unscaled column sum would overflow; subnormal
    # rows take the clamped factor 2**1022.  Each with the default block, a
    # block of 3 columns and a block of one column
    wide = (normal * 1e307, 1.7e307 + normal * 1e303, normal * 1e-300, integer * 5e-324)
    for rows in (normal, *wide):
        scale = math.ldexp(1.0, -max(math.frexp(float(np.abs(rows).max()))[1], -1022))
        scaled = rows * scale
        want = ((scaled[:, None] - scaled[None]) ** 2).sum(axis=2)
        for block_bytes in (clustering._BLOCK_BYTES, 8 * 9 * 3, 8):
            monkeypatch.setattr(clustering, "_BLOCK_BYTES", block_bytes)
            points = clustering._span_coordinates(rows)
            # one row a point, C-ordered, as the row layout takes them
            assert points.shape == (9, 9) and points.flags.c_contiguous
            got = ((points[:, None] - points[None]) ** 2).sum(axis=2)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12 * want.max())


def test_restarts_in_the_span_of_rows_near_the_largest_float_stay_finite(lloyd_traces):
    rng = np.random.default_rng(61)
    # rows whose every column sums past the largest float: without the scale
    # the Gram matrix would hold inf and NaN.  Spread 1e150 apart, their
    # squared distances fit a float and the fit returns; spread 1e306 apart,
    # they do not, and the one refusal is UsageError
    for spread, refused in ((1e150, False), (1e306, True)):
        points = 1.5e307 + rng.random((12, 40)) * spread
        for k in (1, 3, 6):
            lloyd_traces.clear()
            if refused:
                with pytest.raises(UsageError, match="overflows"):
                    fit(points, KMeansParams(k=k, seed=1))
            else:
                centroids, _, _, inertia = fit(points, KMeansParams(k=k, seed=1))
                assert np.isfinite(centroids).all() and math.isfinite(inertia)
            # every restart ran on scaled coordinates: a finite objective
            # that never rises, closing well short of `_MAX_ITERS`.  So did
            # the last run, on the points themselves, unless it overflowed
            *restarts, last = lloyd_traces
            assert len(restarts) == clustering._N_INIT
            for trace in restarts:
                assert all(map(math.isfinite, trace))
            for trace in lloyd_traces:
                assert never_increases(trace) and len(trace) < clustering._MAX_ITERS // 10
            assert refused or all(map(math.isfinite, last))


def test_each_restart_draws_from_its_own_offset(monkeypatch):
    runs, stacks = _spy_on_runs(monkeypatch), _spy_on_stacks(monkeypatch)
    points = np.random.default_rng(3).standard_normal((4 * clustering._SEED_POINTS + 7, 3))
    fit(points, KMeansParams(k=3, seed=2))
    # stride 5: restart i sees every 5th point from point i % 5, 801 in all;
    # the refinement sees every point
    (stack,) = stacks
    assert stack.shape == (clustering._N_INIT, 3, 801)
    for i, plane in enumerate(stack):
        assert np.array_equal(plane.T, points[i % 5 : 5 * 801 : 5])
    assert len(runs) == 1 and np.array_equal(runs[0], points)


_PALETTE = ((40, 60, 200), (210, 40, 40), (90, 200, 90), (128, 128, 128))


def _interleaved_pixels(rng, m, colours, sigma):
    """10·m integer pixels from `colours` plus rounded noise: with stride 10, restart i's are i::10."""
    picks = rng.integers(len(colours), size=(clustering._N_INIT, m))
    noise = np.rint(rng.normal(0.0, sigma, (clustering._N_INIT, m, 3)))
    pixels = np.asarray(colours, dtype=np.float64)[picks] + noise
    return pixels.swapaxes(0, 1).reshape(-1, 3)


def test_a_stacked_restart_leaves_the_stack_when_its_run_closes(monkeypatch):
    real = clustering._nearest
    stacked = []

    def nearest(sq):
        stacked.append(sq.shape[:-2])  # the planes an assignment measures, () for one run
        return real(sq)

    monkeypatch.setattr(clustering, "_nearest", nearest)
    monkeypatch.setattr(clustering, "_SEED_POINTS", 960)
    # a noisy palette: runs close on an update that moved nothing, after
    # different numbers of passes, so the stack shrinks as they close
    fit(_interleaved_pixels(np.random.default_rng(12), 960, _PALETTE, 8.0), KMeansParams(k=3))
    planes = [shape[0] for shape in stacked if shape]
    assert planes[0] == clustering._N_INIT and planes[-1] < clustering._N_INIT


def _squares_adding_up_to(total: int) -> list[float]:
    """Powers of two whose squares, added left to right, are exactly `total` < 2**53."""
    # 2**b is (2**(b // 2))**2 for an even b and twice that for an odd one
    bits = [b for b in range(total.bit_length()) if total >> b & 1]
    return [2.0 ** (b // 2) for b in bits for _ in range(1 + b % 2)]


def test_a_draw_on_a_cumulative_sum_takes_the_next_point():
    # restart 0 draws point 0 first, then u; its other two points weigh j = u * 2**53
    # and 2**53 - j, every sum exact, so the draw u * 2**53 is the cumulative sum
    # after point 1, and `searchsorted(side="right")` takes point 2
    seed = next(s for s in range(100) if np.random.default_rng(s).integers(3) == 0)
    rng = np.random.default_rng(seed)
    rng.integers(3)
    j = int(rng.random() * 2**53)
    near, far = _squares_adding_up_to(j), _squares_adding_up_to(2**53 - j)
    plane = np.zeros((len(near) + len(far), 3))
    plane[: len(near), 1] = near
    plane[len(near) :, 2] = far
    stack = np.repeat(plane[None], clustering._N_INIT, axis=0)
    centroids, inertias = clustering._stacked_restarts(stack, 2, np.random.default_rng(seed))
    # point 1 joins point 0, not the drawn point 2
    assert np.array_equal(centroids[0], [plane[:, 1] / 2, plane[:, 2]])
    assert inertias[0] == j / 2


def _blob_instance(rng):
    """Gaussian blobs, their count independent of k, so k may split or merge them."""
    n, k, d, blobs = (int(rng.integers(*b)) for b in ((1_500, 10_001), (2, 9), (2, 6), (2, 9)))
    centres = rng.uniform(0.0, 100.0, (blobs, d))
    points = centres[rng.integers(blobs, size=n)] + rng.normal(0.0, rng.uniform(2.0, 20.0), (n, d))
    return points, KMeansParams(k=k, seed=int(rng.integers(2**31)))


def _blob_instances(seed, numbers):
    """Instances `numbers` (counted from 1) of the stream of `_blob_instance` draws from `seed`."""
    rng = np.random.default_rng(seed)
    drawn = [_blob_instance(rng) for _ in range(max(numbers))]
    return [drawn[number - 1] for number in numbers]


# instances 1-10 of seed 7; instance 27 of seed 40 (n 8,424, k 5, d 4),
# where ten restarts on one shared subsample all ended 1.054x above the
# all-points fit; and instance 29 of seed 43 (n 8,937, k 6, d 2), the
# worst of seeds 40-57 with an offset per restart, at 1.046x
@pytest.mark.parametrize(
    "seed, number", [(7, number) for number in range(1, 11)] + [(40, 27), (43, 29)]
)
def test_subsampled_restarts_stay_within_5_percent_of_all_point_restarts(
    monkeypatch, seed, number
):
    (points, params), = _blob_instances(seed, [number])
    *_, subsampled = fit(points, params)
    monkeypatch.setattr(clustering, "_SEED_POINTS", len(points))
    *_, everywhere = fit(points, params)
    assert subsampled <= 1.05 * everywhere


def test_fit_matches_exhaustive_partition_search():
    rng = np.random.default_rng(31)
    for k in (1, 2, 3):
        points = rng.uniform(0.0, 10.0, (7, 2))
        centroids, _, _, inertia = fit(points, KMeansParams(k=k, seed=0))
        best = brute_force_inertia(points, k)
        assert inertia <= 1.05 * best + 1e-9


def test_all_identical_points_converge_with_zero_inertia():
    points = np.ones((5, 2)) * 3.0  # no column varies: fit clusters zero columns
    centroids, labels, sq, inertia = fit(points, KMeansParams(k=2))
    assert inertia == 0.0
    assert np.all(centroids == 3.0)
    assert labels.tolist() == [0] * 5
    assert not sq.any()
    # a mean of equal values need not be that value, nor fit in a float
    for value, n, k in ((3.205530898553695, 8, 3), (1.7e308, 3, 1)):
        centroids, _, _, inertia = fit(np.full((n, 2), value), KMeansParams(k=k, seed=0))
        assert np.all(centroids == value)
        assert inertia == 0.0


def test_predict_agrees_with_a_linear_scan():
    rng = np.random.default_rng(41)
    points = rng.uniform(0.0, 10.0, (50, 4))
    centroids, *_ = fit(points, KMeansParams(k=5, seed=1))
    for vec in rng.uniform(0.0, 10.0, (50, 4)):
        label, distance = predict(centroids, vec)
        scan_label, scan_distance = nearest_centroid_scan(vec, centroids)
        assert label == scan_label
        assert distance == pytest.approx(scan_distance, rel=1e-12)


def test_predict_breaks_ties_toward_the_lower_label():
    centroids, *_ = fit(np.array([(0.0, 0.0), (2.0, 0.0)]), KMeansParams(k=2))
    assert sorted(map(tuple, centroids.tolist())) == [(0.0, 0.0), (2.0, 0.0)]
    label, distance = predict(centroids, np.array([1.0, 0.0]))  # exactly between both centroids
    assert distance == 1.0
    sq = ((centroids - np.array([1.0, 0.0])) ** 2).sum(axis=1)
    equally_near = [i for i in range(2) if sq[i] == sq.min()]
    assert len(equally_near) == 2
    assert label == min(equally_near)


def test_assign_scratch_memory_stays_within_one_points_matrix():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((64, 8192))
    centroids = rng.standard_normal((16, 8192))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        labels, sq = _assign(points, centroids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (64,) and sq.shape == (64, 16)
    # one block's difference plus the results, never an (n, d) or (n, k, d)
    # array; the 16 KiB cover array headers and the nearest distance and
    # mask, (n,) each
    assert clustering._BLOCK_BYTES < points.nbytes
    assert peak <= clustering._BLOCK_BYTES + sq.nbytes + labels.nbytes + 16_384


def test_fit_scratch_memory_shrinks_with_the_constant_columns():
    rng = np.random.default_rng(7)
    points = np.empty((64, 8192))
    points[:, :4096] = np.arange(4096) * 0.125  # the same in every row
    points[:, 4096:] = rng.standard_normal((64, 4096))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        centroids, *_ = fit(points, KMeansParams(k=8, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(centroids[:, :4096] == points[0, :4096])
    # the varying half is one run of columns, clustered as a view of the
    # points: one block and the centroids, less than a copy of that half
    assert peak < 0.5 * points.nbytes


def test_fit_scratch_memory_of_all_varying_rows_is_a_fraction_of_the_input():
    rng = np.random.default_rng(7)
    # restarts in the span of all points; and on every 2nd point
    for n, share in ((256, 0.25), (1024, 0.0625)):
        points = rng.standard_normal((n, 8192))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fit(points, KMeansParams(k=8, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the points are clustered in place and the input checks' masks are
        # taken a block of rows at a time: the scratch is one block, (k, d)
        # centroids and, with stride 1, a few (n, n) arrays for the span
        # coordinates; never a copy of the points, nor an (n, d) mask of one
        # byte a coordinate, 0.125× the points
        assert peak <= share * points.nbytes


def test_every_run_of_a_fit_draws_into_and_updates_one_centroid_buffer():
    # the bench's acoustic shape: its amplitude half, every column varying
    k, n, d = 8, 64, 32_769
    points = np.random.default_rng(7).standard_normal((n, d))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        centroids, *_ = fit(points, KMeansParams(k=k, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (k, d) buffer, returned as it is, and one block of the Gram matrix's
    # columns, beside which the restarts in the span hold only O(n²): a few
    # (n, n) arrays, the k-means++ rows and the (k, n) centroids.  A second
    # (k, d) array, for the full-space means, or an (n, d) copy of the points
    # would pass the bound
    assert centroids.shape == (k, d)
    assert peak <= centroids.nbytes + clustering._BLOCK_BYTES + 8 * n * n * 8
    assert 8 * n * n * 8 < clustering._BLOCK_BYTES


def _integer_rows():
    """(24, 40) integers as float64, in which every column varies: the row layout."""
    return np.random.default_rng(13).integers(-1000, 1000, (24, 40)).astype(np.float64)


def _view_and_copy():
    """One run of 40 varying columns between constant ones, and that run split by one more.

    The mean of most counts of copies of 0.1 is not 0.1, so a constant
    column clustered as a varying one would show.
    """
    run = np.random.default_rng(14).standard_normal((24, 40)) * 1e3
    viewed = np.hstack([np.full((24, 3), 0.1), run, np.full((24, 2), -7.5)])
    return viewed, np.insert(viewed, 20, 0.1, axis=1)


def test_one_run_of_varying_columns_is_clustered_as_a_view_and_a_split_one_as_a_copy(
    monkeypatch,
):
    viewed, copied = _view_and_copy()
    real, real_span = clustering._sq_distances, clustering._span_coordinates
    spans, passes = [], []  # the span coordinates, and each distance pass on the varying columns

    def distances(points, axis, centroids):
        if not any(points is coordinates for coordinates in spans):
            passes.append(points)
        return real(points, axis, centroids)

    def span(rows):
        spans.append(real_span(rows))
        return spans[-1]

    monkeypatch.setattr(clustering, "_sq_distances", distances)
    monkeypatch.setattr(clustering, "_span_coordinates", span)
    # restarts in the span of all points, then one run on their columns that
    # starts on a fixed point, so makes one pass; and restarts on every 3rd
    # point before one run on all points
    for seed_points, stride in ((clustering._SEED_POINTS, 1), (10, 3)):
        monkeypatch.setattr(clustering, "_SEED_POINTS", seed_points)
        passes.clear()
        fit(viewed, KMeansParams(k=3, seed=2))
        assert all(np.may_share_memory(points, viewed) for points in passes)
        passes.clear()
        fit(copied, KMeansParams(k=3, seed=2))
        assert not any(np.may_share_memory(points, copied) for points in passes)
        assert {points.shape[1] for points in passes} == {40}
        if stride == 1:
            assert len(passes) == 1


def test_a_half_constant_input_is_never_written(monkeypatch):
    rng = np.random.default_rng(15)
    # an acoustic vector's layout: a constant frequency half, a varying
    # amplitude half; a write to the read-only points would raise
    points = np.empty((16, 66))
    points[:, :33] = np.arange(33) * 0.3
    points[:, 33:] = rng.standard_normal((16, 33))
    expected = points.copy()
    points.flags.writeable = False
    for seed_points in (clustering._SEED_POINTS, 5):
        monkeypatch.setattr(clustering, "_SEED_POINTS", seed_points)
        centroids, *_ = fit(points, KMeansParams(k=4, seed=3))
        assert np.array_equal(points, expected)
        assert np.all(centroids[:, :33] == expected[0, :33])


def test_a_non_finite_coordinate_in_a_later_row_block_is_refused(monkeypatch):
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", 2 * 8 * 4)  # two rows of four
    points = np.arange(40.0).reshape(10, 4)
    for bad in (np.nan, np.inf):
        points[-1, -1] = bad
        with pytest.raises(UsageError, match="finite"):
            fit(points, KMeansParams(k=2))


def test_stacked_restart_scratch_memory_does_not_grow_with_n(monkeypatch):
    real = clustering._stacked_restarts
    peaks = []

    def measured(stack, *rest):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = real(stack, *rest)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return result

    monkeypatch.setattr(clustering, "_stacked_restarts", measured)
    rng = np.random.default_rng(8)
    # a wide column-layout fit and a large-k one, each at two n with the same
    # 1,000-point subsamples
    for d, k, sizes in ((200, 4, (3_000, 9_000)), (3, 40, (20_000, 40_000))):
        stack_bytes = clustering._N_INIT * d * clustering._SEED_POINTS * 8
        sq_bytes = clustering._N_INIT * k * clustering._SEED_POINTS * 8
        # a copy of the stack as restarts leave it, one difference of its size,
        # and two (R, k, m) distance arrays; never an (R, k, d, m) array
        bound = 2 * stack_bytes + 2 * sq_bytes + 512 * 1024
        assert bound < k * stack_bytes
        for n in sizes:
            points = rng.permutation(_separated_blobs(n, d, k))  # every subsample meets every blob
            tracemalloc.start()
            try:
                fit(points, KMeansParams(k=k, seed=1))
            finally:
                tracemalloc.stop()
            assert peaks[-1] <= bound


def test_a_span_fit_holds_its_gram_matrix_and_blocks_but_no_n_by_n_difference(monkeypatch):
    real = clustering._span_coordinates
    phases = []  # (peak while the span coordinates were made, memory held once they were)

    def measured(rows):
        coordinates = real(rows)
        held, peak = tracemalloc.get_traced_memory()
        phases.append((peak, held))
        tracemalloc.reset_peak()
        return coordinates

    monkeypatch.setattr(clustering, "_span_coordinates", measured)
    rng = np.random.default_rng(46)
    k = 8
    for n in (400, 600):
        points = rng.standard_normal((n, n))
        tracemalloc.start()
        try:
            fit(points, KMeansParams(k=k, seed=1))
            runs_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coordinates_peak, held = phases[-1]
        # the runs' (k, n) distance rows, labels and centroid buffers
        small = 16 * 8 * k * n
        # the Gram matrix, one (n, n) product to add into it, which the
        # eigenvectors then replace, and one scaled column block
        assert coordinates_peak <= 2 * 8 * n * n + clustering._BLOCK_BYTES + small
        # the restarts on the coordinates and the last run on the points: one
        # block of rows at a time, never an (n, n) difference
        assert runs_peak - held <= clustering._BLOCK_BYTES + small


def test_predict_distance_is_the_square_root_of_assigns_entry():
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 1.0, (12, 8192))
    centroids, *_ = fit(points, KMeansParams(k=3, seed=2))
    for vec in rng.uniform(0.0, 1.0, (5, 8192)):
        label, distance = predict(centroids, vec)
        labels, sq = _assign(vec[None, :], centroids)
        assert label == int(labels[0])
        assert distance == float(np.sqrt(sq[0, label]))


def test_fit_input_validation():
    with pytest.raises(UsageError, match="k must be an int of at least 1, got 0"):
        KMeansParams(k=0)
    with pytest.raises(UsageError, match="1 points cannot fill 2 clusters"):
        fit(np.zeros((1, 2)), KMeansParams(k=2))
    for bad in (float("nan"), float("inf"), float("-inf")):
        # NaN would become a centroid and the inertia
        with pytest.raises(UsageError, match="^points must be finite, not NaN or inf$"):
            fit(np.array([(bad, 0.0), (1.0, 1.0), (2.0, 2.0)]), KMeansParams(k=2))
    # first the centroid overflows to inf; then only the inertia, as the mean of
    # (1e200, 0) and (-1e200, 0) is (0, 0) but each point's square distance is
    # 1e400; then the same in the column layout, past `_SEED_POINTS`, where the
    # restarts run as one stack.  Warnings are errors in this suite, so an
    # overflow warning on the way would fail the case
    for points in (
        [(1e308, 0.0), (1e308, 0.0), (-1e308, 0.0)],
        [(1e200, 0.0), (-1e200, 0.0)],
        [(1e200, 0.0), (-1e200, 0.0)] * 600,
    ):
        with pytest.raises(UsageError, match="overflows"):
            fit(np.array(points), KMeansParams(k=1))


def test_fit_refuses_params_that_are_not_kmeans_params():
    for params, name in ((None, "NoneType"), (3, "int"), ({"k": 1}, "dict")):
        with pytest.raises(UsageError, match=f"^params must be a KMeansParams, not {name}$"):
            fit([[1.0], [2.0]], params)


def test_a_fit_that_overflows_on_the_way_but_ends_finite_is_returned():
    # restart 0 draws (3e154, 0); the other points' k-means++ weights overflow, so the
    # clamped draw repeats it, and the run's first assignment sums to inf.  It still
    # ends, as every restart here does, with every point on a centroid, and wins the tie
    points = np.array([(-2e154, 0.0), (-2e154, 0.0), (3e154, 0.0)])
    centroids, labels, _, inertia = fit(points, KMeansParams(k=2, seed=0))
    assert centroids.tolist() == [[3e154, 0.0], [-2e154, 0.0]]
    assert labels.tolist() == [1, 1, 0]
    assert inertia == 0.0


# --- fit against the reference written from its docstring -------------------

_SCALES = (1.0, 1e3, 1e150, 1e154, 1e300, 1e307)  # past 1e154 squares overflow, near 1e308 sums


def _scan_cases(count=100):
    """`count` seeded small fits of both layouts, scaled, about a third of their columns constant.

    Normal, duplicated or small integer points; at most 24, so every restart
    sees every point.
    """
    rng = np.random.default_rng(2003)
    for _ in range(count):
        n = int(rng.integers(2, 25))
        d = int(rng.integers(1, 2 * n + 1))  # fewer columns than points, or at least as many
        kind = int(rng.integers(3))
        if kind == 0:
            points = rng.standard_normal((n, d))
        elif kind == 1:  # a few distinct points, each repeated
            distinct = int(rng.integers(1, n + 1))
            points = rng.standard_normal((distinct, d))[rng.integers(0, distinct, n)]
        else:
            points = rng.integers(-3, 4, (n, d)).astype(np.float64)
        points *= _SCALES[int(rng.integers(len(_SCALES)))]
        constant = rng.random(d) < 0.3
        points[:, constant] = points[0, constant]
        yield points, min(int(rng.integers(1, n + 1)), 6), int(rng.integers(2**31)), {}


def _strided_cases():
    """Restarts on every 2nd to 10th point, then one run on all of them, in both layouts."""
    rng = np.random.default_rng(1998)
    # (n, d, k, scale, integer points, `_SEED_POINTS`): d >= n is the row layout
    for n, d, k, scale, integer, seed_points in (
        (1500, 4, 3, 1.0, False, 1000),
        (2001, 3, 4, 1.0, True, 1000),
        (3001, 5, 5, 1e3, False, 1000),
        (4001, 2, 3, 1e307, False, 1000),
        (30, 45, 3, 1.0, False, 15),
        (41, 80, 3, 1e150, True, 20),
        (60, 100, 5, 1e3, False, 15),
    ):
        points = rng.integers(-3, 4, (n, d)) * 1.0 if integer else rng.standard_normal((n, d))
        constant = rng.random(d) < 0.2
        points[:, constant] = points[0, constant]
        yield points * scale, k, int(rng.integers(2**31)), {"_SEED_POINTS": seed_points}
    # ten restarts' subsamples of integer pixels: noisy palettes, whose runs
    # close after different numbers of passes; a few colours, each repeated,
    # so k-means++ draws one twice and an empty cluster seizes a point; and
    # pixels scaled by 2**-30, every sum exact, whose runs close once no
    # update moves a centroid further than the tolerance
    for seed, (k, m, colours, sigma, scale) in enumerate(
        (
            (3, 960, _PALETTE, 8.0, 1.0),
            (4, 1000, _PALETTE, 20.0, 1.0),
            (6, 500, _PALETTE, 30.0, 1.0),
            (5, 300, _PALETTE[:3], 0.0, 1.0),
            (3, 400, _PALETTE, 10.0, 2.0**-30),
        )
    ):
        pixels = _interleaved_pixels(rng, m, colours, sigma) * scale
        yield pixels, k, seed, {"_SEED_POINTS": m}


def _photo_cases():
    """Noisy three-colour photos of the bench's sizes, sampled as `dominant_colors` samples them."""
    rng = np.random.default_rng(2018)
    for width, height in ((64, 48), (96, 72), (128, 96), (160, 120)):
        total = width * height
        counts = [total // 2, total * 3 // 10]
        pixels = np.repeat(rng.integers(30, 226, (3, 3)), counts + [total - sum(counts)], axis=0)
        noisy = np.clip(np.rint(pixels + rng.normal(0.0, 8.0, pixels.shape)), 0.0, 255.0)
        # every stride-th pixel, so that at most 10,000 remain
        yield noisy[:: -(-total // 10_000)], 3, int(rng.integers(2**31)), {}


def _palette_cases():
    """The bench's visual fit: two 9-value palette vectors per scene, k = 8 scenes."""
    rng = np.random.default_rng(16)
    palettes = rng.integers(30, 226, (8, 9))
    for seed in range(3):
        yield np.repeat(palettes, 2, axis=0) + rng.normal(0.0, 2.0, (16, 9)), 8, seed, {}


def _acoustic_cases():
    """An acoustic fit's shape: a constant frequency half, then three clips' amplitudes a scene."""
    rng = np.random.default_rng(65)
    bins = 4097
    scenes = np.repeat(rng.uniform(0.0, 50.0, (8, bins)), 3, axis=0)
    amplitudes = np.abs(scenes + rng.normal(0.0, 10.0, scenes.shape))
    frequencies = np.broadcast_to(np.arange(bins) * (4000.0 / (bins - 1)), amplitudes.shape)
    # row blocks of 16 rows, the last one short, of 7 rows, and of one row
    for block_bytes in (clustering._BLOCK_BYTES, 7 * 8 * bins, 1000):
        yield np.hstack([frequencies, amplitudes]), 8, 1, {"_BLOCK_BYTES": block_bytes}


def _wide_row_cases():
    """Row-layout points, each with a k: overflowing distances, or rows clustered as a copy."""
    rng = np.random.default_rng(21)
    # two groups 2e154 apart, so every distance across them overflows to inf
    side = np.where(np.arange(12)[:, None] < 6, 1e154, -1e154)
    overflowing = side + rng.standard_normal((12, 16)) * 1e153
    # rows that are not contiguous, and constant columns between varying
    # ones: both are clustered as a compressed copy
    fortran = np.asfortranarray(rng.standard_normal((10, 30)) * 1e3)
    scattered = np.insert(rng.standard_normal((10, 30)), [0, 7, 7, 19, 30], 2.5, axis=1)
    return ((overflowing, 2), (overflowing, 3), (fortran, 4), (scattered, 4))


def _input_cases():
    """Read-only and Fortran-ordered points, refused int ones, and constant columns anywhere."""
    floats = _integer_rows()
    ints = floats.astype(np.int64)
    read_only = floats.copy()
    read_only.flags.writeable = False  # a write to the points would raise
    viewed, copied = _view_and_copy()
    # restarts on all points, and on every 3rd point before one refining run;
    # each in row blocks of 5 points too, so constant columns are found across blocks
    for seed_points in (clustering._SEED_POINTS, 10):
        for points in (floats, read_only, np.asfortranarray(floats), ints):
            yield points, 3, 2, {"_SEED_POINTS": seed_points}
        for block_bytes in (clustering._BLOCK_BYTES, 5 * 8 * copied.shape[1]):
            for points in (viewed, copied):
                yield points, 3, 2, {"_SEED_POINTS": seed_points, "_BLOCK_BYTES": block_bytes}
    for points, k in _wide_row_cases():
        yield points, k, 1, {}
    # subnormal rows, whose span scale 2**1022 is clamped: 2**-e would overflow
    yield floats * 5e-324, 3, 2, {}
    # fewer points than clusters, and NaN and inf, which the reference does not
    # check: it ends on a centroid that is not finite
    yield np.array([[0.0, 1.0]]), 2, 0, {}
    for bad in (math.nan, math.inf):
        yield np.array([[bad, 0.0], [1.0, 1.0], [2.0, 2.0]]), 2, 0, {}
    # a few points on a 4-wide grid, constant columns of any value inserted
    rng = np.random.default_rng(112)
    for value in (0.1, -7.5, 1e308, -0.0, 3.0):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 3))
        grid = rng.integers(0, 4, (n, d)).astype(np.float64)
        wide = np.insert(grid, rng.integers(0, d + 1, int(rng.integers(1, 5))), value, axis=1)
        yield wide, int(rng.integers(1, min(n, 4) + 1)), int(rng.integers(2**32)), {}


def _constant_cases():
    """Another tolerance and iteration cap, in `fit` and the reference alike."""
    rng = np.random.default_rng(12)
    # with a tolerance of 1, small integer coordinates often move a centroid
    # by exactly the tolerance, which closes the run too.  The refinement
    # undoes most such closes, so it takes many fits to show a few
    for _ in range(40):
        small = rng.integers(0, 7, (80, 2)).astype(np.float64)
        for seed in range(3):
            yield small, 2, seed, {"_TOL": 1.0, "_SEED_POINTS": 8}
    # every run stops after at most none, one or two updates.  The cap is at
    # least 1, so that a restart run alone ends on a partition to average
    # again; a stacked fit averages none, so it still takes a cap of none
    for cap in (0, 1, 2):
        pixels = _interleaved_pixels(rng, 700, _PALETTE, 40.0)
        yield pixels, 4, cap, {"_MAX_ITERS": cap, "_SEED_POINTS": 700}
    for cap in (1, 2):
        yield _integer_rows(), 3, cap, {"_MAX_ITERS": cap, "_SEED_POINTS": 10}


_REFERENCE_CASES = {
    "scan": _scan_cases,
    "strided": _strided_cases,
    "photos": _photo_cases,
    "palette": _palette_cases,
    "acoustic": _acoustic_cases,
    "inputs": _input_cases,
    "constants": _constant_cases,
}


def _bits(value) -> tuple:
    array = np.asarray(value)
    return array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize("group", list(_REFERENCE_CASES))
def test_fit_gives_the_bits_of_the_reference_or_both_refuse(monkeypatch, group):
    # each case patches the module constants it names, and the reference
    # takes the same values: the row blocks leave every bit as it is, but the
    # Gram matrix's column blocks are part of the span coordinates
    for number, (points, k, seed, constants) in enumerate(_REFERENCE_CASES[group]()):
        with monkeypatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(clustering, name, value)
            try:
                got = fit(points, KMeansParams(k=k, seed=seed))
            except UsageError:
                got = None
        same = {name.strip("_").lower(): v for name, v in constants.items()}
        want = reference_fit(points, k, seed, **same)
        if got is None or want is None:
            assert got is want, (group, number)
        else:
            names = ("centroids", "labels", "sq", "inertia")
            differ = [name for name, a, b in zip(names, got, want) if _bits(a) != _bits(b)]
            assert differ == [], (group, number)


def test_predict_validates_dimensions():
    centroids, *_ = fit(np.array([(0.0, 0.0), (1.0, 1.0)]), KMeansParams(k=1))
    for width in (1, 3):
        message = f"vector has shape ({width},), model expects (2,)"
        with pytest.raises(UsageError, match=re.escape(message)):
            predict(centroids, np.zeros(width))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(UsageError, match="^vector must be finite, not NaN or inf$"):
            predict(centroids, np.array([bad, 0.0]))


def test_predict_refuses_centroids_that_are_not_finite():
    message = "^centroids must be finite, not NaN or inf$"
    for bad in (math.nan, math.inf, -math.inf):
        # the nearest centroid is finite, and so is its distance: a bad one anywhere refuses
        for centroids in (np.full((1, 1), bad), np.array([[0.0, 0.0], [bad, 1.0]])):
            with pytest.raises(UsageError, match=message):
                predict(centroids, np.zeros(centroids.shape[1]))


def test_predict_takes_finite_points_too_far_apart_for_a_float_as_infinitely_far():
    # the squared difference overflows; warnings are errors in this suite, so none is raised
    centroids = np.array([[1e154, 0.0], [0.0, 0.0]])
    point = np.array([-1e154, 0.0])
    assert predict(centroids, point) == (1, 1e154)
    assert predict(centroids[:1], point) == (0, math.inf)


def test_confidence_anchor_points():
    assert confidence(0.0) == 100.0
    assert confidence(500_000.0) == 50.0
    assert confidence(1_000_000.0) == 0.0
    assert confidence(2_000_000.0) == 0.0


def test_confidence_scales_with_the_divisor():
    assert confidence(50.0, scale=1.0) == 50.0
    assert confidence(5.0, scale=10.0) == 99.5


def test_confidence_never_increases_with_distance():
    distances = np.linspace(0.0, 1_500_000.0, 1001)
    scores = [confidence(float(d)) for d in distances]
    assert all(b <= a for a, b in zip(scores, scores[1:]))
    assert all(0.0 <= s <= 100.0 for s in scores)


def test_confidence_rejects_bad_arguments():
    with pytest.raises(UsageError):
        confidence(-1.0)
    with pytest.raises(UsageError):
        confidence(1.0, scale=-2.0)
    with pytest.raises(UsageError):
        confidence(float("nan"))
    for scale in (float("nan"), float("inf")):
        with pytest.raises(UsageError):
            confidence(1.0, scale=scale)
