"""Clustering engine: worked cases, optimality, determinism, confidence."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import never_increases
from oracles import brute_force_inertia, nearest_centroid_scan
from scenefuse import clustering
from scenefuse.clustering import (
    KMeansParams,
    assign,
    confidence,
    fit,
    predict,
)
from scenefuse.errors import UsageError


def test_single_cluster_lands_on_the_mean(lloyd_traces):
    points = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]
    centroids, _, _, inertia = fit(points, KMeansParams(k=1))
    assert centroids.tolist() == [[2.0, 0.0]]
    assert inertia == 8.0
    # a move of exactly the tolerance, 1e-6, from a point to the mean has
    # converged: only the closing assignment follows, in every run
    lloyd_traces.clear()
    *_, inertia = fit([[0.0], [2e-6]], KMeansParams(k=1))
    assert inertia == 2e-12
    assert lloyd_traces == [[4e-12, 2e-12]] * clustering._N_INIT


def test_two_separated_pairs_split_cleanly():
    points = [(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)]
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
        assert len(lloyd_traces) == clustering._N_INIT
        assert all(map(never_increases, lloyd_traces))
        assert inertia == min(trace[-1] for trace in lloyd_traces)


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
    again_labels, again_sq = assign(points, centroids)
    assert np.array_equal(labels, again_labels)
    assert np.array_equal(sq, again_sq)
    assert inertia == sq[np.arange(points.shape[0]), labels].sum()
    assert all(map(never_increases, lloyd_traces))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    points=_crowded_points(),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    positions=st.lists(st.integers(0, 2), min_size=1, max_size=4),
    value=st.floats(allow_nan=False, allow_infinity=False),
)
def test_constant_columns_leave_the_fit_unchanged(points, k, seed, positions, value):
    # with no varying column at all, fit runs on the whole matrix instead
    assume((points != points[0]).any())
    k = min(k, points.shape[0])
    at = [min(p, points.shape[1]) for p in positions]
    wide = np.insert(points, at, value, axis=1)
    kept = np.insert(np.ones(points.shape[1], dtype=bool), at, False)
    centroids, labels, sq, inertia = fit(points, KMeansParams(k=k, seed=seed))
    wide_centroids, wide_labels, wide_sq, wide_inertia = fit(wide, KMeansParams(k=k, seed=seed))
    assert np.array_equal(wide_labels, labels)
    assert np.array_equal(wide_sq, sq)
    assert wide_inertia == inertia
    assert np.array_equal(wide_centroids[:, kept], centroids)
    assert np.all(wide_centroids[:, ~kept] == value)
    # at most two columns vary, so the sums over them are exact in any order
    assert np.array_equal(assign(wide, wide_centroids)[1], wide_sq)


def _spy_on_rows(monkeypatch) -> tuple[list[bytes], list[bytes]]:
    """The centroids whose distance rows `fit` computes, and those whose rows it uses.

    Each list holds one centroid's bytes per row, in order, from now on.
    """
    real_distances, real_rows = clustering._sq_distances, clustering._sq_rows
    computed, used = [], []

    def distances(points, axis, centroids, *rest):
        computed.extend(centroid.tobytes() for centroid in centroids)
        return real_distances(points, axis, centroids, *rest)

    def rows(points, axis, centroids, *rest):
        used.extend(centroid.tobytes() for centroid in centroids)
        return real_rows(points, axis, centroids, *rest)

    monkeypatch.setattr(clustering, "_sq_distances", distances)
    monkeypatch.setattr(clustering, "_sq_rows", rows)
    return computed, used


def _spy_on_run_results(monkeypatch) -> list[tuple]:
    """What each Lloyd run `fit` makes from now on returns, in order."""
    real = clustering._lloyd_run
    results = []

    def spy(points, axis, start, *rest):
        results.append(real(points, axis, start, *rest))
        return results[-1]

    monkeypatch.setattr(clustering, "_lloyd_run", spy)
    return results


def _separated_blobs(n, d, k):
    """n points in k blobs of unit spread, far apart, blob i % k for point i."""
    rng = np.random.default_rng(9)
    centres = rng.uniform(-100.0, 100.0, (k, d))
    return centres[np.arange(n) % k] + rng.normal(0.0, 1.0, (n, d))


def test_as_many_varying_columns_as_points_are_clustered_as_rows(monkeypatch):
    # the row layout sums each distance as `assign` does, so bit for bit
    rng = np.random.default_rng(3)
    for _ in range(5):
        points = rng.standard_normal((8, 8))
        centroids, _, sq, _ = fit(points, KMeansParams(k=2))
        assert np.array_equal(sq, assign(points, centroids)[1])
    # and so does every restart whose rows the memo served, winner or not
    results = _spy_on_run_results(monkeypatch)
    computed, used = _spy_on_rows(monkeypatch)
    points = _separated_blobs(20, 24, 4)
    centroids, _, sq, _ = fit(points, KMeansParams(k=4, seed=5))
    assert len(computed) < len(used) and len(results) == clustering._N_INIT
    for run_centroids, _, labels, run_sq in results:
        again_labels, again_sq = assign(points, run_centroids)
        assert np.array_equal(run_sq.T, again_sq) and np.array_equal(labels, again_labels)
    assert np.array_equal(sq, assign(points, centroids)[1])


def test_a_run_that_moves_and_repairs_nothing_makes_no_full_pass(monkeypatch):
    computed, _ = _spy_on_rows(monkeypatch)
    # the column layout: per run, the two k-means++ draw rows; the first
    # update moves no centroid, so the first assignment closes the run
    fit([[0.0], [0.0], [10.0], [10.0]], KMeansParams(k=2))
    assert len(computed) == 2 * clustering._N_INIT
    # the row layout: every run draws both points, so their two rows, one
    # per distinct draw, serve all ten runs, and no run makes a (k, n) pass
    computed.clear()
    fit([[0.0, 0.0], [10.0, 10.0]], KMeansParams(k=2))
    assert len(computed) == len(set(computed)) == 2


def test_restarts_on_the_same_points_compute_each_row_once(monkeypatch):
    computed, used = _spy_on_rows(monkeypatch)
    points = _separated_blobs(60, 80, 4)  # 80 columns: the row layout
    fit(points, KMeansParams(k=4, seed=3))
    # each distinct draw and each distinct member set (so each distinct
    # centroid, on points without duplicates) has its row computed once
    assert len(computed) == len(set(computed)) == len(set(used)) == 35
    assert set(computed) == set(used) and len(used) == 80
    # the memo is for restarts on the same points in the row layout only:
    # restarts on subsamples, and restarts in the column layout, compute
    # every row, as many as before the memo (92 and 80)
    for columns, seed_points, rows in ((80, 30, 92), (3, clustering._SEED_POINTS, 80)):
        monkeypatch.setattr(clustering, "_SEED_POINTS", seed_points)
        computed.clear()
        fit(_separated_blobs(60, columns, 4), KMeansParams(k=4, seed=3))
        assert len(computed) == rows


def test_the_distance_memo_holds_at_most_one_row_per_point(monkeypatch):
    real = clustering._sq_rows
    memos = []

    def spy(points, axis, centroids, keys, memo):
        memos.append(memo)
        return real(points, axis, centroids, keys, memo)

    monkeypatch.setattr(clustering, "_sq_rows", spy)
    computed, _ = _spy_on_rows(monkeypatch)
    points = np.random.default_rng(4).standard_normal((8, 8))
    centroids, labels, sq, _ = fit(points, KMeansParams(k=3, seed=1))
    assert len(set(map(id, memos))) == 1
    assert len(memos[0]) == 8 and len(set(computed)) > 8  # more rows than it may keep
    assert np.array_equal(sq, assign(points, centroids)[1])


def _spy_on_runs(monkeypatch) -> list[int]:
    """The point count of each Lloyd run `fit` makes from now on, in order."""
    real = clustering._lloyd_run
    seen = []

    def spy(points, axis, start, *rest):
        seen.append(points.shape[axis])
        return real(points, axis, start, *rest)

    monkeypatch.setattr(clustering, "_lloyd_run", spy)
    return seen


def _spy_on_first_points(monkeypatch) -> list[np.ndarray]:
    """The first point of each Lloyd run `fit` makes from now on, in order."""
    real = clustering._lloyd_run
    firsts = []

    def spy(points, axis, start, *rest):
        firsts.append(np.take(points, 0, axis))
        return real(points, axis, start, *rest)

    monkeypatch.setattr(clustering, "_lloyd_run", spy)
    return firsts


def test_restarts_see_a_subsample_and_one_run_refines_on_all_points(monkeypatch):
    seen = _spy_on_runs(monkeypatch)
    limit = clustering._SEED_POINTS
    rng = np.random.default_rng(5)
    # (n, d): the column layout at and just past the limit and well past
    # it, and the row layout (d >= n) past it
    for n, d in ((limit, 3), (limit + 1, 3), (4 * limit + 7, 3), (limit + 1, limit + 1)):
        seen.clear()
        points = rng.standard_normal((n, d))
        centroids, labels, sq, inertia = fit(points, KMeansParams(k=3, seed=1))
        stride = -(-n // limit)
        assert seen[: clustering._N_INIT] == [n // stride] * clustering._N_INIT
        assert all(count <= limit for count in seen[: clustering._N_INIT])
        assert seen[clustering._N_INIT :] == ([] if n <= limit else [n])
        # the returned partition and inertia are the last run's, on all points
        assert sq.shape == (n, 3) and np.array_equal(labels, sq.argmin(axis=1))
        assert inertia == pytest.approx(float(sq.min(axis=1).sum()), rel=1e-12)


def test_the_restarts_see_at_least_k_points(monkeypatch):
    seen = _spy_on_runs(monkeypatch)
    monkeypatch.setattr(clustering, "_SEED_POINTS", 2)
    points = np.arange(14.0).reshape(7, 2)
    fit(points, KMeansParams(k=3))  # every 4th point would leave 1: every 2nd leaves 3
    assert seen == [3] * clustering._N_INIT + [7]
    seen.clear()
    fit(points, KMeansParams(k=5))  # no stride leaves 5 of 7 but 1, so no refinement
    assert seen == [7] * clustering._N_INIT


def test_each_restart_draws_from_its_own_offset(monkeypatch):
    firsts = _spy_on_first_points(monkeypatch)
    points = np.random.default_rng(3).standard_normal((4 * clustering._SEED_POINTS + 7, 3))
    fit(points, KMeansParams(k=3, seed=2))
    # stride 5: restart i starts at point i % 5; the refinement at point 0
    offsets = [i % 5 for i in range(clustering._N_INIT)] + [0]
    assert len(firsts) == len(offsets)
    for first, offset in zip(firsts, offsets):
        assert np.array_equal(first, points[offset])


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
    centroids, *_ = fit([(0.0, 0.0), (2.0, 0.0)], KMeansParams(k=2))
    assert sorted(map(tuple, centroids.tolist())) == [(0.0, 0.0), (2.0, 0.0)]
    label, distance = predict(centroids, (1.0, 0.0))  # exactly between both centroids
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
        labels, sq = assign(points, centroids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (64,) and sq.shape == (64, 16)
    # one (n, d) difference plus the results, never an (n, k, d) array; the
    # 16 KiB cover array headers and the nearest distance and mask, (n,) each
    assert peak <= points.nbytes + sq.nbytes + labels.nbytes + 16_384


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
    # the varying half's copy plus one (n, d_varying) difference; at full
    # width the difference alone would be a whole points matrix
    assert peak <= 1.2 * points.nbytes


def test_predict_distance_is_the_square_root_of_assigns_entry():
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 1.0, (12, 8192))
    centroids, *_ = fit(points, KMeansParams(k=3, seed=2))
    for vec in rng.uniform(0.0, 1.0, (5, 8192)):
        label, distance = predict(centroids, vec)
        labels, sq = assign(vec[None, :], centroids)
        assert label == int(labels[0])
        assert distance == float(np.sqrt(sq[0, label]))


def test_fit_input_validation():
    with pytest.raises(UsageError, match="k must be an int of at least 1, got 0"):
        KMeansParams(k=0)
    with pytest.raises(UsageError, match="1 points cannot fill 2 clusters"):
        fit([(0.0, 0.0)], KMeansParams(k=2))
    with pytest.raises(UsageError, match="no points at all"):
        fit([], KMeansParams(k=1))
    with pytest.raises(UsageError, match=r"points must form one \(n, d\) matrix: "):  # ragged
        fit([(0.0, 0.0), (1.0, 1.0, 1.0)], KMeansParams(k=1))
    with pytest.raises(UsageError, match=r"not shape \(3,\)"):  # one flat vector, not points
        fit([0.0, 1.0, 2.0], KMeansParams(k=1))
    with pytest.raises(UsageError, match=r"not shape \(3, 2, 2\)"):  # points that are matrices
        fit(np.zeros((3, 2, 2)), KMeansParams(k=1))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(UsageError):  # NaN would become a centroid and the inertia
            fit([(bad, 0.0), (1.0, 1.0), (2.0, 2.0)], KMeansParams(k=2))
    # first the centroid overflows to inf; then only the inertia, as the mean of
    # (1e200, 0) and (-1e200, 0) is (0, 0) but each point's square distance is 1e400
    for points in ([(1e308, 0.0), (1e308, 0.0), (-1e308, 0.0)], [(1e200, 0.0), (-1e200, 0.0)]):
        with pytest.raises(UsageError, match="overflows"), np.errstate(all="ignore"):
            fit(points, KMeansParams(k=1))


def test_a_fit_that_overflows_on_the_way_but_ends_finite_is_returned():
    # restart 0 draws (3e154, 0); the other points' k-means++ weights overflow, so the
    # clamped draw repeats it, and the run's first assignment sums to inf.  It still
    # ends, as every restart here does, with every point on a centroid, and wins the tie
    points = [(-2e154, 0.0), (-2e154, 0.0), (3e154, 0.0)]
    with np.errstate(all="ignore"):
        centroids, labels, _, inertia = fit(points, KMeansParams(k=2, seed=0))
    assert centroids.tolist() == [[3e154, 0.0], [-2e154, 0.0]]
    assert labels.tolist() == [1, 1, 0]
    assert inertia == 0.0


def test_predict_validates_dimensions():
    centroids, *_ = fit([(0.0, 0.0), (1.0, 1.0)], KMeansParams(k=1))
    for point in ((0.0, 0.0, 0.0), [[0.0, 0.0]], [[0.0], [0.0]]):
        message = f"point has shape {np.shape(point)}, model expects (2,)"
        with pytest.raises(UsageError, match=re.escape(message)):
            predict(centroids, point)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(UsageError):
            predict(centroids, (bad, 0.0))


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
