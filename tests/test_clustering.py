"""Clustering engine: worked cases, optimality, determinism, confidence."""

import math
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
        computed.extend(row.tobytes() for row in centroids.reshape(-1, centroids.shape[-1]))
        return real_distances(points, axis, centroids, *rest)

    def rows(points, axis, centroids, *rest):
        used.extend(centroid.tobytes() for centroid in centroids)
        return real_rows(points, axis, centroids, *rest)

    monkeypatch.setattr(clustering, "_sq_distances", distances)
    monkeypatch.setattr(clustering, "_sq_rows", rows)
    return computed, used


def _spy_on_work(monkeypatch) -> dict[str, int]:
    """How many point-to-centroid distances `fit` computes and uses, and how many means it computes.

    Each count starts at 0 and covers every call from now on.
    """
    real_distances, real_rows, real_means = (
        clustering._sq_distances,
        clustering._sq_rows,
        clustering._means,
    )
    work = {"computed": 0, "used": 0, "means": 0}

    def distances(*args):
        sq = real_distances(*args)
        work["computed"] += sq.size
        return sq

    def rows(*args):
        sq = real_rows(*args)
        work["used"] += sq.size
        return sq

    def means(points, axis, labels, k):
        work["means"] += k
        return real_means(points, axis, labels, k)

    monkeypatch.setattr(clustering, "_sq_distances", distances)
    monkeypatch.setattr(clustering, "_sq_rows", rows)
    monkeypatch.setattr(clustering, "_means", means)
    return work


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
    work = _spy_on_work(monkeypatch)
    points = _separated_blobs(20, 24, 4)
    centroids, _, sq, _ = fit(points, KMeansParams(k=4, seed=5))
    assert work["computed"] < work["used"] and len(results) == clustering._N_INIT
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
    # and so in a stack of restarts, after which the refinement's first pass
    # is its last
    computed.clear()
    fit([[0.0], [0.0], [10.0], [10.0]] * 300, KMeansParams(k=2))
    assert len(computed) == 2 * clustering._N_INIT + 2
    # the row layout: every run draws both points, so their two rows, one
    # per distinct draw, serve all ten runs, and no run makes a (k, n) pass
    computed.clear()
    fit([[0.0, 0.0], [10.0, 10.0]], KMeansParams(k=2))
    assert len(computed) == len(set(computed)) == 2


def test_a_run_that_repeats_its_partition_closes_without_averaging_again(monkeypatch):
    work = _spy_on_work(monkeypatch)
    rng = np.random.default_rng(22)
    # two blobs of four points; the start sits off both, so the first update
    # moves every centroid and the next pass finds the same partition.  Eight
    # columns are the row layout, two the column layout
    for d in (8, 2):
        points = np.repeat([[0.0] * d, [50.0] * d], 4, axis=0) + rng.standard_normal((8, d))
        axis = int(d < len(points))
        layout = points.T.copy() if axis else points
        start = points[[0, 4]] + 0.5
        work["means"] = 0
        centroids, inertia, labels, sq = clustering._lloyd_run(
            layout, axis, (start, clustering._sq_distances(layout, axis, start)), None
        )
        assert work["means"] == 2  # one update of two clusters, not two
        assert labels.tolist() == [0] * 4 + [1] * 4
        again_labels, again_sq = assign(points, centroids)
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
        start = huge[:1].copy()
        work["means"] = 0
        with np.errstate(over="ignore", invalid="ignore"):
            centroids, inertia, labels, sq = clustering._lloyd_run(
                layout, axis, (start, clustering._sq_distances(layout, axis, start)), None
            )
        assert work["means"] == 1
        assert centroids.tolist() == [[math.inf] + [0.0] * (d - 1)] and inertia == math.inf
        assert labels.tolist() == [0, 0, 0] and np.all(sq == math.inf)


def test_restarts_on_the_same_points_compute_each_row_once(monkeypatch):
    work = _spy_on_work(monkeypatch)
    points = _separated_blobs(60, 80, 4)  # 80 columns: the row layout
    fit(points, KMeansParams(k=4, seed=3))
    # each of ten restarts uses 8 rows of 60 distances: its 4 draws' rows, and
    # the rows of one update, after which one pass closes the run.  Each of the
    # 31 distinct draws and 4 distinct member sets (so each distinct centroid,
    # on points without duplicates) has its row computed once, 35 rows; and
    # the i-th distinct draw copies its entries of the i before it from their
    # own rows, so it computes 60 - i.  Every row whole would be 2,100
    assert work["used"] == 10 * 8 * 60
    assert work["computed"] == 35 * 60 - 31 * 30 // 2 == 1_635
    # each restart's closing pass finds the partition its centroids were
    # averaged from, and averages no cluster again: 40 means, not 80
    assert work["means"] == 4 * 10
    # the memo is for restarts on the same points in the row layout only:
    # restarts on subsamples, and restarts in the column layout, compute
    # every row, as many distances as before the memo (92 rows of 30 or 60
    # points, and 80 rows of 60); each run's closing pass skips its update too
    for columns, seed_points, computed, means in (
        (80, 30, 3_120, 48),
        (3, clustering._SEED_POINTS, 80 * 60, 40),
    ):
        monkeypatch.setattr(clustering, "_SEED_POINTS", seed_points)
        work.update(computed=0, means=0)
        fit(_separated_blobs(60, columns, 4), KMeansParams(k=4, seed=3))
        assert (work["computed"], work["means"]) == (computed, means)


def test_the_distance_memo_holds_every_draw_and_at_most_n_update_rows(monkeypatch):
    real = clustering._sq_rows
    memos, drawn = [], set()

    def spy(points, axis, centroids, keys, memo):
        memos.append(memo)
        keys = list(keys)  # an iterable, maybe read once
        drawn.update(key for key in keys if isinstance(key, int))
        return real(points, axis, centroids, keys, memo)

    monkeypatch.setattr(clustering, "_sq_rows", spy)
    computed, _ = _spy_on_rows(monkeypatch)
    points = np.random.default_rng(4).standard_normal((8, 8))
    centroids, labels, sq, _ = fit(points, KMeansParams(k=3, seed=1))
    assert len(set(map(id, memos))) == 1
    keys = list(memos[0])  # in the order the memo took them
    # every distinct draw's row stays, at most one per point, so a later
    # draw can copy its entries from them all; an update's row joins only
    # while the memo holds fewer than n rows, so it holds at most 2n
    assert {key for key in keys if isinstance(key, int)} == drawn and len(drawn) == 8
    assert all(i < 8 for i, key in enumerate(keys) if not isinstance(key, int))
    assert 8 < len(keys) < len(set(computed))  # more rows than it may keep
    assert np.array_equal(sq, assign(points, centroids)[1])


def test_a_draw_row_filled_from_earlier_rows_has_the_bits_of_a_computed_one(monkeypatch):
    real = clustering._draw_row
    filled = []  # (the row, the row computed whole, how many of its entries were copied)

    def spy(points, idx, memo):
        row = real(points, idx, memo)
        whole = clustering._sq_distances(points, 0, points[idx : idx + 1])[0]
        filled.append((row, whole, sum(isinstance(key, int) for key in memo)))
        return row

    monkeypatch.setattr(clustering, "_draw_row", spy)
    rng = np.random.default_rng(21)
    # two groups 2e154 apart, so every distance across them overflows to inf
    side = np.where(np.arange(12)[:, None] < 6, 1e154, -1e154)
    overflowing = side + rng.standard_normal((12, 16)) * 1e153
    # rows that are not contiguous, and constant columns between varying
    # ones: both are clustered as a compressed copy
    fortran = np.asfortranarray(rng.standard_normal((10, 30)) * 1e3)
    scattered = np.insert(rng.standard_normal((10, 30)), [0, 7, 7, 19, 30], 2.5, axis=1)
    for points, k in ((overflowing, 2), (overflowing, 3), (fortran, 4), (scattered, 4)):
        filled.clear()
        fit(points, KMeansParams(k=k, seed=1))
        assert all(np.array_equal(row, whole) for row, whole, _ in filled)
        # each distinct draw is filled once, and copies from every draw before it
        assert [copied for *_, copied in filled] == list(range(len(filled)))
        assert len(filled) >= 5
        if points is overflowing:  # inf entries as well as finite ones
            assert all(np.isinf(row).any() and np.isfinite(row).any() for row, *_ in filled)
    # a draw fills its row from draw rows only: an update's row in the memo,
    # keyed by its member mask, holds distances to a mean, not to a point
    points = rng.standard_normal((6, 8))
    memo = {}
    mask = np.array([True, True, False, False, False, False])
    clustering._sq_rows(points, 0, points[mask].mean(axis=0)[None], [mask.tobytes()], memo)
    for i in (3, 0, 5, 1, 4, 2):
        row = clustering._sq_rows(points, 0, points[i : i + 1], [i], memo)[0]
        assert np.array_equal(row, clustering._sq_distances(points, 0, points[i : i + 1])[0])
    assert len(memo) == 7  # the update's row and every draw's: no draw is left out


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
        if stride > 1 and d < n:
            assert len(stacks) == 1
            assert stacks[0].shape == (clustering._N_INIT, d, n // stride)
            assert [len(run) for run in runs] == [n]
        else:
            assert stacks == []
            restarts = [len(run) for run in runs[: clustering._N_INIT]]
            assert restarts == [n // stride] * clustering._N_INIT
            assert [len(run) for run in runs[clustering._N_INIT :]] == ([] if n <= limit else [n])
        assert n // stride <= limit
        # the returned partition and inertia are the last run's, on all points
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
    fit(points, KMeansParams(k=5))  # no stride leaves 5 of 7 but 1, so no refinement
    assert stacks == []
    assert [len(run) for run in runs] == [7] * clustering._N_INIT


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


def _pixel_stack(rng, m, colours, sigma):
    """An (R, 3, m) stack of integer pixels, each plane drawn from `colours` plus rounded noise."""
    picks = rng.integers(len(colours), size=(clustering._N_INIT, m))
    noise = np.rint(rng.normal(0.0, sigma, (clustering._N_INIT, m, 3)))
    pixels = np.asarray(colours, dtype=np.float64)[picks] + noise
    return np.ascontiguousarray(pixels.swapaxes(1, 2))


def _one_restart_at_a_time(stack, k, seed):
    """Each plane's (centroids, inertia) from `_init_pp` and `_lloyd_run`, in restart order."""
    rng = np.random.default_rng(seed)
    return [
        clustering._lloyd_run(plane, 1, clustering._init_pp(plane, 1, k, rng, None), None)[:2]
        for plane in stack
    ]


def _assert_stack_runs_as_one_restart_at_a_time(stack, k, seed):
    rng = np.random.default_rng(seed)
    centroids, inertias = clustering._stacked_restarts(stack, k, rng)
    expected = _one_restart_at_a_time(stack, k, seed)
    assert centroids.shape == (clustering._N_INIT, k, stack.shape[1])
    for i, (own_centroids, own_inertia) in enumerate(expected):
        assert np.array_equal(centroids[i], own_centroids), i
        assert inertias[i] == own_inertia, i


def test_stacked_restarts_give_each_restarts_bits_on_integer_pixels(monkeypatch):
    rng = np.random.default_rng(12)
    palette = [(40, 60, 200), (210, 40, 40), (90, 200, 90), (128, 128, 128)]
    stacked, repaired = [], []
    real_nearest, real_repair = clustering._nearest, clustering._repair_empties

    def nearest(sq):
        stacked.append(sq.shape[:-2])  # the planes an assignment measures, () for one run
        return real_nearest(sq)

    def repair(points, *rest):
        repaired.append(points.shape)
        return real_repair(points, *rest)

    monkeypatch.setattr(clustering, "_nearest", nearest)
    monkeypatch.setattr(clustering, "_repair_empties", repair)
    # noisy palettes: runs that close on an update that moved nothing, after
    # different numbers of passes, so the stack shrinks as they close
    for k, m, sigma, seed in ((3, 960, 8.0, 0), (4, 1000, 20.0, 1), (6, 500, 30.0, 2)):
        stacked.clear()
        _assert_stack_runs_as_one_restart_at_a_time(_pixel_stack(rng, m, palette, sigma), k, seed)
        planes = [shape[0] for shape in stacked if shape]
        assert planes[0] == clustering._N_INIT and planes[-1] < clustering._N_INIT
    # a few colours, each repeated: k-means++ draws a colour twice, so a
    # cluster is left empty and seizes a point, in the stack and in a run alone
    repaired.clear()
    _assert_stack_runs_as_one_restart_at_a_time(_pixel_stack(rng, 300, palette[:3], 0.0), 5, 3)
    assert len(repaired) >= 2
    # integers scaled by 2**-30 keep every sum exact, and no update moves a
    # centroid further than the tolerance: each run closes after one more pass
    tiny = _pixel_stack(rng, 400, palette, 10.0) * 2.0**-30
    _assert_stack_runs_as_one_restart_at_a_time(tiny, 3, 4)
    # with a tolerance of 1, small integer coordinates often move a centroid
    # by exactly the tolerance, which closes the run too
    with monkeypatch.context() as patch:
        patch.setattr(clustering, "_TOL", 1.0)
        for seed in range(4):
            small = rng.integers(0, 7, (clustering._N_INIT, 2, 8)).astype(np.float64)
            _assert_stack_runs_as_one_restart_at_a_time(small, 2, seed)
    # the iteration cap: every run stops after at most none, one or two updates
    for cap in (0, 1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(clustering, "_MAX_ITERS", cap)
            stack = _pixel_stack(rng, 700, palette, 40.0)
            _assert_stack_runs_as_one_restart_at_a_time(stack, 4, cap)


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
    _assert_stack_runs_as_one_restart_at_a_time(stack, 2, seed)


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
    # one block's difference plus the results, never an (n, d) or (n, k, d)
    # array; the 16 KiB cover array headers and the nearest distance and
    # mask, (n,) each
    assert clustering._BLOCK_BYTES < points.nbytes
    assert peak <= clustering._BLOCK_BYTES + sq.nbytes + labels.nbytes + 16_384


def _unblocked_row_distances(points, centroids):
    """The row-layout kernel without blocks: one (n, d) difference per centroid."""
    sq = np.empty((len(centroids), len(points)))
    for j, centroid in enumerate(centroids):
        diff = points - centroid
        np.add.reduce(diff * diff, axis=1, out=sq[j])
    return sq


def test_row_distances_in_blocks_equal_one_unblocked_pass(monkeypatch):
    rng = np.random.default_rng(12)
    points = rng.standard_normal((50, 300)) * 1e3  # 2,400 bytes a row
    centroids = rng.standard_normal((5, 300))
    # 7 rows a block, so the last block holds 1 row; a block smaller than one
    # row, so one row at a time; and every row in one block
    for block_bytes in (7 * 2400, 1000, 50 * 2400):
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", block_bytes)
        for rows in (points, points[1::3]):  # and a strided subsample's view
            expected = _unblocked_row_distances(rows, centroids)
            assert np.array_equal(clustering._sq_distances(rows, 0, centroids), expected)


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
    # restarts on all points, sharing distance rows; and on every 2nd point
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
        # centroids and, with stride 1, the memo's at most n rows of n; never a
        # copy of the points, nor an (n, d) mask of one byte a coordinate,
        # 0.125× the points
        assert peak <= share * points.nbytes


def test_fit_of_all_varying_rows_gives_the_bits_of_a_contiguous_float_copy(monkeypatch):
    rng = np.random.default_rng(13)
    ints = rng.integers(-1000, 1000, (24, 40))
    floats = ints.astype(np.float64)
    assert (floats != floats[0]).any(axis=0).all()  # every column varies: the row layout
    read_only = floats.copy()
    read_only.flags.writeable = False  # a write to the points would raise
    # restarts on all points, and on every 3rd point before one refining run
    for seed_points in (clustering._SEED_POINTS, 10):
        monkeypatch.setattr(clustering, "_SEED_POINTS", seed_points)
        expected = fit(floats, KMeansParams(k=3, seed=2))
        for matrix in (read_only, np.asfortranarray(floats), ints):
            got = fit(matrix, KMeansParams(k=3, seed=2))
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert np.array_equal(read_only, floats)


def test_one_run_of_varying_columns_gives_the_bits_of_their_copy(monkeypatch):
    rng = np.random.default_rng(14)
    run = rng.standard_normal((24, 40)) * 1e3
    # constant columns before and after one run of 40 varying ones, which the
    # fit clusters as a view of the points; one more constant column inside
    # the run splits it, so that fit clusters a copy of the same 40 columns.
    # The mean of most counts of copies of 0.1 is not 0.1, so a constant
    # column clustered as a varying one would show
    viewed = np.hstack([np.full((24, 3), 0.1), run, np.full((24, 2), -7.5)])
    copied = np.insert(viewed, 20, 0.1, axis=1)
    kept = np.insert(np.ones(viewed.shape[1], dtype=bool), 20, False)
    runs = _spy_on_runs(monkeypatch)
    # restarts on all points, and on every 3rd point before one refining run;
    # each in row blocks of 5 points too, so the constant columns are found
    # across blocks
    for seed_points in (clustering._SEED_POINTS, 10):
        monkeypatch.setattr(clustering, "_SEED_POINTS", seed_points)
        for block_bytes in (clustering._BLOCK_BYTES, 5 * 8 * copied.shape[1]):
            monkeypatch.setattr(clustering, "_BLOCK_BYTES", block_bytes)
            runs.clear()
            view_fit = fit(viewed, KMeansParams(k=3, seed=2))
            assert all(np.may_share_memory(points, viewed) for points in runs)
            runs.clear()
            copy_fit = fit(copied, KMeansParams(k=3, seed=2))
            assert not any(np.may_share_memory(points, copied) for points in runs)
            assert {points.shape[1] for points in runs} == {run.shape[1]}
            assert np.array_equal(copy_fit[0][:, kept], view_fit[0])
            assert all(np.array_equal(a, b) for a, b in zip(copy_fit[1:], view_fit[1:]))
            assert np.all(view_fit[0][:, :3] == 0.1) and np.all(view_fit[0][:, -2:] == -7.5)


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
    with pytest.raises(UsageError, match=r"points must form one \(n, d\) matrix: "):  # ragged
        fit([(0.0, 0.0), (1.0, 1.0, 1.0)], KMeansParams(k=1))
    for bad in (float("nan"), float("inf"), float("-inf")):
        # NaN would become a centroid and the inertia
        with pytest.raises(UsageError, match="^points must be finite, not NaN or inf$"):
            fit([(bad, 0.0), (1.0, 1.0), (2.0, 2.0)], KMeansParams(k=2))
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
            fit(points, KMeansParams(k=1))


def test_fit_refuses_params_that_are_not_kmeans_params():
    for params, name in ((None, "NoneType"), (3, "int"), ({"k": 1}, "dict")):
        with pytest.raises(UsageError, match=f"^params must be a KMeansParams, not {name}$"):
            fit([[1.0], [2.0]], params)


def test_a_fit_that_overflows_on_the_way_but_ends_finite_is_returned():
    # restart 0 draws (3e154, 0); the other points' k-means++ weights overflow, so the
    # clamped draw repeats it, and the run's first assignment sums to inf.  It still
    # ends, as every restart here does, with every point on a centroid, and wins the tie
    points = [(-2e154, 0.0), (-2e154, 0.0), (3e154, 0.0)]
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


def test_predict_takes_finite_points_too_far_apart_for_a_float_as_infinitely_far():
    # the squared difference overflows; warnings are errors in this suite, so none is raised
    centroids = np.array([[1e154, 0.0], [0.0, 0.0]])
    assert predict(centroids, (-1e154, 0.0)) == (1, 1e154)
    assert predict(centroids[:1], (-1e154, 0.0)) == (0, math.inf)


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
