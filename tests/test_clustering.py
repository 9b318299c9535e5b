"""Clustering engine: worked cases, optimality, determinism, confidence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_inertia, nearest_centroid_scan
from scenefuse.clustering import (
    KMeansParams,
    assign,
    confidence,
    fit,
    predict,
)
from scenefuse.errors import DimensionMismatch, TooFewPoints, ZeroK


def test_single_cluster_lands_on_the_mean():
    points = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]
    model, _, _ = fit(points, KMeansParams(k=1))
    assert model.centroids.tolist() == [[2.0, 0.0]]
    assert model.inertia == 8.0
    assert model.inertia_history[-1] == 8.0


def test_two_separated_pairs_split_cleanly():
    points = [(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)]
    model, _, _ = fit(points, KMeansParams(k=2, seed=0))
    got = sorted(map(tuple, model.centroids.tolist()))
    assert got == [(0.0, 0.5), (10.0, 0.5)]
    assert model.inertia == 1.0


def test_fit_is_bit_identical_per_seed():
    rng = np.random.default_rng(17)
    points = rng.uniform(0.0, 10.0, (40, 3))
    a, _, _ = fit(points, KMeansParams(k=4, seed=5))
    b, _, _ = fit(points, KMeansParams(k=4, seed=5))
    c, _, _ = fit(points, KMeansParams(k=4, seed=6))
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia_history == b.inertia_history
    # a different seed may legitimately converge to the same optimum, but
    # both runs must still be internally consistent
    assert c.inertia >= 0.0


def test_objective_never_increases_during_a_fit():
    rng = np.random.default_rng(23)
    for trial in range(5):
        points = rng.uniform(-5.0, 5.0, (30, 2))
        model, _, _ = fit(points, KMeansParams(k=3, seed=trial))
        history = model.inertia_history
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))
        assert model.inertia == history[-1]


@st.composite
def _crowded_points(draw):
    """A few integer points on a 4-wide grid, so duplicates and tied centroids abound."""
    d = draw(st.integers(1, 2))
    row = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    return np.asarray(rows, dtype=np.float64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(points=_crowded_points(), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_fit_returns_the_partition_it_scored(points, k, seed):
    k = min(k, points.shape[0])
    model, labels, sq = fit(points, KMeansParams(k=k, seed=seed))
    again_labels, again_sq = assign(points, model.centroids)
    assert np.array_equal(labels, again_labels)
    assert np.array_equal(sq, again_sq)
    assert model.inertia == sq[np.arange(points.shape[0]), labels].sum()
    history = model.inertia_history
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))


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
    model, labels, sq = fit(points, KMeansParams(k=k, seed=seed))
    wide_model, wide_labels, wide_sq = fit(wide, KMeansParams(k=k, seed=seed))
    assert np.array_equal(wide_labels, labels)
    assert np.array_equal(wide_sq, sq)
    assert wide_model.inertia_history == model.inertia_history
    assert np.array_equal(wide_model.centroids[:, kept], model.centroids)
    assert np.all(wide_model.centroids[:, ~kept] == value)
    # at most two columns vary, so the sums over them are exact in any order
    assert np.array_equal(assign(wide, wide_model.centroids)[1], wide_sq)


def test_fit_matches_exhaustive_partition_search():
    rng = np.random.default_rng(31)
    for k in (1, 2, 3):
        points = rng.uniform(0.0, 10.0, (7, 2))
        model, _, _ = fit(points, KMeansParams(k=k, seed=0))
        best = brute_force_inertia(points, k)
        assert model.inertia <= 1.05 * best + 1e-9


def test_all_identical_points_converge_with_zero_inertia():
    points = np.ones((5, 2)) * 3.0  # no column varies: fit clusters zero columns
    model, labels, sq = fit(points, KMeansParams(k=2))
    assert model.inertia == 0.0
    assert np.all(model.centroids == 3.0)
    assert labels.tolist() == [0] * 5
    assert not sq.any()
    # a mean of equal values need not be that value, nor fit in a float
    for value, n, k in ((3.205530898553695, 8, 3), (1.7e308, 3, 1)):
        model, _, _ = fit(np.full((n, 2), value), KMeansParams(k=k, seed=0))
        assert np.all(model.centroids == value)
        assert model.inertia == 0.0


def test_predict_agrees_with_a_linear_scan():
    rng = np.random.default_rng(41)
    points = rng.uniform(0.0, 10.0, (50, 4))
    model, _, _ = fit(points, KMeansParams(k=5, seed=1))
    for vec in rng.uniform(0.0, 10.0, (50, 4)):
        label, distance = predict(model, vec)
        scan_label, scan_distance = nearest_centroid_scan(vec, model.centroids)
        assert label == scan_label
        assert distance == pytest.approx(scan_distance, rel=1e-12)


def test_predict_breaks_ties_toward_the_lower_label():
    model, _, _ = fit([(0.0, 0.0), (2.0, 0.0)], KMeansParams(k=2))
    assert sorted(map(tuple, model.centroids.tolist())) == [(0.0, 0.0), (2.0, 0.0)]
    label, distance = predict(model, (1.0, 0.0))  # exactly between both centroids
    assert distance == 1.0
    sq = ((model.centroids - np.array([1.0, 0.0])) ** 2).sum(axis=1)
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
    # 16 KiB cover array headers and einsum's (n,) column before it is copied
    assert peak <= points.nbytes + sq.nbytes + labels.nbytes + 16_384


def test_fit_scratch_memory_shrinks_with_the_constant_columns():
    rng = np.random.default_rng(7)
    points = np.empty((64, 8192))
    points[:, :4096] = np.arange(4096) * 0.125  # the same in every row
    points[:, 4096:] = rng.standard_normal((64, 4096))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        model, _, _ = fit(points, KMeansParams(k=8, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(model.centroids[:, :4096] == points[0, :4096])
    # the varying half's copy plus one (n, d_varying) difference; at full
    # width the difference alone would be a whole points matrix
    assert peak <= 1.2 * points.nbytes


def test_predict_distance_is_the_square_root_of_assigns_entry():
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 1.0, (12, 8192))
    model, _, _ = fit(points, KMeansParams(k=3, seed=2))
    for vec in rng.uniform(0.0, 1.0, (5, 8192)):
        label, distance = predict(model, vec)
        labels, sq = assign(vec[None, :], model.centroids)
        assert label == int(labels[0])
        assert distance == float(np.sqrt(sq[0, label]))


def test_fit_input_validation():
    with pytest.raises(ZeroK):
        KMeansParams(k=0)
    with pytest.raises(TooFewPoints):
        fit([(0.0, 0.0)], KMeansParams(k=2))
    with pytest.raises(TooFewPoints):
        fit([], KMeansParams(k=1))
    with pytest.raises(DimensionMismatch):
        fit([(0.0, 0.0), (1.0, 1.0, 1.0)], KMeansParams(k=1))
    with pytest.raises(DimensionMismatch):  # one flat vector, not a list of points
        fit([0.0, 1.0, 2.0], KMeansParams(k=1))
    with pytest.raises(DimensionMismatch):  # points that are matrices
        fit(np.zeros((3, 2, 2)), KMeansParams(k=1))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):  # NaN would become a centroid and the inertia
            fit([(bad, 0.0), (1.0, 1.0), (2.0, 2.0)], KMeansParams(k=2))
    with pytest.raises(ValueError), np.errstate(all="ignore"):  # the mean overflows to inf
        fit([(1e308, 0.0), (1e308, 0.0), (-1e308, 0.0)], KMeansParams(k=1))


def test_predict_validates_dimensions():
    model, _, _ = fit([(0.0, 0.0), (1.0, 1.0)], KMeansParams(k=1))
    with pytest.raises(DimensionMismatch):
        predict(model, (0.0, 0.0, 0.0))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            predict(model, (bad, 0.0))


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
    with pytest.raises(ValueError):
        confidence(-1.0)
    with pytest.raises(ValueError):
        confidence(1.0, scale=-2.0)
    with pytest.raises(ValueError):
        confidence(float("nan"))
    for scale in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            confidence(1.0, scale=scale)
