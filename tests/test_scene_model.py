"""Named-scene training and classification on top of the cluster engine."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scenefuse import clustering
from scenefuse.errors import UsageError
from scenefuse.scene_model import ScenePrediction, classify, train_classifier


def _train(items, **kwargs):
    """The classifier and warnings fitted on (scene name, vector) pairs, stacked into one matrix."""
    names = [name for name, _ in items]
    classifier, _, warnings = train_classifier(names, np.array([vec for _, vec in items]), **kwargs)
    return classifier, warnings


def _two_scene_set(noise=0.0, seed=0, dim=4):
    """Two scenes living around (0, 0, ...) and (100, 100, ...)."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(4):
        items.append(("quiet", rng.normal(0.0, noise, dim) + 0.0))
        items.append(("loud", rng.normal(0.0, noise, dim) + 100.0))
    return tuple(items)


def test_training_forces_one_cluster_per_scene():
    classifier, warnings = _train(_two_scene_set(noise=1.0))
    assert classifier.centroids.shape == (2, 4)
    assert sorted(classifier.cluster_names) == ["loud", "quiet"]
    assert warnings == ()


def test_training_and_held_out_vectors_classify_correctly():
    classifier, _ = _train(_two_scene_set(noise=1.0))
    rng = np.random.default_rng(99)
    for _ in range(20):
        quiet = classify(classifier, rng.normal(0.0, 1.0, 4), now=1.0)
        loud = classify(classifier, rng.normal(0.0, 1.0, 4) + 100.0, now=2.0)
        assert quiet.scene == "quiet"
        assert loud.scene == "loud"
        assert 0.0 <= quiet.confidence <= 100.0


def test_prediction_carries_scene_confidence_and_timestamp():
    classifier, _ = _train(_two_scene_set(dim=6))
    prediction = classify(classifier, np.zeros(6), now=12.5)
    # exactly on the centroid
    assert prediction == ScenePrediction(scene="quiet", confidence=100.0, at=12.5)


def test_confidence_honors_the_scale_parameter():
    classifier, _ = _train(_two_scene_set(), scale=100.0)
    prediction = classify(classifier, np.full(4, 50.0), now=0.0)
    # distance to the nearest centroid is 100 in this geometry
    assert prediction.confidence == pytest.approx(100.0 - 100.0 / 100.0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(UsageError):
            replace(classifier, scale=bad)


def test_majority_vote_names_a_mixed_cluster():
    # one mislabeled example sits inside the other scene's cluster; majority
    # naming must shrug it off
    items = (
        ("a", [0.0, 0.0]),
        ("a", [1.0, 0.0]),
        ("a", [0.0, 1.0]),
        ("b", [100.0, 100.0]),
        ("b", [101.0, 100.0]),
        ("a", [100.0, 101.0]),  # stray "a" deep in b territory
    )
    classifier, _ = _train(items)
    assert sorted(classifier.cluster_names) == ["a", "b"]
    assert classify(classifier, np.array([100.5, 100.5]), now=0.0).scene == "b"


def test_identical_examples_tie_break_alphabetically_with_warning():
    items = (
        ("breeze", [5.0, 5.0]),
        ("arcade", [5.0, 5.0]),
    )
    classifier, warnings = _train(items)
    assert warnings  # ties and duplicate names must be reported
    named = sorted(classifier.cluster_names)
    # at least one cluster resolves to "arcade" by the alphabetical rule
    assert named[0] == "arcade"
    # training never raises here; classification still works
    assert classify(classifier, np.array([5.0, 5.0]), now=0.0).scene in ("arcade", "breeze")


def test_cluster_naming_is_independent_of_example_order():
    base = _two_scene_set(noise=0.5)
    shuffled = tuple(reversed(base))
    a, _ = _train(base)
    b, _ = _train(shuffled)
    probe = np.array([99.0, 99.5, 100.0, 101.0])
    assert classify(a, probe, now=0.0).scene == classify(b, probe, now=0.0).scene == "loud"


def test_training_set_validation():
    refusal = "names must be a non-empty tuple of non-empty str, got "
    with pytest.raises(UsageError, match=re.escape(f"{refusal}()")):
        train_classifier((), np.empty((0, 2)))
    with pytest.raises(UsageError, match=re.escape(refusal)):
        train_classifier(("",), np.zeros((1, 2)))
    with pytest.raises(UsageError, match=re.escape(refusal)):  # "" names no cluster
        train_classifier(("a", "a", ""), np.zeros((3, 2)))


def test_names_that_are_not_a_sequence_of_str_are_refused_before_the_fit(monkeypatch):
    def no_fit(*args):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(clustering, "fit", no_fit)
    message = "^names must be a non-empty tuple of non-empty str, got "
    # a str reads as one name per character; a name that is no str names nothing, and
    # names that are neither a list nor a tuple are refused, not iterated
    for names in ("ab", [5, 5], ("a", None), 5, {"a": 1, "b": 2}, iter(["a", "b"])):
        with pytest.raises(UsageError, match=message):
            train_classifier(names, np.array([[0.0], [1.0]]))


def test_training_needs_one_name_per_row():
    for names in (("a",), ("a", "b", "b")):
        with pytest.raises(UsageError, match=f"{len(names)} scene names for 2 feature rows"):
            train_classifier(names, np.array([[0.0, 0.0], [9.0, 9.0]]))


def test_clusters_that_share_a_name_are_reported():
    # "b" is outvoted in two well-separated clusters, so both are named "a";
    # "c" names a third cluster alone, so it shares nothing
    items = (
        [("a", [0.0, 0.0])] * 3
        + [("a", [100.0, 100.0])] * 3
        + [("b", [100.0, 100.0])]
        + [("c", [-100.0, 100.0])] * 3
    )
    classifier, warnings = _train(items)
    assert sorted(classifier.cluster_names) == ["a", "a", "c"]
    assert warnings == ("clusters share scene names: ['a']",)


def test_classify_validates_shape():
    # each refusal names `vector`, the parameter of classify and of the predict that checks it
    classifier, _ = _train(_two_scene_set())
    for width in (6, 3):
        message = f"vector has shape ({width},), model expects (4,)"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            classify(classifier, np.zeros(width), now=0.0)
    message = "vector must be a 1-D float64 NumPy array with no empty axis"
    for vector in (np.zeros((1, 4)), [0.0] * 4, [0.0]):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            classify(classifier, vector, now=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(UsageError, match="^vector must be finite, not NaN or inf$"):
            classify(classifier, np.array([0.0, 0.0, bad, 0.0]), now=0.0)


def test_prediction_value_bounds():
    # both ends of the range are predictions: an exact match and a query far from every centroid
    classifier, _ = _train(_two_scene_set())
    assert classify(classifier, np.zeros(4), now=0.0).confidence == 100.0
    assert classify(classifier, np.full(4, 1e9), now=0.0).confidence == 0.0
    for value in (0.0, 100.0):
        prediction = ScenePrediction(scene="x", confidence=value, at=0.0)
        assert prediction.confidence == value
    with pytest.raises(UsageError):
        ScenePrediction(scene="x", confidence=101.0, at=0.0)
    with pytest.raises(UsageError):
        ScenePrediction(scene="x", confidence=-0.5, at=0.0)


def test_training_fits_the_matrix_without_stacking_a_copy():
    # acoustic-shaped rows: one shared frequency axis, then each clip's amplitudes
    rng = np.random.default_rng(3)
    bins = 4097
    matrix = np.empty((32, 2 * bins))
    matrix[:, :bins] = np.arange(bins) * 0.5
    matrix[:, bins:] = rng.random((32, bins)) + np.repeat([0.0, 5.0], 16)[:, None]
    names = ["quiet"] * 16 + ["loud"] * 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        train_classifier(names, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the fit's copy of the varying columns and its scratch; a stacked copy
    # of the whole matrix on top would pass 1.5x
    assert peak < 1.5 * matrix.nbytes
