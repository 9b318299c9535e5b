"""Named-scene training and classification on top of the cluster engine."""

from dataclasses import replace

import numpy as np
import pytest

from scenefuse.errors import UsageError
from scenefuse.features import ACOUSTIC, VISUAL, FeatureVector
from scenefuse.scene_model import ScenePrediction, classify, train_classifier


def _vec(values, modality=ACOUSTIC):
    return FeatureVector(values=np.asarray(values, dtype=np.float64), modality=modality)


def _two_scene_set(noise=0.0, seed=0, modality=ACOUSTIC, dim=4):
    """Two scenes living around (0, 0, ...) and (100, 100, ...)."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(4):
        items.append(("quiet", _vec(rng.normal(0.0, noise, dim) + 0.0, modality)))
        items.append(("loud", _vec(rng.normal(0.0, noise, dim) + 100.0, modality)))
    return tuple(items)


def test_training_forces_one_cluster_per_scene():
    classifier = train_classifier(_two_scene_set(noise=1.0))
    assert classifier.model.centroids.shape == (2, 4)
    assert sorted(classifier.cluster_names) == ["loud", "quiet"]
    assert classifier.warnings == ()


def test_training_and_held_out_vectors_classify_correctly():
    classifier = train_classifier(_two_scene_set(noise=1.0))
    rng = np.random.default_rng(99)
    for _ in range(20):
        quiet = classify(classifier, _vec(rng.normal(0.0, 1.0, 4)), now=1.0)
        loud = classify(classifier, _vec(rng.normal(0.0, 1.0, 4) + 100.0), now=2.0)
        assert quiet.scene == "quiet"
        assert loud.scene == "loud"
        assert 0.0 <= quiet.confidence <= 100.0


def test_prediction_carries_timestamp_and_modality():
    classifier = train_classifier(_two_scene_set(modality=VISUAL, dim=6))
    prediction = classify(classifier, _vec([0.0] * 6, VISUAL), now=12.5)
    assert prediction.at == 12.5
    assert prediction.modality == VISUAL
    assert prediction.confidence == 100.0  # exactly on the centroid


def test_confidence_honors_the_scale_parameter():
    classifier = train_classifier(_two_scene_set(), scale=100.0)
    prediction = classify(classifier, _vec([50.0] * 4), now=0.0)
    # distance to the nearest centroid is 100 in this geometry
    assert prediction.confidence == pytest.approx(100.0 - 100.0 / 100.0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            replace(classifier, scale=bad)


def test_majority_vote_names_a_mixed_cluster():
    # one mislabeled example sits inside the other scene's cluster; majority
    # naming must shrug it off
    items = (
        ("a", _vec([0.0, 0.0])),
        ("a", _vec([1.0, 0.0])),
        ("a", _vec([0.0, 1.0])),
        ("b", _vec([100.0, 100.0])),
        ("b", _vec([101.0, 100.0])),
        ("a", _vec([100.0, 101.0])),  # stray "a" deep in b territory
    )
    classifier = train_classifier(items)
    assert sorted(classifier.cluster_names) == ["a", "b"]
    assert classify(classifier, _vec([100.5, 100.5]), now=0.0).scene == "b"


def test_identical_examples_tie_break_alphabetically_with_warning():
    items = (
        ("breeze", _vec([5.0, 5.0])),
        ("arcade", _vec([5.0, 5.0])),
    )
    classifier = train_classifier(items)
    assert classifier.warnings  # ties and duplicate names must be reported
    named = sorted(classifier.cluster_names)
    # at least one cluster resolves to "arcade" by the alphabetical rule
    assert named[0] == "arcade"
    # training never raises here; classification still works
    assert classify(classifier, _vec([5.0, 5.0]), now=0.0).scene in ("arcade", "breeze")


def test_cluster_naming_is_independent_of_example_order():
    base = _two_scene_set(noise=0.5)
    shuffled = tuple(reversed(base))
    a = train_classifier(base)
    b = train_classifier(shuffled)
    probe = _vec([99.0, 99.5, 100.0, 101.0])
    assert classify(a, probe, now=0.0).scene == classify(b, probe, now=0.0).scene == "loud"


def test_training_set_validation():
    with pytest.raises(UsageError, match="training set holds no examples"):
        train_classifier(())
    with pytest.raises(UsageError, match=r"mixed feature lengths \[2, 4\]"):
        train_classifier((("a", _vec([0.0, 1.0])), ("b", _vec([0.0, 1.0, 2.0, 3.0]))))
    with pytest.raises(UsageError, match=r"mixed modalities \['acoustic', 'visual'\]"):
        train_classifier((("a", _vec([0.0] * 6)), ("b", _vec([0.0] * 6, VISUAL))))
    with pytest.raises(ValueError):
        FeatureVector(np.zeros(6), "thermal")
    with pytest.raises(ValueError):
        FeatureVector(np.zeros((2, 2)), ACOUSTIC)  # a matrix, though its size is even
    with pytest.raises(ValueError):
        train_classifier((("", _vec([0.0, 0.0])),))
    with pytest.raises(ValueError, match="scene names cannot be empty"):  # "" names no cluster
        train_classifier([("a", _vec([0.0, 0.0]))] * 2 + [("", _vec([0.0, 0.0]))])


def test_clusters_that_share_a_name_are_reported():
    # "b" is outvoted in two well-separated clusters, so both are named "a";
    # "c" names a third cluster alone, so it shares nothing
    items = (
        [("a", _vec([0.0, 0.0]))] * 3
        + [("a", _vec([100.0, 100.0]))] * 3
        + [("b", _vec([100.0, 100.0]))]
        + [("c", _vec([-100.0, 100.0]))] * 3
    )
    classifier = train_classifier(items)
    assert sorted(classifier.cluster_names) == ["a", "a", "c"]
    assert classifier.warnings == ("clusters share scene names: ['a']",)


def test_classify_validates_modality_and_dimension():
    classifier = train_classifier(_two_scene_set())
    with pytest.raises(UsageError, match="visual features against a acoustic classifier"):
        classify(classifier, _vec([0.0] * 3, VISUAL), now=0.0)
    with pytest.raises(UsageError, match="point has 6 dims, model expects"):
        classify(classifier, _vec([0.0] * 6), now=0.0)


def test_prediction_value_bounds():
    # both ends of the range are predictions: an exact match and a query far from every centroid
    classifier = train_classifier(_two_scene_set())
    assert classify(classifier, _vec([0.0] * 4), now=0.0).confidence == 100.0
    assert classify(classifier, _vec([1e9] * 4), now=0.0).confidence == 0.0
    for value in (0.0, 100.0):
        prediction = ScenePrediction(scene="x", confidence=value, modality=ACOUSTIC, at=0.0)
        assert prediction.confidence == value
    with pytest.raises(ValueError):
        ScenePrediction(scene="x", confidence=101.0, modality=ACOUSTIC, at=0.0)
    with pytest.raises(ValueError):
        ScenePrediction(scene="x", confidence=-0.5, modality=ACOUSTIC, at=0.0)
    with pytest.raises(ValueError):
        ScenePrediction(scene="x", confidence=50.0, modality="sonar", at=0.0)
