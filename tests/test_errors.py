"""The seven shared checks of `scenefuse.errors`, and every parameter they guard."""

import argparse
import math
import re
import sys

import numpy as np
import pytest

from scenefuse import cli
from scenefuse.action_learning import ActionExample, ActionNet, encode_onehot, train_actions
from scenefuse.audio_pipeline import AudioClip, synth_ambient
from scenefuse.clustering import DEFAULT_SCALE, KMeansParams, confidence, fit, predict
from scenefuse.errors import UsageError, check_array_size, check_int, check_positive, check_range
from scenefuse.fusion import FusionConfig
from scenefuse.persistence import ScriptEvent
from scenefuse.scene_model import SceneClassifier, ScenePrediction, train_classifier
from scenefuse.vision_pipeline import Image, dominant_colors, palette_features, synth_scene_image

BAND = [((100.0, 200.0), 1.0)]
SPEC = [((1, 2, 3), 1.0)]
PAIRS = [ActionExample("a", "1")]
PIXEL = np.zeros((1, 3), dtype=np.uint8)


def _classifier(seed=0, scale=DEFAULT_SCALE):
    return SceneClassifier(np.zeros((1, 2)), ("a",), seed, scale)


def _image_with_fraction(fraction):
    """A 4x4 image of two colours, the first covering `fraction`, the second the rest, if any."""
    rest = 1.0 - fraction if type(fraction) in (int, float) and 0 <= fraction <= 1 else 0.0
    return synth_scene_image([((1, 2, 3), fraction), ((4, 5, 6), rest)], 4, 4)


def _train_args(**flags):
    # `train` checks its flags before it reads a file, so with good flags it stops at the
    # missing file, with InputError
    return argparse.Namespace(
        scene=[["a", "absent.wav"]], modality="acoustic",
        **{"seed": 0, "scale": 1.0, "k_override": None, **flags},
    )


# call site: (a call with the value in question, the lowest int it takes, the name it refuses)
INT_SITES = {
    "KMeansParams.k": (lambda v: KMeansParams(k=v), 1, "k"),
    "KMeansParams.seed": (lambda v: KMeansParams(k=1, seed=v), 0, "seed"),
    "SceneClassifier.seed": (lambda v: _classifier(seed=v), 0, "seed"),
    "train_classifier.seed": (lambda v: train_classifier(["a"], np.zeros((1, 2)), v), 0, "seed"),
    "train_actions.iterations": (lambda v: train_actions(PAIRS, v), 1, "iterations"),
    "train_actions.hidden_size": (
        lambda v: train_actions(PAIRS, 1, hidden_size=v), 1, "hidden_size"
    ),
    "train_actions.seed": (lambda v: train_actions(PAIRS, 1, seed=v), 0, "seed"),
    "synth_ambient.components_per_band": (
        lambda v: synth_ambient(BAND, 0.01, 8000, 0, v), 1, "components_per_band"
    ),
    "synth_ambient.seed": (lambda v: synth_ambient(BAND, 0.01, 8000, v), 0, "seed"),
    "synth_ambient.rate": (lambda v: synth_ambient(BAND, 0.01, v, 0), 1, "rate"),
    "AudioClip.sample_rate_hz": (lambda v: AudioClip(np.zeros(4), v), 1, "sample_rate_hz"),
    "FusionConfig.photos_required": (
        lambda v: FusionConfig(photos_required=v), 1, "photos_required"
    ),
    # `fit` names its cluster count k
    "dominant_colors.c": (lambda v: dominant_colors(Image(1, 1, PIXEL), v), 1, "k"),
    "Image.width": (lambda v: Image(v, 1, PIXEL), 1, "width"),
    "Image.height": (lambda v: Image(1, v, PIXEL), 1, "height"),
    "synth_scene_image.width": (lambda v: synth_scene_image(SPEC, v, 4), 1, "width"),
    "synth_scene_image.height": (lambda v: synth_scene_image(SPEC, 4, v), 1, "height"),
    "cmd_train.seed": (lambda v: cli.cmd_train(_train_args(seed=v)), 0, "seed"),
    "cmd_train.k_override": (
        lambda v: cli.cmd_train(_train_args(k_override=v)), 1, "--k-override"
    ),
    "cmd_synth_matrix.trials": (
        lambda v: cli.cmd_synth_matrix(argparse.Namespace(trials=v)), 1, "--trials"
    ),
}

# call site: (a call with the value in question, the name it refuses)
FLOAT_SITES = {
    "SceneClassifier.scale": (lambda v: _classifier(scale=v), "scale"),
    "confidence.scale": (lambda v: confidence(1.0, v), "scale"),
    "cmd_train.scale": (lambda v: cli.cmd_train(_train_args(scale=v)), "scale"),
    "FusionConfig.acoustic_visual_window_s": (
        lambda v: FusionConfig(acoustic_visual_window_s=v), "acoustic_visual_window_s"
    ),
    "FusionConfig.photo_window_s": (lambda v: FusionConfig(photo_window_s=v), "photo_window_s"),
    "synth_ambient.seconds": (lambda v: synth_ambient(BAND, v, 8000, 0), "seconds"),
    "train_actions.learning_rate": (
        lambda v: train_actions(PAIRS, 1, learning_rate=v), "learning_rate"
    ),
}

MAX = sys.float_info.max

# call site: (a call with the value in question, the start of its refusal, its lowest and
# highest accepted values)
RANGE_SITES = {
    "ScenePrediction.confidence": (
        lambda v: ScenePrediction("a", v, 0.0),
        "confidence must be a number in [0.0, 100.0]",
        0,
        100,
    ),
    "ScenePrediction.at": (
        lambda v: ScenePrediction("a", 50.0, v), "at must be a number in [-max, max]", -MAX, MAX
    ),
    "FusionConfig.min_combined_confidence": (
        lambda v: FusionConfig(min_combined_confidence=v),
        "min_combined_confidence must be a number in [0.0, 100.0]",
        0,
        100,
    ),
    "synth_ambient.gain": (
        lambda v: synth_ambient([((100.0, 200.0), v)], 0.01, 8000, 0),
        "gain must be a number in [0.0, max]",
        0,
        MAX,
    ),
    "synth_ambient.low_hz": (
        lambda v: synth_ambient([((v, 4000.0), 1.0)], 0.01, 8000, 0),
        "low_hz must be a number in [0.0, 4000.0]",
        0,
        4000,
    ),
    "synth_ambient.high_hz": (
        lambda v: synth_ambient([((100.0, v), 1.0)], 0.01, 8000, 0),
        "high_hz must be a number in [100.0, 4000.0]",
        100,
        4000,
    ),
    "synth_scene_image.fraction": (
        _image_with_fraction, "fraction must be a number in [0.0, 1.0]", 0, 1
    ),
    # far apart finite points overflow to an infinite distance, which scores 0
    "confidence.distance": (
        lambda v: confidence(v, 1.0), "distance must be a number in [0.0, inf]", 0, math.inf
    ),
    "ScriptEvent.at": (
        lambda v: ScriptEvent(v, "audio", "a.wav"),
        "timestamp must be a number in [-max, max]",
        -MAX,
        MAX,
    ),
}


def _site(call, good, refused, refusal):
    """An `ARRAY_SITES` entry that also refuses one value per condition `check_array` tests."""
    other = np.float32 if good.dtype == np.float64 else np.float64
    # not an array, another dtype, one axis more, an empty last axis: each breaks `good` alone
    misfits = [good.tolist(), good.astype(other), good[..., None], good[..., :0]]
    return call, good, misfits + refused, refusal


ONE = np.zeros((1, 1))
# call site: (a call with the value in question, a value it accepts, the values it refuses,
# its refusal)
ARRAY_SITES = {
    "ActionNet.weights_ih": _site(
        lambda v: ActionNet(("a",), ("1",), v, ONE), ONE, [None, np.array([["x"]])],
        "weights_ih must be a 2-D float64 NumPy array with no empty axis",
    ),
    "ActionNet.weights_ho": _site(
        lambda v: ActionNet(("a",), ("1",), ONE, v), ONE, [np.zeros((1, 1), int), np.zeros(1)],
        "weights_ho must be a 2-D float64 NumPy array with no empty axis",
    ),
    "AudioClip.samples": _site(
        lambda v: AudioClip(v, 8000), np.zeros(4), [[0.0, 0.5], np.zeros(())],
        "samples must be a 1-D float64 NumPy array with no empty axis",
    ),
    # a vector as wide as the centroids: with none, it would be 0 from the first, label 0
    "predict.centroids": _site(
        lambda v: predict(v, np.zeros(np.shape(v)[1:2])), ONE,
        [None, np.zeros((0, 1)), np.zeros((1, 1), int)],
        "centroids must be a 2-D float64 NumPy array with no empty axis",
    ),
    "SceneClassifier.centroids": _site(
        lambda v: SceneClassifier(v, ("a",), 0, 1.0), ONE, [np.zeros((1, 4), dtype=np.int64)],
        "centroids must be a 2-D float64 NumPy array with no empty axis",
    ),
    # no array is cast: not a complex one, nor the int ones `cmd_train` never builds
    "train_classifier.matrix": _site(
        lambda v: train_classifier(["a"], v), ONE,
        [None, np.float64(0.0), np.zeros((1, 1), complex), np.zeros((1, 1), int)],
        "matrix must be a 2-D float64 NumPy array with no empty axis",
    ),
    "Image.pixels": _site(
        lambda v: Image(1, 1, v), PIXEL, [np.array([[300, 0, 0]]), np.array([[255, 0, 0]])],
        "pixels must be a 2-D uint8 NumPy array with no empty axis",
    ),
    "palette_features.colors": _site(
        palette_features, np.zeros((1, 3)), [[[1, 2, 3]]],
        "colors must be a 2-D float64 NumPy array with no empty axis",
    ),
    # a complex cast would drop each imaginary part, and an int past any float has no cast
    "fit.points": _site(
        lambda v: fit(v, KMeansParams(k=1)), np.zeros((1, 2)),
        [None, 1, [[1j], [2j]], np.array([[1.0], [2.0 + 0j]]), [[10**400]], np.zeros((1, 1), int)],
        "points must be a 2-D float64 NumPy array with no empty axis",
    ),
    "predict.vector": _site(
        lambda v: predict(ONE, v), np.zeros(1), [None, (0.0,), [1j], np.array([0j]), [10**400]],
        "vector must be a 1-D float64 NumPy array with no empty axis",
    ),
}

TEXT = [None, 5, "", b"a"]
# a str would read as one name per character; a tuple needs at least one name
TEXTS = [None, 5, "", "ab", ("a", ""), ("a", None), ()]
# what training stores is a tuple, and a bundle decodes one, so a list is refused too
STORED = TEXTS + [["a"]]
# call site: (a call with the value in question, a value it accepts, the values it refuses,
# its refusal)
TEXT_SITES = {
    "ActionExample.scene_label": (
        lambda v: ActionExample(v, "1"), "a", TEXT, "scene label must be a non-empty str"
    ),
    "ActionExample.action_code": (
        lambda v: ActionExample("a", v), "1", TEXT, "action code must be a non-empty str"
    ),
    "ScenePrediction.scene": (
        lambda v: ScenePrediction(v, 50.0, 0.0), "a", TEXT, "scene must be a non-empty str"
    ),
    "ActionNet.scene_vocab": (
        lambda v: ActionNet(v, ("1",), ONE, ONE), ("a",), STORED,
        "scene_vocab must be a non-empty tuple of non-empty str",
    ),
    "ActionNet.action_vocab": (
        lambda v: ActionNet(("a",), v, ONE, ONE), ("1",), STORED,
        "action_vocab must be a non-empty tuple of non-empty str",
    ),
    "SceneClassifier.cluster_names": (
        lambda v: SceneClassifier(ONE, v, 0, 1.0), ("a",), STORED,
        "cluster_names must be a non-empty tuple of non-empty str",
    ),
    "encode_onehot.vocab": (
        lambda v: encode_onehot("a", v), ("a",), STORED,
        "vocab must be a non-empty tuple of non-empty str",
    ),
    # a list of names is read as a tuple
    "train_classifier.names": (
        lambda v: train_classifier(v, ONE), ["a"], TEXTS,
        "names must be a non-empty tuple of non-empty str",
    ),
}


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_every_array_argument_must_be_a_numpy_array_of_its_shape(site):
    call, good, refused, refusal = ARRAY_SITES[site]
    call(good)
    for value in refused:
        with pytest.raises(UsageError, match=f"^{re.escape(refusal)}$"):
            call(value)


@pytest.mark.parametrize("site", TEXT_SITES)
def test_every_label_and_name_must_be_non_empty_text(site):
    call, good, refused, refusal = TEXT_SITES[site]
    call(good)
    for value in refused:
        with pytest.raises(UsageError, match=f"^{re.escape(f'{refusal}, got {value!r}')}$"):
            call(value)


def test_calls_that_raised_a_builtin_error_on_a_wrong_type_refuse_it():
    for call in (
        lambda: train_classifier(5, ONE),
        lambda: train_classifier({"a": 1}, ONE),
        lambda: train_classifier(iter(["a"]), ONE),
        lambda: synth_scene_image(5, 2, 2),
        lambda: synth_scene_image([((1, 2, 3),)], 2, 2),
        lambda: encode_onehot("a", 5),
    ):
        with pytest.raises(UsageError):
            call()


@pytest.mark.parametrize("site", INT_SITES)
def test_every_count_seed_and_size_must_be_an_int_of_at_least_its_bound(site):
    call, low, name = INT_SITES[site]
    # a bool is an int to Python and a NumPy int is not one; both are refused
    for value in (2.5, True, low - 1, np.int64(low)):
        message = f"{name} must be an int of at least {low}, got {value!r}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize("site", FLOAT_SITES)
def test_every_scale_window_and_duration_must_be_a_finite_number_above_zero(site):
    call, name = FLOAT_SITES[site]
    # 10**400 is finite as an int but overflows every float it meets
    for value in ("10", None, True, 0, -1.0, float("nan"), float("inf"), 10**400):
        message = f"{name} must be a finite number above 0, got {value!r}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize("site", RANGE_SITES)
def test_every_bounded_number_must_be_an_int_or_float_in_its_range(site):
    call, refusal, low, high = RANGE_SITES[site]
    # an int too large for a float is refused even below an infinite bound
    refused = ["5", None, True, float("nan"), np.float64(low), [low], 10**400, -(10**400)]
    refused += [math.nextafter(low, -math.inf), math.nextafter(high, math.inf), -math.inf, math.inf]
    for value in refused:
        if value == high == math.inf:
            continue
        with pytest.raises(UsageError, match=f"^{re.escape(f'{refusal}, got {value!r}')}$"):
            call(value)
    call(low)
    call(high)


def test_the_checks_accept_their_bounds():
    check_int(0, 0, "seed")
    check_int(10**400, 1, "k")
    for value in (5e-324, 1, sys.float_info.max):
        check_positive(value, "scale")
    # the range site tests pin each site's own bounds
    for value in (-MAX, -int(MAX), 0, 1.5, int(MAX), MAX):
        check_range(value, "x")
    check_array_size(sys.maxsize, 1, "n")
    assert confidence(math.inf, 1.0) == 0.0 and confidence(0.0, 1.0) == 100.0
    FusionConfig(acoustic_visual_window_s=5.0, photo_window_s=5.0)


def test_the_photo_window_lies_within_the_acoustic_window():
    longer = math.nextafter(5.0, math.inf)
    message = f"photo_window_s must be a number in [0.0, 5.0], got {longer!r}"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        FusionConfig(acoustic_visual_window_s=5.0, photo_window_s=longer)


def test_an_int_too_long_to_write_out_is_refused_all_the_same():
    # Python writes no int of over 4,300 digits in decimal, so the message does not either
    huge = "<int too long to write out>"
    for call, message in (
        (lambda: KMeansParams(k=-(10**5000)), f"k must be an int of at least 1, got {huge}"),
        (
            lambda: check_positive(10**5000, "scale"),
            f"scale must be a finite number above 0, got {huge}",
        ),
        (lambda: check_range(10**5000, "at"), f"at must be a number in [-max, max], got {huge}"),
        (
            lambda: check_range([10**5000], "at"),
            "at must be a number in [-max, max], got <list too long to write out>",
        ),
    ):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            call()


def test_a_count_too_large_for_a_numpy_array_is_refused_before_any_is_made():
    # NumPy refuses an array of more than sys.maxsize bytes with a builtin ValueError or
    # OverflowError; each count that sizes one is refused first, by name
    limit = sys.maxsize
    for call, name, count in (
        (lambda: synth_ambient(BAND, 0.01, 8000, 0, 10**20), "components_per_band", 10**20),
        (lambda: synth_ambient(BAND, 0.01, 8000, 0, limit // 8 + 1), "components_per_band",
         limit // 8 + 1),
        (lambda: train_actions(PAIRS, 1, hidden_size=10**20), "hidden_size", 10**20),
        (lambda: synth_scene_image(SPEC, 10**10, 10**10), "width * height", 10**20),
        (lambda: check_array_size(limit + 1, 1, "n"), "n", limit + 1),
    ):
        message = f"{name} must fit an array in {limit} bytes, got {count}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            call()

