"""The three shared checks of `scenefuse.errors`, and every parameter they guard."""

import argparse
import math
import re
import sys

import numpy as np
import pytest

from scenefuse import cli
from scenefuse.action_learning import ActionExample, ActionNet, train_actions
from scenefuse.audio_pipeline import AudioClip, synth_ambient
from scenefuse.clustering import DEFAULT_SCALE, KMeansParams, confidence, fit, predict
from scenefuse.errors import UsageError, check_array_size, check_int, check_positive, check_range
from scenefuse.fusion import FusionConfig
from scenefuse.persistence import ScriptEvent
from scenefuse.scene_model import SceneClassifier, ScenePrediction, train_classifier
from scenefuse.vision_pipeline import Image, dominant_colors, synth_scene_image

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


# what a float64 matrix site refuses: no array, an array of ints, complex numbers or
# text, and arrays of one or three axes
NOT_FLOAT_MATRICES = [
    None, [[0.0]], np.zeros((1, 1), int), np.zeros((1, 1), complex), np.array([["x"]]),
    np.zeros(1), np.zeros((1, 1, 1)),
]
# call site: (a call with the value in question, the values it refuses, its refusal)
ARRAY_SITES = {
    "train_classifier.matrix": (
        lambda v: train_classifier(["a"], v),
        [None, [[0.0, 1.0]], np.float64(0.0), np.zeros(2), np.zeros((1, 1, 2))],
        "matrix must be an (n, d) NumPy array of feature rows",
    ),
    "predict.centroids": (
        lambda v: predict(v, [0.0]),
        [None, [[0.0]], np.zeros(1), np.zeros((0, 1)), np.zeros((1, 1), int), np.zeros((1, 1, 1))],
        "centroids must be a (k, d) float64 NumPy array with k >= 1",
    ),
    "ActionNet.weights_ih": (
        lambda v: ActionNet(("a",), ("1",), v, np.zeros((1, 1))),
        NOT_FLOAT_MATRICES,
        "weights_ih must be a (scenes, hidden) float64 NumPy array",
    ),
    "ActionNet.weights_ho": (
        lambda v: ActionNet(("a",), ("1",), np.zeros((1, 1)), v),
        NOT_FLOAT_MATRICES,
        "weights_ho must be a (hidden, actions) float64 NumPy array",
    ),
}


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_every_array_argument_must_be_a_numpy_array_of_its_shape(site):
    call, refused, refusal = ARRAY_SITES[site]
    for value in refused:
        with pytest.raises(UsageError, match=f"^{re.escape(refusal)}$"):
            call(value)


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


def test_complex_values_are_refused_not_cast():
    # a cast to float64 would drop each imaginary part with only a ComplexWarning, and a
    # complex number in a list would raise a builtin TypeError
    matrix = re.escape("points must form one (n, d) matrix: ")
    point = re.escape("point must be a vector of real numbers: ")
    complex_values, too_large = "got complex values", "int too large to convert to float"
    one, centroids = KMeansParams(k=1), np.zeros((1, 1))
    for call, message in (
        (lambda: fit([[1j], [2j]], one), matrix + complex_values),
        (lambda: fit(np.array([[1.0], [2.0 + 0j]]), one), matrix + complex_values),
        (lambda: train_classifier(["a", "b"], np.array([[1.0], [1j]])), matrix + complex_values),
        (lambda: predict(centroids, [1j]), point + complex_values),
        (lambda: predict(centroids, np.array([0j])), point + complex_values),
        # a complex entry among other objects, and an int past any float: NumPy's reason
        (lambda: fit([[1j, None]], one), matrix + r"float\(\) argument .*'complex'"),
        (lambda: fit([[10**400]], one), matrix + too_large),
        (lambda: predict(centroids, [10**400]), point + too_large),
    ):
        with pytest.raises(UsageError, match=f"^{message}$"):
            call()
