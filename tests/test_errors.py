"""The two shared checks of `scenefuse.errors`, and every parameter they guard."""

import argparse
import re
import sys

import numpy as np
import pytest

from scenefuse import cli
from scenefuse.action_learning import ActionExample, train_actions
from scenefuse.audio_pipeline import AudioClip, synth_ambient
from scenefuse.clustering import DEFAULT_SCALE, KMeansModel, KMeansParams, confidence
from scenefuse.errors import UsageError, check_int, check_positive
from scenefuse.fusion import FusionConfig
from scenefuse.scene_model import SceneClassifier, train_classifier
from scenefuse.vision_pipeline import Image, synth_scene_image

BAND = [((100.0, 200.0), 1.0)]
SPEC = [((1, 2, 3), 1.0)]
PAIRS = [ActionExample("a", "1")]
PIXEL = np.zeros((1, 3), dtype=np.uint8)


def _classifier(seed=0, scale=DEFAULT_SCALE):
    return SceneClassifier(KMeansModel(np.zeros((1, 2)), (0.0,)), ("a",), seed, scale)


def _train_args(**flags):
    # `train` checks both flags before it reads a file, so the file need not exist
    return argparse.Namespace(scene=[["a", "absent.wav"]], **{"seed": 0, "scale": 1.0, **flags})


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
    "Image.width": (lambda v: Image(v, 1, PIXEL), 1, "width"),
    "Image.height": (lambda v: Image(1, v, PIXEL), 1, "height"),
    "synth_scene_image.width": (lambda v: synth_scene_image(SPEC, v, 4), 1, "width"),
    "synth_scene_image.height": (lambda v: synth_scene_image(SPEC, 4, v), 1, "height"),
    "cmd_train.seed": (lambda v: cli.cmd_train(_train_args(seed=v)), 0, "seed"),
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
}


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


def test_the_checks_accept_their_bounds():
    check_int(0, 0, "seed")
    check_int(10**400, 1, "k")
    for value in (5e-324, 1, sys.float_info.max):
        check_positive(value, "scale")
