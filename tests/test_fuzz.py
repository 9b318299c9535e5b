"""Fuzzed file loaders and decoders: any input gives a value or a SceneFuseError, nothing else."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scenefuse.audio_pipeline import AudioClip, decode_wav, encode_wav
from scenefuse.errors import SceneFuseError
from scenefuse.persistence import (
    MODALITIES,
    load_bundle,
    load_event_script,
    load_pairs,
    save_bundle,
)
from scenefuse.scene_model import classify
from scenefuse.vision_pipeline import Image, decode_ppm, encode_ppm
from test_persistence import _edit_array, _full_bundle

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# any JSON value, including the ones Python's json module writes for nan/inf
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

SCRIPT_WORDS = ["0", "1.5", "-2", "nan", "inf", "1e999", "audio", "image", "a.wav", "", "#", " ", "\xe9"]
TSV_TEXT = st.lists(
    st.lists(st.sampled_from(SCRIPT_WORDS), max_size=4).map("\t".join), max_size=5
).map("\n".join)

VALID_WAV = encode_wav(AudioClip(samples=np.linspace(-0.5, 0.5, 12), sample_rate_hz=8000))
VALID_PPM = encode_ppm(Image(width=3, height=2, pixels=np.arange(18, dtype=np.uint8).reshape(6, 3)))


def _damaged(valid: bytes):
    """`valid` with one byte replaced, or with its tail cut off."""
    replaced = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
        lambda at: valid[: at[0]] + bytes([at[1]]) + valid[at[0] + 1 :]
    )
    return replaced | st.integers(0, len(valid) - 1).map(lambda cut: valid[:cut])


def _paths(node, prefix=()):
    """The key path of every node below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module", params=["v5"])  # one id per format version this build reads
def document(tmp_path_factory):
    """A valid bundle document, as this build saves it."""
    path = tmp_path_factory.mktemp("fuzz") / "valid.json"
    save_bundle(_full_bundle(), path)
    return json.loads(path.read_text(encoding="utf-8"))


def _returns_or_refuses(call, arg):
    try:
        call(arg)
    except SceneFuseError:
        pass


def _usable_or_refused(path):
    """A bundle `load_bundle` returns holds classifiers that can classify their own modality."""
    try:
        bundle = load_bundle(path)
    except SceneFuseError:
        return
    for classifier in (bundle.acoustic, bundle.visual):
        if classifier is not None:
            assert all(classifier.cluster_names)
            classify(classifier, np.zeros(classifier.model.dim), now=0.0)


@FUZZ
@given(data=st.data(), value=JSON_VALUES, delete=st.booleans())
def test_one_changed_bundle_node_loads_or_raises_scenefuse_error(document, tmp_path, data, value, delete):
    raw = json.loads(json.dumps(document))
    *parents, key = data.draw(st.sampled_from(sorted(_paths(raw), key=repr)))
    holder = raw
    for step in parents:
        holder = holder[step]
    if delete and isinstance(holder, dict):
        del holder[key]
    else:
        holder[key] = value
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _usable_or_refused(path)


@FUZZ
@given(
    slot=st.sampled_from(MODALITIES),
    width=st.integers(0, 8),
    label=st.integers(0, 1),
    name=st.text(max_size=2),
)
def test_reshaped_classifier_loads_usable_or_raises_scenefuse_error(
    document, tmp_path, slot, width, label, name
):
    raw = json.loads(json.dumps(document))

    def resized(centroids):  # cut to `width` entries a row, or padded with zeros
        return np.pad(centroids, ((0, 0), (0, width)))[:, :width]

    _edit_array(raw[slot]["model"], "centroids", resized)
    raw[slot]["cluster_names"][label] = name
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _usable_or_refused(path)


@FUZZ
@given(payload=st.binary(max_size=300) | TSV_TEXT.map(str.encode))
def test_arbitrary_bytes_load_or_raise_scenefuse_error(tmp_path, payload):
    path = tmp_path / "input"
    path.write_bytes(payload)
    _usable_or_refused(path)
    for load in (load_event_script, load_pairs):
        _returns_or_refuses(load, path)
    for decode in (decode_wav, decode_ppm):
        _returns_or_refuses(decode, payload)


@pytest.mark.parametrize(
    "decode, valid", [(decode_wav, VALID_WAV), (decode_ppm, VALID_PPM)], ids=["wav", "ppm"]
)
@FUZZ
@given(data=st.data())
def test_damaged_media_decode_or_raise_scenefuse_error(decode, valid, data):
    decode(valid)
    _returns_or_refuses(decode, data.draw(_damaged(valid)))
