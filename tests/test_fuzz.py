"""Fuzzed file loaders, decoders and checked parameters: any input gives a value or a
SceneFuseError, nothing else."""

import json
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scenefuse.audio_pipeline import AudioClip, decode_wav, encode_wav
from scenefuse.clustering import KMeansParams, fit, predict
from scenefuse.errors import InputError, SceneFuseError
from scenefuse.persistence import (
    MODALITIES,
    load_bundle,
    load_event_script,
    load_pairs,
    save_bundle,
)
from scenefuse.scene_model import classify
from scenefuse.vision_pipeline import Image, decode_ppm, encode_ppm
from test_errors import ARRAY_SITES, FLOAT_SITES, INT_SITES, RANGE_SITES
from test_persistence import (
    _edit_array,
    _full_bundle,
    _packed,
    _read_document,
    _unpacked,
    _write_document,
)

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


class _LongInt(NamedTuple):
    """sign · 10**exponent, drawn in this form because Hypothesis cannot print an
    int past 4,300 digits when it reports a failing example; `_built` makes the int."""

    sign: int
    exponent: int


def _built(value):
    """`value` with every `_LongInt` in it made into its int."""
    if isinstance(value, _LongInt):
        return value.sign * 10**value.exponent
    if isinstance(value, list):
        return [_built(item) for item in value]
    return value


# what a caller might pass where a number belongs: ints up to ±10**5000 too,
# about half of those past the 4,300 digits that `str` refuses to write
NUMBER_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=3)
    | st.integers()
    | st.builds(_LongInt, st.sampled_from((-1, 1)), st.integers(0, 5000) | st.integers(4300, 5000))
    | st.floats()
    | st.floats().map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64),
    lambda inner: st.lists(inner, max_size=2),
    max_leaves=3,
)

# each entry starts with its call
SITES = {**INT_SITES, **FLOAT_SITES, **RANGE_SITES, **ARRAY_SITES}

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


@pytest.fixture(scope="module", params=["v7"])  # one id per format version this build reads
def document(tmp_path_factory):
    """The header and payload of a valid bundle, as this build saves it."""
    path = tmp_path_factory.mktemp("fuzz") / "valid.json"
    save_bundle(_full_bundle(), path)
    return _read_document(path)


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
            classify(classifier, np.zeros(classifier.centroids.shape[1]), now=0.0)


@FUZZ
@given(data=st.data(), value=JSON_VALUES, delete=st.booleans())
def test_one_changed_bundle_node_loads_or_raises_scenefuse_error(document, tmp_path, data, value, delete):
    header, payload = document
    raw = json.loads(json.dumps(header))
    *parents, key = data.draw(st.sampled_from(sorted(_paths(raw), key=repr)))
    holder = raw
    for step in parents:
        holder = holder[step]
    if delete and isinstance(holder, dict):
        del holder[key]
    else:
        holder[key] = value
    path = tmp_path / "bundle.json"
    _write_document(path, raw, payload)
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
    header, payload = document
    raw = _unpacked(json.loads(json.dumps(header)), payload)

    def resized(centroids):  # cut to `width` entries a row, or padded with zeros
        return np.pad(centroids, ((0, 0), (0, width)))[:, :width]

    _edit_array(raw[slot], "centroids", resized)
    raw[slot]["cluster_names"][label] = name
    path = tmp_path / "bundle.json"
    _write_document(path, raw, _packed(raw))
    _usable_or_refused(path)


# the bytes of a float64 entry that no classifier or net may hold, and of two that any may
ENTRIES = [np.array(value, "<f8").tobytes() for value in (np.nan, np.inf, -np.inf, 0.0, -1e308)]


@FUZZ
@given(data=st.data(), edit=st.sampled_from(["truncate", "extend", "overwrite"]))
def test_a_damaged_payload_loads_usable_or_raises_scenefuse_error(document, tmp_path, data, edit):
    header, payload = document
    entry = st.integers(0, len(payload) // 8).map(lambda i: 8 * i)
    at = data.draw(st.integers(0, len(payload)) | entry)  # any byte, or an entry's first
    patch = data.draw(st.sampled_from(ENTRIES) | st.binary(min_size=1, max_size=16))
    damaged = {
        "truncate": payload[:at],
        "extend": payload[:at] + patch + payload[at:],
        "overwrite": (payload[:at] + patch + payload[at + len(patch) :])[: len(payload)],
    }[edit]
    path = tmp_path / "bundle.json"
    _write_document(path, header, damaged)
    if len(damaged) != len(payload):  # every byte belongs to one array: no other length loads
        with pytest.raises(InputError):
            load_bundle(path)
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


@settings(FUZZ, max_examples=400)
@given(site=st.sampled_from(sorted(SITES)), value=NUMBER_LIKE)
def test_a_checked_parameter_gives_a_value_or_a_scenefuse_error(site, value):
    number = _built(value)
    # a large count or duration that is valid asks for work, not a refusal, so none is drawn
    if site in INT_SITES:
        assume(not (type(number) is int and number >= INT_SITES[site][1]))
    if site in FLOAT_SITES:
        assume(not (type(number) in (int, float) and 64 < number <= sys.float_info.max))
    _returns_or_refuses(SITES[site][0], number)


# any number NumPy may meet as a coordinate: ints past every float, NaN and inf, and
# complex numbers, whose cast to a float would drop the imaginary part
ANY_NUMBER = st.integers() | st.floats() | st.complex_numbers()


@FUZZ
@given(
    points=st.lists(st.lists(ANY_NUMBER, min_size=2, max_size=2), min_size=1, max_size=4)
    | arrays(st.sampled_from(["i8", "f8", "c16"]), st.tuples(st.integers(1, 4), st.just(2)))
)
def test_any_numbers_fit_and_predict_or_raise_scenefuse_error(points):
    _returns_or_refuses(lambda v: fit(v, KMeansParams(k=1)), points)
    _returns_or_refuses(lambda v: predict(np.zeros((1, 2)), v), points[0])
