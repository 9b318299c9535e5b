"""Bundle serialization and event-script parsing."""

import errno
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from scenefuse import persistence
from scenefuse.action_learning import ActionExample, ActionNet, train_actions
from scenefuse.audio_pipeline import AudioClip
from scenefuse.cli import main
from scenefuse.clustering import KMeansModel, KMeansParams
from scenefuse.errors import BadVersion, IoError, SchemaError
from scenefuse.features import ACOUSTIC, VISUAL, FeatureVector
from scenefuse.fusion import FusionConfig, FusionState
from scenefuse.persistence import (
    EventScript,
    ModelBundle,
    ScriptEvent,
    format_event_script,
    load_bundle,
    load_event_script,
    parse_event_script,
    save_bundle,
)
from scenefuse.scene_model import SceneClassifier, classify, train_classifier


def _classifier(modality=ACOUSTIC, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(5):
        items.append(
            ("near", FeatureVector(rng.normal(0.0, 1.0, dim), modality))
        )
        items.append(
            ("far", FeatureVector(rng.normal(0.0, 1.0, dim) + 50.0, modality))
        )
    return train_classifier(items, seed=seed, scale=123.456)


def _full_bundle():
    net, _ = train_actions(
        [ActionExample("near", "n"), ActionExample("far", "f")], iterations=50
    )
    return ModelBundle(
        acoustic=_classifier(ACOUSTIC),
        visual=_classifier(VISUAL, dim=6, seed=1),
        action=net,
        fusion_config=FusionConfig(
            acoustic_visual_window_s=25.0,
            photo_window_s=15.0,
            photos_required=2,
            min_combined_confidence=10.5,
        ),
    )


def test_round_trip_preserves_every_float_exactly(tmp_path):
    bundle = _full_bundle()
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    again = load_bundle(path)

    assert np.array_equal(again.acoustic.model.centroids, bundle.acoustic.model.centroids)
    assert again.acoustic.model.inertia == bundle.acoustic.model.inertia
    assert again.acoustic.model.inertia_history == bundle.acoustic.model.inertia_history
    assert (again.acoustic.seed, again.acoustic.scale) == (0, 123.456)
    assert (again.visual.seed, again.visual.scale) == (1, 123.456)
    assert again.acoustic.cluster_names == bundle.acoustic.cluster_names
    assert again.acoustic.warnings == bundle.acoustic.warnings
    assert np.array_equal(again.visual.model.centroids, bundle.visual.model.centroids)
    assert np.array_equal(again.action.weights_ih, bundle.action.weights_ih)
    assert np.array_equal(again.action.weights_ho, bundle.action.weights_ho)
    assert again.action.scene_vocab == bundle.action.scene_vocab
    assert again.action.action_vocab == bundle.action.action_vocab
    assert again.fusion_config == bundle.fusion_config


def test_saved_file_is_stable_json(tmp_path):
    bundle = _full_bundle()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_bundle(bundle, first)
    save_bundle(bundle, second)
    assert first.read_bytes() == second.read_bytes()
    raw = json.loads(first.read_text(encoding="utf-8"))
    assert raw["format_version"] == 3
    assert set(raw) == {"format_version", "acoustic", "visual", "action", "fusion_config"}


def test_classification_is_identical_after_reload(tmp_path):
    bundle = ModelBundle(acoustic=_classifier())
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    again = load_bundle(path)
    rng = np.random.default_rng(77)
    for _ in range(25):
        vec = FeatureVector(rng.normal(0.0, 30.0, 4), ACOUSTIC)
        a = classify(bundle.acoustic, vec, now=0.0)
        b = classify(again.acoustic, vec, now=0.0)
        assert (a.scene, a.confidence) == (b.scene, b.confidence)


def test_empty_sections_survive_round_trip(tmp_path):
    path = tmp_path / "empty.json"
    save_bundle(ModelBundle(), path)
    again = load_bundle(path)
    assert again.acoustic is None
    assert again.visual is None
    assert again.action is None
    assert again.fusion_config == FusionConfig()


def test_unknown_version_is_refused(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    save_bundle(ModelBundle(), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    for version in (1, 2, 4):  # versions 1 and 2 are older layouts this build no longer reads
        raw["format_version"] = version
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(BadVersion):
            load_bundle(path)
        assert main(["predict", "--modality", "visual", "--bundle", str(path), "x.ppm"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: this build reads only format_version 3, not {version}\n"


def _with_unknown_keys(node):
    """`node` with a key no field has added to every object in it, at any depth."""
    if isinstance(node, dict):
        extended = {key: _with_unknown_keys(value) for key, value in node.items()}
        return {"unknown": [1, "two"], **extended}
    if isinstance(node, list):
        return [_with_unknown_keys(item) for item in node]
    return node


def test_unknown_keys_are_ignored(tmp_path):
    path = tmp_path / "bundle.json"
    save_bundle(_full_bundle(), path)
    saved = path.read_bytes()
    extended = _with_unknown_keys(json.loads(saved))
    assert extended["acoustic"]["model"]["unknown"] == [1, "two"]
    path.write_text(json.dumps(extended), encoding="utf-8")
    save_bundle(load_bundle(path), path)
    assert path.read_bytes() == saved


def test_model_types_hold_only_what_nothing_else_determines():
    def names(cls):
        return [f.name for f in fields(cls)]

    assert names(KMeansParams) == ["k", "seed"]
    assert names(KMeansModel) == ["centroids", "inertia_history"]
    assert names(SceneClassifier) == [
        "modality", "model", "cluster_names", "seed", "scale", "warnings"
    ]
    assert names(ActionNet) == ["scene_vocab", "action_vocab", "weights_ih", "weights_ho"]
    assert names(ModelBundle) == ["acoustic", "visual", "action", "fusion_config"]
    assert names(FusionState) == ["pending_acoustic", "photos", "last_at"]
    assert names(AudioClip) == ["samples", "sample_rate_hz"]
    with pytest.raises(TypeError):  # the version is save_bundle's to write
        ModelBundle(format_version=7)


def _centroid_width(slot, width):
    """Cut every centroid row of the `slot` classifier to its first `width` entries."""

    def mutate(raw):
        model = raw[slot]["model"]
        model["centroids"] = [row[:width] for row in model["centroids"]]

    return mutate


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_bundle(tmp_path / "nope.json")


def test_a_path_with_a_nul_byte_raises_io_error(tmp_path):
    path = str(tmp_path / "bun\x00dle.json")
    with pytest.raises(IoError):
        load_bundle(path)
    with pytest.raises(IoError):
        load_event_script(path)
    with pytest.raises(IoError):
        save_bundle(ModelBundle(), path)


class _FullDisk:
    """A text file that takes half of what it is given, then reports the disk full."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_write_leaves_the_previous_bundle_whole(tmp_path, monkeypatch):
    path = tmp_path / "bundle.json"
    save_bundle(_full_bundle(), path)
    before = path.read_bytes()
    plain = tmp_path / "plain"
    plain.write_text("")
    # the replacing file gets the mode a plain open would give it
    assert path.stat().st_mode == plain.stat().st_mode
    plain.unlink()

    monkeypatch.setattr(
        persistence,
        "open",
        lambda file, mode, **kwargs: _FullDisk(open(file, mode, **kwargs)),
        raising=False,
    )
    with pytest.raises(IoError, match="No space left"):
        save_bundle(replace(_full_bundle(), action=None), path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert load_bundle(path).action is not None
    assert list(tmp_path.iterdir()) == [path]  # no partial file left behind


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.pop("fusion_config"),
        lambda raw: raw.pop("acoustic"),
        lambda raw: raw["fusion_config"].__setitem__("photos_required", "three"),
        lambda raw: raw.__setitem__("acoustic", {"modality": "acoustic"}),
        # values the model itself refuses, or that would classify as nonsense
        lambda raw: raw["acoustic"]["model"]["inertia_history"].__setitem__(-1, -1.0),
        lambda raw: raw["acoustic"]["model"]["centroids"][0].__setitem__(0, float("nan")),
        lambda raw: raw["acoustic"]["model"]["inertia_history"].append(float("inf")),
        lambda raw: raw["fusion_config"].__setitem__("photo_window_s", float("nan")),
        # integers too large for a float
        lambda raw: raw["acoustic"]["model"]["inertia_history"].__setitem__(-1, 10**400),
        lambda raw: raw["acoustic"]["model"]["centroids"][0].__setitem__(0, 10**400),
        # values of the wrong JSON type are refused, never converted
        lambda raw: raw["acoustic"].__setitem__("seed", True),
        lambda raw: raw["acoustic"]["warnings"].append(7),
        lambda raw: raw["action"]["scene_vocab"].__setitem__(0, 7),
        lambda raw: raw["acoustic"].__setitem__("cluster_names", {"0": "near", "1": "far"}),
        # checks that span fields, and a value the constructor refuses
        lambda raw: raw["action"].__setitem__("weights_ih", [[0.5]]),
        lambda raw: raw["action"]["weights_ho"].pop(),
        lambda raw: raw["acoustic"]["cluster_names"].append("near"),
        lambda raw: raw["action"].pop("weights_ho"),
        lambda raw: raw["visual"].__setitem__("scale", 0.0),
        lambda raw: raw["visual"].__setitem__("modality", "acoustic"),  # the wrong slot
        # a classifier no training could produce, which could not classify
        lambda raw: raw["acoustic"]["cluster_names"].__setitem__(0, ""),
        _centroid_width("acoustic", 3),  # odd: not frequencies plus amplitudes
        _centroid_width("visual", 4),  # not whole RGB triples
        _centroid_width("visual", 0),
        # each refused by the reader's own check, before any constructor sees it
        lambda raw: raw.__setitem__("fusion_config", 5),
        lambda raw: raw["acoustic"].__setitem__("model", ["centroids", "inertia_history"]),
        lambda raw: raw["acoustic"]["model"]["inertia_history"].__setitem__(0, float("nan")),
    ],
)
def test_structural_damage_raises_schema_error(tmp_path, mutate):
    path = tmp_path / "bundle.json"
    save_bundle(_full_bundle(), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    mutate(raw)
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_bundle(path)


def test_reload_and_save_writes_the_same_bytes(tmp_path):
    bundle = _full_bundle()
    twelve = [(f"scene{i:02d}", FeatureVector(np.full(3, 20.0 * i), VISUAL)) for i in range(12)]
    bundle = replace(bundle, visual=train_classifier(twelve))
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save_bundle(bundle, first)
    save_bundle(load_bundle(first), second)
    assert first.read_bytes() == second.read_bytes()
    # names are a list in label order, so label 10 follows label 9
    names = json.loads(first.read_text(encoding="utf-8"))["visual"]["cluster_names"]
    assert names == list(bundle.visual.cluster_names)
    assert sorted(names) == [f"scene{i:02d}" for i in range(12)]


def test_types_check_what_spans_their_fields():
    classifier = _classifier()
    model = classifier.model
    with pytest.raises(ValueError):
        replace(classifier, model=replace(model, centroids=model.centroids[:1]))
    with pytest.raises(ValueError):
        replace(model, centroids=model.centroids[:0])
    with pytest.raises(ValueError):
        replace(model, inertia_history=())
    with pytest.raises(ValueError):
        replace(model, centroids=np.full_like(model.centroids, np.nan))
    with pytest.raises(ValueError):
        replace(classifier, modality="tactile")
    with pytest.raises(ValueError, match="unknown modality"):  # 9 passes the visual width rule
        replace(_classifier(VISUAL, dim=9), modality="foo")
    with pytest.raises(ValueError):
        replace(classifier, cluster_names=("near",))
    with pytest.raises(ValueError):
        replace(classifier, cluster_names=("near", "far", "far"))
    with pytest.raises(ValueError):
        ModelBundle(acoustic=_classifier(VISUAL, dim=6))  # a width both modalities allow
    net = _full_bundle().action
    with pytest.raises(ValueError):
        replace(net, weights_ih=net.weights_ih[:1])
    with pytest.raises(ValueError):
        replace(net, weights_ho=net.weights_ho.T)
    with pytest.raises(ValueError):
        replace(net, action_vocab=net.action_vocab + ("extra",))
    with pytest.raises(ValueError):
        replace(net, weights_ho=np.full_like(net.weights_ho, np.nan))


def test_truncated_json_raises_schema_error(tmp_path):
    path = tmp_path / "bundle.json"
    save_bundle(ModelBundle(), path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(SchemaError):
        load_bundle(path)
    path.write_bytes(b"[" * 100000)  # nested deeper than the JSON parser recurses
    with pytest.raises(SchemaError):
        load_bundle(path)


def test_centroid_shape_is_checked(tmp_path):
    path = tmp_path / "bundle.json"
    save_bundle(ModelBundle(acoustic=_classifier()), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["acoustic"]["model"]["centroids"] = [[1.0, 2.0]]  # one row for a k=2 model
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_bundle(path)


# --- event scripts ----------------------------------------------------------

def test_parse_event_script_with_comments_and_blanks():
    text = "\n".join(
        [
            "# rehearsal run",
            "",
            "0.0\taudio\tclip.wav",
            "5.0\timage\tshot1.ppm",
            "5.0\timage\tshot2.ppm",
            "",
        ]
    )
    script = parse_event_script(text)
    assert [e.kind for e in script.events] == ["audio", "image", "image"]
    assert script.events[0].path == "clip.wav"
    assert script.events[2].at == 5.0


def test_format_and_parse_are_inverse():
    script = EventScript(
        events=(
            ScriptEvent(at=0.0, kind="audio", path="a.wav"),
            ScriptEvent(at=5.5, kind="image", path="b.ppm"),
        )
    )
    assert parse_event_script(format_event_script(script)) == script


@pytest.mark.parametrize(
    "line",
    [
        "0.0\tvideo\tclip.mp4",       # unknown kind
        "0.0\taudio",                   # missing path
        "0.0\taudio\ta.wav\textra",    # too many fields
        "zero\taudio\ta.wav",          # unparsable timestamp
        "0.0\taudio\t",                # empty path
        "nan\taudio\ta.wav",           # timestamp that is not a number
        "inf\taudio\ta.wav",           # timestamp that never arrives
        "1.0\taudio\ta.wav\nnan\timage\tb.ppm\n0.0\timage\tc.ppm",  # nan hides a decrease
    ],
)
def test_malformed_script_lines_raise(line):
    with pytest.raises(SchemaError):
        parse_event_script(line)


def test_script_timestamps_must_not_decrease():
    text = "5.0\taudio\ta.wav\n4.0\timage\tb.ppm"
    with pytest.raises(SchemaError) as excinfo:
        parse_event_script(text)
    assert "line 2" in str(excinfo.value)


def test_load_event_script_reads_files(tmp_path):
    path = tmp_path / "script.tsv"
    path.write_text("1.5\taudio\tx.wav\n", encoding="utf-8")
    script = load_event_script(path)
    assert script.events == (ScriptEvent(at=1.5, kind="audio", path="x.wav"),)
    with pytest.raises(IoError):
        load_event_script(tmp_path / "missing.tsv")
