"""Bundle serialization and event-script parsing."""

import base64
import errno
import json
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from scenefuse import persistence
from scenefuse.action_learning import ActionExample, ActionNet, train_actions
from scenefuse.audio_pipeline import AudioClip
from scenefuse.cli import main
from scenefuse.clustering import KMeansModel, KMeansParams
from scenefuse.errors import InputError, UsageError
from scenefuse.fusion import FusionState
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


def _classifier(dim=4, seed=0):
    rng = np.random.default_rng(seed)
    matrix = np.empty((10, dim))
    for i in range(5):
        matrix[2 * i] = rng.normal(0.0, 1.0, dim)
        matrix[2 * i + 1] = rng.normal(0.0, 1.0, dim) + 50.0
    classifier, _ = train_classifier(("near", "far") * 5, matrix, seed=seed, scale=123.456)
    return classifier


def _full_bundle():
    net, _ = train_actions(
        [ActionExample("near", "n"), ActionExample("far", "f")], iterations=50
    )
    return ModelBundle(
        acoustic=_classifier(),
        visual=_classifier(dim=6, seed=1),
        action=net,
    )


def _array(node) -> np.ndarray:
    """The array a bundle's array node holds, as a writeable copy."""
    data = base64.b64decode(node["base64"])
    return np.frombuffer(data, "<f8").reshape(node["shape"]).copy()


def _node(array) -> dict:
    """The array node a bundle holds for `array`: its shape and its little-endian float64 bytes."""
    data = np.asarray(array, "<f8").tobytes()
    return {"shape": list(np.shape(array)), "base64": base64.b64encode(data).decode("ascii")}


def _edit_array(holder, key, edit):
    """Replace the array node `holder[key]` with the node of `edit` of its array."""
    holder[key] = _node(edit(_array(holder[key])))


def _set_entry(holder, key, index, value):
    """Set entry `index` of the array in the node `holder[key]` to `value`."""

    def edit(array):
        array[index] = value
        return array

    _edit_array(holder, key, edit)


def test_round_trip_preserves_every_float_exactly(tmp_path):
    bundle = _full_bundle()
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    again = load_bundle(path)

    def arrays(b):
        return [
            b.acoustic.model.centroids, b.visual.model.centroids, b.action.weights_ih, b.action.weights_ho
        ]

    for got, saved in zip(arrays(again), arrays(bundle)):
        assert got.shape == saved.shape
        assert got.tobytes() == saved.tobytes()
        assert got.dtype == np.float64 and got.flags.writeable
    assert again.acoustic.model.inertia == bundle.acoustic.model.inertia
    assert again.acoustic.model.inertia_history == bundle.acoustic.model.inertia_history
    assert (again.acoustic.seed, again.acoustic.scale) == (0, 123.456)
    assert (again.visual.seed, again.visual.scale) == (1, 123.456)
    assert again.acoustic.cluster_names == bundle.acoustic.cluster_names
    assert again.action.scene_vocab == bundle.action.scene_vocab
    assert again.action.action_vocab == bundle.action.action_vocab


def test_saved_file_is_stable_json(tmp_path):
    bundle = _full_bundle()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_bundle(bundle, first)
    save_bundle(bundle, second)
    assert first.read_bytes() == second.read_bytes()
    raw = json.loads(first.read_text(encoding="utf-8"))
    assert raw["format_version"] == 5
    assert set(raw) == {"format_version", "acoustic", "visual", "action"}
    centroids = raw["acoustic"]["model"]["centroids"]
    assert _node(bundle.acoustic.model.centroids) == centroids


def test_classification_is_identical_after_reload(tmp_path):
    bundle = ModelBundle(acoustic=_classifier())
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    again = load_bundle(path)
    rng = np.random.default_rng(77)
    for _ in range(25):
        vec = rng.normal(0.0, 30.0, 4)
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


def test_unknown_version_is_refused(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    save_bundle(ModelBundle(), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    for version in (1, 2, 3, 4, 6):  # versions 1 to 4 are older layouts this build no longer reads
        raw["format_version"] = version
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(InputError, match="reads only format_version 5"):
            load_bundle(path)
        assert main(["predict", "--modality", "visual", "--bundle", str(path), "x.ppm"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: this build reads only format_version 5, not {version}\n"


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
    assert names(SceneClassifier) == ["model", "cluster_names", "seed", "scale"]
    assert names(ActionNet) == ["scene_vocab", "action_vocab", "weights_ih", "weights_ho"]
    assert names(ModelBundle) == ["acoustic", "visual", "action"]
    assert names(FusionState) == ["pending_acoustic", "photos", "last_at"]
    assert names(AudioClip) == ["samples", "sample_rate_hz"]
    with pytest.raises(TypeError):  # the version is save_bundle's to write
        ModelBundle(format_version=7)


def _centroid_width(slot, width):
    """Cut every centroid row of the `slot` classifier to its first `width` entries."""

    def mutate(raw):
        _edit_array(raw[slot]["model"], "centroids", lambda centroids: centroids[:, :width])

    return mutate


def _no_vocabulary(vocab, weights, edit):
    """A damage that empties the action net's `vocab`, with `edit` cutting `weights` to fit."""

    def damage(raw):
        raw["action"][vocab] = []
        _edit_array(raw["action"], weights, edit)

    return damage


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(InputError, match="cannot read bundle .*nope.json"):
        load_bundle(tmp_path / "nope.json")


def test_a_path_with_a_nul_byte_raises_io_error(tmp_path):
    path = str(tmp_path / "bun\x00dle.json")
    with pytest.raises(InputError, match="cannot read bundle .*embedded null byte"):
        load_bundle(path)
    with pytest.raises(InputError, match="cannot read event script .*embedded null byte"):
        load_event_script(path)
    with pytest.raises(InputError, match="cannot write bundle .*embedded null byte"):
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
    with pytest.raises(InputError, match="cannot write bundle .*No space left"):
        save_bundle(replace(_full_bundle(), action=None), path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert load_bundle(path).action is not None
    assert list(tmp_path.iterdir()) == [path]  # no partial file left behind


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.pop("action"),
        lambda raw: raw.pop("acoustic"),
        lambda raw: raw["visual"].__setitem__("seed", "one"),
        lambda raw: raw.__setitem__("acoustic", {"seed": 0}),
        # values the model itself refuses, or that would classify as nonsense
        lambda raw: raw["acoustic"]["model"]["inertia_history"].__setitem__(-1, -1.0),
        lambda raw: _set_entry(raw["acoustic"]["model"], "centroids", (0, 0), np.nan),
        lambda raw: raw["acoustic"]["model"]["inertia_history"].append(float("inf")),
        lambda raw: raw["visual"].__setitem__("scale", float("nan")),
        # integers too large for a float, and a dimension too large for the bytes
        lambda raw: raw["acoustic"]["model"]["inertia_history"].__setitem__(-1, 10**400),
        lambda raw: raw["acoustic"]["model"]["centroids"]["shape"].__setitem__(0, 10**400),
        # values of the wrong JSON type are refused, never converted
        lambda raw: raw["acoustic"].__setitem__("seed", True),
        lambda raw: raw["action"]["scene_vocab"].__setitem__(0, 7),
        lambda raw: raw["acoustic"].__setitem__("cluster_names", {"0": "near", "1": "far"}),
        # checks that span fields, and a value the constructor refuses
        lambda raw: raw["action"].__setitem__("weights_ih", _node([[0.5]])),
        lambda raw: _edit_array(raw["action"], "weights_ho", lambda weights: weights[:-1]),
        lambda raw: raw["acoustic"]["cluster_names"].append("near"),
        lambda raw: raw["action"].pop("weights_ho"),
        lambda raw: raw["visual"].__setitem__("scale", 0.0),
        # a classifier or net no training could produce, which could not predict
        lambda raw: raw["acoustic"]["cluster_names"].__setitem__(0, ""),
        lambda raw: raw["visual"].__setitem__("seed", -1),
        _no_vocabulary("scene_vocab", "weights_ih", lambda weights: weights[:0]),
        _no_vocabulary("action_vocab", "weights_ho", lambda weights: weights[:, :0]),
        lambda raw: raw["action"].__setitem__("scene_vocab", ["near", "near"]),
        lambda raw: raw["action"].__setitem__("action_vocab", ["n", "n"]),
        _centroid_width("acoustic", 3),  # odd: not frequencies plus amplitudes
        _centroid_width("visual", 4),  # not whole RGB triples
        _centroid_width("visual", 0),
        # each refused by the reader's own check, before any constructor sees it
        lambda raw: raw.__setitem__("action", 5),
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
    with pytest.raises(InputError, match="^bundle"):  # each check names the bundle or a field
        load_bundle(path)


def _centroids(edit):
    """A damage that applies `edit` to the acoustic centroid node."""
    return lambda raw: edit(raw["acoustic"]["model"]["centroids"])


_CENTROIDS = "bundle.acoustic.model.centroids"


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(
            lambda raw: raw["acoustic"]["model"].__setitem__("centroids", [[0.0] * 4] * 2),
            f"{_CENTROIDS} must be an object",
            id="format-3-list",
        ),
        pytest.param(
            _centroids(lambda node: node.pop("shape")),
            f"{_CENTROIDS} is missing 'shape'",
            id="no-shape",
        ),
        pytest.param(
            _centroids(lambda node: node.pop("base64")),
            f"{_CENTROIDS} is missing 'base64'",
            id="no-base64",
        ),
        pytest.param(
            _centroids(lambda node: node.__setitem__("base64", "*" + node["base64"][1:])),
            f"{_CENTROIDS}.base64 is not base64: ",  # the detail differs between Pythons
            id="bad-base64-character",
        ),
        pytest.param(
            _centroids(lambda node: node.__setitem__("base64", node["base64"][:-1])),
            f"{_CENTROIDS}.base64 is not base64: ",
            id="bad-base64-padding",
        ),
        pytest.param(
            _centroids(lambda node: node.__setitem__("base64", "\xe9" * 88)),
            f"{_CENTROIDS}.base64 is not base64: string argument should contain only ASCII",
            id="non-ascii-base64",
        ),
        pytest.param(
            _centroids(lambda node: node.__setitem__("base64", _node(np.zeros(7))["base64"])),
            rf"{_CENTROIDS} holds 56 bytes, not 8 per entry of shape \[2, 4\]",
            id="one-entry-short",
        ),
        pytest.param(
            _centroids(lambda node: node.__setitem__("base64", "A" * 80)),  # 60 zero bytes
            rf"{_CENTROIDS} holds 60 bytes, not 8 per entry of shape \[2, 4\]",
            id="not-whole-entries",
        ),
        pytest.param(  # the product matches the bytes, so only the sign is wrong
            _centroids(lambda node: node.__setitem__("shape", [-2, -4])),
            rf"{_CENTROIDS}.shape \[-2, -4\] has a negative dimension",
            id="negative-dimension",
        ),
        pytest.param(
            _centroids(lambda node: node.update(shape=[0, 2**63], base64="")),
            rf"{_CENTROIDS}.shape \[0, 9223372036854775808\] is not one numpy can hold",
            id="no-entries-dimension-too-large",
        ),
        pytest.param(
            _centroids(lambda node: node.update(shape=[1] * 65, base64=_node([0.0])["base64"])),
            rf"{_CENTROIDS}.shape \[1, 1, .*\] is not one numpy can hold",
            id="too-many-dimensions",
        ),
        pytest.param(
            lambda raw: _set_entry(raw["acoustic"]["model"], "centroids", (1, 3), np.nan),
            "bundle.acoustic.model: centroids must be finite",
            id="nan-bytes",
        ),
        pytest.param(
            lambda raw: _set_entry(raw["visual"]["model"], "centroids", (0, 5), -np.inf),
            "bundle.visual.model: centroids must be finite",
            id="inf-bytes",
        ),
        pytest.param(
            lambda raw: _set_entry(raw["action"], "weights_ho", (0, 0), np.inf),
            "bundle.action: weights must be finite",
            id="inf-weight-bytes",
        ),
    ],
)
def test_damaged_array_node_exits_three(tmp_path, capsys, mutate, message):
    path = tmp_path / "bundle.json"
    save_bundle(_full_bundle(), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    mutate(raw)
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(InputError, match=f"^{message}"):
        load_bundle(path)
    assert main(["predict", "--modality", "acoustic", "--bundle", str(path), "x.wav"]) == 3
    assert re.match(f"error: {message}", capsys.readouterr().err)


def test_reload_and_save_writes_the_same_bytes(tmp_path):
    bundle = _full_bundle()
    twelve = [f"scene{i:02d}" for i in range(12)]
    matrix = np.repeat(20.0 * np.arange(12.0)[:, None], 3, axis=1)
    bundle = replace(bundle, visual=train_classifier(twelve, matrix)[0])
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
    with pytest.raises(UsageError):
        replace(classifier, model=replace(model, centroids=model.centroids[:1]))
    with pytest.raises(UsageError):
        replace(model, centroids=model.centroids[:0])
    with pytest.raises(UsageError):
        replace(model, inertia_history=())
    with pytest.raises(UsageError):
        replace(model, centroids=np.full_like(model.centroids, np.nan))
    with pytest.raises(UsageError):
        replace(classifier, cluster_names=("near",))
    with pytest.raises(UsageError):
        replace(classifier, cluster_names=("near", "far", "far"))
    net = _full_bundle().action
    with pytest.raises(UsageError):
        replace(net, weights_ih=net.weights_ih[:1])
    with pytest.raises(UsageError):
        replace(net, weights_ho=net.weights_ho.T)
    with pytest.raises(UsageError):
        replace(net, action_vocab=net.action_vocab + ("extra",))
    with pytest.raises(UsageError):
        replace(net, weights_ho=np.full_like(net.weights_ho, np.nan))


def test_a_slot_refuses_a_width_its_modality_cannot_have():
    """The slot is the modality: acoustic widths are even, visual ones whole RGB triples."""
    with pytest.raises(UsageError, match="^acoustic width 3 is not a positive multiple of 2$"):
        ModelBundle(acoustic=_classifier(dim=3))
    with pytest.raises(UsageError, match="^visual width 4 is not a positive multiple of 3$"):
        ModelBundle(visual=_classifier(dim=4))
    ModelBundle(acoustic=_classifier(dim=6), visual=_classifier(dim=6))  # a width both allow


def test_truncated_json_raises_schema_error(tmp_path):
    path = tmp_path / "bundle.json"
    save_bundle(ModelBundle(), path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(InputError, match="is not valid JSON"):
        load_bundle(path)
    path.write_bytes(b"[" * 100000)  # nested deeper than the JSON parser recurses
    with pytest.raises(InputError, match="is not valid JSON"):
        load_bundle(path)


def test_centroid_shape_is_checked(tmp_path):
    path = tmp_path / "bundle.json"
    save_bundle(ModelBundle(acoustic=_classifier()), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["acoustic"]["model"]["centroids"] = _node([[1.0, 2.0]])  # one row for a k=2 model
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(InputError, match="cluster_names must name each centroid row"):
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
            ScriptEvent(at=-sys.float_info.max, kind="image", path="first shot #1.ppm"),
            ScriptEvent(at=0.0, kind="audio", path="a.wav"),
            ScriptEvent(at=5, kind="audio", path="caf\u00e9/a.wav"),
            ScriptEvent(at=5.5, kind="image", path="b.ppm"),
            ScriptEvent(at=sys.float_info.max, kind="image", path="c.ppm"),
        )
    )
    assert parse_event_script(format_event_script(script)) == script


# field: (the start of its refusal, values `format_event_script` could not write back)
UNWRITABLE_EVENTS = {
    "at": ("timestamp ", [float("nan"), float("-inf"), 10**400, True, "1.0", None]),
    "kind": ("kind must be one of ", ["video", "", "Audio"]),
    "path": (
        "path ",
        ["", " a.wav", "a.wav ", "a\tb.wav", "a\nb.wav", "a.wav\n", "a\rb", "a\x85b", None],
    ),
}


@pytest.mark.parametrize("field", UNWRITABLE_EVENTS)
def test_events_that_would_not_read_back_are_refused(field):
    refusal, values = UNWRITABLE_EVENTS[field]
    for value in values:
        event = {"at": 0.0, "kind": "audio", "path": "a.wav", field: value}
        # the line format_event_script would write unchecked does not parse back to the event
        line = f"{event['at']!r}\t{event['kind']}\t{event['path']}\n"
        try:
            back = [(e.at, e.kind, e.path) for e in parse_event_script(line).events]
        except InputError:
            back = None
        assert back != [tuple(event.values())]
        with pytest.raises(UsageError, match=f"^{refusal}"):
            ScriptEvent(**event)


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
    with pytest.raises(InputError, match="^line [0-9]+: "):
        parse_event_script(line)


def test_script_timestamps_must_not_decrease():
    text = "5.0\taudio\ta.wav\n4.0\timage\tb.ppm"
    with pytest.raises(InputError, match="^line 2: timestamp 4.0 decreases$"):
        parse_event_script(text)


def test_load_event_script_reads_files(tmp_path):
    path = tmp_path / "script.tsv"
    path.write_text("1.5\taudio\tx.wav\n", encoding="utf-8")
    script = load_event_script(path)
    assert script.events == (ScriptEvent(at=1.5, kind="audio", path="x.wav"),)
    with pytest.raises(InputError, match="cannot read event script .*missing.tsv"):
        load_event_script(tmp_path / "missing.tsv")
