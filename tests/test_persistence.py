"""Bundle serialization and event-script parsing."""

import ast
import errno
import json
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from scenefuse import persistence
from scenefuse.action_learning import ActionExample, ActionNet, train_actions
from scenefuse.audio_pipeline import AudioClip
from scenefuse.cli import main
from scenefuse.clustering import KMeansParams
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
    classifier, _, _ = train_classifier(("near", "far") * 5, matrix, seed=seed, scale=123.456)
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


# where a full bundle's array nodes are, in the order the payload holds their entries
ARRAY_NODES = (
    ("acoustic", "centroids"),
    ("visual", "centroids"),
    ("action", "weights_ih"),
    ("action", "weights_ho"),
)


def _read_document(path):
    """The parsed JSON header of a bundle file, and the payload after its NUL byte."""
    header, _, payload = Path(path).read_bytes().partition(b"\0")
    return json.loads(header), payload


def _write_document(path, raw, payload):
    """Write a bundle file of the header `raw`, a NUL byte and `payload`."""
    Path(path).write_bytes(json.dumps(raw).encode("utf-8") + b"\0" + payload)


def _array_nodes(raw):
    """Each object at a place of `ARRAY_NODES` in `raw`, in payload order."""
    for slot, key in ARRAY_NODES:
        holder = raw.get(slot)
        node = holder.get(key) if isinstance(holder, dict) else None
        if isinstance(node, dict):
            yield node


def _unpacked(raw, payload):
    """`raw` with the array of each array node, read from `payload`, under `entries`."""
    for node in _array_nodes(raw):
        size = 8 * math.prod(node["shape"])
        node["entries"] = np.frombuffer(payload[:size], "<f8").reshape(node["shape"]).copy()
        payload = payload[size:]
    return raw


def _packed(raw):
    """The payload of the `entries` in `raw`'s array nodes, each taken out of its node."""
    nodes = [node for node in _array_nodes(raw) if "entries" in node]
    return b"".join(np.asarray(node.pop("entries"), "<f8").tobytes() for node in nodes)


def _rewrite(path, mutate):
    """Apply `mutate` to the header of the bundle file at `path`, each array in its node."""
    raw = _unpacked(*_read_document(path))
    mutate(raw)
    _write_document(path, raw, _packed(raw))


def _node(array) -> dict:
    """The array node of `array` as `_unpacked` shows it: its shape, its entries beside it."""
    return {"shape": list(np.shape(array)), "entries": np.asarray(array, np.float64)}


def _edit_array(holder, key, edit):
    """Replace the array node `holder[key]` with the node of `edit` of its array."""
    holder[key] = _node(edit(holder[key]["entries"]))


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
        return [b.acoustic.centroids, b.visual.centroids, b.action.weights_ih, b.action.weights_ho]

    for got, saved in zip(arrays(again), arrays(bundle)):
        assert got.shape == saved.shape
        assert got.tobytes() == saved.tobytes()
        assert got.dtype == np.float64 and got.flags.writeable
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
    header, nul, payload = first.read_bytes().partition(b"\0")
    raw = json.loads(header)
    # the header is sorted, indented JSON, so it stays editable by hand
    assert nul and header.decode("utf-8") == json.dumps(raw, indent=2, sort_keys=True) + "\n"
    assert raw["format_version"] == 7
    assert set(raw) == {"format_version", "acoustic", "visual", "action"}
    # a classifier is its centroids and their names: no model level, no inertia trace
    assert set(raw["acoustic"]) == {"centroids", "cluster_names", "seed", "scale"}
    assert raw["acoustic"]["centroids"] == {"shape": [2, 4]}
    # the payload is every array's little-endian float64 entries, in field order
    arrays = [
        bundle.acoustic.centroids,
        bundle.visual.centroids,
        bundle.action.weights_ih,
        bundle.action.weights_ho,
    ]
    assert len(payload) == 8 * sum(array.size for array in arrays)
    assert payload == b"".join(array.astype("<f8").tobytes() for array in arrays)


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
    raw, payload = _read_document(path)
    for version in (1, 2, 3, 4, 5, 6, 8):  # 1 to 6 are older layouts this build no longer reads
        raw["format_version"] = version
        _write_document(path, raw, payload)
        with pytest.raises(InputError, match="reads only format_version 7"):
            load_bundle(path)
        assert main(["predict", "--modality", "visual", "--bundle", str(path), "x.ppm"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}: this build reads only format_version 7, not {version}\n"
    # a bundle of an older format is all JSON, with no NUL byte: its version refuses it
    raw["format_version"] = 6
    path.write_bytes(json.dumps(raw, indent=2, sort_keys=True).encode("utf-8") + b"\n")
    with pytest.raises(InputError, match="^.*: this build reads only format_version 7, not 6$"):
        load_bundle(path)


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
    raw, payload = _read_document(path)
    extended = _with_unknown_keys(raw)
    assert extended["acoustic"]["centroids"]["unknown"] == [1, "two"]
    _write_document(path, extended, payload)
    save_bundle(load_bundle(path), path)
    assert path.read_bytes() == saved


def test_model_types_hold_only_what_nothing_else_determines():
    def names(cls):
        return [f.name for f in fields(cls)]

    assert names(KMeansParams) == ["k", "seed"]
    assert names(SceneClassifier) == ["centroids", "cluster_names", "seed", "scale"]
    assert names(ActionNet) == ["scene_vocab", "action_vocab", "weights_ih", "weights_ho"]
    assert names(ModelBundle) == ["acoustic", "visual", "action"]
    assert names(FusionState) == ["pending_acoustic", "photos", "last_at"]
    assert names(AudioClip) == ["samples", "sample_rate_hz"]
    with pytest.raises(TypeError):  # the version is save_bundle's to write
        ModelBundle(format_version=7)


def _centroid_width(slot, width):
    """Cut every centroid row of the `slot` classifier to its first `width` entries."""

    def mutate(raw):
        _edit_array(raw[slot], "centroids", lambda centroids: centroids[:, :width])

    return mutate


def _no_vocabulary(vocab, weights, edit):
    """A damage that empties the action net's `vocab`, with `edit` cutting `weights` to fit."""

    def damage(raw):
        raw["action"][vocab] = []
        _edit_array(raw["action"], weights, edit)

    return damage


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(InputError, match="^cannot read .*nope.json: "):
        load_bundle(tmp_path / "nope.json")


def test_a_path_with_a_nul_byte_raises_io_error(tmp_path):
    path = str(tmp_path / "bun\x00dle.json")
    with pytest.raises(InputError, match="^cannot read .*embedded null byte"):
        load_bundle(path)
    with pytest.raises(InputError, match="^cannot read .*embedded null byte"):
        load_event_script(path)
    with pytest.raises(InputError, match="^cannot write .*embedded null byte"):
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
    with pytest.raises(InputError, match="^cannot write .*No space left"):
        save_bundle(replace(_full_bundle(), action=None), path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert load_bundle(path).action is not None
    assert list(tmp_path.iterdir()) == [path]  # no partial file left behind


def test_a_failed_synth_write_leaves_the_previous_file_whole(tmp_path, monkeypatch, capsys):
    path = tmp_path / "scene.ppm"
    assert main(["synth", "image", "--preset", "coffee", "--out", str(path)]) == 0
    before = path.read_bytes()

    monkeypatch.setattr(
        persistence,
        "open",
        lambda file, mode, **kwargs: _FullDisk(open(file, mode, **kwargs)),
        raising=False,
    )
    assert main(["synth", "image", "--preset", "gym", "--out", str(path)]) == 3
    monkeypatch.undo()

    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no partial file left behind


# what opens a file: the builtin, and the `pathlib.Path` shortcuts
FILE_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}


def test_only_read_file_and_write_file_open_a_file():
    openers = set()
    for module in sorted(Path(persistence.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) not in FILE_CALLS:
                continue
            while not isinstance(node, (ast.FunctionDef, ast.Module)):  # the innermost def
                node = parents[node]
            openers.add(f"{module.stem}.{getattr(node, 'name', '<module>')}")
    assert openers == {"persistence.read_file", "persistence.write_file"}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.pop("action"),
        lambda raw: raw.pop("acoustic"),
        lambda raw: raw["visual"].__setitem__("seed", "one"),
        lambda raw: raw.__setitem__("acoustic", {"seed": 0}),
        # values the classifier itself refuses, or that would classify as nonsense
        lambda raw: _set_entry(raw["acoustic"], "centroids", (0, 0), np.nan),
        lambda raw: raw["visual"].__setitem__("scale", float("nan")),
        # a vector of one entry per name, and no rows for no names: neither is a matrix with rows
        lambda raw: raw["acoustic"].__setitem__("centroids", _node([0.0, 1.0])),
        lambda raw: raw["visual"].update(centroids=_node(np.zeros((0, 6))), cluster_names=[]),
        # integers too large for a float, and a dimension too large for the bytes
        lambda raw: raw["visual"].__setitem__("scale", 10**400),
        lambda raw: raw["acoustic"]["centroids"]["shape"].__setitem__(0, 10**400),
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
        lambda raw: raw["acoustic"].__setitem__("centroids", ["shape"]),
    ],
)
def test_structural_damage_raises_schema_error(tmp_path, mutate):
    path = tmp_path / "bundle.json"
    save_bundle(_full_bundle(), path)
    _rewrite(path, mutate)
    # each check names the file, then the bundle or a field
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: bundle"):
        load_bundle(path)



def test_a_whole_number_in_a_float_field_loads_as_that_float(tmp_path):
    # JSON has one number type; a whole number as large as the largest float still converts
    path = tmp_path / "bundle.json"
    save_bundle(_full_bundle(), path)
    raw, payload = _read_document(path)
    raw["visual"]["scale"] = int(sys.float_info.max)
    raw["acoustic"]["scale"] = 1
    _write_document(path, raw, payload)
    bundle = load_bundle(path)
    assert bundle.visual.scale == sys.float_info.max and type(bundle.visual.scale) is float
    assert bundle.acoustic.scale == 1.0 and type(bundle.acoustic.scale) is float

def _header(mutate):
    """A damage that applies `mutate` to the header, each array in its node (`_rewrite`)."""
    return lambda path: _rewrite(path, mutate)


def _centroids(edit):
    """A damage that applies `edit` to the acoustic centroid node."""
    return _header(lambda raw: edit(raw["acoustic"]["centroids"]))


def _file(edit):
    """A damage that replaces the file's bytes with `edit` of them."""
    return lambda path: path.write_bytes(edit(path.read_bytes()))


_CENTROIDS = "bundle.acoustic.centroids"
# the full bundle's payload: 8 acoustic and 12 visual centroid entries, 16 weights each way
_PAYLOAD_BYTES = 8 * (8 + 12 + 16 + 16)


@pytest.mark.parametrize(
    "damage, message",
    [
        pytest.param(
            _header(lambda raw: raw["acoustic"].__setitem__("centroids", [[0.0] * 4] * 2)),
            f"{_CENTROIDS} must be an object",
            id="format-3-list",
        ),
        pytest.param(
            _centroids(lambda node: node.pop("shape")),
            f"{_CENTROIDS} is missing 'shape'",
            id="no-shape",
        ),
        pytest.param(
            _file(lambda data: data.partition(b"\0")[0]),
            "no NUL byte follows the JSON header",
            id="no-nul-byte",
        ),
        pytest.param(
            _file(lambda data: data[: data.index(b"\0") - 2]),
            "not valid JSON: ",  # the detail is the JSON parser's
            id="header-cut-before-the-nul",
        ),
        pytest.param(
            _file(lambda data: data[:-8]),  # the last array, weights_ho, is (8, 2)
            r"bundle.action.weights_ho.shape \[8, 2\] needs more than the 120 bytes left",
            id="one-entry-short",
        ),
        pytest.param(
            _file(lambda data: data + bytes(4)),
            "bundle payload holds 4 bytes after its last array",
            id="bytes-left-over",
        ),
        pytest.param(
            _centroids(lambda node: node.__setitem__("shape", [2**20, 4])),
            rf"{_CENTROIDS}.shape \[1048576, 4\] needs more than the {_PAYLOAD_BYTES} bytes left",
            id="shape-larger-than-the-payload",
        ),
        pytest.param(  # a byte count of 8,001 digits, more than Python writes in decimal
            _centroids(lambda node: node.__setitem__("shape", [10**4000, 10**4000])),
            rf"{_CENTROIDS}.shape \[1000.*0\] needs more than the {_PAYLOAD_BYTES} bytes left",
            id="shape-too-large-to-count",
        ),
        pytest.param(  # the product matches the bytes, so only the sign is wrong
            _centroids(lambda node: node.__setitem__("shape", [-2, -4])),
            rf"{_CENTROIDS}.shape \[-2, -4\] has a negative dimension",
            id="negative-dimension",
        ),
        pytest.param(
            _centroids(lambda node: node.update(shape=[0, 2**63], entries=np.zeros(0))),
            rf"{_CENTROIDS}.shape \[0, 9223372036854775808\] is not one numpy can hold",
            id="no-entries-dimension-too-large",
        ),
        pytest.param(
            _centroids(lambda node: node.update(shape=[1] * 65, entries=np.zeros(1))),
            rf"{_CENTROIDS}.shape \[1, 1, .*\] is not one numpy can hold",
            id="too-many-dimensions",
        ),
        pytest.param(
            _header(lambda raw: _set_entry(raw["acoustic"], "centroids", (1, 3), np.nan)),
            "bundle.acoustic: centroids must be finite",
            id="nan-bytes",
        ),
        pytest.param(
            _header(lambda raw: _set_entry(raw["visual"], "centroids", (0, 5), -np.inf)),
            "bundle.visual: centroids must be finite",
            id="inf-bytes",
        ),
        pytest.param(
            _header(lambda raw: _set_entry(raw["action"], "weights_ho", (0, 0), np.inf)),
            "bundle.action: weights must be finite",
            id="inf-weight-bytes",
        ),
    ],
)
def test_damaged_array_node_exits_three(tmp_path, capsys, damage, message):
    path = tmp_path / "bundle.json"
    save_bundle(_full_bundle(), path)
    damage(path)
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {message}"):
        load_bundle(path)
    assert main(["predict", "--modality", "acoustic", "--bundle", str(path), "x.wav"]) == 3
    assert re.match(f"error: {re.escape(str(path))}: {message}", capsys.readouterr().err)


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
    names = _read_document(first)[0]["visual"]["cluster_names"]
    assert names == list(bundle.visual.cluster_names)
    assert sorted(names) == [f"scene{i:02d}" for i in range(12)]


def test_types_check_what_spans_their_fields():
    classifier = _classifier()
    centroids = classifier.centroids
    with pytest.raises(UsageError):
        replace(classifier, centroids=centroids[:1])
    with pytest.raises(UsageError):
        replace(classifier, centroids=centroids[:0])
    with pytest.raises(UsageError):
        replace(classifier, centroids=np.full_like(centroids, np.nan))
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
    # a hidden width of 0 would answer every scene alike
    with pytest.raises(UsageError, match="^weights_ih must be a 2-D float64 NumPy array"):
        replace(net, weights_ih=net.weights_ih[:, :0], weights_ho=net.weights_ho[:0])


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"cluster_names": "ab"}, id="names-a-str"),
        pytest.param({"cluster_names": ["near", "far"]}, id="names-a-list"),
        pytest.param({"cluster_names": ("near", 5)}, id="a-name-not-a-str"),
        pytest.param({"cluster_names": None}, id="names-none"),
    ],
)
def test_a_classifier_refuses_fields_of_the_wrong_type(change):
    """Only what training writes and `load_bundle` decodes: tuples of str; test_errors checks
    the centroids."""
    with pytest.raises(UsageError, match="^cluster_names must be a tuple of str$"):
        replace(_classifier(), **change)


def test_a_slot_refuses_a_value_of_the_wrong_type():
    bundle = _full_bundle()
    for slot, value, kind in (
        ("acoustic", "x", "str"),
        ("visual", bundle.action, "ActionNet"),
        ("action", bundle.acoustic, "SceneClassifier"),
    ):
        hint = "ActionNet | None" if slot == "action" else "SceneClassifier | None"
        with pytest.raises(UsageError, match=re.escape(f"{slot} must hold {hint}, not {kind}")):
            replace(bundle, **{slot: value})


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
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: not valid JSON: "):
        load_bundle(path)
    path.write_bytes(b"[" * 100000)  # nested deeper than the JSON parser recurses
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: not valid JSON: "):
        load_bundle(path)


def test_centroid_shape_is_checked(tmp_path):
    path = tmp_path / "bundle.json"
    save_bundle(ModelBundle(acoustic=_classifier()), path)
    one_row = _node([[1.0, 2.0]])  # one row for a k=2 classifier
    _rewrite(path, lambda raw: raw["acoustic"].__setitem__("centroids", one_row))
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
        except UsageError:
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
def test_malformed_script_lines_raise(line, tmp_path):
    # the library raises one family; the file reader names the file and
    # makes it an input error, so the CLI still exits 3
    with pytest.raises(UsageError, match="^line [0-9]+: "):
        parse_event_script(line)
    path = tmp_path / "script.tsv"
    path.write_text(line, encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: line [0-9]+: "):
        load_event_script(path)


def test_only_a_script_format_and_parse_agree_on_can_be_built():
    # equal times are in order, and a script of them reads back as written
    tie = EventScript((ScriptEvent(4.0, "audio", "a.wav"), ScriptEvent(4, "image", "b.ppm")))
    assert parse_event_script(format_event_script(tie)) == tie
    # a time that decreases is refused where the script is built, before it is ever written
    events = (ScriptEvent(5.0, "audio", "a.wav"), ScriptEvent(4.5, "image", "b.ppm"))
    with pytest.raises(UsageError, match=r"^event 2: timestamp 4\.5 decreases from 5\.0$"):
        EventScript(events)
    line_by_line = "".join(f"{e.at!r}\t{e.kind}\t{e.path}\n" for e in events)
    with pytest.raises(UsageError, match=r"^event 2: timestamp 4\.5 decreases from 5\.0$"):
        parse_event_script(line_by_line)
    # so is anything but a tuple of events, which neither format nor the order check could read
    for events in (("a",), ("a", "b"), [], list(tie.events)):
        with pytest.raises(UsageError, match="^events must be a tuple of ScriptEvent$"):
            EventScript(events)


def test_script_timestamps_must_not_decrease():
    text = "5.0\taudio\ta.wav\n4.0\timage\tb.ppm"
    with pytest.raises(UsageError, match="^event 2: timestamp 4.0 decreases from 5.0$"):
        parse_event_script(text)


def test_load_event_script_reads_files(tmp_path):
    path = tmp_path / "script.tsv"
    path.write_text("1.5\taudio\tx.wav\n", encoding="utf-8")
    script = load_event_script(path)
    assert script.events == (ScriptEvent(at=1.5, kind="audio", path="x.wav"),)
    with pytest.raises(InputError, match="^cannot read .*missing.tsv: "):
        load_event_script(tmp_path / "missing.tsv")
