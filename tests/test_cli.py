"""End-to-end command-line behavior: formats, exit codes, determinism."""

import ast
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import wav_bytes
from scenefuse.action_learning import ActionExample, encode_onehot, train_actions
from scenefuse.audio_pipeline import (
    AudioClip,
    acoustic_features,
    analysis_window,
    decode_wav,
    encode_wav,
    magnitude_spectrum,
    synth_ambient,
)
from scenefuse import cli, errors
from scenefuse.cli import main
from scenefuse.clustering import KMeansParams, fit, predict
from scenefuse.errors import InputError, MissingClassifier, SceneFuseError, UsageError
from scenefuse.fusion import FusionState, on_acoustic
from scenefuse.persistence import load_bundle, load_event_script, read_file
from scenefuse.scene_model import ScenePrediction, train_classifier
from scenefuse.vision_pipeline import decode_ppm, dominant_colors, synth_scene_image
from test_persistence import _read_document, _write_document


PREDICT_LINE = re.compile(r"^scene=(\w+) confidence=(\d+\.\d{3})$")
DETECTED_LINE = re.compile(r"^(\w+)Scene detected \(confidence=(\d+\.\d{3})\)$")


def test_train_reports_counts_and_writes_the_bundle(matrix_workspace, capsys, tmp_path):
    out = tmp_path / "fresh.json"
    args = ["train", "--modality", "acoustic", "--out", str(out)]
    for scene in ("coffee", "gym"):
        args += ["--scene", scene] + [
            str(matrix_workspace.data / f"train_{scene}_{i}.wav") for i in range(1, 5)
        ]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scene=coffee examples=4"
    assert lines[1] == "scene=gym examples=4"
    assert lines[2].startswith("trained modality=acoustic k=2 dim=32770 inertia=")
    assert lines[3] == f"wrote {out}"
    assert load_bundle(out).acoustic is not None


def test_training_both_modalities_merges_one_bundle(matrix_workspace):
    bundle = load_bundle(matrix_workspace.bundle)
    assert bundle.acoustic is not None
    assert bundle.visual is not None
    assert bundle.acoustic.centroids.shape == (2, 32770)
    assert bundle.visual.centroids.shape == (2, 9)


def test_predict_acoustic_names_the_right_scene(matrix_workspace, capsys):
    for scene in ("coffee", "gym"):
        rc = main(
            [
                "predict",
                "--modality",
                "acoustic",
                "--bundle",
                str(matrix_workspace.bundle),
                str(matrix_workspace.data / f"test_{scene}_1.wav"),
            ]
        )
        assert rc == 0
        match = PREDICT_LINE.match(capsys.readouterr().out.strip())
        assert match and match.group(1) == scene
        assert float(match.group(2)) > 50.0


def test_predict_visual_names_the_right_scene(matrix_workspace, capsys):
    rc = main(
        [
            "predict",
            "--modality",
            "visual",
            "--bundle",
            str(matrix_workspace.bundle),
            str(matrix_workspace.data / "test_gym_2.ppm"),
        ]
    )
    assert rc == 0
    match = PREDICT_LINE.match(capsys.readouterr().out.strip())
    assert match and match.group(1) == "gym"
    assert float(match.group(2)) == 100.0  # training and test pixels coincide


def test_predict_output_is_identical_across_runs(matrix_workspace, capsys):
    args = [
        "predict",
        "--modality",
        "acoustic",
        "--bundle",
        str(matrix_workspace.bundle),
        str(matrix_workspace.data / "test_coffee_3.wav"),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_fuse_matched_script_detects_every_trial(matrix_workspace, capsys):
    rc = main(
        [
            "fuse",
            "--bundle",
            str(matrix_workspace.bundle),
            "--script",
            str(matrix_workspace.data / "script_coffee_coffee.tsv"),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == matrix_workspace.trials
    for line in lines:
        match = DETECTED_LINE.match(line)
        assert match and match.group(1) == "Coffee"


def test_fuse_mismatched_script_rejects_every_trial(matrix_workspace, capsys):
    rc = main(
        [
            "fuse",
            "--bundle",
            str(matrix_workspace.bundle),
            "--script",
            str(matrix_workspace.data / "script_coffee_gym.tsv"),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["No scene detected"] * matrix_workspace.trials


def test_fuse_flag_overrides_change_the_outcome(matrix_workspace, capsys):
    base = [
        "fuse",
        "--bundle",
        str(matrix_workspace.bundle),
        "--script",
        str(matrix_workspace.data / "script_gym_gym.tsv"),
    ]
    assert main(base) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == matrix_workspace.trials and all(map(DETECTED_LINE.match, lines))
    # an unreachable confidence floor turns every detection into a rejection
    assert main(base + ["--min-confidence", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["No scene detected"] * matrix_workspace.trials
    # each trial's three photos span 2 s, so the third falls past a 1.5 s window
    assert main(base + ["--window-photo", "1.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["No scene detected"] * matrix_workspace.trials
    # requiring a fourth photo starves every trial of a decision
    assert main(base + ["--photos-required", "4"]) == 0
    assert capsys.readouterr().out == ""
    # a window that never expires is refused
    assert main(base + ["--window-av", "nan"]) == 1
    assert capsys.readouterr().out == ""


def test_dump_spectrum_matches_the_library_numbers(matrix_workspace, capsys, tmp_path):
    wav = matrix_workspace.data / "test_coffee_1.wav"
    csv = tmp_path / "spectrum.csv"
    rc = main(
        [
            "predict",
            "--modality",
            "acoustic",
            "--bundle",
            str(matrix_workspace.bundle),
            str(wav),
            "--dump-spectrum",
            str(csv),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    freqs, amps = magnitude_spectrum(analysis_window(decode_wav(wav.read_bytes())))
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "freq_hz,amplitude"
    assert len(lines) == 1 + len(freqs)
    freq, amp = (float(part) for part in lines[1 + 100].split(","))
    assert freq == freqs[100]
    assert amp == amps[100]


# --- exit codes -------------------------------------------------------------

def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["train", "--modality", "acoustic"]) == 1          # missing flags
    assert main(["no-such-command"]) == 1
    assert main(["predict", "--modality", "thermal", "--bundle", "b", "f"]) == 1
    # --scene with a name but no files is caught past argparse
    assert (
        main(
            [
                "train",
                "--modality",
                "acoustic",
                "--scene",
                "solo",
                "--out",
                str(tmp_path / "b.json"),
            ]
        )
        == 1
    )
    # a non-finite confidence divisor is refused before any file is read
    assert (
        main(
            [
                "train",
                "--modality",
                "acoustic",
                "--scene",
                "solo",
                "a.wav",
                "--out",
                str(tmp_path / "b.json"),
                "--scale",
                "nan",
            ]
        )
        == 1
    )
    capsys.readouterr()
    # also when a later --scene lacks its files
    clip = tmp_path / "a.wav"
    clip.write_bytes(encode_wav(synth_ambient([((100.0, 400.0), 1.0)], 5.0, 1000, seed=1)))
    out = tmp_path / "b.json"
    argv = ["train", "--modality", "acoustic", "--out", str(out), "--scene", "hall", str(clip)]
    assert main(argv + ["--scene", "yard"]) == 1
    assert capsys.readouterr().err == (
        "error: --scene needs a name followed by at least one file\n"
    )
    assert not out.exists()


def test_missing_bundle_exits_two(tmp_path, capsys):
    for bundle in (str(tmp_path / "none.json"), ""):  # "" is no file, though Path("") is "."
        for argv in (
            ["predict", "--modality", "acoustic", "--bundle", bundle, "x.wav"],
            ["action", "predict", "coffee", "--bundle", bundle],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: bundle {bundle} not found\n"


def test_bundle_without_the_needed_modality_exits_two(matrix_workspace, tmp_path, capsys):
    data = matrix_workspace.data
    only = {}  # modality -> a bundle holding that classifier alone
    for modality, suffix in (("acoustic", "wav"), ("visual", "ppm")):
        only[modality] = str(tmp_path / f"{modality}_only.json")
        args = ["train", "--modality", modality, "--out", only[modality]]
        for scene in ("coffee", "gym"):
            args += ["--scene", scene, *map(str, sorted(data.glob(f"train_{scene}_*.{suffix}")))]
        assert main(args) == 0
    capsys.readouterr()
    script = str(data / "script_coffee_coffee.tsv")
    for argv, missing in (
        (["fuse", "--bundle", only["acoustic"], "--script", script], "no visual classifier"),
        (["fuse", "--bundle", only["visual"], "--script", script], "no acoustic classifier"),
        (
            ["predict", "--modality", "visual", "--bundle", only["acoustic"],
             str(data / "test_coffee_1.ppm")],
            "no visual classifier",
        ),
        (["action", "predict", "coffee", "--bundle", only["acoustic"]], "no trained action net"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: bundle has {missing}\n"


def test_undecodable_inputs_exit_three(matrix_workspace, tmp_path, capsys):
    junk = tmp_path / "junk.wav"
    junk.write_bytes(b"this is not audio at all")
    rc = main(
        [
            "predict",
            "--modality",
            "acoustic",
            "--bundle",
            str(matrix_workspace.bundle),
            str(junk),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "junk.wav" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{ not json", encoding="utf-8")
    rc = main(["predict", "--modality", "acoustic", "--bundle", str(broken), str(junk)])
    assert rc == 3
    capsys.readouterr()

    # text files that are not UTF-8
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes(b"coffee\t42\ngym\t\xff\n")
    script = tmp_path / "script.tsv"
    script.write_bytes(b"0.0\taudio\t\xff.wav\n")
    for path, argv in (
        (utf16, ["predict", "--modality", "acoustic", "--bundle", str(utf16), str(junk)]),
        (pairs, ["action", "train", "--pairs", str(pairs), "--out", str(tmp_path / "x.json")]),
        (script, ["fuse", "--bundle", str(matrix_workspace.bundle), "--script", str(script)]),
    ):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text: ")

    # a script naming a path with a NUL byte, which no file can have
    nul = tmp_path / "nul.tsv"
    nul.write_bytes(b"0.0\timage\tte\x00st.ppm\n")
    assert main(["fuse", "--bundle", str(matrix_workspace.bundle), "--script", str(nul)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")
    assert "te\\x00st.ppm" in err
    assert "\x00" not in err


def test_a_bundle_no_training_could_write_exits_three(matrix_workspace, tmp_path, capsys):
    raw, payload = _read_document(matrix_workspace.bundle)
    raw["acoustic"]["cluster_names"][0] = ""
    damaged = tmp_path / "damaged.json"
    _write_document(damaged, raw, payload)
    clip = str(matrix_workspace.data / "test_coffee_1.wav")
    script = str(matrix_workspace.data / "script_coffee_coffee.tsv")
    for argv in (
        ["predict", "--modality", "acoustic", "--bundle", str(damaged), clip],
        ["fuse", "--bundle", str(damaged), "--script", script],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "bundle.acoustic: cluster_names must be a non-empty tuple of non-empty str" in err

    raw, payload = _read_document(matrix_workspace.bundle)
    raw["visual"]["seed"] = -1  # featurizing the photo would refuse it with exit 1
    _write_document(damaged, raw, payload)
    photo = str(matrix_workspace.data / "test_coffee_1.ppm")
    assert main(["predict", "--modality", "visual", "--bundle", str(damaged), photo]) == 3
    assert capsys.readouterr().err == (
        f"error: {damaged}: bundle.visual: seed must be an int of at least 0, got -1\n"
    )

    raw, payload = _read_document(matrix_workspace.bundle)
    raw["visual"] = 5  # a part the command does not use still fails the whole bundle
    _write_document(damaged, raw, payload)
    assert main(["action", "predict", "coffee", "--bundle", str(damaged)]) == 3
    assert capsys.readouterr().err == f"error: {damaged}: bundle.visual must be an object\n"


def test_an_action_net_with_no_actions_exits_three(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("coffee\t42\n", encoding="utf-8")
    out = tmp_path / "actions.json"
    assert main(["action", "train", "--pairs", str(pairs), "--out", str(out), "--iterations", "1"]) == 0
    raw, payload = _read_document(out)
    hidden, actions = raw["action"]["weights_ho"]["shape"]
    raw["action"]["action_vocab"] = []  # argmax over no actions would crash predict
    raw["action"]["weights_ho"] = {"shape": [hidden, 0]}
    _write_document(out, raw, payload[: -8 * hidden * actions])  # weights_ho's entries end it
    capsys.readouterr()
    assert main(["action", "predict", "coffee", "--bundle", str(out)]) == 3
    refusal = "action_vocab must be a non-empty tuple of non-empty str, got ()"
    message = f"error: {out}: bundle.action: {refusal}\n"
    assert capsys.readouterr().err == message


def test_an_action_net_with_no_hidden_unit_exits_three(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("coffee\t42\ngym\t10\n", encoding="utf-8")
    out = tmp_path / "actions.json"
    assert main(["action", "train", "--pairs", str(pairs), "--out", str(out), "--iterations", "1"]) == 0
    raw, payload = _read_document(out)
    scenes, hidden = raw["action"]["weights_ih"]["shape"]
    actions = raw["action"]["weights_ho"]["shape"][1]
    raw["action"]["weights_ih"] = {"shape": [scenes, 0]}  # every output would be sigmoid(0),
    raw["action"]["weights_ho"] = {"shape": [0, actions]}  # so gym would get action 42
    _write_document(out, raw, payload[: -8 * hidden * (scenes + actions)])  # the net's entries end it
    capsys.readouterr()
    assert main(["action", "predict", "gym", "--bundle", str(out)]) == 3
    refusal = "weights_ih must be a 2-D float64 NumPy array with no empty axis"
    message = f"error: {out}: bundle.action: {refusal}\n"
    assert capsys.readouterr().err == message


def test_an_action_net_with_a_repeated_action_exits_three(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("coffee\t42\ngym\t10\n", encoding="utf-8")
    out = tmp_path / "actions.json"
    assert main(["action", "train", "--pairs", str(pairs), "--out", str(out), "--iterations", "1"]) == 0
    raw, payload = _read_document(out)
    raw["action"]["action_vocab"] = ["42", "42"]  # gym would predict coffee's action
    _write_document(out, raw, payload)
    capsys.readouterr()
    assert main(["action", "predict", "gym", "--bundle", str(out)]) == 3
    message = f"error: {out}: bundle.action: vocabulary ['42', '42'] repeats an entry\n"
    assert capsys.readouterr().err == message


# file kind: (its damaged content, a command that reads it as {file})
DAMAGED_FILES = {
    "wav": (
        b"RIFF",
        ["train", "--out", "{out}", "--modality", "acoustic", "--scene", "a", "{file}"],
    ),
    "ppm": (
        b"P6 2 2 255\n",
        ["train", "--out", "{out}", "--modality", "visual", "--scene", "a", "{file}"],
    ),
    "bundle": (
        b'{"format_version": 6}',  # the format before this build's: all JSON, no NUL byte
        ["predict", "--modality", "visual", "--bundle", "{file}", "x.ppm"],
    ),
    "event-script": (
        b"5.0\taudio\ta.wav\n4.0\timage\tb.ppm\n",  # refused by EventScript, not by a line
        ["fuse", "--bundle", "{bundle}", "--script", "{file}"],
    ),
    "pairs": (b"coffee\n", ["action", "train", "--pairs", "{file}", "--out", "{out}"]),
}


@pytest.mark.parametrize("kind", DAMAGED_FILES)
def test_every_refusal_of_a_file_names_it_first(kind, matrix_workspace, tmp_path, capsys):
    content, args = DAMAGED_FILES[kind]
    damaged = tmp_path / f"damaged.{kind}"
    damaged.write_bytes(content)
    places = {"file": damaged, "bundle": matrix_workspace.bundle, "out": tmp_path / "x.json"}
    assert main([arg.format(**places) for arg in args]) == 3
    assert capsys.readouterr().err.startswith(f"error: {damaged}: ")
    assert list(tmp_path.iterdir()) == [damaged]


@pytest.mark.parametrize(
    "args",
    [
        ["predict", "--modality", "acoustic", "--bundle", "{bundle}", "{wav}",
         "--dump-spectrum", "{nodir}/x.csv"],
        ["synth", "audio", "--preset", "coffee", "--seconds", "1", "--out", "{nodir}/x.wav"],
        ["synth", "image", "--preset", "coffee", "--out", "{nodir}/x.ppm"],
        ["synth", "matrix", "--out-dir", "{file}/sub"],
    ],
    ids=["dump-spectrum", "synth-audio", "synth-image", "synth-matrix"],
)
def test_failed_writes_exit_three(args, matrix_workspace, tmp_path, capsys):
    blocker = tmp_path / "plain_file"
    blocker.write_bytes(b"")
    places = {
        "bundle": str(matrix_workspace.bundle),
        "wav": str(matrix_workspace.data / "test_coffee_1.wav"),
        "nodir": str(tmp_path / "nodir"),
        "file": str(blocker),
    }
    assert main([arg.format(**places) for arg in args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ")
    assert "Traceback" not in err


def test_refused_synth_matrix_leaves_no_directory(tmp_path, capsys):
    out_dir = tmp_path / "m"
    argv = ["synth", "matrix", "--rate", "2147483648", "--seconds", "0.0001"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: a WAV header holds")
    assert not out_dir.exists()
    for trials in ("0", "-1"):  # scripts without events
        argv = ["synth", "matrix", "--out-dir", str(out_dir), "--trials", trials, "--seconds", "0.01"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --trials must be an int of at least 1, got {trials}\n"
        assert not out_dir.exists()
    # an --out-dir below a regular file cannot be created
    blocker = tmp_path / "plain_file"
    blocker.write_bytes(b"")
    assert main(["synth", "matrix", "--out-dir", str(blocker / "sub")]) == 3
    assert capsys.readouterr().err.startswith("error: cannot create ")


def test_synth_matrix_with_one_trial_writes_one_trial_scripts(tmp_path, capsys):
    out_dir = tmp_path / "m"
    argv = ["synth", "matrix", "--out-dir", str(out_dir), "--trials", "1", "--seconds", "0.01"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    scripts = sorted(out_dir.glob("script_*.tsv"))
    assert len(scripts) == 4
    for script in scripts:
        events = load_event_script(script).events
        assert [event.kind for event in events] == ["audio", "image", "image", "image"]
        assert events[0].path.endswith("_1.wav")
    clips = sorted(path.name for path in out_dir.glob("test_*.wav"))
    assert clips == ["test_coffee_1.wav", "test_gym_1.wav"]


# exit code of each error family
FAMILY_EXIT_CODES = {InputError: 3, UsageError: 1, MissingClassifier: 2}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERROR_CLASSES = sorted(_subclasses(SceneFuseError), key=lambda cls: cls.__name__)


def test_every_error_class_belongs_to_exactly_one_family():
    for cls in ERROR_CLASSES:
        families = [family for family in FAMILY_EXIT_CODES if issubclass(cls, family)]
        assert len(families) == 1, cls
        assert cls.exit_code == FAMILY_EXIT_CODES[families[0]]


def test_every_error_class_sets_an_exit_code_or_is_caught():
    # a class nothing catches by name tells apart only what its message already says
    caught = set()
    for module in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(ast.unparse(name) for name in names)
    idle = [
        obj.__name__
        for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
        and "exit_code" not in vars(obj) and obj.__name__ not in caught
    ]
    assert idle == []


def _written(tmp_path, text):
    """The relative name of a bundle file of `text` in `tmp_path`, the working directory."""
    (tmp_path / "bundle.json").write_text(text, encoding="utf-8")
    return "bundle.json"


def _raising(cls):
    def refuse(tmp_path):
        raise cls("boom")

    return refuse


# Each error class raised as is, then one real refusal per check, named after the
# condition it refuses: (exit code, the call that refuses, the start of its message).
REFUSALS = {
    **{
        cls.__name__: (
            next(code for family, code in FAMILY_EXIT_CODES.items() if issubclass(cls, family)),
            _raising(cls),
            "boom",
        )
        for cls in ERROR_CLASSES
    },
    "BadHeader": (3, lambda tmp: decode_ppm(b"P6 0 1 255 "), "dimensions 0x1 are not positive"),
    "BadMagic": (3, lambda tmp: decode_ppm(b"P5 1 1 255 "), "not a binary P6 image"),
    "BadProfile": (1, lambda tmp: synth_ambient([], 1.0, 8000, seed=0), "envelope must hold"),
    "BadSpec": (1, lambda tmp: synth_scene_image([], 4, 4), "fractions must sum to 1"),
    "BadVersion": (
        3,
        lambda tmp: load_bundle(_written(tmp, '{"format_version": 2}')),
        "bundle.json: this build reads only format_version 7, not 2",
    ),
    "ClipTooShort": (
        3,
        lambda tmp: analysis_window(AudioClip(np.zeros(8), 8000)),
        "clip holds 0.001 s, window needs 5.000 s",
    ),
    "ClockSkew": (
        1,
        lambda tmp: on_acoustic(FusionState(), ScenePrediction("a", 90.0, float("nan"))),
        "at must be a number in [-max, max], got nan",
    ),
    "ConflictingExamples": (
        1,
        lambda tmp: train_actions([ActionExample("a", "1"), ActionExample("a", "2")]),
        "scene 'a' maps to both '1' and '2'",
    ),
    "DegenerateImage": (
        3,
        lambda tmp: dominant_colors(synth_scene_image([((9, 9, 9), 1.0)], 2, 2), 2),
        "fewer than 2 distinct colors to separate",
    ),
    "DimensionMismatch": (
        1,
        lambda tmp: predict(np.zeros((1, 2)), np.zeros(3)),
        "vector has shape (3,), model expects (2,)",
    ),
    "EmptyData": (3, lambda tmp: decode_wav(wav_bytes([])), "data chunk holds no samples"),
    "EmptyScene": (
        1, lambda tmp: ScenePrediction("", 90.0, 0.0), "scene must be a non-empty str, got ''"
    ),
    "EmptyTrainingSet": (
        1,
        lambda tmp: train_classifier((), np.empty((0, 2))),
        "names must be a non-empty tuple of non-empty str, got ()",
    ),
    "IoError": (3, lambda tmp: read_file(tmp / "absent.wav", bytes), "cannot read "),
    "MalformedRiff": (3, lambda tmp: decode_wav(b""), "too short for a RIFF header"),
    "SchemaError": (
        3,
        lambda tmp: load_bundle(_written(tmp, "[]")),
        "bundle.json: bundle document must be a JSON object",
    ),
    "TooFewPoints": (
        1,
        lambda tmp: fit(np.zeros((1, 2)), KMeansParams(k=2)),
        "1 points cannot fill 2 clusters",
    ),
    "TruncatedPixelData": (3, lambda tmp: decode_ppm(b"P6 1 1 255 "), "expected 3 pixel bytes"),
    "UnsupportedFormat": (
        3,
        lambda tmp: decode_wav(wav_bytes([1], bits_per_sample=8)),
        "only 16-bit samples are supported, got 8",
    ),
    "UnsupportedMaxval": (3, lambda tmp: decode_ppm(b"P6 1 1 254 "), "maxval must be 255"),
    "UnknownLabel": (
        1,
        lambda tmp: encode_onehot("z", ("a", "b")),
        "label 'z' not in vocabulary ['a', 'b']",
    ),
    "ZeroK": (1, lambda tmp: KMeansParams(k=0), "k must be an int of at least 1, got 0"),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_main_returns_the_family_exit_code(refusal, tmp_path, monkeypatch, capsys):
    code, refuse, message = REFUSALS[refusal]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "cmd_action_predict", lambda args: refuse(tmp_path))
    assert main(["action", "predict", "coffee", "--bundle", "b.json"]) == code
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_main_lets_a_builtin_value_error_through(monkeypatch, capsys):
    def handler(args):
        raise ValueError("a bug, not a refusal")

    monkeypatch.setattr(cli, "cmd_action_predict", handler)
    with pytest.raises(ValueError, match="a bug"):
        main(["action", "predict", "coffee", "--bundle", "b.json"])
    assert capsys.readouterr().err == ""


def test_every_raise_in_the_package_is_a_scenefuse_error():
    # main prints an `error:` line for a SceneFuseError only; a builtin raised here is a bug
    strays = []
    for module in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            func = node.exc.func if isinstance(node.exc, ast.Call) else None
            cls = getattr(errors, func.id, None) if isinstance(func, ast.Name) else None
            if not (isinstance(cls, type) and issubclass(cls, SceneFuseError)):
                strays.append(f"{module.name}:{node.lineno}")
    assert strays == []


def test_bad_synth_parameters_exit_one(tmp_path, capsys):
    rc = main(
        ["synth", "audio", "--band", "900:100:1", "--out", str(tmp_path / "x.wav")]
    )
    assert rc == 1
    rc = main(
        ["synth", "image", "--color", "1,2,3:0.4", "--out", str(tmp_path / "x.ppm")]
    )
    assert rc == 1  # fractions sum to 0.4
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["audio", "--band", "100"],
        ["audio", "--band", "a:b:c"],
        ["audio"],
        ["image", "--color", "red"],
        ["image", "--color", "1,2:0.5"],
        ["image", "--color", "a,b,c:x"],
        ["image"],
        ["audio", "--band", "0:100:nan"],
        ["audio", "--band", "0:100:1", "--seconds", "inf"],
        ["audio", "--band", "0:100:1", "--rate", "2147483648", "--seconds", "0.0001"],
        ["audio", "--band", "0:100:1", "--seconds", "2147483648"],
        ["audio", "--band", "0:100:1", "--components", "0"],
        ["image", "--color", "1,2,3:nan"],
    ],
    ids=["band-one-field", "band-not-numbers", "no-band", "color-no-fraction",
         "color-two-channels", "color-not-numbers", "no-color", "band-nan-gain",
         "endless-clip", "rate-beyond-riff", "clip-beyond-riff", "no-components",
         "color-nan-fraction"],
)
def test_malformed_synth_flags_exit_one(tmp_path, capsys, flags):
    rc = main(["synth", *flags, "--out", str(tmp_path / "x.out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "x.out").exists()


# --- synthesis --------------------------------------------------------------

def test_synth_audio_writes_a_decodable_deterministic_file(tmp_path, capsys):
    out = tmp_path / "tone.wav"
    args = [
        "synth",
        "audio",
        "--band",
        "200:600:1.0",
        "--out",
        str(out),
        "--seed",
        "3",
        "--seconds",
        "1.0",
        "--rate",
        "8000",
    ]
    assert main(args) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    first = out.read_bytes()
    clip = decode_wav(first)
    assert clip.sample_rate_hz == 8000
    assert clip.samples.size == 8000
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_synth_image_presets_write_valid_ppm(tmp_path, capsys):
    out = tmp_path / "scene.ppm"
    assert main(["synth", "image", "--preset", "coffee", "--out", str(out)]) == 0
    capsys.readouterr()
    image = decode_ppm(out.read_bytes())
    assert (image.width, image.height) == (64, 48)
    assert len(np.unique(image.pixels, axis=0)) == 3
    argv = ["synth", "image", "--preset", "coffee", "--width", "5", "--height", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    data, header = out.read_bytes(), b"P6\n5 3\n255\n"
    assert data[: len(header)] == header and len(data) == len(header) + 5 * 3 * 3


def test_synth_matrix_emits_the_full_corpus(matrix_workspace):
    data = matrix_workspace.data
    for scene in ("coffee", "gym"):
        for i in range(1, 5):
            assert (data / f"train_{scene}_{i}.wav").exists()
        for i in range(1, 4):
            assert (data / f"train_{scene}_{i}.ppm").exists()
            assert (data / f"test_{scene}_{i}.ppm").exists()
        for t in range(1, matrix_workspace.trials + 1):
            assert (data / f"test_{scene}_{t}.wav").exists()
    for audio in ("coffee", "gym"):
        for visual in ("coffee", "gym"):
            assert (data / f"script_{audio}_{visual}.tsv").exists()


def test_mixed_sample_rates_are_refused(tmp_path, capsys):
    # five-second clips at 5000 and 6250 Hz both pad to 32768 samples, so
    # their spectra share a bin count, but not a frequency axis
    for rate, name in ((5000, "a.wav"), (6250, "b.wav")):
        clip = synth_ambient([((100.0, 400.0), 1.0)], 5.0, rate, seed=1)
        (tmp_path / name).write_bytes(encode_wav(clip))
    out = tmp_path / "bundle.json"
    rc = main(
        [
            "train",
            "--modality",
            "acoustic",
            "--out",
            str(out),
            "--scene",
            "hall",
            str(tmp_path / "a.wav"),
            "--scene",
            "yard",
            str(tmp_path / "b.wav"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: mixed sample rates across training files: [5000, 6250]\n"
    )
    assert not out.exists()


def test_mixed_rate_training_prints_a_pinned_transcript(tmp_path, capsys, monkeypatch):
    # five-second clips at 8000 and 10000 Hz both pad to 65536 samples, so
    # their frequency halves differ everywhere but the 0 Hz bin.  The
    # frequency axis outweighs the bands, so clusters would split by rate
    # and each scene name would tie: the mix is refused before any fit.
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--modality", "acoustic", "--out", "bundle.json"]
    for scene, band in (("hall", (100.0, 400.0)), ("yard", (1000.0, 2000.0))):
        argv += ["--scene", scene]
        for seed, rate in enumerate((8000, 10000), start=1):
            name = f"{scene}_{rate}.wav"
            clip = synth_ambient([(band, 1.0)], 5.0, rate, seed=seed)
            (tmp_path / name).write_bytes(encode_wav(clip))
            argv.append(name)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mixed sample rates across training files: [8000, 10000]\n"
    assert not (tmp_path / "bundle.json").exists()


def test_mixed_feature_lengths_are_refused(tmp_path, capsys):
    # five-second clips at 1000 and 2000 Hz pad to 8192 and 16384 samples;
    # only a mix of rates gives a mix of lengths, and the mix is refused first,
    # at the first clip of a second rate: the absent third file is never read
    for rate, name in ((1000, "a.wav"), (2000, "b.wav")):
        clip = synth_ambient([((100.0, 400.0), 1.0)], 5.0, rate, seed=1)
        (tmp_path / name).write_bytes(encode_wav(clip))
    out = tmp_path / "bundle.json"
    args = ["train", "--modality", "acoustic", "--out", str(out)]
    args += ["--scene", "hall", str(tmp_path / "a.wav"), "--scene", "yard", str(tmp_path / "b.wav")]
    assert main(args + [str(tmp_path / "absent.wav")]) == 1
    assert capsys.readouterr().err == (
        "error: mixed sample rates across training files: [1000, 2000]\n"
    )
    assert not out.exists()


def test_train_passes_classifier_warnings_to_stderr(tmp_path, capsys):
    # one clip under two scene names: identical vectors cannot be told apart
    clip = tmp_path / "a.wav"
    clip.write_bytes(encode_wav(synth_ambient([((100.0, 400.0), 1.0)], 5.0, 1000, seed=1)))
    vector = acoustic_features(magnitude_spectrum(analysis_window(decode_wav(clip.read_bytes()))))
    *_, expected = train_classifier(("hall", "yard"), np.array([vector, vector]))
    assert expected
    out = tmp_path / "bundle.json"
    args = ["train", "--modality", "acoustic", "--out", str(out)]
    assert main(args + ["--scene", "hall", str(clip), "--scene", "yard", str(clip)]) == 0
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in expected)


def _train_clips(tmp_path, rate, gain=1.0, per_scene=3):
    """The `train` arguments and scene names of 5 s clips of two scenes written to `tmp_path`."""
    argv, names = ["train", "--modality", "acoustic", "--out", str(tmp_path / "bundle.json")], []
    for scene, band in (("hall", (0.05, 0.2)), ("yard", (0.3, 0.45))):
        argv.append("--scene")
        argv.append(scene)
        for seed in range(per_scene):
            path = tmp_path / f"{scene}_{seed}.wav"
            profile = [((band[0] * rate, band[1] * rate), gain)]
            path.write_bytes(encode_wav(synth_ambient(profile, 5.0, rate, seed=seed)))
            argv.append(str(path))
            names.append(scene)
    return argv, names


def _full_vector(path):
    """A clip's acoustic vector, frequencies then amplitudes, as the library builds it."""
    return acoustic_features(magnitude_spectrum(analysis_window(decode_wav(path.read_bytes()))))


@pytest.mark.parametrize(("rate", "gain"), [(8000, 1.0), (4000, 1.0), (8000, 0.0)])
def test_train_gives_the_bits_of_a_fit_on_the_full_vectors(tmp_path, capsys, rate, gain):
    """`train` clusters the amplitude halves and keeps the shared frequency half once.

    The written centroids and the printed inertia equal `train_classifier` on
    the full vectors, bit for bit: at two spectrum sizes, and on silent clips,
    where no column varies.
    """
    argv, names = _train_clips(tmp_path, rate, gain)
    assert main(argv + ["--seed", "3"]) == 0
    full = np.array([_full_vector(Path(path)) for path in argv if path.endswith(".wav")])
    if not gain:
        assert (full == full[0]).all()
    expected, inertia, _ = train_classifier(names, full, seed=3)
    written = load_bundle(tmp_path / "bundle.json").acoustic
    assert written.centroids.shape == full[:2].shape
    assert written.centroids.tobytes() == expected.centroids.tobytes()
    assert written.cluster_names == expected.cluster_names
    line = capsys.readouterr().out.splitlines()[2]
    assert line == f"trained modality=acoustic k=2 dim={full.shape[1]} inertia={inertia!r}"


def test_acoustic_training_memory_stays_below_the_full_feature_matrix(tmp_path, capsys):
    # 16 clips of 5 s at 8 kHz: 65,538-entry vectors, so the full (16, d)
    # matrix is 8.39 MB.  Holding each clip's amplitude half, a (16, d / 2)
    # matrix, the command's traced peak measured 7.32 MB; holding the full
    # vectors, 11.29 MB
    argv, _ = _train_clips(tmp_path, 8000, per_scene=8)
    full_bytes = 16 * 65538 * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "dim=65538" in capsys.readouterr().out
    assert peak < full_bytes


def test_k_override_changes_visual_dimensions(matrix_workspace, tmp_path, capsys):
    out = tmp_path / "two_colors.json"
    args = ["train", "--modality", "visual", "--k-override", "2", "--out", str(out)]
    for scene in ("coffee", "gym"):
        args.append("--scene")
        args.append(scene)
        args += [str(matrix_workspace.data / f"train_{scene}_{i}.ppm") for i in range(1, 4)]
    assert main(args) == 0
    capsys.readouterr()
    assert load_bundle(out).visual.centroids.shape == (2, 6)


def test_a_bad_k_override_is_refused_before_any_file_is_read(tmp_path, capsys):
    argv = ["train", "--modality", "visual", "--k-override", "0", "--out", str(tmp_path / "x")]
    assert main(argv + ["--scene", "a", str(tmp_path / "absent.ppm")]) == 1
    assert capsys.readouterr().err == "error: --k-override must be an int of at least 1, got 0\n"


def test_flags_for_the_other_modality_warn_and_are_ignored(matrix_workspace, tmp_path, capsys):
    data = matrix_workspace.data
    out = tmp_path / "bundle.json"
    args = ["train", "--modality", "acoustic", "--k-override", "2", "--out", str(out)]
    for scene in ("coffee", "gym"):
        args += ["--scene", scene, str(data / f"train_{scene}_1.wav")]
    assert main(args) == 0
    warning = "warning: --k-override only affects visual training; ignored\n"
    assert capsys.readouterr().err == warning

    csv = tmp_path / "x.csv"
    args = ["predict", "--modality", "visual", "--bundle", str(matrix_workspace.bundle)]
    assert main(args + ["--dump-spectrum", str(csv), str(data / "test_coffee_1.ppm")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: --dump-spectrum only applies to acoustic prediction; ignored\n"
    assert captured.out.startswith("scene=coffee ")
    assert not csv.exists()


# --- action subcommands -----------------------------------------------------

def test_action_train_and_predict_round_trip(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        "# scene\taction\ncoffee\t42\ngym\t10\ncoffee\t42\n", encoding="utf-8"
    )
    out = tmp_path / "actions.json"
    rc = main(
        ["action", "train", "--pairs", str(pairs), "--out", str(out), "--iterations", "5000"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trained action net scenes=2 actions=2 iterations=5000"
    assert lines[1].startswith("error first=")
    assert lines[2] == f"wrote {out}"

    assert main(["action", "predict", "coffee", "--bundle", str(out)]) == 0
    assert capsys.readouterr().out == "action=42\n"
    assert main(["action", "predict", "gym", "--bundle", str(out)]) == 0
    assert capsys.readouterr().out == "action=10\n"


def test_action_train_hidden_sets_the_hidden_width(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("coffee\t42\ngym\t10\n", encoding="utf-8")
    out = tmp_path / "actions.json"
    argv = ["action", "train", "--pairs", str(pairs), "--out", str(out), "--iterations", "10"]
    assert main(argv + ["--hidden", "3"]) == 0
    capsys.readouterr()
    net = load_bundle(out).action
    assert net.weights_ih.shape == (2, 3) and net.weights_ho.shape == (3, 2)


def test_action_predict_unknown_label_exits_one(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("coffee\t42\ngym\t10\n", encoding="utf-8")
    out = tmp_path / "actions.json"
    assert main(["action", "train", "--pairs", str(pairs), "--out", str(out), "--iterations", "100"]) == 0
    capsys.readouterr()
    assert main(["action", "predict", "library", "--bundle", str(out)]) == 1
    capsys.readouterr()


def test_action_train_conflicting_pairs_exit_one(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("coffee\t42\ncoffee\t10\n", encoding="utf-8")
    rc = main(
        ["action", "train", "--pairs", str(pairs), "--out", str(tmp_path / "x.json")]
    )
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("rate", ["nan", "inf", "1e308"])
def test_action_train_non_finite_learning_exits_one(tmp_path, capsys, rate):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("coffee\t42\ngym\t10\n", encoding="utf-8")
    out = tmp_path / "x.json"
    rc = main(
        ["action", "train", "--pairs", str(pairs), "--out", str(out),
         "--iterations", "50", "--lr", rate]
    )
    err = capsys.readouterr().err
    assert rc == 1
    # the refusal alone: 1e308 overflows the weights without a numpy warning
    if rate == "1e308":
        assert err == "error: weights must be finite\n"
    else:
        assert err == f"error: learning_rate must be a finite number above 0, got {rate}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "handler, args",
    [
        ("train_actions", ["action", "train", "--pairs", "{tmp}/pairs.tsv", "--out",
                           "{tmp}/b.json", "--hidden", "1000000000000"]),
        ("synth_scene_image", ["synth", "image", "--color", "1,2,3:1", "--width", "200000",
                               "--height", "200000", "--out", "{tmp}/x.ppm"]),
    ],
)
def test_running_out_of_memory_prints_one_error_line(handler, args, tmp_path, monkeypatch, capsys):
    # whether a huge allocation fails depends on the machine, so the handler fails instead
    def exhausted(*args, **kwargs):
        raise MemoryError

    (tmp_path / "pairs.tsv").write_text("coffee\t42\n", encoding="utf-8")
    monkeypatch.setattr(cli, handler, exhausted)
    assert main([a.format(tmp=tmp_path) for a in args]) == 1
    assert capsys.readouterr().err == "error: not enough memory for this command\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.tsv"]


@pytest.mark.parametrize(
    "args",
    [
        ["synth", "audio", "--preset", "coffee", "--out", "{tmp}/x.wav"],
        ["synth", "matrix", "--out-dir", "{tmp}/x"],
        ["train", "--modality", "visual", "--scene", "coffee", "{tmp}/coffee.ppm",
         "--out", "{tmp}/x"],
        ["action", "train", "--pairs", "{tmp}/pairs.tsv", "--out", "{tmp}/x"],
    ],
    ids=["synth-audio", "synth-matrix", "train", "action-train"],
)
def test_negative_seed_exits_one(tmp_path, capsys, args):
    assert main(["synth", "image", "--preset", "coffee", "--out", str(tmp_path / "coffee.ppm")]) == 0
    (tmp_path / "pairs.tsv").write_text("coffee\t42\n", encoding="utf-8")
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in args] + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be an int of at least 0, got -")
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("text", ["coffee\t42\ngym\n", "coffee\t42\n\t10\n"])
def test_action_train_malformed_pairs_exit_three(tmp_path, capsys, text):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(text, encoding="utf-8")
    rc = main(
        ["action", "train", "--pairs", str(pairs), "--out", str(tmp_path / "x.json")]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"error: {pairs}: line 2: ")
    assert not (tmp_path / "x.json").exists()


def test_fuse_malformed_script_exits_three_naming_the_file(matrix_workspace, tmp_path, capsys):
    script = tmp_path / "bad.tsv"
    script.write_text("x\taudio\ta.wav\n", encoding="utf-8")
    assert main(["fuse", "--bundle", str(matrix_workspace.bundle), "--script", str(script)]) == 3
    assert capsys.readouterr().err == f"error: {script}: line 1: bad timestamp 'x'\n"


def test_action_repl_via_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("coffee\n42\ngym\n10\n\ngym\n\n"))
    out = tmp_path / "repl.json"
    rc = main(["action", "repl", "--iterations", "2000", "--out", str(out)])
    assert rc == 0
    output = capsys.readouterr().out
    assert output.startswith("TRAINING PHASE:\n")
    assert "PREDICTION PHASE:" in output
    assert "[['10']]" in output
    assert load_bundle(out).action is not None


def test_module_entrypoint_prints_usage():
    # The child must import the same package as this suite, installed or not.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "scenefuse", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: scenefuse")


def test_unreadable_input_file_reports_io_error(matrix_workspace, capsys):
    rc = main(
        [
            "predict",
            "--modality",
            "visual",
            "--bundle",
            str(matrix_workspace.bundle),
            "definitely/not/here.ppm",
        ]
    )
    assert rc == 3
    assert "cannot read" in capsys.readouterr().err


def test_fuse_resolves_script_relative_paths(matrix_workspace, capsys, tmp_path, monkeypatch):
    # run from an unrelated cwd: event paths must resolve against the script
    monkeypatch.chdir(tmp_path)
    rc = main(
        [
            "fuse",
            "--bundle",
            str(matrix_workspace.bundle),
            "--script",
            str(matrix_workspace.data / "script_gym_gym.tsv"),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == matrix_workspace.trials
    assert all(line.startswith("GymScene detected") for line in lines)
