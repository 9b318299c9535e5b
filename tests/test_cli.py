"""End-to-end command-line behavior: formats, exit codes, determinism."""

import ast
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from scenefuse.errors import InputError, MissingClassifier, SceneFuseError, UsageError
from scenefuse.persistence import load_bundle
from scenefuse.scene_model import train_classifier
from scenefuse.vision_pipeline import decode_ppm


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
    assert bundle.acoustic.model.dim == 32770
    assert bundle.visual.model.dim == 9


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
    # an unreachable confidence floor turns every detection into a rejection
    assert main(base + ["--min-confidence", "100"]) == 0
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
    spectrum = magnitude_spectrum(analysis_window(decode_wav(wav.read_bytes())))
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "freq_hz,amplitude"
    assert len(lines) == 1 + len(spectrum)
    freq, amp = (float(part) for part in lines[1 + 100].split(","))
    assert freq == spectrum.freqs_hz[100]
    assert amp == spectrum.amps[100]


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
    for argv in (
        ["predict", "--modality", "acoustic", "--bundle", str(utf16), str(junk)],
        ["action", "train", "--pairs", str(pairs), "--out", str(tmp_path / "x.json")],
        ["fuse", "--bundle", str(matrix_workspace.bundle), "--script", str(script)],
    ):
        assert main(argv) == 3
        assert "is not UTF-8 text" in capsys.readouterr().err

    # a script naming a path with a NUL byte, which no file can have
    nul = tmp_path / "nul.tsv"
    nul.write_bytes(b"0.0\timage\tte\x00st.ppm\n")
    assert main(["fuse", "--bundle", str(matrix_workspace.bundle), "--script", str(nul)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")
    assert "te\\x00st.ppm" in err
    assert "\x00" not in err


def test_a_bundle_no_training_could_write_exits_three(matrix_workspace, tmp_path, capsys):
    raw = json.loads(matrix_workspace.bundle.read_text(encoding="utf-8"))
    raw["acoustic"]["cluster_names"][0] = ""
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(raw), encoding="utf-8")
    clip = str(matrix_workspace.data / "test_coffee_1.wav")
    script = str(matrix_workspace.data / "script_coffee_coffee.tsv")
    for argv in (
        ["predict", "--modality", "acoustic", "--bundle", str(damaged), clip],
        ["fuse", "--bundle", str(damaged), "--script", script],
    ):
        assert main(argv) == 3
        assert "scene names cannot be empty" in capsys.readouterr().err

    raw = json.loads(matrix_workspace.bundle.read_text(encoding="utf-8"))
    raw["fusion_config"] = 5
    damaged.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["action", "predict", "coffee", "--bundle", str(damaged)]) == 3
    assert capsys.readouterr().err == "error: bundle.fusion_config must be an object\n"


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
    # an --out-dir below a regular file cannot be created
    blocker = tmp_path / "plain_file"
    blocker.write_bytes(b"")
    assert main(["synth", "matrix", "--out-dir", str(blocker / "sub")]) == 3
    assert capsys.readouterr().err.startswith("error: cannot create ")


# exit code of each error family
FAMILY_EXIT_CODES = {InputError: 3, UsageError: 1, MissingClassifier: 2}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


CONCRETE_ERRORS = sorted(
    (cls for cls in _subclasses(SceneFuseError) if cls not in (InputError, UsageError)),
    key=lambda cls: cls.__name__,
)


def test_every_error_class_belongs_to_exactly_one_family():
    by_code = {1: set(), 2: set(), 3: set()}
    for cls in CONCRETE_ERRORS:
        families = [family for family in FAMILY_EXIT_CODES if issubclass(cls, family)]
        assert len(families) == 1, cls
        assert cls.exit_code == FAMILY_EXIT_CODES[families[0]]
        by_code[cls.exit_code].add(cls.__name__)
    assert by_code == {
        3: {
            "MalformedRiff", "UnsupportedFormat", "EmptyData", "ClipTooShort",
            "BadMagic", "BadHeader", "TruncatedPixelData", "UnsupportedMaxval",
            "DegenerateImage", "IoError", "SchemaError", "BadVersion",
        },
        1: {
            "BadSpec", "BadProfile", "TooFewPoints", "ModalityMismatch", "DimensionMismatch",
            "ConflictingExamples", "EmptyTrainingSet", "UnknownLabel", "ZeroK",
            "ClockSkew",
        },
        2: {"MissingClassifier"},
    }


@pytest.mark.parametrize("error", CONCRETE_ERRORS, ids=lambda cls: cls.__name__)
def test_main_returns_the_family_exit_code(error, monkeypatch, capsys):
    def handler(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_action_predict", handler)
    family = next(f for f in FAMILY_EXIT_CODES if issubclass(error, f))
    assert main(["action", "predict", "coffee", "--bundle", "b.json"]) == FAMILY_EXIT_CODES[family]
    assert capsys.readouterr().err == "error: boom\n"


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
            if isinstance(func, ast.Call) and ast.unparse(func) == "type(exc)":
                continue  # the class of what was caught, with a longer message
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
    # only a mix of rates gives a mix of lengths, and the mix is refused first
    for rate, name in ((1000, "a.wav"), (2000, "b.wav")):
        clip = synth_ambient([((100.0, 400.0), 1.0)], 5.0, rate, seed=1)
        (tmp_path / name).write_bytes(encode_wav(clip))
    out = tmp_path / "bundle.json"
    args = ["train", "--modality", "acoustic", "--out", str(out)]
    args += ["--scene", "hall", str(tmp_path / "a.wav"), "--scene", "yard", str(tmp_path / "b.wav")]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: mixed sample rates across training files: [1000, 2000]\n"
    )
    assert not out.exists()


def test_train_passes_classifier_warnings_to_stderr(tmp_path, capsys):
    # one clip under two scene names: identical vectors cannot be told apart
    clip = tmp_path / "a.wav"
    clip.write_bytes(encode_wav(synth_ambient([((100.0, 400.0), 1.0)], 5.0, 1000, seed=1)))
    vector = acoustic_features(magnitude_spectrum(analysis_window(decode_wav(clip.read_bytes()))))
    expected = train_classifier([("hall", vector), ("yard", vector)]).warnings
    assert expected
    out = tmp_path / "bundle.json"
    args = ["train", "--modality", "acoustic", "--out", str(out)]
    assert main(args + ["--scene", "hall", str(clip), "--scene", "yard", str(clip)]) == 0
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in expected)


def test_k_override_changes_visual_dimensions(matrix_workspace, tmp_path, capsys):
    out = tmp_path / "two_colors.json"
    args = ["train", "--modality", "visual", "--k-override", "2", "--out", str(out)]
    for scene in ("coffee", "gym"):
        args.append("--scene")
        args.append(scene)
        args += [str(matrix_workspace.data / f"train_{scene}_{i}.ppm") for i in range(1, 4)]
    assert main(args) == 0
    capsys.readouterr()
    assert load_bundle(out).visual.model.dim == 6


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
    refused = "weights" if rate == "1e308" else "learning_rate"
    assert err == f"error: {refused} must be finite\n"
    assert not out.exists()


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
    assert capsys.readouterr().err.startswith("error: seed must not be negative, got -")
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
    assert err.startswith(f"error: {pairs} line 2: ")
    assert not (tmp_path / "x.json").exists()


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
