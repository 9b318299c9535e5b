"""A fixed command sequence prints, and writes, exactly what `data/golden.txt` records.

The sequence synthesizes the two-scene matrix corpus, trains both
classifiers and the action net into one bundle, predicts every test file
plus four photos with sensor-like noise, and replays the four fuse scripts.
The matrix photos are flat colour and fit to `inertia=0.0`, so a visual
classifier trained on the noisy photos, in a bundle of its own, is what
shows the palette fit's numbers.  After each command that writes a bundle,
the transcript records that bundle's SHA-256.  The bytes hold for one numpy
build, which the file's header names.

Regenerate the file after a reviewed change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from scenefuse.cli import main
from scenefuse.vision_pipeline import Image, decode_ppm, encode_ppm

GOLDEN = Path(__file__).parent / "data" / "golden.txt"
HEADER = "# numpy "
BUNDLE = "bundle.json"
SCENES = ("coffee", "gym")
NOISE_SIGMA = 8.0  # as the benchmark's camera-like photos
PAIRS = "coffee\t42\ncoffee\t42\ngym\t10\ncoffee\t42\ngym\t10\n"


def _commands(root: Path):
    """The golden argv lists, in order; inputs they need are written as they are reached."""
    yield ["synth", "matrix", "--seed", "1", "--out-dir", "m"]
    for modality, suffix, count in (("acoustic", "wav", 4), ("visual", "ppm", 3)):
        argv = ["train", "--modality", modality, "--out", BUNDLE]
        for scene in SCENES:
            argv += ["--scene", scene]
            argv += [f"m/train_{scene}_{i}.{suffix}" for i in range(1, count + 1)]
        yield argv
    for path in sorted((root / "m").glob("test_*")):
        modality = "acoustic" if path.suffix == ".wav" else "visual"
        yield ["predict", "--modality", modality, "--bundle", BUNDLE, f"m/{path.name}"]
    rng = np.random.default_rng(1)
    for scene in SCENES:
        for i in (1, 2):
            image = decode_ppm((root / f"m/test_{scene}_{i}.ppm").read_bytes())
            noise = rng.normal(0.0, NOISE_SIGMA, image.pixels.shape)
            pixels = np.clip(np.rint(image.pixels + noise), 0, 255).astype(np.uint8)
            name = f"noisy_{scene}_{i}.ppm"
            (root / name).write_bytes(encode_ppm(Image(image.width, image.height, pixels)))
            yield ["predict", "--modality", "visual", "--bundle", BUNDLE, name]
    argv = ["train", "--modality", "visual", "--out", "noisy.json"]
    for scene in SCENES:
        argv += ["--scene", scene, f"noisy_{scene}_1.ppm", f"noisy_{scene}_2.ppm"]
    yield argv
    for audio in SCENES:
        for visual in SCENES:
            yield ["fuse", "--bundle", BUNDLE, "--script", f"m/script_{audio}_{visual}.tsv"]
    (root / "pairs.tsv").write_text(PAIRS, encoding="utf-8")
    yield ["action", "train", "--pairs", "pairs.tsv", "--out", BUNDLE, "--iterations", "2000"]


def transcript(root: Path) -> list[str]:
    """Each command and what it printed, run in `root`; a bundle's SHA-256 follows each write."""
    lines = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in _commands(root):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(argv)
            assert rc == 0, f"{argv} exited {rc}"
            lines.append("$ " + " ".join(argv))
            lines += out.getvalue().splitlines()
            if "--out" in argv:
                bundle = argv[argv.index("--out") + 1]
                digest = hashlib.sha256(Path(bundle).read_bytes()).hexdigest()
                lines.append(f"sha256 {bundle} {digest}")
    finally:
        os.chdir(cwd)
    return lines


def test_the_golden_sequence_prints_and_writes_the_recorded_bytes(tmp_path):
    header, *recorded = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert header.startswith(HEADER)
    assert transcript(tmp_path) == recorded, (
        f"recorded with numpy {header[len(HEADER):]}, running numpy {np.__version__}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as scratch:
        lines = [HEADER + np.__version__, *transcript(Path(scratch))]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(lines)} lines)")
