"""Shared fixtures plus hand-rolled byte builders for container tests.

The WAV and PPM builders here assemble files with struct/bytes directly so
the decoder tests never lean on the package's own encoders.
"""

from __future__ import annotations

import struct
from types import SimpleNamespace

import pytest

from scenefuse import clustering
from scenefuse.action_learning import ActionExample, train_actions
from scenefuse.cli import main as cli_main


def wav_bytes(
    samples,
    rate: int = 8000,
    *,
    channels: int = 1,
    audio_format: int = 1,
    bits_per_sample: int = 16,
    riff_tag: bytes = b"RIFF",
    wave_tag: bytes = b"WAVE",
    leading_chunks: tuple[tuple[bytes, bytes], ...] = (),
    truncate_data_by: int = 0,
    omit_data_chunk: bool = False,
) -> bytes:
    """Assemble a RIFF/WAVE file from raw int16 sample values."""
    frames = b"".join(struct.pack("<h", int(s)) for s in samples)
    block_align = channels * (bits_per_sample // 8)
    fmt_body = struct.pack(
        "<HHIIHH",
        audio_format,
        channels,
        rate,
        rate * block_align,
        block_align,
        bits_per_sample,
    )
    chunks = b""
    for tag, body in leading_chunks:
        chunks += tag + struct.pack("<I", len(body)) + body
        if len(body) % 2:
            chunks += b"\x00"
    chunks += b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if not omit_data_chunk:
        if truncate_data_by:
            chunks += b"data" + struct.pack("<I", len(frames))
            chunks += frames[: len(frames) - truncate_data_by]
        else:
            chunks += b"data" + struct.pack("<I", len(frames)) + frames
            if len(frames) % 2:
                chunks += b"\x00"
    body = wave_tag + chunks
    return riff_tag + struct.pack("<I", len(body)) + body


def ppm_bytes(
    width: int,
    height: int,
    pixels,
    *,
    magic: bytes = b"P6",
    maxval: int = 255,
    comment: bytes | None = None,
    after_maxval: bytes = b"\n",
    pad_payload: bytes = b"",
) -> bytes:
    """Assemble a binary P6 file from an iterable of (r, g, b) triples."""
    header = magic + b"\n"
    if comment is not None:
        header += b"# " + comment + b"\n"
    header += f"{width} {height}\n{maxval}".encode("ascii") + after_maxval
    payload = bytes(channel for pixel in pixels for channel in pixel)
    return header + payload + pad_payload


@pytest.fixture
def lloyd_traces(monkeypatch):
    """The objective trace of each Lloyd run `clustering.fit` makes from now on, in order.

    A run's trace holds the within-cluster sum of squares after each of its
    assignments, read once the empty-cluster repair has run, then the
    inertia the run returns, its closing assignment's sum.  When the run's
    last pass already is the closing assignment, that sum appears twice.
    Lloyd's algorithm never raises the objective, so a trace never increases.
    """
    traces: list[list[float]] = []
    real_run, real_repair = clustering._lloyd_run, clustering._repair_empties

    def run(*args):
        traces.append([])
        result = real_run(*args)
        traces[-1].append(result[0])
        return result

    def repair(points, axis, centroids, labels, own):
        repaired = real_repair(points, axis, centroids, labels, own)
        traces[-1].append(float(own.sum()))  # `own` as the repair left it
        return repaired

    monkeypatch.setattr(clustering, "_lloyd_run", run)
    monkeypatch.setattr(clustering, "_repair_empties", repair)
    return traces


def never_increases(trace) -> bool:
    return all(later <= earlier for earlier, later in zip(trace, trace[1:]))


# Seven-session transcript: three coffee/42 pairs, two gym/10 pairs, then one
# more of each.  Reused by the action-learning unit tests and the acceptance
# gate, trained once per test run because 100k iterations take a second.
SESSION_PAIRS = (
    ("coffee", "42"),
    ("coffee", "42"),
    ("coffee", "42"),
    ("gym", "10"),
    ("gym", "10"),
    ("coffee", "42"),
    ("gym", "10"),
)


@pytest.fixture(scope="session")
def trained_action_session():
    examples = [
        ActionExample(scene_label=scene, action_code=action)
        for scene, action in SESSION_PAIRS
    ]
    net, trace = train_actions(examples, iterations=100_000, seed=0)
    return SimpleNamespace(examples=examples, net=net, trace=trace)


@pytest.fixture(scope="session")
def matrix_workspace(tmp_path_factory):
    """Synthetic two-scene corpus plus a bundle trained on it via the CLI.

    Twenty test clips per scene at 4 kHz, four fuse scripts covering every
    audio/visual pairing, and a bundle holding both classifiers.
    """
    root = tmp_path_factory.mktemp("matrix")
    data = root / "data"
    rc = cli_main(
        [
            "synth",
            "matrix",
            "--out-dir",
            str(data),
            "--seed",
            "5",
            "--trials",
            "20",
            "--rate",
            "4000",
        ]
    )
    assert rc == 0, "matrix synthesis failed"

    bundle = root / "bundle.json"
    acoustic_args = ["train", "--modality", "acoustic", "--out", str(bundle)]
    for scene in ("coffee", "gym"):
        acoustic_args.append("--scene")
        acoustic_args.append(scene)
        acoustic_args += [str(data / f"train_{scene}_{i}.wav") for i in range(1, 5)]
    assert cli_main(acoustic_args) == 0, "acoustic training failed"

    visual_args = ["train", "--modality", "visual", "--out", str(bundle)]
    for scene in ("coffee", "gym"):
        visual_args.append("--scene")
        visual_args.append(scene)
        visual_args += [str(data / f"train_{scene}_{i}.ppm") for i in range(1, 4)]
    assert cli_main(visual_args) == 0, "visual training failed"

    return SimpleNamespace(root=root, data=data, bundle=bundle, trials=20)
