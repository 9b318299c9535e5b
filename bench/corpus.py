"""Seeded corpus and prep for the scenefuse benchmark.

Run as a script, this is the prep process: it writes every input file for
one workload into a work directory, trains the replay bundle through the
real CLI (untimed), and writes `manifest.json`, which lists the timed rounds
the worker replays and the ground truth each output is checked against.

    python3 bench/corpus.py --workload replay_photo --seed 1 --rounds 40 --out DIR

Inputs come only from public scenefuse functions plus seeded numpy pixel
noise, so the program under test sees nothing but WAV, PPM, TSV files.
Every clip and photo is distinct: real cameras never repeat a byte-identical
frame, and a feature cache must not look like a win.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from scenefuse import (
    AudioClip,
    EventScript,
    Image,
    ScriptEvent,
    encode_ppm,
    encode_wav,
    format_event_script,
    synth_ambient,
    synth_scene_image,
)
from scenefuse.cli import main as cli_main

WORKLOADS = ("replay_photo", "replay_audio", "train")

# The 8-scene recipe every workload and every seed shares.  Scene i owns the
# audio band [(i + 0.1) / 8, (i + 0.9) / 8] of the Nyquist range, so no two
# overlap; palettes and action codes are drawn from RECIPE_SEED.  The run's
# seed varies everything else: clip offsets, noise, sizes, trial order.
RECIPE_SEED = 2018
SCENES = ("cafe", "gym", "kitchen", "library", "office", "park", "station", "street")
RATE = 8000
CLIP_SECONDS = 5.0
FRACTIONS = (0.5, 0.3, 0.2)  # distinct, so the palette order survives noise
NOISE_SIGMA = 8.0
FEATURE_DIM = 2 * ((1 << (int(CLIP_SECONDS * RATE) - 1).bit_length()) // 2 + 1)

NOISY_SIZES = ((64, 48), (96, 72), (128, 96), (160, 120))
FLAT_SIZES = ((16, 12), (20, 15), (24, 18), (32, 24))  # small, so replay_audio is not photo-bound

TRIALS_PER_FUSE = len(SCENES)  # one per scene; half matched, half mismatched
ANCHORS_PER_TRIAL = 4  # replay_audio: each newer clip replaces the last anchor
TRAIN_CLIPS_PER_SCENE = 8  # train workload: 64 clips, k = 8
TRAIN_PHOTOS_PER_SCENE = 2
BUNDLE_CLIPS_PER_SCENE = 2  # the replay bundle built by the prep
ACTION_ITERATIONS = 20000
# Untimed rounds before a replay's timed ones.  `train` has none: its rounds
# are long, and one more would not fit in the run.
WARMUP_ROUNDS = 1
# Clips are windows of one long ambience per scene: cheap to cut, and no two
# windows are byte-identical.
AMBIENCE_SECONDS = 30.0


def make_recipe(rng: np.random.Generator) -> dict:
    """Eight well-separated 3-colour palettes plus one action code per scene."""
    palettes: list[np.ndarray] = []
    while len(palettes) < len(SCENES):
        colors = rng.integers(30, 226, size=(3, 3)).astype(np.float64)
        inner = [np.linalg.norm(colors[a] - colors[b]) for a in range(3) for b in range(a)]
        if min(inner) < 90.0:
            continue
        if any(np.linalg.norm(colors - other) < 120.0 for other in palettes):
            continue
        palettes.append(colors)
    codes = rng.choice(np.arange(10, 100), size=len(SCENES), replace=False)
    return {
        "palettes": {s: p.astype(int).tolist() for s, p in zip(SCENES, palettes)},
        "actions": {s: str(int(c)) for s, c in zip(SCENES, codes)},
    }


def distinct_colors(pixels: np.ndarray) -> int:
    """Number of distinct RGB triples in a (n, 3) uint8 pixel array."""
    packed = pixels.astype(np.uint32)
    return int(np.unique((packed[:, 0] << 16) | (packed[:, 1] << 8) | packed[:, 2]).size)


class Corpus:
    """Writes distinct, seeded input files into one directory."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.recipe = make_recipe(np.random.default_rng(RECIPE_SEED))
        self.digests: set[str] = set()
        self.ambience: dict = {}
        self.clips = 0
        self.photo_sizes: dict[str, int] = {}
        self.distinct_colors: list[int] = []

    def _write_new(self, rel: str, make) -> str:
        """Write the first payload `make()` returns that no earlier input equals."""
        while True:
            payload = make()
            digest = hashlib.sha256(payload).hexdigest()
            if digest not in self.digests:
                break
        self.digests.add(digest)
        target = self.root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(payload)
        return rel

    def clip(self, rel: str, scene: str) -> str:
        """A CLIP_SECONDS window at a seeded offset into the scene's ambience."""
        if scene not in self.ambience:
            i = SCENES.index(scene)
            nyquist = RATE / 2.0
            band = ((i + 0.1) / 8 * nyquist, (i + 0.9) / 8 * nyquist)
            seed = int(self.rng.integers(2**31))
            self.ambience[scene] = synth_ambient([(band, 1.0)], AMBIENCE_SECONDS, RATE, seed)
        samples = self.ambience[scene].samples
        n = int(CLIP_SECONDS * RATE)

        def window() -> bytes:
            start = int(self.rng.integers(samples.size - n))
            return encode_wav(AudioClip(samples[start : start + n], RATE))

        self.clips += 1
        return self._write_new(rel, window)

    def photo(self, rel: str, scene: str, size: tuple[int, int], noisy: bool) -> str:
        """A camera-like photo (sensor noise) or a flat-colour one."""
        width, height = size
        colors = [tuple(c) for c in self.recipe["palettes"][scene]]
        image = None

        def render() -> bytes:
            nonlocal image
            fractions = np.asarray(FRACTIONS)
            if not noisy:
                # nudge the split so flat photos differ; the order 0.5 > 0.3 > 0.2 holds
                a, b = self.rng.uniform(-0.03, 0.03, 2)
                fractions = fractions + np.array([a, b - a, -b])
            spec = [(c, float(f)) for c, f in zip(colors, fractions)]
            spec[-1] = (spec[-1][0], 1.0 - sum(f for _, f in spec[:-1]))
            image = synth_scene_image(spec, width, height)
            if noisy:
                noise = self.rng.normal(0.0, NOISE_SIGMA, image.pixels.shape)
                pixels = np.clip(np.rint(image.pixels + noise), 0, 255).astype(np.uint8)
                image = Image(width=width, height=height, pixels=pixels)
            return encode_ppm(image)

        rel = self._write_new(rel, render)
        label = f"{width}x{height}"
        self.photo_sizes[label] = self.photo_sizes.get(label, 0) + 1
        self.distinct_colors.append(distinct_colors(image.pixels))
        return rel

    def properties(self) -> dict:
        colors = sorted(self.distinct_colors)
        return {
            "clips": self.clips,
            "k": len(SCENES),
            "d": FEATURE_DIM,
            "photo_sizes": dict(sorted(self.photo_sizes.items())),
            "distinct_colors_per_photo": {
                "min": colors[0],
                "median": colors[len(colors) // 2],
                "max": colors[-1],
            },
        }


def _size_cycle(corpus: Corpus, sizes, count: int) -> list[tuple[int, int]]:
    """`count` sizes drawn evenly from `sizes`, in seeded order.

    Every fuse command and training round gets the same mix, so their costs
    differ by noise rather than by which sizes they happened to draw.
    """
    cycle = [sizes[i % len(sizes)] for i in range(count)]
    return [cycle[i] for i in corpus.rng.permutation(count)]


def _trial_scenes(corpus: Corpus) -> list[tuple[str, str]]:
    """(deciding acoustic scene, photographed scene) for each trial of one command.

    Every scene decides exactly one trial and is photographed in exactly one,
    so each command carries the same mix of palettes: some converge in far
    fewer k-means iterations than others.  Half the trials, chosen by seed,
    show the photos of another mismatched trial's scene.
    """
    order = [SCENES[i] for i in corpus.rng.permutation(len(SCENES))]
    shown = list(order)
    mismatched = sorted(corpus.rng.permutation(TRIALS_PER_FUSE)[: TRIALS_PER_FUSE // 2])
    shift = 1 + int(corpus.rng.integers(len(mismatched) - 1))
    for j, t in enumerate(mismatched):
        shown[t] = order[mismatched[(j + shift) % len(mismatched)]]
    return list(zip(order, shown))


def _fuse_round(corpus: Corpus, workload: str, r: int) -> dict:
    """One `fuse` command over TRIALS_PER_FUSE fresh trials."""
    folder = f"r{r:03d}"
    flat = workload == "replay_audio"
    sizes = _size_cycle(corpus, FLAT_SIZES if flat else NOISY_SIZES, 3 * TRIALS_PER_FUSE)
    events: list[ScriptEvent] = []
    expect: list[str | None] = []
    for t, (scene, shown) in enumerate(_trial_scenes(corpus)):
        base = 100.0 * t
        # replay_audio: earlier anchors of any scene, each replaced by the next
        earlier = corpus.rng.integers(len(SCENES), size=ANCHORS_PER_TRIAL - 1) if flat else []
        anchors = [SCENES[i] for i in earlier] + [scene]
        for a, heard in enumerate(anchors):
            rel = corpus.clip(f"{folder}/t{t}_a{a}.wav", heard)
            events.append(ScriptEvent(at=base + 3.0 * a, kind="audio", path=Path(rel).name))
        for p in range(3):
            rel = corpus.photo(f"{folder}/t{t}_p{p}.ppm", shown, sizes[3 * t + p], noisy=not flat)
            at = base + 3.0 * (len(anchors) - 1) + 1.0 + p
            events.append(ScriptEvent(at=at, kind="image", path=Path(rel).name))
        expect.append(scene if shown == scene else None)
    script = f"{folder}/script.tsv"
    (corpus.root / script).write_text(
        format_event_script(EventScript(events=tuple(events))), encoding="utf-8"
    )
    argv = ["fuse", "--bundle", "bundle.json", "--script", script]
    return {"events": len(events), "commands": [{"argv": argv, "decisions": expect}]}


def _train_commands(
    corpus: Corpus, folder: str, clips_per_scene: int, photo_sizes=NOISY_SIZES
) -> list[dict]:
    """acoustic train, visual train and action train, all into one bundle."""
    bundle = f"{folder}/bundle.json" if folder else "bundle.json"
    prefix = f"{folder}/" if folder else ""
    acoustic = ["train", "--modality", "acoustic", "--out", bundle]
    visual = ["train", "--modality", "visual", "--out", bundle]
    sizes = _size_cycle(corpus, photo_sizes, TRAIN_PHOTOS_PER_SCENE * len(SCENES))
    for s, scene in enumerate(SCENES):
        acoustic += ["--scene", scene] + [
            corpus.clip(f"{prefix}train_{scene}_{i}.wav", scene) for i in range(clips_per_scene)
        ]
        visual += ["--scene", scene] + [
            corpus.photo(
                f"{prefix}train_{scene}_{i}.ppm",
                scene,
                sizes[s * TRAIN_PHOTOS_PER_SCENE + i],
                noisy=True,
            )
            for i in range(TRAIN_PHOTOS_PER_SCENE)
        ]
    pairs = f"{prefix}pairs.tsv"
    lines = [f"{scene}\t{corpus.recipe['actions'][scene]}\n" for scene in SCENES]
    (corpus.root / pairs).write_text("".join(lines), encoding="utf-8")
    action = [
        "action", "train", "--pairs", pairs, "--out", bundle,
        "--iterations", str(ACTION_ITERATIONS),
    ]

    def trained(modality: str, dim: int, examples: int) -> list[str]:
        head = [f"scene={scene} examples={examples}" for scene in SCENES]
        return head + [
            rf"trained modality={modality} k={len(SCENES)} dim={dim} inertia=\S+",
            f"wrote {bundle}",
        ]

    return [
        {"argv": acoustic, "lines": trained("acoustic", FEATURE_DIM, clips_per_scene)},
        {"argv": visual, "lines": trained("visual", 9, TRAIN_PHOTOS_PER_SCENE)},
        {
            "argv": action,
            "lines": [
                f"trained action net scenes={len(SCENES)} actions={len(SCENES)} "
                f"iterations={ACTION_ITERATIONS}",
                r"error first=\S+ last=\S+",
                f"wrote {bundle}",
            ],
        },
    ]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def build(workload: str, seed: int, rounds: int, root: Path) -> tuple[dict, Corpus]:
    """Write the workload's inputs under `root`; return the manifest and corpus.

    The replays get WARMUP_ROUNDS more rounds than asked for, which the
    worker runs untimed before the timed ones.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    root.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(root, seed)
    warmup = 0 if workload == "train" else WARMUP_ROUNDS
    rounds += warmup
    manifest: dict = {
        "workload": workload, "seed": seed, "recipe": corpus.recipe, "warmup": warmup,
    }
    if workload == "train":
        manifest["rounds"] = [
            {
                "events": len(SCENES) * (TRAIN_CLIPS_PER_SCENE + TRAIN_PHOTOS_PER_SCENE + 1),
                "commands": _train_commands(corpus, f"r{r:03d}", TRAIN_CLIPS_PER_SCENE),
            }
            for r in range(rounds)
        ]
    else:
        manifest["rounds"] = [_fuse_round(corpus, workload, r) for r in range(rounds)]
    manifest["inputs"] = corpus.properties()
    return manifest, corpus


def prepare(workload: str, seed: int, rounds: int, root: Path) -> dict:
    """Build the corpus; for the replays, also train their bundle untimed."""
    manifest, corpus = build(workload, seed, rounds, root)
    if workload != "train":
        # fuse needs only the two classifiers, not the action net; the
        # smallest noisy photos teach the same palettes at a quarter the cost
        commands = _train_commands(corpus, "", BUNDLE_CLIPS_PER_SCENE, NOISY_SIZES[:1])
        for command in commands[:2]:
            code, _, err = run_cli(command["argv"])
            if code != 0 or err:
                raise RuntimeError(f"bundle prep failed ({code}): {err.strip()}")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)  # the CLI sees the same relative paths the worker replays
    manifest = prepare(args.workload, args.seed, args.rounds, Path("."))
    Path("manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
