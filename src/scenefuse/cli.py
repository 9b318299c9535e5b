"""Command-line surface: train, predict, fuse, synth, action.

Exit codes: 0 success; 3 for an input error (a file that will not read or
decode, a bad bundle or script, or a failed write); 1 for a usage error (bad
flags, parameters or training data); 2 for a missing bundle, or a bundle
without the classifier or net the command needs.  Every run with identical
inputs, flags, and seeds produces byte-identical stdout and output files;
warnings go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

from .action_learning import DEFAULT_ITERATIONS, action_repl, predict_action, train_actions
from .audio_pipeline import (
    DEFAULT_COMPONENTS,
    WINDOW_SECONDS,
    acoustic_features,
    analysis_window,
    decode_wav,
    encode_wav,
    magnitude_spectrum,
    synth_ambient,
)
from .clustering import DEFAULT_SCALE, check_scale
from .errors import (
    BadProfile,
    BadSpec,
    InputError,
    IoError,
    MissingClassifier,
    SceneFuseError,
    UsageError,
)
from .features import ACOUSTIC, VISUAL
from .fusion import IDENTIFIED, NO_SCENE, initial_state, on_acoustic, on_visual_photo
from .persistence import (
    EventScript,
    ModelBundle,
    ScriptEvent,
    format_event_script,
    load_bundle,
    load_event_script,
    load_pairs,
    read_bytes,
    save_bundle,
)
from .scene_model import classify, train_classifier
from .vision_pipeline import (
    decode_ppm,
    dominant_colors,
    encode_ppm,
    palette_features,
    synth_scene_image,
)

EXIT_OK = 0
EXIT_USAGE = 1

DEFAULT_COLOR_COUNT = 3

# audio presets are fractions of the Nyquist frequency so they stay valid
# at any sample rate; the two bands never overlap
_AUDIO_PRESETS = {
    "coffee": (((0.04, 0.22), 1.0),),
    "gym": (((0.55, 0.95), 1.0),),
}
_IMAGE_PRESETS = {
    "coffee": (
        ((139, 90, 43), 0.6),
        ((222, 202, 175), 0.3),
        ((245, 245, 245), 0.1),
    ),
    "gym": (
        ((230, 120, 30), 0.5),
        ((40, 60, 160), 0.3),
        ((120, 120, 120), 0.2),
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _write_bytes(path, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoError(f"cannot write {path}: {exc}") from exc


def _features(modality, path, color_count, seed, dump_spectrum=None):
    """Decode one input file into its feature vector, plus its sample rate.

    Acoustic files become the spectrum of their analysis window, which
    `dump_spectrum` (a CSV path) also receives when given; visual files
    become a palette of `color_count` colors fitted from `seed`, and
    report a sample rate of None.  Acoustic decoding ignores `color_count`
    and `seed`.  Decode failures name the file.
    """
    data = read_bytes(path)
    try:
        if modality == VISUAL:
            image = decode_ppm(data)
            return palette_features(dominant_colors(image, color_count, seed)), None
        clip = decode_wav(data)
        spectrum = magnitude_spectrum(analysis_window(clip))
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if dump_spectrum is not None:
        lines = ["freq_hz,amplitude"]
        lines += [
            f"{float(f)!r},{float(a)!r}"
            for f, a in zip(spectrum.freqs_hz, spectrum.amps)
        ]
        _write_bytes(dump_spectrum, ("\n".join(lines) + "\n").encode("utf-8"))
    return acoustic_features(spectrum), clip.sample_rate_hz


def _classify_file(classifier, path, at: float, dump_spectrum=None):
    """Classify one file, featurized with the palette size and seed `classifier` was fitted with."""
    vector, _ = _features(
        classifier.modality, path, classifier.model.dim // 3, classifier.seed, dump_spectrum
    )
    return classify(classifier, vector, now=at)


def _bundle_with(path: str, *parts: str) -> ModelBundle:
    """The bundle at `path`; MissingClassifier if there is none or it lacks one of `parts`."""
    if not os.path.exists(path):
        raise MissingClassifier(f"bundle {path} not found")
    bundle = load_bundle(path)
    for part in parts:
        if getattr(bundle, part) is None:
            what = "trained action net" if part == "action" else f"{part} classifier"
            raise MissingClassifier(f"bundle has no {what}")
    return bundle


def _save_into(path: str, **parts) -> None:
    """Put `parts` into the bundle at `path`, or into a new one, and save it there."""
    bundle = load_bundle(path) if os.path.exists(path) else ModelBundle()
    save_bundle(replace(bundle, **parts), path)


# --- train -----------------------------------------------------------------

def cmd_train(args) -> int:
    if any(len(entry) < 2 for entry in args.scene):
        raise UsageError("--scene needs a name followed by at least one file")

    check_scale(args.scale)  # refused before any file is read
    if args.modality == ACOUSTIC and args.k_override is not None:
        _warn("--k-override only affects visual training; ignored")
    color_count = args.k_override if args.k_override is not None else DEFAULT_COLOR_COUNT
    items = []
    rates: set[int | None] = set()
    for scene, *files in args.scene:
        for path in files:
            vector, rate = _features(args.modality, path, color_count, args.seed)
            items.append((scene, vector))
            rates.add(rate)
    if len(rates) > 1:  # the frequency halves would split the clips by rate, not by scene
        raise UsageError(f"mixed sample rates across training files: {sorted(rates)}")

    classifier = train_classifier(items, args.seed, args.scale)
    for message in classifier.warnings:
        _warn(message)

    _save_into(args.out, **{args.modality: classifier})

    counts = Counter(scene for scene, _ in items)
    for scene in sorted(counts):
        print(f"scene={scene} examples={counts[scene]}")
    print(
        f"trained modality={args.modality} k={len(classifier.cluster_names)} "
        f"dim={classifier.model.dim} inertia={classifier.model.inertia!r}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


# --- predict ---------------------------------------------------------------

def cmd_predict(args) -> int:
    classifier = getattr(_bundle_with(args.bundle, args.modality), args.modality)
    if args.modality == VISUAL and args.dump_spectrum is not None:
        _warn("--dump-spectrum only applies to acoustic prediction; ignored")
    prediction = _classify_file(classifier, args.file, 0.0, args.dump_spectrum)
    print(f"scene={prediction.scene} confidence={prediction.confidence:.3f}")
    return EXIT_OK


# --- fuse ------------------------------------------------------------------

def cmd_fuse(args) -> int:
    bundle = _bundle_with(args.bundle, ACOUSTIC, VISUAL)
    flags = {
        "acoustic_visual_window_s": args.window_av,
        "photo_window_s": args.window_photo,
        "photos_required": args.photos_required,
        "min_combined_confidence": args.min_confidence,
    }
    config = replace(bundle.fusion_config, **{k: v for k, v in flags.items() if v is not None})

    script = load_event_script(args.script)
    script_dir = Path(args.script).parent

    state = initial_state()
    for event in script.events:
        path = Path(event.path)
        if not path.is_absolute():
            path = script_dir / path
        modality = ACOUSTIC if event.kind == "audio" else VISUAL
        prediction = _classify_file(getattr(bundle, modality), str(path), event.at)
        step = on_acoustic if modality == ACOUSTIC else on_visual_photo
        state, decision = step(state, prediction, config)
        if decision.kind == IDENTIFIED:
            print(
                f"{decision.scene.capitalize()}Scene detected "
                f"(confidence={decision.combined_confidence:.3f})"
            )
        elif decision.kind == NO_SCENE:
            print("No scene detected")
    return EXIT_OK


# --- synth -----------------------------------------------------------------

def _parse_band(text: str):
    """`LOW:HIGH:GAIN` as ((low, high), gain); BadProfile for any other text."""
    try:
        low, high, gain = (float(p) for p in text.split(":"))
    except ValueError:
        raise BadProfile(f"--band wants three numbers LOW:HIGH:GAIN, got {text!r}") from None
    return (low, high), gain


def _parse_color(text: str):
    """`R,G,B:FRACTION` as ((r, g, b), fraction); BadSpec for any other text, colon-less too."""
    head, _, tail = text.rpartition(":")
    try:
        red, green, blue = (int(c) for c in head.split(","))
        fraction = float(tail)
    except ValueError:
        raise BadSpec(f"--color wants numbers R,G,B:FRACTION, got {text!r}") from None
    return (red, green, blue), fraction


def _preset_profile(name: str, rate: int):
    nyquist = rate / 2.0
    return [((low * nyquist, high * nyquist), gain) for (low, high), gain in _AUDIO_PRESETS[name]]


def cmd_synth_audio(args) -> int:
    if args.preset is not None:
        profile = _preset_profile(args.preset, args.rate)
    elif args.band:
        profile = [_parse_band(text) for text in args.band]
    else:
        raise BadProfile("give either --preset or at least one --band")
    clip = synth_ambient(
        profile, args.seconds, args.rate, args.seed, components_per_band=args.components
    )
    _write_bytes(args.out, encode_wav(clip))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_synth_image(args) -> int:
    if args.preset is not None:
        spec = list(_IMAGE_PRESETS[args.preset])
    elif args.color:
        spec = [_parse_color(text) for text in args.color]
    else:
        raise BadSpec("give either --preset or at least one --color")
    image = synth_scene_image(spec, args.width, args.height)
    _write_bytes(args.out, encode_ppm(image))
    print(f"wrote {args.out}")
    return EXIT_OK


def _shifted_fractions(spec, step: int):
    """Nudge a preset's fractions without reordering them, for photo variety."""
    delta = 0.02 * step
    (c0, f0), (c1, f1), *rest = list(spec)
    return [(c0, f0 + delta), (c1, f1 - delta)] + rest


def cmd_synth_matrix(args) -> int:
    out_dir = Path(args.out_dir)
    written: list[str] = []

    def emit(name: str, payload: bytes) -> None:
        try:  # only now, so a refused run leaves no empty directory behind
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {out_dir}: {exc}") from exc
        _write_bytes(out_dir / name, payload)
        written.append(str(out_dir / name))

    scenes = tuple(sorted(_AUDIO_PRESETS))
    for offset, scene in enumerate(scenes):
        profile = _preset_profile(scene, args.rate)
        for i in range(1, 5):
            clip = synth_ambient(
                profile, args.seconds, args.rate, seed=args.seed * 1000 + offset * 100 + i
            )
            emit(f"train_{scene}_{i}.wav", encode_wav(clip))
        for t in range(1, args.trials + 1):
            clip = synth_ambient(
                profile, args.seconds, args.rate, seed=args.seed * 1000 + 500 + offset * 100 + t
            )
            emit(f"test_{scene}_{t}.wav", encode_wav(clip))
        for i in range(1, 4):
            spec = _shifted_fractions(_IMAGE_PRESETS[scene], i - 1)
            image = synth_scene_image(spec, 60, 40)
            emit(f"train_{scene}_{i}.ppm", encode_ppm(image))
            emit(f"test_{scene}_{i}.ppm", encode_ppm(image))

    for audio_scene, visual_scene in product(scenes, scenes):
        events = []
        for t in range(args.trials):
            base = 100.0 * t
            events.append(ScriptEvent(at=base, kind="audio", path=f"test_{audio_scene}_{t + 1}.wav"))
            for i in range(1, 4):
                events.append(
                    ScriptEvent(at=base + 4.0 + i, kind="image", path=f"test_{visual_scene}_{i}.ppm")
                )
        body = f"# audio={audio_scene} visual={visual_scene}\n" + format_event_script(
            EventScript(events=tuple(events))
        )
        emit(f"script_{audio_scene}_{visual_scene}.tsv", body.encode("utf-8"))

    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# --- action ----------------------------------------------------------------

def _net_settings(args) -> dict:
    """`train_actions`' keyword arguments from the flags train and repl share, if set."""
    flags = {"hidden_size": args.hidden, "learning_rate": args.lr, "seed": args.seed}
    return {k: v for k, v in flags.items() if v is not None}


def cmd_action_train(args) -> int:
    pairs = load_pairs(args.pairs)
    net, trace = train_actions(pairs, args.iterations, **_net_settings(args))
    _save_into(args.out, action=net)
    print(
        f"trained action net scenes={len(net.scene_vocab)} "
        f"actions={len(net.action_vocab)} iterations={args.iterations}"
    )
    first = trace[0][1]
    last = trace[-1][1]
    print(f"error first={first!r} last={last!r}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_action_repl(args) -> int:
    net = action_repl(sys.stdin, sys.stdout, iterations=args.iterations, **_net_settings(args))
    if args.out is not None:
        _save_into(args.out, action=net)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_action_predict(args) -> int:
    print(f"action={predict_action(_bundle_with(args.bundle, 'action').action, args.label)}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="scenefuse", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = commands.add_parser("train", help="fit a scene classifier from labeled files")
    train.add_argument("--modality", choices=(ACOUSTIC, VISUAL), required=True)
    train.add_argument(
        "--scene",
        action="append",
        nargs="+",
        required=True,
        metavar="NAME FILE",
        help="scene name followed by its training files; repeatable",
    )
    train.add_argument("--out", required=True, help="bundle to create or merge into")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--scale", type=float, default=DEFAULT_SCALE, help="confidence divisor")
    train.add_argument(
        "--k-override", type=int, default=None, help="dominant colors per image (visual only)"
    )
    train.set_defaults(handler=cmd_train)

    predict = commands.add_parser("predict", help="classify one file against a bundle")
    predict.add_argument("--modality", choices=(ACOUSTIC, VISUAL), required=True)
    predict.add_argument("--bundle", required=True)
    predict.add_argument("file")
    predict.add_argument(
        "--dump-spectrum", default=None, metavar="CSV", help="write freq,amplitude rows"
    )
    predict.set_defaults(handler=cmd_predict)

    fuse = commands.add_parser("fuse", help="replay an event script through fusion")
    fuse.add_argument("--bundle", required=True)
    fuse.add_argument("--script", required=True, help="TSV of at<TAB>kind<TAB>path")
    fuse.add_argument("--photos-required", type=int, default=None)
    fuse.add_argument("--window-av", type=float, default=None, help="acoustic-to-visual seconds")
    fuse.add_argument("--window-photo", type=float, default=None, help="first-to-last photo seconds")
    fuse.add_argument("--min-confidence", type=float, default=None)
    fuse.set_defaults(handler=cmd_fuse)

    synth = commands.add_parser("synth", help="render deterministic fixtures")
    synth_kinds = synth.add_subparsers(dest="synth_kind", required=True, parser_class=_Parser)

    clip = _Parser(add_help=False)  # the flags audio and matrix share
    clip.add_argument("--rate", type=int, default=8000)
    clip.add_argument("--seconds", type=float, default=WINDOW_SECONDS)

    synth_audio = synth_kinds.add_parser("audio", parents=[clip])
    synth_audio.add_argument("--preset", choices=tuple(sorted(_AUDIO_PRESETS)), default=None)
    synth_audio.add_argument(
        "--band", action="append", metavar="LOW:HIGH:GAIN", help="explicit band; repeatable"
    )
    synth_audio.add_argument("--out", required=True)
    synth_audio.add_argument("--seed", type=int, default=0)
    synth_audio.add_argument("--components", type=int, default=DEFAULT_COMPONENTS)
    synth_audio.set_defaults(handler=cmd_synth_audio)

    synth_image = synth_kinds.add_parser("image")
    synth_image.add_argument("--preset", choices=tuple(sorted(_IMAGE_PRESETS)), default=None)
    synth_image.add_argument(
        "--color", action="append", metavar="R,G,B:FRACTION", help="explicit color; repeatable"
    )
    synth_image.add_argument("--out", required=True)
    synth_image.add_argument("--width", type=int, default=64)
    synth_image.add_argument("--height", type=int, default=48)
    synth_image.set_defaults(handler=cmd_synth_image)

    synth_matrix = synth_kinds.add_parser(
        "matrix", parents=[clip], help="emit the full two-scene train/test/script set"
    )
    synth_matrix.add_argument("--out-dir", required=True)
    synth_matrix.add_argument("--seed", type=int, default=1)
    synth_matrix.add_argument("--trials", type=int, default=3)
    synth_matrix.set_defaults(handler=cmd_synth_matrix)

    action = commands.add_parser("action", help="scene-to-action net")
    action_kinds = action.add_subparsers(dest="action_kind", required=True, parser_class=_Parser)

    training = _Parser(add_help=False)  # the flags train and repl share
    training.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    training.add_argument("--hidden", type=int, default=None)
    training.add_argument("--lr", type=float, default=None)
    training.add_argument("--seed", type=int, default=None)

    action_train = action_kinds.add_parser("train", parents=[training])
    action_train.add_argument("--pairs", required=True, help="TSV of scene<TAB>action")
    action_train.add_argument("--out", required=True)
    action_train.set_defaults(handler=cmd_action_train)

    action_repl_parser = action_kinds.add_parser("repl", parents=[training])
    action_repl_parser.add_argument("--out", default=None)
    action_repl_parser.set_defaults(handler=cmd_action_repl)

    action_predict = action_kinds.add_parser("predict")
    action_predict.add_argument("label")
    action_predict.add_argument("--bundle", required=True)
    action_predict.set_defaults(handler=cmd_action_predict)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except SceneFuseError as exc:
        # escaped as repr would, so a NUL or newline from a file or path cannot reach stderr raw
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"error: {message}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())
