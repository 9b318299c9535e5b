"""Release gate: one test per acceptance criterion, tolerances pinned.

Every test prints a single ``[acceptance] PASS/FAIL`` line (visible under
``pytest -s``; on failure the line lands in the report) and then asserts.
The reference implementations live in oracles.py and never share code with
the library paths they judge.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import SESSION_PAIRS, never_increases
from oracles import (
    brute_force_inertia,
    central_difference_gradient,
    fusion_reference,
    mean_output_error,
    naive_spectrum,
    squared_error_loss,
)
from scenefuse.action_learning import loss_gradients, predict_action
from scenefuse.audio_pipeline import (
    AudioClip,
    decode_wav,
    encode_wav,
    magnitude_spectrum,
)
from scenefuse.cli import main as cli_main
from scenefuse.clustering import KMeansParams, confidence, fit
from scenefuse.errors import UsageError
from scenefuse.fusion import (
    FusionConfig,
    FusionState,
    IDENTIFIED,
    NO_SCENE,
    on_acoustic,
    on_visual_photo,
)
from scenefuse.persistence import ModelBundle, load_bundle, save_bundle
from scenefuse.scene_model import ScenePrediction, classify, train_classifier
from scenefuse.vision_pipeline import Image, decode_ppm, encode_ppm


def check(criterion: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {'PASS' if ok else 'FAIL'}: {criterion} ({detail})"
    print(line)
    assert ok, line


def _run_cli(args) -> tuple[int, list[str]]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = cli_main(args)
    return rc, buffer.getvalue().splitlines()


@pytest.fixture(scope="module")
def fuse_outputs(matrix_workspace):
    """stdout lines of one fuse run per audio/visual pairing."""
    outputs = {}
    for audio in ("coffee", "gym"):
        for visual in ("coffee", "gym"):
            rc, lines = _run_cli(
                [
                    "fuse",
                    "--bundle",
                    str(matrix_workspace.bundle),
                    "--script",
                    str(matrix_workspace.data / f"script_{audio}_{visual}.tsv"),
                ]
            )
            assert rc == 0
            outputs[(audio, visual)] = lines
    return outputs


def test_criterion_spectrum_agrees_with_direct_dft():
    """100 random clips: FFT path within 1e-6 of the naive transform, <10 s."""
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(16, 4097))
        clip = AudioClip(rng.uniform(-1.0, 1.0, length), 8000)
        got_freqs, got_amps = magnitude_spectrum(clip)
        freqs, amps = naive_spectrum(clip.samples, clip.sample_rate_hz)
        assert np.array_equal(got_freqs, freqs)
        scale = np.maximum(np.abs(amps), 1e-12)
        worst = max(worst, float(np.max(np.abs(got_amps - amps) / scale)))
    elapsed = time.perf_counter() - started
    check(
        "spectrum matches naive O(n^2) DFT on 100 random clips",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst relative error {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_clustering_near_exhaustive_optimum(lloyd_traces):
    """Small instances: inertia within 1.05x of brute force, every run's objective monotone."""
    rng = np.random.default_rng(20240917)
    worst_ratio = 1.0
    instances = 0
    for n in (4, 5, 6, 7, 8):
        for k in (1, 2, 3):
            for _ in range(3):
                points = rng.uniform(0.0, 10.0, (n, 2))
                *_, inertia = fit(points, KMeansParams(k=k, seed=1000 + instances))
                best = brute_force_inertia(points, k)
                if best > 1e-12:
                    worst_ratio = max(worst_ratio, inertia / best)
                else:
                    worst_ratio = max(worst_ratio, 1.0 if inertia <= 1e-12 else np.inf)
                instances += 1
    monotone = all(map(never_increases, lloyd_traces))
    check(
        "k-means lands within 1.05x of the exhaustive optimum",
        worst_ratio <= 1.05 and monotone,
        f"{instances} instances, worst ratio {worst_ratio:.6f}, "
        f"objective monotone={monotone}",
    )


def test_criterion_confidence_law():
    """100 at distance 0, 50 at 500000, floor 0 at 1e6+, never increasing."""
    anchors = (
        confidence(0.0) == 100.0
        and confidence(500_000.0) == 50.0
        and confidence(1_000_000.0) == 0.0
        and confidence(3_000_000.0) == 0.0
    )
    sweep = [confidence(float(d)) for d in np.linspace(0.0, 2_000_000.0, 1000)]
    monotone = all(b <= a for a, b in zip(sweep, sweep[1:]))
    bounded = all(0.0 <= s <= 100.0 for s in sweep)
    check(
        "confidence anchors and monotone decay hold exactly",
        anchors and monotone and bounded,
        f"anchors={anchors}, monotone={monotone}, bounded={bounded}",
    )


def test_criterion_decision_matrix(matrix_workspace, fuse_outputs):
    """Matched pairings detect 20/20 trials; mismatched reject 20/20."""
    trials = matrix_workspace.trials
    results = {}
    for (audio, visual), lines in fuse_outputs.items():
        if audio == visual:
            expected = f"{audio.capitalize()}Scene detected"
            results[(audio, visual)] = sum(
                1 for line in lines if line.startswith(expected)
            )
        else:
            results[(audio, visual)] = sum(
                1 for line in lines if line == "No scene detected"
            )
    ok = all(count == trials for count in results.values()) and all(
        len(lines) == trials for lines in fuse_outputs.values()
    )
    detail = ", ".join(
        f"{a}/{v}={results[(a, v)]}/{trials}" for (a, v) in sorted(results)
    )
    check("2x2 scene matrix decides every trial correctly", ok, detail)


def test_criterion_confidence_split(fuse_outputs):
    """Matched pairings score >50 every trial; mismatched score exactly 0."""
    confidences = []
    for scene in ("coffee", "gym"):
        for line in fuse_outputs[(scene, scene)]:
            confidences.append(float(line.rsplit("=", 1)[1].rstrip(")")))
    matched_ok = all(c > 50.0 for c in confidences)

    # library-level replay of one mismatched trial: the rejection itself must
    # carry a combined confidence of exactly 0, not merely a small number
    config = FusionConfig()  # the settings `fuse` runs with when no flag is given
    acoustic = ScenePrediction(scene="coffee", confidence=90.0, at=0.0)
    state, _ = on_acoustic(FusionState(), acoustic)
    for at in (5.0, 6.0, 7.0):
        photo = ScenePrediction(scene="gym", confidence=100.0, at=at)
        state, decision = on_visual_photo(state, photo, config)
    mismatch_ok = (
        decision.kind == NO_SCENE
        and decision.combined_confidence == 0.0
        and f"{decision.combined_confidence:.3f}" == "0.000"
    )
    check(
        "matched runs score >50, mismatches floor at exactly 0.000",
        matched_ok and mismatch_ok,
        f"min matched confidence {min(confidences):.3f} over "
        f"{len(confidences)} trials, mismatch combined="
        f"{decision.combined_confidence:.3f}",
    )


def test_criterion_action_session(trained_action_session):
    """Seven pairs: coffee->42, gym->10, final error <0.01, trace descends."""
    net = trained_action_session.net
    trace = trained_action_session.trace
    predictions_ok = (
        predict_action(net, "coffee") == "42" and predict_action(net, "gym") == "10"
    )
    final = mean_output_error(net, trained_action_session.examples)
    initial = trace[0][1]
    below_initial = all(err < initial for _, err in trace[1:])
    check(
        "seven-pair training session learns both actions",
        predictions_ok and final < 0.01 and below_initial,
        f"final error {final:.6f}, initial {initial:.4f}, "
        f"{len(trace)} trace points all below initial={below_initial}",
    )


def test_criterion_fusion_windows_and_equivalence():
    """Boundary cases plus exhaustive <=6-event equivalence with the replay."""
    config = FusionConfig()

    def run(events):
        state = FusionState()
        out = []
        for kind, scene, conf, at in events:
            if kind == "acoustic":
                state, d = on_acoustic(state, ScenePrediction(scene, conf, at))
            else:
                state, d = on_visual_photo(state, ScenePrediction(scene, conf, at), config)
            out.append(d)
        return state, out

    base = [("acoustic", "a", 90.0, 0.0)]
    shots = lambda at3: base + [
        ("photo", "a", 80.0, 28.0),
        ("photo", "a", 80.0, 29.0),
        ("photo", "a", 80.0, at3),
    ]
    _, inside = run(shots(30.0))
    _, outside = run(shots(30.1))
    boundaries = inside[-1].kind == IDENTIFIED and outside[-1].kind == NO_SCENE

    skew_raises = False
    try:
        armed, _ = run(base)
        on_acoustic(armed, ScenePrediction(scene="a", confidence=90.0, at=-1.0))
    except UsageError as exc:
        skew_raises = "precedes already-seen" in str(exc)

    symbols = (
        ("acoustic", "a", 5.0),
        ("acoustic", "b", 5.0),
        ("photo", "a", 5.0),
        ("photo", "b", 5.0),
        ("photo", "a", 25.0),
        ("photo", "b", 25.0),
    )
    nodes = 0
    mismatches = 0
    events = []
    started = time.perf_counter()

    def step(state, kind, scene, at):
        if kind == "acoustic":
            return on_acoustic(state, ScenePrediction(scene, 90.0, at))
        return on_visual_photo(state, ScenePrediction(scene, 80.0, at), config)

    def dfs(state, now, depth):
        nonlocal nodes, mismatches
        if depth == 6:
            return
        for kind, scene, delta in symbols:
            at = now + delta
            new_state, decision = step(state, kind, scene, at)
            conf = 80.0 if kind == "photo" else 90.0
            events.append((kind, scene, conf, at))
            nodes += 1
            expected = fusion_reference(events)[-1]
            if (decision.kind, decision.scene, decision.combined_confidence) != expected:
                mismatches += 1
            dfs(new_state, at, depth + 1)
            events.pop()

    dfs(FusionState(), 0.0, 0)
    elapsed = time.perf_counter() - started

    check(
        "fusion boundaries hold and all <=6-event streams match the replay",
        boundaries and skew_raises and mismatches == 0 and elapsed < 5.0,
        f"boundaries={boundaries}, skew={skew_raises}, "
        f"{nodes} sequences, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_gradients_match_finite_differences():
    """Analytic gradients within 1e-5 relative of central differences."""
    rng = np.random.default_rng(42)
    inputs = np.eye(2)[np.array([0, 1, 0, 0])]
    targets = np.eye(2)[np.array([1, 0, 1, 1])]
    weights_ih = rng.uniform(-1.0, 1.0, (2, 4))
    weights_ho = rng.uniform(-1.0, 1.0, (4, 2))
    grad_ih, grad_ho = loss_gradients(weights_ih, weights_ho, inputs, targets)
    loss = lambda: squared_error_loss(weights_ih, weights_ho, inputs, targets)
    fd_ih = central_difference_gradient(loss, weights_ih, h=1e-5)
    fd_ho = central_difference_gradient(loss, weights_ho, h=1e-5)
    worst = 0.0
    for analytic, numeric in ((grad_ih, fd_ih), (grad_ho, fd_ho)):
        denom = np.maximum(np.abs(numeric), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    check(
        "analytic gradients agree with central differences",
        worst <= 1e-5,
        f"worst relative deviation {worst:.3e} at h=1e-5",
    )


def test_criterion_round_trips(tmp_path):
    """WAV within one LSB, PPM exact, reloaded bundles classify identically."""
    rng = np.random.default_rng(12345)

    wav_ok = True
    for _ in range(20):
        clip = AudioClip(rng.uniform(-1.0, 1.0, int(rng.integers(10, 5000))), 8000)
        again = decode_wav(encode_wav(clip))
        wav_ok &= float(np.max(np.abs(again.samples - clip.samples))) <= 1.0 / 32768
        wav_ok &= again.sample_rate_hz == clip.sample_rate_hz

    pixels = rng.integers(0, 256, (30 * 20, 3), dtype=np.uint8)
    image = Image(width=30, height=20, pixels=pixels)
    again = decode_ppm(encode_ppm(image))
    ppm_ok = np.array_equal(again.pixels, pixels) and encode_ppm(again) == encode_ppm(image)

    matrix = np.empty((12, 8))
    for i in range(6):
        matrix[2 * i] = rng.normal(0.0, 1.0, 8)
        matrix[2 * i + 1] = rng.normal(40.0, 1.0, 8)
    classifier, _, _ = train_classifier(("hum", "roar") * 6, matrix)
    path = tmp_path / "bundle.json"
    save_bundle(ModelBundle(acoustic=classifier), path)
    reloaded = load_bundle(path).acoustic
    bundle_ok = np.array_equal(reloaded.centroids, classifier.centroids)
    for _ in range(100):
        vec = rng.uniform(-10.0, 50.0, 8)
        a = classify(classifier, vec, now=0.0)
        b = classify(reloaded, vec, now=0.0)
        bundle_ok &= (a.scene, a.confidence) == (b.scene, b.confidence)

    check(
        "file and bundle round-trips preserve behavior",
        wav_ok and ppm_ok and bundle_ok,
        f"wav<=1 LSB={wav_ok}, ppm exact={ppm_ok}, "
        f"100 reloaded classifications identical={bundle_ok}",
    )
