"""Acoustic/visual fusion machine: windows, voting, restarts, purity."""

import numpy as np
import pytest

from oracles import fusion_reference
from scenefuse.errors import ClockSkew, ModalityMismatch
from scenefuse.features import ACOUSTIC, VISUAL
from scenefuse.fusion import (
    FusionConfig,
    FusionState,
    IDENTIFIED,
    NO_SCENE,
    PENDING,
    SceneDecision,
    initial_state,
    on_acoustic,
    on_visual_photo,
    tick,
)
from scenefuse.scene_model import ScenePrediction

CONFIG = FusionConfig()


def ap(scene, confidence, at):
    return ScenePrediction(scene=scene, confidence=confidence, modality=ACOUSTIC, at=at)


def vp(scene, confidence, at):
    return ScenePrediction(scene=scene, confidence=confidence, modality=VISUAL, at=at)


def run(events, config=CONFIG):
    """Feed (kind, scene, conf, at) tuples through the machine."""
    state = initial_state()
    decisions = []
    for kind, scene, conf, at in events:
        if kind == "acoustic":
            state, decision = on_acoustic(state, ap(scene, conf, at), config)
        elif kind == "photo":
            state, decision = on_visual_photo(state, vp(scene, conf, at), config)
        else:
            state, decision = tick(state, at, config)
        decisions.append(decision)
    return state, decisions


def test_matched_scene_averages_both_modalities():
    _, decisions = run(
        [
            ("acoustic", "coffee", 90.0, 0.0),
            ("photo", "coffee", 86.0, 5.0),
            ("photo", "coffee", 88.0, 6.0),
            ("photo", "coffee", 90.0, 7.0),
        ]
    )
    final = decisions[-1]
    assert final.kind == IDENTIFIED
    assert final.scene == "coffee"
    assert final.combined_confidence == 89.0  # (90 + mean(86, 88, 90)) / 2
    assert [d.kind for d in decisions[:-1]] == [PENDING] * 3


def test_two_of_three_majority_carries_the_vote():
    _, decisions = run(
        [
            ("acoustic", "gym", 80.0, 0.0),
            ("photo", "gym", 70.0, 1.0),
            ("photo", "coffee", 99.0, 2.0),
            ("photo", "gym", 90.0, 3.0),
        ]
    )
    final = decisions[-1]
    assert final.kind == IDENTIFIED
    # only the majority photos' confidences count: (80 + (70+90)/2) / 2
    assert final.combined_confidence == 80.0


def test_three_way_photo_tie_yields_no_scene():
    _, decisions = run(
        [
            ("acoustic", "a", 90.0, 0.0),
            ("photo", "a", 90.0, 1.0),
            ("photo", "b", 90.0, 2.0),
            ("photo", "c", 90.0, 3.0),
        ]
    )
    assert decisions[-1].kind == NO_SCENE
    assert decisions[-1].combined_confidence == 0.0


def test_visual_majority_must_match_the_acoustic_anchor():
    _, decisions = run(
        [
            ("acoustic", "coffee", 95.0, 0.0),
            ("photo", "gym", 95.0, 1.0),
            ("photo", "gym", 95.0, 2.0),
            ("photo", "gym", 95.0, 3.0),
        ]
    )
    assert decisions[-1].kind == NO_SCENE
    assert decisions[-1].scene is None
    assert decisions[-1].combined_confidence == 0.0


def test_photo_on_the_window_boundary_is_accepted():
    _, decisions = run(
        [
            ("acoustic", "a", 90.0, 0.0),
            ("photo", "a", 90.0, 29.0),
            ("photo", "a", 90.0, 29.5),
            ("photo", "a", 90.0, 30.0),  # exactly at the deadline
        ]
    )
    assert decisions[-1].kind == IDENTIFIED


def test_photo_past_the_window_restarts():
    state, decisions = run(
        [
            ("acoustic", "a", 90.0, 0.0),
            ("photo", "a", 90.0, 30.1),
        ]
    )
    assert decisions[-1].kind == NO_SCENE
    assert state.pending_acoustic is None


def test_photo_burst_must_fit_the_photo_window():
    # first photo at 5, third at 25.0: exactly 20 apart, still allowed
    _, ok = run(
        [
            ("acoustic", "a", 90.0, 0.0),
            ("photo", "a", 90.0, 5.0),
            ("photo", "a", 90.0, 10.0),
            ("photo", "a", 90.0, 25.0),
        ]
    )
    assert ok[-1].kind == IDENTIFIED
    # 25.1 breaks the sub-window even though the main window is open
    _, late = run(
        [
            ("acoustic", "a", 90.0, 0.0),
            ("photo", "a", 90.0, 5.0),
            ("photo", "a", 90.0, 10.0),
            ("photo", "a", 90.0, 25.1),
        ]
    )
    assert late[-1].kind == NO_SCENE


def test_tick_expires_only_strictly_past_the_deadline():
    config = CONFIG
    state = initial_state()
    state, _ = on_acoustic(state, ap("a", 90.0, 0.0), config)
    state, before = tick(state, 29.9, config)
    assert before.kind == PENDING
    state, boundary = tick(state, 30.0, config)
    assert boundary.kind == PENDING
    state, after = tick(state, 30.1, config)
    assert after.kind == NO_SCENE
    assert state.pending_acoustic is None
    # once idle, further ticks stay quiet
    _, again = tick(state, 60.0, config)
    assert again.kind == PENDING


def test_deadline_follows_the_window_of_the_call_that_checks_it():
    # anchored under the default 30 s window; a later call's 40 s window rules
    wide = FusionConfig(acoustic_visual_window_s=40.0)
    anchored, _ = on_acoustic(initial_state(), ap("a", 90.0, 0.0), CONFIG)
    _, photo = on_visual_photo(anchored, vp("a", 90.0, 35.0), wide)
    _, clock = tick(anchored, 35.0, wide)
    assert photo.kind == clock.kind == PENDING
    # and a narrower window expires the same anchor sooner
    _, expired = tick(anchored, 25.0, FusionConfig(acoustic_visual_window_s=20.0))
    assert expired.kind == NO_SCENE


def test_fresh_acoustic_prediction_replaces_the_pending_one():
    _, decisions = run(
        [
            ("acoustic", "a", 90.0, 0.0),
            ("photo", "a", 90.0, 1.0),
            ("photo", "a", 90.0, 2.0),
            ("acoustic", "b", 70.0, 10.0),  # drops anchor "a" and its photos
            ("photo", "b", 80.0, 11.0),
            ("photo", "b", 80.0, 12.0),
            ("photo", "b", 80.0, 13.0),
        ]
    )
    final = decisions[-1]
    assert final.kind == IDENTIFIED
    assert final.scene == "b"
    assert final.combined_confidence == 75.0


def test_photos_without_an_anchor_are_ignored():
    state, decisions = run(
        [
            ("photo", "a", 90.0, 1.0),
            ("photo", "a", 90.0, 2.0),
            ("photo", "a", 90.0, 3.0),
        ]
    )
    assert [d.kind for d in decisions] == [PENDING] * 3
    assert state.pending_acoustic is None


def test_decision_resets_the_machine_for_the_next_round():
    events = [
        ("acoustic", "a", 90.0, 0.0),
        ("photo", "a", 90.0, 1.0),
        ("photo", "a", 90.0, 2.0),
        ("photo", "a", 90.0, 3.0),
    ]
    second_round = [
        ("acoustic", "a", 80.0, 100.0),
        ("photo", "a", 80.0, 101.0),
        ("photo", "a", 80.0, 102.0),
        ("photo", "a", 80.0, 103.0),
    ]
    state, decisions = run(events + second_round)
    assert decisions[3].kind == IDENTIFIED
    assert decisions[7].kind == IDENTIFIED
    assert decisions[7].combined_confidence == 80.0
    assert state.pending_acoustic is None


def test_minimum_combined_confidence_gate():
    config = FusionConfig(min_combined_confidence=95.0)
    _, decisions = run(
        [
            ("acoustic", "a", 90.0, 0.0),
            ("photo", "a", 88.0, 1.0),
            ("photo", "a", 88.0, 2.0),
            ("photo", "a", 88.0, 3.0),
        ],
        config,
    )
    assert decisions[-1].kind == NO_SCENE  # combined 89 < 95


def test_photos_required_is_configurable():
    config = FusionConfig(photos_required=1)
    _, decisions = run(
        [("acoustic", "a", 90.0, 0.0), ("photo", "a", 70.0, 1.0)], config
    )
    assert decisions[-1].kind == IDENTIFIED
    assert decisions[-1].combined_confidence == 80.0


def test_time_running_backward_raises():
    state = initial_state()
    state, _ = on_acoustic(state, ap("a", 90.0, 10.0), CONFIG)
    # a time that is not finite cannot be ordered, so it is refused as well
    for bad in (9.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ClockSkew):
            on_acoustic(state, ap("a", 90.0, bad), CONFIG)
        with pytest.raises(ClockSkew):
            on_visual_photo(state, vp("a", 90.0, bad), CONFIG)
        with pytest.raises(ClockSkew):
            tick(state, bad, CONFIG)
    for bad in (float("nan"), float("inf")):  # even before any event
        with pytest.raises(ClockSkew):
            on_acoustic(initial_state(), ap("a", 90.0, bad), CONFIG)
        with pytest.raises(ClockSkew):
            tick(initial_state(), bad, CONFIG)
    # equal timestamps are fine
    _, decision = tick(state, 10.0, CONFIG)
    assert decision.kind == PENDING


def test_operations_validate_prediction_modality():
    state = initial_state()
    with pytest.raises(ModalityMismatch):
        on_acoustic(state, vp("a", 90.0, 0.0), CONFIG)
    with pytest.raises(ModalityMismatch):
        on_visual_photo(state, ap("a", 90.0, 0.0), CONFIG)


def test_operations_leave_their_input_state_untouched():
    state = initial_state()
    mid, _ = on_acoustic(state, ap("a", 90.0, 0.0), CONFIG)
    snapshot = (mid.pending_acoustic, mid.photos, mid.last_at)
    on_visual_photo(mid, vp("a", 90.0, 1.0), CONFIG)
    tick(mid, 2.0, CONFIG)
    assert (mid.pending_acoustic, mid.photos, mid.last_at) == snapshot
    assert state == initial_state()
    assert mid.pending_acoustic == ap("a", 90.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(photo_window_s=40.0)  # photo window beyond the main window
    with pytest.raises(ValueError):
        FusionConfig(acoustic_visual_window_s=0.0)
    with pytest.raises(ValueError):
        FusionConfig(photos_required=0)
    with pytest.raises(ValueError):
        FusionConfig(min_combined_confidence=101.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            FusionConfig(acoustic_visual_window_s=value)
        with pytest.raises(ValueError):
            FusionConfig(photo_window_s=value)
        with pytest.raises(ValueError):
            FusionConfig(min_combined_confidence=value)
    with pytest.raises(ValueError):
        SceneDecision(kind=IDENTIFIED, combined_confidence=50.0)  # no scene
    with pytest.raises(ValueError):
        SceneDecision(kind=NO_SCENE, scene="a")
    with pytest.raises(ValueError):
        SceneDecision(kind="maybe")


def test_random_event_streams_match_the_reference_replay():
    rng = np.random.default_rng(2024)
    kinds = ("acoustic", "photo", "tick")
    scenes = ("a", "b")
    for _ in range(300):
        now = 0.0
        events = []
        for _ in range(rng.integers(1, 12)):
            now += float(rng.uniform(0.0, 18.0))
            kind = kinds[rng.integers(0, 3)]
            scene = scenes[rng.integers(0, 2)]
            conf = float(rng.integers(50, 101))
            events.append((kind, scene if kind != "tick" else None, conf, now))
        _, decisions = run(events)
        expected = fusion_reference(events)
        got = [(d.kind, d.scene, d.combined_confidence) for d in decisions]
        assert got == expected
