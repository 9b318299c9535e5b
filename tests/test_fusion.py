"""Acoustic/visual fusion machine: windows, voting, restarts, purity."""

import numpy as np
import pytest

from oracles import fusion_reference
from scenefuse.errors import UsageError
from scenefuse.fusion import (
    FusionConfig,
    FusionState,
    IDENTIFIED,
    NO_SCENE,
    PENDING,
    SceneDecision,
    on_acoustic,
    on_visual_photo,
)
from scenefuse.scene_model import ScenePrediction

CONFIG = FusionConfig()


def pred(scene, confidence, at):
    return ScenePrediction(scene=scene, confidence=confidence, at=at)


def run(events, config=CONFIG):
    """Feed (kind, scene, conf, at) tuples through the machine."""
    state = FusionState()
    decisions = []
    for kind, scene, conf, at in events:
        if kind == "acoustic":
            state, decision = on_acoustic(state, pred(scene, conf, at))
        else:
            state, decision = on_visual_photo(state, pred(scene, conf, at), config)
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
    # both edges of the confidence range identify: every far query scores
    # exactly 0, and the default gate of 0 lets such a round through
    for edge in (0.0, 100.0):
        _, decisions = run(
            [("acoustic", "coffee", edge, 0.0)]
            + [("photo", "coffee", edge, at) for at in (5.0, 6.0, 7.0)]
        )
        assert decisions[-1] == SceneDecision(
            kind=IDENTIFIED, scene="coffee", combined_confidence=edge
        )


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


def test_deadline_follows_the_window_of_the_call_that_checks_it():
    # the anchor carries no window; a later call's 40 s window rules
    wide = FusionConfig(acoustic_visual_window_s=40.0)
    anchored, _ = on_acoustic(FusionState(), pred("a", 90.0, 0.0))
    _, photo = on_visual_photo(anchored, pred("a", 90.0, 35.0), wide)
    assert photo.kind == PENDING
    # and a narrower window expires the same anchor sooner
    narrow = FusionConfig(acoustic_visual_window_s=20.0)
    _, expired = on_visual_photo(anchored, pred("a", 90.0, 25.0), narrow)
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
    events = [
        ("acoustic", "a", 90.0, 0.0),
        ("photo", "a", 88.0, 1.0),
        ("photo", "a", 88.0, 2.0),
        ("photo", "a", 88.0, 3.0),
    ]
    _, decisions = run(events, FusionConfig(min_combined_confidence=95.0))
    assert decisions[-1].kind == NO_SCENE  # combined 89 < 95
    # a combined confidence exactly at the gate passes it
    _, decisions = run(events, FusionConfig(min_combined_confidence=89.0))
    assert decisions[-1] == SceneDecision(kind=IDENTIFIED, scene="a", combined_confidence=89.0)


def test_photos_required_is_configurable():
    config = FusionConfig(photos_required=1)
    _, decisions = run(
        [("acoustic", "a", 90.0, 0.0), ("photo", "a", 70.0, 1.0)], config
    )
    assert decisions[-1].kind == IDENTIFIED
    assert decisions[-1].combined_confidence == 80.0


def test_time_running_backward_raises():
    state = FusionState()
    state, _ = on_acoustic(state, pred("a", 90.0, 10.0))
    skew = "^timestamp 9.0 precedes already-seen 10.0$"
    with pytest.raises(UsageError, match=skew):
        on_acoustic(state, pred("a", 90.0, 9.0))
    with pytest.raises(UsageError, match=skew):
        on_visual_photo(state, pred("a", 90.0, 9.0), CONFIG)
    # a time that is not finite cannot be ordered, so no prediction can hold one
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(UsageError, match=rf"^at must be a number in \[-max, max\], got {bad}$"):
            pred("a", 90.0, bad)
    # equal timestamps are fine
    _, decision = on_visual_photo(state, pred("a", 90.0, 10.0), CONFIG)
    assert decision.kind == PENDING


def test_operations_leave_their_input_state_untouched():
    state = FusionState()
    mid, _ = on_acoustic(state, pred("a", 90.0, 0.0))
    snapshot = (mid.pending_acoustic, mid.photos, mid.last_at)
    on_visual_photo(mid, pred("a", 90.0, 1.0), CONFIG)
    on_visual_photo(mid, pred("a", 90.0, 2.0), CONFIG)
    assert (mid.pending_acoustic, mid.photos, mid.last_at) == snapshot
    assert state == FusionState()
    assert mid.pending_acoustic == pred("a", 90.0, 0.0)


def test_config_validation():
    with pytest.raises(UsageError):
        FusionConfig(photo_window_s=40.0)  # photo window beyond the main window
    with pytest.raises(UsageError):
        FusionConfig(acoustic_visual_window_s=0.0)
    with pytest.raises(UsageError, match="acoustic_visual_window_s must be a finite number above"):
        FusionConfig(acoustic_visual_window_s=0.0, photo_window_s=0.0)
    with pytest.raises(UsageError):
        FusionConfig(photos_required=0)
    with pytest.raises(UsageError):
        FusionConfig(min_combined_confidence=101.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(UsageError):
            FusionConfig(acoustic_visual_window_s=value)
        with pytest.raises(UsageError):
            FusionConfig(photo_window_s=value)
        with pytest.raises(UsageError):
            FusionConfig(min_combined_confidence=value)


def test_random_event_streams_match_the_reference_replay():
    rng = np.random.default_rng(2024)
    kinds = ("acoustic", "photo")
    scenes = ("a", "b")
    for _ in range(300):
        now = 0.0
        events = []
        for _ in range(rng.integers(1, 12)):
            now += float(rng.uniform(0.0, 18.0))
            kind = kinds[rng.integers(0, 2)]
            scene = scenes[rng.integers(0, 2)]
            conf = float(rng.integers(50, 101))
            events.append((kind, scene, conf, now))
        _, decisions = run(events)
        expected = fusion_reference(events)
        got = [(d.kind, d.scene, d.combined_confidence) for d in decisions]
        assert got == expected
