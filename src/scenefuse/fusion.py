"""Timed fusion of acoustic and visual scene predictions.

The machine idles until an acoustic prediction arrives, which opens a
30-second window for visual confirmation.  Photos landing inside that
window — and within 20 seconds of the first photo — accumulate until
`photos_required` of them are in hand.  They vote: a unique majority
scene that matches the acoustic scene, with a combined confidence (the
mean of the acoustic one and the majority photos' mean) of at least
`min_combined_confidence`, is identified.  Anything else — a vote tie, a
majority for another scene, a combined confidence below that floor, or a
photo past either window — resolves to "no scene" with a combined
confidence of exactly 0, and the machine restarts.

The state is the pending acoustic anchor (None while idle), its photos and
the clock; both windows are read from the config each photo is given.

Time comes only from the event timestamps, which must be finite and never
run backward; a stale or non-finite timestamp raises UsageError.  Both
operations return a fresh state, leaving their argument untouched.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

from .errors import UsageError, check_int, check_positive
from .scene_model import ScenePrediction

IDENTIFIED = "identified"
NO_SCENE = "no_scene"
PENDING = "pending"


@dataclass(frozen=True)
class FusionConfig:
    """The `fuse` settings; `errors.check_positive` and `check_int` refuse bad windows and counts."""

    acoustic_visual_window_s: float = 30.0
    photo_window_s: float = 20.0
    photos_required: int = 3
    min_combined_confidence: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.acoustic_visual_window_s, "acoustic_visual_window_s")
        check_positive(self.photo_window_s, "photo_window_s")
        if self.photo_window_s > self.acoustic_visual_window_s:
            raise UsageError("photo window cannot exceed the acoustic-visual window")
        check_int(self.photos_required, 1, "photos_required")
        if not (0.0 <= self.min_combined_confidence <= 100.0):
            raise UsageError("min_combined_confidence must lie in [0, 100]")


@dataclass(frozen=True, slots=True)
class SceneDecision:
    kind: str  # IDENTIFIED | NO_SCENE | PENDING
    scene: str | None = None
    combined_confidence: float = 0.0


_PENDING = SceneDecision(kind=PENDING)
_NO_SCENE = SceneDecision(kind=NO_SCENE)


@dataclass(frozen=True, slots=True)
class FusionState:
    pending_acoustic: ScenePrediction | None = None
    photos: tuple[ScenePrediction, ...] = ()
    last_at: float = float("-inf")


def _check_clock(state: FusionState, at: float) -> None:
    if not math.isfinite(at):
        raise UsageError(f"timestamp {at} is not finite")
    if at < state.last_at:
        raise UsageError(f"timestamp {at} precedes already-seen {state.last_at}")


def _restart(at: float) -> FusionState:
    return FusionState(last_at=at)


def on_acoustic(state: FusionState, pred: ScenePrediction) -> tuple[FusionState, SceneDecision]:
    """An acoustic prediction opens (or reopens) the visual window.

    A newer acoustic prediction always replaces an in-flight one — the
    latest anchor wins and any collected photos are dropped.  No window is
    read here: photos check it against the config they are given.
    """
    _check_clock(state, pred.at)
    return FusionState(pending_acoustic=pred, last_at=pred.at), _PENDING


def on_visual_photo(
    state: FusionState, pred: ScenePrediction, config: FusionConfig
) -> tuple[FusionState, SceneDecision]:
    """Collect one photo prediction; decide once enough have arrived.

    Photos with no acoustic anchor are discarded.  A photo past the acoustic
    deadline, or more than photo_window_s after the first photo, restarts
    the machine with a no-scene decision.
    """
    _check_clock(state, pred.at)
    anchor = state.pending_acoustic
    if anchor is None:
        return replace(state, last_at=pred.at), _PENDING
    late = pred.at > anchor.at + config.acoustic_visual_window_s
    if late or (state.photos and pred.at > state.photos[0].at + config.photo_window_s):
        return _restart(pred.at), _NO_SCENE

    photos = state.photos + (pred,)
    if len(photos) < config.photos_required:
        return replace(state, photos=photos, last_at=pred.at), _PENDING

    decision = _decide(anchor, photos, config)
    return _restart(pred.at), decision


def _decide(
    acoustic: ScenePrediction,
    photos: tuple[ScenePrediction, ...],
    config: FusionConfig,
) -> SceneDecision:
    votes = Counter(p.scene for p in photos)
    top = max(votes.values())
    winners = [scene for scene, count in votes.items() if count == top]
    if len(winners) != 1:
        return _NO_SCENE
    verdict = winners[0]
    if verdict != acoustic.scene:
        return _NO_SCENE
    majority = [p.confidence for p in photos if p.scene == verdict]
    visual_confidence = sum(majority) / len(majority)
    combined = (acoustic.confidence + visual_confidence) / 2.0
    if combined < config.min_combined_confidence:
        return _NO_SCENE
    return SceneDecision(kind=IDENTIFIED, scene=verdict, combined_confidence=combined)
