"""Timed fusion of acoustic and visual scene predictions.

The machine idles until an acoustic prediction arrives, which opens a
30-second window for visual confirmation.  Photos landing inside that
window — and within 20 seconds of the first photo — accumulate until
`photos_required` of them are in hand.  The photos then vote: a unique
majority scene that matches the acoustic scene yields an identification
whose combined confidence is the mean of the acoustic confidence and the
mean confidence of the majority photos.  Anything else — a vote tie, a
disagreement with the acoustic scene, a photo past either window, or the
window expiring under a tick — resolves to "no scene" with a combined
confidence of exactly 0, and the machine restarts.

The state is the pending acoustic anchor (None while idle), its photos and
the clock; both windows are read from the config each call is given.

Time is injected by the caller through event timestamps and tick() and must
be finite and never run backward; a stale or non-finite timestamp raises
ClockSkew.  All three operations return a fresh state, leaving their
argument untouched.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

from .errors import ClockSkew, ModalityMismatch, UsageError
from .features import ACOUSTIC, VISUAL
from .scene_model import ScenePrediction

IDENTIFIED = "identified"
NO_SCENE = "no_scene"
PENDING = "pending"


@dataclass(frozen=True)
class FusionConfig:
    acoustic_visual_window_s: float = 30.0
    photo_window_s: float = 20.0
    photos_required: int = 3
    min_combined_confidence: float = 0.0

    def __post_init__(self) -> None:
        windows = (self.acoustic_visual_window_s, self.photo_window_s)
        if not all(math.isfinite(w) and w > 0.0 for w in windows):
            raise UsageError("windows must be finite and positive")
        if self.photo_window_s > self.acoustic_visual_window_s:
            raise UsageError("photo window cannot exceed the acoustic-visual window")
        if self.photos_required < 1:
            raise UsageError("photos_required must be at least 1")
        if not (0.0 <= self.min_combined_confidence <= 100.0):
            raise UsageError("min_combined_confidence must lie in [0, 100]")


@dataclass(frozen=True, slots=True)
class SceneDecision:
    kind: str  # IDENTIFIED | NO_SCENE | PENDING
    scene: str | None = None
    combined_confidence: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == IDENTIFIED:
            if not self.scene or not (0.0 <= self.combined_confidence <= 100.0):
                raise UsageError("identification needs a scene and a confidence")
        elif self.kind in (NO_SCENE, PENDING):
            if self.scene is not None or self.combined_confidence != 0.0:
                raise UsageError(f"{self.kind} decisions carry no scene and confidence 0")
        else:
            raise UsageError(f"unknown decision kind {self.kind!r}")


_PENDING = SceneDecision(kind=PENDING)
_NO_SCENE = SceneDecision(kind=NO_SCENE)


@dataclass(frozen=True, slots=True)
class FusionState:
    pending_acoustic: ScenePrediction | None = None
    photos: tuple[ScenePrediction, ...] = ()
    last_at: float = float("-inf")


def initial_state() -> FusionState:
    return FusionState()


def _check_clock(state: FusionState, at: float) -> None:
    if not math.isfinite(at):
        raise ClockSkew(f"timestamp {at} is not finite")
    if at < state.last_at:
        raise ClockSkew(f"timestamp {at} precedes already-seen {state.last_at}")


def _restart(at: float) -> FusionState:
    return FusionState(last_at=at)


def _deadline(anchor: ScenePrediction, config: FusionConfig) -> float:
    return anchor.at + config.acoustic_visual_window_s


def on_acoustic(
    state: FusionState, pred: ScenePrediction, config: FusionConfig
) -> tuple[FusionState, SceneDecision]:
    """An acoustic prediction opens (or reopens) the visual window.

    A newer acoustic prediction always replaces an in-flight one — the
    latest anchor wins and any collected photos are dropped.  `config` is
    not read: photos and ticks check the window, so the three operations
    keep one signature.
    """
    if pred.modality != ACOUSTIC:
        raise ModalityMismatch(f"on_acoustic got a {pred.modality} prediction")
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
    if pred.modality != VISUAL:
        raise ModalityMismatch(f"on_visual_photo got a {pred.modality} prediction")
    _check_clock(state, pred.at)
    anchor = state.pending_acoustic
    if anchor is None:
        return replace(state, last_at=pred.at), _PENDING
    if pred.at > _deadline(anchor, config):
        return _restart(pred.at), _NO_SCENE
    if state.photos and pred.at > state.photos[0].at + config.photo_window_s:
        return _restart(pred.at), _NO_SCENE

    photos = state.photos + (pred,)
    if len(photos) < config.photos_required:
        return replace(state, photos=photos, last_at=pred.at), _PENDING

    decision = _decide(anchor, photos, config)
    return _restart(pred.at), decision


def tick(
    state: FusionState, now: float, config: FusionConfig
) -> tuple[FusionState, SceneDecision]:
    """Advance the clock; expire the visual window if its deadline passed."""
    _check_clock(state, now)
    anchor = state.pending_acoustic
    if anchor is not None and now > _deadline(anchor, config):
        return _restart(now), _NO_SCENE
    return replace(state, last_at=now), _PENDING


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
