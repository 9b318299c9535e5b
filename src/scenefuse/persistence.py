"""Saving and loading trained state, plus the fuse replay script format.

Bundles are UTF-8 JSON documents — a human-readable key/value tree with
arrays of decimal numbers.  Floats are written with full repr precision, so
a save/load round trip reproduces every number exactly and classification
behavior is preserved bit for bit.  `format_version` gates compatibility.

Event scripts are tab-separated lines `at<TAB>kind<TAB>path` with `#`
comments and blank lines allowed; timestamps must never decrease and `kind`
is `audio` or `image`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .action_learning import ActionNet
from .clustering import KMeansModel, KMeansParams
from .errors import BadVersion, IoError, SchemaError
from .features import MODALITIES
from .fusion import FusionConfig
from .scene_model import SceneClassifier

FORMAT_VERSION = 1

EVENT_KINDS = ("audio", "image")


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything one deployment needs, bundled for disk."""

    acoustic: SceneClassifier | None = None
    visual: SceneClassifier | None = None
    action: ActionNet | None = None
    fusion_config: FusionConfig = field(default_factory=FusionConfig)
    format_version: int = FORMAT_VERSION


@dataclass(frozen=True)
class ScriptEvent:
    at: float
    kind: str  # "audio" | "image"
    path: str


@dataclass(frozen=True)
class EventScript:
    events: tuple[ScriptEvent, ...]


# --- bundle writing --------------------------------------------------------

def _params_to_dict(params: KMeansParams) -> dict:
    return {
        "k": params.k,
        "max_iters": params.max_iters,
        "tol": params.tol,
        "seed": params.seed,
        "scale": params.scale,
        "n_init": params.n_init,
    }


def _classifier_to_dict(classifier: SceneClassifier) -> dict:
    model = classifier.model
    return {
        "modality": classifier.modality,
        "feature_dim": classifier.feature_dim,
        "cluster_names": {str(label): name for label, name in classifier.cluster_names.items()},
        "warnings": list(classifier.warnings),
        "model": {
            "centroids": model.centroids.tolist(),
            "dim": model.dim,
            "inertia": model.inertia,
            "inertia_history": list(model.inertia_history),
            "params": _params_to_dict(model.params),
        },
    }


def _net_to_dict(net: ActionNet) -> dict:
    return {
        "scene_vocab": list(net.scene_vocab),
        "action_vocab": list(net.action_vocab),
        "weights_ih": net.weights_ih.tolist(),
        "weights_ho": net.weights_ho.tolist(),
        "hidden_size": net.hidden_size,
        "learning_rate": net.learning_rate,
        "seed": net.seed,
    }


def _config_to_dict(config: FusionConfig) -> dict:
    return {
        "acoustic_visual_window_s": config.acoustic_visual_window_s,
        "photo_window_s": config.photo_window_s,
        "photos_required": config.photos_required,
        "min_combined_confidence": config.min_combined_confidence,
    }


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write the bundle as indented JSON.  Raises IoError on write failure."""
    document = {
        "format_version": bundle.format_version,
        "fusion_config": _config_to_dict(bundle.fusion_config),
        "acoustic": _classifier_to_dict(bundle.acoustic) if bundle.acoustic else None,
        "visual": _classifier_to_dict(bundle.visual) if bundle.visual else None,
        "action": _net_to_dict(bundle.action) if bundle.action else None,
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write bundle {path}: {exc}") from exc


# --- bundle reading --------------------------------------------------------

def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _need(mapping: dict, key: str, kind: type, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError(f"{where} is missing {key!r}")
    value = mapping[key]
    if kind is float:
        if not _is_finite_number(value):
            raise SchemaError(f"{where}.{key} must be a finite number")
        return float(value)
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise SchemaError(f"{where}.{key} must be an integer")
    if kind in (str, list, dict) and not isinstance(value, kind):
        raise SchemaError(f"{where}.{key} must be a {kind.__name__}")
    return value


def _params_from_dict(raw: dict, where: str) -> KMeansParams:
    try:
        return KMeansParams(
            k=_need(raw, "k", int, where),
            max_iters=_need(raw, "max_iters", int, where),
            tol=_need(raw, "tol", float, where),
            seed=_need(raw, "seed", int, where),
            scale=_need(raw, "scale", float, where),
            n_init=_need(raw, "n_init", int, where),
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _float_matrix(raw, where: str) -> np.ndarray:
    try:
        matrix = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where} is not a numeric matrix: {exc}") from exc
    if matrix.ndim != 2:
        raise SchemaError(f"{where} must be a 2-D matrix")
    if not np.isfinite(matrix).all():
        raise SchemaError(f"{where} holds a non-finite number")
    return matrix


def _classifier_from_dict(raw: dict, where: str) -> SceneClassifier:
    modality = _need(raw, "modality", str, where)
    if modality not in MODALITIES:
        raise SchemaError(f"{where}.modality {modality!r} is unknown")
    feature_dim = _need(raw, "feature_dim", int, where)
    model_raw = _need(raw, "model", dict, where)
    centroids = _float_matrix(_need(model_raw, "centroids", list, f"{where}.model"), f"{where}.model.centroids")
    params = _params_from_dict(_need(model_raw, "params", dict, f"{where}.model"), f"{where}.model.params")
    dim = _need(model_raw, "dim", int, f"{where}.model")
    if centroids.shape != (params.k, dim) or dim != feature_dim:
        raise SchemaError(
            f"{where}: centroid shape {centroids.shape} disagrees with "
            f"k={params.k}, dim={dim}, feature_dim={feature_dim}"
        )
    history = _need(model_raw, "inertia_history", list, f"{where}.model")
    if not all(_is_finite_number(v) for v in history):
        raise SchemaError(f"{where}.model.inertia_history must hold finite numbers")
    names_raw = _need(raw, "cluster_names", dict, where)
    try:
        cluster_names = {int(label): str(name) for label, name in names_raw.items()}
    except ValueError as exc:
        raise SchemaError(f"{where}.cluster_names keys must be integers") from exc
    if sorted(cluster_names) != list(range(params.k)):
        raise SchemaError(f"{where}.cluster_names must cover labels 0..{params.k - 1}")
    warnings = _need(raw, "warnings", list, where)
    try:
        model = KMeansModel(
            centroids=centroids,
            dim=dim,
            params=params,
            inertia=_need(model_raw, "inertia", float, f"{where}.model"),
            inertia_history=tuple(float(v) for v in history),
        )
    except ValueError as exc:
        raise SchemaError(f"{where}.model: {exc}") from exc
    return SceneClassifier(
        modality=modality,
        model=model,
        cluster_names=cluster_names,
        feature_dim=feature_dim,
        warnings=tuple(str(w) for w in warnings),
    )


def _net_from_dict(raw: dict, where: str) -> ActionNet:
    scene_vocab = tuple(str(v) for v in _need(raw, "scene_vocab", list, where))
    action_vocab = tuple(str(v) for v in _need(raw, "action_vocab", list, where))
    weights_ih = _float_matrix(_need(raw, "weights_ih", list, where), f"{where}.weights_ih")
    weights_ho = _float_matrix(_need(raw, "weights_ho", list, where), f"{where}.weights_ho")
    hidden_size = _need(raw, "hidden_size", int, where)
    if weights_ih.shape != (len(scene_vocab), hidden_size) or weights_ho.shape != (
        hidden_size,
        len(action_vocab),
    ):
        raise SchemaError(f"{where}: weight shapes disagree with the vocabularies")
    return ActionNet(
        scene_vocab=scene_vocab,
        action_vocab=action_vocab,
        weights_ih=weights_ih,
        weights_ho=weights_ho,
        hidden_size=hidden_size,
        learning_rate=_need(raw, "learning_rate", float, where),
        seed=_need(raw, "seed", int, where),
    )


def _config_from_dict(raw: dict) -> FusionConfig:
    try:
        return FusionConfig(
            acoustic_visual_window_s=_need(raw, "acoustic_visual_window_s", float, "fusion_config"),
            photo_window_s=_need(raw, "photo_window_s", float, "fusion_config"),
            photos_required=_need(raw, "photos_required", int, "fusion_config"),
            min_combined_confidence=_need(raw, "min_combined_confidence", float, "fusion_config"),
        )
    except ValueError as exc:
        raise SchemaError(f"fusion_config: {exc}") from exc


def load_bundle(path) -> ModelBundle:
    """Read a bundle back.  Raises IoError, BadVersion, or SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read bundle {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("bundle document must be a JSON object")
    version = _need(document, "format_version", int, "bundle")
    if version != FORMAT_VERSION:
        raise BadVersion(f"format_version {version} unsupported (expected {FORMAT_VERSION})")
    for key in ("fusion_config", "acoustic", "visual", "action"):
        if key not in document:
            raise SchemaError(f"bundle is missing {key!r}")
    acoustic = document["acoustic"]
    visual = document["visual"]
    action = document["action"]
    return ModelBundle(
        acoustic=_classifier_from_dict(acoustic, "acoustic") if acoustic is not None else None,
        visual=_classifier_from_dict(visual, "visual") if visual is not None else None,
        action=_net_from_dict(action, "action") if action is not None else None,
        fusion_config=_config_from_dict(document["fusion_config"]),
        format_version=version,
    )


# --- event scripts ---------------------------------------------------------

def parse_event_script(text: str) -> EventScript:
    """Parse `at<TAB>kind<TAB>path` lines into an EventScript.

    Raises SchemaError on malformed lines, unknown kinds, or timestamps
    that are not finite or that decrease.
    """
    events: list[ScriptEvent] = []
    previous = float("-inf")
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw_line.split("\t")
        if len(parts) != 3:
            raise SchemaError(f"line {lineno}: expected at<TAB>kind<TAB>path")
        at_text, kind, path = (part.strip() for part in parts)
        try:
            at = float(at_text)
        except ValueError:
            raise SchemaError(f"line {lineno}: bad timestamp {at_text!r}") from None
        if not math.isfinite(at):
            raise SchemaError(f"line {lineno}: timestamp {at_text!r} is not finite")
        if kind not in EVENT_KINDS:
            raise SchemaError(f"line {lineno}: kind must be one of {EVENT_KINDS}, got {kind!r}")
        if not path:
            raise SchemaError(f"line {lineno}: empty path")
        if at < previous:
            raise SchemaError(f"line {lineno}: timestamp {at} decreases")
        previous = at
        events.append(ScriptEvent(at=at, kind=kind, path=path))
    return EventScript(events=tuple(events))


def load_event_script(path) -> EventScript:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read event script {path}: {exc}") from exc
    return parse_event_script(text)


def format_event_script(script: EventScript) -> str:
    lines = [f"{event.at!r}\t{event.kind}\t{event.path}" for event in script.events]
    return "\n".join(lines) + ("\n" if lines else "")
