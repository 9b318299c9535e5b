"""Saving and loading trained state, plus the replay and pairs text formats.

Bundles are UTF-8 JSON documents — a human-readable key/value tree with
arrays of decimal numbers.  The schema is the fields of the dataclasses
themselves: `ModelBundle` and everything it holds is written field by field
under the field's own name, and read back by walking the same type hints.
Floats are written with full repr precision, so a save/load round trip
reproduces every number exactly and classification behavior is preserved
bit for bit.  Only facts nothing else determines are stored: a
classifier's cluster count and width are read off its centroid matrix, its
final inertia off the end of `inertia_history`, and the net's hidden width
off its weights.  Cluster names are a list indexed by label.
`save_bundle` alone writes `format_version` 3; versions 1 and 2 still load
through `_upgrade`.  The reader ignores keys it does not know, such as the
nine that version 1 stored twice or that nothing read, and converts no
value, so a hand-edited value must already have the JSON type its field
asks for; only matrix entries go through NumPy's float conversion.

Event scripts are tab-separated lines `at<TAB>kind<TAB>path` and action
pairs are lines `scene<TAB>action`; both allow `#` comments and blank lines.
Script timestamps must never decrease and `kind` is `audio` or `image`.
Every file is read as UTF-8 text; one that is not raises SchemaError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .action_learning import ActionExample, ActionNet
from .errors import BadVersion, IoError, SchemaError, UsageError
from .features import MODALITIES
from .fusion import FusionConfig
from .scene_model import SceneClassifier

FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)

EVENT_KINDS = ("audio", "image")


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything one deployment needs, bundled for disk; each classifier in its own slot."""

    acoustic: SceneClassifier | None = None
    visual: SceneClassifier | None = None
    action: ActionNet | None = None
    fusion_config: FusionConfig = field(default_factory=FusionConfig)

    def __post_init__(self) -> None:
        for slot in MODALITIES:
            classifier = getattr(self, slot)
            if classifier is not None and classifier.modality != slot:
                raise ValueError(f"a {classifier.modality} classifier in the {slot} slot")


@dataclass(frozen=True)
class ScriptEvent:
    at: float
    kind: str  # "audio" | "image"
    path: str


@dataclass(frozen=True)
class EventScript:
    events: tuple[ScriptEvent, ...]


def _read_text(path, what: str) -> str:
    """The UTF-8 text of a file; IoError if unreadable, SchemaError if not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what} {path} is not UTF-8 text: {exc}") from exc


# --- bundles ---------------------------------------------------------------

def _encode(value):
    """The JSON form of a value: dataclasses become objects keyed by field name."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint, raw, where: str):
    """Build a value of type `hint` from its JSON form `raw`, found at `where`.

    Raises SchemaError on a missing key, a value of the wrong JSON type, a
    non-finite number, or a value the type's own constructor refuses.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # `X | None`
        (inner,) = (arg for arg in args if arg is not type(None))
        return None if raw is None else _decode(inner, raw, where)
    if is_dataclass(hint):
        if not isinstance(raw, dict):
            raise SchemaError(f"{where} must be an object")
        hints = get_type_hints(hint)
        values = {}
        for f in fields(hint):
            if f.name not in raw:
                raise SchemaError(f"{where} is missing {f.name!r}")
            values[f.name] = _decode(hints[f.name], raw[f.name], f"{where}.{f.name}")
        try:
            return hint(**values)
        except (ValueError, UsageError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    if hint is np.ndarray:
        try:
            matrix = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{where} is not a numeric matrix: {exc}") from exc
        if matrix.ndim != 2 or not np.isfinite(matrix).all():
            raise SchemaError(f"{where} must be a 2-D matrix of finite numbers")
        return matrix
    if origin is tuple:  # `tuple[X, ...]`
        if not isinstance(raw, list):
            raise SchemaError(f"{where} must be a list")
        return tuple(_decode(args[0], item, f"{where}[{i}]") for i, item in enumerate(raw))
    if hint is float:
        try:
            if isinstance(raw, (int, float)) and not isinstance(raw, bool) and math.isfinite(raw):
                return float(raw)
        except OverflowError:  # an integer too large for a float
            pass
        raise SchemaError(f"{where} must be a finite number")
    if not isinstance(raw, hint) or (hint is int and isinstance(raw, bool)):
        raise SchemaError(f"{where} must be of type {hint.__name__}")
    return raw


def _upgrade(document: dict) -> None:
    """Rewrite a version-1 or -2 document's classifiers in the version-3 layout.

    Those versions keep `seed` and `scale` in `model.params`, beside a `k`, and
    name clusters by an object keyed "0".."k-1"; other shapes raise SchemaError.
    """
    for slot in MODALITIES:
        classifier = document.get(slot)
        if classifier is None:
            continue
        try:
            params, names = classifier["model"]["params"], classifier["cluster_names"]
            classifier["seed"], classifier["scale"] = params["seed"], params["scale"]
            classifier["cluster_names"] = [names[str(label)] for label in range(len(names))]
        except (TypeError, KeyError) as exc:
            raise SchemaError(f"bundle.{slot} is not a version-1 or -2 classifier") from exc


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write the bundle as indented JSON.  Raises IoError on write failure."""
    document = {**_encode(bundle), "format_version": FORMAT_VERSION}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write bundle {path}: {exc}") from exc


def load_bundle(path) -> ModelBundle:
    """Read a bundle back.  Raises IoError, BadVersion, or SchemaError."""
    text = _read_text(path, "bundle")
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("bundle document must be a JSON object")
    version = _decode(int, document.get("format_version"), "bundle.format_version")
    if version not in _READABLE_VERSIONS:
        raise BadVersion(
            f"format_version {version} unsupported (expected one of {_READABLE_VERSIONS})"
        )
    if version < FORMAT_VERSION:
        _upgrade(document)
    return _decode(ModelBundle, document, "bundle")


# --- event scripts and action pairs ----------------------------------------

def _tsv_rows(text: str, layout: str):
    """(line number, stripped fields) for each line that is not blank or `#`.

    Raises SchemaError when a line does not have the fields `layout` names.
    """
    width = layout.count("<TAB>") + 1
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw_line.split("\t")
        if len(parts) != width:
            raise SchemaError(f"line {lineno}: expected {layout}")
        yield lineno, [part.strip() for part in parts]


def parse_event_script(text: str) -> EventScript:
    """Parse `at<TAB>kind<TAB>path` lines into an EventScript.

    Raises SchemaError on malformed lines, unknown kinds, or timestamps
    that are not finite or that decrease.
    """
    events: list[ScriptEvent] = []
    previous = float("-inf")
    for lineno, (at_text, kind, path) in _tsv_rows(text, "at<TAB>kind<TAB>path"):
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
    return parse_event_script(_read_text(path, "event script"))


def format_event_script(script: EventScript) -> str:
    lines = [f"{event.at!r}\t{event.kind}\t{event.path}" for event in script.events]
    return "\n".join(lines) + ("\n" if lines else "")


def load_pairs(path) -> list[ActionExample]:
    """Read `scene<TAB>action` lines into examples.  Errors name the file."""
    text = _read_text(path, "pairs file")
    pairs: list[ActionExample] = []
    try:
        for lineno, (scene, action) in _tsv_rows(text, "scene<TAB>action"):
            if not scene or not action:
                raise SchemaError(f"line {lineno}: empty field")
            pairs.append(ActionExample(scene_label=scene, action_code=action))
    except SchemaError as exc:
        raise SchemaError(f"{path} {exc}") from None
    return pairs
