"""Saving and loading trained state, plus the replay and pairs text formats.

Bundles are UTF-8 JSON documents: a sorted, indented key/value tree in
which every array is one node, `{"shape": [...], "base64": "..."}`, its
entries the base64 of their little-endian float64 bytes.  The schema is the
fields of the dataclasses themselves: `ModelBundle` and everything it holds
is written field by field under the field's own name, and read back by
walking the same type hints.  Arrays keep their bytes and every other float
is written with full repr precision, so a save/load round trip reproduces
every number exactly and classification behavior is preserved bit for bit.
Only facts nothing else determines are stored: a classifier's cluster
count and width are read off its centroid matrix, its final inertia off the
end of `inertia_history`, and the net's hidden width off its weights.
Cluster names are a list indexed by label.  A classifier's modality is the
slot that holds it, `acoustic` or `visual`, and fixes the widths its
centroids may have (`check_width`).  Fusion settings are not stored: they
come from the `fuse` flags.  `save_bundle` alone writes
`format_version` 5, the one version `load_bundle` reads.  The reader
ignores keys it does not know and converts no value, so a hand-edited value
must already have the JSON type its field asks for; an array node must hold
exactly 8 bytes per entry of its shape.  Whether those entries are finite,
and whether the shapes fit together, is for the types that hold them.

Event scripts are tab-separated lines `at<TAB>kind<TAB>path` and action
pairs are lines `scene<TAB>action`; both allow `#` comments and blank lines.
Script timestamps must never decrease and `kind` is `audio` or `image`.
Every file is read as UTF-8 text; one that is not raises InputError, as
does a file that breaks its format, with the refusal naming the file.
`read_bytes` is the one place scenefuse opens a file for reading, for
these formats and for the CLI's WAV and PPM inputs alike.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .action_learning import ActionExample, ActionNet
from .errors import InputError, UsageError
from .scene_model import SceneClassifier

FORMAT_VERSION = 5

ACOUSTIC = "acoustic"
VISUAL = "visual"
MODALITIES = (ACOUSTIC, VISUAL)

EVENT_KINDS = ("audio", "image")


def check_width(modality: str, width: int) -> None:
    """Refuse, with UsageError, a width that no `modality` vector can have.

    Acoustic vectors are a spectrum's frequencies followed by its amplitudes,
    so their length is even (2n for an n-bin spectrum).  Visual vectors are
    flattened dominant-color triples, length 3C.  Neither is ever empty.
    """
    step = 2 if modality == ACOUSTIC else 3
    if not width or width % step:
        raise UsageError(f"{modality} width {width} is not a positive multiple of {step}")


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Everything one deployment needs, bundled for disk; a classifier's slot is its modality."""

    acoustic: SceneClassifier | None = None
    visual: SceneClassifier | None = None
    action: ActionNet | None = None

    def __post_init__(self) -> None:
        for slot in MODALITIES:
            classifier = getattr(self, slot)
            if classifier is not None:
                check_width(slot, classifier.model.dim)


@dataclass(frozen=True)
class ScriptEvent:
    """One script line; UsageError for any event `parse_event_script` would refuse, order aside."""

    at: float
    kind: str  # "audio" | "image"
    path: str

    def __post_init__(self) -> None:
        if not (type(self.at) in (int, float) and abs(self.at) <= sys.float_info.max):
            raise UsageError(f"timestamp {self.at!r} is not a finite number")
        if self.kind not in EVENT_KINDS:
            raise UsageError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        path = self.path  # one unpadded line without a tab; an empty path has no line at all
        if not isinstance(path, str) or path.strip().splitlines() != [path] or "\t" in path:
            raise UsageError(f"path {path!r} is not one line without tabs or outer whitespace")


@dataclass(frozen=True)
class EventScript:
    events: tuple[ScriptEvent, ...]


def read_bytes(path, what: str = "") -> bytes:
    """The bytes of the file at `path`; InputError, calling it a `what` if given, when unreadable."""
    name = f"{what} {path}" if what else path
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot read {name}: {exc}") from exc


def _read_text(path, what: str) -> str:
    """The UTF-8 text of a file; InputError if it is unreadable or not UTF-8."""
    try:
        return read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not UTF-8 text: {exc}") from exc


# --- bundles ---------------------------------------------------------------

@dataclass(frozen=True)
class _ArrayNode:
    """The bundle form of an `np.ndarray` field: base64 of its little-endian float64 bytes."""

    shape: tuple[int, ...]
    base64: str


def _encode(value):
    """The JSON form of a value: dataclasses become objects keyed by field name."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, "<f8").tobytes()
        return _encode(_ArrayNode(value.shape, base64.b64encode(data).decode("ascii")))
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint, raw, where: str):
    """Build a value of type `hint` from its JSON form `raw`, found at `where`.

    Raises InputError on a missing key, a value of the wrong JSON type, a
    non-finite number, an array node whose bytes do not fit its shape, or a
    value the type's own constructor refuses.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # `X | None`
        (inner,) = (arg for arg in args if arg is not type(None))
        return None if raw is None else _decode(inner, raw, where)
    if is_dataclass(hint):
        if not isinstance(raw, dict):
            raise InputError(f"{where} must be an object")
        hints = get_type_hints(hint)
        values = {}
        for f in fields(hint):
            if f.name not in raw:
                raise InputError(f"{where} is missing {f.name!r}")
            values[f.name] = _decode(hints[f.name], raw[f.name], f"{where}.{f.name}")
        try:
            return hint(**values)
        except UsageError as exc:
            raise InputError(f"{where}: {exc}") from exc
    if hint is np.ndarray:
        return _decode_array(_decode(_ArrayNode, raw, where), where)
    if origin is tuple:  # `tuple[X, ...]`
        if not isinstance(raw, list):
            raise InputError(f"{where} must be a list")
        return tuple(_decode(args[0], item, f"{where}[{i}]") for i, item in enumerate(raw))
    if hint is float:
        try:
            if isinstance(raw, (int, float)) and not isinstance(raw, bool) and math.isfinite(raw):
                return float(raw)
        except OverflowError:  # an integer too large for a float
            pass
        raise InputError(f"{where} must be a finite number")
    if not isinstance(raw, hint) or (hint is int and isinstance(raw, bool)):
        raise InputError(f"{where} must be of type {hint.__name__}")
    return raw


def _decode_array(node: _ArrayNode, where: str) -> np.ndarray:
    """The writeable float64 array `node` holds; InputError if its bytes do not fit its shape."""
    shape = list(node.shape)
    if any(n < 0 for n in shape):
        raise InputError(f"{where}.shape {shape} has a negative dimension")
    try:
        data = base64.b64decode(node.base64, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise InputError(f"{where}.base64 is not base64: {exc}") from exc
    if len(data) != 8 * math.prod(shape):
        raise InputError(f"{where} holds {len(data)} bytes, not 8 per entry of shape {shape}")
    try:
        return np.frombuffer(data, "<f8").reshape(shape).astype(np.float64)
    except ValueError as exc:  # over 64 dimensions, or one too large beside a zero
        raise InputError(f"{where}.shape {shape} is not one numpy can hold: {exc}") from exc


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write the bundle as indented JSON.  Raises InputError on write failure.

    The text goes to `<path>.partial`, which then replaces `path` whole, so
    a failed write leaves the bundle it was merging into as it was.
    """
    document = {**_encode(bundle), "format_version": FORMAT_VERSION}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(partial, path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        with contextlib.suppress(OSError, ValueError):
            os.remove(partial)
        raise InputError(f"cannot write bundle {path}: {exc}") from exc


def load_bundle(path) -> ModelBundle:
    """Read a bundle back.

    Raises InputError for a file that is unreadable, not JSON, of another
    format_version, or not shaped like a bundle.
    """
    text = _read_text(path, "bundle")
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise InputError("bundle document must be a JSON object")
    version = _decode(int, document.get("format_version"), "bundle.format_version")
    if version != FORMAT_VERSION:
        raise InputError(f"this build reads only format_version {FORMAT_VERSION}, not {version}")
    return _decode(ModelBundle, document, "bundle")


# --- event scripts and action pairs ----------------------------------------

def _tsv_rows(text: str, layout: str):
    """(line number, stripped fields) for each line that is not blank or `#`.

    Raises InputError when a line does not have the fields `layout` names.
    """
    width = layout.count("<TAB>") + 1
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw_line.split("\t")
        if len(parts) != width:
            raise InputError(f"line {lineno}: expected {layout}")
        yield lineno, [part.strip() for part in parts]


def parse_event_script(text: str) -> EventScript:
    """Parse `at<TAB>kind<TAB>path` lines into an EventScript.

    Raises InputError, naming the line, on malformed lines, timestamps that
    do not parse or that decrease, and any event `ScriptEvent` refuses.
    """
    events: list[ScriptEvent] = []
    for lineno, (at_text, kind, path) in _tsv_rows(text, "at<TAB>kind<TAB>path"):
        try:
            event = ScriptEvent(float(at_text), kind, path)
        except ValueError:  # only `float` raises it
            raise InputError(f"line {lineno}: bad timestamp {at_text!r}") from None
        except UsageError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        if events and event.at < events[-1].at:
            raise InputError(f"line {lineno}: timestamp {event.at} decreases")
        events.append(event)
    return EventScript(events=tuple(events))


def _load(path, what: str, parse):
    """`parse` of the text of the file at `path`, with any refusal of the text naming the file."""
    text = _read_text(path, what)
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path} {exc}") from None


def load_event_script(path) -> EventScript:
    return _load(path, "event script", parse_event_script)


def format_event_script(script: EventScript) -> str:
    lines = [f"{event.at!r}\t{event.kind}\t{event.path}" for event in script.events]
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_pairs(text: str) -> list[ActionExample]:
    pairs: list[ActionExample] = []
    for lineno, (scene, action) in _tsv_rows(text, "scene<TAB>action"):
        if not scene or not action:
            raise InputError(f"line {lineno}: empty field")
        pairs.append(ActionExample(scene_label=scene, action_code=action))
    return pairs


def load_pairs(path) -> list[ActionExample]:
    """Read `scene<TAB>action` lines into examples."""
    return _load(path, "pairs file", _parse_pairs)
