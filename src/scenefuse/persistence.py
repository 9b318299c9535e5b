"""Saving and loading trained state, plus the replay and pairs text formats.

A bundle file is a UTF-8 JSON header, one NUL byte, then a payload of
array bytes.  The header is a sorted, indented key/value tree in which
every array is one node, `{"shape": [...]}`; the payload holds each
array's entries as little-endian float64 bytes, concatenated in the order
the fields are walked, so no offset is stored and none can disagree.  JSON
text never holds a raw NUL, so the first one ends the header.  The schema
is the fields of the dataclasses themselves: `ModelBundle` and everything
it holds is written field by field under the field's own name, and read
back by walking the same type hints.  Arrays keep their bytes and every
other float is written with full repr precision, so a save/load round trip
reproduces every number exactly and classification behavior is preserved
bit for bit.  Only facts a command reads back and nothing else determines
are stored: a classifier is its centroid matrix, whose rows and columns
give its cluster count and width, the names of its clusters, a list
indexed by label, and the seed and scale it was trained with; the net's
hidden width is read off its weights.  A fit's inertia is printed by
`train`, not stored.  A classifier's modality is the slot that holds it,
`acoustic` or `visual`, and fixes the widths its centroids may have
(`check_width`).  Fusion settings are not stored: they come from the
`fuse` flags.  `save_bundle` alone writes `format_version` 7, the one
version `load_bundle` reads; older bundles are all JSON, with no NUL, and
are refused by their version.  The header stays editable by hand in an
editor that keeps every other byte as it was.  The reader ignores keys it
does not know and converts no value, so a hand-edited value must already
have the JSON type its field asks for.  Each array node takes 8 bytes per
entry of its shape from the front of what the payload has left; a node
that needs more bytes than remain, and bytes that no node takes, are
refused.  Whether those entries and the other floats are finite, and
whether the shapes fit together, is for the types that hold them.  A
bundle is written one array buffer at a time and read back into each
array straight from the file, so neither holds the file's bytes whole.
It is read from a regular file only, whose size tells what the payload
has left before an array is allocated; a pipe is refused.

Event scripts are tab-separated lines `at<TAB>kind<TAB>path` and action
pairs are lines `scene<TAB>action`; both allow `#` comments and blank lines.
Each line must build a `ScriptEvent` or `ActionExample`, and a script an
`EventScript`.  Every such file is read as UTF-8 text.  `read_file` and
`write_file` are the one place scenefuse opens a file, for these formats and
the CLI's WAV, PPM and CSV files alike; each refusal of a file starts with
its path, and every write lands whole or not at all.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .action_learning import ActionExample, ActionNet
from .errors import InputError, UsageError, check_range
from .scene_model import SceneClassifier

FORMAT_VERSION = 7
_HEADER_CHUNK = 1 << 16  # bytes read at a time while looking for the header's NUL

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
    """Everything one deployment needs, bundled for disk; a classifier's slot is its modality.

    Each slot holds what its type hint names, or None.
    """

    acoustic: SceneClassifier | None = None
    visual: SceneClassifier | None = None
    action: ActionNet | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _SLOT_TYPES[f.name]):
                raise UsageError(f"{f.name} must hold {f.type}, not {type(value).__name__}")
        for slot in MODALITIES:
            classifier = getattr(self, slot)
            if classifier is not None:
                check_width(slot, classifier.centroids.shape[1])


_SLOT_TYPES = get_type_hints(ModelBundle)  # resolved once, not per bundle


@dataclass(frozen=True)
class ScriptEvent:
    """One script line; UsageError for any event `parse_event_script` would refuse."""

    at: float
    kind: str  # "audio" | "image"
    path: str

    def __post_init__(self) -> None:
        check_range(self.at, "timestamp")
        if self.kind not in EVENT_KINDS:
            raise UsageError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        path = self.path  # one unpadded line without a tab; an empty path has no line at all
        if not isinstance(path, str) or path.strip().splitlines() != [path] or "\t" in path:
            raise UsageError(f"path {path!r} is not one line without tabs or outer whitespace")


@dataclass(frozen=True)
class EventScript:
    """Events in time order; UsageError for a time that decreases, so every script reads back."""

    events: tuple[ScriptEvent, ...]

    def __post_init__(self) -> None:
        events = self.events
        if not (type(events) is tuple and all(isinstance(e, ScriptEvent) for e in events)):
            raise UsageError("events must be a tuple of ScriptEvent")
        for i, (last, event) in enumerate(zip(events, events[1:]), start=2):
            if event.at < last.at:
                raise UsageError(f"event {i}: timestamp {event.at!r} decreases from {last.at!r}")


def read_file(path, parse):
    """`parse` of the file, opened for binary reads; InputError, naming `path`, on failure.

    `parse` reads what it needs from the open file, most parsers all of it
    with `.read()`.  A failure to open or read is refused as `cannot read`,
    and a refusal of what was read as the parser's own message.
    """
    try:
        handle = open(path, "rb")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        try:
            return parse(handle)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        except (InputError, UsageError) as exc:
            raise InputError(f"{path}: {exc}") from exc


def write_file(path, *chunks) -> None:
    """Write each bytes-like chunk in turn to `<path>.partial`, which then replaces `path`.

    InputError on failure, and a failed write leaves what `path` held as it
    was, and no partial file.
    """
    partial = f"{path}.partial"
    try:
        with open(partial, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(partial, path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        with contextlib.suppress(OSError, ValueError):
            os.remove(partial)
        raise InputError(f"cannot write {path}: {exc}") from exc


def _text(data: bytes) -> str:
    """`data` decoded as UTF-8; InputError if it is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text: {exc}") from exc


# --- bundles ---------------------------------------------------------------

@dataclass(frozen=True)
class _ArrayNode:
    """The header form of an `np.ndarray` field; its entries are in the payload."""

    shape: tuple[int, ...]


class _Payload:
    """The bytes after a bundle's header, read from the front, one array at a time."""

    def __init__(self, handle, left: int):
        self.handle = handle
        self.left = left  # bytes not yet read

    def take(self, count: int, what: str) -> np.ndarray:
        """The next `count` little-endian float64 entries, read into a new array.

        InputError, naming `what` wants them, if fewer bytes remain.
        """
        size = 8 * count
        if size > self.left:  # `size` may have more digits than Python will print
            raise InputError(f"{what} needs more than the {self.left} bytes left")
        entries = np.empty(count, "<f8")
        read = self.handle.readinto(memoryview(entries).cast("B"))
        if read != size:  # the file shrank since its size was read
            raise InputError(f"{what} needs more than the {read} bytes left")
        self.left -= size
        return entries


def _encode(value, payload: list):
    """The JSON form of a value: dataclasses become objects keyed by field name.

    An array becomes an `_ArrayNode`, and its little-endian float64 entries
    are appended to `payload`, so arrays follow one another in field order.
    """
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name), payload) for f in fields(value)}
    if isinstance(value, np.ndarray):
        payload.append(np.ascontiguousarray(value, "<f8"))
        return _encode(_ArrayNode(value.shape), payload)
    if isinstance(value, tuple):
        return [_encode(item, payload) for item in value]
    return value


def _decode(hint, raw, where: str, payload: _Payload | None):
    """Build a value of type `hint` from its JSON form `raw`, found at `where`.

    Arrays take their entries from `payload`, in field order, as `_encode`
    wrote them.  Raises InputError on a missing key, a value of the wrong
    JSON type, an array node the payload cannot fill, or a value the type's
    own constructor refuses, a float that is not finite among them.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # `X | None`
        (inner,) = (arg for arg in args if arg is not type(None))
        return None if raw is None else _decode(inner, raw, where, payload)
    if is_dataclass(hint):
        if not isinstance(raw, dict):
            raise InputError(f"{where} must be an object")
        hints = get_type_hints(hint)
        values = {}
        for f in fields(hint):
            if f.name not in raw:
                raise InputError(f"{where} is missing {f.name!r}")
            values[f.name] = _decode(hints[f.name], raw[f.name], f"{where}.{f.name}", payload)
        try:
            return hint(**values)
        except UsageError as exc:
            raise InputError(f"{where}: {exc}") from exc
    if hint is np.ndarray:
        return _decode_array(_decode(_ArrayNode, raw, where, payload), where, payload)
    if origin is tuple:  # `tuple[X, ...]`
        if not isinstance(raw, list):
            raise InputError(f"{where} must be a list")
        return tuple(
            _decode(args[0], item, f"{where}[{i}]", payload) for i, item in enumerate(raw)
        )
    if hint is float and type(raw) is int and abs(raw) <= sys.float_info.max:
        raw = float(raw)  # JSON has one number type, so a float field takes a whole number too
    if not isinstance(raw, hint) or (hint is int and isinstance(raw, bool)):
        raise InputError(f"{where} must be of type {hint.__name__}")
    return raw


def _decode_array(node: _ArrayNode, where: str, payload: _Payload) -> np.ndarray:
    """A writeable float64 array of `node`'s shape, from the payload's next 8 bytes per entry.

    Raises InputError for a negative dimension, a shape numpy cannot hold,
    or a shape that needs more bytes than the payload has left.
    """
    shape = list(node.shape)
    if any(n < 0 for n in shape):
        raise InputError(f"{where}.shape {shape} has a negative dimension")
    entries = payload.take(math.prod(shape), f"{where}.shape {shape}")
    try:  # native float64 already on a little-endian machine, so no copy there
        return entries.reshape(shape).astype(np.float64, copy=False)
    except ValueError as exc:  # over 64 dimensions, or one too large beside a zero
        raise InputError(f"{where}.shape {shape} is not one numpy can hold: {exc}") from exc


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write the bundle, header then payload, with `write_file`; InputError on write failure."""
    payload: list[np.ndarray] = []
    document = {**_encode(bundle, payload), "format_version": FORMAT_VERSION}
    header = json.dumps(document, indent=2, sort_keys=True) + "\n"
    # each array's buffer goes to the file as it is, with no joined copy of them all
    write_file(path, header.encode("utf-8"), b"\0", *payload)


def _parse_bundle(handle) -> ModelBundle:
    """The bundle in the open binary file `handle`: its header up to the NUL, then its arrays.

    Raises InputError for a file that is not a regular file, a header that
    is not UTF-8 JSON, of another format_version, not followed by a NUL
    byte, or not shaped like a bundle, and for a payload that holds fewer
    or more bytes than its array nodes take.
    """
    status = os.fstat(handle.fileno())
    if not stat.S_ISREG(status.st_mode):
        raise InputError("a bundle must be a regular file, not a pipe or device")
    header = bytearray()
    nul = -1
    while nul == -1 and (chunk := handle.read(_HEADER_CHUNK)):
        nul = chunk.find(b"\0")
        header += chunk if nul == -1 else chunk[:nul]
    try:  # a bundle of an older format has no NUL: it is all header, refused by its version
        document = json.loads(_text(header))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise InputError("bundle document must be a JSON object")
    version = _decode(int, document.get("format_version"), "bundle.format_version", None)
    if version != FORMAT_VERSION:
        raise InputError(f"this build reads only format_version {FORMAT_VERSION}, not {version}")
    if nul == -1:
        raise InputError("no NUL byte follows the JSON header")
    handle.seek(len(header) + 1)
    payload = _Payload(handle, status.st_size - len(header) - 1)
    bundle = _decode(ModelBundle, document, "bundle", payload)
    if payload.left:
        raise InputError(f"bundle payload holds {payload.left} bytes after its last array")
    return bundle


def load_bundle(path) -> ModelBundle:
    """Read a bundle back; InputError, naming the file, if it will not read or parse."""
    return read_file(path, _parse_bundle)


# --- event scripts and action pairs ----------------------------------------

def _tsv_rows(text: str, layout: str, build) -> list:
    """A list of `build(*fields)`, fields stripped, one per line that is not blank or `#`.

    Raises UsageError, naming the line, when a line does not have the
    fields `layout` names or `build` refuses them with UsageError.
    """
    width = layout.count("<TAB>") + 1
    rows = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw_line.split("\t")
        if len(parts) != width:
            raise UsageError(f"line {lineno}: expected {layout}")
        try:
            rows.append(build(*(part.strip() for part in parts)))
        except UsageError as exc:
            raise UsageError(f"line {lineno}: {exc}") from None
    return rows


def _event(at: str, kind: str, path: str) -> ScriptEvent:
    """The event of one script line; UsageError for a timestamp `float` cannot read."""
    try:
        return ScriptEvent(float(at), kind, path)
    except ValueError:  # only `float` raises it
        raise UsageError(f"bad timestamp {at!r}") from None


def parse_event_script(text: str) -> EventScript:
    """Parse `at<TAB>kind<TAB>path` lines into an EventScript.

    Raises UsageError for a line `_tsv_rows` refuses, naming the line, and
    for times that decrease (`EventScript`'s check), naming the event.
    """
    return EventScript(tuple(_tsv_rows(text, "at<TAB>kind<TAB>path", _event)))


def load_event_script(path) -> EventScript:
    return read_file(path, lambda handle: parse_event_script(_text(handle.read())))


def format_event_script(script: EventScript) -> str:
    lines = [f"{event.at!r}\t{event.kind}\t{event.path}" for event in script.events]
    return "\n".join(lines) + ("\n" if lines else "")


def load_pairs(path) -> list[ActionExample]:
    """Read `scene<TAB>action` lines into examples."""
    return read_file(
        path, lambda handle: _tsv_rows(_text(handle.read()), "scene<TAB>action", ActionExample)
    )
