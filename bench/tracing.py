"""Spans recorded from outside the program, by wrapping layer boundaries.

Nothing under `src/` knows about tracing.  `install_layer_spans` replaces
the public functions at each layer boundary with wrappers that open a span
around the call: the names `scenefuse.cli` binds, plus `clustering.fit` and
`clustering.predict`, which `vision_pipeline` and `scene_model` reach
through the module attribute.  `Tracer.uninstall` puts the originals back.

Spans are kept in memory and written out by the caller when the run ends.
The program is single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from corpus import distinct_colors

# Each traced function and the stats reported for it.
LAYER_STATS = {
    "audio_pipeline.decode_wav": ("calls", "self_s"),
    "audio_pipeline.analysis_window": ("calls", "self_s"),
    "audio_pipeline.magnitude_spectrum": ("calls", "self_s"),
    "audio_pipeline.acoustic_features": ("calls", "self_s"),
    "vision_pipeline.decode_ppm": ("calls", "self_s"),
    "vision_pipeline.dominant_colors": ("calls", "self_s", "p50_ms", "p90_ms"),
    "vision_pipeline.palette_features": ("calls", "self_s"),
    "clustering.fit": ("calls", "self_s", "p50_ms", "p90_ms"),
    "clustering.predict": ("calls", "self_s"),
    "scene_model.train_classifier": ("calls", "self_s"),
    "scene_model.classify": ("calls", "self_s", "p50_ms"),
    "fusion.on_acoustic": ("calls", "self_s"),
    "fusion.on_visual_photo": ("calls", "self_s"),
    "action_learning.train_actions": ("calls", "self_s"),
    "persistence.save_bundle": ("calls", "self_s"),
    "persistence.load_bundle": ("calls", "self_s"),
    "persistence.load_event_script": ("self_s",),
}
# Everything but clustering is wrapped where `scenefuse.cli` binds it.
CLI_BOUNDARIES = tuple(
    name.split(".")[1] for name in LAYER_STATS if not name.startswith("clustering.")
)
# CLI commands whose whole-command time is reported as cli.<name>.s
CLI_COMMANDS = ("train", "fuse", "action_train")
MAX_SAMPLED_PIXELS = 10000  # dominant_colors' documented subsample cap

UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms"}


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('scenefuse.')}.{fn.__name__}"


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, command index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.photos: list[np.ndarray] = []
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = [
            len(self.spans),
            name,
            time.perf_counter() - self._t0,
            None,
            self._stack[-1] if self._stack else None,
            self.command,
        ]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = time.perf_counter() - self._t0
            self._stack.pop()

    def wrap(self, module, attr: str, after=None) -> None:
        """Replace module.attr with a span-recording wrapper.

        `after(args, result)` updates counters outside the span; its few
        microseconds count toward the caller's self time.
        """
        original = getattr(module, attr)
        name = _span_name(original)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "command")
        return [dict(zip(keys, record)) for record in self.spans]


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI reaches, with its counters."""
    from scenefuse import cli, clustering
    from scenefuse.fusion import NO_SCENE, IDENTIFIED, PENDING

    count = tracer.counters

    def wav_bytes(args, _result):
        count["audio_pipeline.wav_bytes"] += len(args[0])

    def photo_seen(args, _result):
        tracer.photos.append(args[0].pixels)

    def fit_size(args, _result):
        points = np.asarray(args[0])
        count["clustering.fit.nkd"] += points.shape[0] * args[1].k * points.shape[1]

    def decision(args, result):
        kind = result[1].kind
        count["fusion.identified"] += kind == IDENTIFIED
        count["fusion.no_scene"] += kind == NO_SCENE
        if kind != PENDING and args[0].pending_acoustic is not None:
            count["fusion.anchors_decided"] += 1

    def iterations(args, _result):
        count["action_learning.iterations"] += args[1]

    def file_bytes(key, index):
        def after(args, _result):
            count[key] += os.path.getsize(args[index])

        return after

    hooks = {
        "decode_wav": wav_bytes,
        "dominant_colors": photo_seen,
        "on_acoustic": decision,
        "on_visual_photo": decision,
        "train_actions": iterations,
        "save_bundle": file_bytes("persistence.save_bundle.bytes", 1),
        "load_bundle": file_bytes("persistence.load_bundle.bytes", 0),
    }
    for attr in CLI_BOUNDARIES:
        tracer.wrap(cli, attr, hooks.get(attr))
    tracer.wrap(clustering, "fit", fit_size)
    tracer.wrap(clustering, "predict")


def _percentile_ms(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return 1000.0 * (durations[0] if durations else 0.0)
    return 1000.0 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [record[3] - record[2] for record in spans]
    for record in spans:
        if record[4] is not None:
            own[record[4]] -= record[3] - record[2]
    return own


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit), every name always present."""
    own = self_times(tracer.spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    for record, mine in zip(tracer.spans, own):
        durations[record[1]].append(record[3] - record[2])
        self_s[record[1]] += mine

    out: dict[str, tuple[float, str]] = {}
    for name, stats in LAYER_STATS.items():
        values = {
            "calls": float(len(durations[name])),
            "self_s": self_s[name],
            "p50_ms": _percentile_ms(durations[name], 50),
            "p90_ms": _percentile_ms(durations[name], 90),
        }
        for stat in stats:
            out[f"{name}.{stat}"] = (values[stat], UNITS[stat])

    count = tracer.counters
    sampled = distinct = 0
    for pixels in tracer.photos:
        stride = -(-pixels.shape[0] // MAX_SAMPLED_PIXELS)
        sample = pixels[::stride]
        sampled += sample.shape[0]
        distinct += distinct_colors(sample)
    out["audio_pipeline.wav_bytes"] = (count["audio_pipeline.wav_bytes"], "bytes")
    out["vision_pipeline.sampled_pixels"] = (float(sampled), "count")
    out["vision_pipeline.distinct_colors"] = (float(distinct), "count")
    out["clustering.fit.nkd"] = (count["clustering.fit.nkd"], "count")
    out["fusion.identified"] = (count["fusion.identified"], "count")
    out["fusion.no_scene"] = (count["fusion.no_scene"], "count")
    anchors = len(durations["fusion.on_acoustic"])
    out["fusion.anchor_decided_share"] = (
        count["fusion.anchors_decided"] / anchors if anchors else 0.0,
        "ratio",
    )
    busy = sum(durations["action_learning.train_actions"])
    out["action_learning.iterations_per_s"] = (
        count["action_learning.iterations"] / busy if busy else 0.0,
        "1/s",
    )
    out["persistence.save_bundle.bytes"] = (count["persistence.save_bundle.bytes"], "bytes")
    out["persistence.load_bundle.bytes"] = (count["persistence.load_bundle.bytes"], "bytes")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (float(sum(durations[f"cli.{command}"])), "s")
    out["cli.self_s"] = (
        sum(mine for record, mine in zip(tracer.spans, own) if record[1].startswith("cli.")),
        "s",
    )
    return out


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: a child outside its parent, a negative self time."""
    problems = []
    for record in spans:
        parent = record[4]
        if parent is not None:
            p = spans[parent]
            if record[2] < p[2] or record[3] > p[3] or record[5] != p[5]:
                problems.append(f"span {record[0]} {record[1]} escapes parent {p[1]}")
    for record, mine in zip(spans, self_times(spans)):
        if mine < -1e-9:  # allow float rounding when children fill their parent
            problems.append(f"span {record[0]} {record[1]} has negative self time")
    return problems
