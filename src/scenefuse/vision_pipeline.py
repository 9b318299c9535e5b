"""Visual half of the recognizer: PPM ingestion and dominant colors.

Binary P6 images (maxval 255) come in as flat RGB pixel rows.  Dominant
colors are found by clustering a deterministically strided subsample of the
pixels; the palette is ordered by weight, heaviest first, with exact weight
ties broken by ascending (r, g, b).  Palette features are the flattened
color triples alone — weights order the palette but do not enter the vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import clustering
from .errors import (
    BadHeader,
    BadMagic,
    BadSpec,
    DegenerateImage,
    TruncatedPixelData,
    UnsupportedMaxval,
    UsageError,
)
from .features import VISUAL, FeatureVector

_MAX_SAMPLED_PIXELS = 10000
_WHITESPACE = b" \t\n\r\x0b\x0c"


@dataclass(frozen=True, eq=False)
class Image:
    """Row-major RGB pixels, one byte per channel."""

    width: int
    height: int
    pixels: np.ndarray  # shape (width*height, 3), dtype uint8

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise UsageError("image dimensions must be positive")
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint8:
            as_int = np.asarray(pixels, dtype=np.int64)
            if as_int.size and (as_int.min() < 0 or as_int.max() > 255):
                raise UsageError("channel values must lie in [0, 255]")
            pixels = as_int.astype(np.uint8)
        if pixels.ndim != 2 or pixels.shape != (self.width * self.height, 3):
            raise UsageError("pixels must be a (width*height, 3) array")
        object.__setattr__(self, "pixels", pixels)


@dataclass(frozen=True)
class PaletteEntry:
    color: tuple[float, float, float]
    weight: float


@dataclass(frozen=True, eq=False)
class ColorPalette:
    """Dominant colors ordered heaviest-first; weights sum to 1."""

    entries: tuple[PaletteEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise UsageError("palette needs at least one entry")
        for e in self.entries:
            if not (0.0 < e.weight <= 1.0):
                raise UsageError(f"weight {e.weight} outside (0, 1]")
        if abs(sum(e.weight for e in self.entries) - 1.0) > 1e-9:
            raise UsageError("weights must sum to 1")
        keys = [(-e.weight,) + e.color for e in self.entries]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise UsageError("entries must descend by weight, ties ascending by color")


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        byte = data[pos]
        if byte in _WHITESPACE:
            pos += 1
        elif byte == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    if start == pos:
        raise BadHeader("header ended early")
    return data[start:pos], pos


def _parse_int_field(token: bytes, what: str) -> int:
    if not all(0x30 <= b <= 0x39 for b in token):  # never empty: see _read_token
        raise BadHeader(f"{what} field {token!r} is not a plain decimal number")
    return int(token)


def decode_ppm(data: bytes) -> Image:
    """Parse binary P6 bytes (maxval 255) into an Image.

    The payload length must equal width*height*3 exactly; both short and
    overlong payloads are rejected, so any header mutation that survives
    parsing still fails the size check.

    Raises: BadMagic, BadHeader, UnsupportedMaxval, TruncatedPixelData.
    """
    if data[0:2] != b"P6":
        raise BadMagic("not a binary P6 image")
    pos = 2
    token, pos = _read_token(data, pos)
    width = _parse_int_field(token, "width")
    token, pos = _read_token(data, pos)
    height = _parse_int_field(token, "height")
    token, pos = _read_token(data, pos)
    maxval = _parse_int_field(token, "maxval")
    if width < 1 or height < 1:
        raise BadHeader(f"dimensions {width}x{height} are not positive")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval must be 255, got {maxval}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise BadHeader("maxval must be followed by a single whitespace byte")
    pos += 1
    payload = data[pos:]
    expected = width * height * 3
    if len(payload) != expected:
        raise TruncatedPixelData(
            f"expected {expected} pixel bytes, found {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
    return Image(width=width, height=height, pixels=pixels)


def encode_ppm(image: Image) -> bytes:
    """Write an Image back to binary P6 with maxval 255."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def dominant_colors(image: Image, c: int, seed: int = 0) -> ColorPalette:
    """Cluster a pixel subsample into the image's c dominant colors, fitted from `seed`.

    Subsampling strides the row-major pixels so at most 10000 survive; the
    stride is a pure function of the pixel count, no randomness.  Weights
    are the fraction of subsampled pixels each cluster owns.

    Raises DegenerateImage when the subsample has fewer than c distinct
    colors.
    """
    total = image.pixels.shape[0]
    stride = -(-total // _MAX_SAMPLED_PIXELS)  # ceil
    sample = image.pixels[::stride]
    if np.unique(sample, axis=0).shape[0] < c:
        raise DegenerateImage(f"fewer than {c} distinct colors to separate")

    points = sample.astype(np.float64)
    model, labels, _ = clustering.fit(points, clustering.KMeansParams(k=c, seed=seed))
    counts = np.bincount(labels, minlength=c)
    weights = counts / counts.sum()

    entries = [
        PaletteEntry(
            color=tuple(float(ch) for ch in model.centroids[i]),
            weight=float(weights[i]),
        )
        for i in range(c)
    ]
    entries.sort(key=lambda e: (-e.weight,) + e.color)
    return ColorPalette(entries=tuple(entries))


def palette_features(palette: ColorPalette) -> FeatureVector:
    """Flatten the palette's colors, in palette order, into a visual vector."""
    flat = [channel for entry in palette.entries for channel in entry.color]
    return FeatureVector(values=np.asarray(flat, dtype=np.float64), modality=VISUAL)


PaletteSpec = Sequence[tuple[tuple[int, int, int], float]]


def synth_scene_image(palette_spec: PaletteSpec, width: int, height: int) -> Image:
    """Render a synthetic scene as contiguous row-major color blocks.

    Pixel counts follow the requested fractions to within one pixel
    (largest-remainder rounding, ties to the earlier entry).  The layout is
    fully determined by the spec and dimensions.

    Raises BadSpec for an empty spec, out-of-range colors or fractions, or
    fractions that do not sum to 1.
    """
    spec = list(palette_spec)  # an empty one fails the sum check
    if width < 1 or height < 1:
        raise BadSpec("image dimensions must be positive")
    for color, fraction in spec:
        if len(color) != 3 or any(not (0 <= int(ch) <= 255) for ch in color):
            raise BadSpec(f"color {color!r} is not an RGB triple in [0, 255]")
        if not fraction >= 0.0:  # NaN too: it would pass the sum check
            raise BadSpec(f"negative fraction {fraction}")
    if abs(sum(fraction for _, fraction in spec) - 1.0) > 1e-9:
        raise BadSpec("fractions must sum to 1")

    total = width * height
    raw = [fraction * total for _, fraction in spec]
    counts = [int(r) for r in raw]
    shortfall = total - sum(counts)
    by_remainder = sorted(range(len(spec)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in by_remainder[:shortfall]:
        counts[i] += 1

    colors = np.asarray([color for color, _ in spec], dtype=np.uint8)
    pixels = np.repeat(colors, counts, axis=0)
    return Image(width=width, height=height, pixels=pixels)
