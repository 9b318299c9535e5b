"""Visual half of the recognizer: PPM ingestion and dominant colors.

Binary P6 images (maxval 255) come in as flat RGB pixel rows.  Dominant
colors are found by clustering a deterministically strided subsample of the
pixels; the palette is a (c, 3) array of centroid rows, heaviest first,
where a row's weight is the number of subsampled pixels its cluster owns.
Exact weight ties are broken by ascending (r, g, b).  Weights only order
the rows: palette features are the flattened color triples alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import clustering
from .errors import InputError, UsageError, check_array, check_array_size, check_int, check_range

_MAX_SAMPLED_PIXELS = 10000
_WHITESPACE = b" \t\n\r\x0b\x0c"


@dataclass(frozen=True, eq=False)
class Image:
    """Row-major RGB pixels, one byte per channel.

    The fields are checked, never converted: sizes by `errors.check_int`,
    and pixels that are not a (width*height, 3) uint8 array are refused.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        check_int(self.width, 1, "width")
        check_int(self.height, 1, "height")
        check_array(self.pixels, "pixels", np.uint8, 2)
        if self.pixels.shape != (self.width * self.height, 3):
            raise UsageError(f"pixels must have shape (width*height, 3), not {self.pixels.shape}")


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
        raise InputError("header ended early")
    return data[start:pos], pos


def _parse_int_field(token: bytes, what: str) -> int:
    if not all(0x30 <= b <= 0x39 for b in token):  # never empty: see _read_token
        raise InputError(f"{what} field {token!r} is not a plain decimal number")
    return int(token)


def decode_ppm(data: bytes) -> Image:
    """Parse binary P6 bytes (maxval 255) into an Image.

    The payload length must equal width*height*3 exactly; both short and
    overlong payloads are rejected, so any header mutation that survives
    parsing still fails the size check.

    Raises InputError for a magic other than P6, a header that is unparseable
    or names non-positive dimensions, a maxval other than 255, or a payload
    of the wrong length.
    """
    if data[0:2] != b"P6":
        raise InputError("not a binary P6 image")
    pos = 2
    token, pos = _read_token(data, pos)
    width = _parse_int_field(token, "width")
    token, pos = _read_token(data, pos)
    height = _parse_int_field(token, "height")
    token, pos = _read_token(data, pos)
    maxval = _parse_int_field(token, "maxval")
    if width < 1 or height < 1:
        raise InputError(f"dimensions {width}x{height} are not positive")
    if maxval != 255:
        raise InputError(f"maxval must be 255, got {maxval}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise InputError("maxval must be followed by a single whitespace byte")
    pos += 1
    payload = data[pos:]
    expected = width * height * 3
    if len(payload) != expected:
        raise InputError(
            f"expected {expected} pixel bytes, found {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
    return Image(width=width, height=height, pixels=pixels)


def encode_ppm(image: Image) -> bytes:
    """Write an Image back to binary P6 with maxval 255."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def dominant_colors(image: Image, c: int, seed: int = 0) -> np.ndarray:
    """Cluster a pixel subsample into the image's c dominant colors, fitted from `seed`.

    Subsampling strides the row-major pixels so at most 10000 survive; the
    stride is a pure function of the pixel count, no randomness.  Returns
    the (c, 3) float64 centroids ordered by how many subsampled pixels each
    cluster owns, most first, exact ties by ascending (r, g, b).

    Raises UsageError for a c or seed `clustering.KMeansParams` refuses, and
    InputError when the subsample has fewer than c distinct colors.
    """
    params = clustering.KMeansParams(k=c, seed=seed)  # refuses a bad c before it is compared
    total = image.pixels.shape[0]
    stride = -(-total // _MAX_SAMPLED_PIXELS)  # ceil
    sample = image.pixels[::stride]
    packed = sample.astype(np.uint32)  # one integer per colour, sorted: equal ones are adjacent
    keys = np.sort((packed[:, 0] << 16) | (packed[:, 1] << 8) | packed[:, 2])
    if np.count_nonzero(keys[1:] != keys[:-1]) + 1 < c:
        raise InputError(f"fewer than {c} distinct colors to separate")

    points = sample.astype(np.float64)
    colors, labels, _, _ = clustering.fit(points, params)
    counts = np.bincount(labels, minlength=c)
    return colors[np.lexsort((colors[:, 2], colors[:, 1], colors[:, 0], -counts))]


def palette_features(colors: np.ndarray) -> np.ndarray:
    """Flatten the (c, 3) float64 palette rows, in palette order, into one 3c vector."""
    check_array(colors, "colors", np.float64, 2)
    return colors.ravel()


PaletteSpec = Sequence[tuple[tuple[int, int, int], float]]


def synth_scene_image(palette_spec: PaletteSpec, width: int, height: int) -> Image:
    """Render a synthetic scene as contiguous row-major color blocks.

    Pixel counts follow the requested fractions to within one pixel
    (largest-remainder rounding, ties to the earlier entry).  The layout is
    fully determined by the spec and dimensions.

    Raises UsageError for a size the `errors` checks refuse, a spec that is
    not a list or tuple of (color, fraction) pairs, an empty one, a color
    that is not a list or tuple of three ints in [0, 255], a fraction
    `errors.check_range` finds outside [0, 1], or fractions that do not sum to 1.
    """
    check_int(width, 1, "width")
    check_int(height, 1, "height")
    check_array_size(width * height, 3, "width * height")
    spec = palette_spec  # an empty one fails the sum check
    if not isinstance(spec, (list, tuple)) or any(
        not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in spec
    ):
        raise UsageError("palette_spec must be a list or tuple of (color, fraction) pairs")
    for color, fraction in spec:
        if not isinstance(color, (list, tuple)) or len(color) != 3 or any(
            type(ch) is not int or not 0 <= ch <= 255 for ch in color
        ):
            raise UsageError(f"color {color!r} is not an RGB triple in [0, 255]")
        check_range(fraction, "fraction", 0.0, 1.0)
    if not math.isclose(sum(fraction for _, fraction in spec), 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise UsageError("fractions must sum to 1")

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
