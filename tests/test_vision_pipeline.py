"""P6 container handling, dominant-color extraction, and the image synth."""

import numpy as np
import pytest

from conftest import ppm_bytes
from scenefuse.errors import (
    BadHeader,
    BadMagic,
    BadSpec,
    DegenerateImage,
    TruncatedPixelData,
    UnsupportedMaxval,
)
from scenefuse.features import VISUAL
from scenefuse.vision_pipeline import (
    ColorPalette,
    Image,
    PaletteEntry,
    decode_ppm,
    dominant_colors,
    encode_ppm,
    palette_features,
    synth_scene_image,
)

RED = (255, 0, 0)
BLUE = (0, 0, 255)


# --- decoding --------------------------------------------------------------

def test_decode_reads_dimensions_and_pixels():
    image = decode_ppm(ppm_bytes(2, 1, [RED, BLUE]))
    assert (image.width, image.height) == (2, 1)
    assert image.pixels.tolist() == [[255, 0, 0], [0, 0, 255]]


def test_decode_accepts_header_comments():
    image = decode_ppm(ppm_bytes(1, 1, [RED], comment=b"shot on a phone"))
    assert image.pixels.tolist() == [[255, 0, 0]]


def test_decode_round_trips_exactly():
    rng = np.random.default_rng(6)
    pixels = rng.integers(0, 256, (12 * 9, 3), dtype=np.uint8)
    image = Image(width=12, height=9, pixels=pixels)
    data = encode_ppm(image)
    again = decode_ppm(data)
    assert np.array_equal(again.pixels, image.pixels)
    assert encode_ppm(again) == data


@pytest.mark.parametrize(
    "blob, expected",
    [
        (ppm_bytes(1, 1, [RED], magic=b"P5"), BadMagic),
        (ppm_bytes(1, 1, [RED], magic=b"P7"), BadMagic),
        (ppm_bytes(1, 1, [RED], maxval=254), UnsupportedMaxval),
        (ppm_bytes(1, 1, [RED], maxval=65535), UnsupportedMaxval),
        (ppm_bytes(2, 2, [RED, BLUE, RED]), TruncatedPixelData),
        (ppm_bytes(1, 1, [RED], pad_payload=b"\x00"), TruncatedPixelData),
        (ppm_bytes(0, 1, [RED]), BadHeader),
        (b"P6\n-2 1\n255\n" + bytes(RED) * 2, BadHeader),
        (b"P6\n+2 1\n255\n" + bytes(RED) * 2, BadHeader),
        (b"P6\ntwo 1\n255\n" + bytes(RED) * 2, BadHeader),
        (b"P6\n2 1\n255", BadHeader),
        (b"P6 2", BadHeader),  # the header ends before the height
    ],
)
def test_decode_rejects_broken_containers(blob, expected):
    with pytest.raises(expected):
        decode_ppm(blob)


def test_every_single_byte_header_mutation_is_rejected():
    """Flip each byte of the numeric header fields to every other value.

    The pixel payload is pure 0x00/0xFF, so no mutation can quietly turn
    pixel bytes into plausible header tokens — every flip must raise one of
    the container errors, never return an Image and never escape with an
    unrelated exception.
    """
    blob = ppm_bytes(2, 1, [RED, BLUE])  # header b"P6\n2 1\n255\n"
    header_len = blob.index(b"255\n") + 4
    field_positions = [i for i in range(3, header_len) if blob[i : i + 1].isdigit()]
    assert len(field_positions) == 5  # "2", "1", "2", "5", "5"
    ppm_errors = (BadMagic, BadHeader, UnsupportedMaxval, TruncatedPixelData)
    for pos in field_positions:
        for replacement in range(256):
            if replacement == blob[pos]:
                continue
            mutated = blob[:pos] + bytes([replacement]) + blob[pos + 1 :]
            with pytest.raises(ppm_errors):
                decode_ppm(mutated)


def test_image_validation():
    with pytest.raises(ValueError):
        Image(width=2, height=2, pixels=np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(width=1, height=1, pixels=np.array([[300, 0, 0]]))
    with pytest.raises(ValueError):
        Image(width=0, height=1, pixels=np.zeros((0, 3), dtype=np.uint8))


# --- dominant colors -------------------------------------------------------

def test_solid_image_yields_one_full_weight_color():
    image = Image(width=10, height=10, pixels=np.tile(np.array(RED, np.uint8), (100, 1)))
    palette = dominant_colors(image, 1)
    assert palette.entries == (PaletteEntry(color=(255.0, 0.0, 0.0), weight=1.0),)


def test_equal_weights_order_by_channel_value():
    pixels = np.array([RED] * 50 + [BLUE] * 50, dtype=np.uint8)
    palette = dominant_colors(Image(width=10, height=10, pixels=pixels), 2)
    assert [e.color for e in palette.entries] == [(0.0, 0.0, 255.0), (255.0, 0.0, 0.0)]
    assert [e.weight for e in palette.entries] == [0.5, 0.5]
    vec = palette_features(palette)
    assert vec.modality == VISUAL
    assert vec.values.tolist() == [0.0, 0.0, 255.0, 255.0, 0.0, 0.0]


def test_block_image_recovers_spec_colors_and_weights():
    spec = [((10, 20, 30), 0.6), ((200, 10, 10), 0.3), ((90, 200, 250), 0.1)]
    image = synth_scene_image(spec, 60, 40)
    palette = dominant_colors(image, 3)
    slack = 2.0 / (60 * 40)
    for entry, (color, fraction) in zip(palette.entries, spec):
        assert entry.color == tuple(float(ch) for ch in color)
        assert entry.weight == pytest.approx(fraction, abs=slack)


def test_palette_features_keep_dominance_order():
    spec = [((5, 5, 5), 0.2), ((250, 250, 250), 0.8)]
    image = synth_scene_image(spec, 20, 20)
    vec = palette_features(dominant_colors(image, 2))
    assert vec.values.tolist() == [250.0, 250.0, 250.0, 5.0, 5.0, 5.0]


def test_subsampling_strides_the_full_frame():
    # 20000 pixels force a stride of 2, so only even row-major indices are
    # seen; a color living purely at odd indices must disappear entirely.
    pixels = np.zeros((20000, 3), dtype=np.uint8)
    pixels[1::2] = RED
    image = Image(width=200, height=100, pixels=pixels)
    with pytest.raises(DegenerateImage):
        dominant_colors(image, 2)
    # nudge one even slot to red and both colors are visible again
    pixels[2] = RED
    palette = dominant_colors(Image(width=200, height=100, pixels=pixels), 2)
    assert {e.color for e in palette.entries} == {(0.0, 0.0, 0.0), (255.0, 0.0, 0.0)}


def test_too_few_distinct_colors_raises():
    image = synth_scene_image([((9, 9, 9), 1.0)], 8, 8)
    with pytest.raises(DegenerateImage):
        dominant_colors(image, 2)


def test_palette_validation():
    with pytest.raises(ValueError, match="at least one entry"):  # not only "must sum to 1"
        ColorPalette(entries=())
    with pytest.raises(ValueError):
        ColorPalette(  # the lighter entry first
            entries=(
                PaletteEntry(color=(0.0, 0.0, 0.0), weight=0.3),
                PaletteEntry(color=(1.0, 1.0, 1.0), weight=0.7),
            )
        )
    with pytest.raises(ValueError):
        ColorPalette(entries=(PaletteEntry(color=(0.0, 0.0, 0.0), weight=0.0),))
    with pytest.raises(ValueError, match="outside"):  # a weight of 0 that keeps the sum at 1
        ColorPalette(
            entries=(
                PaletteEntry(color=(0.0, 0.0, 0.0), weight=1.0),
                PaletteEntry(color=(1.0, 1.0, 1.0), weight=0.0),
            )
        )
    with pytest.raises(ValueError):
        ColorPalette(
            entries=(
                PaletteEntry(color=(0.0, 0.0, 0.0), weight=0.3),
                PaletteEntry(color=(1.0, 1.0, 1.0), weight=0.3),
            )
        )


# --- synthesizer -----------------------------------------------------------

def test_synth_lays_out_contiguous_blocks():
    spec = [((1, 2, 3), 0.5), ((7, 8, 9), 0.5)]
    image = synth_scene_image(spec, 4, 2)
    assert image.pixels.tolist() == [[1, 2, 3]] * 4 + [[7, 8, 9]] * 4


def test_synth_pixel_counts_match_fractions_within_one():
    spec = [((0, 0, 0), 1 / 3), ((100, 100, 100), 1 / 3), ((200, 200, 200), 1 / 3)]
    image = synth_scene_image(spec, 10, 10)
    values, counts = np.unique(image.pixels[:, 0], return_counts=True)
    assert values.tolist() == [0, 100, 200]
    for count in counts:
        assert abs(count - 100 / 3) <= 1.0
    assert counts.sum() == 100


@pytest.mark.parametrize(
    "spec, width, height",
    [
        ([], 4, 4),
        ([((0, 0, 300), 1.0)], 4, 4),
        ([((0, 0, 0), 0.5)], 4, 4),                       # fractions sum < 1
        ([((0, 0, 0), 0.7), ((1, 1, 1), 0.7)], 4, 4),     # fractions sum > 1
        ([((0, 0, 0), -0.2), ((1, 1, 1), 1.2)], 4, 4),    # negative fraction
        ([((0, 0, 0), 1.0)], 0, 4),
        ([((0, 0, 0), float("nan")), ((1, 1, 1), 1.0)], 4, 4),  # NaN passes the sum check
    ],
)
def test_synth_rejects_bad_specs(spec, width, height):
    with pytest.raises(BadSpec):
        synth_scene_image(spec, width, height)
