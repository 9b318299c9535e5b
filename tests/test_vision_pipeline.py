"""P6 container handling, dominant-color extraction, and the image synth."""

import re

import numpy as np
import pytest

from conftest import ppm_bytes
from scenefuse import clustering
from scenefuse.errors import InputError, UsageError
from scenefuse.vision_pipeline import (
    Image,
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
    "blob, refusal",
    [
        (ppm_bytes(1, 1, [RED], magic=b"P5"), ("BadMagic", "not a binary P6 image")),
        (ppm_bytes(1, 1, [RED], magic=b"P7"), ("BadMagic", "not a binary P6 image")),
        (ppm_bytes(1, 1, [RED], maxval=254), ("UnsupportedMaxval", "maxval must be 255, got 254")),
        (ppm_bytes(1, 1, [RED], maxval=65535), ("UnsupportedMaxval", "got 65535")),
        (ppm_bytes(2, 2, [RED, BLUE, RED]), ("TruncatedPixelData", "expected 12 pixel bytes, found 9")),
        (ppm_bytes(1, 1, [RED], pad_payload=b"\x00"), ("TruncatedPixelData", "found 4")),
        (ppm_bytes(0, 1, [RED]), ("BadHeader", "dimensions 0x1 are not positive")),
        (b"P6\n-2 1\n255\n" + bytes(RED) * 2, ("BadHeader", "width field b'-2' is not a plain")),
        (b"P6\n+2 1\n255\n" + bytes(RED) * 2, ("BadHeader", r"width field b'\+2' is not a plain")),
        (b"P6\ntwo 1\n255\n" + bytes(RED) * 2, ("BadHeader", "width field b'two' is not a plain")),
        (b"P6\n2 1\n255", ("BadHeader", "maxval must be followed by a single whitespace byte")),
        (b"P6 2", ("BadHeader", "header ended early")),  # the header ends before the height
        (b"P6 2 2 #c", ("BadHeader", "header ended early")),  # ...inside a comment
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else None,  # a case by its check
)
def test_decode_rejects_broken_containers(blob, refusal):
    _, message = refusal
    with pytest.raises(InputError, match=message):
        decode_ppm(blob)


def test_every_single_byte_header_mutation_is_rejected():
    """Flip each byte of the numeric header fields to every other value.

    The pixel payload is pure 0x00/0xFF, so no mutation can quietly turn
    pixel bytes into plausible header tokens — every flip must raise one of
    InputError, never return an Image and never escape with an unrelated
    exception.
    """
    blob = ppm_bytes(2, 1, [RED, BLUE])  # header b"P6\n2 1\n255\n"
    header_len = blob.index(b"255\n") + 4
    field_positions = [i for i in range(3, header_len) if blob[i : i + 1].isdigit()]
    assert len(field_positions) == 5  # "2", "1", "2", "5", "5"
    for pos in field_positions:
        for replacement in range(256):
            if replacement == blob[pos]:
                continue
            mutated = blob[:pos] + bytes([replacement]) + blob[pos + 1 :]
            with pytest.raises(InputError):
                decode_ppm(mutated)


def test_image_validation():
    # test_errors checks the pixels' class, dtype and rank; their shape is the image's own rule
    message = "pixels must have shape (width*height, 3), not (3, 3)"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        Image(width=2, height=2, pixels=np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(UsageError):
        Image(width=0, height=1, pixels=np.zeros((0, 3), dtype=np.uint8))
    # a size that is not an int is refused, even one that counts the pixels right
    for width in (True, 1.0, np.int64(1)):
        with pytest.raises(UsageError, match="^width must be an int of at least 1, got "):
            Image(width=width, height=1, pixels=np.zeros((1, 3), dtype=np.uint8))


# --- dominant colors -------------------------------------------------------

def test_solid_image_yields_one_full_weight_color():
    image = Image(width=10, height=10, pixels=np.tile(np.array(RED, np.uint8), (100, 1)))
    assert dominant_colors(image, 1).tolist() == [[255.0, 0.0, 0.0]]


def test_equal_weights_order_by_channel_value():
    pixels = np.array([RED] * 50 + [BLUE] * 50, dtype=np.uint8)
    palette = dominant_colors(Image(width=10, height=10, pixels=pixels), 2)
    assert palette.tolist() == [[0.0, 0.0, 255.0], [255.0, 0.0, 0.0]]
    vec = palette_features(palette)
    assert vec.dtype == np.float64
    assert vec.tolist() == [0.0, 0.0, 255.0, 255.0, 0.0, 0.0]


def test_block_image_recovers_spec_colors_and_weights():
    spec = [((10, 20, 30), 0.6), ((200, 10, 10), 0.3), ((90, 200, 250), 0.1)]
    image = synth_scene_image(spec, 60, 40)
    assert dominant_colors(image, 3).tolist() == [list(color) for color, _ in spec]


def test_palette_features_keep_dominance_order():
    spec = [((5, 5, 5), 0.2), ((250, 250, 250), 0.8)]
    image = synth_scene_image(spec, 20, 20)
    vec = palette_features(dominant_colors(image, 2))
    assert vec.tolist() == [250.0, 250.0, 250.0, 5.0, 5.0, 5.0]


def test_subsampling_strides_the_full_frame():
    # 20000 pixels force a stride of 2, so only even row-major indices are
    # seen; a color living purely at odd indices must disappear entirely.
    pixels = np.zeros((20000, 3), dtype=np.uint8)
    pixels[1::2] = RED
    image = Image(width=200, height=100, pixels=pixels)
    with pytest.raises(InputError, match="fewer than 2 distinct colors"):
        dominant_colors(image, 2)
    # nudge one even slot to red and both colors are visible again
    pixels[2] = RED
    palette = dominant_colors(Image(width=200, height=100, pixels=pixels), 2)
    assert sorted(palette.tolist()) == [[0.0, 0.0, 0.0], [255.0, 0.0, 0.0]]


def test_too_few_distinct_colors_raises():
    image = synth_scene_image([((9, 9, 9), 1.0)], 8, 8)
    with pytest.raises(InputError, match="fewer than 2 distinct colors to separate"):
        dominant_colors(image, 2)
    # colours that differ in one channel each, and in the high bits only, count apart
    pixels = np.array([(128, 0, 0), (0, 128, 0), (0, 0, 128), (0, 0, 0)] * 4, dtype=np.uint8)
    image = Image(width=4, height=4, pixels=pixels)
    assert dominant_colors(image, 4).shape == (4, 3)
    with pytest.raises(InputError, match="fewer than 5 distinct colors to separate"):
        dominant_colors(image, 5)


def test_distinct_colours_are_counted_exactly_on_a_subsampled_image():
    # 12,000 pixels, so the subsample keeps the 6,000 even indices: five
    # colours in turn, while a sixth lives only at odd indices
    colours = np.array([(0, 0, 0), (255, 0, 0), (0, 255, 0), (0, 0, 255), (1, 1, 1)], np.uint8)
    pixels = np.full((12_000, 3), 77, dtype=np.uint8)
    pixels[::2] = colours[np.arange(6_000) % 5]
    image = Image(width=120, height=100, pixels=pixels)
    assert sorted(dominant_colors(image, 5).tolist()) == sorted(colours.tolist())  # exactly c
    with pytest.raises(InputError, match="^fewer than 6 distinct colors to separate$"):
        dominant_colors(image, 6)  # exactly c - 1


def test_bench_like_noisy_photos_keep_the_all_points_palette(monkeypatch):
    # camera-like photos of the four bench sizes: three well-separated
    # colours at 0.5 / 0.3 / 0.2 plus sensor noise of sigma 8.  Restarts on
    # a subsample refined on all pixels find the palette the restarts on
    # all pixels find, bit for bit.
    rng = np.random.default_rng(2018)
    for width, height in [(64, 48), (96, 72), (128, 96), (160, 120)] * 3:
        colours = rng.integers(30, 226, size=(3, 3))
        while min(np.linalg.norm(colours[a] - colours[b]) for a in range(3) for b in range(a)) < 90:
            colours = rng.integers(30, 226, size=(3, 3))
        spec = [(tuple(map(int, c)), f) for c, f in zip(colours, (0.5, 0.3, 0.2))]
        spec[-1] = (spec[-1][0], 1.0 - 0.5 - 0.3)
        pixels = synth_scene_image(spec, width, height).pixels
        noisy = np.rint(pixels + rng.normal(0.0, 8.0, pixels.shape))
        image = Image(width, height, np.clip(noisy, 0, 255).astype(np.uint8))
        seed = int(rng.integers(2**31))
        subsampled = dominant_colors(image, 3, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(clustering, "_SEED_POINTS", width * height)
            assert np.array_equal(subsampled, dominant_colors(image, 3, seed=seed))


# --- synthesizer -----------------------------------------------------------

def test_synth_lays_out_contiguous_blocks():
    spec = [((1, 2, 3), 0.5), ((7, 8, 9), 0.5)]
    image = synth_scene_image(spec, 4, 2)
    assert image.pixels.tolist() == [[1, 2, 3]] * 4 + [[7, 8, 9]] * 4
    # one pixel, a channel at 255 and a colour that gets no pixel are all accepted
    image = synth_scene_image([((255, 0, 0), 1.0), ((0, 0, 255), 0.0)], 1, 1)
    assert image.pixels.tolist() == [[255, 0, 0]]


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
        ([((0, 0, 0), 1.0)], -2, 3),  # unchecked, np.repeat would get a negative count
        ([((0, 0, float("nan")), 1.0)], 4, 4),  # unchecked, int() raises ValueError
        ([((0, 0, float("inf")), 1.0)], 4, 4),  # unchecked, int() raises OverflowError
        ([((0, 0, 254.9), 1.0)], 4, 4),  # unchecked, truncated to 254
        ([((0, 0, "7"), 1.0)], 4, 4),
        ([((0, 0), 1.0)], 4, 4),
        ([(5, 1.0)], 4, 4),  # unchecked, len() raises TypeError
    ],
)
def test_synth_rejects_bad_specs(spec, width, height):
    with pytest.raises(UsageError):
        synth_scene_image(spec, width, height)


def test_synth_names_a_spec_whose_fractions_do_not_sum_to_one():
    for spec in ([], [((0, 0, 0), 0.5)], [((0, 0, 0), 0.7), ((1, 1, 1), 0.7)]):
        with pytest.raises(UsageError, match="fractions must sum to 1"):
            synth_scene_image(spec, 4, 4)
