"""Audio container, windowing, spectrum, and synthesizer behavior."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import wav_bytes
from oracles import naive_spectrum
from scenefuse import audio_pipeline
from scenefuse.audio_pipeline import (
    AudioClip,
    acoustic_features,
    analysis_window,
    decode_wav,
    encode_wav,
    magnitude_spectrum,
    synth_ambient,
)
from scenefuse.errors import InputError, UsageError


# --- decoding --------------------------------------------------------------

def test_decode_scales_int16_samples_to_unit_range():
    data = wav_bytes([0, 16384, -16384, 32767], rate=8000)
    clip = decode_wav(data)
    assert clip.sample_rate_hz == 8000
    assert clip.samples.tolist() == [0.0, 0.5, -0.5, 0.999969482421875]


def test_decode_averages_stereo_frames_to_mono():
    # interleaved L/R frames: (100, 300) and (-200, 400)
    data = wav_bytes([100, 300, -200, 400], rate=44100, channels=2)
    clip = decode_wav(data)
    assert clip.samples.tolist() == [200 / 32768, 100 / 32768]


def test_decode_skips_unknown_chunks_with_odd_size_padding():
    extra = (b"LIST", b"\x01\x02\x03")  # odd-sized chunk forces a pad byte
    data = wav_bytes([1, 2, 3], rate=8000, leading_chunks=(extra,))
    clip = decode_wav(data)
    assert clip.samples.size == 3


def test_decode_reads_the_first_of_two_data_chunks():
    first = (b"data", struct.pack("<4h", 1, 2, 3, 4))  # ahead of `fmt `, then the builder's
    clip = decode_wav(wav_bytes([5], leading_chunks=(first,)))
    assert clip.samples.tolist() == [value / 32768 for value in (1, 2, 3, 4)]


def _with_dangling_bytes(blob: bytes) -> bytes:
    """`blob` plus 4 trailing bytes that its RIFF size counts: too few for a chunk header."""
    return blob[:4] + struct.pack("<I", len(blob) - 4) + blob[8:] + b"JUNK"


_RIFF = "MalformedRiff"
_FORMAT = "UnsupportedFormat"


@pytest.mark.parametrize(
    "blob, refusal",
    [
        (b"RIFX" + wav_bytes([1])[4:], (_RIFF, "missing RIFF magic")),
        (wav_bytes([1], wave_tag=b"WAVX"), (_RIFF, "missing WAVE form type")),
        (wav_bytes([1])[:10], (_RIFF, "too short for a RIFF header")),
        (b"RIFF\x04\x00\x00\x00WAVE", (_RIFF, "no fmt chunk")),  # a whole header, no chunk
        (wav_bytes([1], omit_data_chunk=True), (_RIFF, "no data chunk")),
        # a chunk that is not `data` holds no samples, even one whose bytes could
        (
            wav_bytes([1], leading_chunks=((b"LIST", b"\x01\x00"),), omit_data_chunk=True),
            (_RIFF, "no data chunk"),
        ),
        (wav_bytes([1, 2], truncate_data_by=2), (_RIFF, "chunk b'data' overruns the container")),
        (wav_bytes([1], audio_format=3), (_FORMAT, r"only PCM \(format 1\) is supported, got 3")),
        (wav_bytes([1], bits_per_sample=8), (_FORMAT, "only 16-bit samples are supported")),
        (wav_bytes([1, 2, 3], channels=3), (_FORMAT, "only mono or stereo is supported, got 3")),
        (wav_bytes([], rate=8000), ("EmptyData", "data chunk holds no samples")),
        (wav_bytes([1], leading_chunks=((b"fmt ", b"\x01\x00"),)), (_RIFF, "fmt chunk shorter")),
        (wav_bytes([1], rate=0), (_RIFF, "sample rate of zero")),
        (wav_bytes([1, 2, 3], channels=2), (_RIFF, "not a whole number of frames")),  # half a frame
        (_with_dangling_bytes(wav_bytes([1])), (_RIFF, "dangling chunk header")),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else None,  # a case by its check
)
def test_decode_rejects_broken_containers(blob, refusal):
    _, message = refusal
    with pytest.raises(InputError, match=message):
        decode_wav(blob)


def test_round_trip_stays_within_one_quantization_step():
    rng = np.random.default_rng(11)
    original = AudioClip(rng.uniform(-1.0, 1.0, 4000), 8000)
    restored = decode_wav(encode_wav(original))
    assert restored.sample_rate_hz == original.sample_rate_hz
    assert np.max(np.abs(restored.samples - original.samples)) <= 1.0 / 32768


def test_encode_output_decodes_identically_twice():
    clip = AudioClip(np.linspace(-1.0, 1.0, 64), 16000)
    first = encode_wav(clip)
    second = encode_wav(decode_wav(first))
    assert first == second


def test_clip_validation():
    with pytest.raises(UsageError):
        AudioClip(np.array([1.5]), 8000)
    with pytest.raises(UsageError):
        AudioClip(np.array([0.0]), 0)
    with pytest.raises(UsageError):
        AudioClip(np.array([0.0, np.nan]), 8000)
    # fields are checked, never converted: no other rate type (test_errors checks the samples)
    for rate in (8000.5, "8000", True, np.int64(8000)):
        with pytest.raises(UsageError, match="sample_rate_hz must be an int of at least 1"):
            AudioClip(np.zeros(4), rate)


# --- windowing -------------------------------------------------------------

def test_analysis_window_takes_leading_samples():
    clip = AudioClip(np.arange(16) / 16.0, sample_rate_hz=2)
    window = analysis_window(clip)
    assert window.samples.tolist() == (np.arange(10) / 16.0).tolist()
    assert window.sample_rate_hz == 2


def test_analysis_window_rejects_short_clips():
    clip = AudioClip(np.zeros(3 * 8000), 8000)  # three seconds
    with pytest.raises(InputError, match="window needs 5.000 s"):
        analysis_window(clip)
    # exactly five seconds is enough
    assert analysis_window(AudioClip(np.zeros(5 * 8000), 8000)).samples.size == 40000


# --- spectrum --------------------------------------------------------------

def test_constant_signal_concentrates_in_the_dc_bin():
    clip = AudioClip(np.ones(8), sample_rate_hz=8)
    freqs, amps = magnitude_spectrum(clip)
    assert freqs.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert amps.tolist() == pytest.approx([8.0, 0.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_pure_tone_peaks_at_its_own_bin():
    n, rate = 8, 8
    t = np.arange(n) / rate
    clip = AudioClip(np.sin(2 * math.pi * 2.0 * t), rate)
    _, amps = magnitude_spectrum(clip)
    assert amps[2] == pytest.approx(4.0, abs=1e-12)
    others = np.delete(amps, 2)
    assert np.max(others) < 1e-9


def test_non_power_of_two_input_pads_up():
    clip = AudioClip(np.ones(20000), sample_rate_hz=4000)
    freqs, amps = magnitude_spectrum(clip)
    assert freqs.shape == amps.shape == (32768 // 2 + 1,)
    assert freqs[1] == pytest.approx(4000 / 32768)
    assert freqs[-1] == pytest.approx(2000.0)


def test_spectrum_matches_direct_dft():
    rng = np.random.default_rng(3)
    clip = AudioClip(rng.uniform(-1.0, 1.0, 1000), 8000)
    got_freqs, got_amps = magnitude_spectrum(clip)
    freqs, amps = naive_spectrum(clip.samples, clip.sample_rate_hz)
    assert np.array_equal(got_freqs, freqs)
    scale = np.maximum(np.abs(amps), 1e-12)
    assert np.max(np.abs(got_amps - amps) / scale) < 1e-6


def test_spectral_energy_matches_signal_energy():
    # one-sided Parseval: N * sum(x^2) equals |X0|^2 + |Xn/2|^2 + 2*sum(middle^2)
    rng = np.random.default_rng(4)
    for size in (64, 300, 1024):
        samples = rng.uniform(-1.0, 1.0, size)
        clip = AudioClip(samples, 8000)
        _, amps = magnitude_spectrum(clip)
        padded_size = 2 * (amps.size - 1)
        spectral = amps[0] ** 2 + amps[-1] ** 2 + 2.0 * np.sum(amps[1:-1] ** 2)
        direct = padded_size * np.sum(samples**2)
        assert spectral == pytest.approx(direct, rel=1e-9)


# --- feature layout --------------------------------------------------------

def test_features_concatenate_frequencies_then_amplitudes():
    clip = AudioClip(np.ones(8), sample_rate_hz=8)
    freqs, amps = magnitude_spectrum(clip)
    vec = acoustic_features((freqs, amps))
    assert vec.dtype == np.float64
    assert vec.shape == (2 * len(freqs),)
    assert np.array_equal(vec[:5], freqs)
    assert np.array_equal(vec[5:], amps)


def test_different_spectra_give_different_vectors():
    rate, n = 8000, 1024
    t = np.arange(n) / rate
    low = acoustic_features(magnitude_spectrum(AudioClip(np.sin(2 * math.pi * 200 * t), rate)))
    high = acoustic_features(magnitude_spectrum(AudioClip(np.sin(2 * math.pi * 1200 * t), rate)))
    assert not np.array_equal(low, high)


# --- synthesizer -----------------------------------------------------------

def test_synth_is_deterministic_per_seed():
    profile = [((200.0, 600.0), 1.0)]
    a = synth_ambient(profile, 1.0, 4000, seed=9)
    b = synth_ambient(profile, 1.0, 4000, seed=9)
    c = synth_ambient(profile, 1.0, 4000, seed=10)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.duration_s == 1.0


def test_synth_energy_lands_inside_the_requested_band():
    clip = synth_ambient([((500.0, 900.0), 1.0)], 2.0, 4000, seed=2)
    freqs, amps = magnitude_spectrum(clip)
    inside = (freqs >= 450.0) & (freqs <= 950.0)
    total = np.sum(amps**2)
    assert np.sum(amps[inside] ** 2) / total > 0.99


def test_disjoint_profiles_separate_by_an_order_of_magnitude():
    low_band = [((80.0, 440.0), 1.0)]
    high_band = [((1100.0, 1900.0), 1.0)]

    def vectors(profile, seeds):
        return [
            acoustic_features(magnitude_spectrum(synth_ambient(profile, 5.0, 4000, seed=s)))
            for s in seeds
        ]

    lows = vectors(low_band, (1, 2, 3))
    highs = vectors(high_band, (1, 2, 3))
    within = [
        float(np.linalg.norm(a - b))
        for group in (lows, highs)
        for i, a in enumerate(group)
        for b in group[i + 1 :]
    ]
    between = [float(np.linalg.norm(a - b)) for a in lows for b in highs]
    assert min(between) >= 10.0 * max(within)


@pytest.mark.parametrize(
    "profile, seconds, rate",
    [
        ([], 1.0, 8000),
        ([((100.0, 50.0), 1.0)], 1.0, 8000),     # inverted band
        ([((100.0, 5000.0), 1.0)], 1.0, 8000),   # beyond Nyquist
        ([((100.0, 200.0), -0.5)], 1.0, 8000),   # negative gain
        ([((100.0, 200.0), 1.0)], 0.0, 8000),    # zero duration
        ([((100.0, 200.0), float("nan"))], 1.0, 8000),  # gain that is not a number
        ([((100.0, 200.0), float("inf"))], 1.0, 8000),  # infinite gain
        ([((100.0, 200.0), 1.0)], float("inf"), 8000),  # endless clip
        ([((100.0, 200.0), 1.0)], float("nan"), 8000),  # duration that is not a number
        ([((100.0, 200.0), 1.0)], 0.0001, 8000),  # rounds to zero samples
        ([((100.0, 200.0), 1.0)], 1.0, float("nan")),  # rate that is not a number
        ([((100.0, 200.0), 1.0)], 1.0, 1000.5),  # rate that is not a whole number
        ([((100.0, 200.0), 1.0)], 1.0, True),  # rate that is a bool
        ([((100.0, 200.0), 1.0)], "1.0", 8000),  # duration that is text
        ([((100.0, 200.0), 1.0)], None, 8000),  # no duration at all
    ],
)
def test_synth_rejects_bad_envelopes(profile, seconds, rate):
    with pytest.raises(UsageError):
        synth_ambient(profile, seconds, rate, seed=0)


def test_synth_names_a_duration_that_rounds_to_zero_samples():
    # unchecked, the empty clip would be refused too, but as a clip without samples
    with pytest.raises(UsageError, match="duration rounds to zero samples"):
        synth_ambient([((100.0, 200.0), 1.0)], 0.0001, 8000, seed=0)
    # a zero rate or a zero duration is not positive, which is said first
    for seconds, rate, message in (
        (1.0, 0, "rate must be an int of at least 1, got 0"),
        (0.0, 8000, "seconds must be a finite number above 0, got 0.0"),
    ):
        with pytest.raises(UsageError, match=message):
            synth_ambient([((100.0, 200.0), 1.0)], seconds, rate, seed=0)
    # one sample is enough, and so are one component, a zero gain, a
    # zero-width band and a band that ends at Nyquist
    edge = synth_ambient(
        [((0.5, 0.5), 0.0), ((0.0, 1.0), 0.5)], seconds=0.5, rate=2, seed=0, components_per_band=1
    )
    assert edge.samples.shape == (1,) and edge.sample_rate_hz == 2


def test_riff_fields_bound_the_rate_and_the_length(monkeypatch):
    # the byte rate (2 * rate) and the chunk sizes are unsigned 32-bit fields
    band = [((0.0, 100.0), 1.0)]
    for seconds, rate in ((0.0001, 2**31), (2.0**31, 8000), (1e308, 8000)):
        with pytest.raises(UsageError, match="a WAV header holds at most"):  # before allocating
            synth_ambient(band, seconds, rate, seed=0)
    fastest = synth_ambient(band, 1e-9, 2**31 - 1, seed=0)
    assert decode_wav(encode_wav(fastest)).sample_rate_hz == 2**31 - 1
    wav = encode_wav(AudioClip(np.zeros(4), 8000))
    too_fast = decode_wav(wav[:24] + struct.pack("<II", 3_000_000_000, 0) + wav[32:])
    assert too_fast.sample_rate_hz == 3_000_000_000
    with pytest.raises(UsageError):
        encode_wav(too_fast)
    # the sample limit's edge, lowered: the real one would take gigabytes to reach
    monkeypatch.setattr(audio_pipeline, "_MAX_SAMPLES", 100)
    assert len(encode_wav(AudioClip(np.zeros(100), 8000))) == 44 + 200
    with pytest.raises(UsageError, match="overflow a WAV header"):
        encode_wav(AudioClip(np.zeros(101), 8000))
    with pytest.raises(UsageError, match="a WAV header holds at most 100 samples"):
        synth_ambient([((0.0, 0.5), 1.0)], 101.0, 1, seed=0)
    assert synth_ambient([((0.0, 0.5), 1.0)], 100.0, 1, seed=0).samples.size == 100


def test_synth_scratch_memory_does_not_grow_with_the_components():
    for m in (16, 2048):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            clip = synth_ambient([((100.0, 3000.0), 1.0)], 1.0, 8000, seed=0, components_per_band=m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few clip-sized buffers, one sinusoid at a time; an (m, n) matrix
        # of them would be m clips on its own
        assert peak <= 8 * clip.samples.nbytes


def test_synth_output_never_clips_out_of_range():
    clip = synth_ambient([((100.0, 300.0), 5.0)], 0.5, 8000, seed=1)
    assert float(np.max(np.abs(clip.samples))) <= 1.0
