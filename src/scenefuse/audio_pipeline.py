"""Acoustic half of the recognizer.

What lives here:
  * a small RIFF/WAVE parser for 16-bit PCM (mono or stereo, stereo is
    averaged down to mono) plus the matching writer,
  * the cut of the leading WINDOW_SECONDS, the paper's five seconds,
  * a one-sided magnitude spectrum (input zero-padded to the next power of
    two, phase discarded),
  * concatenation of the frequency axis and the amplitudes into the flat
    vector the clustering engine consumes,
  * a seeded synthesizer that renders ambient-style clips from a band/gain
    envelope, for fixtures and demos.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, UsageError, check_array, check_array_size, check_int
from .errors import check_positive, check_range

_PCM_SCALE = 32768.0  # one LSB of a 16-bit sample maps to 1/32768 full scale
WINDOW_SECONDS = 5.0  # every clip is classified by its first five seconds
DEFAULT_COMPONENTS = 16  # sinusoids per band when the caller names no count
# RIFF fields are unsigned 32-bit: a 16-bit mono file's byte rate (2 * rate)
# and RIFF size (36 + 2 * samples) must both fit
_MAX_RATE = 2**31 - 1
_MAX_SAMPLES = (2**32 - 37) // 2


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Mono samples normalized to [-1, 1] at a fixed sample rate.

    The fields are checked, never converted: a rate that is not a positive
    int, or samples that are not a non-empty 1-D float64 array, are refused.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        check_int(self.sample_rate_hz, 1, "sample_rate_hz")
        check_array(self.samples, "samples", np.float64, 1)
        if not (np.abs(self.samples) <= 1.0).all():  # NaN fails too
            raise UsageError("samples must lie within [-1, 1]")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def decode_wav(data: bytes) -> AudioClip:
    """Parse RIFF/WAVE bytes into a normalized mono clip.

    Accepts 16-bit integer PCM with one or two channels; stereo frames are
    averaged.  Samples are scaled by 1/32768.

    Raises InputError for a broken RIFF container (magic, chunk bookkeeping,
    a truncated payload), a format other than 16-bit PCM mono or stereo, or a
    data chunk that holds no samples.
    """
    if len(data) < 12:
        raise InputError("too short for a RIFF header")
    if data[0:4] != b"RIFF":
        raise InputError("missing RIFF magic")
    (riff_size,) = struct.unpack_from("<I", data, 4)
    if 8 + riff_size > len(data):
        raise InputError(f"RIFF size {riff_size} disagrees with {len(data)} bytes")
    if data[8:12] != b"WAVE":
        raise InputError("missing WAVE form type")

    end = 8 + riff_size
    pos = 12
    fmt_chunk: bytes | None = None
    data_chunk: bytes | None = None
    while pos < end:
        if pos + 8 > end:
            raise InputError("dangling chunk header")
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        if body_start + chunk_size > end:
            raise InputError(f"chunk {chunk_id!r} overruns the container")
        body = data[body_start : body_start + chunk_size]
        if chunk_id == b"fmt " and fmt_chunk is None:
            fmt_chunk = body
        elif chunk_id == b"data" and data_chunk is None:
            data_chunk = body
        # chunks are word-aligned; odd sizes carry one pad byte
        pos = body_start + chunk_size + (chunk_size & 1)

    if fmt_chunk is None:
        raise InputError("no fmt chunk")
    if data_chunk is None:
        raise InputError("no data chunk")
    if len(fmt_chunk) < 16:
        raise InputError("fmt chunk shorter than 16 bytes")
    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt_chunk, 0
    )
    if audio_format != 1:
        raise InputError(f"only PCM (format 1) is supported, got {audio_format}")
    if bits != 16:
        raise InputError(f"only 16-bit samples are supported, got {bits}")
    if channels not in (1, 2):
        raise InputError(f"only mono or stereo is supported, got {channels} channels")
    if rate == 0:
        raise InputError("sample rate of zero")
    if len(data_chunk) == 0:
        raise InputError("data chunk holds no samples")
    frame_bytes = 2 * channels
    if len(data_chunk) % frame_bytes != 0:
        raise InputError("data chunk is not a whole number of frames")

    raw = np.frombuffer(data_chunk, dtype="<i2").astype(np.float64) / _PCM_SCALE
    if channels == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)
    return AudioClip(samples=raw, sample_rate_hz=rate)


def encode_wav(clip: AudioClip) -> bytes:
    """Write a clip back out as canonical 44-byte-header mono 16-bit PCM.

    Raises UsageError for a rate or a length the header's fields cannot hold.
    """
    rate = clip.sample_rate_hz
    if rate > _MAX_RATE or clip.samples.size > _MAX_SAMPLES:
        raise UsageError(f"{clip.samples.size} samples at {rate} Hz overflow a WAV header")
    quantized = np.clip(np.rint(clip.samples * _PCM_SCALE), -32768, 32767).astype("<i2")
    payload = quantized.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        rate,
        rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    return header + payload


def analysis_window(clip: AudioClip) -> AudioClip:
    """Cut the leading floor(WINDOW_SECONDS * rate) samples.

    Raises InputError when the clip cannot cover the window.
    """
    n = int(WINDOW_SECONDS * clip.sample_rate_hz)
    if clip.samples.size < n:
        raise InputError(
            f"clip holds {clip.duration_s:.3f} s, window needs {WINDOW_SECONDS:.3f} s"
        )
    return AudioClip(clip.samples[:n].copy(), clip.sample_rate_hz)


def magnitude_spectrum(clip: AudioClip) -> tuple[np.ndarray, np.ndarray]:
    """One-sided magnitude spectrum of the clip, as (freqs_hz, amps).

    The signal is zero-padded to the next power of two N; the result has
    N/2 + 1 bins, bin k sitting at k * rate / N Hz with amplitude equal to
    the complex modulus of the transform.  Phase is discarded.  So the axis
    starts at 0 and rises strictly, and both arrays are finite, since an
    AudioClip's samples are.
    """
    size = 1 << (clip.samples.size - 1).bit_length()  # the next power of two at or above it
    amps = np.abs(np.fft.rfft(clip.samples, n=size))
    freqs = np.arange(amps.size, dtype=np.float64) * (clip.sample_rate_hz / size)
    return freqs, amps


def acoustic_features(spectrum: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Concatenate a (freqs_hz, amps) spectrum into one flat float64 [f1..fn, a1..an] vector."""
    return np.concatenate(spectrum)


Band = tuple[float, float]
Profile = Sequence[tuple[Band, float]]


def synth_ambient(
    profile: Profile,
    seconds: float,
    rate: int,
    seed: int,
    components_per_band: int = DEFAULT_COMPONENTS,
) -> AudioClip:
    """Render a deterministic ambient-style clip from a band/gain envelope.

    Each (low_hz, high_hz) band contributes ``components_per_band`` sinusoids
    at evenly spaced frequencies across the band, each with a seeded random
    phase and amplitude gain / components_per_band.  The sum is clipped into
    [-1, 1].  Same arguments, same seed: bit-identical samples.

    Raises UsageError for an empty envelope, a duration that rounds to zero
    samples, or a rate or sample count that a WAV header cannot hold; the
    `errors` checks refuse bad counts and `seconds` first, then, band by
    band, a gain that is negative or not finite and band edges outside
    0 <= low_hz <= high_hz <= the Nyquist frequency.
    """
    check_int(components_per_band, 1, "components_per_band")
    check_array_size(components_per_band, 8, "components_per_band")
    check_int(seed, 0, "seed")
    check_int(rate, 1, "rate")
    check_positive(seconds, "seconds")
    if rate > _MAX_RATE or seconds * rate >= _MAX_SAMPLES + 1:  # before any allocation
        raise UsageError(f"a WAV header holds at most {_MAX_SAMPLES} samples and {_MAX_RATE} Hz")
    n = int(seconds * rate)
    if n < 1:
        raise UsageError("duration rounds to zero samples")
    bands = list(profile)
    if not bands:
        raise UsageError("envelope must hold at least one band")

    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64) / rate
    out = np.zeros(n, dtype=np.float64)
    nyquist = rate / 2.0
    m = components_per_band
    for (low, high), gain in bands:
        check_range(gain, "gain", 0.0)
        check_range(low, "low_hz", 0.0, nyquist)
        check_range(high, "high_hz", low, nyquist)
        freqs = low + (np.arange(m) + 0.5) / m * (high - low)
        phases = rng.uniform(0.0, 2.0 * math.pi, m)
        band = np.zeros(n, dtype=np.float64)  # one sinusoid at a time: scratch stays O(n)
        for omega, phase in zip(2.0 * math.pi * freqs, phases):
            band += np.sin(omega * t + phase)
        out += (gain / m) * band
    np.clip(out, -1.0, 1.0, out=out)
    return AudioClip(samples=out, sample_rate_hz=rate)
