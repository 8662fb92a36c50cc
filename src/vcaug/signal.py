"""Waveform I/O, the log-mel frontend, and time/frequency masking.

The frontend is fixed to the conventions used throughout this package:
25-ms Hann window every 10 ms, HTK-style mel scale over 125-7600 Hz,
natural log with a 1e-10 floor, and no tail padding (the trailing
remainder of a waveform that does not fill a whole frame is dropped).
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import struct
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LOG_FLOOR = 1e-10
MEL_FMIN_HZ = 125.0
MEL_FMAX_HZ = 7600.0
FRAME_SIZE_MS = 25.0
FRAME_SHIFT_MS = 10.0

# Frames per windowed-FFT block in `compute_log_mel`.  At 16 kHz and 25 ms
# a block's temporaries are 100-130 KiB each (32 x 400 windowed samples,
# 32 x 257 complex bins), where a one-shot [T, 400] pass built about 3.5 MB
# of fresh arrays per 2-s file, each one large enough for glibc to map and
# unmap.  Per 2-s file (best of 9 x 100, OpenBLAS 1 thread, 2 vCPUs):
# 2.5-2.9 -> 1.4-1.6 ms with glibc's default malloc settings, 3.5-4.3 ->
# 1.5-1.9 ms with the mmap threshold fixed at 128 KiB; 0.5-s files hold
# their time (default) or halve it (fixed threshold).
LOG_MEL_BLOCK_FRAMES = 32

MELF_MAGIC = b"MELF"
MELF_VERSION = 1


class WavFormatError(ValueError):
    """Unsupported or malformed WAV input."""


class MelfFormatError(ValueError):
    """Malformed MELF feature file; message carries the byte offset."""


@dataclass(frozen=True)
class Waveform:
    """Mono audio, amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-d, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class MelSpectrogram:
    """T x M matrix of natural-log mel magnitudes."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError(f"mel data must be 2-d, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("mel data contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_mels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SpecAugmentPolicy:
    """Mask counts and maximum widths; zero-mask policies are the identity.

    Every field is the `[augment]` key of the same name and default (see
    `config.py`): two frequency and two time masks of up to 10 bins or
    frames each, as a config without an `[augment]` section masks.
    """

    n_freq_masks: int = 2
    max_freq_width: int = 10
    n_time_masks: int = 2
    max_time_width: int = 10
    mask_value: float = 0.0

    def __post_init__(self):
        for name in ("n_freq_masks", "max_freq_width", "n_time_masks", "max_time_width"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not np.isfinite(self.mask_value):
            raise ValueError(f"mask_value must be finite, got {self.mask_value}")


def hz_to_mel(hz):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate_hz: int, n_fft: int, n_mels: int) -> np.ndarray:
    """Triangular filters (peak 1.0) on mel-spaced centers over
    `MEL_FMIN_HZ`-`MEL_FMAX_HZ`, [n_mels, n_fft//2+1]."""
    n_bins = n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * sample_rate_hz / n_fft
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN_HZ), hz_to_mel(MEL_FMAX_HZ), n_mels + 2))
    weights = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        weights[i] = np.clip(np.minimum(up, down), 0.0, None)
    return weights


@functools.lru_cache(maxsize=8)
def _cached_filterbank(sample_rate_hz: int, n_fft: int, n_mels: int) -> np.ndarray:
    """`mel_filterbank`, built once per shape; read-only."""
    fbank = mel_filterbank(sample_rate_hz, n_fft, n_mels)
    fbank.flags.writeable = False
    return fbank


def frame_geometry(sample_rate_hz: int) -> tuple[int, int]:
    """(window, hop) in samples of `FRAME_SIZE_MS` and `FRAME_SHIFT_MS`."""
    return (int(round(sample_rate_hz * FRAME_SIZE_MS / 1000.0)),
            int(round(sample_rate_hz * FRAME_SHIFT_MS / 1000.0)))


def frame_count(n_samples: int, window: int, hop: int) -> int:
    """Frames produced without padding: 1 + floor((N - window) / hop)."""
    if n_samples < window:
        raise ValueError(f"waveform of {n_samples} samples is shorter than one {window}-sample window")
    return 1 + (n_samples - window) // hop


def compute_log_mel(wave_in: Waveform, n_mels: int = 80) -> MelSpectrogram:
    """Frame, Hann-window, and project a waveform onto log mel magnitudes.

    The frames are strided views of the samples.  Window, `rfft`, magnitude
    and filterbank run over `LOG_MEL_BLOCK_FRAMES` frames at a time, each
    block writing into one preallocated [T, n_mels] output; floor and log
    then run in place.  Every frame gets the same arithmetic as a one-shot
    [T, window] pass, and the result is bit-identical to it.
    """
    window, hop = frame_geometry(wave_in.sample_rate_hz)
    n = len(wave_in.samples)
    t = frame_count(n, window, hop)

    n_fft = 1
    while n_fft < window:
        n_fft *= 2
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    fbank_t = _cached_filterbank(wave_in.sample_rate_hz, n_fft, n_mels).T

    frames = np.lib.stride_tricks.sliding_window_view(wave_in.samples, window)[::hop]
    data = np.empty((t, n_mels))
    for start in range(0, t, LOG_MEL_BLOCK_FRAMES):
        block = slice(start, start + LOG_MEL_BLOCK_FRAMES)
        mag = np.abs(np.fft.rfft(frames[block] * hann, n=n_fft, axis=1))
        np.matmul(mag, fbank_t, out=data[block])
    np.maximum(data, LOG_FLOOR, out=data)
    np.log(data, out=data)
    return MelSpectrogram(data=data)


def spec_augment(
    mel: MelSpectrogram, policy: SpecAugmentPolicy, rng: np.random.Generator
) -> MelSpectrogram:
    """Return a masked copy of `mel`; the input is untouched.

    Each mask draws a width uniformly from [0, max_width] (clamped to the
    axis extent) and a start uniformly over the positions where it fits.
    Frequency masks are drawn before time masks, so a given seed always
    produces the same output.
    """
    data = mel.data.copy()
    t, m = data.shape

    def draw(n_masks: int, max_width: int, extent: int):
        spans = []
        max_width = min(max_width, extent)
        for _ in range(n_masks):
            width = int(rng.integers(0, max_width + 1))
            start = int(rng.integers(0, extent - width + 1))
            spans.append((start, width))
        return spans

    if t > 0 and m > 0:
        for start, width in draw(policy.n_freq_masks, policy.max_freq_width, m):
            data[:, start : start + width] = policy.mask_value
        for start, width in draw(policy.n_time_masks, policy.max_time_width, t):
            data[start : start + width, :] = policy.mask_value
    return MelSpectrogram(data=data)


def _wav_header(path, stream, n_bytes: int) -> tuple[int, int, wave.Wave_read]:
    """(sample count, rate, reader at the data) of a RIFF PCM-16 mono stream.

    The reader is open; the caller closes it.  Every way the header can be
    malformed raises `WavFormatError` naming the path.
    """
    try:
        f = wave.open(stream, "rb")
        n_channels, sampwidth, rate = f.getnchannels(), f.getsampwidth(), f.getframerate()
    except (wave.Error, EOFError, RuntimeError) as e:
        # EOFError: a chunk header cut short; RuntimeError: a chunk size
        # that points past the end of the RIFF chunk
        reason = str(e) if isinstance(e, wave.Error) else "malformed RIFF header"
        raise WavFormatError(f"{path}: {reason} ({n_bytes} bytes in file)") from None
    if n_channels != 1:
        raise WavFormatError(f"{path}: expected mono, got {n_channels} channels")
    if sampwidth != 2:
        raise WavFormatError(f"{path}: expected 16-bit PCM, got {8 * sampwidth}-bit")
    if rate <= 0:
        raise WavFormatError(f"{path}: sample rate {rate} Hz")
    return f.getnframes(), rate, f


def read_wav_header(path) -> tuple[int, int]:
    """(sample count, sample rate) as the header of a file `read_wav` accepts declares them.

    Reads the header only, and raises `WavFormatError` wherever `read_wav`
    would for the header; a data chunk shorter than declared is found only
    by `read_wav`.
    """
    try:
        stream = open(path, "rb")
    except OSError as e:
        raise WavFormatError(f"{path}: cannot read ({e.strerror or e})") from None
    with stream:
        n_samples, rate, _ = _wav_header(path, stream, os.fstat(stream.fileno()).st_size)
    return n_samples, rate


def read_wav(path) -> Waveform:
    """Read a RIFF PCM-16 mono file; samples scaled by 1/32768.

    Every way the file can fail to give that raises `WavFormatError` naming
    the path: it cannot be read (missing, a directory), its header is cut
    short or malformed, or its data chunk holds fewer bytes than the header
    declares (a truncated file).
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise WavFormatError(f"{path}: cannot read ({e.strerror or e})") from None
    n_samples, rate, f = _wav_header(path, io.BytesIO(blob), len(blob))
    with f:
        raw = f.readframes(n_samples)
    if len(raw) != 2 * n_samples:
        raise WavFormatError(
            f"{path}: data chunk holds {len(raw)} bytes, header declares {2 * n_samples}"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate_hz=rate)


def write_wav(path, wave_out: Waveform) -> None:
    """Write PCM-16 mono; values clipped to the representable range."""
    pcm = np.clip(np.round(wave_out.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(wave_out.sample_rate_hz)
        f.writeframes(pcm.tobytes())


@contextlib.contextmanager
def write_then_replace(path):
    """A binary file for `path`'s new contents, renamed over `path` when the
    block ends.

    The file is a temporary one in `path`'s directory, and `os.replace`
    swaps it in whole, so a kill mid-write leaves the previous `path`
    intact.  If the block raises, the temporary file is removed and `path`
    is left as it was.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as f:
            yield f
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_melf(path, mel: MelSpectrogram) -> None:
    """MELF layout: magic | version u32 | T u32 | M u32 | row-major f32 LE."""
    t, m = mel.data.shape
    with open(path, "wb") as f:
        f.write(MELF_MAGIC)
        f.write(struct.pack("<III", MELF_VERSION, t, m))
        f.write(np.ascontiguousarray(mel.data, dtype="<f4").tobytes())


def _melf_shape(path, head: bytes, n_bytes: int) -> tuple[int, int]:
    """(T, M) from a MELF file's first 16 bytes, checked against its size in bytes."""
    if len(head) < 16:
        raise MelfFormatError(f"{path}: truncated header, {len(head)} bytes at offset 0")
    if head[:4] != MELF_MAGIC:
        raise MelfFormatError(f"{path}: bad magic {head[:4]!r} at offset 0")
    version, t, m = struct.unpack("<III", head[4:16])
    if version != MELF_VERSION:
        raise MelfFormatError(f"{path}: unsupported version {version} at offset 4")
    expected = 16 + t * m * 4
    if n_bytes != expected:
        raise MelfFormatError(f"{path}: payload ends at offset {n_bytes}, expected {expected}")
    return t, m


def read_melf_header(path) -> tuple[int, int]:
    """(T, M) of a MELF file, from its header and size alone.

    Raises `MelfFormatError` wherever `read_melf` would, except for a
    non-finite value in the payload, which only `read_melf` reads.
    """
    try:
        with open(path, "rb") as f:
            return _melf_shape(path, f.read(16), os.fstat(f.fileno()).st_size)
    except OSError as e:
        raise MelfFormatError(f"{path}: cannot read ({e.strerror or e})") from None


def read_melf(path) -> MelSpectrogram:
    """Read a MELF file; every way it can be unreadable or malformed raises
    `MelfFormatError` naming the path and, for a malformed file, the byte offset."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise MelfFormatError(f"{path}: cannot read ({e.strerror or e})") from None
    t, m = _melf_shape(path, blob[:16], len(blob))
    data = np.frombuffer(blob, dtype="<f4", offset=16).reshape(t, m)
    try:
        return MelSpectrogram(data=data.copy())
    except ValueError:
        first = int(np.flatnonzero(~np.isfinite(data))[0])
        raise MelfFormatError(f"{path}: non-finite value at offset {16 + 4 * first}") from None
