"""Corpus loading, speaker maps, and the synthetic desk corpus.

Synthetic "speech" is a harmonic stack shaped by two factors.  The speaker
factor is a fixed spectral envelope (fundamental, two formant-like peaks,
spectral tilt).  The content factor is a sequence of segments drawn from a
phone-like alphabet of spectral shapes shared by all speakers.  Speaker
identity is therefore objectively present in the features, while content
forms discrete, reusable clusters, which is what the adversarial probes,
the quantizer, and the trend assertions need.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import MIN_FRAMES
from .signal import MelSpectrogram, Waveform, compute_log_mel, read_melf, read_wav, write_wav


class DataError(ValueError):
    """Missing or malformed corpus inputs."""


@dataclass(frozen=True)
class SpeakerProfile:
    f0_hz: float
    formant_hz: float
    formant_width_hz: float
    tilt_db_per_octave: float


def speaker_profiles(n_speakers: int, seed: int = 0) -> list[SpeakerProfile]:
    """Well-separated fundamentals and distinct low-band envelopes per speaker.

    Speaker cues (fundamental, tilt, one low formant) stay below ~800 Hz so a
    disentangling encoder can drop them without losing the mid/high-band
    content; phones occupy the band above.
    """
    rng = np.random.default_rng(seed)
    profiles = []
    for i in range(n_speakers):
        f0 = 110.0 * (1.23**i)
        f1 = float(rng.uniform(200.0, 700.0))
        w1 = float(rng.uniform(60.0, 140.0))
        tilt = float(rng.uniform(-8.0, -2.0))
        profiles.append(SpeakerProfile(f0, f1, w1, tilt))
    return profiles


def _envelope(profile: SpeakerProfile, freqs_hz: np.ndarray) -> np.ndarray:
    octaves = np.log2(np.maximum(freqs_hz, 1.0) / profile.f0_hz)
    gain_db = profile.tilt_db_per_octave * np.maximum(octaves, 0.0)
    gain_db += 12.0 * np.exp(-0.5 * ((freqs_hz - profile.formant_hz) / profile.formant_width_hz) ** 2)
    return 10.0 ** (gain_db / 20.0)


@dataclass(frozen=True)
class Phone:
    """One alphabet entry: a spectral shape shared by every speaker."""

    peaks_hz: tuple[float, float]
    widths_hz: tuple[float, float]
    level_db: float


N_PHONES = 20     # the size of the shared alphabet
PHONE_SEED = 17   # its draw is fixed, so every corpus shares one alphabet


def phone_alphabet() -> list[Phone]:
    """Shared content shapes, confined to the band above the speaker cues."""
    rng = np.random.default_rng(PHONE_SEED)
    phones = []
    for _ in range(N_PHONES):
        p1 = float(rng.uniform(900.0, 3000.0))
        p2 = float(rng.uniform(3000.0, 6800.0))
        w1 = float(rng.uniform(150.0, 400.0))
        w2 = float(rng.uniform(250.0, 650.0))
        level = float(rng.uniform(-6.0, 0.0))
        phones.append(Phone((p1, p2), (w1, w2), level))
    return phones


def _phone_gain(phone: Phone, freqs_hz: np.ndarray) -> np.ndarray:
    gain_db = np.full_like(freqs_hz, phone.level_db - 14.0)
    for peak, width in zip(phone.peaks_hz, phone.widths_hz):
        gain_db += 14.0 * np.exp(-0.5 * ((freqs_hz - peak) / width) ** 2)
    return 10.0 ** (gain_db / 20.0)


SAMPLE_RATE_HZ = 16000   # every synthetic waveform's rate
CROSSFADE_S = 0.008   # moving-average length that blends neighbouring phones


def synth_utterance(
    profile: SpeakerProfile,
    rng: np.random.Generator,
    duration_s: float = 1.0,
    alphabet: list[Phone] | None = None,
) -> Waveform:
    """One utterance at `SAMPLE_RATE_HZ`: a random phone sequence rendered with
    the speaker envelope.

    The signal is `rhythm(t) * sum_k amps_k * content_k(t) * sin(k*theta + phi_k)`
    with `theta = 2*pi*f0*t`, where `content_k` holds each phone's harmonic
    gain over its segment, smoothed by a `fade`-sample moving average (the
    crossfade), then peak-normalised to 0.3.

    It is rendered one segment at a time, with no `[n_harmonics, n]` array.
    The moving average of a signal that is constant on each segment is a sum
    of per-segment weights: `np.convolve(r, ones(fade) / fade, mode="same")`
    averages samples `[i - (fade - 1 - lead), i + lead]` with
    `lead = (fade - 1) // 2` and zeros outside `[0, n)`, so segment `[a, b)`
    weighs `|that window ∩ [a, b)| / fade` at sample `i`, which is nonzero
    only on `[a - lead, b + fade - 1 - lead)`.  On that slice the segment's
    harmonic sum is `Im(P(z))` with `z = exp(i*theta)` and
    `P(z) = sum_k amps_k * gain_k * exp(i*phi_k) * z**k`, evaluated by
    Horner's rule.  Both steps are exact identities, so the waveform equals
    the per-harmonic composition up to float64 rounding.

    Raises `ValueError` when the utterance is shorter than one crossfade.
    """
    if alphabet is None:
        alphabet = phone_alphabet()
    n = int(round(duration_s * SAMPLE_RATE_HZ))
    fade = max(1, int(CROSSFADE_S * SAMPLE_RATE_HZ))
    if n < fade:
        raise ValueError(f"utterance of {n} samples is shorter than one "
                         f"{fade}-sample crossfade")
    n_harmonics = max(3, int(7000.0 / profile.f0_hz))
    freqs = profile.f0_hz * np.arange(1, n_harmonics + 1)
    speaker_amps = _envelope(profile, freqs)

    # segment the utterance into phone-length spans (roughly 80-160 ms)
    bounds = [0]
    while bounds[-1] < n:
        span = int(rng.uniform(0.08, 0.16) * SAMPLE_RATE_HZ)
        bounds.append(min(bounds[-1] + span, n))
    phone_ids = rng.integers(0, len(alphabet), size=len(bounds) - 1)
    rhythm_hz = rng.uniform(2.0, 6.0)
    rhythm_phase = rng.uniform(0.0, 2 * np.pi)
    phases = rng.uniform(0.0, 2 * np.pi, size=n_harmonics)

    t = np.arange(n) / SAMPLE_RATE_HZ
    z = np.exp(2j * np.pi * profile.f0_hz * t)
    coeffs = speaker_amps * np.exp(1j * phases)
    lead = (fade - 1) // 2
    x = np.zeros(n)
    for a, b, pid in zip(bounds[:-1], bounds[1:], phone_ids):
        lo, hi = max(0, a - lead), min(n, b + fade - 1 - lead)
        i = np.arange(lo, hi)
        weight = (np.minimum(i + lead + 1, b) - np.maximum(i + lead + 1 - fade, a)) / fade
        c = coeffs * _phone_gain(alphabet[pid], freqs)
        zs = z[lo:hi]
        # Horner's rule for P(zs) = sum_k c[k-1] * zs**k, k = 1..n_harmonics
        acc = c[-1] * zs
        for ck in c[-2::-1]:
            acc += ck
            acc *= zs
        x[lo:hi] += weight * acc.imag
    x *= 0.75 + 0.25 * np.sin(2 * np.pi * rhythm_hz * t + rhythm_phase)
    peak = np.abs(x).max()
    if peak > 0:
        x = 0.3 * x / peak
    return Waveform(samples=x, sample_rate_hz=SAMPLE_RATE_HZ)


def _corpus_waves(n_speakers: int, utts_per_speaker: int, seed: int, duration_s: float):
    """Yield `(speaker, index, waveform)` for the fixed-seed corpus, speaker by speaker."""
    profiles = speaker_profiles(n_speakers, seed)
    alphabet = phone_alphabet()
    rng = np.random.default_rng([seed, 1])
    for spk, profile in enumerate(profiles):
        for u in range(utts_per_speaker):
            yield spk, u, synth_utterance(profile, rng, duration_s, alphabet)


def synthetic_corpus(
    n_speakers: int = 6,
    utts_per_speaker: int = 10,
    seed: int = 0,
    duration_s: float = 1.0,
    n_mels: int = 80,
) -> list[tuple[MelSpectrogram, int]]:
    """Featurized fixed-seed corpus as (mel, speaker_id) pairs."""
    waves = _corpus_waves(n_speakers, utts_per_speaker, seed, duration_s)
    return [(compute_log_mel(wave, n_mels=n_mels), spk) for spk, _, wave in waves]


# ---------------------------------------------------------------------------
# on-disk corpora


def write_speaker_map(path, names: list[str]) -> None:
    Path(path).write_text(
        "".join(f"{i}\t{name}\n" for i, name in enumerate(names)), encoding="utf-8"
    )


def read_text(path, what: str) -> str:
    """A UTF-8 file's text; a file that cannot be read or decoded raises `DataError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as e:
        raise DataError(f"{path}: cannot read {what} ({e.strerror or e})") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: {what} is not UTF-8 text (byte {e.start})") from None


def load_speaker_map(path) -> dict[str, int]:
    """Parse `id<TAB>name` lines; ids must be dense from 0.

    Every way the file can be unreadable or malformed raises `DataError`
    naming the path.
    """
    path = Path(path)
    mapping: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path, "speaker map").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'id<TAB>name', got {line!r}")
        try:
            spk_id = int(parts[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad speaker id {parts[0]!r}") from None
        if parts[1] in mapping:
            raise DataError(f"{path}:{lineno}: duplicate speaker name {parts[1]!r}")
        mapping[parts[1]] = spk_id
    ids = sorted(mapping.values())
    if ids != list(range(len(ids))):
        raise DataError(f"{path}: speaker ids must be dense from 0, got {ids}")
    if not mapping:
        raise DataError(f"{path}: empty speaker map")
    return mapping


def write_corpus_tree(
    corpus_dir,
    n_speakers: int = 6,
    utts_per_speaker: int = 10,
    seed: int = 0,
    duration_s: float = 1.0,
) -> Path:
    """Materialize a synthetic corpus: `<dir>/<speaker>/uNN.wav` + speakers.tsv."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    names = [f"spk{idx}" for idx in range(n_speakers)]
    for spk, u, wave in _corpus_waves(n_speakers, utts_per_speaker, seed, duration_s):
        (corpus_dir / names[spk]).mkdir(exist_ok=True)
        write_wav(corpus_dir / names[spk] / f"u{u:02d}.wav", wave)
    map_path = corpus_dir / "speakers.tsv"
    write_speaker_map(map_path, names)
    return map_path


def read_features(path, n_mels: int) -> MelSpectrogram:
    """A `.melf` file's features or a `.wav` file's log-mel, with `n_mels`
    bins or a `DataError` naming the path."""
    path = Path(path)
    mel = (read_melf(path) if path.suffix == ".melf"
           else compute_log_mel(read_wav(path), n_mels=n_mels))
    if mel.n_mels != n_mels:
        raise DataError(f"{path}: feature dim {mel.n_mels} does not match n_mels {n_mels}")
    return mel


def load_corpus(corpus_dir, speaker_map: dict[str, int],
                n_mels: int = 80) -> list[tuple[MelSpectrogram, int]]:
    """Read `<dir>/<speaker>/*.{melf,wav}` in sorted order with `read_features`;
    a file too short to encode is a `DataError` here, before any training."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise DataError(f"corpus directory not found: {corpus_dir}")
    dataset: list[tuple[MelSpectrogram, int]] = []
    for spk_dir in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        if spk_dir.name not in speaker_map:
            raise DataError(f"{spk_dir}: speaker {spk_dir.name!r} not in speaker map")
        spk_id = speaker_map[spk_dir.name]
        for path in sorted(spk_dir.iterdir()):
            if path.suffix in (".melf", ".wav"):
                mel = read_features(path, n_mels)
                if mel.n_frames < MIN_FRAMES:
                    raise DataError(f"{path}: {mel.n_frames} frames, encode needs {MIN_FRAMES}")
                dataset.append((mel, spk_id))
    if not dataset:
        raise DataError(f"{corpus_dir}: no .melf or .wav files found")
    return dataset
