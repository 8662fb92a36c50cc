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


def phone_alphabet(n_phones: int = 20, seed: int = 17) -> list[Phone]:
    """Shared content shapes, confined to the band above the speaker cues."""
    rng = np.random.default_rng(seed)
    phones = []
    for _ in range(n_phones):
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


def synth_utterance(
    profile: SpeakerProfile,
    rng: np.random.Generator,
    duration_s: float = 1.0,
    sample_rate_hz: int = 16000,
    alphabet: list[Phone] | None = None,
) -> Waveform:
    """One utterance: a random phone sequence rendered with the speaker envelope."""
    if alphabet is None:
        alphabet = phone_alphabet()
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    n_harmonics = max(3, int(7000.0 / profile.f0_hz))
    k = np.arange(1, n_harmonics + 1)
    freqs = profile.f0_hz * k
    speaker_amps = _envelope(profile, freqs)

    # segment the utterance into phone-length spans (roughly 80-160 ms)
    seg_samples = []
    remaining = n
    while remaining > 0:
        span = int(rng.uniform(0.08, 0.16) * sample_rate_hz)
        span = min(span, remaining)
        seg_samples.append(span)
        remaining -= span
    phone_ids = rng.integers(0, len(alphabet), size=len(seg_samples))

    # per-sample harmonic amplitude matrix with short crossfades between phones
    content = np.empty((n_harmonics, n))
    pos = 0
    for span, pid in zip(seg_samples, phone_ids):
        content[:, pos : pos + span] = _phone_gain(alphabet[pid], freqs)[:, None]
        pos += span
    fade = max(1, int(0.008 * sample_rate_hz))
    kernel = np.ones(fade) / fade
    content = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, content)

    rhythm_hz = rng.uniform(2.0, 6.0)
    rhythm_phase = rng.uniform(0.0, 2 * np.pi)
    rhythm = 0.75 + 0.25 * np.sin(2 * np.pi * rhythm_hz * t + rhythm_phase)
    phases = rng.uniform(0.0, 2 * np.pi, size=n_harmonics)
    partials = np.sin(2 * np.pi * freqs[:, None] * t + phases[:, None])
    x = (speaker_amps[:, None] * content * partials).sum(axis=0) * rhythm
    peak = np.abs(x).max()
    if peak > 0:
        x = 0.3 * x / peak
    return Waveform(samples=x, sample_rate_hz=sample_rate_hz)


def synthetic_corpus(
    n_speakers: int = 6,
    utts_per_speaker: int = 10,
    seed: int = 0,
    duration_s: float = 1.0,
    sample_rate_hz: int = 16000,
    n_mels: int = 80,
) -> list[tuple[MelSpectrogram, int]]:
    """Featurized fixed-seed corpus as (mel, speaker_id) pairs."""
    profiles = speaker_profiles(n_speakers, seed)
    alphabet = phone_alphabet()
    rng = np.random.default_rng([seed, 1])
    corpus = []
    for spk, profile in enumerate(profiles):
        for _ in range(utts_per_speaker):
            wave = synth_utterance(profile, rng, duration_s, sample_rate_hz, alphabet)
            corpus.append((compute_log_mel(wave, n_mels=n_mels), spk))
    return corpus


# ---------------------------------------------------------------------------
# on-disk corpora


def write_speaker_map(path, names: list[str]) -> None:
    Path(path).write_text(
        "".join(f"{i}\t{name}\n" for i, name in enumerate(names)), encoding="utf-8"
    )


def load_speaker_map(path) -> dict[str, int]:
    """Parse `id<TAB>name` lines; ids must be dense from 0."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"speaker map not found: {path}")
    mapping: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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
    sample_rate_hz: int = 16000,
) -> Path:
    """Materialize a synthetic corpus: `<dir>/<speaker>/uNN.wav` + speakers.tsv."""
    corpus_dir = Path(corpus_dir)
    profiles = speaker_profiles(n_speakers, seed)
    alphabet = phone_alphabet()
    rng = np.random.default_rng([seed, 1])
    names = [f"spk{idx}" for idx in range(n_speakers)]
    for spk, profile in enumerate(profiles):
        spk_dir = corpus_dir / names[spk]
        spk_dir.mkdir(parents=True, exist_ok=True)
        for u in range(utts_per_speaker):
            wave = synth_utterance(profile, rng, duration_s, sample_rate_hz, alphabet)
            write_wav(spk_dir / f"u{u:02d}.wav", wave)
    map_path = corpus_dir / "speakers.tsv"
    write_speaker_map(map_path, names)
    return map_path


def load_corpus(corpus_dir, speaker_map: dict[str, int],
                n_mels: int = 80) -> list[tuple[MelSpectrogram, int]]:
    """Read `<dir>/<speaker>/*.{melf,wav}` in sorted order; wavs are featurized."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise DataError(f"corpus directory not found: {corpus_dir}")
    dataset: list[tuple[MelSpectrogram, int]] = []
    for spk_dir in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        if spk_dir.name not in speaker_map:
            raise DataError(f"{spk_dir}: speaker {spk_dir.name!r} not in speaker map")
        spk_id = speaker_map[spk_dir.name]
        for path in sorted(spk_dir.iterdir()):
            if path.suffix == ".melf":
                dataset.append((read_melf(path), spk_id))
            elif path.suffix == ".wav":
                dataset.append((compute_log_mel(read_wav(path), n_mels=n_mels), spk_id))
    if not dataset:
        raise DataError(f"{corpus_dir}: no .melf or .wav files found")
    return dataset
