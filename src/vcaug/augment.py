"""Conversion-based two-view emission for downstream recognizer training.

For each source utterance this produces two views: the original features
and a conversion of them to a uniformly sampled target speaker from the
conversion model's training pool, with independent time/frequency masking
applied to each view.  The conversion model is read-only throughout.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bottleneck as bn
from .data import DataError
from .model import VcModel
from .signal import (
    MelSpectrogram,
    SpecAugmentPolicy,
    compute_log_mel,
    read_melf,
    read_wav,
    spec_augment,
    write_melf,
)


@dataclass(frozen=True)
class SpeakerPool:
    """Target speaker ids to sample from (the conversion model's speakers)."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if not self.ids:
            raise ValueError("speaker pool is empty")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("speaker pool has duplicate ids")

    @staticmethod
    def all_of(model: VcModel) -> "SpeakerPool":
        return SpeakerPool(ids=tuple(range(model.config.n_speakers)))


@dataclass(frozen=True)
class ViewPair:
    original: MelSpectrogram     # masked source features
    converted: MelSpectrogram    # masked conversion of the same utterance
    target_speaker_id: int
    seed: int


def convert(mel: MelSpectrogram, target_speaker_id: int, model: VcModel) -> MelSpectrogram:
    """Re-render an utterance as the target speaker; parameters untouched.

    Inference only: encode, quantize, attach the target speaker, decode.
    The adversary head plays no part in the output and is not run.
    """
    if mel.n_mels != model.config.n_mels:
        raise DataError(
            f"feature dim {mel.n_mels} does not match model n_mels {model.config.n_mels}"
        )
    qr = bn.quantize(model.encode(mel), model.codebook,
                     commitment_weight=model.config.commitment_weight)
    recon = model.decode(model.embed_and_concat(qr.z_q, target_speaker_id), mel.n_frames)
    return MelSpectrogram(
        data=recon.values.astype(np.float32),
        frame_size_ms=mel.frame_size_ms,
        frame_shift_ms=mel.frame_shift_ms,
    )


def sample_target(pool: SpeakerPool, rng: np.random.Generator) -> int:
    """Uniform draw over the pool."""
    return int(pool.ids[int(rng.integers(len(pool.ids)))])


def make_view_pair(
    mel: MelSpectrogram,
    model: VcModel,
    pool: SpeakerPool,
    policy: SpecAugmentPolicy,
    seed: int,
) -> ViewPair:
    """Build both views with a fixed draw order: target, then per-view masks."""
    rng = np.random.default_rng(seed)
    target = sample_target(pool, rng)
    original_view = spec_augment(mel, policy, rng)
    converted_view = spec_augment(convert(mel, target, model), policy, rng)
    return ViewPair(
        original=original_view,
        converted=converted_view,
        target_speaker_id=target,
        seed=seed,
    )


def _file_seed(seed: int, rel_path: str) -> int:
    digest = hashlib.sha256(f"{seed}:{rel_path}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class EmitResult:
    manifest_path: Path
    n_pairs: int
    failures: list[tuple[str, str]]   # (relative path, error)


def emit_dataset(
    corpus_dir,
    model: VcModel,
    pool: SpeakerPool,
    policy: SpecAugmentPolicy,
    out_dir,
    seed: int,
) -> EmitResult:
    """Write paired view files plus a manifest for every utterance found.

    Inputs are `.melf` or `.wav` files anywhere under `corpus_dir`, processed
    in sorted relative-path order.  Each file gets a seed derived from the
    run seed and its relative path, so reruns reproduce byte-identical
    outputs.  Unreadable inputs are recorded and skipped.
    """
    corpus_dir = Path(corpus_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not corpus_dir.is_dir():
        raise DataError(f"corpus directory not found: {corpus_dir}")
    sources = sorted(
        p.relative_to(corpus_dir).as_posix()
        for p in corpus_dir.rglob("*")
        if p.suffix in (".melf", ".wav") and p.is_file()
    )

    def process(rel: str):
        path = corpus_dir / rel
        if path.suffix == ".melf":
            mel = read_melf(path)
        else:
            mel = compute_log_mel(read_wav(path), n_mels=model.config.n_mels)
        return make_view_pair(mel, model, pool, policy, _file_seed(seed, rel))

    failures: list[tuple[str, str]] = []
    lines: list[str] = []
    n_pairs = 0
    for rel in sources:
        try:
            outcome = process(rel)
        except Exception as e:  # noqa: BLE001 - recorded per file
            failures.append((rel, str(e)))
            continue
        stem = rel.replace("/", "__")
        for suffix in (".melf", ".wav"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        orig_rel = f"{stem}.orig.melf"
        conv_rel = f"{stem}.conv.melf"
        write_melf(out_dir / orig_rel, outcome.original)
        write_melf(out_dir / conv_rel, outcome.converted)
        lines.append(
            f"{rel}\t{orig_rel}\t{conv_rel}\t{outcome.target_speaker_id}\t{outcome.seed}"
        )
        n_pairs += 1

    manifest_path = out_dir / "manifest.tsv"
    manifest_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return EmitResult(manifest_path=manifest_path, n_pairs=n_pairs, failures=failures)
