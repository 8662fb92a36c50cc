"""Conversion-based two-view emission for downstream recognizer training.

For each source utterance this produces two views: the original features
and a conversion of them to a uniformly sampled target speaker from the
conversion model's training pool, with independent time/frequency masking
applied to each view.  The conversion model is read-only throughout.

`convert` renders one [T, M] utterance.  `emit_dataset` converts a corpus
in padded batches: consecutive readable sources join one [B, T_max, M]
forward with per-row lengths while B * T_max stays within
`EMIT_BATCH_FRAMES` padded frames, so its memory is bounded by that budget
and not by the corpus size.  Each row computes what the utterance would
alone, but float32 GEMM summation order depends on the batch shape, so a
converted view can differ from `convert`'s output, and across batch
compositions, by float32 rounding.  Original views, target speakers, seeds
and the manifest do not depend on the batching.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bottleneck as bn
from .data import DataError
from .model import VcModel, _encoded_lengths, pad_batch
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


# Padded frames (rows x longest row) per batched forward in `emit_dataset`:
# 83 one-second utterances, or 20 of 4 s.
EMIT_BATCH_FRAMES = 8192


def _check_features(mel: MelSpectrogram, model: VcModel) -> None:
    if mel.n_mels != model.config.n_mels:
        raise DataError(
            f"feature dim {mel.n_mels} does not match model n_mels {model.config.n_mels}"
        )
    if mel.n_frames < 4:
        raise DataError(f"need at least 4 frames to convert, got {mel.n_frames}")


def _decode_as(values: np.ndarray, target, model: VcModel, lengths=None) -> np.ndarray:
    """Encode, select codebook entries, attach the target speaker, decode; model-dtype values.

    `values` is one [T, M] utterance with an int `target`, or a padded
    [B, T, M] batch with B targets and per-row `lengths`.  A batch whose
    rows are all full length runs no mask op.
    """
    enc_lengths = _encoded_lengths(lengths)
    e, _ = bn.select(model.encode(values, lengths), model.codebook)
    return model.decode(model.embed_and_concat(e, target), values.shape[-2], enc_lengths).values


def convert(mel: MelSpectrogram, target_speaker_id: int, model: VcModel) -> MelSpectrogram:
    """Re-render an utterance as the target speaker; parameters untouched.

    Inference only: encode, take the nearest codebook entries
    (`bottleneck.select`), attach the target speaker, decode.  Neither the
    bottleneck losses nor the adversary head play a part in the output, and
    neither is run.
    """
    _check_features(mel, model)
    return MelSpectrogram(
        data=_decode_as(mel.data, target_speaker_id, model).astype(np.float32),
        frame_size_ms=mel.frame_size_ms,
        frame_shift_ms=mel.frame_shift_ms,
    )


def _convert_batch(mels: list[MelSpectrogram], targets: list[int],
                   model: VcModel) -> list[MelSpectrogram]:
    """Convert checked utterances in one padded forward, each cut to its length."""
    batch, lengths = pad_batch([mel.data for mel in mels])
    recon = _decode_as(batch, np.asarray(targets), model, lengths).astype(np.float32)
    return [
        MelSpectrogram(data=row[:n], frame_size_ms=mel.frame_size_ms,
                       frame_shift_ms=mel.frame_shift_ms)
        for row, n, mel in zip(recon, lengths, mels)
    ]


def sample_target(pool: SpeakerPool, rng: np.random.Generator) -> int:
    """Uniform draw over the pool."""
    return int(pool.ids[int(rng.integers(len(pool.ids)))])


def _view_pairs(mels, seeds, pool: SpeakerPool, policy: SpecAugmentPolicy,
                convert_all) -> list[ViewPair]:
    """Both views of each utterance, drawn from a generator seeded per utterance.

    Each generator draws the target speaker, then the original view's masks,
    then the converted view's masks; `convert_all(mels, targets)` renders
    the conversions in between and draws nothing.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    targets = [sample_target(pool, rng) for rng in rngs]
    pairs = []
    for mel, converted, target, rng, seed in zip(
            mels, convert_all(mels, targets), targets, rngs, seeds):
        original_view = spec_augment(mel, policy, rng)
        converted_view = spec_augment(converted, policy, rng)
        pairs.append(ViewPair(original=original_view, converted=converted_view,
                              target_speaker_id=target, seed=seed))
    return pairs


def _file_seed(seed: int, rel_path: str) -> int:
    digest = hashlib.sha256(f"{seed}:{rel_path}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class EmitResult:
    manifest_path: Path
    n_pairs: int
    failures: list[tuple[str, str]]   # (relative path, error)


def _output_stem(rel: str) -> str:
    stem = rel.replace("/", "__")
    for suffix in (".melf", ".wav"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    return stem


def _read_source(path: Path, model: VcModel) -> MelSpectrogram:
    if path.suffix == ".melf":
        mel = read_melf(path)
    else:
        mel = compute_log_mel(read_wav(path), n_mels=model.config.n_mels)
    _check_features(mel, model)
    return mel


def _frame_batches(items):
    """Group consecutive (features, ...) items while rows x longest row fits the budget.

    An item longer than `EMIT_BATCH_FRAMES` on its own forms a batch of one.
    """
    batch, longest = [], 0
    for item in items:
        t = item[0].n_frames
        if batch and (len(batch) + 1) * max(longest, t) > EMIT_BATCH_FRAMES:
            yield batch
            batch, longest = [], 0
        batch.append(item)
        longest = max(longest, t)
    if batch:
        yield batch


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
    in sorted relative-path order and written flat into `out_dir` as
    `<path with / as __, no suffix>.{orig,conv}.melf`.  Each file gets a
    seed derived from the run seed and its relative path, so reruns
    reproduce byte-identical outputs.  Unreadable inputs, inputs the model
    cannot convert, and inputs whose output names collide (`a/b.melf` and
    `a__b.melf`, or `a/b.wav` next to `a/b.melf`) are recorded in
    `failures` and skipped; conversion runs in padded batches (module
    docstring).
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
    stems = {rel: _output_stem(rel) for rel in sources}
    by_stem: dict[str, list[str]] = {}
    for rel, stem in stems.items():
        by_stem.setdefault(stem, []).append(rel)

    failures: list[tuple[str, str]] = []

    def readable():
        for rel, stem in stems.items():
            others = [other for other in by_stem[stem] if other != rel]
            if others:
                failures.append(
                    (rel, f"output name {stem}.*.melf is shared with {', '.join(others)}"))
                continue
            try:
                mel = _read_source(corpus_dir / rel, model)
            except Exception as e:  # noqa: BLE001 - recorded per file
                failures.append((rel, str(e)))
                continue
            yield mel, rel, stem

    def convert_all(mels, targets):
        return _convert_batch(mels, targets, model)

    lines: list[str] = []
    for batch in _frame_batches(readable()):
        try:
            pairs = _view_pairs([mel for mel, _, _ in batch],
                                [_file_seed(seed, rel) for _, rel, _ in batch],
                                pool, policy, convert_all)
        except Exception as e:  # noqa: BLE001 - recorded per file
            failures.extend((rel, f"batch conversion failed: {e}") for _, rel, _ in batch)
            continue
        for (_, rel, stem), pair in zip(batch, pairs):
            orig_rel = f"{stem}.orig.melf"
            conv_rel = f"{stem}.conv.melf"
            write_melf(out_dir / orig_rel, pair.original)
            write_melf(out_dir / conv_rel, pair.converted)
            lines.append(f"{rel}\t{orig_rel}\t{conv_rel}\t{pair.target_speaker_id}\t{pair.seed}")

    manifest_path = out_dir / "manifest.tsv"
    manifest_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return EmitResult(manifest_path=manifest_path, n_pairs=len(lines), failures=sorted(failures))
