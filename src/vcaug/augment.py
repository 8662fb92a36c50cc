"""Conversion-based two-view emission for downstream recognizer training.

For each source utterance this produces two views: the original features
and a conversion of them to a uniformly sampled target speaker from the
conversion model's training pool, with independent time/frequency masking
applied to each view.  The conversion model is read-only throughout.

`convert` renders one [T, M] utterance.  `emit_dataset` converts a corpus
in padded batches grouped by length:

- Readable sources fill a window, in sorted path order, up to
  `EMIT_BATCH_FRAMES` real frames; a single longer file is a window alone.
- The window is sorted by frame count (a stable sort) and cut into
  batches.  A batch ends before a row more than `EMIT_LENGTH_RATIO` times
  its shortest row, or before a row that would make rows x longest row
  exceed `EMIT_BATCH_FRAMES`.  Each batch is one [B, T_max, M] forward
  with per-row lengths.

Emit memory is bounded by that budget, not by the corpus size: one window
of real frames, plus the one file read ahead of it, is held at a time.
Each row computes what the utterance would alone, but float32 GEMM
summation order depends on the batch shape, so a converted view can differ
from `convert`'s output, and across batch compositions, by float32
rounding.  Seeds, target speakers and masks are drawn per file, and the
manifest is written in sorted path order, so original views, seeds and the
manifest do not depend on the batching.
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


# Real frames per window and padded frames (rows x longest row) per batched
# forward in `emit_dataset`: 83 one-second utterances, or 20 of 4 s.
EMIT_BATCH_FRAMES = 8192

# Longest row over shortest allowed in one emit batch.  On the vcbench
# augment_wav_mixed corpus (24 files of 0.5-4 s, 6,375 real frames on
# seed 11) the batched forward took, in process CPU ms with OpenBLAS on
# 1 thread, 2 vCPUs (median of 15), path-order grouping / ratio 3 / 2 / 1.5:
# 204 / 177 / 156 / 155 on seed 11 and 213 / 177 / 170 / 149 on seed 12.
# Ratio 2 cuts the padded frames from 9,552 to 7,485 in 3 batches, where
# 1.5 makes 5 (each batch is one more encode and decode call).
EMIT_LENGTH_RATIO = 2


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


def _windows(items):
    """Consecutive (features, ...) items holding at most `EMIT_BATCH_FRAMES` real frames.

    An item longer than the budget on its own forms a window of one.
    """
    window, frames = [], 0
    for item in items:
        t = item[0].n_frames
        if window and frames + t > EMIT_BATCH_FRAMES:
            yield window
            window, frames = [], 0
        window.append(item)
        frames += t
    if window:
        yield window


def _frame_batches(items):
    """Length-grouped batches of each window (module docstring).

    A window sorted by frame count (stably) is cut before a row longer than
    `EMIT_LENGTH_RATIO` times the batch's shortest, or whose length times
    the grown row count would exceed `EMIT_BATCH_FRAMES`.
    """
    for window in _windows(items):
        window.sort(key=lambda item: item[0].n_frames)
        batch = []
        for item in window:
            t = item[0].n_frames
            if batch and (t > EMIT_LENGTH_RATIO * batch[0][0].n_frames
                          or (len(batch) + 1) * t > EMIT_BATCH_FRAMES):
                yield batch
                batch = []
            batch.append(item)
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

    Inputs are `.melf` or `.wav` files anywhere under `corpus_dir`, read
    in sorted relative-path order and written flat into `out_dir` as
    `<path with / as __, no suffix>.{orig,conv}.melf`.  Each file gets a
    seed derived from the run seed and its relative path, so reruns
    reproduce byte-identical outputs.  Unreadable inputs, inputs the model
    cannot convert, and inputs whose output names collide (`a/b.melf` and
    `a__b.melf`, or `a/b.wav` next to `a/b.melf`) are recorded in
    `failures` and skipped.  A missing `corpus_dir`, or an `out_dir` equal
    to or inside it (whose views a later run would read back as sources),
    raises `DataError` before `out_dir` is created.

    Conversion runs in length-grouped batches of windows of at most
    `EMIT_BATCH_FRAMES` real frames (module docstring), which bounds the
    memory held; the manifest lists files in sorted relative-path order
    whatever the batches were, and `failures` is sorted.
    """
    corpus_dir = Path(corpus_dir)
    out_dir = Path(out_dir)
    if not corpus_dir.is_dir():
        raise DataError(f"corpus directory not found: {corpus_dir}")
    if out_dir.resolve().is_relative_to(corpus_dir.resolve()):
        raise DataError(f"output directory {out_dir} lies inside the corpus {corpus_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
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

    rows: dict[str, str] = {}   # relative path -> manifest row
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
            rows[rel] = f"{rel}\t{orig_rel}\t{conv_rel}\t{pair.target_speaker_id}\t{pair.seed}"

    manifest_path = out_dir / "manifest.tsv"
    manifest_path.write_text("".join(rows[rel] + "\n" for rel in sources if rel in rows),
                             encoding="utf-8")
    return EmitResult(manifest_path=manifest_path, n_pairs=len(rows), failures=sorted(failures))
