"""Conversion-based two-view emission for downstream recognizer training.

For each source utterance this produces two views: the original features
and a conversion of them to a uniformly sampled target speaker from the
conversion model's training pool, with independent time/frequency masking
applied to each view.  The conversion model is read-only throughout.

`convert` renders one [T, M] utterance.  `emit_dataset` converts a corpus
in padded batches grouped by length:

- The batches are planned from file headers alone (a MELF header's T and
  M, a WAV header's sample count and rate).  The sources that pass the
  header checks are sorted by frame count (a stable sort) and cut into
  batches: a batch ends before a row more than `EMIT_LENGTH_RATIO` times
  its shortest row, or before a row that would make rows x longest row
  exceed `EMIT_BATCH_FRAMES`.
- The batches are shared out, largest (in padded frames) first, to the
  least-loaded of min(batches, CPUs) processes: the caller and forked
  workers.  Each process reads, converts and writes one batch at a time;
  a batch is one [B, T_max, M] forward with per-row lengths.  The caller
  gathers every share's manifest rows and failures and writes the manifest.

Each process holds one batch of features at a time, so emit memory is
bounded by that budget, not by the corpus size.  Each row computes what
the utterance would alone, but float32 GEMM summation order depends on the
batch shape, so a converted view can differ from `convert`'s output, and
across batch compositions, by float32 rounding.  Seeds, target speakers and
masks are drawn per file, the batches depend only on the corpus, and the
manifest is written in sorted path order, so the output bytes do not
depend on the CPU count or on which process ran a batch.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bottleneck as bn
from .data import DataError, read_features
from .model import VcModel, _encoded_lengths, pad_batch
from .signal import (
    MelSpectrogram,
    SpecAugmentPolicy,
    frame_count,
    frame_geometry,
    read_melf_header,
    read_wav_header,
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
# 20 one-second utterances, or 5 of 4 s; a longer file is a batch alone.
# It splits the vcbench corpora (5,880 and about 6,400 real frames) into
# 3-5 batches to share between processes.
EMIT_BATCH_FRAMES = 2048

# Longest row over shortest allowed in one emit batch.  Measured with the
# budget at 8192 frames, when the augment_wav_mixed corpus (24 files of
# 0.5-4 s, 6,375 real frames on seed 11) was grouped as a whole: the batched
# forward took, in process CPU ms with OpenBLAS on 1 thread, 2 vCPUs
# (median of 15), path-order grouping / ratio 3 / 2 / 1.5: 204 / 177 / 156 /
# 155 on seed 11 and 213 / 177 / 170 / 149 on seed 12.  Ratio 2 cut the
# padded frames from 9,552 to 7,485 in 3 batches, where 1.5 made 5 (each
# batch is one more encode and decode call).
EMIT_LENGTH_RATIO = 2


def _check_shape(n_frames: int, n_mels: int, model: VcModel) -> None:
    if n_mels != model.config.n_mels:
        raise DataError(f"feature dim {n_mels} does not match model n_mels {model.config.n_mels}")
    if n_frames < 4:
        raise DataError(f"need at least 4 frames to convert, got {n_frames}")


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
    _check_shape(mel.n_frames, mel.n_mels, model)
    return MelSpectrogram(data=_decode_as(mel.data, target_speaker_id, model).astype(np.float32))


def _convert_batch(mels: list[MelSpectrogram], targets: list[int],
                   model: VcModel) -> list[MelSpectrogram]:
    """Convert checked utterances in one padded forward, each cut to its length."""
    batch, lengths = pad_batch([mel.data for mel in mels])
    recon = _decode_as(batch, np.asarray(targets), model, lengths).astype(np.float32)
    return [MelSpectrogram(data=row[:n]) for row, n in zip(recon, lengths)]


def sample_target(pool: SpeakerPool, rng: np.random.Generator) -> int:
    """Uniform draw over the pool."""
    return int(pool.ids[int(rng.integers(len(pool.ids)))])


def _view_pairs(mels, seeds, pool: SpeakerPool, policy: SpecAugmentPolicy,
                model: VcModel) -> list[ViewPair]:
    """Both views of each utterance, drawn from a generator seeded per utterance.

    Each generator draws the target speaker, then the original view's masks,
    then the converted view's masks; the conversions, one padded forward
    (`_convert_batch`), come in between and draw nothing.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    targets = [sample_target(pool, rng) for rng in rngs]
    pairs = []
    for mel, converted, target, rng, seed in zip(
            mels, _convert_batch(mels, targets, model), targets, rngs, seeds):
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


def _source_frames(path: Path, model: VcModel) -> int:
    """Frames `_read_source` would give, from the file's header; checked as it checks them."""
    if path.suffix == ".melf":
        n_frames, n_mels = read_melf_header(path)
    else:
        n_samples, rate = read_wav_header(path)
        n_frames, n_mels = frame_count(n_samples, *frame_geometry(rate)), model.config.n_mels
    _check_shape(n_frames, n_mels, model)
    return n_frames


def _read_source(path: Path, model: VcModel) -> MelSpectrogram:
    mel = read_features(path, model.config.n_mels)
    _check_shape(mel.n_frames, mel.n_mels, model)
    return mel


def _frame_batches(planned):
    """Length-grouped batches of planned (frames, ...) items.

    The items sorted by frame count (stably) are cut before a row longer
    than `EMIT_LENGTH_RATIO` times the batch's shortest, or whose length
    times the grown row count would exceed `EMIT_BATCH_FRAMES`.
    """
    batch = []
    for item in sorted(planned, key=lambda item: item[0]):
        t = item[0]
        if batch and (t > EMIT_LENGTH_RATIO * batch[0][0]
                      or (len(batch) + 1) * t > EMIT_BATCH_FRAMES):
            yield batch
            batch = []
        batch.append(item)
    if batch:
        yield batch


def _shares(batches, n: int) -> list[list]:
    """`batches` dealt to n processes, largest first to the least loaded.

    A batch weighs its padded frames, rows x longest row.  Ties go to the
    lower batch and process index, and each share keeps the batches' order.
    """
    padded = [len(batch) * max(t for t, *_ in batch) for batch in batches]
    loads = [0] * n
    shares: list[list[int]] = [[] for _ in range(n)]
    for i in sorted(range(len(batches)), key=lambda i: -padded[i]):
        least = loads.index(min(loads))
        loads[least] += padded[i]
        shares[least].append(i)
    return [[batches[i] for i in sorted(share)] for share in shares]


def _cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _run_shares(shares: list, run) -> list:
    """`run(share)` for each share: the first here, each other in a forked child.

    With the `fork` start method the children inherit `run` and their share,
    the model included, where a pickling start method or executor would copy
    the model into every child on every call (365 MB at `paper.cfg`).  Fork
    copies only the calling thread; OpenBLAS shuts down its own thread pool
    around a fork.  Each child's result comes back over a pipe
    and is read before the child is joined.  Every child is joined, even
    when the caller's own share raises; only then is the first exception a
    child raised re-raised here, and a child that exits without sending a
    result raises `ChildProcessError`.
    """
    if len(shares) == 1:
        return [run(shares[0])]
    import multiprocessing   # imported here so that a one-process emit never loads it

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for share in shares[1:]:
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_child_main, args=(send, run, share))
            try:
                child.start()
            finally:
                send.close()   # the child's copy is then the only writer: its exit ends the pipe
            children.append((child, receive))
        own = run(shares[0])
    finally:
        replies = [_child_reply(child, receive) for child, receive in children]
    for reply in replies:
        if isinstance(reply, BaseException):
            raise reply
    return [own] + replies


def _child_main(send, run, share) -> None:
    try:
        reply = run(share)
    except BaseException as e:  # noqa: BLE001 - sent to the caller, which raises it
        reply = e
    send.send(reply)
    send.close()


def _child_reply(child, receive):
    """The child's result, or the exception to raise for it; the child is joined."""
    try:
        reply = receive.recv()
    except EOFError:
        reply = None
    finally:
        receive.close()
        child.join()
    if reply is None:
        reply = ChildProcessError(
            f"emit worker {child.pid} exited with code {child.exitcode} without a result")
    return reply


def emit_dataset(
    corpus_dir,
    model: VcModel,
    pool: SpeakerPool,
    policy: SpecAugmentPolicy,
    out_dir,
    seed: int,
) -> EmitResult:
    """Write paired view files plus a manifest for every utterance found.

    Inputs are `.melf` or `.wav` files anywhere under `corpus_dir`, taken
    in sorted relative-path order and written flat into `out_dir` as
    `<path with / as __, no suffix>.{orig,conv}.melf`.  Each file gets a
    seed derived from the run seed and its relative path, so reruns
    reproduce byte-identical outputs.  Unreadable inputs, inputs the model
    cannot convert, and inputs whose output names collide (`a/b.melf` and
    `a__b.melf`, or `a/b.wav` next to `a/b.melf`) are recorded in
    `failures` and skipped.  A missing `corpus_dir`, or an `out_dir` equal
    to or inside it (whose views a later run would read back as sources),
    raises `DataError` before `out_dir` is created.

    Length-grouped batches are planned from the file headers, and each runs
    in one process, the caller or a forked worker, which reads, converts
    and writes it (module docstring); each process holds one batch of
    features at a time.  The batches depend only on the corpus, so the
    output bytes do not depend on the CPU count.  The manifest lists files
    in sorted relative-path order, and `failures` is sorted.  An exception
    raised while writing views, in any process, is raised here once every
    worker has been joined, as is `ChildProcessError` for a worker that
    died without a result.
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
    planned = []   # (frames, relative path, output stem)
    for rel, stem in stems.items():
        others = [other for other in by_stem[stem] if other != rel]
        if others:
            failures.append((rel, f"output name {stem}.*.melf is shared with {', '.join(others)}"))
            continue
        try:
            planned.append((_source_frames(corpus_dir / rel, model), rel, stem))
        except Exception as e:  # noqa: BLE001 - recorded per file
            failures.append((rel, str(e)))

    def run(share):
        """Read, convert and write each batch; its manifest rows and failures."""
        rows: dict[str, str] = {}   # relative path -> manifest row
        failed: list[tuple[str, str]] = []
        for batch in share:
            read = []
            for _, rel, stem in batch:
                try:
                    read.append((_read_source(corpus_dir / rel, model), rel, stem))
                except Exception as e:  # noqa: BLE001 - recorded per file
                    failed.append((rel, str(e)))
            if not read:
                continue
            try:
                pairs = _view_pairs([mel for mel, _, _ in read],
                                    [_file_seed(seed, rel) for _, rel, _ in read],
                                    pool, policy, model)
            except Exception as e:  # noqa: BLE001 - recorded per file
                failed.extend((rel, f"batch conversion failed: {e}") for _, rel, _ in read)
                continue
            for (_, rel, stem), pair in zip(read, pairs):
                orig_rel = f"{stem}.orig.melf"
                conv_rel = f"{stem}.conv.melf"
                write_melf(out_dir / orig_rel, pair.original)
                write_melf(out_dir / conv_rel, pair.converted)
                rows[rel] = (f"{rel}\t{orig_rel}\t{conv_rel}\t"
                             f"{pair.target_speaker_id}\t{pair.seed}")
        return rows, failed

    batches = list(_frame_batches(planned))
    rows: dict[str, str] = {}
    shares = _shares(batches, max(1, min(len(batches), _cpus())))
    for share_rows, share_failures in _run_shares(shares, run):
        rows.update(share_rows)
        failures.extend(share_failures)

    manifest_path = out_dir / "manifest.tsv"
    manifest_path.write_text("".join(rows[rel] + "\n" for rel in sources if rel in rows),
                             encoding="utf-8")
    return EmitResult(manifest_path=manifest_path, n_pairs=len(rows), failures=sorted(failures))
