import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcaug import augment as aug
from vcaug import autodiff as ad
from vcaug import bottleneck as bn
from vcaug import cli
from vcaug import data as vd
from vcaug.model import VcModel, pad_batch, save_checkpoint
from vcaug.signal import (
    MelSpectrogram,
    SpecAugmentPolicy,
    Waveform,
    frame_geometry,
    read_melf,
    read_melf_header,
    read_wav,
    read_wav_header,
    spec_augment,
    write_melf,
    write_wav,
)

from conftest import toy_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def toy_vc_model():
    model = VcModel(toy_config(seed=7))
    model.set_feature_stats(np.full(8, -2.0), np.full(8, 1.5))
    return model


def toy_mel_spec(t=12, seed=0):
    return MelSpectrogram(data=np.random.default_rng(seed).normal(size=(t, 8)).astype(np.float32))


def params_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(model.params[name].values.tobytes())
    return h.hexdigest()


def test_convert_preserves_shape_and_model(toy_vc_model):
    mel = toy_mel_spec(t=17)
    before = params_digest(toy_vc_model)
    out = aug.convert(mel, 1, toy_vc_model)
    assert out.data.shape == mel.data.shape
    assert params_digest(toy_vc_model) == before


def test_convert_rejects_bad_speaker(toy_vc_model):
    with pytest.raises(ValueError, match="speaker id"):
        aug.convert(toy_mel_spec(), 99, toy_vc_model)


def test_convert_rejects_dim_mismatch(toy_vc_model):
    mel = MelSpectrogram(data=np.zeros((12, 5), dtype=np.float32))
    with pytest.raises(vd.DataError, match="feature dim"):
        aug.convert(mel, 0, toy_vc_model)


def test_speaker_pool_validation():
    with pytest.raises(ValueError, match="empty"):
        aug.SpeakerPool(ids=())
    with pytest.raises(ValueError, match="duplicate"):
        aug.SpeakerPool(ids=(1, 1))
    pool = aug.SpeakerPool.all_of(VcModel(toy_config()))
    assert pool.ids == (0, 1, 2)


def test_sample_target_single_id():
    pool = aug.SpeakerPool(ids=(4,))
    rng = np.random.default_rng(0)
    assert all(aug.sample_target(pool, rng) == 4 for _ in range(10))


def test_sample_target_uniformity():
    pool = aug.SpeakerPool(ids=(0, 1, 2, 3, 4, 5))
    rng = np.random.default_rng(1)
    n = 60_000
    draws = np.array([aug.sample_target(pool, rng) for _ in range(n)])
    sigma = np.sqrt((1 / 6) * (5 / 6) / n)
    for spk in pool.ids:
        assert abs(np.mean(draws == spk) - 1 / 6) <= 5 * sigma


def test_sample_target_seeded_sequence():
    pool = aug.SpeakerPool(ids=(0, 1, 2))
    a = [aug.sample_target(pool, np.random.default_rng(42)) for _ in range(1)]
    b = [aug.sample_target(pool, np.random.default_rng(42)) for _ in range(1)]
    assert a == b


def view_pair(mel, model, pool, policy, seed):
    """Both views of one utterance: `_view_pairs` with a one-utterance convert."""
    def convert_one(mels, targets):
        return [aug.convert(mels[0], targets[0], model)]

    return aug._view_pairs([mel], [seed], pool, policy, convert_one)[0]


def test_make_view_pair_no_masks_keeps_original(toy_vc_model):
    mel = toy_mel_spec(t=10, seed=3)
    pair = view_pair(mel, toy_vc_model, aug.SpeakerPool(ids=(0, 1, 2)),
                     SpecAugmentPolicy(), seed=5)
    assert np.array_equal(pair.original.data, mel.data)
    assert pair.converted.data.shape == mel.data.shape
    assert pair.target_speaker_id in (0, 1, 2)
    assert pair.seed == 5


def test_make_view_pair_deterministic(toy_vc_model):
    mel = toy_mel_spec(t=10, seed=4)
    policy = SpecAugmentPolicy(n_freq_masks=1, max_freq_width=3,
                               n_time_masks=1, max_time_width=3)
    pool = aug.SpeakerPool(ids=(0, 1, 2))
    a = view_pair(mel, toy_vc_model, pool, policy, seed=9)
    b = view_pair(mel, toy_vc_model, pool, policy, seed=9)
    c = view_pair(mel, toy_vc_model, pool, policy, seed=10)
    assert np.array_equal(a.original.data, b.original.data)
    assert np.array_equal(a.converted.data, b.converted.data)
    assert a.target_speaker_id == b.target_speaker_id
    different = (
        not np.array_equal(a.original.data, c.original.data)
        or not np.array_equal(a.converted.data, c.converted.data)
        or a.target_speaker_id != c.target_speaker_id
    )
    assert different


def test_make_view_pair_draw_order(toy_vc_model):
    """One generator per seed draws the target, the original's masks, then the converted's."""
    mel = toy_mel_spec(t=16, seed=6)
    policy = SpecAugmentPolicy(n_freq_masks=2, max_freq_width=3,
                               n_time_masks=2, max_time_width=4)
    pool = aug.SpeakerPool(ids=(0, 1, 2))
    pair = view_pair(mel, toy_vc_model, pool, policy, seed=11)
    rng = np.random.default_rng(11)
    target = aug.sample_target(pool, rng)
    original = spec_augment(mel, policy, rng)
    converted = spec_augment(aug.convert(mel, target, toy_vc_model), policy, rng)
    assert pair.target_speaker_id == target
    np.testing.assert_array_equal(pair.original.data, original.data)
    np.testing.assert_array_equal(pair.converted.data, converted.data)


def make_corpus_dir(tmp_path, n=4, t=12):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(n):
        mel = toy_mel_spec(t=t, seed=100 + i)
        write_melf(corpus / f"utt{i}.melf", mel)
    return corpus


def test_emit_dataset_counts_and_manifest(tmp_path, toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=10)
    out = tmp_path / "views"
    result = aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0, 1)),
                              SpecAugmentPolicy(), out, seed=0)
    assert result.n_pairs == 10
    assert not result.failures
    melfs = sorted(out.glob("*.melf"))
    assert len(melfs) == 20
    lines = result.manifest_path.read_text().splitlines()
    assert len(lines) == 10
    for line in lines:
        src, orig, conv, target, seed = line.split("\t")
        assert (out / orig).exists() and (out / conv).exists()
        assert int(target) in (0, 1)
        back = read_melf(out / conv)
        assert back.n_mels == 8


def test_emit_dataset_rerun_byte_identical(tmp_path, toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=3)
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    policy = SpecAugmentPolicy(n_freq_masks=1, max_freq_width=2)
    pool = aug.SpeakerPool(ids=(0, 1, 2))
    aug.emit_dataset(corpus, toy_vc_model, pool, policy, out1, seed=7)
    aug.emit_dataset(corpus, toy_vc_model, pool, policy, out2, seed=7)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_emit_dataset_empty_corpus(tmp_path, toy_vc_model):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    result = aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0,)),
                              SpecAugmentPolicy(), tmp_path / "views", seed=0)
    assert result.n_pairs == 0
    assert result.manifest_path.read_text() == ""


def test_emit_dataset_bad_file_listed_and_continues(tmp_path, toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=2)
    (corpus / "broken.melf").write_bytes(b"JUNKDATA")
    result = aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0,)),
                              SpecAugmentPolicy(), tmp_path / "views", seed=0)
    assert result.n_pairs == 2
    assert len(result.failures) == 1
    assert result.failures[0][0] == "broken.melf"


@pytest.fixture(scope="module")
def toy_vc_model64():
    model = VcModel(toy_config(seed=7), dtype=np.float64)
    model.set_feature_stats(np.full(8, -2.0), np.full(8, 1.5))
    return model


def test_batched_rows_match_single_conversions(toy_vc_model64):
    model = toy_vc_model64
    mels = [toy_mel_spec(t=t, seed=20 + t) for t in (12, 7, 5, 9)]
    targets = [2, 0, 1, 2]
    batch, lengths = pad_batch([mel.data for mel in mels])
    rows = aug._decode_as(batch, np.array(targets), model, lengths)
    converted = aug._convert_batch(mels, targets, model)
    for row, n, mel, target, out in zip(rows, lengths, mels, targets, converted):
        alone = aug._decode_as(mel.data, target, model)
        np.testing.assert_allclose(row[:n], alone, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, aug.convert(mel, target, model).data,
                                   rtol=0, atol=1e-12)


def test_full_length_batch_records_no_mask_op(toy_vc_model):
    mels = [toy_mel_spec(t=12, seed=s) for s in (1, 2, 3)]
    with ad.Tape() as single:
        aug.convert(mels[0], 1, toy_vc_model)
    with ad.Tape() as full:
        aug._convert_batch(mels, [1, 0, 2], toy_vc_model)
    with ad.Tape() as padded:
        aug._convert_batch(mels[:2] + [toy_mel_spec(t=5, seed=3)], [1, 0, 2], toy_vc_model)
    assert len(full) == len(single) < len(padded)


def test_conversion_runs_no_bottleneck_loss(tmp_path, monkeypatch, toy_vc_model):
    mel = toy_mel_spec(t=13, seed=8)
    expected = aug.convert(mel, 2, toy_vc_model).data

    def training_only(*args, **kwargs):
        raise AssertionError("conversion ran the bottleneck losses")

    monkeypatch.setattr(bn, "quantize", training_only)
    np.testing.assert_array_equal(aug.convert(mel, 2, toy_vc_model).data, expected)
    result = aug.emit_dataset(make_corpus_dir(tmp_path, n=3), toy_vc_model,
                              aug.SpeakerPool(ids=(0, 1)), SpecAugmentPolicy(),
                              tmp_path / "views", seed=0)
    assert result.n_pairs == 3 and not result.failures


def cpus(monkeypatch, n):
    """Let emit see n CPUs, so it runs min(windows, n) processes."""
    monkeypatch.setattr(aug.os, "sched_getaffinity", lambda pid: set(range(n)))


def count_batches(monkeypatch):
    """Record each converted batch's size; pins one CPU, since a forked
    worker's calls never reach this process."""
    cpus(monkeypatch, 1)
    sizes = []
    real = aug._convert_batch

    def counting(mels, targets, model):
        sizes.append(len(mels))
        return real(mels, targets, model)

    monkeypatch.setattr(aug, "_convert_batch", counting)
    return sizes


def mixed_length_corpus(tmp_path, lengths):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, t in enumerate(lengths):
        write_melf(corpus / f"utt{i}.melf", toy_mel_spec(t=t, seed=200 + i))
    return corpus


def test_emit_dataset_batch_budget_changes_only_float_rounding(tmp_path, monkeypatch,
                                                               toy_vc_model64):
    corpus = mixed_length_corpus(tmp_path, [12, 7, 5, 9, 16, 4, 11])
    policy = SpecAugmentPolicy(n_freq_masks=1, max_freq_width=2,
                               n_time_masks=1, max_time_width=3)
    pool = aug.SpeakerPool(ids=(0, 1, 2))
    sizes = count_batches(monkeypatch)
    whole = aug.emit_dataset(corpus, toy_vc_model64, pool, policy, tmp_path / "one", seed=3)
    assert sizes == [3, 4]
    monkeypatch.setattr(aug, "EMIT_BATCH_FRAMES", 24)
    split = aug.emit_dataset(corpus, toy_vc_model64, pool, policy, tmp_path / "many", seed=3)
    assert sizes[2:] == [2, 1, 1, 1, 1, 1]
    assert whole.n_pairs == split.n_pairs == 7 and not whole.failures and not split.failures
    assert whole.manifest_path.read_bytes() == split.manifest_path.read_bytes()
    for line in whole.manifest_path.read_text().splitlines():
        src, orig, conv, target, seed = line.split("\t")
        assert (tmp_path / "one" / orig).read_bytes() == (tmp_path / "many" / orig).read_bytes()
        alone = view_pair(read_melf(corpus / src), toy_vc_model64, pool, policy, int(seed))
        assert alone.target_speaker_id == int(target)
        np.testing.assert_array_equal(read_melf(tmp_path / "one" / orig).data,
                                      alone.original.data)
        # float64 rows agree to ~1e-15 before rounding to float32: one ulp at most
        for out in ("one", "many"):
            np.testing.assert_allclose(read_melf(tmp_path / out / conv).data,
                                       alone.converted.data, rtol=2.0**-22, atol=0)


def test_emit_dataset_bad_files_inside_a_batch_fail_alone(tmp_path, monkeypatch,
                                                          toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=4)
    write_melf(corpus / "utt1_dim.melf", MelSpectrogram(data=np.zeros((12, 5))))
    write_melf(corpus / "utt2_short.melf", toy_mel_spec(t=3, seed=9))
    sizes = count_batches(monkeypatch)
    result = aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0, 1)),
                              SpecAugmentPolicy(), tmp_path / "views", seed=0)
    assert sizes == [4]
    assert [rel for rel, _ in result.failures] == ["utt1_dim.melf", "utt2_short.melf"]
    assert "feature dim 5" in result.failures[0][1]
    assert "at least 4 frames" in result.failures[1][1]
    rows = [line.split("\t")[0] for line in result.manifest_path.read_text().splitlines()]
    assert rows == [f"utt{i}.melf" for i in range(4)] and result.n_pairs == 4
    assert len(list((tmp_path / "views").glob("*.melf"))) == 8


def test_emit_dataset_failed_batch_records_every_file(tmp_path, monkeypatch, toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=3)

    def broken(mels, targets, model):
        raise FloatingPointError("overflow in decode")

    monkeypatch.setattr(aug, "_convert_batch", broken)
    result = aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0,)),
                              SpecAugmentPolicy(), tmp_path / "views", seed=0)
    assert result.n_pairs == 0
    assert [rel for rel, _ in result.failures] == [f"utt{i}.melf" for i in range(3)]
    assert all("overflow in decode" in err for _, err in result.failures)
    assert result.manifest_path.read_text() == ""


def test_emit_dataset_rejects_colliding_output_names(tmp_path, toy_vc_model):
    corpus = tmp_path / "corpus"
    (corpus / "a").mkdir(parents=True)
    (corpus / "x").mkdir()
    write_melf(corpus / "a" / "b.melf", toy_mel_spec(seed=1))
    write_melf(corpus / "a__b.melf", toy_mel_spec(seed=2))
    write_melf(corpus / "x" / "y.melf", toy_mel_spec(seed=3))
    write_wav(corpus / "x" / "y.wav", Waveform(np.zeros(4000), sample_rate_hz=16000))
    write_melf(corpus / "c.melf", toy_mel_spec(seed=4))
    out = tmp_path / "views"
    result = aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0, 1)),
                              SpecAugmentPolicy(), out, seed=0)
    assert dict(result.failures).keys() == {"a/b.melf", "a__b.melf", "x/y.melf", "x/y.wav"}
    failures = dict(result.failures)
    assert "a__b.melf" in failures["a/b.melf"] and "a/b.melf" in failures["a__b.melf"]
    assert "x/y.wav" in failures["x/y.melf"] and "x/y.melf" in failures["x/y.wav"]
    assert result.n_pairs == 1
    assert result.manifest_path.read_text().startswith("c.melf\tc.orig.melf\tc.conv.melf\t")
    assert sorted(p.name for p in out.iterdir()) == ["c.conv.melf", "c.orig.melf",
                                                     "manifest.tsv"]


def path_order_batches(window):
    """The path-order grouping `_frame_batches` replaced, within one window:
    consecutive items while rows x longest row fits the budget."""
    batch, longest = [], 0
    for item in window:
        t = item[0].n_frames
        if batch and (len(batch) + 1) * max(longest, t) > aug.EMIT_BATCH_FRAMES:
            yield batch
            batch, longest = [], 0
        batch.append(item)
        longest = max(longest, t)
    if batch:
        yield batch


def frames_of(item):
    return item[0].n_frames


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(1, 80), max_size=40), budget=st.integers(4, 120),
       n_procs=st.integers(1, 4))
def test_frame_batches_group_by_length_within_budget(lengths, budget, n_procs):
    planned = [(t, i) for i, t in enumerate(lengths)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aug, "EMIT_BATCH_FRAMES", budget)
        windows = list(aug._windows(iter(planned)))
        # a process holds one window of features, and cuts every batch out of it
        batches = [batch for window in windows for batch in aug._frame_batches(
            [(SimpleNamespace(n_frames=t), i) for t, i in window])]
        shares = aug._shares(windows, n_procs)
    assert sorted(i for batch in batches for _, i in batch) == list(range(len(planned)))
    window_of = {i: w for w, window in enumerate(windows) for _, i in window}
    for batch in batches:
        assert len({window_of[i] for _, i in batch}) == 1
        rows = sorted(map(frames_of, batch))
        assert len(rows) == 1 or len(rows) * rows[-1] <= budget
        assert rows[-1] <= aug.EMIT_LENGTH_RATIO * rows[0]
    assert [item for window in windows for item in window] == planned
    for window in windows:
        assert len(window) == 1 or sum(t for t, _ in window) <= budget
    # every window goes to exactly one of n_procs shares, each in path order
    assert len(shares) == n_procs
    assert sorted(map(window_of.get, (w[0][1] for share in shares for w in share))) == \
        list(range(len(windows)))
    for share in shares:
        starts = [window[0][1] for window in share]
        assert starts == sorted(starts)


def test_emit_dataset_length_grouping_keeps_path_order_outputs(tmp_path, monkeypatch,
                                                               toy_vc_model64):
    lengths = [30, 5, 17, 6, 40, 9, 22, 4, 12, 33]   # length order differs from path order
    corpus = mixed_length_corpus(tmp_path, lengths)
    policy = SpecAugmentPolicy(n_freq_masks=1, max_freq_width=2,
                               n_time_masks=1, max_time_width=3)
    pool = aug.SpeakerPool(ids=(0, 1, 2))
    monkeypatch.setattr(aug, "EMIT_BATCH_FRAMES", 64)
    sizes = count_batches(monkeypatch)
    grouped = aug.emit_dataset(corpus, toy_vc_model64, pool, policy, tmp_path / "grouped", seed=5)
    assert sizes == [2, 2, 1, 1, 1, 2, 1]   # [5, 6] [17, 30] | [9] [40] | [4] [12, 22] | [33]
    monkeypatch.setattr(aug, "_frame_batches", path_order_batches)
    in_order = aug.emit_dataset(corpus, toy_vc_model64, pool, policy, tmp_path / "in_order",
                                seed=5)
    assert sizes[7:] == [2, 2, 1, 1, 2, 1, 1]   # [30, 5] [17, 6] | [40] [9] | [22, 4] [12] | [33]
    rows = grouped.manifest_path.read_text().splitlines()
    assert [row.split("\t")[0] for row in rows] == sorted(f"utt{i}.melf" for i in range(10))
    assert grouped.manifest_path.read_bytes() == in_order.manifest_path.read_bytes()
    for row in rows:
        _, orig, conv, _, _ = row.split("\t")
        assert (tmp_path / "grouped" / orig).read_bytes() == \
            (tmp_path / "in_order" / orig).read_bytes()
        np.testing.assert_allclose(read_melf(tmp_path / "grouped" / conv).data,
                                   read_melf(tmp_path / "in_order" / conv).data,
                                   rtol=2.0**-21, atol=0)


def mixed_format_corpus(tmp_path, melf_frames, wav_seconds, rate=16000):
    """`m<i>.melf` of the given frame counts and `w<i>.wav` of the given durations."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, t in enumerate(melf_frames):
        write_melf(corpus / f"m{i}.melf", toy_mel_spec(t=t, seed=300 + i))
    rng = np.random.default_rng(5)
    for i, seconds in enumerate(wav_seconds):
        n = int(seconds * rate)
        samples = 0.3 * np.sin(np.arange(n) * (0.05 + 0.01 * i)) + 0.01 * rng.normal(size=n)
        write_wav(corpus / f"w{i}.wav", Waveform(samples, sample_rate_hz=rate))
    return corpus


def tree_bytes(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))}


def test_emit_dataset_output_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch,
                                                              toy_vc_model):
    corpus = mixed_format_corpus(tmp_path, [12, 40, 7, 25, 60, 9], [0.3, 0.55, 0.2, 0.8, 0.4])
    good = (corpus / "w0.wav").read_bytes()
    (corpus / "w_cut.wav").write_bytes(good[:-200])           # header valid, data short
    (corpus / "m_junk.melf").write_bytes(b"JUNKDATA")         # fails its header
    policy = SpecAugmentPolicy(n_freq_masks=1, max_freq_width=2,
                               n_time_masks=1, max_time_width=3)
    pool = aug.SpeakerPool(ids=(0, 1, 2))
    monkeypatch.setattr(aug, "EMIT_BATCH_FRAMES", 64)
    planned = [(aug._source_frames(p, toy_vc_model), p.name)
               for p in sorted(corpus.iterdir()) if p.name not in ("w_cut.wav", "m_junk.melf")]
    assert len(list(aug._windows(planned))) >= 6
    runs = {}
    for n in (1, 2, 3, 4):
        cpus(monkeypatch, n)
        out = tmp_path / f"views{n}"
        result = aug.emit_dataset(corpus, toy_vc_model, pool, policy, out, seed=4)
        runs[n] = (tree_bytes(out), result.n_pairs, result.failures)
    assert runs[1][1] == 11
    assert [rel for rel, _ in runs[1][2]] == ["m_junk.melf", "w_cut.wav"]
    for n in (2, 3, 4):
        assert runs[n] == runs[1]


def test_header_frame_counts_equal_featurized_counts(tmp_path, toy_vc_model):
    corpus = mixed_format_corpus(tmp_path, [3, 4, 5, 33, 98], [])
    for rate in (16000, 22050):
        window, hop = frame_geometry(rate)
        for n in (window - 1, window, window + 3 * hop, window + 4 * hop - 1, window + 4 * hop,
                  rate, 4 * rate + 7):
            path = corpus / f"r{rate}_{n}.wav"
            write_wav(path, Waveform(np.zeros(n), sample_rate_hz=rate))

    def outcome(frames):
        try:
            return frames()
        except ValueError as e:   # DataError too: the same check must refuse the file
            return str(e)

    counts = []
    for path in sorted(corpus.iterdir()):
        counts.append(outcome(lambda: aug._source_frames(path, toy_vc_model)))
        assert counts[-1] == outcome(lambda: aug._read_source(path, toy_vc_model).n_frames), \
            path.name
        if path.suffix == ".wav":
            wav = read_wav(path)
            assert read_wav_header(path) == (len(wav.samples), wav.sample_rate_hz)
        else:
            assert read_melf_header(path) == read_melf(path).data.shape
    # MELF 4, 5, 33, 98; per rate 4, 4 and 5 frames either side of a hop, 1 s and 4 s
    assert sum(isinstance(c, int) for c in counts) == 14
    assert (counts.count(4), counts.count(5)) == (5, 3)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_emit_dataset_payload_failures_found_by_the_reader(tmp_path, monkeypatch,
                                                           toy_vc_model, n_cpus):
    corpus = mixed_format_corpus(tmp_path, [12, 30, 20], [0.3, 0.4])
    good = (corpus / "w0.wav").read_bytes()
    (corpus / "w_cut.wav").write_bytes(good[:-100])
    inf = bytearray((corpus / "m1.melf").read_bytes())
    inf[16 + 4 * 9 : 16 + 4 * 10] = np.array([np.inf], dtype="<f4").tobytes()
    (corpus / "m_inf.melf").write_bytes(bytes(inf))
    monkeypatch.setattr(aug, "EMIT_BATCH_FRAMES", 48)
    cpus(monkeypatch, n_cpus)
    result = aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0, 1)),
                              SpecAugmentPolicy(), tmp_path / "views", seed=0)
    failures = dict(result.failures)
    assert list(failures) == ["m_inf.melf", "w_cut.wav"]
    assert failures["m_inf.melf"].endswith("m_inf.melf: non-finite value at offset 52")
    assert failures["w_cut.wav"].endswith(
        f"w_cut.wav: data chunk holds {len(good) - 144} bytes, header declares {len(good) - 44}")
    rows = [line.split("\t")[0] for line in result.manifest_path.read_text().splitlines()]
    assert rows == ["m0.melf", "m1.melf", "m2.melf", "w0.wav", "w1.wav"]


class Timeout(Exception):
    pass


@pytest.fixture
def time_limit():
    """Fail a test that runs for more than 60 s, killing any worker it left."""
    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        raise Timeout("emit did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_emit_dataset_leaves_no_child_process(tmp_path, monkeypatch, toy_vc_model, time_limit):
    corpus = mixed_length_corpus(tmp_path, [12, 30, 20, 9, 16, 24])
    monkeypatch.setattr(aug, "EMIT_BATCH_FRAMES", 32)
    cpus(monkeypatch, 2)
    args = (toy_vc_model, aug.SpeakerPool(ids=(0, 1)), SpecAugmentPolicy())
    result = aug.emit_dataset(corpus, *args, tmp_path / "ok", seed=0)
    assert result.n_pairs == 6 and not result.failures
    assert multiprocessing.active_children() == []

    caller = os.getpid()
    real_write = aug.write_melf

    def failing_in_workers(failure):
        def write(path, mel):
            if os.getpid() != caller:
                failure()
            real_write(path, mel)
        return write

    def disk_full():
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(aug, "write_melf", failing_in_workers(disk_full))
    with pytest.raises(OSError, match="No space left"):
        aug.emit_dataset(corpus, *args, tmp_path / "raised", seed=0)
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(aug, "write_melf", failing_in_workers(lambda: os._exit(7)))
    with pytest.raises(ChildProcessError, match="exited with code 7 without a result"):
        aug.emit_dataset(corpus, *args, tmp_path / "died", seed=0)
    assert multiprocessing.active_children() == []


def test_one_process_emit_never_imports_multiprocessing(tmp_path, toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=3)
    checkpoint = tmp_path / "toy.vcck"
    save_checkpoint(toy_vc_model, checkpoint)
    script = (
        "import sys\n"
        "from vcaug import augment, cli, model, signal\n"
        "assert 'multiprocessing' not in sys.modules, 'imported by the package'\n"
        f"m = model.load_checkpoint({str(checkpoint)!r})\n"
        f"r = augment.emit_dataset({str(corpus)!r}, m, augment.SpeakerPool.all_of(m),\n"
        f"                         signal.SpecAugmentPolicy(), {str(tmp_path / 'views')!r}, 0)\n"
        "assert r.n_pairs == 3 and not r.failures\n"
        "assert 'multiprocessing' not in sys.modules, 'imported by a one-window emit'\n"
    )
    src = str(Path(aug.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def parent_emit(corpus, model, pool, policy, out, seed, budget=8192):
    """A copy of the serial emit that read every source in path order and cut
    windows of at most `budget` real frames from the read features."""
    out.mkdir()
    rows = []
    read = [(aug._read_source(corpus / rel, model), rel, aug._output_stem(rel))
            for rel in sorted(p.name for p in corpus.iterdir())]
    window, frames, windows = [], 0, []
    for item in read:
        if window and frames + item[0].n_frames > budget:
            windows.append(window)
            window, frames = [], 0
        window.append(item)
        frames += item[0].n_frames
    windows.append(window)
    for window in windows:
        window.sort(key=frames_of)
        batches, batch = [], []
        for item in window:
            t = item[0].n_frames
            if batch and (t > 2 * batch[0][0].n_frames or (len(batch) + 1) * t > budget):
                batches.append(batch)
                batch = []
            batch.append(item)
        batches.append(batch)
        for batch in batches:
            pairs = aug._view_pairs([mel for mel, _, _ in batch],
                                    [aug._file_seed(seed, rel) for _, rel, _ in batch], pool,
                                    policy, lambda m, t: aug._convert_batch(m, t, model))
            for (_, rel, stem), pair in zip(batch, pairs):
                write_melf(out / f"{stem}.orig.melf", pair.original)
                write_melf(out / f"{stem}.conv.melf", pair.converted)
                rows.append((rel, f"{rel}\t{stem}.orig.melf\t{stem}.conv.melf\t"
                                  f"{pair.target_speaker_id}\t{pair.seed}\n"))
    (out / "manifest.tsv").write_text("".join(row for _, row in sorted(rows)))


def test_parallel_emit_matches_the_serial_emit_to_float32_rounding(tmp_path, monkeypatch,
                                                                   toy_vc_model):
    seconds = [0.5, 4.0, 1.2, 3.1, 0.7, 2.2, 4.0, 0.9, 1.6, 2.8, 4.0, 3.5, 0.6, 1.9] * 2
    corpus = mixed_format_corpus(tmp_path, [98, 140, 60, 98, 220, 75], seconds)
    policy = SpecAugmentPolicy(n_freq_masks=1, max_freq_width=2,
                               n_time_masks=1, max_time_width=3)
    pool = aug.SpeakerPool(ids=(0, 1, 2))
    cpus(monkeypatch, 2)
    result = aug.emit_dataset(corpus, toy_vc_model, pool, policy, tmp_path / "parallel", seed=9)
    assert result.n_pairs == 34 and not result.failures
    planned = [(aug._source_frames(p, toy_vc_model),) for p in sorted(corpus.iterdir())]
    assert len(list(aug._windows(planned))) >= 3
    parent_emit(corpus, toy_vc_model, pool, policy, tmp_path / "serial", seed=9)
    parallel, serial = tree_bytes(tmp_path / "parallel"), tree_bytes(tmp_path / "serial")
    assert parallel.keys() == serial.keys()
    for name in parallel:
        if name.endswith(".conv.melf"):
            np.testing.assert_allclose(read_melf(tmp_path / "parallel" / name).data,
                                       read_melf(tmp_path / "serial" / name).data,
                                       rtol=0, atol=2e-6)
        else:
            assert parallel[name] == serial[name], name


def test_emit_dataset_missing_corpus_creates_no_output(tmp_path, toy_vc_model):
    out = tmp_path / "views" / "nested"
    with pytest.raises(vd.DataError, match="corpus directory not found"):
        aug.emit_dataset(tmp_path / "missing", toy_vc_model, aug.SpeakerPool(ids=(0,)),
                         SpecAugmentPolicy(), out, seed=0)
    assert not (tmp_path / "views").exists()


@pytest.mark.parametrize("out_rel", ["corpus", "corpus/views", "corpus/views/../deeper/views"])
def test_emit_dataset_refuses_out_dir_inside_corpus(tmp_path, toy_vc_model, out_rel):
    corpus = make_corpus_dir(tmp_path, n=3)
    before = sorted(corpus.rglob("*"))
    with pytest.raises(vd.DataError, match="inside the corpus"):
        aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0,)),
                         SpecAugmentPolicy(), tmp_path / out_rel, seed=0)
    assert sorted(corpus.rglob("*")) == before


def test_emit_dataset_sibling_sharing_the_corpus_name_prefix_is_allowed(tmp_path, toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=3)
    result = aug.emit_dataset(corpus, toy_vc_model, aug.SpeakerPool(ids=(0,)),
                              SpecAugmentPolicy(), tmp_path / "corpus_views", seed=0)
    assert result.n_pairs == 3 and not result.failures


def augment_argv(tmp_path, model, corpus, out):
    checkpoint = tmp_path / "toy.vcck"
    save_checkpoint(model, checkpoint)
    return ["augment", "--config", str(CONFIGS / "toy.cfg"), "--checkpoint", str(checkpoint),
            "--corpus", str(corpus), "--out", str(out)]


def test_cli_augment_missing_corpus_exits_2_without_output(tmp_path, capsys, toy_vc_model):
    out = tmp_path / "views"
    argv = augment_argv(tmp_path, toy_vc_model, tmp_path / "missing", out)
    assert cli.main(argv) == cli.EXIT_DATA
    assert "corpus directory not found" in capsys.readouterr().err
    assert not out.exists()


def test_cli_augment_out_inside_corpus_exits_2_without_output(tmp_path, capsys, toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=3)
    out = corpus / "views"
    assert cli.main(augment_argv(tmp_path, toy_vc_model, corpus, out)) == cli.EXIT_DATA
    assert "inside the corpus" in capsys.readouterr().err
    assert not out.exists()


def test_cli_augment_lists_malformed_melf_files_and_exits_2(tmp_path, capsys, toy_vc_model):
    corpus = make_corpus_dir(tmp_path, n=2)
    good = (corpus / "utt0.melf").read_bytes()
    nan = bytearray(good)
    nan[16 + 4 * 7 : 16 + 4 * 8] = np.array([np.inf], dtype="<f4").tobytes()
    bad_magic = bytearray(good)
    bad_magic[1] ^= 0x20
    (corpus / "bad_inf.melf").write_bytes(bytes(nan))
    (corpus / "bad_magic.melf").write_bytes(bytes(bad_magic))
    (corpus / "bad_cut.melf").write_bytes(good[:41])
    out = tmp_path / "views"
    assert cli.main(augment_argv(tmp_path, toy_vc_model, corpus, out)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    for name, reason in [("bad_cut.melf", "payload ends at offset 41"),
                         ("bad_inf.melf", "non-finite value at offset 44"),
                         ("bad_magic.melf", "bad magic")]:
        assert f"augment: failed {name}: " in err and reason in err
    rows = [row.split("\t")[0] for row in (out / "manifest.tsv").read_text().splitlines()]
    assert rows == ["utt0.melf", "utt1.melf"]
