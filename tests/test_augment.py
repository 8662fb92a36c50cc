import hashlib

import numpy as np
import pytest

from vcaug import augment as aug
from vcaug import data as vd
from vcaug.model import VcModel
from vcaug.signal import MelSpectrogram, SpecAugmentPolicy, read_melf, write_melf

from conftest import toy_config


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


def test_make_view_pair_no_masks_keeps_original(toy_vc_model):
    mel = toy_mel_spec(t=10, seed=3)
    pair = aug.make_view_pair(mel, toy_vc_model, aug.SpeakerPool(ids=(0, 1, 2)),
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
    a = aug.make_view_pair(mel, toy_vc_model, pool, policy, seed=9)
    b = aug.make_view_pair(mel, toy_vc_model, pool, policy, seed=9)
    c = aug.make_view_pair(mel, toy_vc_model, pool, policy, seed=10)
    assert np.array_equal(a.original.data, b.original.data)
    assert np.array_equal(a.converted.data, b.converted.data)
    assert a.target_speaker_id == b.target_speaker_id
    different = (
        not np.array_equal(a.original.data, c.original.data)
        or not np.array_equal(a.converted.data, c.converted.data)
        or a.target_speaker_id != c.target_speaker_id
    )
    assert different


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
