import numpy as np
import pytest

from vcaug import data as vd


def test_speaker_profiles_deterministic_and_distinct():
    a = vd.speaker_profiles(6, seed=0)
    b = vd.speaker_profiles(6, seed=0)
    assert a == b
    f0s = [p.f0_hz for p in a]
    assert len(set(f0s)) == 6
    assert all(f0s[i] < f0s[i + 1] for i in range(5))


def test_synth_utterance_shape_and_range():
    profile = vd.speaker_profiles(2, seed=0)[0]
    wave = vd.synth_utterance(profile, np.random.default_rng(0), duration_s=0.5)
    assert len(wave.samples) == 8000
    assert np.abs(wave.samples).max() <= 0.3 + 1e-9


def test_synthetic_corpus_layout():
    corpus = vd.synthetic_corpus(n_speakers=3, utts_per_speaker=2, seed=1, duration_s=0.3)
    assert len(corpus) == 6
    assert sorted({spk for _, spk in corpus}) == [0, 1, 2]
    t = corpus[0][0].n_frames
    assert all(mel.data.shape == (t, 80) for mel, _ in corpus)


def test_speakers_have_distinct_envelopes():
    corpus = vd.synthetic_corpus(n_speakers=3, utts_per_speaker=4, seed=0, duration_s=0.5)
    envs = {spk: np.mean([mel.data.mean(axis=0) for mel, s in corpus if s == spk], axis=0)
            for spk in range(3)}
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.linalg.norm(envs[a] - envs[b]) > 1.0


def test_utterances_differ_within_speaker():
    corpus = vd.synthetic_corpus(n_speakers=1, utts_per_speaker=3, seed=0, duration_s=0.5)
    (a, _), (b, _), (c, _) = corpus
    assert not np.array_equal(a.data, b.data)
    assert not np.array_equal(b.data, c.data)


def test_speaker_map_round_trip(tmp_path):
    path = tmp_path / "speakers.tsv"
    vd.write_speaker_map(path, ["alice", "bob", "carol"])
    mapping = vd.load_speaker_map(path)
    assert mapping == {"alice": 0, "bob": 1, "carol": 2}


def test_speaker_map_requires_dense_ids(tmp_path):
    path = tmp_path / "speakers.tsv"
    path.write_text("0\talice\n2\tbob\n")
    with pytest.raises(vd.DataError, match="dense"):
        vd.load_speaker_map(path)


def test_speaker_map_rejects_bad_lines(tmp_path):
    path = tmp_path / "speakers.tsv"
    path.write_text("0 alice\n")
    with pytest.raises(vd.DataError, match="id<TAB>name"):
        vd.load_speaker_map(path)


def test_speaker_map_missing_file():
    with pytest.raises(vd.DataError, match="not found"):
        vd.load_speaker_map("/nonexistent/speakers.tsv")


def test_corpus_tree_round_trip(tmp_path):
    map_path = vd.write_corpus_tree(tmp_path / "corpus", n_speakers=2,
                                    utts_per_speaker=2, seed=0, duration_s=0.3)
    mapping = vd.load_speaker_map(map_path)
    dataset = vd.load_corpus(tmp_path / "corpus", mapping)
    assert len(dataset) == 4
    assert {spk for _, spk in dataset} == {0, 1}
    assert dataset[0][0].n_mels == 80


def test_load_corpus_unknown_speaker_dir(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "ghost").mkdir(parents=True)
    (corpus / "ghost" / "u.melf").write_bytes(b"")
    with pytest.raises(vd.DataError, match="not in speaker map"):
        vd.load_corpus(corpus, {"alice": 0})


def test_load_corpus_empty(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "alice").mkdir(parents=True)
    with pytest.raises(vd.DataError, match="no .melf or .wav"):
        vd.load_corpus(corpus, {"alice": 0})
