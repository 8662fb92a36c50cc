import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcaug import cli
from vcaug import data as vd
from vcaug.signal import MelSpectrogram, mel_filterbank, write_melf

from conftest import damage

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def reference_synth_utterance(profile, rng, duration_s, sample_rate_hz=16000, alphabet=None):
    """The per-harmonic composition: an [n_harmonics, n] content matrix smoothed row by
    row with np.convolve, times an [n_harmonics, n] sine table."""
    if alphabet is None:
        alphabet = vd.phone_alphabet()
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    n_harmonics = max(3, int(7000.0 / profile.f0_hz))
    freqs = profile.f0_hz * np.arange(1, n_harmonics + 1)
    speaker_amps = vd._envelope(profile, freqs)
    seg_samples = []
    remaining = n
    while remaining > 0:
        span = min(int(rng.uniform(0.08, 0.16) * sample_rate_hz), remaining)
        seg_samples.append(span)
        remaining -= span
    phone_ids = rng.integers(0, len(alphabet), size=len(seg_samples))
    content = np.empty((n_harmonics, n))
    pos = 0
    for span, pid in zip(seg_samples, phone_ids):
        content[:, pos : pos + span] = vd._phone_gain(alphabet[pid], freqs)[:, None]
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
    return 0.3 * x / np.abs(x).max()


def single_sample_tail_duration(seed: int, n_full: int = 3) -> float:
    """A duration whose last phone segment, drawn from `default_rng(seed)`, is one sample:
    the span draws come first and do not depend on the length, so after `n_full` full
    spans exactly one sample remains."""
    rng = np.random.default_rng(seed)
    n = sum(int(rng.uniform(0.08, 0.16) * 16000) for _ in range(n_full)) + 1
    return n / 16000


REFERENCE_DURATIONS = [0.008, 0.3, 4.0, 0.0173, 0.731, 1.2345]


@pytest.mark.parametrize("spk", range(6))
def test_synth_utterance_matches_per_harmonic_reference(spk):
    profile = vd.speaker_profiles(6)[spk]
    alphabet = vd.phone_alphabet()
    cases = [(d, seed) for seed, d in enumerate(REFERENCE_DURATIONS)]
    cases.append((single_sample_tail_duration(seed=99), 99))
    for duration, seed in cases:
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        wave = vd.synth_utterance(profile, rng_new, duration, alphabet=alphabet)
        ref = reference_synth_utterance(profile, rng_ref, duration, alphabet=alphabet)
        assert wave.samples.shape == ref.shape == (int(round(duration * 16000)),)
        np.testing.assert_allclose(wave.samples, ref, rtol=0, atol=1e-10)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("duration_s", [0.0, 0.005])
def test_synth_utterance_shorter_than_crossfade_rejected(duration_s):
    profile = vd.speaker_profiles(1)[0]
    with pytest.raises(ValueError, match="shorter than one 128-sample crossfade"):
        vd.synth_utterance(profile, np.random.default_rng(0), duration_s)


def test_synth_utterance_peak_memory():
    profile = vd.speaker_profiles(6)[0]   # 110 Hz, 63 harmonics: the widest stack
    alphabet = vd.phone_alphabet()
    tracemalloc.start()
    try:
        vd.synth_utterance(profile, np.random.default_rng(0), 4.0, alphabet=alphabet)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


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


def test_speaker_map_directory_and_bad_bytes_raise_data_error(tmp_path):
    with pytest.raises(vd.DataError, match=f"{tmp_path}: cannot read speaker map"):
        vd.load_speaker_map(tmp_path)
    path = tmp_path / "speakers.tsv"
    path.write_bytes(b"0\talice\n1\tb\xe9b\n")
    with pytest.raises(vd.DataError, match="speakers.tsv: speaker map is not UTF-8 text"):
        vd.load_speaker_map(path)


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=4),
       cut=st.none() | st.integers(0, 60))
def test_speaker_map_reader_raises_only_data_error(tmp_path_factory, flips, cut):
    path = tmp_path_factory.getbasetemp() / "fuzz_speakers.tsv"
    vd.write_speaker_map(path, ["alice", "bob", "carol", "dave"])
    path.write_bytes(damage(path.read_bytes(), flips, cut))
    try:
        mapping = vd.load_speaker_map(path)
    except vd.DataError as e:
        assert str(path) in str(e)
    else:
        assert sorted(mapping.values()) == list(range(len(mapping)))


def test_corpus_tree_round_trip(tmp_path):
    map_path = vd.write_corpus_tree(tmp_path / "corpus", n_speakers=2,
                                    utts_per_speaker=2, seed=0, duration_s=0.3)
    mapping = vd.load_speaker_map(map_path)
    dataset = vd.load_corpus(tmp_path / "corpus", mapping)
    assert len(dataset) == 4
    assert {spk for _, spk in dataset} == {0, 1}
    assert dataset[0][0].n_mels == 80


def test_corpus_tree_featurizes_like_synthetic_corpus(tmp_path):
    map_path = vd.write_corpus_tree(tmp_path / "corpus", n_speakers=3, utts_per_speaker=2,
                                    seed=1, duration_s=0.5)
    tree = vd.load_corpus(tmp_path / "corpus", vd.load_speaker_map(map_path))
    memory = vd.synthetic_corpus(n_speakers=3, utts_per_speaker=2, seed=1, duration_s=0.5)
    assert [spk for _, spk in tree] == [spk for _, spk in memory]
    # PCM-16 moves each sample by at most half a step; through the 400-sample Hann
    # window (sum 200) and the widest mel filter that bounds each mel magnitude
    fbank = mel_filterbank(16000, 512, 80)
    bound = fbank.sum(axis=1).max() * 200 * 0.5 / 32768
    for (a, _), (b, _) in zip(tree, memory):
        assert a.data.shape == b.data.shape
        np.testing.assert_allclose(np.exp(a.data), np.exp(b.data), rtol=1e-6, atol=bound)


def test_load_corpus_unknown_speaker_dir(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "ghost").mkdir(parents=True)
    (corpus / "ghost" / "u.melf").write_bytes(b"")
    with pytest.raises(vd.DataError, match="not in speaker map"):
        vd.load_corpus(corpus, {"alice": 0})


def test_read_features_names_the_file_whose_dimension_differs(tmp_path):
    melf = tmp_path / "wide.melf"
    write_melf(melf, MelSpectrogram(data=np.zeros((20, 40), dtype=np.float32)))
    with pytest.raises(vd.DataError, match=r"wide\.melf: feature dim 40 does not match n_mels 8"):
        vd.read_features(melf, 8)
    assert vd.read_features(melf, 40).data.shape == (20, 40)
    wav = vd.write_corpus_tree(tmp_path / "c", n_speakers=1, utts_per_speaker=1,
                               duration_s=0.3).parent / "spk0" / "u00.wav"
    assert vd.read_features(wav, 8).n_mels == 8


def toy_train_config(tmp_path):
    """toy.cfg reading a two-speaker wav corpus under `tmp_path`."""
    vd.write_corpus_tree(tmp_path / "corpus", n_speakers=2, utts_per_speaker=1, duration_s=0.3)
    config = tmp_path / "toy.cfg"
    config.write_text((CONFIGS / "toy.cfg").read_text(encoding="utf-8")
                      + "\n[data]\ncorpus = corpus\nspeaker_map = corpus/speakers.tsv\n",
                      encoding="utf-8")
    return config


def test_cli_train_on_a_corpus_with_another_feature_dim_names_the_file(tmp_path, capsys):
    config = toy_train_config(tmp_path)
    wide = tmp_path / "corpus" / "spk0" / "wide.melf"
    write_melf(wide, MelSpectrogram(data=np.zeros((20, 40), dtype=np.float32)))
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert f"data error: {wide}: feature dim 40" in capsys.readouterr().err


def test_cli_train_rejects_a_file_too_short_to_encode_before_training(tmp_path, capsys):
    config = toy_train_config(tmp_path)
    short = tmp_path / "corpus" / "spk1" / "z_short.melf"
    write_melf(short, MelSpectrogram(data=np.zeros((3, 8), dtype=np.float32)))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == cli.EXIT_DATA
    assert f"data error: {short}: 3 frames" in capsys.readouterr().err
    assert not out.exists()
    write_melf(short, MelSpectrogram(data=np.zeros((4, 8), dtype=np.float32)))
    assert len(vd.load_corpus(tmp_path / "corpus", {"spk0": 0, "spk1": 1}, n_mels=8)) == 3


def test_cli_train_out_on_an_existing_file_exits_2_naming_it(tmp_path, capsys):
    config = toy_train_config(tmp_path)
    out = tmp_path / "taken"
    out.write_text("not a directory", encoding="utf-8")
    assert cli.main(["train", "--config", str(config), "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(out) in err


def test_load_corpus_empty(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "alice").mkdir(parents=True)
    with pytest.raises(vd.DataError, match="no .melf or .wav"):
        vd.load_corpus(corpus, {"alice": 0})


def load_corpus_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_synthetic_corpus.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_script_writes_tree(tmp_path, capsys):
    out = tmp_path / "corpus"
    load_corpus_script().main(["--out", str(out), "--speakers", "2", "--utterances", "1",
                               "--duration", "0.3"])
    assert "wrote 2 speakers x 1 utterances" in capsys.readouterr().out
    assert vd.load_speaker_map(out / "speakers.tsv") == {"spk0": 0, "spk1": 1}
    assert sorted(p.name for p in out.rglob("*.wav")) == ["u00.wav", "u00.wav"]


@pytest.mark.parametrize("flag, value, named", [
    ("--speakers", "0", "--speakers must be at least 1"),
    ("--utterances", "0", "--utterances must be at least 1"),
    ("--duration", "0.005", "--duration must be at least one 8-ms crossfade"),
    ("--duration", "nan", "--duration must be at least one 8-ms crossfade"),
])
def test_corpus_script_rejects_empty_or_too_short(tmp_path, capsys, flag, value, named):
    out = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exc:
        load_corpus_script().main(["--out", str(out), flag, value])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
