import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcaug import signal as sig


def tone(freq_hz, duration_s=1.0, rate=16000, amp=0.5):
    t = np.arange(int(duration_s * rate)) / rate
    return sig.Waveform(samples=amp * np.sin(2 * np.pi * freq_hz * t), sample_rate_hz=rate)


def test_silence_hits_log_floor():
    wave = sig.Waveform(samples=np.zeros(16000), sample_rate_hz=16000)
    mel = sig.compute_log_mel(wave)
    assert mel.data.shape == (98, 80)
    np.testing.assert_allclose(mel.data, np.log(1e-10), rtol=1e-6)


def test_one_second_gives_98_frames():
    # 1 + floor((16000 - 400) / 160) computed independently of the frontend
    assert 1 + (16000 - 400) // 160 == 98
    mel = sig.compute_log_mel(tone(440.0))
    assert mel.n_frames == 98 and mel.n_mels == 80


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=400, max_value=40000))
def test_framing_arithmetic_property(n):
    wave = sig.Waveform(samples=np.zeros(n), sample_rate_hz=16000)
    mel = sig.compute_log_mel(wave)
    assert mel.n_frames == 1 + (n - 400) // 160


def test_short_wave_rejected():
    wave = sig.Waveform(samples=np.zeros(399), sample_rate_hz=16000)
    with pytest.raises(ValueError, match="shorter than one"):
        sig.compute_log_mel(wave)


def test_pure_tone_peaks_at_bracketing_filter():
    mel = sig.compute_log_mel(tone(1000.0))
    # independent center-frequency oracle from the HTK mel formula
    def to_mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    centers = to_hz(np.linspace(to_mel(125.0), to_mel(7600.0), 82))[1:-1]
    below = int(np.searchsorted(centers, 1000.0)) - 1
    bracketing = {below, below + 1}
    for frame in mel.data:
        assert int(np.argmax(frame)) in bracketing


def test_log_floor_invariant():
    mel = sig.compute_log_mel(tone(3000.0, duration_s=0.2))
    assert (mel.data >= np.log(1e-10) - 1e-6).all()


def test_filterbank_has_no_empty_filters():
    fbank = sig.mel_filterbank(16000, 512, 80)
    assert (fbank.sum(axis=1) > 0).all()


def test_log_mel_filterbank_cached_read_only_and_unchanged():
    fbank = sig._cached_filterbank(16000, 512, 80)
    assert sig._cached_filterbank(16000, 512, 80) is fbank
    assert not fbank.flags.writeable and fbank.flags.c_contiguous
    np.testing.assert_array_equal(fbank, sig.mel_filterbank(16000, 512, 80))
    wave_in = tone(440.0, duration_s=0.3)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(400) / 400)
    frames = wave_in.samples[np.arange(28)[:, None] * 160 + np.arange(400)] * hann
    mag = np.abs(np.fft.rfft(frames, n=512, axis=1))
    expected = np.log(np.maximum(mag @ sig.mel_filterbank(16000, 512, 80).T, sig.LOG_FLOOR))
    np.testing.assert_array_equal(sig.compute_log_mel(wave_in).data,
                                  expected.astype(np.float32))


def one_shot_log_mel(wave, n_mels=80):
    """The frontend as a single [T, window] pass: a gather-index array, a
    gathered copy and a windowed copy of every 25-ms frame every 10 ms at once."""
    window = int(round(wave.sample_rate_hz * 25.0 / 1000.0))
    hop = int(round(wave.sample_rate_hz * 10.0 / 1000.0))
    t = sig.frame_count(len(wave.samples), window, hop)
    n_fft = 1
    while n_fft < window:
        n_fft *= 2
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    fbank = sig.mel_filterbank(wave.sample_rate_hz, n_fft, n_mels)
    starts = np.arange(t) * hop
    frames = wave.samples[starts[:, None] + np.arange(window)] * hann
    mag = np.abs(np.fft.rfft(frames, n=n_fft, axis=1))
    return np.log(np.maximum(mag @ fbank.T, sig.LOG_FLOOR)).astype(np.float32)


# 400-sample windows every 160 samples at 16 kHz; each id names the
# sample count and the frame size and shift in ms
@pytest.mark.parametrize("n_samples", [
    pytest.param(n, id=f"{n}-{sig.FRAME_SIZE_MS}-{sig.FRAME_SHIFT_MS}") for n in [
        *[400 + (t - 1) * 160 for t in (1, 31, 32, 33, 62, 63, 64, 65)],
        64000,        # a 4-s file: 398 frames, 13 blocks
        64000 + 77,   # ragged tail
        9000,         # 54 frames and a 120-sample tail
    ]])
def test_log_mel_blocks_bit_identical_to_one_shot_pass(n_samples):
    rng = np.random.default_rng(n_samples)
    t = np.arange(n_samples) / 16000
    wave = sig.Waveform(samples=0.4 * np.sin(2 * np.pi * 310.0 * t)
                        + 0.1 * rng.uniform(-1, 1, n_samples), sample_rate_hz=16000)
    mel = sig.compute_log_mel(wave)
    expected = one_shot_log_mel(wave)
    assert mel.data.dtype == np.float32 and mel.data.shape == expected.shape
    assert np.array_equal(mel.data, expected)


def test_log_mel_block_temporaries_stay_under_the_mmap_threshold():
    # glibc maps an allocation of 128 KiB or more to fresh pages
    window, _ = sig.frame_geometry(16000)
    n_fft = 1 << (window - 1).bit_length()
    per_frame = {"padded FFT input": 8 * n_fft, "complex spectrum": 16 * (n_fft // 2 + 1)}
    for what, n_bytes in per_frame.items():
        assert sig.LOG_MEL_BLOCK_FRAMES * n_bytes < 128 * 1024, what
    # the largest such block: one more frame puts the spectrum over it
    assert (sig.LOG_MEL_BLOCK_FRAMES + 1) * per_frame["complex spectrum"] >= 128 * 1024


def rand_mel(rng, t=40, m=80):
    return sig.MelSpectrogram(data=rng.normal(size=(t, m)).astype(np.float32))


def test_spec_augment_zero_masks_is_identity():
    rng = np.random.default_rng(0)
    mel = rand_mel(rng)
    out = sig.spec_augment(mel, sig.SpecAugmentPolicy(0, 0, 0, 0), np.random.default_rng(1))
    assert np.array_equal(out.data, mel.data)
    assert out.data is not mel.data


def test_spec_augment_single_freq_mask_band():
    rng = np.random.default_rng(2)
    mel = rand_mel(rng)
    policy = sig.SpecAugmentPolicy(n_freq_masks=1, max_freq_width=8, n_time_masks=0)
    out = sig.spec_augment(mel, policy, np.random.default_rng(3))
    changed = np.any(out.data != mel.data, axis=0)
    cols = np.flatnonzero(changed)
    assert len(cols) <= 8
    if len(cols):
        assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1))  # contiguous
        assert (out.data[:, cols] == 0.0).all()
    untouched = ~changed
    assert np.array_equal(out.data[:, untouched], mel.data[:, untouched])


def test_spec_augment_full_time_mask_allowed():
    rng = np.random.default_rng(4)
    mel = rand_mel(rng, t=12)
    policy = sig.SpecAugmentPolicy(n_freq_masks=0, n_time_masks=1, max_time_width=12)
    out = sig.spec_augment(mel, policy, np.random.default_rng(5))
    changed_rows = np.any(out.data != mel.data, axis=1)
    rows = np.flatnonzero(changed_rows)
    if len(rows):
        assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
    assert np.array_equal(out.data[~changed_rows], mel.data[~changed_rows])


def test_spec_augment_input_untouched_and_seeded():
    rng = np.random.default_rng(6)
    mel = rand_mel(rng)
    before = mel.data.copy()
    policy = sig.SpecAugmentPolicy(n_freq_masks=2, max_freq_width=10, n_time_masks=2, max_time_width=5)
    a = sig.spec_augment(mel, policy, np.random.default_rng(42))
    b = sig.spec_augment(mel, policy, np.random.default_rng(42))
    assert np.array_equal(mel.data, before)
    assert np.array_equal(a.data, b.data)


@settings(max_examples=30, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=30),
    m=st.integers(min_value=1, max_value=40),
    n_f=st.integers(min_value=0, max_value=3),
    w_f=st.integers(min_value=0, max_value=50),
    n_t=st.integers(min_value=0, max_value=3),
    w_t=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_spec_augment_shape_and_idempotence(t, m, n_f, w_f, n_t, w_t, seed):
    mel = sig.MelSpectrogram(data=np.random.default_rng(seed).normal(size=(t, m)))
    policy = sig.SpecAugmentPolicy(n_f, w_f, n_t, w_t)
    out = sig.spec_augment(mel, policy, np.random.default_rng(seed))
    assert out.data.shape == mel.data.shape
    # masking already-masked regions with the same draws changes nothing
    again = sig.spec_augment(out, policy, np.random.default_rng(seed))
    assert np.array_equal(again.data, out.data)


def test_melf_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    mel = rand_mel(rng, t=7, m=80)
    path = tmp_path / "x.melf"
    sig.write_melf(path, mel)
    back = sig.read_melf(path)
    assert np.array_equal(back.data, mel.data)


def test_melf_header_size(tmp_path):
    mel = rand_mel(np.random.default_rng(8), t=98, m=80)
    path = tmp_path / "x.melf"
    sig.write_melf(path, mel)
    assert path.stat().st_size == 16 + 98 * 80 * 4


def test_melf_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.melf"
    sig.write_melf(path, rand_mel(np.random.default_rng(9), t=3, m=4))
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(sig.MelfFormatError, match="offset 0"):
        sig.read_melf(path)


def test_melf_truncated_rejected(tmp_path):
    path = tmp_path / "x.melf"
    sig.write_melf(path, rand_mel(np.random.default_rng(10), t=3, m=4))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(sig.MelfFormatError, match="offset"):
        sig.read_melf(path)


def test_wav_round_trip_and_scaling(tmp_path):
    pcm = np.array([-32768, -1, 0, 1, 32767], dtype=np.int16)
    path = tmp_path / "x.wav"
    import wave as wave_mod

    with wave_mod.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(16000)
        f.writeframes(pcm.tobytes())
    wav = sig.read_wav(path)
    assert wav.sample_rate_hz == 16000
    np.testing.assert_allclose(
        wav.samples, [-1.0, -1 / 32768, 0.0, 1 / 32768, 32767 / 32768]
    )


def test_wav_stereo_rejected(tmp_path):
    import wave as wave_mod

    path = tmp_path / "stereo.wav"
    with wave_mod.open(str(path), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(16000)
        f.writeframes(np.zeros(100, dtype=np.int16).tobytes())
    with pytest.raises(sig.WavFormatError, match="mono"):
        sig.read_wav(path)


def test_write_wav_read_wav_round_trip(tmp_path):
    wave_out = tone(500.0, duration_s=0.05)
    path = tmp_path / "t.wav"
    sig.write_wav(path, wave_out)
    back = sig.read_wav(path)
    np.testing.assert_allclose(back.samples, wave_out.samples, atol=1.0 / 32768)


def _small_wav_bytes(tmp_dir, n=40):
    path = tmp_dir / "small.wav"
    sig.write_wav(path, sig.Waveform(samples=0.5 * np.sin(np.arange(n) / 3.0), sample_rate_hz=16000))
    return path.read_bytes()


def test_truncated_wav_raises_at_every_offset(tmp_path):
    good = _small_wav_bytes(tmp_path)
    path = tmp_path / "cut.wav"
    for n in range(len(good)):
        path.write_bytes(good[:n])
        with pytest.raises(sig.WavFormatError, match=r"cut.wav: .*\d bytes") as refused:
            sig.read_wav(path)
        header = _outcome(sig.read_wav_header, path, sig.WavFormatError)
        assert header == str(refused.value) or "data chunk holds" in str(refused.value)
    path.write_bytes(good)
    assert len(sig.read_wav(path).samples) == 40


def test_wav_data_chunk_shorter_than_declared_names_byte_counts(tmp_path):
    path = tmp_path / "long.wav"
    sig.write_wav(path, sig.Waveform(samples=np.zeros(4000), sample_rate_hz=16000))
    path.write_bytes(path.read_bytes()[:1000])
    with pytest.raises(sig.WavFormatError, match="holds 956 bytes, header declares 8000"):
        sig.read_wav(path)


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 43), st.integers(1, 255)), min_size=1, max_size=4),
       keep=st.integers(0, 124))
def test_wav_header_byte_flips_raise_only_wav_format_error(tmp_path_factory, flips, keep):
    tmp_dir = tmp_path_factory.mktemp("flip")
    blob = bytearray(_small_wav_bytes(tmp_dir))
    for index, mask in flips:
        blob[index] ^= mask
    path = tmp_dir / "flipped.wav"
    path.write_bytes(bytes(blob[:keep]))
    header = _outcome(sig.read_wav_header, path, sig.WavFormatError)
    try:
        wav = sig.read_wav(path)
    except sig.WavFormatError as e:
        assert "flipped.wav" in str(e)
        # the header reader refuses what read_wav refuses in the header, with its message
        assert header == str(e) or "data chunk holds" in str(e)
    else:
        assert wav.samples.ndim == 1 and wav.sample_rate_hz > 0
        assert header == (len(wav.samples), wav.sample_rate_hz)


def _outcome(read, path, error):
    try:
        return read(path)
    except error as e:
        return str(e)


def test_readers_given_a_directory_raise_their_own_errors(tmp_path):
    from vcaug import model as vm

    named = re.escape(str(tmp_path))
    with pytest.raises(sig.WavFormatError, match=named):
        sig.read_wav(tmp_path)
    with pytest.raises(sig.WavFormatError, match=named):
        sig.read_wav_header(tmp_path)
    with pytest.raises(sig.MelfFormatError, match=named):
        sig.read_melf(tmp_path)
    with pytest.raises(sig.MelfFormatError, match=named):
        sig.read_melf_header(tmp_path)
    with pytest.raises(vm.CheckpointError, match=named):
        vm.read_checkpoint_raw(tmp_path)


def test_melf_non_finite_payload_names_path_and_offset(tmp_path):
    path = tmp_path / "nan.melf"
    sig.write_melf(path, rand_mel(np.random.default_rng(11), t=3, m=4))
    blob = bytearray(path.read_bytes())
    blob[16 + 4 * 5 : 16 + 4 * 6] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(sig.MelfFormatError, match="nan.melf: non-finite value at offset 36"):
        sig.read_melf(path)


def test_cli_featurize_truncated_wav_and_inspect_directory_exit_2(tmp_path, capsys):
    from vcaug import cli

    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    sig.write_wav(wav_dir / "ok.wav", tone(300.0, duration_s=0.1))
    full = (wav_dir / "ok.wav").read_bytes()
    (wav_dir / "stub.wav").write_bytes(full[:20])
    (wav_dir / "cut.wav").write_bytes(full[:1001])
    argv = ["featurize", "--wav-dir", str(wav_dir), "--out", str(tmp_path / "mels")]
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "skipped cut.wav" in err and "skipped stub.wav" in err
    assert sorted(p.name for p in (tmp_path / "mels").iterdir()) == ["ok.melf"]
    assert cli.main(["inspect", "--checkpoint", str(tmp_path)]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def _small_melf_bytes(tmp_dir, t=3, m=4):
    path = tmp_dir / "small.melf"
    sig.write_melf(path, rand_mel(np.random.default_rng(12), t=t, m=m))
    return path.read_bytes()


def test_truncated_melf_raises_at_every_offset(tmp_path):
    good = _small_melf_bytes(tmp_path)
    path = tmp_path / "cut.melf"
    for n in range(len(good)):
        path.write_bytes(good[:n])
        with pytest.raises(sig.MelfFormatError, match=r"cut.melf: .* at offset \d+"):
            sig.read_melf(path)
    path.write_bytes(good)
    assert sig.read_melf(path).data.shape == (3, 4)


def _read_flipped_melf(tmp_dir, blob):
    path = tmp_dir / "flipped.melf"
    path.write_bytes(bytes(blob))
    header = _outcome(sig.read_melf_header, path, sig.MelfFormatError)
    try:
        mel = sig.read_melf(path)
    except sig.MelfFormatError as e:
        assert "flipped.melf" in str(e)
        assert header == str(e) or "non-finite" in str(e)
        return None
    assert header == mel.data.shape
    assert np.isfinite(mel.data).all()
    assert 16 + 4 * mel.data.size == len(blob)
    return mel


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 255)), min_size=1, max_size=4),
       keep=st.integers(0, 64))
def test_melf_header_byte_flips_raise_only_melf_format_error(tmp_path_factory, flips, keep):
    tmp_dir = tmp_path_factory.mktemp("flip")
    blob = bytearray(_small_melf_bytes(tmp_dir))
    for index, mask in flips:
        blob[index] ^= mask
    _read_flipped_melf(tmp_dir, blob[:keep])


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(16, 63), st.integers(1, 255)), min_size=1, max_size=6))
@example(flips=[(23, 0x40)])   # 1.046 -> NaN: the exponent bits all set
@example(flips=[(27, 0x40)])   # 0.742 -> 2.5e38, still finite
def test_melf_payload_byte_flips_raise_only_melf_format_error(tmp_path_factory, flips):
    tmp_dir = tmp_path_factory.mktemp("flip")
    blob = bytearray(_small_melf_bytes(tmp_dir))
    for index, mask in flips:
        blob[index] ^= mask
    values = np.frombuffer(bytes(blob), dtype="<f4", offset=16)
    mel = _read_flipped_melf(tmp_dir, blob)
    # a flip into an exponent of all ones makes inf or NaN, which must be refused
    assert (mel is None) == (not np.isfinite(values).all())
    if mel is not None:
        assert np.array_equal(mel.data.ravel(), values)
