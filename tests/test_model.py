import hashlib
import io
import json
import struct
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcaug import augment as aug
from vcaug import autodiff as ad
from vcaug import cli
from vcaug import model as vm
from vcaug import training as tr
from vcaug.autodiff import Tape, Tensor
from vcaug.config import load_config
from vcaug.signal import MelSpectrogram, write_melf

from conftest import toy_config, toy_mel

TOY_CFG = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"


def desk_model(seed=0, n_mels=80):
    cfg = vm.ModelConfig(
        n_mels=n_mels,
        n_speakers=4,
        encoder_blocks=2,
        model_dim=64,
        n_heads=2,
        lstm_layers=2,
        lstm_dim=32,
        init_seed=seed,
    )
    return vm.VcModel(cfg)


def test_encode_length_98_to_25():
    model = desk_model()
    mel = np.random.default_rng(0).normal(size=(98, 80)).astype(np.float32)
    z = model.encode(mel)
    assert z.shape == (25, 64)  # ceil(98 / 4)


def test_encode_minimum_length():
    model = desk_model()
    z = model.encode(np.zeros((4, 80), dtype=np.float32))
    assert z.shape == (1, 64)


def test_encode_rejects_tiny_input():
    model = desk_model()
    with pytest.raises(ValueError, match="at least 4 frames"):
        model.encode(np.zeros((3, 80), dtype=np.float32))


@pytest.mark.parametrize("t,expected", [(4, 1), (5, 2), (97, 25), (98, 25), (100, 25), (101, 26)])
def test_encode_ceil_division(t, expected):
    model = desk_model()
    z = model.encode(np.zeros((t, 80), dtype=np.float32))
    assert z.shape[0] == expected


def test_embed_and_concat_shapes_and_content():
    model = desk_model()
    bottleneck_out = Tensor(np.random.default_rng(1).normal(size=(25, 64)).astype(np.float32))
    content, row = model.embed_and_concat(bottleneck_out, 2)
    assert content is bottleneck_out
    assert row.shape == (256,)
    np.testing.assert_array_equal(row.values, model.params["spk.embedding"].values[2])
    # a batch gets one row per id
    batch = Tensor(np.zeros((3, 5, 64), dtype=np.float32))
    content, rows = model.embed_and_concat(batch, [3, 0, 3])
    assert content is batch and rows.shape == (3, 256)
    np.testing.assert_array_equal(rows.values, model.params["spk.embedding"].values[[3, 0, 3]])


def test_embed_and_concat_zero_row_extends_with_zeros():
    model = desk_model()
    model.params["spk.embedding"].values[1] = 0.0
    x = Tensor(np.random.default_rng(2).normal(size=(5, 64)).astype(np.float32))
    _, row = model.embed_and_concat(x, 1)
    assert (row.values == 0).all()


def test_embed_and_concat_speaker_changes_only_tail():
    model = desk_model()
    x = Tensor(np.random.default_rng(3).normal(size=(7, 64)).astype(np.float32))
    content_a, row_a = model.embed_and_concat(x, 0)
    content_b, row_b = model.embed_and_concat(x, 3)
    assert content_a is content_b is x
    assert not np.array_equal(row_a.values, row_b.values)


def test_embed_out_of_range_speaker():
    model = desk_model()
    with pytest.raises(ValueError, match="speaker id"):
        model.embed_and_concat(Tensor(np.zeros((2, 64), dtype=np.float32)), 4)


def test_decode_trims_to_target():
    model = desk_model()
    x = Tensor(np.random.default_rng(4).normal(size=(25, 64)).astype(np.float32))
    out = model.decode(model.embed_and_concat(x, 1), target_len=98)
    assert out.shape == (98, 80)


def test_decode_single_frame_input():
    model = desk_model()
    x = model.embed_and_concat(
        Tensor(np.random.default_rng(5).normal(size=(1, 64)).astype(np.float32)), 0)
    for target in (1, 2, 3, 4):
        assert model.decode(x, target).shape == (target, 80)
    with pytest.raises(ValueError, match="exceeds"):
        model.decode(x, 5)


def test_decode_tape_length_does_not_grow_with_time():
    model = vm.VcModel(toy_config(), dtype=np.float64)
    lengths = []
    for t in (1, 5, 20):
        x = Tensor(np.random.default_rng(t).normal(size=(t, 8)))
        with Tape() as tape:
            model.decode(model.embed_and_concat(x, 2), target_len=4 * t)
        lengths.append(len(tape))
    assert lengths[0] == lengths[1] == lengths[2], lengths


def test_desk_batch_records_few_tape_nodes():
    # one node per layer norm and per BiLSTM layer; one QKᵀ, softmax and ·V
    # per attention block for all heads
    model = vm.VcModel(vm.ModelConfig())
    mels = np.random.default_rng(3).normal(size=(4, 98, 80))
    with Tape() as enc:
        z = model.encode(mels, [98] * 4)
    with Tape() as dec:
        model.decode(model.embed_and_concat(z, [0, 1, 2, 3]), 98, [25] * 4)
    assert len(enc) <= 63 and len(dec) <= 16, (len(enc), len(dec))


def test_desk_batch_loss_stage_records_few_tape_nodes():
    # huber is one op plus its mean, cross_entropy one op, total_loss four
    model = vm.VcModel(vm.ModelConfig())
    mels = np.random.default_rng(3).normal(size=(4, 98, 80)).astype(np.float32)
    speakers = np.arange(4)
    lengths = [98] * 4
    recon, qr, logits = model.forward_tensors(mels, speakers, lengths=lengths)
    with Tape() as loss:
        tr.total_loss(tr.huber(mels, recon, lengths=lengths), qr.codebook_loss, qr.commit_loss,
                      ad.cross_entropy(logits, speakers), tr.LossWeights())
    assert len(loss) <= 7, len(loss)


def _decode_by_concatenation(model, z, ids, target_len, lengths=None):
    """The decoder as composed before the speaker row became a gate bias: the
    row tiled over every frame and concatenated, and the first BiLSTM layer
    reading D + E input channels.  The rest is `VcModel.decode`, copied."""
    emb = ad.embedding_lookup(model.params["spk.embedding"], np.asarray(ids)[..., None])
    tiled = ad.add(Tensor(np.zeros(z.shape[:-1] + (model.config.speaker_dim,), model.dtype)), emb)
    x = ad.concat([z, tiled], axis=z.ndim - 1)
    for layer in range(model.config.lstm_layers):
        fwd, bwd = ([model.params[f"dec.lstm{layer}.{d}.{w}"] for w in ("wx", "wh", "b")]
                    for d in ("fwd", "bwd"))
        x = ad.bilstm_layer(x, fwd, bwd, lengths)
    x = ad.mask_frames(x, lengths)
    x = ad.relu(ad.add(ad.conv1d_transpose(x, model.params["dec.up1.w"], stride=2, padding=1),
                       model.params["dec.up1.b"]))
    x = ad.mask_frames(x, None if lengths is None else 2 * np.asarray(lengths))
    x = ad.relu(ad.add(ad.conv1d_transpose(x, model.params["dec.up2.w"], stride=2, padding=1),
                       model.params["dec.up2.b"]))
    x = ad.add(ad.matmul(x, model.params["dec.proj.w"]), model.params["dec.proj.b"])
    x = ad.narrow(x, x.ndim - 2, 0, target_len)
    return ad.add(ad.mul(x, Tensor(model.feature_std)), Tensor(model.feature_mean))


@pytest.mark.parametrize("batched", [False, True])
def test_speaker_gate_bias_matches_concatenated_input_in_float64(batched):
    # the row's share of the first layer's gates, added once per utterance, is
    # the concatenated composition reassociated: equal to float64 rounding
    model = vm.VcModel(load_config(TOY_CFG, validate_paths=False).model_config(4),
                       dtype=np.float64)
    rng = np.random.default_rng(21)
    for p in model.params.values():   # nonzero biases, so every term is exercised
        p.values += rng.normal(scale=0.1, size=p.shape)
    model.set_feature_stats(rng.normal(size=8), rng.uniform(0.5, 2.0, size=8))
    if batched:
        z, ids, lengths = Tensor(rng.normal(size=(3, 6, 8))), np.array([2, 0, 2]), [6, 4, 2]
    else:
        z, ids, lengths = Tensor(rng.normal(size=(6, 8))), np.int64(3), None
    weight = Tensor(rng.normal(size=z.shape[:-2] + (23, 8)))
    inputs = {"z": z, **model.params}

    def run(decode):
        with Tape() as tape:
            out = decode()
            loss = ad.reduce_sum(ad.mul(out, weight))
        ad.zero_grads(inputs.values())
        tape.backward(loss)
        return out.values, {k: None if t.grad is None else t.grad.copy() for k, t in inputs.items()}

    new_out, new_grads = run(lambda: model.decode(model.embed_and_concat(z, ids), 23, lengths))
    old_out, old_grads = run(lambda: _decode_by_concatenation(model, z, ids, 23, lengths))

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert rel(new_out, old_out) <= 1e-12
    for name, ref in old_grads.items():
        got = new_grads[name]
        if ref is None:
            assert got is None, name
        else:
            assert got.shape == ref.shape and rel(got, ref) <= 1e-12, name


def test_decode_outputs_finite_over_seeds():
    model = desk_model()
    for seed in range(100):
        x = Tensor(np.random.default_rng(seed).normal(size=(6, 64)).astype(np.float32))
        out = model.decode(model.embed_and_concat(x, seed % 4), target_len=24)
        assert np.isfinite(out.values).all()


def test_forward_shape_contract_and_determinism():
    model = desk_model()
    mel = MelSpectrogram(data=np.random.default_rng(6).normal(size=(98, 80)).astype(np.float32))
    out1, qr1, logits1 = model.forward_tensors(mel, 1)
    out2, qr2, logits2 = model.forward_tensors(mel, 1)
    assert out1.shape == (98, 80)
    assert qr1.indices.shape == (25, 2)
    assert logits1.shape == (4,)
    np.testing.assert_array_equal(out1.values, out2.values)
    np.testing.assert_array_equal(qr1.indices, qr2.indices)
    np.testing.assert_array_equal(logits1.values, logits2.values)


def test_forward_speaker_changes_recon_not_indices():
    model = desk_model()
    mel = MelSpectrogram(data=np.random.default_rng(7).normal(size=(40, 80)).astype(np.float32))
    out_a, qr_a, _ = model.forward_tensors(mel, 0)
    out_b, qr_b, _ = model.forward_tensors(mel, 3)
    np.testing.assert_array_equal(qr_a.indices, qr_b.indices)
    assert not np.array_equal(out_a.values, out_b.values)


def toy_loss_fn(model, mel, speaker=1, lengths=None, adv_weight=0.1):
    """The training objective over `forward_tensors`: one utterance, or a
    padded batch with per-row `lengths` and speakers."""

    def loss_fn():
        recon, qr, logits = model.forward_tensors(mel, speaker, adv_weight=adv_weight,
                                                  lengths=lengths)
        recon_loss = tr.huber(mel.astype(model.dtype), recon, delta=1.0, lengths=lengths)
        adv_loss = ad.cross_entropy(logits, speaker)
        return tr.total_loss(recon_loss, qr.codebook_loss, qr.commit_loss, adv_loss,
                             tr.LossWeights())

    return loss_fn


def test_end_to_end_gradcheck_toy_config():
    # inside check_gradients the selection and the reversal are frozen at the
    # check point, so FD measures exactly the estimator gradient of the tape
    model = vm.VcModel(toy_config(seed=3), dtype=np.float64)
    mel = toy_mel(t=12, m=8, seed=8)
    report = ad.check_gradients(
        toy_loss_fn(model, mel), model.params,
        sample_per_param=4, rng=np.random.default_rng(0),
    )
    assert report.ok(1e-4), report.per_param


def test_end_to_end_gradcheck_padded_batch():
    # rows of different lengths in one graph; lengths are multiples of 4 so
    # that no zero pad frame sits exactly on a relu kink
    model = vm.VcModel(toy_config(seed=3), dtype=np.float64)
    values, lengths = vm.pad_batch([toy_mel(t=t, m=8, seed=20 + i)
                                    for i, t in enumerate((20, 8, 12))])
    report = ad.check_gradients(
        toy_loss_fn(model, values, np.array([0, 2, 1]), lengths), model.params,
        sample_per_param=6, rng=np.random.default_rng(0),
    )
    assert report.ok(1e-4), report.per_param


def test_frozen_surrogate_matches_real_graph():
    # check_gradients perturbs only a tensor the loss never reads, so each
    # replay runs at the check point: frozen, it must reproduce the recorded
    # pass's loss and tape gradients
    model = vm.VcModel(toy_config(seed=4), dtype=np.float64)
    values, lengths = vm.pad_batch([toy_mel(t=t, m=8, seed=9 + i) for i, t in enumerate((12, 8))])
    loss_fn = toy_loss_fn(model, values, np.array([1, 2]), lengths)
    passes = []

    def taped_loss():
        with Tape() as tape:
            loss = loss_fn()
        ad.zero_grads(model.params.values())
        tape.backward(loss)
        passes.append((loss.item(), {k: p.grad.copy() for k, p in model.params.items()
                                     if p.grad is not None}))
        return loss

    ad.check_gradients(taped_loss, {"unread": Tensor(np.zeros(1))})
    (loss, grads), replays = passes[0], passes[1:]
    assert len(replays) == 2
    assert any(k.startswith("vq.") for k in grads) and any(k.startswith("adv.") for k in grads)
    for replay_loss, replay_grads in replays:
        assert abs(replay_loss - loss) <= 1e-12 * abs(loss)
        assert replay_grads.keys() == grads.keys()
        for name, g in grads.items():
            scale = max(np.abs(g).max(), 1e-300)
            assert np.abs(replay_grads[name] - g).max() <= 1e-12 * scale, name


BATCH_LENGTHS = (12, 7, 5, 9)
BATCH_SPEAKERS = np.array([0, 2, 1, 2])


def batch_loss(model, values, speakers, lengths=None):
    from vcaug import training as tr

    recon, qr, logits = model.forward_tensors(values, speakers, adv_weight=0.3, lengths=lengths)
    return tr.total_loss(
        tr.huber(Tensor(values), recon, delta=1.0, lengths=lengths),
        qr.codebook_loss, qr.commit_loss, ad.cross_entropy(logits, speakers),
        tr.LossWeights(gamma=0.7),
    )


def loss_and_grads(model, values, speakers, lengths=None):
    with Tape() as tape:
        loss = batch_loss(model, values, speakers, lengths)
    ad.zero_grads(model.params.values())
    tape.backward(loss)
    return loss.item(), {
        k: np.zeros_like(p.values) if p.grad is None else p.grad.copy()
        for k, p in model.params.items()
    }


def test_padded_batch_loss_and_grads_equal_mean_of_single_utterances():
    model = vm.VcModel(replace(toy_config(seed=3), commitment_weight=1.3), dtype=np.float64)
    mels = [toy_mel(t=t, seed=20 + i) for i, t in enumerate(BATCH_LENGTHS)]
    values, lengths = vm.pad_batch(mels)
    loss, grads = loss_and_grads(model, values, BATCH_SPEAKERS, lengths)
    singles = [loss_and_grads(model, m, int(s)) for m, s in zip(mels, BATCH_SPEAKERS)]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-10)
    for name, g in grads.items():
        ref = np.mean([s[1][name] for s in singles], axis=0)
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(g - ref).max() <= 1e-10 * scale, name


def test_padded_batch_rows_equal_single_utterance_forward():
    model = vm.VcModel(toy_config(seed=5), dtype=np.float64)
    model.set_feature_stats(np.full(8, 0.3), np.full(8, 1.7))
    mels = [toy_mel(t=t, seed=30 + i) for i, t in enumerate(BATCH_LENGTHS)]
    values, lengths = vm.pad_batch(mels)
    assert values.shape == (4, 12, 8) and list(lengths) == list(BATCH_LENGTHS)
    z_e = model.encode(values, lengths)
    recon, qr, logits = model.forward_tensors(values, BATCH_SPEAKERS, lengths=lengths)
    assert recon.shape == (4, 12, 8) and logits.shape == (4, 3)
    single_indices = []
    for row, (mel, spk) in enumerate(zip(mels, BATCH_SPEAKERS)):
        n, n_enc = len(mel), -(-len(mel) // 4)
        np.testing.assert_allclose(z_e.values[row, :n_enc], model.encode(mel).values,
                                   rtol=0, atol=1e-12)
        r, q, lg = model.forward_tensors(mel, int(spk))
        np.testing.assert_allclose(recon.values[row, :n], r.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(logits.values[row], lg.values, rtol=0, atol=1e-12)
        single_indices.append(q.indices)
    np.testing.assert_array_equal(qr.indices, np.concatenate(single_indices))


def test_full_length_batch_records_no_mask_op():
    model = vm.VcModel(toy_config(seed=6), dtype=np.float64)
    mel = toy_mel(t=12, seed=40)
    with Tape() as single:
        model.forward_tensors(mel, 1)
    with Tape() as full:
        model.forward_tensors(np.stack([mel, mel]), [1, 2], lengths=[12, 12])
    with Tape() as padded:
        model.forward_tensors(np.stack([mel, mel]), [1, 2], lengths=[12, 6])
    assert len(full) == len(single) < len(padded)


def test_convert_is_bit_identical_to_forward_tensors():
    model = desk_model(seed=13)
    mel = MelSpectrogram(data=np.random.default_rng(10).normal(size=(37, 80)).astype(np.float32))
    out = aug.convert(mel, 3, model)
    recon, _, _ = model.forward_tensors(mel, 3)
    np.testing.assert_array_equal(out.data, recon.values)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = desk_model(seed=11)
    model.set_feature_stats(np.full(80, -5.0), np.full(80, 2.0))
    model.step = 17
    mel = MelSpectrogram(data=np.random.default_rng(9).normal(size=(20, 80)).astype(np.float32))
    before = aug.convert(mel, 2, model)

    path = tmp_path / "model.vcck"
    vm.save_checkpoint(model, path)
    loaded = vm.load_checkpoint(path)
    after = aug.convert(mel, 2, loaded)
    assert loaded.step == 17
    np.testing.assert_array_equal(before.data, after.data)


def test_load_checkpoint_draws_nothing_and_adopts_the_read_arrays(tmp_path, monkeypatch):
    model = vm.VcModel(toy_config(seed=5))
    model.set_feature_stats(np.full(8, -3.0), np.full(8, 0.5))
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(model, path)

    def no_draw(*args, **kwargs):
        raise AssertionError("load drew random values")

    monkeypatch.setattr(ad, "uniform_init", no_draw)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: SimpleNamespace(uniform=no_draw, integers=no_draw))
    loaded = vm.load_checkpoint(path)
    assert list(loaded.params) == list(model.params)
    named = vm._named_arrays(loaded)
    for name, ref in vm._named_arrays(model).items():
        got = named[name]
        assert got.dtype == np.float32 and got.flags.writeable
        # read into the model's own arrays: parameters into the flat buffer
        assert np.shares_memory(got, loaded.buffer) == (name in loaded.params)
        np.testing.assert_array_equal(got, ref)
    assert loaded.codebook.groups[0] is loaded.params["vq.group0.codebook"]
    assert loaded.adversary.w2 is loaded.params["adv.w2"]


@pytest.mark.parametrize("draw", [True, False])
def test_codebook_and_adversary_hold_the_models_own_tensors(draw):
    model = vm.VcModel(toy_config(seed=2), draw=draw)
    cb = model.codebook
    assert (cb.n_groups, cb.n_entries, cb.group_dim, cb.dim) == (2, 8, 4, 8)
    for g, table in enumerate(cb.groups):
        assert table is model.params[f"vq.group{g}.codebook"]
    for w in ("w1", "b1", "w2", "b2"):
        assert getattr(model.adversary, w) is model.params[f"adv.{w}"]


def _assert_flat(model):
    """Each parameter is a contiguous view of its own slice of `model.buffer`,
    in `params` order, covering it; the feature statistics are apart; and
    `trainable` starts right after the encoder when it is frozen, else at 0."""
    start, base, itemsize = 0, model.buffer.ctypes.data, model.buffer.itemsize
    encoder = 0
    for name, p in model.params.items():
        assert p.values.flags.c_contiguous and p.values.dtype == model.buffer.dtype, name
        assert p.values.ctypes.data == base + start * itemsize, name
        start += p.values.size
        if name.startswith("enc."):
            assert start - p.values.size == encoder, name   # the encoder leads
            encoder = start
    assert start == model.buffer.size
    assert model.trainable == slice(encoder if model.config.frozen else 0,
                                    model.buffer.size)
    for stats in (model.feature_mean, model.feature_std):
        assert not np.shares_memory(stats, model.buffer)


@pytest.mark.parametrize("frozen", [False, True])
def test_trainable_parameters_stay_views_of_the_flat_buffer(tmp_path, frozen):
    model = vm.VcModel(toy_config(seed=3, frozen=frozen))
    _assert_flat(model)
    assert (model.trainable.start > 0) == frozen
    path = tmp_path / "donor.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config(seed=4)), path)
    _assert_flat(vm.load_checkpoint(path))
    vm.load_encoder_from(model, path)
    _assert_flat(model)
    np.testing.assert_array_equal(model.params["enc.sub1.w"].values,
                                  vm.load_checkpoint(path).params["enc.sub1.w"].values)
    rng = np.random.default_rng(5)
    model.codebook.init_from_outputs(rng.normal(size=(20, 8)), rng)
    _assert_flat(model)
    before = model.buffer.copy()
    corpus = [(MelSpectrogram(data=toy_mel(t=12, seed=i)), i % 3) for i in range(4)]
    tr.train(model, corpus, tr.TrainConfig(steps=3, lr=1e-3, batch_size=2))
    _assert_flat(model)
    assert not np.array_equal(model.buffer, before)


def test_save_load_save_is_byte_identical(tmp_path):
    model = desk_model(seed=14)
    model.set_feature_stats(np.linspace(-2, 2, 80), np.linspace(0.5, 1.5, 80))
    model.step = 23
    first, second = tmp_path / "a.vcck", tmp_path / "b.vcck"
    vm.save_checkpoint(model, first)
    vm.save_checkpoint(vm.load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_config_too_large_raises_checkpoint_error(tmp_path):
    # the model is built from the metadata's config before the table is read
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config()), path)
    _rewrite_checkpoint(path, edit_meta=lambda m: m["config"].update(speaker_dim=1 << 42))
    with pytest.raises(vm.CheckpointError):
        vm.load_checkpoint(path)


def test_checkpoint_misshapen_tensor_raises_checkpoint_error(tmp_path):
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(vm.VcModel(replace(toy_config(), adv_hidden=12)), path)
    _rewrite_checkpoint(path, edit_meta=lambda m: m.update(config=toy_config().to_dict()))
    with pytest.raises(vm.CheckpointError,
                       match=r"tensor adv.w1 has shape \(8, 12\), expected \(8, 16\)"):
        vm.load_checkpoint(path)


def test_checkpoint_bytes_deterministic(tmp_path):
    model = desk_model(seed=12)
    p1, p2 = tmp_path / "a.vcck", tmp_path / "b.vcck"
    vm.save_checkpoint(model, p1)
    vm.save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _one_shot_checkpoint_bytes(model, extra_meta=None):
    """Reference writer: the whole tensor table built as one bytes object, hashed, written."""
    chunks = []
    named = vm._named_arrays(model)
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name], dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    table = b"".join(chunks)
    meta = {
        "config": model.config.to_dict(),
        "content_hash": hashlib.sha256(table).hexdigest(),
        "extra": extra_meta or {},
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return (vm.CHECKPOINT_MAGIC + struct.pack("<IQI", vm.CHECKPOINT_VERSION, model.step,
                                              len(meta_bytes)) + meta_bytes + table)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streamed_checkpoint_matches_one_shot_writer(tmp_path, dtype):
    model = vm.VcModel(desk_model(seed=13).config, dtype=dtype)
    model.set_feature_stats(np.linspace(-3, 1, 80), np.linspace(0.5, 2, 80))
    model.step = 41
    extra = {"run_config_sha256": "ab" * 32}
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(model, path, extra_meta=extra)
    assert path.read_bytes() == _one_shot_checkpoint_bytes(model, extra)


def test_checkpoint_tampered_magic_rejected(tmp_path):
    model = desk_model()
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(vm.CheckpointError, match="magic"):
        vm.load_checkpoint(path)


def test_checkpoint_corrupted_payload_rejected(tmp_path):
    model = desk_model()
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(vm.CheckpointError, match="hash"):
        vm.load_checkpoint(path)


def _rewrite_checkpoint(path, edit_meta=None, edit_table=None):
    """Apply edits to a saved checkpoint, then re-seal its content hash."""
    blob = path.read_bytes()
    (meta_len,) = struct.unpack("<I", blob[16:20])
    meta = json.loads(blob[20 : 20 + meta_len])
    table = blob[20 + meta_len :]
    if edit_table is not None:
        table = edit_table(table)
    meta["content_hash"] = hashlib.sha256(table).hexdigest()
    if edit_meta is not None:
        edit_meta(meta)
    meta_bytes = json.dumps(meta).encode("utf-8")
    path.write_bytes(blob[:16] + struct.pack("<I", len(meta_bytes)) + meta_bytes + table)


def _drop_tensor(table, victim):
    named = vm._read_tensor_table(io.BytesIO(table), len(table), hashlib.sha256())
    del named[victim]
    return b"".join(vm._tensor_table_parts(named))


MALFORMED_CHECKPOINTS = {
    "no_content_hash": dict(edit_meta=lambda m: m.pop("content_hash")),
    "no_config": dict(edit_meta=lambda m: m.pop("config")),
    "bad_config": dict(edit_meta=lambda m: m["config"].pop("model_dim")),
    "string_init_seed": dict(edit_meta=lambda m: m["config"].update(init_seed="x")),
    "empty_metadata": dict(edit_meta=lambda m: m.clear()),
    # keeps the first record's name and ndim, then half of its first dimension
    "table_cut_in_record_header": dict(
        edit_table=lambda t: t[: 2 + struct.unpack_from("<H", t)[0] + 1 + 2]
    ),
    "table_cut_in_tensor_data": dict(edit_table=lambda t: t[:-2]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_raises_checkpoint_error(tmp_path, case):
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config()), path)
    _rewrite_checkpoint(path, **MALFORMED_CHECKPOINTS[case])
    with pytest.raises(vm.CheckpointError):
        vm.load_checkpoint(path)
    with pytest.raises(vm.CheckpointError):
        vm.load_encoder_from(vm.VcModel(toy_config()), path)


@pytest.mark.parametrize("key, value", [("frozen", "no"), ("frozen", 0), ("vq_groups", True),
                                        ("n_heads", True), ("init_seed", False)],
                         ids=["string_frozen", "int_frozen", "bool_vq_groups", "bool_n_heads",
                              "bool_init_seed"])
def test_checkpoint_config_field_of_the_wrong_type_raises_checkpoint_error(tmp_path, key, value):
    # `"frozen": "no"` is truthy and a bool passes for an integer: neither may load
    with pytest.raises(ValueError, match=key):
        vm.ModelConfig.from_dict({**toy_config().to_dict(), key: value})
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config()), path)
    _rewrite_checkpoint(path, edit_meta=lambda m: m["config"].update({key: value}))
    with pytest.raises(vm.CheckpointError, match=f"invalid model config.*{key}"):
        vm.load_checkpoint(path)


@pytest.mark.parametrize("case", ["no_content_hash", "no_config", "table_cut_in_record_header"])
def test_inspect_malformed_checkpoint_exits_with_data_error(tmp_path, case, capsys):
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config()), path)
    _rewrite_checkpoint(path, **MALFORMED_CHECKPOINTS[case])
    assert cli.main(["inspect", "--checkpoint", str(path)]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_inspect_intact_checkpoint(tmp_path, capsys):
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config()), path)
    assert cli.main(["inspect", "--checkpoint", str(path)]) == cli.EXIT_OK
    assert "content_hash" in capsys.readouterr().out


def test_a_save_that_fails_partway_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config(seed=1)), path)
    before = path.read_bytes()
    parts, calls = vm._tensor_table_parts, []

    def fail_in_the_write(named):
        # the first call hashes the table, the second writes it
        calls.append(named)
        for i, part in enumerate(parts(named)):
            if len(calls) == 2 and i == 4:
                raise OSError("no space left on device")
            yield part

    monkeypatch.setattr(vm, "_tensor_table_parts", fail_in_the_write)
    with pytest.raises(OSError, match="no space"):
        vm.save_checkpoint(vm.VcModel(toy_config(seed=2)), path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.vcck"]


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """A saved toy checkpoint, its metadata end offset, and a melf to convert with it."""
    tmp_dir = tmp_path_factory.mktemp("toy_checkpoint")
    model = vm.VcModel(toy_config())
    model.set_feature_stats(np.full(8, -2.0), np.full(8, 1.5))
    path = tmp_dir / "toy.vcck"
    vm.save_checkpoint(model, path)
    melf = tmp_dir / "utt.melf"
    write_melf(melf, MelSpectrogram(data=toy_mel(t=12).astype(np.float32)))
    blob = path.read_bytes()
    (meta_len,) = struct.unpack("<I", blob[16:20])
    return SimpleNamespace(model=model, blob=blob, meta_end=20 + meta_len, melf=melf)


def _load_or_checkpoint_error(path, toy):
    """Load a damaged copy of the toy checkpoint through the API and the CLI.

    Only `CheckpointError` may come out; a file that still loads must hold
    the original tensors, and `inspect` and `convert` exit 2 exactly when
    their reader refuses the file.
    """
    try:
        vm.read_checkpoint_raw(path)
        raw_ok = True
    except vm.CheckpointError:
        raw_ok = False
    try:
        loaded = vm.load_checkpoint(path)
    except vm.CheckpointError:
        loaded = None
    if loaded is not None:
        for name, t in toy.model.params.items():
            np.testing.assert_array_equal(loaded.params[name].values, t.values)
    out = path.parent / "out.melf"
    assert cli.main(["inspect", "--checkpoint", str(path)]) == (
        cli.EXIT_OK if raw_ok else cli.EXIT_DATA)
    assert cli.main(["convert", "--checkpoint", str(path), "--melf", str(toy.melf),
                     "--speaker-id", "1", "--out", str(out)]) == (
        cli.EXIT_OK if loaded is not None else cli.EXIT_DATA)
    return loaded


def test_checkpoint_truncated_in_header_or_metadata_raises_checkpoint_error(tmp_path,
                                                                            toy_checkpoint):
    path = tmp_path / "cut.vcck"
    for n in range(toy_checkpoint.meta_end + 1):
        path.write_bytes(toy_checkpoint.blob[:n])
        assert _load_or_checkpoint_error(path, toy_checkpoint) is None, n


@pytest.mark.parametrize("field", [b'"vq_groups":2', b'"n_heads":2', b'"model_dim":8',
                                   b'"lstm_dim":8', b'"n_mels":8'],
                         ids=lambda field: field.decode().split('"')[1])
def test_checkpoint_with_a_zero_count_raises_checkpoint_error(tmp_path, toy_checkpoint, field):
    # one flipped byte: the content hash covers only the tensor table
    assert toy_checkpoint.blob.count(field) == 1
    path = tmp_path / "zero.vcck"
    path.write_bytes(toy_checkpoint.blob.replace(field, field[:-1] + b"0"))
    with pytest.raises(vm.CheckpointError, match="invalid model config"):
        vm.load_checkpoint(path)
    assert _load_or_checkpoint_error(path, toy_checkpoint) is None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checkpoint_byte_flips_raise_only_checkpoint_error(tmp_path_factory, toy_checkpoint,
                                                           data):
    blob = bytearray(toy_checkpoint.blob)
    # half the flips land in the header and metadata, which the content hash does not cover
    anywhere = st.integers(0, len(blob) - 1)
    index = st.one_of(st.integers(0, toy_checkpoint.meta_end - 1), anywhere)
    for i, mask in data.draw(st.lists(st.tuples(index, st.integers(1, 255)),
                                      min_size=1, max_size=3)):
        blob[i] ^= mask
    path = tmp_path_factory.mktemp("flip") / "flipped.vcck"
    path.write_bytes(bytes(blob))
    _load_or_checkpoint_error(path, toy_checkpoint)


@pytest.mark.parametrize("victim", ["enc.sub1.w", "norm.std"])
def test_checkpoint_missing_tensor_raises_checkpoint_error(tmp_path, victim):
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config()), path)
    _rewrite_checkpoint(path, edit_table=lambda t: _drop_tensor(t, victim))
    with pytest.raises(vm.CheckpointError, match=victim):
        vm.load_checkpoint(path)


def test_encoder_import_missing_tensor_raises_checkpoint_error(tmp_path):
    path = tmp_path / "donor.vcck"
    vm.save_checkpoint(vm.VcModel(toy_config()), path)
    _rewrite_checkpoint(path, edit_table=lambda t: _drop_tensor(t, "enc.block0.ff.w1"))
    model = vm.VcModel(toy_config(seed=1))
    before = model.params["enc.sub1.w"].values.copy()
    with pytest.raises(vm.CheckpointError, match="enc.block0.ff.w1"):
        vm.load_encoder_from(model, path)
    np.testing.assert_array_equal(model.params["enc.sub1.w"].values, before)


def test_encoder_subtree_import(tmp_path):
    donor = desk_model(seed=20)
    path = tmp_path / "donor.vcck"
    vm.save_checkpoint(donor, path)

    fresh = desk_model(seed=21)
    decoder_before = fresh.params["dec.proj.w"].values.copy()
    vm.load_encoder_from(fresh, path)
    for name in fresh.params:
        if name.startswith("enc."):
            np.testing.assert_array_equal(fresh.params[name].values, donor.params[name].values)
    np.testing.assert_array_equal(fresh.params["dec.proj.w"].values, decoder_before)
    assert not np.array_equal(
        fresh.params["spk.embedding"].values, donor.params["spk.embedding"].values
    )


def test_encoder_import_config_mismatch_lists_keys(tmp_path):
    donor = desk_model(seed=22)
    path = tmp_path / "donor.vcck"
    vm.save_checkpoint(donor, path)

    other = vm.VcModel(
        vm.ModelConfig(
            n_mels=80,
            n_speakers=4,
            encoder_blocks=1,
            model_dim=32,
            n_heads=2,
            lstm_layers=2,
            lstm_dim=32,
        )
    )
    with pytest.raises(vm.CheckpointError) as exc:
        vm.load_encoder_from(other, path)
    assert "keys: encoder_blocks, model_dim" in str(exc.value)


def test_config_round_trip():
    cfg = toy_config(seed=5)
    assert vm.ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_checkpoint_with_a_nested_config_snapshot_is_rejected(tmp_path):
    # checkpoints once nested the encoder and decoder fields; no reader is kept for them
    model = vm.VcModel(toy_config(seed=3))
    path = tmp_path / "model.vcck"
    vm.save_checkpoint(model, path)

    def nest(meta):
        cfg = meta["config"]
        cfg["seed"] = cfg.pop("init_seed")
        cfg["encoder"] = {"n_blocks": cfg.pop("encoder_blocks"), "subsample_factor": 4,
                          **{key: cfg.pop(key) for key in ("model_dim", "n_heads", "frozen")}}
        cfg["decoder"] = {"n_lstm_layers": cfg.pop("lstm_layers"),
                          "lstm_dim": cfg.pop("lstm_dim"), "upsample_kernel": 4}
    _rewrite_checkpoint(path, edit_meta=nest)
    with pytest.raises(vm.CheckpointError, match="invalid model config"):
        vm.load_checkpoint(path)
    with pytest.raises(vm.CheckpointError, match="invalid model config"):
        vm.load_encoder_from(vm.VcModel(toy_config()), path)


def test_frozen_flag_excludes_encoder_params():
    model = vm.VcModel(toy_config(frozen=True))
    views = model.layout(np.arange(model.buffer.size))
    trainable = {name for name, v in views.items() if v.min() >= model.trainable.start}
    assert trainable == {k for k in model.params if not k.startswith("enc.")}
    assert any(k.startswith("dec.") for k in trainable)
    assert any(k.startswith("vq.") for k in trainable)
    assert "spk.embedding" in trainable
    assert model.trainable.start == sum(p.values.size for k, p in model.params.items()
                                        if k.startswith("enc.")) > 0
