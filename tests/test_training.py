import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcaug import autodiff as ad
from vcaug import cli
from vcaug import data as vd
from vcaug import training as tr
from vcaug.autodiff import Tensor
from vcaug.model import VcModel, load_checkpoint
from vcaug.signal import MelSpectrogram

from conftest import damage, toy_config


def test_huber_zero_for_equal_inputs():
    y = np.random.default_rng(0).normal(size=(5, 4))
    assert tr.huber(y, y, delta=1.0).item() == 0.0


def test_huber_quadratic_branch():
    assert tr.huber(np.array([0.5]), np.array([0.0]), delta=1.0).item() == pytest.approx(0.125)


def test_huber_linear_branch_and_symmetry():
    assert tr.huber(np.array([2.0]), np.array([0.0]), delta=1.0).item() == pytest.approx(1.5)
    assert tr.huber(np.array([0.0]), np.array([2.0]), delta=1.0).item() == pytest.approx(1.5)


@settings(max_examples=40, deadline=None)
@given(d=st.floats(min_value=-5, max_value=5, allow_nan=False),
       delta=st.floats(min_value=0.1, max_value=3.0))
def test_huber_symmetry_property(d, delta):
    a = tr.huber(np.array([d]), np.array([0.0]), delta=delta).item()
    b = tr.huber(np.array([-d]), np.array([0.0]), delta=delta).item()
    assert a == pytest.approx(b, rel=1e-6, abs=1e-12)


def test_huber_c1_at_threshold():
    # value and one-sided derivatives agree at |d| = delta
    delta = 1.0
    eps = 1e-7
    below = tr.huber(np.array([delta - eps]), np.array([0.0]), delta).item()
    above = tr.huber(np.array([delta + eps]), np.array([0.0]), delta).item()
    at = tr.huber(np.array([delta]), np.array([0.0]), delta).item()
    assert abs(below - at) < 2e-6 and abs(above - at) < 2e-6
    d_below = (at - tr.huber(np.array([delta - 1e-5]), np.array([0.0]), delta).item()) / 1e-5
    d_above = (tr.huber(np.array([delta + 1e-5]), np.array([0.0]), delta).item() - at) / 1e-5
    assert d_below == pytest.approx(d_above, abs=1e-5)


def test_huber_fd_gradient():
    y_hat = Tensor(np.random.default_rng(1).normal(size=(3, 4)).astype(np.float64))
    y = Tensor(np.random.default_rng(2).normal(size=(3, 4)).astype(np.float64))
    report = ad.check_gradients(lambda: tr.huber(y, y_hat, delta=1.0), {"y_hat": y_hat})
    assert report.ok(1e-4), report.per_param


def test_total_loss_unit_weights():
    parts = [Tensor(np.asarray(v)) for v in (1.0, 2.0, 3.0, 4.0)]
    out = tr.total_loss(*parts, tr.LossWeights())
    assert out.item() == pytest.approx(10.0)


def test_total_loss_recon_only():
    # the commitment term arrives scaled by ModelConfig.commitment_weight and
    # the adversarial term unscaled (its knob is the reversal weight): both 0 here
    parts = [Tensor(np.asarray(v)) for v in (1.5, 2.0, 0.0 * 3.0, 0.0)]
    out = tr.total_loss(*parts, tr.LossWeights(gamma=0.0))
    assert out.item() == pytest.approx(1.5)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        tr.LossWeights(gamma=-0.1)
    with pytest.raises(ValueError):
        tr.LossWeights(delta=0.0)


def textbook_adam(p, g, m, v, t: int, lr: float):
    """One Adam step of one element, the textbook's operations in order;
    on arrays, the same step element by element."""
    m = m * 0.9 + (1.0 - 0.9) * g
    v = v * 0.999 + (1.0 - 0.999) * g * g
    p = p - lr * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    return p, m, v


def test_adam_zero_gradient_is_noop():
    values = np.array([1.0, 2.0], dtype=np.float32)
    before = values.copy()
    tr.Adam(values, lr=0.1).step(np.zeros_like(values))
    np.testing.assert_array_equal(values, before)


def test_adam_zero_gradient_after_a_step_still_moves():
    values = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    opt = tr.Adam(values, lr=0.1)
    opt.step(np.array([0.5, -1.0, 2.0], dtype=np.float32))
    after_first = values.copy()
    opt.step(np.zeros_like(values))
    # the first moment still moves the values: zero is not a no-op here
    assert (values != after_first).all()


def test_adam_moves_against_gradient():
    values = np.array([1.0], dtype=np.float32)
    tr.Adam(values, lr=0.1).step(np.array([1.0], dtype=np.float32))
    assert values[0] < 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_bit_equal_to_textbook_update(dtype):
    n = 2 * tr.ADAM_BLOCK + 1234   # three blocks, the last one partial
    edges = [0, tr.ADAM_BLOCK - 1, tr.ADAM_BLOCK, 2 * tr.ADAM_BLOCK, n - 1]
    rng = np.random.default_rng(0)
    values = rng.normal(size=n).astype(dtype)
    opt = tr.Adam(values, lr=1e-2)
    held = values
    ref, m, v = values.copy(), np.zeros(n, dtype), np.zeros(n, dtype)
    for t in range(1, 6):
        grads = rng.normal(size=n).astype(dtype)
        if t == 3:
            grads[tr.ADAM_BLOCK // 2 : 3 * tr.ADAM_BLOCK // 2] = 0
        given = grads.copy()
        one_by_one = [textbook_adam(ref[i], grads[i], m[i], v[i], t, 1e-2)[0] for i in edges]
        opt.step(grads)
        ref, m, v = textbook_adam(ref, grads, m, v, t, 1e-2)
        np.testing.assert_array_equal(values, ref)
        assert values.dtype == dtype and [values[i] for i in edges] == one_by_one
        # the update is in place, and the gradient is read, not written
        assert values is held
        np.testing.assert_array_equal(grads, given)
        np.testing.assert_array_equal(opt._state[0], m)
        np.testing.assert_array_equal(opt._state[1], v)


def test_train_with_zero_steps_allocates_no_optimizer_state(monkeypatch):
    model = VcModel(toy_config(seed=2))
    laid_out, stepped = [], []
    layout, step = model.layout, tr.Adam.step
    monkeypatch.setattr(model, "layout", lambda flat: laid_out.append(flat.size) or layout(flat))
    monkeypatch.setattr(tr.Adam, "step",
                        lambda self, grads: stepped.append(self._state) or step(self, grads))
    tr.train(model, toy_corpus(), toy_train_cfg(steps=0))
    # no gradient array was laid out, and Adam, which allocates its moments
    # on its first step, never stepped
    assert laid_out == [] and stepped == []
    tr.train(model, toy_corpus(), toy_train_cfg(steps=1))
    assert laid_out == [model.buffer.size] and stepped == [None]
    # one gradient array serves every step of a call, refilled with zeros
    laid_out.clear()
    tr.train(model, toy_corpus(), toy_train_cfg(steps=3))
    assert laid_out == [model.buffer.size]


def test_ledger_round_trip_and_formatting(tmp_path):
    ledger = tr.MetricsLedger()
    ledger.append(tr.StepMetrics(1, 0.123456789123, 1.0, 0.25, 1.791759, 0.5, 17.0))
    ledger.append(tr.StepMetrics(2, 0.1, 1.0, 0.25, 1.7, 1.0, 18.5))
    path = tmp_path / "m.ledger"
    ledger.write(path)
    text = path.read_text()
    assert text.splitlines()[0] == "1\t0.123456789\t1\t0.25\t1.791759\t0.5\t17"
    back = tr.MetricsLedger.read(path)
    assert len(back) == 2
    assert back.records[0].recon == pytest.approx(0.123456789, abs=1e-9)


def test_a_ledger_write_that_fails_partway_leaves_the_previous_file(tmp_path, monkeypatch):
    ledger = tr.MetricsLedger()
    ledger.append(tr.StepMetrics(1, 0.5, 1.0, 0.25, 1.7, 0.5, 17.0))
    path = tmp_path / "metrics.ledger"
    ledger.write(path)
    before = path.read_bytes()
    ledger.append(tr.StepMetrics(2, 0.1, 1.0, 0.25, 1.7, 1.0, 18.5))

    def lines():
        raise OSError("interrupted")

    monkeypatch.setattr(ledger, "lines", lines)
    with pytest.raises(OSError, match="interrupted"):
        ledger.write(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.ledger"]


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=4),
       cut=st.none() | st.integers(0, 400))
def test_ledger_reader_raises_only_data_error(tmp_path_factory, flips, cut):
    ledger = tr.MetricsLedger()
    for step in range(1, 6):
        ledger.append(tr.StepMetrics(step, 0.5 / step, 1.0, 0.25, 1.7, 0.4, 12.5))
    path = tmp_path_factory.getbasetemp() / "fuzz.ledger"
    ledger.write(path)
    path.write_bytes(damage(path.read_bytes(), flips, cut))
    try:
        back = tr.MetricsLedger.read(path)
    except vd.DataError as e:
        assert str(path) in str(e)
    else:
        assert len(back) <= 5


def test_ledger_reader_errors_name_the_path(tmp_path, capsys):
    with pytest.raises(vd.DataError, match=f"{tmp_path}: cannot read ledger"):
        tr.MetricsLedger.read(tmp_path)
    bad = tmp_path / "bad.ledger"
    bad.write_bytes(b"1\t0.5\t1\t0.25\t1.7\t0.4\t12.5\n2\tx\t1\t0.25\t1.7\t0.4\t12.5\n")
    with pytest.raises(vd.DataError, match="bad.ledger:2: malformed ledger line"):
        tr.MetricsLedger.read(bad)
    bad.write_bytes(b"1\t0.5\xff\n")
    with pytest.raises(vd.DataError, match="bad.ledger: ledger is not UTF-8 text"):
        tr.MetricsLedger.read(bad)
    assert cli.main(["select", str(tmp_path)]) == cli.EXIT_DATA
    assert f"{tmp_path}: cannot read ledger" in capsys.readouterr().err


def test_ledger_rejects_non_monotonic_steps():
    ledger = tr.MetricsLedger()
    ledger.append(tr.StepMetrics(5, 0, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="increase"):
        ledger.append(tr.StepMetrics(5, 0, 0, 0, 0, 0, 1))


def test_ledger_rejects_non_finite():
    ledger = tr.MetricsLedger()
    with pytest.raises(ValueError, match="non-finite"):
        ledger.append(tr.StepMetrics(1, float("nan"), 0, 0, 0, 0, 1))


def test_final_window_means():
    ledger = tr.MetricsLedger()
    for step in range(1, 101):
        ledger.append(tr.StepMetrics(step, float(step), 0, 0, 0, 0, 1))
    means = ledger.final_window_means(0.1)
    assert means["recon"] == pytest.approx(np.mean(range(91, 101)))


def log_mel_like_corpus(lengths, seed=0, n_mels=80):
    rng = np.random.default_rng(seed)
    return [(MelSpectrogram(data=rng.normal(-5.0, 2.0, size=(t, n_mels))), i % 3)
            for i, t in enumerate(lengths)]


@pytest.mark.parametrize("lengths", [(98,) * 60, (98, 4, 37, 250, 12, 4, 61)],
                         ids=["equal", "mixed"])
def test_feature_stats_equal_the_concatenated_mean_and_std(lengths):
    dataset = log_mel_like_corpus(lengths)
    stacked = np.concatenate([mel.data for mel, _ in dataset], axis=0)
    mean, std = tr.feature_stats(dataset)
    assert mean.dtype == std.dtype == np.float32
    assert np.array_equal(mean, stacked.mean(axis=0))
    assert np.array_equal(std, stacked.std(axis=0))


def test_feature_stats_peak_memory_does_not_grow_with_the_corpus():
    utterance_bytes = 98 * 80 * 4
    for n_utts in (10, 80):
        dataset = log_mel_like_corpus((98,) * n_utts, seed=n_utts)
        tracemalloc.start()
        try:
            tr.feature_stats(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * utterance_bytes, (n_utts, peak)


def toy_corpus(n_speakers=2, utts=3, seed=0):
    return vd.synthetic_corpus(n_speakers=n_speakers, utts_per_speaker=utts,
                               seed=seed, duration_s=0.3, n_mels=8)


def toy_train_cfg(**kw):
    defaults = dict(steps=5, lr=1e-3, seed=0, adversarial_weight=0.1,
                    weights=tr.LossWeights())
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


def test_train_seed_determinism():
    def run():
        model = VcModel(toy_config(seed=1))
        return tr.train(model, toy_corpus(), toy_train_cfg(steps=8))

    a, b = run(), run()
    assert a.ledger.lines() == b.ledger.lines()


def test_train_writes_checkpoints_and_ledger(tmp_path):
    model = VcModel(toy_config(seed=2))
    result = tr.train(model, toy_corpus(), toy_train_cfg(steps=4), out_dir=tmp_path)
    assert (tmp_path / "stepfinal.vcck").exists()
    assert (tmp_path / "metrics.ledger").exists()
    assert result.final_step == 4
    assert len(result.ledger) == 4


def test_train_zero_steps_writes_initial_state(tmp_path):
    model = VcModel(toy_config(seed=3))
    result = tr.train(model, toy_corpus(), toy_train_cfg(steps=0), out_dir=tmp_path)
    assert (tmp_path / "stepfinal.vcck").exists()
    assert len(result.ledger) == 0
    assert (tmp_path / "metrics.ledger").read_text() == ""


def test_train_frozen_encoder_keeps_encoder_bits():
    model = VcModel(toy_config(seed=4, frozen=True))
    enc_before = {k: p.values.copy() for k, p in model.params.items() if k.startswith("enc.")}
    dec_before = model.params["dec.proj.w"].values.copy()
    tr.train(model, toy_corpus(), toy_train_cfg(steps=10))
    for name, before in enc_before.items():
        assert np.array_equal(model.params[name].values, before), name
    assert not np.array_equal(model.params["dec.proj.w"].values, dec_before)


def test_train_divergence_tripwire(tmp_path):
    model = VcModel(toy_config(seed=5))
    model.params["dec.proj.w"].values[:] = np.float32(1e30)  # provoke overflow
    with np.errstate(all="ignore"), pytest.raises(tr.DivergenceError):
        tr.train(model, toy_corpus(), toy_train_cfg(steps=10), out_dir=tmp_path)


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen_encoder"])
def test_train_releases_every_parameter_gradient(tmp_path, frozen):
    model = VcModel(toy_config(seed=6, frozen=frozen))
    tr.train(model, toy_corpus(), toy_train_cfg(steps=2, checkpoint_every=1), out_dir=tmp_path)
    assert [name for name, p in model.params.items() if p.grad is not None] == []


def test_train_releases_gradients_when_it_diverges():
    model = VcModel(toy_config(seed=5))
    model.params["dec.proj.w"].values[:] = np.float32(1e30)
    with np.errstate(all="ignore"), pytest.raises(tr.DivergenceError):
        tr.train(model, toy_corpus(), toy_train_cfg(steps=3))
    assert [name for name, p in model.params.items() if p.grad is not None] == []


def varied_corpus(lengths=(12, 7, 5, 9, 10, 6), n_speakers=3, seed=0):
    rng = np.random.default_rng(seed)
    return [(MelSpectrogram(data=rng.normal(size=(t, 8))), i % n_speakers)
            for i, t in enumerate(lengths)]


def per_utterance_reference(model, dataset, cfg):
    """The loop `train` ran before batching: one graph per utterance, Σ/B."""
    rng = np.random.default_rng(cfg.seed)
    model.set_feature_stats(*tr.feature_stats(dataset))
    model.codebook.init_from_outputs(
        np.concatenate([model.encode(mel).values for mel, _ in dataset[:8]]), rng)
    optimizer = tr.Adam(model.buffer[model.trainable], lr=cfg.lr)
    for _ in range(cfg.steps):
        picks = [dataset[int(rng.integers(len(dataset)))] for _ in range(cfg.batch_size)]
        with ad.Tape() as tape:
            losses = []
            for mel, speaker in picks:
                recon, qr, logits = model.forward_tensors(
                    mel, speaker, adv_weight=cfg.adversarial_weight)
                losses.append(tr.total_loss(
                    tr.huber(Tensor(mel.data.astype(model.dtype)), recon, cfg.weights.delta),
                    qr.codebook_loss, qr.commit_loss, ad.cross_entropy(logits, speaker),
                    cfg.weights))
            loss = losses[0]
            for term in losses[1:]:
                loss = ad.add(loss, term)
            loss = ad.mul(loss, Tensor(np.asarray(1.0 / len(picks))))
        ad.zero_grads(model.params.values())
        tape.backward(loss)
        grads = np.concatenate([(np.zeros_like(p.values) if p.grad is None else p.grad).ravel()
                                for p in model.params.values()])
        optimizer.step(grads[model.trainable])


def test_batched_train_matches_per_utterance_reference():
    cfg = toy_train_cfg(steps=2, batch_size=3)
    batched = VcModel(toy_config(seed=7), dtype=np.float64)
    tr.train(batched, varied_corpus(), cfg)
    reference = VcModel(toy_config(seed=7), dtype=np.float64)
    per_utterance_reference(reference, varied_corpus(), cfg)
    for name, p in batched.params.items():
        ref = reference.params[name].values
        assert np.abs(p.values - ref).max() <= 1e-10 * np.abs(ref).max(), name


def test_batched_train_bit_reproducible():
    def run():
        model = VcModel(toy_config(seed=8))
        result = tr.train(model, varied_corpus(), toy_train_cfg(steps=4, batch_size=3))
        return result.ledger.lines(), {k: p.values.tobytes() for k, p in model.params.items()}

    assert run() == run()


class PoisonedAfter(list):
    """Training picks past the first `clean` come back as a mel of 3e38s."""

    def __init__(self, items, clean):
        super().__init__(items)
        self.clean = clean
        self.picks = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            return item
        self.picks += 1
        if self.picks <= self.clean:
            return item
        return MelSpectrogram(data=np.full_like(item[0].data, 3e38)), item[1]


def test_divergence_checkpoint_holds_last_completed_step(tmp_path):
    cfg = toy_train_cfg(steps=5, batch_size=2)
    model = VcModel(toy_config(seed=9))
    with np.errstate(all="ignore"), pytest.raises(tr.DivergenceError) as err:
        tr.train(model, PoisonedAfter(toy_corpus(), clean=4), cfg, out_dir=tmp_path)
    assert err.value.step == 3
    assert err.value.checkpoint_path.endswith("step000002-lastgood.vcck")
    saved = load_checkpoint(err.value.checkpoint_path)
    clean = VcModel(toy_config(seed=9))
    tr.train(clean, toy_corpus(), toy_train_cfg(steps=2, batch_size=2))
    assert saved.step == clean.step == 2
    for name, p in clean.params.items():
        assert np.array_equal(saved.params[name].values, p.values), name


def test_train_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        tr.train(VcModel(toy_config()), [], toy_train_cfg())


TABLE_ROWS = [
    tr.CandidateMetrics("0.0", 0.80, 110.0, 0.038),
    tr.CandidateMetrics("0.1", 0.12, 105.0, 0.045),
    tr.CandidateMetrics("0.5", 0.11, 80.0, 0.070),
    tr.CandidateMetrics("1.0", 0.10, 60.0, 0.085),
]


def test_select_model_published_rows():
    report = tr.select_model(TABLE_ROWS, acc_max=0.2, ppl_min=64.0)
    assert report.selected == "0.1"
    assert not report.fallback_used
    assert report.ranking == ["0.1", "0.5"]
    assert report.criteria["0.0"] == {"acc_ok": False, "ppl_ok": True}
    assert report.criteria["1.0"] == {"acc_ok": True, "ppl_ok": False}


def test_select_model_single_candidate():
    report = tr.select_model([TABLE_ROWS[1]])
    assert report.selected == "0.1"
    assert not report.fallback_used


def test_select_model_fallback():
    rows = [
        tr.CandidateMetrics("a", 0.9, 10.0, 0.02),
        tr.CandidateMetrics("b", 0.5, 12.0, 0.01),
    ]
    report = tr.select_model(rows, acc_max=0.2, ppl_min=64.0)
    assert report.fallback_used
    assert report.ranking == ["b", "a"]  # lowest accuracy first
    assert report.selected == "b"
    assert any("no candidate meets criteria" in line for line in report.lines())


def test_select_model_empty_rejected():
    with pytest.raises(ValueError):
        tr.select_model([])


def test_sweep_requires_two_weights():
    with pytest.raises(ValueError, match="two weights"):
        tr.sweep_adversarial_weight([0.1], lambda: None, [(None, 0)], toy_train_cfg())


@pytest.mark.parametrize("weights, named", [
    ("0.1,-0.1", "adversarial_weight must be at least 0"),
    ("0.1,nan", "adversarial_weight must be at least 0, got nan"),
    ("0.1,abc", "could not convert"),
    ("0.1,0.10", "repeats the label '0.1'"),
    ("0.5", "at least two weights"),
])
def test_sweep_rejects_bad_weights_before_training(tmp_path, monkeypatch, capsys,
                                                   weights, named):
    vd.write_corpus_tree(tmp_path / "corpus", n_speakers=2, utts_per_speaker=1,
                         seed=0, duration_s=0.3)
    toy = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"
    config = tmp_path / "sweep.cfg"
    config.write_text(toy.read_text(encoding="utf-8")
                      + "\n[data]\ncorpus = corpus\nspeaker_map = corpus/speakers.tsv\n",
                      encoding="utf-8")
    calls = []

    class Trained(Exception):
        pass

    def fake_train(*args, **kwargs):
        calls.append(args)
        raise Trained

    monkeypatch.setattr(tr, "train", fake_train)
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
    with pytest.raises(Trained):   # well-formed weights reach the first run
        cli.main(argv + ["--weights", "0,1"])
    assert len(calls) == 1
    calls.clear()
    assert cli.main(argv + ["--weights", weights]) == cli.EXIT_CONFIG
    assert calls == []
    err = capsys.readouterr().err
    assert "config error: --weights" in err and named in err


def test_sweep_configs_one_checked_config_per_label():
    base = toy_train_cfg()
    configs = tr.sweep_configs([0.0, 0.5], base)
    assert list(configs) == ["0", "0.5"]
    assert [c.adversarial_weight for c in configs.values()] == [0.0, 0.5]
    assert all(replace(c, adversarial_weight=base.adversarial_weight) == base
               for c in configs.values())


def test_sweep_runs_and_reports():
    corpus = toy_corpus()

    def factory():
        return VcModel(toy_config(seed=6))

    result = tr.sweep_adversarial_weight(
        [0.0, 1.0], factory, corpus, toy_train_cfg(steps=6)
    )
    assert set(result.ledgers) == {"0", "1"}
    assert len(result.report.candidates) == 2
    assert result.report.selected in {"0", "1"}
