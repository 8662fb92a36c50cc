from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcaug import autodiff as ad
from vcaug import cli
from vcaug import data as vd
from vcaug.config import ConfigError, RunConfig, load_config, parse_config_text
from vcaug.signal import SpecAugmentPolicy
from vcaug.training import TrainConfig

from conftest import damage

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["desk", "paper", "toy"])
def test_shipped_configs_load(name):
    cfg = load_config(CONFIGS / f"{name}.cfg", validate_paths=False)
    cfg.model_config(n_speakers=4)
    assert parse_config_text(cfg.canonical_text()) == cfg


def test_sections_parse_into_the_types_their_readers_take():
    cfg = RunConfig()
    assert cfg.train == cfg.train_config() == TrainConfig()
    assert cfg.augment == cfg.augment_policy() == SpecAugmentPolicy()
    assert cfg.keys("train") == {"steps": 2000, "lr": 1e-4, "seed": 0, "batch_size": 1,
                                 "adversarial_weight": 0.1, "gamma": 1.0, "delta": 1.0,
                                 "checkpoint_every": 0}
    assert cfg.keys("augment") == {"n_freq_masks": 2, "max_freq_width": 10, "n_time_masks": 2,
                                   "max_time_width": 10, "mask_value": 0.0, "pool": "all"}
    assert cfg.train_config(seed=5) == TrainConfig(seed=5)


def toy_text(replace: str = "", add: str = "") -> str:
    """configs/toy.cfg with one `key = value` line replaced, or a line added to
    [train] (or, when `add` starts with a section header, that section appended)."""
    text = (CONFIGS / "toy.cfg").read_text(encoding="utf-8")
    if replace:
        key = replace.split("=")[0].strip()
        lines = [replace if line.split("=")[0].strip() == key else line
                 for line in text.splitlines()]
        assert lines != text.splitlines(), key
        text = "\n".join(lines) + "\n"
    if add.startswith("["):
        text += f"\n{add}\n"
    elif add:
        text = text.replace("[train]\n", f"[train]\n{add}\n")
    return text


def run_gradcheck(path, capsys):
    code = cli.main(["gradcheck", "--config", str(path), "--samples", "1"])
    return code, capsys.readouterr().err


def test_gradcheck_rejects_negative_samples_by_name(capsys):
    # a usage error is a configuration error (1), not a data error (2)
    code = cli.main(["gradcheck", "--config", str(CONFIGS / "toy.cfg"), "--samples", "-1"])
    assert code == cli.EXIT_CONFIG
    assert "argument --samples: must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    *[("select", "--window", v) for v in ("nan", "0", "-1", "1.5")],
    *[(command, flag, v) for command in ("select", "sweep")
      for flag in ("--acc-max", "--ppl-min") for v in ("nan", "inf", "-0.5")],
    *[("gradcheck", "--tolerance", v) for v in ("nan", "inf", "0", "-1e-4")],
    *[("featurize", "--n-mels", v) for v in ("0", "-3")],
    *[(command, "--seed", "-1") for command in ("train", "sweep", "augment", "gradcheck")],
    ("convert", "--speaker-id", "-1"),
])
def test_numeric_options_reject_bad_values_by_name(tmp_path, capsys, command, flag, value):
    # a usage error (1), raised before any file is read or written
    required = {
        "train": ["--config", str(CONFIGS / "toy.cfg"), "--out", str(tmp_path / "out")],
        "select": [str(tmp_path / "a.ledger")],
        "sweep": ["--config", str(CONFIGS / "toy.cfg"), "--out", str(tmp_path / "out")],
        "augment": ["--config", str(CONFIGS / "toy.cfg"), "--checkpoint",
                    str(tmp_path / "model.vcck"), "--out", str(tmp_path / "out")],
        "gradcheck": ["--config", str(CONFIGS / "toy.cfg")],
        "featurize": ["--wav-dir", str(tmp_path), "--out", str(tmp_path / "out")],
        "convert": ["--checkpoint", str(tmp_path / "model.vcck"), "--melf",
                    str(tmp_path / "a.melf"), "--out", str(tmp_path / "out")],
    }[command]
    assert cli.main([command, *required, f"{flag}={value}"]) == cli.EXIT_CONFIG
    assert f"argument {flag}: must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exits_0_and_an_unknown_option_exits_1(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert "usage: vcaug" in capsys.readouterr().out
    assert cli.main(["inspect", "--checkpoint", "x", "--bogus"]) == cli.EXIT_CONFIG
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_gradcheck_zero_samples_probes_every_element(monkeypatch):
    probed = []

    def check_gradients(fn, params, sample_per_param, **kwargs):
        probed.append(sample_per_param)
        return ad.GradCheckReport(per_param={"w": 0.0})

    monkeypatch.setattr(ad, "check_gradients", check_gradients)
    for samples in ("0", "3"):
        assert cli.main(["gradcheck", "--config", str(CONFIGS / "toy.cfg"),
                         "--samples", samples]) == cli.EXIT_OK
    assert probed == [None, 3]


@pytest.mark.parametrize("replace, add, named", [
    ("", "epsilon = 1.0", "'epsilon'"),
    ("", "eta = 1.0", "'eta'"),
    ("vq_groups = 3", "", "[model]"),
    ("n_heads = 3", "", "[model]"),
    ("", "gamma = -1.0", "[train] gamma"),
    ("", "delta = 0.0", "[train] delta"),
    ("steps = -3", "", "[train] steps"),
    ("", "batch_size = 0", "[train] batch_size"),
    ("lr = -0.5", "", "[train] lr"),
    ("", "checkpoint_every = -1", "[train] checkpoint_every"),
    ("adversarial_weight = -0.1", "", "[train] adversarial_weight"),
    ("vq_groups = 0", "", "[model] vq_groups must be a positive integer"),
    ("n_heads = 0", "", "[model] n_heads must be a positive integer"),
    ("model_dim = 0", "", "[model] model_dim must be a positive integer"),
    ("encoder_blocks = -1", "", "[model] encoder_blocks must be a positive integer"),
    ("lstm_layers = 0", "", "[model] lstm_layers must be a positive integer"),
    ("lstm_dim = 0", "", "[model] lstm_dim must be a positive integer"),
    ("vq_entries = 0", "", "[model] vq_entries must be a positive integer"),
], ids=["removed_epsilon", "removed_eta", "vq_groups", "n_heads", "gamma", "delta",
        "steps", "batch_size", "lr", "checkpoint_every", "adversarial_weight",
        "zero_vq_groups", "zero_n_heads", "zero_model_dim", "negative_encoder_blocks",
        "zero_lstm_layers", "zero_lstm_dim", "zero_vq_entries"])
def test_invalid_config_values_exit_with_config_error(tmp_path, capsys, replace, add, named):
    path = tmp_path / "bad.cfg"
    path.write_text(toy_text(replace, add), encoding="utf-8")
    code, err = run_gradcheck(path, capsys)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err and named in err


@pytest.mark.parametrize("replace, add, named", [
    ("vq_groups = 3", "", "[model] model_dim must divide evenly into codebook groups"),
    ("n_heads = 3", "", "[model] model_dim 8 not divisible by 3 heads"),
    ("encoder_blocks = 0", "", "[model] encoder_blocks must be a positive integer"),
    ("lstm_layers = 0", "", "[model] lstm_layers must be a positive integer"),
    ("init_seed = 1.5", "", "[model] init_seed: cannot parse '1.5' as int"),
    ("init_seed = -1", "", "[model] init_seed must be a non-negative integer, got -1"),
    ("commitment_weight = nan", "", "[model] commitment_weight must be finite and non-negative"),
    ("steps = -3", "", "[train] steps must be at least 0, got -3"),
    ("seed = -1", "", "[train] seed must be at least 0, got -1"),
    ("", "batch_size = 0", "[train] batch_size must be at least 1, got 0"),
    ("", "gamma = nan", "[train] gamma must be finite and non-negative, got nan"),
    ("", "[augment]\nn_time_masks = -1", "[augment] n_time_masks must be non-negative"),
    ("", "[augment]\nmask_value = inf", "[augment] mask_value must be finite, got inf"),
], ids=["vq_groups", "n_heads", "encoder_blocks", "lstm_layers", "float_init_seed",
        "negative_init_seed", "commitment_weight", "train_steps", "train_seed", "train_batch_size",
        "train_gamma", "augment_n_time_masks", "augment_mask_value"])
def test_load_config_alone_rejects_a_bad_model_value(tmp_path, replace, add, named):
    path = tmp_path / "bad.cfg"
    path.write_text(toy_text(replace, add), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path, validate_paths=False)
    assert named in str(exc.value)


def test_n_speakers_is_not_a_model_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(toy_text().replace("[model]\n", "[model]\nn_speakers = 4\n"),
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'n_speakers' in section \\[model\\]"):
        load_config(path, validate_paths=False)


def test_donor_checkpoint_is_a_model_key_held_on_the_run_config(tmp_path):
    (tmp_path / "donor.vcck").write_bytes(b"")
    path = tmp_path / "donor.cfg"
    path.write_text(toy_text().replace(
        "[model]\n", "[model]\nfrozen = true\ndonor_checkpoint = donor.vcck\n"), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.donor_checkpoint == "donor.vcck" and cfg.model.frozen
    assert "donor_checkpoint" not in cfg.model_config(n_speakers=4).to_dict()
    assert "donor_checkpoint = donor.vcck\n" in cfg.canonical_text()
    assert parse_config_text(cfg.canonical_text()) == cfg


@pytest.mark.parametrize("replace, add, named", [
    ("", "gamma = nan", "[train] gamma must be finite and non-negative, got nan"),
    ("", "gamma = inf", "[train] gamma must be finite and non-negative, got inf"),
    ("", "delta = inf", "[train] delta must be finite and positive, got inf"),
    ("", "delta = nan", "[train] delta must be finite and positive, got nan"),
    ("commitment_weight = -1", "", "[model] commitment_weight must be finite and non-negative"),
    ("commitment_weight = nan", "", "[model] commitment_weight must be finite and non-negative"),
    ("commitment_weight = inf", "", "[model] commitment_weight must be finite and non-negative"),
    ("lr = inf", "", "[train] lr must be finite and positive, got inf"),
    ("adversarial_weight = inf", "", "[train] adversarial_weight must be finite, got inf"),
], ids=["nan_gamma", "inf_gamma", "inf_delta", "nan_delta", "negative_commitment_weight",
        "nan_commitment_weight", "inf_commitment_weight", "inf_lr", "inf_adversarial_weight"])
def test_train_rejects_non_finite_or_out_of_range_floats(tmp_path, capsys, replace, add, named):
    vd.write_corpus_tree(tmp_path / "corpus", n_speakers=2, utts_per_speaker=1,
                         seed=0, duration_s=0.3)
    path = tmp_path / "bad.cfg"
    path.write_text(toy_text(replace, add)
                    + "\n[data]\ncorpus = corpus\nspeaker_map = corpus/speakers.tsv\n",
                    encoding="utf-8")
    code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_augment_rejects_a_non_finite_mask_value_before_reading_the_checkpoint(tmp_path, capsys,
                                                                               value):
    # the checkpoint does not exist: reading it first would exit 2
    path = tmp_path / "bad.cfg"
    path.write_text(toy_text() + f"\n[augment]\nmask_value = {value}\n", encoding="utf-8")
    code = cli.main(["augment", "--config", str(path), "--checkpoint", str(tmp_path / "no.vcck"),
                     "--corpus", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"config error: [augment] mask_value must be finite, got {value}" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, replace, named", [
    ("train", "lr = 0", "[train] lr must be finite and positive"),
    ("train", "vq_groups = 3", "[model]"),
    ("sweep", "vq_groups = 3", "[model]"),
    ("sweep", "lr = 0", "[train] lr must be finite and positive"),
], ids=["train_lr", "train_model", "sweep_model", "sweep_lr"])
def test_config_errors_come_before_the_corpus_is_read(tmp_path, capsys, command, replace, named):
    # an unreadable file in the corpus: reading the corpus first would exit 2
    vd.write_corpus_tree(tmp_path / "corpus", n_speakers=2, utts_per_speaker=1,
                         seed=0, duration_s=0.3)
    (tmp_path / "corpus" / "spk1" / "bad.wav").write_bytes(b"RIFF\0\0\0\0")
    path = tmp_path / "bad.cfg"
    path.write_text(toy_text(replace)
                    + "\n[data]\ncorpus = corpus\nspeaker_map = corpus/speakers.tsv\n",
                    encoding="utf-8")
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG, err
    assert "config error" in err and named in err
    assert not (tmp_path / "out").exists()


def test_config_directory_exits_with_config_error(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config_exits_with_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(toy_text().replace("# Minimal", "# Min\xefmal").encode("latin-1"))
    code, err = run_gradcheck(path, capsys)
    assert code == cli.EXIT_CONFIG
    assert "utf-8" in err


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=4),
       cut=st.none() | st.integers(0, 1200))
def test_config_reader_raises_only_config_error(tmp_path_factory, flips, cut):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(damage((CONFIGS / "desk.cfg").read_bytes(), flips, cut))
    try:
        cfg = load_config(path, validate_paths=False)
        cfg.model_config(n_speakers=4)
        cfg.train_config()
        cfg.augment_policy()
    except ConfigError:
        pass


def test_negative_mask_count_is_a_config_error(tmp_path):
    path = tmp_path / "neg.cfg"
    path.write_text((CONFIGS / "desk.cfg").read_text(encoding="utf-8").replace(
        "n_time_masks = 2", "n_time_masks = -1"), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[augment\] n_time_masks must be non-negative"):
        load_config(path, validate_paths=False)
