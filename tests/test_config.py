from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcaug import cli
from vcaug import data as vd
from vcaug.config import ConfigError, load_config

from conftest import damage

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["desk", "paper", "toy"])
def test_shipped_configs_load(name):
    cfg = load_config(CONFIGS / f"{name}.cfg", validate_paths=False)
    cfg.model_config(n_speakers=4)
    cfg.train_config()


def toy_text(replace: str = "", add: str = "") -> str:
    """configs/toy.cfg with one `key = value` line replaced, or a line added to [train]."""
    text = (CONFIGS / "toy.cfg").read_text(encoding="utf-8")
    if replace:
        key = replace.split("=")[0].strip()
        lines = [replace if line.split("=")[0].strip() == key else line
                 for line in text.splitlines()]
        assert lines != text.splitlines(), key
        text = "\n".join(lines) + "\n"
    if add:
        text = text.replace("[train]\n", f"[train]\n{add}\n")
    return text


def run_gradcheck(path, capsys):
    code = cli.main(["gradcheck", "--config", str(path), "--samples", "1"])
    return code, capsys.readouterr().err


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
    ("encoder_blocks = -1", "", "[model] n_blocks must be a positive integer"),
    ("lstm_dim = 0", "", "[model] lstm_dim must be a positive integer"),
    ("vq_entries = 0", "", "[model] vq_entries must be a positive integer"),
], ids=["removed_epsilon", "removed_eta", "vq_groups", "n_heads", "gamma", "delta",
        "steps", "batch_size", "lr", "checkpoint_every", "adversarial_weight",
        "zero_vq_groups", "zero_n_heads", "zero_model_dim", "negative_encoder_blocks",
        "zero_lstm_dim", "zero_vq_entries"])
def test_invalid_config_values_exit_with_config_error(tmp_path, capsys, replace, add, named):
    path = tmp_path / "bad.cfg"
    path.write_text(toy_text(replace, add), encoding="utf-8")
    code, err = run_gradcheck(path, capsys)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err and named in err


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
        load_config(path, validate_paths=False).augment_policy()
