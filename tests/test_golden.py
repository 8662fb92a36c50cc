"""Pinned digests of seeded training, checkpoints and emit.

Refactors of the training and conversion code promise bit-identical
results; these digests hold them to it.  Each one was computed before a
change that claimed to keep the numbers, and must still match after it:

- `model.buffer` bytes plus the ledger lines after 12 `configs/desk.cfg`
  steps (batch 4, 98-frame synthetic utterances), with a trainable and with
  a frozen encoder;
- the `content_hash` of that model's checkpoint;
- every file an emit writes (views and manifest) from a toy-shape model
  trained for 2 steps;
- the canonical-text hash of each shipped config;
- `model.buffer` bytes of a freshly built desk and toy model, which pin
  every initial draw (step 0 reseeds the codebook from data, so the
  trained digests do not see the codebook's own draw);
- the line `vcaug gradcheck --config configs/toy.cfg` prints, which pins
  the float64 objective and its tape gradients.

Pinned with numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH,
Haswell kernels), on x86-64.  Float32 GEMM results can differ on another
BLAS, numpy or CPU kernel, so a mismatch there is not by itself a bug.
After a deliberate numeric change (or on a new reference platform),
re-pin: `PYTHONPATH=src python tests/test_golden.py` prints every pinned
value, computed by the helpers the tests use, in the form it is declared
below; paste the output here in the commit that changes the numbers,
saying why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from vcaug import augment as aug
from vcaug import cli
from vcaug import data as vd
from vcaug import training as tr
from vcaug.config import load_config, parse_config_text
from vcaug.model import VcModel, read_checkpoint_raw, save_checkpoint
from vcaug.signal import SpecAugmentPolicy

from conftest import toy_config

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"

GOLDEN_DESK = {
    False: "62a5ca59dfde08ab2d4d6b97c4cb620ea2d88420ed10cf268388a9177d25e25c",
    True: "9471bab391ba073b9498c642fc31a7d4ccf31d510df46e583dcac5eabd0b5fde",
}
GOLDEN_CHECKPOINT = "4988cc72b4ec3753b9a3e8bb7daaa2199a9bc4df7007cd55e26a615816983a97"
GOLDEN_EMIT = "aa004d63190f78a871e3d904b9adfc5d20600c5dabb0f5ee218ffc0bc0f17b1a"
# `RunConfig.sha256()` of each shipped config, recorded in train and sweep
# checkpoints as `run_config_sha256`
GOLDEN_CONFIG = {
    "desk": "f91f2e853efa76ba19fad6df6383eb9f98cfb95db9c7984767bd82adac71df22",
    "paper": "57eccf911aa0be232bead66eb1b7ac4ad5fecc683683df5bfff0dabfa6967c8b",
    "toy": "7a510300d470760a0b3d7ad712ba859bbbd78d4e1e50c19458d5900ea32ce4c0",
}
# `fresh_digest` of each shipped config with 4 speakers
GOLDEN_FRESH = {
    "desk": "8ccbec2b0c40d4c63ba289601306302420b6820c4f48204980e9a09f970f62db",
    "toy": "73bfcbe46ca3998fca4111df78525e5f862f5748ca786bdcd9e85c24e46c8569",
}
GOLDEN_GRADCHECK = "gradcheck: max relative error 2.108e-07 (dec.lstm1.bwd.wh)"


def desk_run(frozen: bool) -> tuple[VcModel, tr.TrainResult]:
    """12 desk steps, batch 4, on 4 speakers x 3 one-second utterances."""
    cfg = load_config(DESK, validate_paths=False)
    model_cfg = cfg.model_config(n_speakers=4)
    model_cfg = replace(model_cfg, frozen=frozen)
    model = VcModel(model_cfg)
    dataset = vd.synthetic_corpus(4, 3, seed=5, n_mels=model_cfg.n_mels)
    result = tr.train(model, dataset, replace(cfg.train_config(seed=7), steps=12))
    return model, result


def desk_digest(model: VcModel, result: tr.TrainResult) -> str:
    h = hashlib.sha256(model.buffer.tobytes())
    h.update("\n".join(result.ledger.lines()).encode("utf-8"))
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def emit_digest(tmp_path: Path) -> str:
    """Emit from a toy model trained 2 steps (batch 2) on 3 x 2 wav files."""
    vd.write_corpus_tree(tmp_path / "corpus", n_speakers=3, utts_per_speaker=2,
                         seed=2, duration_s=0.4)
    cfg = toy_config(seed=4)
    model = VcModel(cfg)
    dataset = vd.load_corpus(tmp_path / "corpus", vd.load_speaker_map(
        tmp_path / "corpus" / "speakers.tsv"), n_mels=cfg.n_mels)
    tr.train(model, dataset, tr.TrainConfig(steps=2, lr=1e-3, seed=3, batch_size=2))
    policy = SpecAugmentPolicy(n_freq_masks=1, max_freq_width=2, n_time_masks=1,
                               max_time_width=3)
    aug.emit_dataset(tmp_path / "corpus", model, aug.SpeakerPool.all_of(model), policy,
                     tmp_path / "views", seed=9)
    return tree_digest(tmp_path / "views")


def checkpoint_digest(tmp_path: Path) -> str:
    """The `content_hash` of the trainable desk run's checkpoint."""
    model, _ = desk_run(frozen=False)
    save_checkpoint(model, tmp_path / "desk.vcck")
    return read_checkpoint_raw(tmp_path / "desk.vcck")[0]["content_hash"]


def config_digest(name: str) -> str:
    return load_config(DESK.parent / f"{name}.cfg", validate_paths=False).sha256()


def fresh_digest(name: str) -> str:
    """sha256 of a freshly built model's buffer: every tensor's initial draw."""
    cfg = load_config(DESK.parent / f"{name}.cfg", validate_paths=False)
    return hashlib.sha256(VcModel(cfg.model_config(n_speakers=4)).buffer.tobytes()).hexdigest()


def gradcheck_line() -> str:
    """What `vcaug gradcheck` prints for the toy config, which must pass."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gradcheck", "--config", str(DESK.parent / "toy.cfg")]) == cli.EXIT_OK
    return out.getvalue().strip()


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
def test_desk_training_matches_pinned_digest(frozen):
    assert desk_digest(*desk_run(frozen)) == GOLDEN_DESK[frozen]


def test_desk_checkpoint_matches_pinned_content_hash(tmp_path):
    assert checkpoint_digest(tmp_path) == GOLDEN_CHECKPOINT


def test_toy_emit_tree_matches_pinned_digest(tmp_path):
    assert emit_digest(tmp_path) == GOLDEN_EMIT


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIG))
def test_shipped_config_hash_matches_pinned_digest(name):
    assert config_digest(name) == GOLDEN_CONFIG[name]
    cfg = load_config(DESK.parent / f"{name}.cfg", validate_paths=False)
    assert parse_config_text(cfg.canonical_text()) == cfg


@pytest.mark.parametrize("name", sorted(GOLDEN_FRESH))
def test_fresh_model_buffer_matches_pinned_digest(name):
    assert fresh_digest(name) == GOLDEN_FRESH[name]


def test_toy_gradcheck_prints_pinned_line():
    assert gradcheck_line() == GOLDEN_GRADCHECK


def current_pins(tmp_path: Path) -> dict:
    """Every pin above, under its name, as the code computes it now."""
    return {
        "GOLDEN_DESK": {frozen: desk_digest(*desk_run(frozen)) for frozen in GOLDEN_DESK},
        "GOLDEN_CHECKPOINT": checkpoint_digest(tmp_path),
        "GOLDEN_EMIT": emit_digest(tmp_path),
        "GOLDEN_CONFIG": {name: config_digest(name) for name in GOLDEN_CONFIG},
        "GOLDEN_FRESH": {name: fresh_digest(name) for name in GOLDEN_FRESH},
        "GOLDEN_GRADCHECK": gradcheck_line(),
    }


def pin_text(name: str, value) -> str:
    """A pin as this file declares it."""
    def text(v) -> str:
        return f'"{v}"' if isinstance(v, str) else repr(v)

    if isinstance(value, str):
        return f"{name} = {text(value)}"
    rows = "".join(f"    {text(key)}: {text(digest)},\n" for key, digest in value.items())
    return f"{name} = {{\n{rows}}}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, value in current_pins(Path(tmp)).items():
            print(pin_text(name, value))
