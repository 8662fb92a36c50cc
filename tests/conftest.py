import numpy as np
import pytest

from vcaug import autodiff as ad
from vcaug.model import ModelConfig, VcModel


@pytest.fixture(autouse=True)
def autodiff_state_is_left_clean():
    """Fail a test that leaves an active tape, or `check_gradients`' frozen
    values, in the thread's autodiff state (and clear it for the next)."""
    yield
    leaked = {k: v for k in ("tape", "frozen", "cursor")
              if (v := getattr(ad._STATE, k, None)) is not None}
    for k in leaked:
        setattr(ad._STATE, k, None)
    assert not leaked, f"autodiff state left behind: {sorted(leaked)}"


def toy_config(seed: int = 0, frozen: bool = False) -> ModelConfig:
    """Smallest config that still exercises every component (dim 8, 1 block)."""
    return ModelConfig(
        n_mels=8,
        n_speakers=3,
        speaker_dim=8,
        encoder_blocks=1,
        model_dim=8,
        n_heads=2,
        frozen=frozen,
        lstm_layers=2,
        lstm_dim=8,
        vq_groups=2,
        vq_entries=8,
        adv_hidden=16,
        init_seed=seed,
    )


@pytest.fixture
def toy_model():
    return VcModel(toy_config(), dtype=np.float64)


def toy_mel(t: int = 12, m: int = 8, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(t, m))


def damage(blob: bytes, flips, cut) -> bytes:
    """`blob` with each (position, xor mask) flip applied at position mod its
    length, then cut to its first `cut` bytes when `cut` is not None."""
    out = bytearray(blob)
    for position, mask in flips:
        out[position % len(out)] ^= mask
    return bytes(out if cut is None else out[:cut])
