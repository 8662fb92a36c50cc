"""Speaker classifier probe behind gradient reversal.

The head reads the quantized bottleneck output, mean-pools it over frames
(each row's valid frames, for a padded batch), and classifies the speaker.  Reversal makes its training signal adversarial
to everything upstream: the head itself still learns to classify, while the
encoder is pushed to scrub speaker information.  The head's accuracy doubles
as the leakage metric logged during training.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def _uniform_init(shape, fan_in: int, name: str, seed: int, dtype) -> np.ndarray:
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class AdversaryHead:
    """Mean-pool over frames, one hidden relu layer, linear to speaker logits."""

    def __init__(self, in_dim: int, n_speakers: int, hidden_dim: int = 128,
                 seed: int = 0, dtype=np.float32):
        self.n_speakers = n_speakers
        self.hidden_dim = hidden_dim
        self.w1 = Tensor(_uniform_init((in_dim, hidden_dim), in_dim, "adv.w1", seed, dtype))
        self.b1 = Tensor(np.zeros(hidden_dim, dtype=dtype))
        self.w2 = Tensor(_uniform_init((hidden_dim, n_speakers), hidden_dim, "adv.w2", seed, dtype))
        self.b2 = Tensor(np.zeros(n_speakers, dtype=dtype))

    def parameters(self) -> dict[str, Tensor]:
        return {"adv.w1": self.w1, "adv.b1": self.b1, "adv.w2": self.w2, "adv.b2": self.b2}

    def logits(self, x: Tensor, reversal_weight: float, lengths=None) -> Tensor:
        """Speaker logits [S] for a [T', D] input, or [B, S] for a padded
        [B, T', D] batch pooled over each row's first lengths[b] frames.
        Reversal affects gradients only."""
        return self._head(ad.grad_reverse(ad.frame_mean(x, lengths), reversal_weight))

    def logits_linearized(self, x: Tensor, reversal_weight: float,
                          x0_values: np.ndarray) -> Tensor:
        """Smooth stand-in for the reversed path, for finite-difference checks.

        Replaces the reversal with pooled0 - weight * (pooled - pooled0),
        where pooled0 is captured from `x0_values`: identical value at the
        capture point and exactly the reversal gradient, but differentiable
        in the ordinary sense.
        """
        dtype = x.dtype
        pooled = ad.frame_mean(x)
        pooled0 = Tensor(np.asarray(x0_values).mean(axis=0).astype(dtype))
        w = Tensor(np.asarray(reversal_weight, dtype=dtype))
        rev = ad.sub(pooled0, ad.mul(w, ad.sub(pooled, pooled0)))
        return self._head(rev)

    def _head(self, rev: Tensor) -> Tensor:
        h = ad.relu(ad.add(ad.matmul(rev, self.w1), self.b1))
        return ad.add(ad.matmul(h, self.w2), self.b2)


def adversarial_loss(head: AdversaryHead, bottleneck_out: Tensor,
                     speaker_label: int, weight: float) -> Tensor:
    """Cross-entropy of the reversed classifier; value is independent of `weight`."""
    if not 0 <= speaker_label < head.n_speakers:
        raise ValueError(f"speaker label {speaker_label} out of range [0, {head.n_speakers})")
    return ad.cross_entropy(head.logits(bottleneck_out, weight), speaker_label)


def speaker_accuracy(logits: np.ndarray, labels) -> float:
    """Fraction of argmax matches over a [N, S] logit batch; ties pick class 0 first."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise ValueError(f"need a non-empty [N, S] logit batch, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    return float(np.mean(np.argmax(logits, axis=1) == labels))
