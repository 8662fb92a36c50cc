"""Speaker classifier probe behind gradient reversal.

The head reads the quantized bottleneck output, mean-pools it over frames
(each row's valid frames, for a padded batch), and classifies the speaker.
Reversal makes its training signal adversarial to everything upstream: the
head itself still learns to classify, while the encoder is pushed to scrub
speaker information.  The head's accuracy doubles as the leakage metric
logged during training.  Inside `check_gradients` the reversal is replayed
as a smooth function of the pooled input (see `autodiff.grad_reverse`).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class AdversaryHead:
    """Mean-pool over frames, one hidden relu layer, linear to speaker logits."""

    def __init__(self, in_dim: int, n_speakers: int, hidden_dim: int = 128,
                 seed: int = 0, dtype=np.float32, param=ad.fresh_param):
        w1, w2 = (in_dim, hidden_dim), (hidden_dim, n_speakers)
        self.w1 = param("adv.w1", w1, lambda: ad.uniform_init(w1, in_dim, "adv.w1", seed, dtype))
        self.b1 = param("adv.b1", (hidden_dim,), lambda: np.zeros(hidden_dim, dtype=dtype))
        self.w2 = param("adv.w2", w2,
                        lambda: ad.uniform_init(w2, hidden_dim, "adv.w2", seed, dtype))
        self.b2 = param("adv.b2", (n_speakers,), lambda: np.zeros(n_speakers, dtype=dtype))

    def parameters(self) -> dict[str, Tensor]:
        return {"adv.w1": self.w1, "adv.b1": self.b1, "adv.w2": self.w2, "adv.b2": self.b2}

    def logits(self, x: Tensor, reversal_weight: float, lengths=None) -> Tensor:
        """Speaker logits [S] for a [T', D] input, or [B, S] for a padded
        [B, T', D] batch pooled over each row's first lengths[b] frames.
        Reversal affects gradients only."""
        rev = ad.grad_reverse(ad.frame_mean(x, lengths), reversal_weight)
        h = ad.relu(ad.add(ad.matmul(rev, self.w1), self.b1))
        return ad.add(ad.matmul(h, self.w2), self.b2)


def speaker_accuracy(logits: np.ndarray, labels) -> float:
    """Fraction of argmax matches over a [N, S] logit batch; ties pick class 0 first."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise ValueError(f"need a non-empty [N, S] logit batch, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    return float(np.mean(np.argmax(logits, axis=1) == labels))
