"""Speaker classifier probe behind gradient reversal.

The head reads the quantized bottleneck output, mean-pools it over frames
(each row's valid frames, for a padded batch), and classifies the speaker.
Reversal makes its training signal adversarial to everything upstream: the
head itself still learns to classify, while the encoder is pushed to scrub
speaker information.  The head's accuracy doubles as the leakage metric
logged during training.

For the finite-difference oracle the same `logits` call takes an anchor, the
pooled input captured at the check point; the reversal then becomes the
smooth anchor - weight * (pooled - anchor), equal in value and gradient
there.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class AdversaryHead:
    """Mean-pool over frames, one hidden relu layer, linear to speaker logits."""

    def __init__(self, in_dim: int, n_speakers: int, hidden_dim: int = 128,
                 seed: int = 0, dtype=np.float32):
        self.w1 = ad.uniform_init((in_dim, hidden_dim), in_dim, "adv.w1", seed, dtype)
        self.b1 = Tensor(np.zeros(hidden_dim, dtype=dtype))
        self.w2 = ad.uniform_init((hidden_dim, n_speakers), hidden_dim, "adv.w2", seed, dtype)
        self.b2 = Tensor(np.zeros(n_speakers, dtype=dtype))

    def parameters(self) -> dict[str, Tensor]:
        return {"adv.w1": self.w1, "adv.b1": self.b1, "adv.w2": self.w2, "adv.b2": self.b2}

    def logits(self, x: Tensor, reversal_weight: float, lengths=None, anchor=None) -> Tensor:
        """Speaker logits [S] for a [T', D] input, or [B, S] for a padded
        [B, T', D] batch pooled over each row's first lengths[b] frames.
        Reversal affects gradients only; `anchor` (the pooled input at a
        capture point) makes it smooth for finite differences, see
        `autodiff.grad_reverse`."""
        rev = ad.grad_reverse(ad.frame_mean(x, lengths), reversal_weight, anchor)
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
