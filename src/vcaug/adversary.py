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
    """Mean-pool over frames, one hidden relu layer, linear to speaker logits.

    It holds the four tensors it is given ([D, H], [H], [H, S], [S]);
    `VcModel` declares and draws them (`adv.*`) and builds the head over
    its own tensors.
    """

    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

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
