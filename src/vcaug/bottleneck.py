"""Grouped vector quantization of encoder outputs.

The channel dimension is split into groups, each with its own codebook.
Frames map to their nearest entry under squared L2 (ties take the lowest
index).  `select` does only that: the search in numpy, then one lookup per
group.  It is the whole bottleneck at inference.

`quantize` is the training form.  The codebook learns only through the
codebook loss; the encoder feels the bottleneck through the commitment
loss and receives an identity gradient through the straight-through
estimator.  Each loss is one squared distance over the whole vector,
divided by the number of groups, as in VQ-VAE.  Codebook usage is
summarized as perplexity, the collapse diagnostic tracked during training.

`quantize` takes one utterance's [T', D] encodings or a padded [B, T', D]
batch with per-row valid lengths; padded frames are quantized but weigh
nothing in the losses and are left out of the returned indices.

Every stop-gradient here (the search's operands and the losses' detached
sides) is read through `ad.detach`, so inside `check_gradients` the
selection and those operands stay at the check point and the bottleneck is
the smooth function whose gradient the estimator defines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class QuantizeResult:
    z_q: Tensor                 # [(B,) T', D], straight-through quantized output
    indices: np.ndarray         # [valid frames, G] selected entries per group, rows in order
    codebook_loss: Tensor       # scalar, moves codebook entries only
    commit_loss: Tensor         # scalar (commitment weight applied), moves encoder only


class Codebook:
    """Per-group entry tables: `groups[g]` is group g's [n_entries, group_dim] table.

    It holds the tables it is given; `VcModel` declares and draws them
    (`vq.group{g}.codebook`) and builds the codebook over its own tensors.
    """

    def __init__(self, groups: list[Tensor]):
        self.groups = groups
        self.n_groups = len(groups)
        self.n_entries, self.group_dim = groups[0].shape
        self.dim = self.n_groups * self.group_dim

    def init_from_outputs(self, z_e_values: np.ndarray, rng: np.random.Generator) -> None:
        """Reseed entries, in place, from rows of a batch of encoder outputs.

        Sampling rows of real activations avoids dead codes at small scale.
        """
        t = z_e_values.shape[0]
        for g, table in enumerate(self.groups):
            block = z_e_values[:, g * self.group_dim : (g + 1) * self.group_dim]
            picks = rng.integers(0, t, size=self.n_entries)
            table.values[...] = block[picks]


def perplexity(counts) -> float:
    """exp of the Shannon entropy of a usage distribution, with 0*ln(0) = 0."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("perplexity requires a nonzero usage count")
    p = counts / total
    nz = p[p > 0]
    return float(np.exp(-(nz * np.log(nz)).sum()))


def usage_counts(indices: np.ndarray, n_entries: int) -> np.ndarray:
    """[G, K] occurrence counts from a [T', G] index matrix."""
    return np.stack(
        [np.bincount(indices[:, g], minlength=n_entries) for g in range(indices.shape[1])]
    )


def nearest_entries(block: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Index of the nearest entry per row under squared L2; ties take the lowest."""
    d = (
        (block * block).sum(axis=1, keepdims=True)
        - 2.0 * block @ table.T
        + (table * table).sum(axis=1)
    )
    return np.argmin(d, axis=1)


def select(z_e: Tensor, codebook: Codebook) -> tuple[Tensor, np.ndarray]:
    """Gather each frame's nearest codebook entries: ([(B,) T', D] entries,
    [(B,) T', G] indices).

    The search runs in numpy on the detached encodings and tables.  The
    only recorded ops are one lookup per group and a concat.
    """
    gd = codebook.group_dim
    flat = ad.detach(z_e).reshape(-1, codebook.dim)
    indices = np.stack([
        nearest_entries(flat[:, g * gd : (g + 1) * gd], ad.detach(table))
        for g, table in enumerate(codebook.groups)
    ], axis=-1).reshape(z_e.shape[:-1] + (codebook.n_groups,))
    parts = [ad.embedding_lookup(table, indices[..., g])
             for g, table in enumerate(codebook.groups)]
    return ad.concat(parts, axis=z_e.ndim - 1), indices


def _sq_distance(a: ad.Operand, b: ad.Operand, lengths, scale: float) -> Tensor:
    """scale * mean over valid frames of the squared L2 distance over all channels."""
    diff = ad.sub(a, b)
    per_frame = ad.reduce_sum(ad.mul(diff, diff), axis=a.ndim - 1)
    return ad.mul(ad.row_mean(per_frame, lengths), np.asarray(scale, dtype=a.dtype))


def quantize(z_e: Tensor, codebook: Codebook, commitment_weight: float = 0.25,
             lengths=None) -> QuantizeResult:
    """Quantize each frame group-wise and compute both bottleneck losses.

    codebook_loss is the squared distance from the detached encoder output
    to its selected entries over all D channels, averaged over frames and
    divided by the number of groups (the per-group mean); commit_loss is
    the mirrored term, from the encoder output to the detached entries,
    times `commitment_weight`, and moves only the encoder.  For a
    [B, T', D] batch both are per-row means over the first lengths[b]
    frames, averaged over rows.
    """
    if z_e.ndim not in (2, 3) or z_e.shape[-1] != codebook.dim:
        raise ad.ShapeError("quantize", z_e.shape, (codebook.dim,))
    e, indices = select(z_e, codebook)
    scale = 1.0 / codebook.n_groups
    mask = ad.length_mask(lengths, z_e.shape[-2], bool)
    return QuantizeResult(
        z_q=ad.straight_through(z_e, e),
        indices=indices.reshape(-1, codebook.n_groups) if mask is None else indices[mask],
        codebook_loss=_sq_distance(ad.detach(z_e), e, lengths, scale),
        commit_loss=_sq_distance(z_e, ad.detach(e), lengths, scale * commitment_weight),
    )
