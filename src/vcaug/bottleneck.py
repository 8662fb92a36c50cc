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

Pinned to a `FrozenSelection` captured from an earlier unbatched pass, the
same `quantize` is the smooth surrogate the finite-difference oracle checks.
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
    """Per-group entry tables."""

    def __init__(self, dim: int, n_groups: int = 2, n_entries: int = 128,
                 seed: int = 0, dtype=np.float32, param=ad.fresh_param):
        if dim % n_groups != 0:
            raise ValueError(f"dim {dim} not divisible by {n_groups} groups")
        self.dim = dim
        self.n_groups = n_groups
        self.n_entries = n_entries
        self.group_dim = dim // n_groups
        rng = np.random.default_rng(seed)
        shape = (n_entries, self.group_dim)
        self.groups = [
            param(f"vq.group{g}.codebook", shape,
                  lambda: rng.uniform(-1.0, 1.0, size=shape).astype(dtype))
            for g in range(n_groups)
        ]

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


@dataclass(frozen=True)
class FrozenSelection:
    """Entry assignment and values captured from one unbatched `quantize` pass."""

    indices: np.ndarray   # [T', G]
    e_sel: np.ndarray     # [T', D] entry values at capture time
    z_e: np.ndarray       # [T', D] encoder outputs at capture time


def select(z_e: Tensor, codebook: Codebook, indices=None) -> tuple[Tensor, np.ndarray]:
    """Gather each frame's codebook entries: ([(B,) T', D] entries, [(B,) T', G] indices).

    Without `indices` every group takes its nearest entry.  The only
    recorded ops are one lookup per group and a concat.
    """
    gd = codebook.group_dim
    if indices is None:
        flat = z_e.values.reshape(-1, codebook.dim)
        indices = np.stack([
            nearest_entries(flat[:, g * gd : (g + 1) * gd], table.values)
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
             lengths=None, pinned: FrozenSelection | None = None) -> QuantizeResult:
    """Quantize each frame group-wise and compute both bottleneck losses.

    codebook_loss is the squared distance from the detached encoder output
    to its selected entries over all D channels, averaged over frames and
    divided by the number of groups (the per-group mean); commit_loss is
    the mirrored term times `commitment_weight` and moves only the encoder.
    For a [B, T', D] batch both are per-row means over the first lengths[b]
    frames, averaged over rows.

    With `pinned` (one [T', D] utterance only) the entries come from the
    capture instead of the nearest-entry search, the two detached operands
    are the captured constants, and the straight-through output is
    z_e + (e_sel - z_e) at capture.  At the capture point values and tape
    gradients equal the unpinned pass, but the function is smooth, so
    central differences measure exactly the estimator's gradient.
    """
    if (z_e.ndim not in (2, 3) or z_e.shape[-1] != codebook.dim
            or (pinned is not None and z_e.ndim != 2)):
        raise ad.ShapeError("quantize", z_e.shape, (codebook.dim,))
    e, indices = select(z_e, codebook, None if pinned is None else pinned.indices)
    if pinned is None:
        z0, e0 = z_e.values, e.values
        z_q = ad.straight_through(z_e, e)
    else:
        z0, e0 = pinned.z_e.astype(z_e.dtype), pinned.e_sel.astype(z_e.dtype)
        z_q = ad.add(z_e, e0 - z0)

    scale = 1.0 / codebook.n_groups
    mask = ad.length_mask(lengths, z_e.shape[-2], bool)
    return QuantizeResult(
        z_q=z_q,
        indices=indices.reshape(-1, codebook.n_groups) if mask is None else indices[mask],
        codebook_loss=_sq_distance(z0, e, lengths, scale),
        commit_loss=_sq_distance(z_e, e0, lengths, scale * commitment_weight),
    )
