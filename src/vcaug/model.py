"""The full conversion network and its checkpoint format.

Input features pass through a 4x-subsampling convolutional encoder with
attention/conv/feed-forward blocks, are quantized by the grouped codebook,
conditioned on a dense speaker embedding, and decoded back to full frame
rate by a BiLSTM stack plus two stride-2 transposed convolutions.  The
speaker row is part of the first BiLSTM layer's input at every frame; being
constant over time, it enters that layer's gates as one bias per utterance.
The time axis is right-padded to a multiple of 4 on the way in and the
decoder output is trimmed back to the requested length.

Each layer norm is one `ad.layer_norm` op; attention puts its heads on a
batch axis, so one QKᵀ, one softmax and one ·V serve every head of a
block; each BiLSTM layer is one `ad.bilstm_layer` op over the layer's
`fwd` and `bwd` parameters (stored, and checkpointed, per direction), both
directions in one time loop.  Its i, f, o gates use
sigmoid(z) = 1/2 + tanh(z/2)/2, which in float32 rounds differently from
1/(1 + exp(-z)) by about an ulp, and decoder outputs carry that rounding.

Every stage takes one utterance ([T, M] features) or a zero-padded batch
([B, T, M], built by `pad_batch`) with per-row frame counts `lengths`.
Masks make each row compute exactly what it would alone: normalized input
rows are zero past their length (the subsampling convs never read past a
row's own multiple-of-4 pad), padded attention keys get a large negative
score bias, padded frames are zeroed before the depthwise conv and before
each transposed conv (each reads one frame past a row's end), the reverse
LSTM starts at each row's last valid frame, and every loss and the
adversary's pooling average over valid frames only.  A batch whose rows
are all full length records no mask op.

Checkpoints are self-describing: a config snapshot, the step count, and a
named-tensor table whose sha256 is verified on load.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import struct
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator

import numpy as np

from . import adversary as adv
from . import autodiff as ad
from . import bottleneck as bn
from .autodiff import Tensor
from .signal import MelSpectrogram, write_then_replace

CHECKPOINT_MAGIC = b"VCCK"
CHECKPOINT_VERSION = 1

LN_EPS = 1e-5

# Fixed architecture sizes.
SUBSAMPLE_FACTOR = 4   # the encoder's two stride-2 convs
CONV_KERNEL = 3        # subsampling and depthwise convs
FF_MULTIPLIER = 2      # feed-forward hidden width over model_dim
UPSAMPLE_KERNEL = 4    # each stride-2 transposed conv of the decoder
MIN_FRAMES = 4         # the shortest input `encode` accepts

# Config snapshots in checkpoints written before `ModelConfig` was flat nest
# the encoder and decoder fields under "encoder" and "decoder" and call
# `init_seed` "seed".  Per nested key: a str is the field it became; an int
# is a size that was a field before it became a constant above, accepted
# only at exactly that value.
_NESTED_SNAPSHOT = {
    "encoder": {"n_blocks": "encoder_blocks", "model_dim": "model_dim", "n_heads": "n_heads",
                "frozen": "frozen", "subsample_factor": SUBSAMPLE_FACTOR,
                "conv_kernel": CONV_KERNEL, "ff_multiplier": FF_MULTIPLIER},
    "decoder": {"n_lstm_layers": "lstm_layers", "lstm_dim": "lstm_dim",
                "upsample_kernel": UPSAMPLE_KERNEL},
}


class CheckpointError(ValueError):
    """Malformed, tampered, or incompatible checkpoint file."""


def _is_int(value) -> bool:
    """An integer but not a bool: a snapshot's `true` is no count of 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_positive(cfg, *names: str) -> None:
    """Raise `ValueError` unless each named field of `cfg` is a positive integer.

    Runs before any check that divides by a field; configs also arrive from
    checkpoint metadata, where a flipped byte can make a count 0 or a float.
    """
    for name in names:
        value = getattr(cfg, name)
        if not _is_int(value) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """The architecture.  Every field but `n_speakers` is the `[model]` key
    of the same name and default (see `config.py`); `n_speakers` is the size
    of the corpus's speaker map."""

    n_mels: int = 80
    n_speakers: int = 6
    speaker_dim: int = 256
    encoder_blocks: int = 2
    model_dim: int = 64
    n_heads: int = 2
    frozen: bool = False
    lstm_layers: int = 2
    lstm_dim: int = 64
    vq_groups: int = 2
    vq_entries: int = 128
    commitment_weight: float = 0.25
    adv_hidden: int = 128
    init_seed: int = 0

    def __post_init__(self):
        _require_positive(self, "n_mels", "n_speakers", "speaker_dim", "encoder_blocks",
                          "model_dim", "n_heads", "lstm_layers", "lstm_dim", "vq_groups",
                          "vq_entries", "adv_hidden")
        if not _is_int(self.init_seed) or self.init_seed < 0:
            raise ValueError(f"init_seed must be a non-negative integer, got {self.init_seed!r}")
        if not isinstance(self.frozen, bool):
            raise ValueError(f"frozen must be true or false, got {self.frozen!r}")
        if self.model_dim % self.n_heads != 0:
            raise ValueError(f"model_dim {self.model_dim} not divisible by {self.n_heads} heads")
        if self.model_dim % self.vq_groups != 0:
            raise ValueError("model_dim must divide evenly into codebook groups")
        if not 0 <= self.commitment_weight < math.inf:   # NaN fails too
            raise ValueError(
                f"commitment_weight must be finite and non-negative, got {self.commitment_weight}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """The config of a checkpoint's snapshot, flat or nested; every field is required."""
        d = dict(d)
        if "encoder" in d:
            d["init_seed"] = d.pop("seed")
            for section, table in _NESTED_SNAPSHOT.items():
                for key, value in dict(d.pop(section)).items():
                    if key not in table:
                        raise ValueError(f"unknown key {section}.{key}")
                    if isinstance(table[key], str):
                        d[table[key]] = value
                    elif type(value) is not int or value != table[key]:
                        raise ValueError(f"{section}.{key} is fixed at {table[key]}, got {value!r}")
        missing = [f.name for f in fields(ModelConfig) if f.name not in d]
        if missing:
            raise ValueError(f"missing keys {missing}")
        return ModelConfig(**d)


# Plain 1/sqrt(fan_in) initialization attenuates the reconstruction gradient
# so strongly across the decoder stack that the commitment pull collapses the
# encoder before the decoder starts using the bottleneck.  A moderate gain on
# decoder weights balances the two forces at small scale.
DECODER_INIT_GAIN = 3.0

# score bias on padded attention keys: exp() of it underflows to exactly 0
PAD_KEY_BIAS = -1e9


def pad_batch(arrays) -> tuple[np.ndarray, np.ndarray]:
    """Stack [T_b, M] arrays into a zero-padded [B, max T_b, M] batch plus lengths [B]."""
    lengths = np.array([a.shape[0] for a in arrays])
    batch = np.zeros((len(arrays), lengths.max(), arrays[0].shape[1]), dtype=arrays[0].dtype)
    for row, a in zip(batch, arrays):
        row[: a.shape[0]] = a
    return batch, lengths


def _encoded_lengths(lengths):
    """Valid encoder frames per row, ceil(T_b / 4); None passes through."""
    return None if lengths is None else -(-np.asarray(lengths) // SUBSAMPLE_FACTOR)


class VcModel:
    """Encoder + grouped codebook + speaker table + adversary head + decoder.

    Every tensor (name, shape and initial draw) is declared in `_build`;
    `codebook` and `adversary` are built over the model's own tensors.
    Every parameter's `.values` is a view of its own slice of one flat
    array, `buffer`, of the model's dtype, in `params` order (see
    `layout`).  The encoder is declared first, so a frozen encoder is the
    buffer's leading slice and `trainable`, the slice of the buffer that
    training updates, is the rest; otherwise it is the whole buffer.  Code
    that changes a parameter writes into its view (the optimizer, codebook
    seeding, checkpoint and encoder loading), never rebinds it.  The
    feature statistics keep arrays of their own.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32, draw: bool = True):
        """Parameters drawn from `config.init_seed`, zero feature mean and unit std.

        With `draw=False` no draw that `_build` declares is called and the
        buffer is left uninitialized, for a loader to fill in place through
        `_named_arrays` (see `load_checkpoint`).
        """
        self.config = config
        self.dtype = dtype
        self.step = 0
        tensors = self._build()
        self._shapes = {name: shape for name, (shape, _) in tensors.items()}
        self.buffer = np.empty(sum(map(math.prod, self._shapes.values())), dtype)
        self.params: dict[str, Tensor] = {}
        for name, view in self.layout(self.buffer).items():
            if draw:
                view[...] = tensors[name][1]()
            self.params[name] = Tensor(view)
        self.codebook = bn.Codebook([self.params[f"vq.group{g}.codebook"]
                                     for g in range(config.vq_groups)])
        self.adversary = adv.AdversaryHead(*(self.params[f"adv.{w}"]
                                             for w in ("w1", "b1", "w2", "b2")))
        encoder = sum(math.prod(shape) for name, shape in self._shapes.items()
                      if name.startswith("enc."))
        self.trainable = slice(encoder if config.frozen else 0, self.buffer.size)
        self.feature_mean = np.zeros(config.n_mels, dtype)
        self.feature_std = np.ones(config.n_mels, dtype)

    def layout(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """`flat`, an array of the buffer's size, cut into one view per
        parameter, shaped like it, in `params` order: the buffer's layout."""
        views, start = {}, 0
        for name, shape in self._shapes.items():
            stop = start + math.prod(shape)
            views[name] = flat[start:stop].reshape(shape)
            start = stop
        return views

    # -- construction -------------------------------------------------------

    def _build(self) -> dict[str, tuple[tuple[int, ...], Callable[[], np.ndarray]]]:
        """Every tensor of the model, in buffer order: name -> (shape, draw).

        The one place a tensor is declared, the codebook's tables and the
        adversary head's weights included; `__init__` calls each draw at
        most once, in buffer order.
        """
        cfg, dtype = self.config, self.dtype
        dim = cfg.model_dim
        k = CONV_KERNEL
        tensors = {}

        def add(name: str, shape, fan_in: int, gain: float = 1.0) -> None:
            tensors[name] = shape, lambda: ad.uniform_init(
                shape, fan_in, name, cfg.init_seed, dtype, gain=gain)

        def fill(name: str, size: int, value: float) -> None:
            tensors[name] = (size,), lambda: np.full(size, value, dtype)

        # the encoder first: frozen, it is the buffer's leading slice
        add("enc.sub1.w", (k, cfg.n_mels, dim), k * cfg.n_mels)
        fill("enc.sub1.b", dim, 0.0)
        add("enc.sub2.w", (k, dim, dim), k * dim)
        fill("enc.sub2.b", dim, 0.0)
        for i in range(cfg.encoder_blocks):
            p = f"enc.block{i}"
            for ln in ("ln1", "ln2", "ln3"):
                fill(f"{p}.{ln}.g", dim, 1.0)
                fill(f"{p}.{ln}.b", dim, 0.0)
            for w in ("wq", "wk", "wv", "wo"):
                add(f"{p}.attn.{w}", (dim, dim), dim)
            add(f"{p}.conv.dw", (k, dim), k)
            add(f"{p}.conv.pw.w", (dim, dim), dim)
            fill(f"{p}.conv.pw.b", dim, 0.0)
            hidden = dim * FF_MULTIPLIER
            add(f"{p}.ff.w1", (dim, hidden), dim)
            fill(f"{p}.ff.b1", hidden, 0.0)
            add(f"{p}.ff.w2", (hidden, dim), hidden)
            fill(f"{p}.ff.b2", dim, 0.0)
        # the output layer norm carries no affine: a learnable shared gain
        # gives the commitment term a collapse shortcut at small batch sizes

        # the codebook's tables draw in turn from one stream, group 0 first
        rng = np.random.default_rng(cfg.init_seed)
        table = (cfg.vq_entries, dim // cfg.vq_groups)
        for g in range(cfg.vq_groups):
            tensors[f"vq.group{g}.codebook"] = table, lambda: rng.uniform(
                -1.0, 1.0, size=table).astype(dtype)

        add("spk.embedding", (cfg.n_speakers, cfg.speaker_dim), cfg.speaker_dim)

        add("adv.w1", (dim, cfg.adv_hidden), dim)
        fill("adv.b1", cfg.adv_hidden, 0.0)
        add("adv.w2", (cfg.adv_hidden, cfg.n_speakers), cfg.adv_hidden)
        fill("adv.b2", cfg.n_speakers, 0.0)

        g = DECODER_INIT_GAIN
        h = cfg.lstm_dim
        in_dim = dim + cfg.speaker_dim
        for layer in range(cfg.lstm_layers):
            for direction in ("fwd", "bwd"):
                p = f"dec.lstm{layer}.{direction}"
                add(f"{p}.wx", (in_dim, 4 * h), in_dim, gain=g)
                add(f"{p}.wh", (h, 4 * h), h, gain=g)
                fill(f"{p}.b", 4 * h, 0.0)
            in_dim = 2 * h
        ku = UPSAMPLE_KERNEL
        add("dec.up1.w", (ku, in_dim, h), ku * in_dim, gain=g)
        fill("dec.up1.b", h, 0.0)
        add("dec.up2.w", (ku, h, h), ku * h, gain=g)
        fill("dec.up2.b", h, 0.0)
        add("dec.proj.w", (h, cfg.n_mels), h, gain=g)
        fill("dec.proj.b", cfg.n_mels, 0.0)
        return tensors

    def set_feature_stats(self, mean: np.ndarray, std: np.ndarray) -> None:
        self.feature_mean = np.asarray(mean, dtype=self.dtype)
        self.feature_std = np.maximum(np.asarray(std, dtype=self.dtype), 1e-3)

    # -- forward pieces -----------------------------------------------------

    def _ln(self, x: Tensor, name: str) -> Tensor:
        return ad.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"], eps=LN_EPS)

    def _attention(self, x: Tensor, prefix: str, lengths=None) -> Tensor:
        """Multi-head self-attention with the heads on a batch axis: one QKᵀ,
        one softmax and one ·V over [..., heads, T, head_dim]."""
        cfg = self.config
        scale = np.asarray(1.0 / np.sqrt(cfg.model_dim // cfg.n_heads), dtype=self.dtype)
        q, k, v = (ad.split_heads(ad.matmul(x, self.params[f"{prefix}.{w}"]), cfg.n_heads)
                   for w in ("wq", "wk", "wv"))
        scores = ad.mul(ad.matmul(q, ad.transpose(k)), scale)
        mask = ad.length_mask(lengths, x.shape[-2], self.dtype)
        if mask is not None:
            # [B, 1, 1, T]: one bias per key, shared by every head and query
            scores = ad.add(scores, (1.0 - mask[:, None, None, :]) * PAD_KEY_BIAS)
        heads = ad.matmul(ad.softmax(scores, axis=-1), v)
        return ad.matmul(ad.merge_heads(heads), self.params[f"{prefix}.wo"])

    def _encoder_block(self, x: Tensor, i: int, lengths=None) -> Tensor:
        p = f"enc.block{i}"
        x = ad.add(x, self._attention(self._ln(x, f"{p}.ln1"), f"{p}.attn", lengths))
        c = ad.mask_frames(self._ln(x, f"{p}.ln2"), lengths)
        c = ad.relu(ad.depthwise_conv1d(c, self.params[f"{p}.conv.dw"]))
        c = ad.add(ad.matmul(c, self.params[f"{p}.conv.pw.w"]), self.params[f"{p}.conv.pw.b"])
        x = ad.add(x, c)
        f = self._ln(x, f"{p}.ln3")
        f = ad.relu(ad.add(ad.matmul(f, self.params[f"{p}.ff.w1"]), self.params[f"{p}.ff.b1"]))
        f = ad.add(ad.matmul(f, self.params[f"{p}.ff.w2"]), self.params[f"{p}.ff.b2"])
        return ad.add(x, f)

    def encode(self, mel, lengths=None) -> Tensor:
        """Map [T, M] features to [ceil(T/4), model_dim] content encodings.

        A padded [B, T, M] batch maps to [B, ceil(T/4), model_dim]; row b
        is valid for its first ceil(lengths[b]/4) frames (all, without
        `lengths`).
        """
        values = mel.data if isinstance(mel, MelSpectrogram) else np.asarray(mel)
        if values.ndim not in (2, 3) or values.shape[-1] != self.config.n_mels:
            raise ad.ShapeError("encode", values.shape, (self.config.n_mels,))
        t = values.shape[-2]
        if lengths is not None and (values.ndim != 3 or np.shape(lengths) != values.shape[:1]
                                    or np.max(lengths) > t):
            raise ad.ShapeError("encode", values.shape, np.shape(lengths))
        shortest = t if lengths is None else int(np.min(lengths))
        if shortest < MIN_FRAMES:
            raise ValueError(f"need at least {MIN_FRAMES} frames to encode, got {shortest}")
        # right-pad time to a multiple of 4: a zeros buffer and one slice copy
        normalized = np.zeros(values.shape[:-2] + (t + (-t) % SUBSAMPLE_FACTOR, values.shape[-1]),
                              dtype=self.dtype)
        valid = normalized[..., :t, :]
        np.divide(values.astype(self.dtype, copy=False) - self.feature_mean, self.feature_std,
                  out=valid)
        mask = ad.length_mask(lengths, t, self.dtype)
        if mask is not None:
            valid *= mask[..., None]
        x = ad.relu(ad.add(ad.conv1d(normalized, self.params["enc.sub1.w"], stride=2, padding=1),
                           self.params["enc.sub1.b"]))
        x = ad.relu(ad.add(ad.conv1d(x, self.params["enc.sub2.w"], stride=2, padding=1),
                           self.params["enc.sub2.b"]))
        enc_lengths = _encoded_lengths(lengths)
        for i in range(self.config.encoder_blocks):
            x = self._encoder_block(x, i, enc_lengths)
        return ad.layer_norm(x, eps=LN_EPS)

    def embed_and_concat(self, bottleneck_out: Tensor, speaker_id) -> tuple[Tensor, Tensor]:
        """The decoder's input: the content frames and the speaker row.

        Returns `bottleneck_out` unchanged ([T', D], or [B, T', D]) and the
        `spk.embedding` row of `speaker_id` ([E], or [B, E] for one id per
        batch row).  The decoder treats the row as appended to every frame
        ([.., T', D+E]) but never builds that tensor: `decode` hands it to
        the first BiLSTM layer as a per-utterance condition.  The name is
        kept from when this concatenated the row, because the benchmark's
        tracer finds the stage by it.
        """
        ids = np.asarray(speaker_id)
        if ids.shape != bottleneck_out.shape[:-2]:
            raise ad.ShapeError("embed_and_concat", bottleneck_out.shape, ids.shape)
        if ids.min() < 0 or ids.max() >= self.config.n_speakers:
            raise ValueError(
                f"speaker id {speaker_id} out of range [0, {self.config.n_speakers})"
            )
        return bottleneck_out, ad.embedding_lookup(self.params["spk.embedding"], ids)

    def decode(self, cond: tuple[Tensor, Tensor], target_len: int, lengths=None) -> Tensor:
        """BiLSTM stack, 4x transposed-conv upsample, project, trim to target_len.

        `cond` is what `embed_and_concat` returns: content x [T', D] and
        speaker row [E], or [B, T', D] with lengths[b] valid frames per row
        and [B, E].  The first BiLSTM layer reads each frame with the row
        appended, taking the row's share of its gates once per utterance.
        """
        x, row = cond
        t_in = x.shape[-2]
        if target_len > 4 * t_in:
            raise ValueError(f"target_len {target_len} exceeds 4*T' = {4 * t_in}")
        if target_len < 1:
            raise ValueError("target_len must be positive")
        for layer in range(self.config.lstm_layers):
            fwd, bwd = ([self.params[f"dec.lstm{layer}.{d}.{w}"] for w in ("wx", "wh", "b")]
                        for d in ("fwd", "bwd"))
            x = ad.bilstm_layer(x, fwd, bwd, lengths, cond=row if layer == 0 else None)
        x = ad.mask_frames(x, lengths)
        x = ad.relu(ad.add(ad.conv1d_transpose(x, self.params["dec.up1.w"], stride=2, padding=1),
                           self.params["dec.up1.b"]))
        x = ad.mask_frames(x, None if lengths is None else 2 * np.asarray(lengths))
        x = ad.relu(ad.add(ad.conv1d_transpose(x, self.params["dec.up2.w"], stride=2, padding=1),
                           self.params["dec.up2.b"]))
        x = ad.add(ad.matmul(x, self.params["dec.proj.w"]), self.params["dec.proj.b"])
        x = ad.narrow(x, x.ndim - 2, 0, target_len)
        return ad.add(ad.mul(x, self.feature_std), self.feature_mean)

    def forward_tensors(self, mel, speaker_id, adv_weight: float = 0.1, lengths=None):
        """Differentiable end-to-end pass; returns (recon, quantize result, logits).

        One utterance ([T, M], an int speaker) gives recon [T, M] and logits
        [S]; a padded batch ([B, T, M], B speaker ids, per-row `lengths`)
        gives recon [B, T, M] and logits [B, S] in one graph.  Inside
        `check_gradients` the quantizer's selection and the reversal are
        frozen at the check point, so the oracle checks either form as is.
        """
        values = mel.data if isinstance(mel, MelSpectrogram) else np.asarray(mel)
        z_e = self.encode(values, lengths)
        enc_lengths = _encoded_lengths(lengths)
        qr = bn.quantize(z_e, self.codebook, commitment_weight=self.config.commitment_weight,
                         lengths=enc_lengths)
        logits = self.adversary.logits(qr.z_q, adv_weight, enc_lengths)
        cond = self.embed_and_concat(qr.z_q, speaker_id)
        recon = self.decode(cond, target_len=values.shape[-2], lengths=enc_lengths)
        return recon, qr, logits


# ---------------------------------------------------------------------------
# checkpoint serialization


def _tensor_table_parts(named: dict[str, np.ndarray]) -> Iterator[bytes | memoryview]:
    """The tensor table in order, one header and one zero-copy payload per tensor.

    Joined, the parts are the table; callers hash and write them one at a
    time, so a save never holds a copy of the parameters.
    """
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name], dtype="<f4")
        encoded = name.encode("utf-8")
        yield (struct.pack("<H", len(encoded)) + encoded
               + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        yield memoryview(arr.reshape(-1)).cast("B")


def _named_arrays(model: VcModel) -> dict[str, np.ndarray]:
    named = {name: t.values for name, t in model.params.items()}
    named["norm.mean"] = model.feature_mean
    named["norm.std"] = model.feature_std
    return named


def save_checkpoint(model: VcModel, path, extra_meta: dict | None = None) -> None:
    named = _named_arrays(model)
    content_hash = hashlib.sha256()
    for part in _tensor_table_parts(named):
        content_hash.update(part)
    meta = {
        "config": model.config.to_dict(),
        "content_hash": content_hash.hexdigest(),
        "n_tensors": len(model.params) + 2,
        "extra": extra_meta or {},
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with write_then_replace(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQI", CHECKPOINT_VERSION, model.step, len(meta_bytes)))
        f.write(meta_bytes)
        for part in _tensor_table_parts(named):
            f.write(part)


def read_checkpoint_raw(path, slots=None) -> tuple[dict, int, dict[str, np.ndarray]]:
    """Parse and verify a checkpoint; returns (meta, step, name -> array).

    The file is read once: each tensor goes straight into its own f32
    array, and the table is hashed as it is read.  `slots`, given, is
    called with the metadata before the table is read and returns
    name -> array; a tensor whose name and shape match one of those arrays
    is read into it instead (through a f32 copy when its dtype differs).
    Every way the file can be malformed raises `CheckpointError`; a table
    that fails both to parse and to match its hash is reported as a hash
    mismatch.
    """
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(20)
            if len(head) < 20 or head[:4] != CHECKPOINT_MAGIC:
                raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
            version, step, meta_len = struct.unpack("<IQI", head[4:20])
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(f"{path}: unsupported version {version}")
            meta_end = 20 + meta_len
            if size < meta_end:
                raise CheckpointError(f"{path}: truncated metadata")
            meta = _checked_meta(f.read(meta_len), path)
            dest = {} if slots is None else slots(meta)
            digest = hashlib.sha256()
            try:
                named, malformed = _read_tensor_table(f, size - meta_end, digest, dest), None
            except (struct.error, ValueError) as e:
                named, malformed = {}, e
                f.seek(meta_end)
                digest = hashlib.sha256()
                while chunk := f.read(1 << 20):
                    digest.update(chunk)
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read ({e.strerror or e})") from None
    if digest.hexdigest() != meta["content_hash"]:
        raise CheckpointError(f"{path}: tensor table hash mismatch (corrupted)")
    if malformed is not None:
        raise CheckpointError(f"{path}: malformed tensor table ({malformed})")
    return meta, step, named


def _checked_meta(meta_bytes: bytes, path) -> dict:
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as e:
        raise CheckpointError(f"{path}: unreadable metadata ({e})") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    for key, kind in (("content_hash", str), ("config", dict)):
        if not isinstance(meta.get(key), kind):
            raise CheckpointError(f"{path}: metadata lacks {key}")
    return meta


def _read_tensor_table(f, size: int, digest, dest=None) -> dict[str, np.ndarray]:
    """The next `size` bytes of `f` as a tensor table, each tensor in its own array,
    or in the array `dest` holds under its name when the shapes match.

    Every byte read also goes to `digest`.  A record that runs past `size`
    raises `ValueError` before anything is allocated for it.
    """
    named: dict[str, np.ndarray] = {}
    left = size

    def read(n: int, what: str) -> bytes:
        nonlocal left
        if n > left:
            raise ValueError(f"{what} runs {n - left} bytes past the end of the table")
        data = f.read(n)
        digest.update(data)
        left -= n
        return data

    while left:
        (name_len,) = struct.unpack("<H", read(2, "a record header"))
        name = read(name_len, "a tensor name").decode("utf-8")
        (ndim,) = struct.unpack("<B", read(1, f"tensor {name}'s header"))
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"tensor {name}'s shape"))
        n_bytes = 4 * math.prod(shape)
        if n_bytes > left:
            raise ValueError(f"tensor {name} runs {n_bytes - left} bytes past the end of the table")
        slot = (dest or {}).get(name)
        if slot is None or slot.shape != shape:
            slot = np.empty(shape, "<f4")
        arr = slot if slot.dtype == "<f4" else np.empty(shape, "<f4")
        payload = memoryview(arr.reshape(-1)).cast("B")
        if f.readinto(payload) != n_bytes:
            raise ValueError(f"tensor {name} is cut short")
        digest.update(payload)
        left -= n_bytes
        if arr is not slot:
            slot[...] = arr
        named[name] = slot
    return named


def _config_from_meta(meta: dict, path) -> ModelConfig:
    try:
        return ModelConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: invalid model config ({e!r})") from None


def _checked_arrays(named: dict[str, np.ndarray], expected: dict[str, np.ndarray],
                    path) -> dict[str, np.ndarray]:
    """Pick the `expected` names out of `named`, requiring matching shapes."""
    missing = sorted(set(expected) - set(named))
    if missing:
        raise CheckpointError(f"{path}: missing tensors {missing}")
    for name, ref in expected.items():
        if named[name].shape != ref.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {named[name].shape}, expected {ref.shape}"
            )
    return {name: named[name] for name in expected}


def load_checkpoint(path, dtype=np.float32) -> VcModel:
    """Rebuild a model from its snapshot; forward outputs reproduce bit-exactly.

    The model is built undrawn from the config in the metadata, and each
    tensor is read from the file straight into the model's array for it (a
    trainable one into its slice of the flat buffer), so a load holds one
    copy of the parameters.
    """
    model = None

    def slots(meta: dict) -> dict[str, np.ndarray]:
        nonlocal model
        try:
            model = VcModel(_config_from_meta(meta, path), dtype=dtype, draw=False)
        except MemoryError:
            raise CheckpointError(f"{path}: config too large to allocate") from None
        return _named_arrays(model)

    _, step, named = read_checkpoint_raw(path, slots)
    _checked_arrays(named, _named_arrays(model), path)
    model.step = step
    return model


def load_encoder_from(model: VcModel, donor_path) -> None:
    """Import the encoder subtree from a donor checkpoint (frozen-encoder workflow).

    The donor's config must match on the keys that fix the encoder's
    tensor shapes and what it computes; everything outside
    "enc.*" keeps its fresh initialization.  The donor's tensors are
    written into the model's arrays in place.
    """
    meta, _, named = read_checkpoint_raw(donor_path)
    donor_cfg = _config_from_meta(meta, donor_path)
    mismatched = [key for key in ("n_mels", "encoder_blocks", "model_dim", "n_heads")
                  if getattr(donor_cfg, key) != getattr(model.config, key)]
    if mismatched:
        raise CheckpointError(
            f"{donor_path}: encoder config mismatch on keys: {', '.join(mismatched)}"
        )
    encoder = {name: t.values for name, t in model.params.items() if name.startswith("enc.")}
    for name, arr in _checked_arrays(named, encoder, donor_path).items():
        encoder[name][...] = arr
