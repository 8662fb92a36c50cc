"""Reverse-mode differentiation on dense numpy arrays.

Everything the conversion model needs is built from the primitives here:
elementwise arithmetic with broadcasting, matmul, 1-d (transposed and
depthwise) convolutions, reductions, relu and softmax, embedding lookup,
gradient reversal and the straight-through estimator.  Several ops fuse
what would otherwise be long compositions, each recorded as one node with
a hand-written backward: `layer_norm`; `split_heads`/`merge_heads`, which
put attention heads on a batch axis so that `matmul` (which accepts any
equal leading axes) serves every head at once; `bilstm_layer`, which runs
both directions of an LSTM layer in one time loop and takes an input that
is constant over time (a condition row per sequence) as a per-sequence
gate bias, and whose backward writes the pre-activation gradient over the
saved gates, reading each step's forget gate before it overwrites it; and
the two loss terms, `huber` and `cross_entropy`.
`bilstm_layer` takes the i, f, o gates' sigmoid as 1/2 + tanh(z/2)/2, so
all four gates cost one tanh per step; in float32 this rounds differently
from 1/(1 + exp(-z)), by about an ulp.  Ops executed while a `Tape` is
active record a backward rule; `Tape.backward` replays the records in
reverse to fill in `.grad` arrays.  A tape replays once: backward drops
each record as it passes it, so the activations that op saved and the
gradients of intermediates nothing else holds are freed while backward
runs.  Tensors the caller still holds keep their `.grad`.

A constant is a plain numpy array, never a `Tensor`.  `add`, `sub`, `mul`
and `huber` take an array on either side and `conv1d` an array input;
backward computes no gradient for an array operand, so a constant, a
detached value (`t.values`) or the input features cost no backward work.

Sequence ops take time on axis -2 and accept an optional leading batch
axis: one utterance is `[T, C]`, a padded batch is `[B, T, C]`.  Row b of
a batch holds `lengths[b]` valid frames followed by padding.  The length
helpers (`length_mask`, `mask_frames`, `frame_mean`, `row_mean`) build the
masks that make each row see exactly what it would see alone; each returns
its input unmasked when no row is shorter than the time axis, so a
full-length batch and an unbatched input record no mask op.

Storage defaults to float32; sum/mean reductions accumulate in float64
before casting back.  `check_gradients` is the correctness oracle: it
compares every recorded gradient against central finite differences.
A stop-gradient operand is read through `detach`, which is `t.values`
everywhere but inside the oracle: there the checked function's first call
records every detached value and each finite-difference call reads the
recorded ones back.  That freezes the non-smooth choices made on them (the
bottleneck's nearest-entry search), and the replayed `straight_through`
and `grad_reverse` forward smooth functions with exactly their backward,
so the oracle measures the estimators' gradients.
"""

from __future__ import annotations

import functools
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_STATE = threading.local()

class ShapeError(ValueError):
    """Raised when an op receives incompatible shapes; names the op and shapes."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class NonFiniteError(FloatingPointError):
    """Raised by `check_gradients` when the checked function returns NaN or Inf."""


class Tensor:
    """A dense array plus the gradient accumulated by the active tape."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        arr = np.asarray(values)
        self.values = arr if arr.dtype in (np.float32, np.float64) else arr.astype(DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class Tape:
    """Ordered record of executed ops; reverse replay yields gradients.

    A tape and the tensors flowing through it are a single-threaded unit of
    work; independent tapes may run on separate threads.  Ops executed with
    no active tape compute values only.  `backward` replays the tape once,
    releasing each record as it passes it; tensors the caller holds keep
    their gradients, and a second `backward` raises.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._outer = None
        self._replayed = False

    def __enter__(self) -> "Tape":
        self._outer = getattr(_STATE, "tape", None)
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.tape = self._outer
        self._outer = None

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and propagate to every recorded input.

        Each record is popped before its rule runs, so its closure, and the
        output tensor unless the caller holds it, are freed as soon as the
        rule returns.  Raises `RuntimeError` on a tape already replayed.
        """
        if self._replayed:
            raise RuntimeError("backward: this tape was already replayed")
        if loss.values.size != 1:
            raise ShapeError("backward", loss.shape)
        self._replayed = True
        loss.grad = np.ones_like(loss.values)
        nodes = self._nodes
        while nodes:
            out, bwd = nodes.pop()
            if out.grad is not None:
                bwd(out.grad)


def _active_tape() -> Tape | None:
    return getattr(_STATE, "tape", None)


def detach(t: Tensor) -> np.ndarray:
    """`t`'s values as a constant: backward sends nothing back through them.

    Outside `check_gradients` this is `t.values`.  In the checked function's
    first call it also keeps a copy (finite differences perturb parameters
    in place); in each finite-difference call it returns the value kept by
    the same call in order instead, so every stop-gradient sits at the check
    point.  Records no op.
    """
    frozen = getattr(_STATE, "frozen", None)
    if frozen is None:
        return t.values
    if _STATE.cursor is None:
        frozen.append(t.values.copy())
        return t.values
    i = _STATE.cursor
    if i == len(frozen) or frozen[i].shape != t.shape:
        raise RuntimeError("check_gradients: fn detached other values than in its first call; "
                           "it must be deterministic")
    _STATE.cursor = i + 1
    return frozen[i]


def _replaying() -> bool:
    """True inside a finite-difference call of `check_gradients`."""
    return getattr(_STATE, "cursor", None) is not None


def _record(out: Tensor, bwd: Callable[[np.ndarray], None]) -> Tensor:
    tape = _active_tape()
    if tape is not None:
        tape._nodes.append((out, bwd))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    g = np.asarray(g, dtype=t.values.dtype)
    if t.grad is None:
        # always a private copy: add/sub hand one upstream array to both inputs
        if g.shape == t.values.shape:
            t.grad = g.copy()
        else:
            t.grad = np.array(np.broadcast_to(g, t.values.shape), copy=True)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape` (float64 accumulation)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)), dtype=np.float64)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True, dtype=np.float64)
    return g


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def uniform_init(shape, fan_in: int, name: str, seed: int, dtype, gain: float = 1.0) -> np.ndarray:
    """Uniform(-gain/sqrt(fan_in), +gain/sqrt(fan_in)); the stream is keyed by name."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    bound = gain / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting)


Operand = Tensor | np.ndarray


def _values(a: Operand) -> np.ndarray:
    return a.values if isinstance(a, Tensor) else a


def _binary(op: str, a: Operand, b: Operand, fwd, da, db) -> Tensor:
    """`fwd` of the two operands' values; backward feeds only `Tensor` operands."""
    try:
        out = Tensor(fwd(_values(a), _values(b)))
    except ValueError:
        raise ShapeError(op, a.shape, b.shape) from None

    def bwd(g: np.ndarray) -> None:
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(da(g), a.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(db(g), b.shape))

    return _record(out, bwd)


def add(a: Operand, b: Operand) -> Tensor:
    return _binary("add", a, b, np.add, lambda g: g, lambda g: g)


def sub(a: Operand, b: Operand) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a: Operand, b: Operand) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g: g * _values(b), lambda g: g * _values(a))


# ---------------------------------------------------------------------------
# activations


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.values, 0.0)
    out = Tensor(y)

    def bwd(g):
        _accum(a, g * (a.values > 0.0))

    return _record(out, bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = a.values - a.values.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True, dtype=np.float64)
        _accum(a, y * (g - inner.astype(g.dtype)))

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# shape ops


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError("transpose", a.shape)
    out = Tensor(np.swapaxes(a.values, -1, -2))

    def bwd(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _record(out, bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([p.values for p in parts], axis=axis))
    sizes = [p.values.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(p, g[tuple(idx)])

    return _record(out, bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` elements starting at `start` along `axis`."""
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError("narrow", a.shape, (start, length))
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.values[idx])

    def bwd(g):
        full = np.zeros_like(a.values)
        full[idx] = g
        _accum(a, full)

    return _record(out, bwd)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., T, n_heads * d] -> [..., n_heads, T, d]: each head's channels on a
    batch axis ahead of time, so one batched matmul serves every head."""
    if x.ndim < 2 or n_heads < 1 or x.shape[-1] % n_heads:
        raise ShapeError("split_heads", x.shape, (n_heads,))
    d = x.shape[-1] // n_heads
    out = Tensor(np.swapaxes(x.values.reshape(x.shape[:-1] + (n_heads, d)), -2, -3))

    def bwd(g):
        _accum(x, np.swapaxes(g, -2, -3).reshape(x.shape))

    return _record(out, bwd)


def merge_heads(x: Tensor) -> Tensor:
    """[..., n_heads, T, d] -> [..., T, n_heads * d], the inverse of `split_heads`."""
    if x.ndim < 3:
        raise ShapeError("merge_heads", x.shape)
    n_heads, t, d = x.shape[-3:]
    moved = np.swapaxes(x.values, -2, -3)
    out = Tensor(moved.reshape(moved.shape[:-2] + (n_heads * d,)))

    def bwd(g):
        _accum(x, np.swapaxes(g.reshape(moved.shape), -2, -3))

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# reductions (float64 accumulators)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.values.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.values.shape))

    return _record(out, bwd)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.values.size if axis is None else a.values.shape[axis]
    out = Tensor(a.values.mean(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g / n, a.values.shape))

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# linear algebra and convolutions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """`np.matmul` over leading axes: [..., K] @ [K, N], or [..., T, K] @ [..., K, S]
    with equal leading axes (a batch, or a batch and attention heads).

    The first form runs as one 2-D GEMM over every leading row.
    """
    if b.ndim == 2 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        k, n = b.shape
        a2 = a.values.reshape(-1, k)
        out = Tensor((a2 @ b.values).reshape(a.shape[:-1] + (n,)))

        def bwd(g):
            g2 = g.reshape(-1, n)
            _accum(a, (g2 @ b.values.T).reshape(a.shape))
            _accum(b, a2.T @ g2)

    elif a.ndim == b.ndim >= 3 and a.shape[:-2] == b.shape[:-2] and a.shape[-1] == b.shape[-2]:
        out = Tensor(a.values @ b.values)

        def bwd(g):
            _accum(a, g @ np.swapaxes(b.values, -1, -2))
            _accum(b, np.swapaxes(a.values, -1, -2) @ g)

    else:
        raise ShapeError("matmul", a.shape, b.shape)
    return _record(out, bwd)


def _pad_time(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Zero-pad the time axis (-2) of x: one zeros buffer and one slice copy."""
    t = x.shape[-2]
    out = np.zeros(x.shape[:-2] + (before + t + after, x.shape[-1]), dtype=x.dtype)
    out[..., before : before + t, :] = x
    return out


def conv1d(x: Operand, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """1-d convolution over time.  x: [..., T, Cin], w: [K, Cin, Cout].

    Output length is floor((T + 2*padding - K) / stride) + 1.  Computed as
    one [rows, Cin] @ [Cin, Cout] GEMM per kernel tap.  An array `x` (input
    features) gets no gradient, so backward runs only the weight GEMMs.
    """
    if x.ndim < 2 or w.ndim != 3 or x.shape[-1] != w.shape[1]:
        raise ShapeError("conv1d", x.shape, w.shape)
    k, cin, cout = w.shape
    lead = x.shape[:-2]
    xp = _pad_time(_values(x), padding, padding)
    t_pad = xp.shape[-2]
    if t_pad < k:
        raise ShapeError("conv1d", x.shape, w.shape)
    t_out = (t_pad - k) // stride + 1
    span = stride * (t_out - 1) + 1
    taps = [xp[..., j : j + span : stride, :].reshape(-1, cin) for j in range(k)]
    out2 = taps[0] @ w.values[0]
    for j in range(1, k):
        out2 += taps[j] @ w.values[j]
    out = Tensor(out2.reshape(lead + (t_out, cout)))

    def bwd(g):
        g2 = g.reshape(-1, cout)
        _accum(w, np.stack([tap.T @ g2 for tap in taps]))
        if not isinstance(x, Tensor):
            return
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[..., j : j + span : stride, :] += (g2 @ w.values[j].T).reshape(lead + (t_out, cin))
        _accum(x, gxp[..., padding : t_pad - padding, :] if padding else gxp)

    return _record(out, bwd)


def conv1d_transpose(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed 1-d convolution.  x: [..., T, Cin], w: [K, Cin, Cout].

    Output length is (T - 1) * stride + K - 2*padding.
    """
    if x.ndim < 2 or w.ndim != 3 or x.shape[-1] != w.shape[1]:
        raise ShapeError("conv1d_transpose", x.shape, w.shape)
    k, cin, cout = w.shape
    lead, t_in = x.shape[:-2], x.shape[-2]
    full_len = (t_in - 1) * stride + k
    out_len = full_len - 2 * padding
    if out_len <= 0:
        raise ShapeError("conv1d_transpose", x.shape, w.shape)
    span = stride * (t_in - 1) + 1
    x2 = x.values.reshape(-1, cin)
    full = np.zeros(lead + (full_len, cout), dtype=x.dtype)
    for j in range(k):
        full[..., j : j + span : stride, :] += (x2 @ w.values[j]).reshape(lead + (t_in, cout))
    out = Tensor(full[..., padding : full_len - padding, :] if padding else full)

    def bwd(g):
        g_full = np.zeros(lead + (full_len, cout), dtype=g.dtype)
        g_full[..., padding : full_len - padding, :] = g
        gx = np.zeros_like(x2)
        gw = np.empty_like(w.values)
        for j in range(k):
            seg = g_full[..., j : j + span : stride, :].reshape(-1, cout)
            gx += seg @ w.values[j].T
            gw[j] = x2.T @ seg
        _accum(x, gx.reshape(x.shape))
        _accum(w, gw)

    return _record(out, bwd)


def depthwise_conv1d(x: Tensor, w: Tensor) -> Tensor:
    """Per-channel 1-d convolution, stride 1, same-length output.

    x: [..., T, C], w: [K, C] with K odd; one multiply-add per kernel tap.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1] or w.shape[0] % 2 == 0:
        raise ShapeError("depthwise_conv1d", x.shape, w.shape)
    k = w.shape[0]
    pad = (k - 1) // 2
    t = x.shape[-2]
    xp = _pad_time(x.values, pad, pad)
    y = xp[..., 0:t, :] * w.values[0]
    for j in range(1, k):
        y += xp[..., j : j + t, :] * w.values[j]
    out = Tensor(y)

    def bwd(g):
        rows = tuple(range(g.ndim - 1))
        _accum(w, np.stack([(xp[..., j : j + t, :] * g).sum(axis=rows) for j in range(k)]))
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[..., j : j + t, :] += g * w.values[j]
        _accum(x, gxp[..., pad : pad + t, :])

    return _record(out, bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by integer ids; gradients scatter-add back."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError("embedding_lookup", table.shape, ids.shape)
    out = Tensor(table.values[ids])

    def bwd(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, ids, g)
        _accum(table, gt)

    return _record(out, bwd)


@functools.lru_cache(maxsize=16)
def _gate_affine(hidden: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only [4H] scale and offset that turn tanh of the scaled gates into
    sigmoid on the i, f, o columns and leave the cell column's tanh."""
    sigmoid_cols = np.arange(4 * hidden) // hidden != 2
    scale = np.where(sigmoid_cols, 0.5, 1.0).astype(dtype)
    offset = np.where(sigmoid_cols, 0.5, 0.0).astype(dtype)
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def bilstm_layer(x: Tensor, fwd_weights: Sequence[Tensor], bwd_weights: Sequence[Tensor],
                 lengths=None, cond: Tensor | None = None) -> Tensor:
    """A bidirectional LSTM layer over a whole sequence, recorded as a single op.

    x: [T, I] or a padded batch [B, T, I]; `fwd_weights` and `bwd_weights`
    are each one direction's (wx [I + E, 4H], wh [H, 4H], b [4H]).  Returns
    [T, 2H] or [B, T, 2H]: the forward direction's h on the first H channels
    and the reverse direction's on the last H, with h[t] the state after
    consuming x[t].  Each direction starts from zero h and c; the forward one
    runs t = 0..T-1, the reverse one from each row's last valid frame,
    lengths[b] - 1, down to 0.  Frames past a row's length are consumed after
    all of its valid ones in both directions, so they never reach a valid
    output.  Gate order along the last axis is (input, forget, cell, output).

    `cond` is a condition row per sequence, [E] or [B, E] (E = 0 without
    it), that every frame of its sequence sees as E more input channels
    after its own I: the layer computes exactly what it would over each
    frame with the row appended, but multiplies only the frames by wx[:I]
    and adds cond @ wx[I:], one product per sequence, to every frame's
    gates.

    Before the loop, each direction's input projection is one
    [rows, I] @ [I, 4H] GEMM; its per-sequence bias (b, plus the condition
    product) is added and the result copied into contiguous step-major
    [T, 2, B, 4H] gates in the order that direction reads frames (a reverse
    row is its valid prefix flipped).  The loop advances both directions
    with one [2, B, H] @ [2, H, 4H] recurrent matmul per step and activates
    the gates in place.  All four take one tanh: the
    cell gate is tanh(z), and i, f, o use sigmoid(z) = 1/2 + tanh(z/2)/2.
    The z/2 costs nothing: the projection is halved on the i, f, o columns
    as it is copied into the gates, and so are those columns of the stacked
    wh, which rounds nothing (a power-of-two scale).
    The identity rounds differently from 1/(1 + exp(-z)): in float32 both
    stay within about 1e-7 of the exact sigmoid, but near 0 the identity's
    values are multiples of 2**-25 and it reaches exactly 0 below about
    z = -19.5.

    Backward saves the activated gates, c and tanh(c) (with no active
    tape, only the current step's c and tanh(c) are kept).  Backpropagation
    through time fills the pre-activation gradient dZ of both directions,
    one step at a time, over the saved gates' own storage: each step reads
    its forget gate before it overwrites that slot with dZ.  Then dwh is one
    batched [2, H, rows] @ [2, rows, 4H] GEMM, and each direction's
    dwx[:I] = xT dZ, its part of dx = dZ wx[:I]T and its db = sum dZ
    (float64) take one operation each.  The condition row's gradient and
    dwx[I:] come from dZ summed over each sequence's frames.
    """
    (wxf, whf, bf), (wxb, whb, bb) = fwd_weights, bwd_weights
    hidden = whf.shape[0] if whf.ndim else 0
    h4 = 4 * hidden
    cond_dim = cond.shape[-1] if cond is not None and cond.ndim else 0
    if (x.ndim not in (2, 3) or hidden == 0
            or (cond is not None and cond.shape != x.shape[:-2] + (cond_dim,))
            or any(w.shape != (x.shape[-1] + cond_dim, h4) for w in (wxf, wxb))
            or any(w.shape != (hidden, h4) for w in (whf, whb))
            or any(v.shape != (h4,) for v in (bf, bb))):
        raise ShapeError("bilstm_layer", x.shape,
                         *(p.shape for p in (*fwd_weights, *bwd_weights)),
                         *(() if cond is None else (cond.shape,)))
    t, in_dim = x.shape[-2], x.shape[-1]
    if lengths is not None:
        lengths = np.asarray(lengths)
        if x.ndim != 3 or lengths.shape != x.shape[:1] or lengths.min() < 1 or lengths.max() > t:
            raise ShapeError("bilstm_layer", x.shape, lengths.shape)
    rows, dtype = x.shape[0] if x.ndim == 3 else 1, x.dtype
    x2 = x.values.reshape(-1, in_dim)
    cond2 = None if cond is None else cond.values.reshape(rows, cond_dim)

    valid = [t] * rows if lengths is None else lengths.tolist()

    def flip(a):
        """Reverse each row's valid frames of a [B, T, F] view in place: frame order
        <-> the order the reverse direction reads them (an involution)."""
        for row, n in zip(a, valid):
            row[:n] = row[n - 1 :: -1]

    def to_frames(a):
        """[T, 2, B, F] in step order -> a new [B, T, 2F] in frame order."""
        frames = a.transpose(2, 0, 1, 3).copy()
        flip(frames[:, :, 1])
        return frames.reshape(rows, t, -1)

    scale, offset = _gate_affine(hidden, dtype)
    gates = np.empty((t, 2, rows, h4), dtype=dtype)
    proj = np.empty((rows * t, h4), dtype=dtype)
    for d, (wx, b) in enumerate(((wxf, bf), (wxb, bb))):
        np.matmul(x2, wx.values[:in_dim], out=proj)
        bias = b.values if cond is None else cond2 @ wx.values[in_dim:] + b.values
        proj3 = proj.reshape(rows, t, h4)
        proj3 += bias.reshape(-1, 1, h4)
        np.multiply(proj3.transpose(1, 0, 2), scale, out=gates[:, d])
    del proj, proj3   # unused in the loop; freeing it lowers peak memory
    flip(gates[:, 1].transpose(1, 0, 2))
    wh2 = np.stack([whf.values, whb.values])
    wh2 *= scale
    hs = np.empty((t, 2, rows, hidden), dtype=dtype)
    # only backward reads every step's c and tanh(c); without a tape one slot is reused
    kept = t if _active_tape() is not None else 1
    cs = np.empty((kept,) + hs.shape[1:], dtype=dtype)
    tcs = np.empty_like(cs)
    h = np.zeros(hs.shape[1:], dtype=dtype)
    c = np.zeros_like(h)
    i, f, gg, o = (gates[..., k * hidden : (k + 1) * hidden] for k in range(4))
    for s in range(t):
        z = gates[s]
        z += np.matmul(h, wh2)
        np.tanh(z, out=z)
        z *= scale
        z += offset
        c = np.multiply(f[s], c, out=cs[s % kept])
        c += i[s] * gg[s]
        h = np.multiply(o[s], np.tanh(c, out=tcs[s % kept]), out=hs[s])
    out_frames = to_frames(hs)
    out = Tensor(out_frames if x.ndim == 3 else out_frames[0])

    def bwd(g):
        zero = np.zeros((1,) + cs.shape[1:], dtype=dtype)
        c_prev, h_prev = np.concatenate([zero, cs[:-1]]), np.concatenate([zero, hs[:-1]])
        # d(pre-activation) per unit of dc for the i, f, g gates, and per
        # unit of dh for the o gate
        per_dc = np.stack([gg * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - gg * gg)],
                          axis=-2)
        per_dh = tcs * o * (1.0 - o)
        dc_dh = o * (1.0 - tcs * tcs)
        g_steps = g.reshape(rows, t, 2, hidden).transpose(1, 2, 0, 3).copy()
        flip(g_steps[:, 1].transpose(1, 0, 2))
        # dZ is written over the gates, whose other reads are all above:
        # step s reads f[s] before it overwrites that slot
        dz_flat = gates
        dz = gates.reshape(gates.shape[:-1] + (4, hidden))
        dz_c, dz_o = dz[..., :3, :], dz[..., 3, :]
        wh_t = np.stack([whf.values.T, whb.values.T])
        dh_next = np.zeros_like(h)
        dc_next = np.zeros_like(h)
        for s in range(t - 1, -1, -1):
            dh = g_steps[s] + dh_next
            dc = dh * dc_dh[s]
            dc += dc_next
            dc_next = dc * f[s]
            np.multiply(per_dc[s], dc[..., None, :], out=dz_c[s])
            np.multiply(per_dh[s], dh, out=dz_o[s])
            dh_next = np.matmul(dz_flat[s], wh_t)
        # [2, H, steps*B] @ [2, steps*B, 4H], rows in step order
        dwh = np.matmul(h_prev.transpose(1, 3, 0, 2).reshape(2, hidden, -1),
                        dz_flat.transpose(1, 0, 2, 3).reshape(2, -1, h4))
        _accum(whf, dwh[0])
        _accum(whb, dwh[1])
        del dwh   # freed before the dwx GEMMs, it lowers peak memory
        dz_frames = to_frames(dz_flat).reshape(-1, 2, h4)
        # each sequence's dZ summed over its frames: what its condition row sees
        dz_rows = None if cond is None else dz_frames.reshape(rows, t, 2, h4).sum(axis=1)
        dx = np.zeros_like(x2)
        dcond = None if cond is None else np.zeros_like(cond2)
        dwx = np.empty_like(wxf.values)   # one scratch: `_accum` copies or adds it
        for d, (wx, b) in enumerate(((wxf, bf), (wxb, bb))):
            _accum(b, dz_frames[:, d].sum(axis=0, dtype=np.float64))
            np.matmul(x2.T, dz_frames[:, d], out=dwx[:in_dim])
            dx += dz_frames[:, d] @ wx.values[:in_dim].T
            if cond is not None:
                np.matmul(cond2.T, dz_rows[:, d], out=dwx[in_dim:])
                dcond += dz_rows[:, d] @ wx.values[in_dim:].T
            _accum(wx, dwx)
        _accum(x, dx.reshape(x.shape))
        if cond is not None:
            _accum(cond, dcond.reshape(cond.shape))

    return _record(out, bwd)


LN_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then an optional
    gain and bias ([D] each); one op.

    y = (x - mean) / sqrt(var + LN_EPS) * gain + bias, with the mean and the
    variance accumulated in float64 and cast back.  With x_hat the
    normalized input and g' = dy * gain, backward is
    dx = (g' - mean(g') - x_hat * mean(g' * x_hat)) / sqrt(var + LN_EPS),
    dgain = sum(dy * x_hat) and dbias = sum(dy) over every leading row.
    """
    if x.ndim == 0 or any(p is not None and p.shape != x.shape[-1:] for p in (gain, bias)):
        raise ShapeError("layer_norm", x.shape, *(p.shape for p in (gain, bias) if p is not None))
    xv = x.values
    x_hat = xv - xv.mean(axis=-1, keepdims=True, dtype=np.float64).astype(xv.dtype)
    var = (x_hat * x_hat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(xv.dtype)
    inv = (var + np.asarray(LN_EPS, dtype=xv.dtype)) ** -0.5
    x_hat *= inv
    y = x_hat if gain is None else x_hat * gain.values
    if bias is not None:
        y = y + bias.values
    out = Tensor(y)

    def bwd(g):
        gh = g if gain is None else g * gain.values
        m1 = gh.mean(axis=-1, keepdims=True, dtype=np.float64).astype(g.dtype)
        m2 = (gh * x_hat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(g.dtype)
        _accum(x, inv * (gh - m1 - x_hat * m2))
        if gain is not None:
            _accum(gain, _unbroadcast(g * x_hat, gain.shape))
        if bias is not None:
            _accum(bias, _unbroadcast(g, bias.shape))

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# estimator, reversal and loss terms


def grad_reverse(x: Tensor, weight: float) -> Tensor:
    """Gradient reversal: the identity forward, while backward multiplies the
    incoming gradient by -weight.

    Replayed by `check_gradients`, the forward is x0 - weight * (x - x0),
    with x0 the value x had at the check point: equal there, with the same
    backward, but an ordinary smooth function of x.
    """
    if weight < 0:
        raise ValueError(f"grad_reverse weight must be >= 0, got {weight}")
    x0 = detach(x)
    out = Tensor(x0 - np.asarray(weight, dtype=x.dtype) * (x.values - x0) if _replaying() else x0)

    def bwd(g):
        _accum(x, -weight * g)

    return _record(out, bwd)


def straight_through(z_e: Tensor, z_q: Tensor) -> Tensor:
    """Forward the quantized values; route the gradient to z_e as identity.

    No gradient reaches z_q through this op.  Replayed by
    `check_gradients`, the forward is z_e + (z_q0 - z_e0), both constants
    taken at the check point, so it is smooth in z_e with the same gradient.
    """
    if z_e.shape != z_q.shape:
        raise ShapeError("straight_through", z_e.shape, z_q.shape)
    z_e0, z_q0 = detach(z_e), detach(z_q)
    out = Tensor(z_e.values + (z_q0 - z_e0) if _replaying() else z_q0)

    def bwd(g):
        _accum(z_e, g)

    return _record(out, bwd)


def huber(y: Operand, y_hat: Operand, delta: float = 1.0) -> Tensor:
    """Elementwise Huber penalty of d = y - y_hat, one op: 0.5*d^2 where
    |d| < delta, delta*(|d| - delta/2) elsewhere.  The branches meet with
    equal slope, so the gradient is clip(d, -delta, delta), negated for y_hat."""
    if y.shape != y_hat.shape:
        raise ShapeError("huber", y.shape, y_hat.shape)
    d = _values(y) - _values(y_hat)
    abs_d = np.abs(d)
    lin = np.asarray(delta, d.dtype) * (abs_d - np.asarray(0.5 * delta, d.dtype))
    value = np.where(abs_d < delta, np.asarray(0.5, d.dtype) * d * d, lin)
    slope = np.clip(d, -delta, delta)
    return _binary("huber", y, y_hat, lambda *_: value, lambda g: g * slope,
                   lambda g: -(g * slope))


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Softmax cross-entropy of [S] logits against an integer label, or the
    row mean over [B, S] logits against [B] labels; one op.  With e =
    exp(logits - max) and s its row sum, a row's gradient is
    (g / s) * e - g * onehot, g being the upstream gradient over the rows."""
    labels = np.asarray(label)
    if logits.ndim not in (1, 2) or labels.shape != logits.shape[:-1]:
        raise ShapeError("cross_entropy", logits.shape, labels.shape)
    n = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= n:
        raise ValueError(f"label {label} out of range [0, {n})")
    lv = logits.values
    shift = lv.max(axis=-1, keepdims=True)   # keeps exp finite
    e = np.exp(lv - shift)
    s = e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(lv.dtype)
    onehot = (labels[..., None] == np.arange(n)).astype(lv.dtype)
    picked = (lv * onehot).sum(axis=-1, keepdims=True, dtype=np.float64).astype(lv.dtype)
    per_row = np.log(s) + shift - picked
    out = Tensor(per_row.mean(dtype=np.float64).astype(lv.dtype))

    def bwd(g):
        g = g / per_row.size
        _accum(logits, (g / s) * e - g * onehot)

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# length masks for padded [B, T, ...] batches


def length_mask(lengths, t: int, dtype) -> np.ndarray | None:
    """[B, t] array: 1 on each row's first lengths[b] frames, 0 after.

    None when `lengths` is None or no row is shorter than `t`; callers then
    skip the mask op, since multiplying by 1 and adding 0 change nothing.
    """
    if lengths is None:
        return None
    lengths = np.asarray(lengths)
    if lengths.min() >= t:
        return None
    return (np.arange(t) < lengths[:, None]).astype(dtype)


def mask_frames(x: Tensor, lengths) -> Tensor:
    """Zero the frames of [B, T, C] past each row's length."""
    mask = length_mask(lengths, x.shape[-2], x.dtype)
    return x if mask is None else mul(x, mask[..., None])


def frame_mean(x: Tensor, lengths=None) -> Tensor:
    """Mean over valid frames: [T, C] -> [C], or [B, T, C] -> [B, C] per row."""
    mask = length_mask(lengths, x.shape[-2], x.dtype)
    if mask is None:
        return reduce_mean(x, axis=-2)
    weights = mask / np.asarray(lengths)[:, None]
    return reduce_sum(mul(x, weights[..., None].astype(x.dtype)), axis=-2)


def row_mean(x: Tensor, lengths=None) -> Tensor:
    """Scalar mean of x: [B, T, ...] per row over its valid frames and every
    later axis, then over rows; a plain mean when no row is padded."""
    mask = None if lengths is None else length_mask(lengths, x.shape[1], x.dtype)
    if mask is None:
        return reduce_mean(x)
    per_row = np.asarray(lengths) * (x.values[0, 0].size * x.shape[0])
    weights = (mask / per_row[:, None]).reshape(mask.shape + (1,) * (x.ndim - 2))
    return reduce_sum(mul(x, weights.astype(x.dtype)))


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckReport:
    """Max relative error per parameter from a central finite-difference sweep."""

    per_param: dict[str, float]

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err < tol


FD_STEP = 1e-5      # central-difference half step
FD_REL_FLOOR = 1e-4  # least relative-error denominator


def check_gradients(
    fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    sample_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare tape gradients of the scalar `fn()` against central differences.

    `fn` must be deterministic and close over `params`.  Its first, taped
    call records every value it reads through `detach`; each
    finite-difference call replays them (see `detach`), and raises
    `RuntimeError` if it detaches a different sequence.  With
    `sample_per_param` set, only that many randomly chosen elements of each
    parameter are probed (the analytic gradient is still the full one).
    The differences step `FD_STEP` each way, and relative error uses
    max(|analytic|, |numeric|, FD_REL_FLOOR) as denominator.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    _STATE.frozen, _STATE.cursor = [], None
    try:
        with Tape() as tape:
            loss = fn()
        if not np.isfinite(loss.values).all():
            raise NonFiniteError("check_gradients: fn() returned a non-finite value")
        zero_grads(params.values())
        tape.backward(loss)
        analytic = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
            for name, p in params.items()
        }

        def f_at(flat: np.ndarray, i: int, value) -> float:
            """fn() replayed with flat[i] set to `value`."""
            flat[i] = value
            _STATE.cursor = 0
            out = float(fn().values)
            if _STATE.cursor != len(_STATE.frozen):
                raise RuntimeError("check_gradients: fn detached fewer values than in its "
                                   "first call; it must be deterministic")
            return out

        report: dict[str, float] = {}
        for name, p in params.items():
            flat = p.values.reshape(-1)
            ana = analytic[name].reshape(-1)
            if sample_per_param is not None and flat.size > sample_per_param:
                idxs = rng.choice(flat.size, size=sample_per_param, replace=False)
            else:
                idxs = range(flat.size)
            worst = 0.0
            for i in idxs:
                orig = flat[i]
                try:   # the parameter is restored even when fn raises
                    numeric = ((f_at(flat, i, orig + FD_STEP) - f_at(flat, i, orig - FD_STEP))
                               / (2.0 * FD_STEP))
                finally:
                    flat[i] = orig
                err = abs(float(ana[i]) - numeric)
                worst = max(worst, err / max(abs(float(ana[i])), abs(numeric), FD_REL_FLOOR))
            report[name] = worst
    finally:
        _STATE.frozen = _STATE.cursor = None
    return GradCheckReport(per_param=report)
