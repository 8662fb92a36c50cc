"""Reverse-mode differentiation on dense numpy arrays.

Everything the conversion model needs is built from the primitives here:
elementwise arithmetic with broadcasting, matmul, 1-d (transposed and
depthwise) convolutions, reductions, the usual activations, embedding
lookup, a fused LSTM layer, gradient reversal and the straight-through
estimator.  Ops executed while a `Tape` is active record a backward rule;
`Tape.backward` replays the records in reverse to fill in `.grad` arrays.

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
Gradient reversal is not differentiable in the ordinary sense, so
`grad_reverse` takes an optional anchor: anchored, its forward is the
smooth anchor - weight * (x - anchor), which matches the identity forward
where x equals the anchor and has exactly the reversal's backward.
"""

from __future__ import annotations

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
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)


class NonFiniteError(FloatingPointError):
    """Raised by `check_gradients` when the checked function returns NaN or Inf."""


class Tensor:
    """A dense array plus the gradient accumulated by the active tape."""

    __slots__ = ("values", "grad")

    def __init__(self, values, dtype=None):
        arr = np.asarray(values)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.values = arr
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
    no active tape compute values only.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._outer = None

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
        """Seed d(loss)/d(loss) = 1 and propagate to every recorded input."""
        if loss.values.size != 1:
            raise ShapeError("backward", loss.shape)
        loss.grad = np.ones_like(loss.values)
        for out, bwd in reversed(self._nodes):
            if out.grad is None:
                continue
            bwd(out.grad)


def _active_tape() -> Tape | None:
    return getattr(_STATE, "tape", None)


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


def uniform_init(shape, fan_in: int, name: str, seed: int, dtype, gain: float = 1.0) -> Tensor:
    """Uniform(-gain/sqrt(fan_in), +gain/sqrt(fan_in)); the stream is keyed by name."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    bound = gain / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype))


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting)


def _binary(op: str, a: Tensor, b: Tensor, fwd, da, db) -> Tensor:
    try:
        out = Tensor(fwd(a.values, b.values))
    except ValueError:
        raise ShapeError(op, a.shape, b.shape) from None

    def bwd(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(da(g), a.shape))
        _accum(b, _unbroadcast(db(g), b.shape))

    return _record(out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a, b, np.add, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g: g * b.values, lambda g: g * a.values)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    out = Tensor(a.values ** p)

    def bwd(g):
        _accum(a, g * p * a.values ** (p - 1.0))

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# activations and pointwise transcendentals


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.values)
    out = Tensor(y)

    def bwd(g):
        _accum(a, g * (1.0 - y * y))

    return _record(out, bwd)


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.values))
    out = Tensor(y)

    def bwd(g):
        _accum(a, g * y * (1.0 - y))

    return _record(out, bwd)


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.values, 0.0)
    out = Tensor(y)

    def bwd(g):
        _accum(a, g * (a.values > 0.0))

    return _record(out, bwd)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.values)
    out = Tensor(y)

    def bwd(g):
        _accum(a, g * y)

    return _record(out, bwd)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.values))

    def bwd(g):
        _accum(a, g / a.values)

    return _record(out, bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
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
    """`np.matmul` over leading axes: [..., K] @ [K, N], or [B, T, K] @ [B, K, S].

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

    elif a.ndim == b.ndim == 3 and a.shape[0] == b.shape[0] and a.shape[2] == b.shape[1]:
        out = Tensor(a.values @ b.values)

        def bwd(g):
            _accum(a, g @ np.swapaxes(b.values, -1, -2))
            _accum(b, np.swapaxes(a.values, -1, -2) @ g)

    else:
        raise ShapeError("matmul", a.shape, b.shape)
    return _record(out, bwd)


def _pad_time(x: np.ndarray, before: int, after: int) -> np.ndarray:
    return np.pad(x, [(0, 0)] * (x.ndim - 2) + [(before, after), (0, 0)])


def conv1d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """1-d convolution over time.  x: [..., T, Cin], w: [K, Cin, Cout].

    Output length is floor((T + 2*padding - K) / stride) + 1.  Computed as
    one [rows, Cin] @ [Cin, Cout] GEMM per kernel tap.
    """
    if x.ndim < 2 or w.ndim != 3 or x.shape[-1] != w.shape[1]:
        raise ShapeError("conv1d", x.shape, w.shape)
    k, cin, cout = w.shape
    lead = x.shape[:-2]
    xp = _pad_time(x.values, padding, padding)
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
        gw = np.zeros_like(w.values)
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


def lstm_layer(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool = False,
               lengths=None) -> Tensor:
    """One LSTM direction over a whole sequence, recorded as a single op.

    x: [T, I] or a padded batch [B, T, I], wx: [I, 4H], wh: [H, 4H], b: [4H];
    returns h: [T, H] or [B, T, H] with h[t] the state after consuming x[t].
    The recurrence starts from zero h and c and runs t = 0..T-1, or with
    `reverse` from each row's last valid frame, lengths[b] - 1, down to 0.
    Frames past a row's length are consumed after all of its valid ones in
    both directions, so they never reach a valid output.  Gate order along
    the last axis is (input, forget, cell, output); i, f, o use
    sigmoid(z) = 1 / (1 + exp(-z)) and the cell gate uses tanh.

    The input projection x @ wx + b is one [rows, I] @ [I, 4H] GEMM before
    the loop.  The loop runs over contiguous time-major [T, (B,) 4H] rows in
    the order the recurrence consumes frames (a reverse row is its valid
    prefix flipped).  Backward saves the activated gates, c and tanh(c);
    backpropagation through time fills the pre-activation gradient dZ and
    then takes dwx = xT dZ, dwh = h_prevT dZ, dx = dZ wxT as one GEMM each
    and db = sum dZ in float64.
    """
    if (x.ndim not in (2, 3) or wx.ndim != 2 or wh.ndim != 2 or b.ndim != 1
            or wx.shape[0] != x.shape[-1] or wx.shape[1] != 4 * wh.shape[0]
            or wh.shape[1] != wx.shape[1] or b.shape[0] != wx.shape[1]):
        raise ShapeError("lstm_layer", x.shape, wx.shape, wh.shape, b.shape)
    t, in_dim, hidden = x.shape[-2], x.shape[-1], wh.shape[0]
    if lengths is not None:
        lengths = np.asarray(lengths)
        if x.ndim != 3 or lengths.shape != x.shape[:1] or lengths.min() < 1 or lengths.max() > t:
            raise ShapeError("lstm_layer", x.shape, lengths.shape)
    h2, h3 = 2 * hidden, 3 * hidden
    whv = wh.values

    order = None   # [B, T, 1] frame each step reads, for a reverse batch with padding
    if reverse and lengths is not None and lengths.min() < t:
        steps = np.arange(t)
        order = np.where(steps < lengths[:, None], lengths[:, None] - 1 - steps, steps)[..., None]

    def permute(a):
        """Reorder [..., T, F] frames into the order the recurrence reads them
        (an involution, so it also maps back)."""
        if not reverse:
            return a
        if order is None:
            return a[..., ::-1, :]
        return np.take_along_axis(a, order, axis=-2)

    def to_steps(a):
        """[..., T, F] in frame order -> contiguous [T, ..., F] in step order."""
        return np.ascontiguousarray(np.moveaxis(permute(a), -2, 0))

    def to_frames(a):
        """Inverse of `to_steps`."""
        return permute(np.moveaxis(a, 0, -2))

    proj = x.values.reshape(-1, in_dim) @ wx.values + b.values
    gates = to_steps(proj.reshape(x.shape[:-1] + (4 * hidden,)))
    state = gates.shape[:-1] + (hidden,)
    cs = np.empty(state, dtype=gates.dtype)
    tcs = np.empty_like(cs)
    hs = np.empty_like(cs)
    h = np.zeros(state[1:], dtype=gates.dtype)
    c = np.zeros(state[1:], dtype=gates.dtype)
    i, f, gg, o = (gates[..., k * hidden : (k + 1) * hidden] for k in range(4))
    i_f = gates[..., :h2]
    for s in range(t):
        gates[s] += h @ whv
        i_f[s] = 1.0 / (1.0 + np.exp(-i_f[s]))
        gg[s] = np.tanh(gg[s])
        o[s] = 1.0 / (1.0 + np.exp(-o[s]))
        c = f[s] * c + i[s] * gg[s]
        tc = np.tanh(c)
        h = o[s] * tc
        cs[s], tcs[s], hs[s] = c, tc, h
    out = Tensor(to_frames(hs))

    def bwd(g):
        zero = np.zeros((1,) + state[1:], dtype=cs.dtype)
        c_prev, h_prev = np.concatenate([zero, cs[:-1]]), np.concatenate([zero, hs[:-1]])
        # d(pre-activation) per unit of dc for the i, f, g gates, and per
        # unit of dh for the o gate
        per_dc = np.stack([gg * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - gg * gg)],
                          axis=-2)
        per_dh = tcs * o * (1.0 - o)
        dc_dh = o * (1.0 - tcs * tcs)
        g_steps = to_steps(g)
        dz = np.empty(state[:-1] + (4, hidden), dtype=cs.dtype)
        dz_flat = dz.reshape(state[:-1] + (4 * hidden,))
        dz_c, dz_o = dz[..., :3, :], dz[..., 3, :]
        wh_t = whv.T
        dh_next = np.zeros(state[1:], dtype=cs.dtype)
        dc_next = np.zeros(state[1:], dtype=cs.dtype)
        for s in range(t - 1, -1, -1):
            dh = g_steps[s] + dh_next
            dc = dh * dc_dh[s] + dc_next
            np.multiply(per_dc[s], dc[..., None, :], out=dz_c[s])
            np.multiply(per_dh[s], dh, out=dz_o[s])
            dc_next = dc * f[s]
            dh_next = dz_flat[s] @ wh_t
        dz_rows = dz_flat.reshape(-1, 4 * hidden)
        _accum(wh, h_prev.reshape(-1, hidden).T @ dz_rows)
        _accum(b, dz_rows.sum(axis=0, dtype=np.float64))
        dz_frames = to_frames(dz_flat).reshape(-1, 4 * hidden)
        _accum(x, (dz_frames @ wx.values.T).reshape(x.shape))
        _accum(wx, x.values.reshape(-1, in_dim).T @ dz_frames)

    return _record(out, bwd)


def layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then optional affine."""
    m = reduce_mean(x, axis=-1, keepdims=True)
    centered = sub(x, m)
    var = reduce_mean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, Tensor(np.asarray(eps, dtype=x.dtype))), -0.5)
    normalized = mul(centered, inv)
    if gain is not None:
        normalized = mul(normalized, gain)
    if bias is not None:
        normalized = add(normalized, bias)
    return normalized


# ---------------------------------------------------------------------------
# estimator / reversal / stop-gradient


def stop_gradient(a: Tensor) -> Tensor:
    """Detach: same values, no gradient flows back through this point."""
    return Tensor(a.values)


def grad_reverse(x: Tensor, weight: float, anchor=None) -> Tensor:
    """Gradient reversal: backward multiplies the incoming gradient by -weight.

    Without `anchor` the forward is the identity.  With an `anchor` array it
    is anchor - weight * (x - anchor): the same value where x equals the
    anchor and the same backward, but an ordinary smooth function, which is
    what the finite-difference oracle needs.
    """
    if weight < 0:
        raise ValueError(f"grad_reverse weight must be >= 0, got {weight}")
    if anchor is None:
        out = Tensor(x.values)
    else:
        anchor = np.asarray(anchor, dtype=x.dtype)
        out = Tensor(anchor - np.asarray(weight, dtype=x.dtype) * (x.values - anchor))

    def bwd(g):
        _accum(x, -weight * g)

    return _record(out, bwd)


def straight_through(z_e: Tensor, z_q: Tensor) -> Tensor:
    """Forward the quantized values; route the gradient to z_e as identity.

    No gradient reaches z_q through this op.
    """
    if z_e.shape != z_q.shape:
        raise ShapeError("straight_through", z_e.shape, z_q.shape)
    out = Tensor(z_q.values)

    def bwd(g):
        _accum(z_e, g)

    return _record(out, bwd)


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Softmax cross-entropy of [S] logits against an integer label, or the
    row mean over [B, S] logits against [B] labels."""
    labels = np.asarray(label)
    if logits.ndim not in (1, 2) or labels.shape != logits.shape[:-1]:
        raise ShapeError("cross_entropy", logits.shape, labels.shape)
    n = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= n:
        raise ValueError(f"label {label} out of range [0, {n})")
    # max-shift as a constant keeps logsumexp exact for values and gradients
    shift = Tensor(logits.values.max(axis=-1, keepdims=True))
    lse = add(log(reduce_sum(exp(sub(logits, shift)), axis=-1, keepdims=True)), shift)
    onehot = Tensor((labels[..., None] == np.arange(n)).astype(logits.dtype))
    picked = reduce_sum(mul(logits, onehot), axis=-1, keepdims=True)
    return reduce_mean(sub(lse, picked))


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
    return x if mask is None else mul(x, Tensor(mask[..., None]))


def frame_mean(x: Tensor, lengths=None) -> Tensor:
    """Mean over valid frames: [T, C] -> [C], or [B, T, C] -> [B, C] per row."""
    mask = length_mask(lengths, x.shape[-2], x.dtype)
    if mask is None:
        return reduce_mean(x, axis=-2)
    weights = mask / np.asarray(lengths)[:, None]
    return reduce_sum(mul(x, Tensor(weights[..., None].astype(x.dtype))), axis=-2)


def row_mean(x: Tensor, lengths=None) -> Tensor:
    """Scalar mean of x: [B, T, ...] per row over its valid frames and every
    later axis, then over rows; a plain mean when no row is padded."""
    mask = None if lengths is None else length_mask(lengths, x.shape[1], x.dtype)
    if mask is None:
        return reduce_mean(x)
    per_row = np.asarray(lengths) * (x.values[0, 0].size * x.shape[0])
    weights = (mask / per_row[:, None]).reshape(mask.shape + (1,) * (x.ndim - 2))
    return reduce_sum(mul(x, Tensor(weights.astype(x.dtype))))


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckReport:
    """Max relative error per parameter from a central finite-difference sweep."""

    per_param: dict[str, float]
    eps: float

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err < tol


def check_gradients(
    fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    rel_floor: float = 1e-4,
    sample_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare tape gradients of the scalar `fn()` against central differences.

    `fn` must be deterministic and close over `params`.  With
    `sample_per_param` set, only that many randomly chosen elements of each
    parameter are probed (the analytic gradient is still the full one).
    Relative error uses max(|analytic|, |numeric|, rel_floor) as denominator.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-6, 1e-3], got {eps}")
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
    if rng is None:
        rng = np.random.default_rng(0)

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
            flat[i] = orig + eps
            f_plus = float(fn().values)
            flat[i] = orig - eps
            f_minus = float(fn().values)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(float(ana[i]) - numeric)
            worst = max(worst, err / max(abs(float(ana[i])), abs(numeric), rel_floor))
        report[name] = worst
    return GradCheckReport(per_param=report, eps=eps)
