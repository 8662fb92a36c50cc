import weakref

import numpy as np
import pytest

from vcaug import autodiff as ad
from vcaug.autodiff import Tape, Tensor


def t64(values):
    return Tensor(np.asarray(values, dtype=np.float64))


def tanh(a):
    """tanh as one recorded op; the per-step LSTM oracle and the tape tests use it."""
    y = np.tanh(a.values)
    return ad._record(Tensor(y), lambda g: ad._accum(a, g * (1.0 - y * y)))


def sigmoid(a):
    """1/(1 + exp(-a)) as one recorded op, for the per-step LSTM oracle."""
    y = 1.0 / (1.0 + np.exp(-a.values))
    return ad._record(Tensor(y), lambda g: ad._accum(a, g * y * (1.0 - y)))


def exp(a):
    """exp as one recorded op, for the layer-norm oracle and the tape tests."""
    y = np.exp(a.values)
    return ad._record(Tensor(y), lambda g: ad._accum(a, g * y))


def log(a):
    """log as one recorded op, for the layer-norm oracle and the tape tests."""
    return ad._record(Tensor(np.log(a.values)), lambda g: ad._accum(a, g / a.values))


def grads_of(fn, params):
    with Tape() as tape:
        loss = fn()
    ad.zero_grads(params)
    tape.backward(loss)
    return [p.grad for p in params]


def test_matmul_hand_values():
    x = t64([[1.0, 2.0]])
    w = t64([[3.0], [4.0]])
    (gx,) = grads_of(lambda: ad.reduce_sum(ad.matmul(x, w)), [x])
    assert ad.matmul(x, w).item() == pytest.approx(11.0)
    np.testing.assert_allclose(gx, [[3.0, 4.0]])


def test_matmul_shape_error_names_op():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))


def test_softmax_uniform():
    y = ad.softmax(t64([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(y.values, np.full(3, 1.0 / 3.0))


def test_conv1d_output_length():
    x = t64(np.random.default_rng(0).normal(size=(8, 1)))
    w = t64(np.random.default_rng(1).normal(size=(3, 1, 2)))
    out = ad.conv1d(x, w, stride=2, padding=1)
    assert out.shape == (4, 2)  # floor((8 + 2 - 3) / 2) + 1


def test_conv1d_transpose_output_length():
    x = t64(np.random.default_rng(0).normal(size=(5, 3)))
    w = t64(np.random.default_rng(1).normal(size=(4, 3, 2)))
    out = ad.conv1d_transpose(x, w, stride=2, padding=1)
    assert out.shape == (10, 2)  # (5-1)*2 + 4 - 2*1


def test_grad_reverse_forward_is_bit_identical():
    x = t64(np.random.default_rng(2).normal(size=(4, 3)))
    out = ad.grad_reverse(x, 0.7)
    assert np.array_equal(out.values, x.values)


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
def test_grad_reverse_backward_scales_by_minus_weight(weight):
    x = t64(np.random.default_rng(3).normal(size=(5,)))
    (g,) = grads_of(lambda: ad.reduce_sum(ad.grad_reverse(x, weight)), [x])
    np.testing.assert_allclose(g, np.full(5, -weight))


def test_grad_reverse_composition_multiplies_weights():
    x = t64(np.random.default_rng(4).normal(size=(3,)))
    (g,) = grads_of(
        lambda: ad.reduce_sum(ad.grad_reverse(ad.grad_reverse(x, 0.5), 3.0)), [x]
    )
    np.testing.assert_allclose(g, np.full(3, 1.5))


def test_grad_reverse_rejects_negative_weight():
    with pytest.raises(ValueError):
        ad.grad_reverse(t64([1.0]), -0.1)


def test_straight_through_forward_and_grads():
    z_e = t64(np.random.default_rng(5).normal(size=(4, 2)))
    z_q = t64(np.random.default_rng(6).normal(size=(4, 2)))
    out = ad.straight_through(z_e, z_q)
    assert np.array_equal(out.values, z_q.values)
    ge, gq = grads_of(
        lambda: ad.reduce_sum(ad.straight_through(z_e, z_q)), [z_e, z_q]
    )
    np.testing.assert_allclose(ge, np.ones((4, 2)))
    assert gq is None  # no gradient reaches the quantized side


def test_cross_entropy_uniform_logits():
    loss = ad.cross_entropy(t64([0.0, 0.0, 0.0, 0.0]), 2)
    assert loss.item() == pytest.approx(np.log(4.0))


def test_cross_entropy_confident_logit():
    loss = ad.cross_entropy(t64([100.0, 0.0, 0.0]), 0)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        ad.cross_entropy(t64([0.0, 0.0]), 2)


def test_sum_squares_matches_hand_gradient():
    x = t64([1.0, 2.0])
    report = ad.check_gradients(lambda: ad.reduce_sum(ad.mul(x, x)), {"x": x})
    assert report.ok(1e-6)
    (g,) = grads_of(lambda: ad.reduce_sum(ad.mul(x, x)), [x])
    np.testing.assert_allclose(g, [2.0, 4.0])


def test_check_gradients_rejects_non_finite_loss():
    x = t64([-1.0])
    with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError):
        ad.check_gradients(lambda: ad.reduce_sum(log(x)), {"x": x})


def test_backward_requires_scalar_loss():
    x = t64([1.0, 2.0])
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ad.ShapeError):
        tape.backward(y)


def _rng_tensor(rng, shape, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=shape).astype(np.float64))


def _primitive_cases(rng):
    """Each case: name -> (params dict, scalar fn). Shapes stay <= 40 elements."""
    a = _rng_tensor(rng, (4, 3))
    b = _rng_tensor(rng, (4, 3))
    row = _rng_tensor(rng, (3,))
    m1 = _rng_tensor(rng, (4, 3))
    m2 = _rng_tensor(rng, (3, 5))
    cx = _rng_tensor(rng, (7, 2))
    cw = _rng_tensor(rng, (3, 2, 3))
    tw = _rng_tensor(rng, (4, 2, 3))
    dw = _rng_tensor(rng, (3, 2))
    table = _rng_tensor(rng, (5, 4))
    ids = rng.integers(0, 5, size=6)
    lx = _rng_tensor(rng, (4, 3))
    lx1 = _rng_tensor(rng, (1, 3))
    lstm = {f"{d}.{n}": _rng_tensor(rng, s)
            for d in ("fwd", "bwd") for n, s in (("wx", (3, 8)), ("wh", (2, 8)), ("b", (8,)))}
    fwd, bwd = ([lstm[f"{d}.{n}"] for n in ("wx", "wh", "b")] for d in ("fwd", "bwd"))
    lg = _rng_tensor(rng, (3,))
    lbv = _rng_tensor(rng, (3,))
    logits = _rng_tensor(rng, (6,))
    # padded-batch shapes: [B, T, C] with time on axis -2
    bm = _rng_tensor(rng, (2, 3, 4))
    bk = _rng_tensor(rng, (2, 4, 3))
    bw = _rng_tensor(rng, (4, 3))
    bx = _rng_tensor(rng, (2, 5, 2))
    blx = _rng_tensor(rng, (2, 5, 3))
    blen = np.array([5, 3])
    row_logits = _rng_tensor(rng, (3, 4))
    hq = _rng_tensor(rng, (2, 3, 4))
    hk = _rng_tensor(rng, (2, 2, 3, 2))
    hv = _rng_tensor(rng, (2, 2, 2, 3))
    # Huber: |y - y_hat| in [0.2, 0.8] and [1.2, 2.5] on alternate elements, so
    # both branches are probed and every probe stays clear of |d| = delta = 1
    hy_hat = _rng_tensor(rng, (4, 3))
    alternate = np.arange(12).reshape(4, 3) % 2 == 0
    hd = np.where(alternate, rng.uniform(0.2, 0.8, (4, 3)), rng.uniform(1.2, 2.5, (4, 3)))
    hy = hy_hat.values + rng.choice([-1.0, 1.0], size=(4, 3)) * hd
    hy_t = Tensor(hy.copy())
    # a 2-wide condition row per sequence: wx covers 3 frame channels, then the row's
    cond_lstm = {f"{d}.{n}": _rng_tensor(rng, s)
                 for d in ("fwd", "bwd") for n, s in (("wx", (5, 8)), ("wh", (2, 8)), ("b", (8,)))}
    cfwd, cbwd = ([cond_lstm[f"{d}.{n}"] for n in ("wx", "wh", "b")] for d in ("fwd", "bwd"))
    crow = _rng_tensor(rng, (2,))
    crows = _rng_tensor(rng, (2, 2))

    def spread(x):
        # mixes elements so every input influences the scalar nontrivially
        return ad.add(ad.reduce_sum(ad.mul(x, x)), ad.reduce_sum(x))

    return {
        "add": ({"a": a, "b": row}, lambda: spread(ad.add(a, row))),
        "sub": ({"a": a, "b": b}, lambda: spread(ad.sub(a, b))),
        "mul": ({"a": a, "b": row}, lambda: spread(ad.mul(a, row))),
        "matmul": ({"a": m1, "b": m2}, lambda: spread(ad.matmul(m1, m2))),
        "conv1d": (
            {"x": cx, "w": cw},
            lambda: spread(ad.conv1d(cx, cw, stride=2, padding=1)),
        ),
        "conv1d_transpose": (
            {"x": cx, "w": tw},
            lambda: spread(ad.conv1d_transpose(cx, tw, stride=2, padding=1)),
        ),
        "depthwise_conv1d": (
            {"x": cx, "w": dw},
            lambda: spread(ad.depthwise_conv1d(cx, dw)),
        ),
        "concat": (
            {"a": a, "b": b},
            lambda: spread(ad.concat([a, b], axis=0)),
        ),
        "narrow": ({"a": a}, lambda: spread(ad.narrow(a, 0, 1, 2))),
        "sum": ({"a": a}, lambda: spread(ad.reduce_sum(a, axis=0))),
        "mean": ({"a": a}, lambda: spread(ad.reduce_mean(a, axis=1))),
        "tanh": ({"a": a}, lambda: spread(tanh(a))),
        "sigmoid": ({"a": a}, lambda: spread(sigmoid(a))),
        "relu": ({"a": a}, lambda: spread(ad.relu(a))),
        "softmax": ({"a": a}, lambda: spread(ad.softmax(a, axis=-1))),
        "layer_norm": (
            {"x": a, "g": lg, "b": lbv},
            lambda: spread(ad.layer_norm(a, lg, lbv)),
        ),
        "layer_norm_no_affine": ({"x": bm}, lambda: spread(ad.layer_norm(bm))),
        "split_merge_heads": (
            {"x": hq},
            lambda: spread(ad.mul(ad.merge_heads(ad.mul(ad.split_heads(hq, 2), ad.split_heads(hq, 2))),
                                  hq)),
        ),
        "embedding_lookup": (
            {"table": table},
            lambda: spread(ad.embedding_lookup(table, ids)),
        ),
        "bilstm_layer": ({"x": lx, **lstm}, lambda: spread(ad.bilstm_layer(lx, fwd, bwd))),
        "bilstm_layer_single_step": (
            {"x": lx1, **lstm},
            lambda: spread(ad.bilstm_layer(lx1, fwd, bwd)),
        ),
        "cross_entropy": ({"logits": logits}, lambda: ad.cross_entropy(logits, 2)),
        "matmul_rows": ({"a": bm, "b": bw}, lambda: spread(ad.matmul(bm, bw))),
        "matmul_batched": ({"a": bm, "b": bk}, lambda: spread(ad.matmul(bm, bk))),
        "transpose_batched": ({"a": bm}, lambda: spread(ad.matmul(bm, ad.transpose(bm)))),
        "matmul_heads": ({"a": hk, "b": hv}, lambda: spread(ad.matmul(hk, hv))),
        "conv1d_batched": (
            {"x": bx, "w": cw},
            lambda: spread(ad.conv1d(bx, cw, stride=2, padding=1)),
        ),
        "conv1d_transpose_batched": (
            {"x": bx, "w": tw},
            lambda: spread(ad.conv1d_transpose(bx, tw, stride=2, padding=1)),
        ),
        "depthwise_conv1d_batched": (
            {"x": bx, "w": dw},
            lambda: spread(ad.depthwise_conv1d(bx, dw)),
        ),
        "bilstm_layer_lengths": (
            {"x": blx, **lstm},
            lambda: spread(ad.bilstm_layer(blx, fwd, bwd, lengths=blen)),
        ),
        "bilstm_layer_cond": (
            {"x": lx, "cond": crow, **cond_lstm},
            lambda: spread(ad.bilstm_layer(lx, cfwd, cbwd, cond=crow)),
        ),
        "bilstm_layer_cond_lengths": (
            {"x": blx, "cond": crows, **cond_lstm},
            lambda: spread(ad.bilstm_layer(blx, cfwd, cbwd, lengths=blen, cond=crows)),
        ),
        "cross_entropy_rows": (
            {"logits": row_logits},
            lambda: ad.cross_entropy(row_logits, np.array([1, 3, 0])),
        ),
        "grad_reverse": ({"a": a}, lambda: spread(ad.grad_reverse(a, 0.7))),
        "straight_through": (
            {"z_e": a, "z_q": b},
            lambda: spread(ad.straight_through(a, b)),
        ),
        "huber": ({"y_hat": hy_hat}, lambda: spread(ad.huber(hy, hy_hat, 1.0))),
        "huber_both_tensors": (
            {"y": hy_t, "y_hat": hy_hat},
            lambda: spread(ad.huber(hy_t, hy_hat, 1.0)),
        ),
        "add_array_left": ({"b": row}, lambda: spread(ad.add(a.values, row))),
        "sub_array_right": ({"a": a}, lambda: spread(ad.sub(a, b.values))),
        "mul_array_left": ({"b": row}, lambda: spread(ad.mul(a.values, row))),
        "conv1d_array_input": (
            {"w": cw},
            lambda: spread(ad.conv1d(bx.values, cw, stride=2, padding=1)),
        ),
    }


def test_every_primitive_passes_fd_check():
    names = sorted(_primitive_cases(np.random.default_rng(0)))
    for seed in range(10):
        cases = _primitive_cases(np.random.default_rng(seed))
        for name in names:
            params, fn = cases[name]
            report = ad.check_gradients(fn, params)
            assert report.ok(1e-4), f"{name} seed {seed}: {report.per_param}"


def _lstm_steps_oracle(x, wx, wh, b, reverse=False):
    """One LSTM direction over [T, I] as a per-timestep composition of basic primitives."""
    t, hidden = x.shape[0], wh.shape[0]
    h = Tensor(np.zeros((1, hidden), dtype=x.dtype))
    c = Tensor(np.zeros((1, hidden), dtype=x.dtype))
    rows = [None] * t
    for s in (range(t - 1, -1, -1) if reverse else range(t)):
        gates = ad.add(ad.add(ad.matmul(ad.narrow(x, 0, s, 1), wx), ad.matmul(h, wh)), b)
        i = sigmoid(ad.narrow(gates, 1, 0, hidden))
        f = sigmoid(ad.narrow(gates, 1, hidden, hidden))
        g = tanh(ad.narrow(gates, 1, 2 * hidden, hidden))
        o = sigmoid(ad.narrow(gates, 1, 3 * hidden, hidden))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, tanh(c))
        rows[s] = h
    return ad.concat(rows, axis=0)


def _lstm_weights(rng, in_dim, hidden, scale=0.7):
    return [[_rng_tensor(rng, s, scale=scale) for s in ((in_dim, 4 * hidden), (hidden, 4 * hidden),
                                                        (4 * hidden,))]
            for _ in ("fwd", "bwd")]


def _assert_same_values_and_grads(fused, reference, params, weight, rtol=1e-10):
    """Equal forward values and equal gradients of sum(out * weight) for every param."""
    np.testing.assert_allclose(fused().values, reference().values, rtol=rtol, atol=0)

    def loss(fn):
        return lambda: ad.reduce_sum(ad.mul(fn(), weight))

    for i, (gf, gr) in enumerate(zip(grads_of(loss(fused), params), grads_of(loss(reference), params))):
        np.testing.assert_allclose(gf, gr, rtol=rtol, atol=0, err_msg=f"param {i}")


def _direction(out, reverse, hidden=4):
    """The forward (first H channels) or reverse (last H) half of a bilstm_layer output."""
    return ad.narrow(out, -1, hidden if reverse else 0, hidden)


def _assert_other_direction_untouched(grads):
    # a loss on one half must leave the other direction's weights without gradient
    for g in grads:
        assert g is None or not g.any()


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_layer_matches_per_step_oracle(reverse):
    # each direction of bilstm_layer against one LSTM run step by step; T = 1 is the
    # edge where the two directions see the same single frame
    for t in (9, 1):
        rng = np.random.default_rng(11)
        x = _rng_tensor(rng, (t, 5))
        fwd, bwd = _lstm_weights(rng, 5, 4)
        mine, other = (bwd, fwd) if reverse else (fwd, bwd)
        weight = _rng_tensor(rng, (t, 4))
        _assert_same_values_and_grads(
            lambda: _direction(ad.bilstm_layer(x, fwd, bwd), reverse),
            lambda: _lstm_steps_oracle(x, *mine, reverse=reverse),
            [x, *mine], weight)
        _assert_other_direction_untouched(grads_of(
            lambda: ad.reduce_sum(ad.mul(_direction(ad.bilstm_layer(x, fwd, bwd), reverse),
                                         weight)), other))


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_layer_batch_rows_match_single_rows(reverse):
    # a reverse row starts at its own last valid frame, not at the padded end
    rng = np.random.default_rng(12)
    lengths = np.array([6, 2, 4, 1])
    x = _rng_tensor(rng, (4, 6, 5))
    fwd, bwd = _lstm_weights(rng, 5, 4)
    mine = bwd if reverse else fwd
    batched = ad.bilstm_layer(x, fwd, bwd, lengths=lengths).values
    assert batched.shape == (4, 6, 8)
    half = slice(4, 8) if reverse else slice(0, 4)
    for row, n in enumerate(lengths):
        alone = ad.bilstm_layer(Tensor(x.values[row, :n]), fwd, bwd).values
        np.testing.assert_allclose(batched[row, :n, half], alone[:, half], rtol=1e-12,
                                   atol=1e-15)
    # the padded batch's gradients are each row's single-utterance gradients, summed
    weight = _rng_tensor(rng, (4, 6, 4))
    weight.values *= (np.arange(6) < lengths[:, None])[..., None]

    def loss(xs, w):
        return lambda: ad.reduce_sum(ad.mul(_direction(ad.bilstm_layer(
            xs, fwd, bwd, lengths if xs is x else None), reverse), w))

    batch_grads = grads_of(loss(x, weight), [x, *mine])
    row_grads = []
    for row, n in enumerate(lengths):
        xr, wr = Tensor(x.values[row, :n]), Tensor(weight.values[row, :n])
        row_grads.append(grads_of(loss(xr, wr), [xr, *mine]))
    for row, n in enumerate(lengths):
        np.testing.assert_allclose(batch_grads[0][row, :n], row_grads[row][0], rtol=1e-12, atol=1e-15)
        assert not batch_grads[0][row, n:].any()
    for k in range(1, 4):
        np.testing.assert_allclose(batch_grads[k], sum(g[k] for g in row_grads), rtol=1e-12,
                                   atol=1e-14)


def _layer_norm_oracle(x, gain=None, bias=None):
    """The composition `layer_norm` replaces, with (var + eps)**-0.5 as exp(-log(.) / 2)."""
    m = ad.reduce_mean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, m)
    var = ad.reduce_mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    shifted = ad.add(var, Tensor(np.asarray(ad.LN_EPS, dtype=x.dtype)))
    inv = exp(ad.mul(log(shifted), Tensor(np.asarray(-0.5, dtype=x.dtype))))
    out = ad.mul(centered, inv)
    if gain is not None:
        out = ad.mul(out, gain)
    if bias is not None:
        out = ad.add(out, bias)
    return out


@pytest.mark.parametrize("affine", [True, False])
def test_layer_norm_matches_composition(affine):
    rng = np.random.default_rng(15)
    x = _rng_tensor(rng, (2, 5, 6), scale=3.0)
    gain, bias = (_rng_tensor(rng, (6,)) for _ in range(2)) if affine else (None, None)
    params = [x] + ([gain, bias] if affine else [])
    _assert_same_values_and_grads(lambda: ad.layer_norm(x, gain, bias),
                                  lambda: _layer_norm_oracle(x, gain, bias),
                                  params, _rng_tensor(rng, (2, 5, 6)))
    with pytest.raises(ad.ShapeError, match="layer_norm"):
        ad.layer_norm(x, _rng_tensor(rng, (5,)))


def _heads_oracle(q, k, v, n_heads):
    """Per-head attention from narrow, transpose and concat: what split/merge heads replace."""
    d = q.shape[-1] // n_heads
    last = q.ndim - 1
    outs = []
    for h in range(n_heads):
        qh, kh, vh = (ad.narrow(a, last, h * d, d) for a in (q, k, v))
        outs.append(ad.matmul(ad.softmax(ad.matmul(qh, ad.transpose(kh)), axis=-1), vh))
    return ad.concat(outs, axis=last)


def _heads_batched(q, k, v, n_heads):
    q, k, v = (ad.split_heads(a, n_heads) for a in (q, k, v))
    return ad.merge_heads(ad.matmul(ad.softmax(ad.matmul(q, ad.transpose(k)), axis=-1), v))


@pytest.mark.parametrize("shape", [(2, 5, 6), (5, 6)])
def test_heads_on_a_batch_axis_match_per_head_composition(shape):
    rng = np.random.default_rng(16)
    q, k, v = (_rng_tensor(rng, shape) for _ in range(3))
    assert ad.split_heads(q, 3).shape == shape[:-2] + (3, 5, 2)
    _assert_same_values_and_grads(lambda: _heads_batched(q, k, v, 3),
                                  lambda: _heads_oracle(q, k, v, 3),
                                  [q, k, v], _rng_tensor(rng, shape))
    with pytest.raises(ad.ShapeError, match="split_heads"):
        ad.split_heads(q, 4)
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.split_heads(q, 3), ad.split_heads(k, 2))


def test_cross_entropy_rows_is_mean_of_single_rows():
    logits = np.random.default_rng(14).normal(size=(3, 5))
    labels = np.array([4, 0, 2])
    rows = ad.cross_entropy(t64(logits), labels).item()
    singles = [ad.cross_entropy(t64(lg), int(lb)).item() for lg, lb in zip(logits, labels)]
    assert rows == pytest.approx(np.mean(singles), rel=1e-12)
    with pytest.raises(ad.ShapeError, match="cross_entropy"):
        ad.cross_entropy(t64(logits), 1)


def test_first_gradient_is_a_private_copy():
    # add hands one upstream array to both inputs; each .grad must own its copy
    a = t64([1.0, -2.0, 3.0])
    with Tape() as tape:
        out = ad.add(a, a)
        loss = ad.reduce_sum(ad.mul(out, t64([1.0, 2.0, 3.0])))
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad, [2.0, 4.0, 6.0])
    np.testing.assert_array_equal(out.grad, [1.0, 2.0, 3.0])

    # one output feeding two consumers accumulates both contributions
    x = t64([0.5, 1.5])
    with Tape() as tape:
        y = tanh(x)
        loss = ad.add(ad.reduce_sum(ad.mul(y, t64([2.0, 2.0]))), ad.reduce_sum(exp(y)))
    tape.backward(loss)
    expected_y = 2.0 + np.exp(np.tanh(x.values))
    np.testing.assert_allclose(y.grad, expected_y, rtol=1e-15)
    np.testing.assert_allclose(x.grad, expected_y * (1.0 - np.tanh(x.values) ** 2), rtol=1e-15)


def test_bilstm_layer_records_one_node_and_checks_shapes():
    rng = np.random.default_rng(13)
    x = _rng_tensor(rng, (6, 3))
    fwd, bwd = _lstm_weights(rng, 3, 2)
    with Tape() as tape:
        out = ad.bilstm_layer(x, fwd, bwd)
    assert len(tape) == 1 and out.shape == (6, 4)
    with pytest.raises(ad.ShapeError, match="bilstm_layer"):
        ad.bilstm_layer(x, fwd, [bwd[0], _rng_tensor(rng, (3, 8)), bwd[2]])
    with pytest.raises(ad.ShapeError, match="bilstm_layer"):
        ad.bilstm_layer(Tensor(x.values[None]), fwd, bwd, lengths=[7])
    # a condition row needs wx rows for it, and one row per sequence
    with pytest.raises(ad.ShapeError, match="bilstm_layer"):
        ad.bilstm_layer(x, fwd, bwd, cond=_rng_tensor(rng, (2,)))
    cfwd, cbwd = _lstm_weights(rng, 5, 2)
    assert ad.bilstm_layer(x, cfwd, cbwd, cond=_rng_tensor(rng, (2,))).shape == (6, 4)
    for bad in ((1, 2), (3,), ()):
        with pytest.raises(ad.ShapeError, match="bilstm_layer"):
            ad.bilstm_layer(x, cfwd, cbwd, cond=_rng_tensor(rng, bad))


@pytest.mark.parametrize("shape, lengths", [((3, 5, 4), [5, 2, 3]), ((1, 4), None)])
def test_bilstm_layer_backward_leaves_what_the_caller_holds_unchanged(shape, lengths):
    # backward writes dZ over the gates it saved, never over its output or inputs
    rng = np.random.default_rng(17)
    x = _rng_tensor(rng, shape)
    cond = _rng_tensor(rng, shape[:-2] + (2,))
    fwd, bwd = _lstm_weights(rng, 6, 3)
    with Tape() as tape:
        out = ad.bilstm_layer(x, fwd, bwd, lengths=lengths, cond=cond)
        loss = ad.reduce_sum(ad.mul(out, _rng_tensor(rng, out.shape)))
    held = [a.values.copy() for a in (out, x, cond, *fwd, *bwd)]
    tape.backward(loss)
    for before, a in zip(held, (out, x, cond, *fwd, *bwd)):
        np.testing.assert_array_equal(a.values, before)
    np.testing.assert_array_equal(
        out.values, ad.bilstm_layer(x, fwd, bwd, lengths=lengths, cond=cond).values)


def test_stop_gradient_blocks_flow():
    x = t64([1.0, 2.0])
    (g,) = grads_of(lambda: ad.reduce_sum(ad.mul(ad.detach(x), x)), [x])
    np.testing.assert_allclose(g, [1.0, 2.0])  # only the live branch contributes


def test_detach_outside_the_oracle_is_the_values_and_records_nothing():
    x = t64([1.0, 2.0])
    with Tape() as tape:
        assert ad.detach(x) is x.values
    assert len(tape) == 0


def test_check_gradients_replays_the_detached_values():
    # f(x) = sum(x * x0): the replays read x0 at the check point, so the
    # numeric gradient is x0 (not 2 x0) and matches the tape's
    x = t64([1.0, -2.0, 0.5])
    report = ad.check_gradients(lambda: ad.reduce_sum(ad.mul(x, ad.detach(x))), {"x": x})
    assert report.max_rel_err < 1e-9
    np.testing.assert_array_equal(x.values, [1.0, -2.0, 0.5])


@pytest.mark.parametrize("extra", [1, -1])
def test_check_gradients_rejects_a_replay_that_detaches_differently(extra):
    x = t64([1.0, 2.0])
    calls = []

    def fn():
        calls.append(None)
        n = 2 + (extra if len(calls) > 1 else 0)   # replays detach one more or one fewer
        return ad.reduce_sum(ad.mul(x, sum(ad.detach(x) for _ in range(n))))

    with pytest.raises(RuntimeError, match="check_gradients"):
        ad.check_gradients(fn, {"x": x})


@pytest.mark.parametrize("failing_call", [1, 2, 4])
def test_an_error_in_the_checked_function_leaves_no_oracle_state(failing_call):
    # call 1 records, the later ones replay
    x = t64([1.0, 2.0])
    calls = []

    def fn():
        calls.append(None)
        if len(calls) == failing_call:
            raise KeyError("boom")
        return ad.reduce_sum(ad.mul(x, ad.detach(x)))

    with pytest.raises(KeyError):
        ad.check_gradients(fn, {"x": x})
    np.testing.assert_array_equal(x.values, [1.0, 2.0])
    assert ad._STATE.frozen is None and ad._STATE.cursor is None
    assert getattr(ad._STATE, "tape", None) is None
    assert ad.detach(x) is x.values


def test_tape_determinism():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
        with Tape() as tape:
            loss = ad.reduce_sum(tanh(ad.matmul(x, w)))
        ad.zero_grads([x, w])
        tape.backward(loss)
        return x.grad.copy(), w.grad.copy()

    g1 = run()
    g2 = run()
    assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


def test_backward_releases_what_only_the_tape_holds():
    rng = np.random.default_rng(8)
    x0 = t64(rng.normal(size=(5, 3)))
    w = t64(rng.normal(size=(3, 4)))
    freed_with_nodes_left = []
    with Tape() as tape:
        x = ad.mul(x0, t64(2.0))
        z = ad.matmul(x, w)
        h = tanh(z)   # tanh saves its output array for backward
        saved = weakref.ref(h.values, lambda _: freed_with_nodes_left.append(len(tape)))
        y = ad.mul(h, h)
        loss = ad.reduce_sum(y)
    h_values = h.values.copy()
    del h
    tape.backward(loss)
    # freed while backward still had nodes to replay, not when it returned
    assert saved() is None
    assert freed_with_nodes_left and freed_with_nodes_left[0] > 0
    assert len(tape) == 0
    # tensors the caller holds keep their gradients
    np.testing.assert_array_equal(y.grad, np.ones_like(y.values))
    np.testing.assert_allclose(z.grad, 2.0 * h_values * (1.0 - h_values**2))
    np.testing.assert_allclose(w.grad, x.values.T @ z.grad)
    np.testing.assert_allclose(x0.grad, 2.0 * (z.grad @ w.values.T))


def test_second_backward_on_a_replayed_tape_raises():
    x = t64([1.0, -2.0, 3.0])
    with Tape() as tape:
        loss = ad.reduce_sum(ad.mul(x, x))
    tape.backward(loss)
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="already replayed"):
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def _live_grad(call, args, live, upstream):
    with Tape() as tape:
        loss = ad.reduce_sum(ad.mul(call(*args), upstream))
    live.grad = None
    tape.backward(loss)
    return live.grad


@pytest.mark.parametrize("op, array_side", [
    ("add", 0), ("add", 1), ("sub", 0), ("sub", 1), ("mul", 0), ("mul", 1), ("conv1d", 0),
])
def test_an_array_operand_leaves_the_tensor_gradient_bit_equal(op, array_side):
    rng = np.random.default_rng(21)
    if op == "conv1d":
        const = rng.normal(size=(2, 7, 3)).astype(np.float32)
        live = Tensor(rng.normal(size=(3, 3, 4)).astype(np.float32))
        upstream = rng.normal(size=(2, 4, 4)).astype(np.float32)

        def call(x, w):
            return ad.conv1d(x, w, stride=2, padding=1)
    else:
        # the Tensor side broadcasts, so its gradient is a sum over the array's rows
        const = rng.normal(size=(2, 5, 3)).astype(np.float32)
        live = Tensor(rng.normal(size=(3,)).astype(np.float32))
        upstream = rng.normal(size=(2, 5, 3)).astype(np.float32)
        call = getattr(ad, op)
    before = const.copy()
    with_array = [live, live]
    with_array[array_side] = const
    wrapped = Tensor(const.copy())
    with_tensor = [live, live]
    with_tensor[array_side] = wrapped
    got = _live_grad(call, with_array, live, upstream)
    want = _live_grad(call, with_tensor, live, upstream)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want)
    assert wrapped.grad is not None   # the wrapped constant did get one
    np.testing.assert_array_equal(const, before)
    with Tape() as tape:
        call(*with_array)
    assert len(tape) == 1
