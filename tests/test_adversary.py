import numpy as np
import pytest

from vcaug import adversary as adv
from vcaug import autodiff as ad
from vcaug.autodiff import Tape, Tensor


def make_head(in_dim=4, n_speakers=4, hidden=8):
    """float64 weights drawn as `VcModel` draws them (seed 1), zero biases."""
    return adv.AdversaryHead(
        Tensor(ad.uniform_init((in_dim, hidden), in_dim, "adv.w1", 1, np.float64)),
        Tensor(np.zeros(hidden)),
        Tensor(ad.uniform_init((hidden, n_speakers), hidden, "adv.w2", 1, np.float64)),
        Tensor(np.zeros(n_speakers)),
    )


def head_tensors(head):
    return {"w1": head.w1, "b1": head.b1, "w2": head.w2, "b2": head.b2}


def test_uniform_logits_loss_is_log_s():
    head = make_head()
    head.w2.values[:] = 0.0  # forces identical logits
    head.b2.values[:] = 0.0
    x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
    loss = ad.cross_entropy(head.logits(x, 0.3), 2)
    assert loss.item() == pytest.approx(np.log(4.0))


def test_confident_head_loss_near_zero():
    head = make_head()
    head.w1.values[:] = 0.0
    head.w2.values[:] = 0.0
    head.b1.values[:] = 0.0
    head.b2.values[:] = -100.0
    head.b2.values[1] = 100.0
    x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
    loss = ad.cross_entropy(head.logits(x, 1.0), 1)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_invalid_label_rejected():
    head = make_head()
    with pytest.raises(ValueError):
        ad.cross_entropy(head.logits(Tensor(np.zeros((2, 4))), 0.5), 7)


@pytest.mark.parametrize("weight", [0.0, 0.1, 1.0, 2.5])
def test_loss_value_invariant_under_weight(weight):
    head = make_head()
    x = Tensor(np.random.default_rng(2).normal(size=(6, 4)))
    base = ad.cross_entropy(head.logits(x, 0.0), 1).item()
    assert ad.cross_entropy(head.logits(x, weight), 1).item() == base


def grad_wrt_input(head, x_values, weight):
    x = Tensor(x_values.copy())
    with Tape() as tape:
        loss = ad.cross_entropy(head.logits(x, weight), 1)
    ad.zero_grads([x] + list(head_tensors(head).values()))
    tape.backward(loss)
    return np.zeros_like(x_values) if x.grad is None else x.grad.copy()


@pytest.mark.parametrize("weight", [0.0, 0.1, 1.0])
def test_input_gradient_scales_by_minus_weight(weight):
    head = make_head()
    x_values = np.random.default_rng(3).normal(size=(5, 4))
    unreversed = grad_wrt_input(head, x_values, -0.0)  # weight 0 kills the path
    # recover the unreversed gradient via weight -(-1): use weight 1 and negate
    g_unit = grad_wrt_input(head, x_values, 1.0)
    g = grad_wrt_input(head, x_values, weight)
    np.testing.assert_allclose(g, weight * g_unit, rtol=1e-12, atol=1e-15)
    assert np.allclose(unreversed, 0.0)


def test_input_gradient_matches_fd_of_unreversed_loss():
    # encoder-side gradient == -weight * FD gradient of the plain classifier loss
    head = make_head()
    x_values = np.random.default_rng(4).normal(size=(4, 4))
    weight = 0.7

    def plain_loss(u):
        pooled = u.mean(axis=0, keepdims=True)
        h = np.maximum(pooled @ head.w1.values + head.b1.values, 0.0)
        logits = (h @ head.w2.values + head.b2.values).reshape(-1)
        shifted = logits - logits.max()
        return float(np.log(np.exp(shifted).sum()) - shifted[1])

    eps = 1e-6
    fd = np.zeros_like(x_values)
    flat_x = x_values.reshape(-1)
    flat_fd = fd.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        fp = plain_loss(x_values)
        flat_x[i] = orig - eps
        fm = plain_loss(x_values)
        flat_x[i] = orig
        flat_fd[i] = (fp - fm) / (2 * eps)

    g = grad_wrt_input(head, x_values, weight)
    np.testing.assert_allclose(g, -weight * fd, rtol=1e-5, atol=1e-9)


def test_head_parameters_get_unreversed_gradients():
    # the classifier itself must keep learning regardless of the reversal weight
    head = make_head()
    x = Tensor(np.random.default_rng(5).normal(size=(5, 4)))
    grads = {}
    for weight in (0.0, 1.0):
        with Tape() as tape:
            loss = ad.cross_entropy(head.logits(x, weight), 1)
        ad.zero_grads(head_tensors(head).values())
        tape.backward(loss)
        grads[weight] = {k: v.grad.copy() for k, v in head_tensors(head).items()}
    for k in grads[0.0]:
        np.testing.assert_array_equal(grads[0.0][k], grads[1.0][k])
    assert any(np.abs(g).sum() > 0 for g in grads[0.0].values())


def test_speaker_accuracy_all_correct():
    logits = np.eye(4) * 5.0
    assert adv.speaker_accuracy(logits, [0, 1, 2, 3]) == 1.0


def test_speaker_accuracy_tie_goes_to_class_zero():
    logits = np.zeros((8, 4))
    labels = np.array([0, 0, 0, 1, 1, 2, 3, 3])
    assert adv.speaker_accuracy(logits, labels) == pytest.approx(3 / 8)


def test_speaker_accuracy_empty_batch_rejected():
    with pytest.raises(ValueError):
        adv.speaker_accuracy(np.zeros((0, 4)), [])


def test_random_logits_accuracy_near_chance():
    rng = np.random.default_rng(6)
    n, s = 10_000, 5
    logits = rng.normal(size=(n, s))
    labels = rng.integers(0, s, size=n)
    acc = adv.speaker_accuracy(logits, labels)
    sigma = np.sqrt((1 / s) * (1 - 1 / s) / n)
    assert abs(acc - 1 / s) <= 3 * sigma
