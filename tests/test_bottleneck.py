import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcaug import autodiff as ad
from vcaug import bottleneck as bn
from vcaug.autodiff import Tape, Tensor


def make_codebook(dim=4, n_groups=2, n_entries=8, seed=0):
    return bn.Codebook(dim=dim, n_groups=n_groups, n_entries=n_entries, seed=seed, dtype=np.float64)


def test_exact_match_rows_give_zero_losses():
    cb = make_codebook()
    row = np.concatenate([cb.groups[0].values[5], cb.groups[1].values[3]])
    qr = bn.quantize(Tensor(np.asarray([row])), cb)
    np.testing.assert_array_equal(qr.indices, [[5, 3]])
    np.testing.assert_allclose(qr.z_q.values, [row])
    assert qr.codebook_loss.item() == pytest.approx(0.0, abs=1e-12)
    assert qr.commit_loss.item() == pytest.approx(0.0, abs=1e-12)


def test_indices_match_brute_force_scan():
    cb = make_codebook()
    rng = np.random.default_rng(1)
    z = rng.normal(size=(1000, 4))
    qr = bn.quantize(Tensor(z), cb)
    for g, table in enumerate(cb.groups):
        block = z[:, g * 2 : (g + 1) * 2]
        for t in range(block.shape[0]):
            dists = [np.sum((block[t] - e) ** 2) for e in table.values]
            assert qr.indices[t, g] == int(np.argmin(dists))


def test_tie_takes_lowest_index():
    cb = make_codebook(dim=2, n_groups=1, n_entries=4)
    cb.groups[0].values = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    qr = bn.quantize(Tensor(np.zeros((3, 2))), cb)
    # entries 0, 1, 2 are equidistant from the origin; 0 wins every time
    np.testing.assert_array_equal(qr.indices[:, 0], [0, 0, 0])


def test_loss_values_all_ones_difference():
    cb = make_codebook(dim=4, n_groups=1, n_entries=2)
    cb.groups[0].values = np.zeros((2, 4))
    cb.groups[0].values[1] += 100.0  # keep entry 0 the nearest
    qr = bn.quantize(Tensor(np.ones((1, 4))), cb, commitment_weight=0.25)
    assert qr.codebook_loss.item() == pytest.approx(4.0)
    assert qr.commit_loss.item() == pytest.approx(1.0)


def test_stop_gradient_placement():
    cb = make_codebook()
    z = Tensor(np.random.default_rng(2).normal(size=(6, 4)))
    params = [z] + cb.groups

    def run(which):
        with Tape() as tape:
            qr = bn.quantize(z, cb)
            loss = qr.codebook_loss if which == "codebook" else qr.commit_loss
        ad.zero_grads(params)
        tape.backward(loss)

    run("codebook")
    assert z.grad is None  # d(codebook_loss)/d(z_e) = 0
    assert any(g.grad is not None and np.abs(g.grad).sum() > 0 for g in cb.groups)

    run("commit")
    assert all(g.grad is None for g in cb.groups)  # d(commit_loss)/d(entries) = 0
    assert z.grad is not None and np.abs(z.grad).sum() > 0


def test_straight_through_passes_identity_to_encoder():
    cb = make_codebook()
    z = Tensor(np.random.default_rng(3).normal(size=(5, 4)))
    with Tape() as tape:
        qr = bn.quantize(z, cb)
        loss = ad.reduce_sum(qr.z_q)
    ad.zero_grads([z] + cb.groups)
    tape.backward(loss)
    np.testing.assert_allclose(z.grad, np.ones((5, 4)))
    assert all(g.grad is None for g in cb.groups)  # decoder path reaches no entries


def test_z_q_equals_gathered_entries_exactly():
    cb = make_codebook()
    z = np.random.default_rng(4).normal(size=(20, 4))
    qr = bn.quantize(Tensor(z), cb)
    for g, table in enumerate(cb.groups):
        np.testing.assert_array_equal(
            qr.z_q.values[:, g * 2 : (g + 1) * 2], table.values[qr.indices[:, g]]
        )


def fd_grad(f, x, eps=1e-6):
    """Central differences of a scalar numpy function, elementwise."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def test_fd_verifies_straight_through_and_loss_gradients():
    # Freeze the entry selection once, then compare tape gradients of the
    # real quantize graph against finite differences of the frozen surrogate.
    cb = make_codebook()
    z0 = np.random.default_rng(5).normal(size=(4, 4))
    qr0 = bn.quantize(Tensor(z0), cb)
    e_sel0 = qr0.z_q.values.copy()
    idx0 = qr0.indices.copy()

    z = Tensor(z0.copy())
    with Tape() as tape:
        qr = bn.quantize(z, cb)
        decoder_like = ad.reduce_sum(ad.mul(qr.z_q, qr.z_q))
    ad.zero_grads([z] + cb.groups)
    tape.backward(decoder_like)
    # identity pass-through: grad wrt z equals FD of sum((e_sel0 + u - z0)^2)
    expected = fd_grad(lambda u: float(np.sum((e_sel0 + u - z0) ** 2)), z0)
    np.testing.assert_allclose(z.grad, expected, rtol=1e-6, atol=1e-6)

    with Tape() as tape:
        qr = bn.quantize(z, cb)
    ad.zero_grads([z] + cb.groups)
    tape.backward(qr.commit_loss)

    # commit = 0.25 * mean over (frames, groups) of per-group squared norms
    def commit_val(u):
        per = 0.0
        for g in range(2):
            block = u[:, g * 2 : (g + 1) * 2] - e_sel0[:, g * 2 : (g + 1) * 2]
            per += np.mean(np.sum(block**2, axis=1))
        return 0.25 * per / 2

    expected = fd_grad(lambda u: float(commit_val(u)), z0)
    np.testing.assert_allclose(z.grad, expected, rtol=1e-5, atol=1e-7)

    with Tape() as tape:
        qr = bn.quantize(z, cb)
    ad.zero_grads([z] + cb.groups)
    tape.backward(qr.codebook_loss)

    for g, table in enumerate(cb.groups):
        def cb_val(tbl, g=g):
            block = z0[:, g * 2 : (g + 1) * 2] - tbl[idx0[:, g]]
            return float(np.mean(np.sum(block**2, axis=1))) / 2

        expected = fd_grad(cb_val, table.values.copy())
        np.testing.assert_allclose(table.grad, expected, rtol=1e-5, atol=1e-7)


def test_pinned_quantize_rejects_batched_input():
    cb = make_codebook()
    z0 = np.random.default_rng(6).normal(size=(4, 4))
    qr = bn.quantize(Tensor(z0), cb)
    sel = bn.FrozenSelection(indices=qr.indices, e_sel=qr.z_q.values, z_e=z0)
    with pytest.raises(ad.ShapeError, match="quantize"):
        bn.quantize(Tensor(np.stack([z0, z0])), cb, pinned=sel)


def test_perplexity_uniform_usage():
    assert bn.perplexity(np.ones(128)) == pytest.approx(128.0)


def test_perplexity_single_entry():
    counts = np.zeros(128)
    counts[17] = 33
    assert bn.perplexity(counts) == pytest.approx(1.0)


def test_perplexity_three_one_split():
    expected = np.exp(-(0.75 * np.log(0.75) + 0.25 * np.log(0.25)))
    assert bn.perplexity([3, 1]) == pytest.approx(expected)
    assert bn.perplexity([3, 1]) == pytest.approx(1.7548, abs=1e-4)


def test_perplexity_rejects_empty():
    with pytest.raises(ValueError):
        bn.perplexity(np.zeros(4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=128).filter(lambda c: sum(c) > 0))
def test_perplexity_bounds_and_permutation_invariance(counts):
    k = len(counts)
    p = bn.perplexity(counts)
    assert 1.0 - 1e-9 <= p <= k + 1e-9
    shuffled = list(counts)
    np.random.default_rng(0).shuffle(shuffled)
    assert bn.perplexity(shuffled) == pytest.approx(p)


def test_quantize_perplexity_in_bounds():
    cb = make_codebook()
    rng = np.random.default_rng(6)
    for _ in range(20):
        qr = bn.quantize(Tensor(rng.normal(size=(rng.integers(1, 30), 4))), cb)
        for counts in bn.usage_counts(qr.indices, cb.n_entries):
            assert 1.0 - 1e-9 <= bn.perplexity(counts) <= cb.n_entries + 1e-9


def test_init_from_outputs_uses_batch_rows():
    cb = make_codebook(dim=4, n_groups=2, n_entries=8)
    z = np.random.default_rng(7).normal(size=(10, 4))
    cb.init_from_outputs(z, np.random.default_rng(8))
    for g, table in enumerate(cb.groups):
        block = z[:, g * 2 : (g + 1) * 2]
        for entry in table.values:
            assert any(np.allclose(entry, row) for row in block)
