import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcaug import autodiff as ad
from vcaug import bottleneck as bn
from vcaug import model as vm
from vcaug.autodiff import Tape, Tensor

from conftest import toy_config, toy_mel


def make_codebook(dim=4, n_groups=2, n_entries=8, seed=0):
    """float64 tables drawn in turn from one stream, as `VcModel` draws them."""
    rng = np.random.default_rng(seed)
    return bn.Codebook([Tensor(rng.uniform(-1.0, 1.0, size=(n_entries, dim // n_groups)))
                        for _ in range(n_groups)])


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
    cb.groups[0].values[...] = [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 5.0]]
    qr = bn.quantize(Tensor(np.zeros((3, 2))), cb)
    # entries 0, 1, 2 are equidistant from the origin; 0 wins every time
    np.testing.assert_array_equal(qr.indices[:, 0], [0, 0, 0])


def test_loss_values_all_ones_difference():
    cb = make_codebook(dim=4, n_groups=1, n_entries=2)
    cb.groups[0].values[...] = 0.0
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


def test_quantize_rejects_wrong_shapes():
    cb = make_codebook()
    rng = np.random.default_rng(6)
    for shape in ((4, 3), (4,), (1, 2, 4, 4)):
        with pytest.raises(ad.ShapeError, match="quantize"):
            bn.quantize(Tensor(rng.normal(size=shape)), cb)


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


def per_group_quantize(z_e, codebook, commitment_weight, lengths=None):
    """Reference: one narrow, search, lookup, straight-through part and pair
    of loss chains per group, summed and scaled at the end."""
    gd, last = codebook.group_dim, z_e.ndim - 1
    parts, idx_cols, cb_terms, cm_terms = [], [], [], []
    for g, table in enumerate(codebook.groups):
        zg = ad.narrow(z_e, last, g * gd, gd)
        idx = bn.nearest_entries(ad.detach(zg).reshape(-1, gd), ad.detach(table))
        idx = idx.reshape(zg.shape[:-1])
        idx_cols.append(idx)
        e_sel = ad.embedding_lookup(table, idx)
        parts.append(ad.straight_through(zg, e_sel))
        for a, b, terms in ((ad.detach(zg), e_sel, cb_terms), (zg, ad.detach(e_sel), cm_terms)):
            diff = ad.sub(a, b)
            terms.append(ad.row_mean(ad.reduce_sum(ad.mul(diff, diff), axis=last), lengths))

    def weighted_sum(terms, scale):
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        return ad.mul(total, np.asarray(scale))

    indices = np.stack(idx_cols, axis=-1)
    mask = ad.length_mask(lengths, z_e.shape[-2], bool)
    scale = 1.0 / codebook.n_groups
    return bn.QuantizeResult(
        z_q=ad.concat(parts, axis=last),
        indices=indices.reshape(-1, codebook.n_groups) if mask is None else indices[mask],
        codebook_loss=weighted_sum(cb_terms, scale),
        commit_loss=weighted_sum(cm_terms, scale * commitment_weight),
    )


def live_quantize(z_e, codebook, commitment_weight, lengths=None):
    return bn.quantize(z_e, codebook, commitment_weight=commitment_weight, lengths=lengths)


def mixed_loss(qr):
    """A mix of z_q and both losses that every output feeds."""
    probe = np.random.default_rng(9).normal(size=qr.z_q.shape)
    return ad.add(ad.reduce_sum(ad.mul(qr.z_q, probe)),
                  ad.add(ad.mul(qr.codebook_loss, np.asarray(0.7)),
                         ad.mul(qr.commit_loss, np.asarray(1.9))))


def quantize_through_encoder(model, quantize_fn, values, lengths):
    """Encode, quantize and backpropagate `mixed_loss`."""
    with Tape() as tape:
        z_e = model.encode(values, lengths)
        qr = quantize_fn(z_e, model.codebook, 0.3, vm._encoded_lengths(lengths))
        loss = mixed_loss(qr)
    ad.zero_grads(model.params.values())
    tape.backward(loss)
    grads = {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}
    return qr, grads


def assert_same_quantize(qr, ref):
    np.testing.assert_array_equal(qr.z_q.values, ref.z_q.values)
    np.testing.assert_array_equal(qr.indices, ref.indices)
    for name in ("codebook_loss", "commit_loss"):
        a, b = getattr(qr, name).item(), getattr(ref, name).item()
        assert b > 0 and abs(a - b) <= 1e-12 * b, name


@pytest.mark.parametrize("case", ["unbatched", "pinned", "padded"])
def test_whole_vector_quantize_matches_per_group_composition(case):
    model = vm.VcModel(toy_config(seed=4), dtype=np.float64)
    mels = [toy_mel(t=t, seed=30 + i) for i, t in enumerate((12, 7, 5, 9))]
    values, lengths = mels[0], None
    if case == "padded":
        values, lengths = vm.pad_batch(mels)
    if case == "pinned":
        # in check_gradients' replays the selection and every detached
        # operand stay pinned at the check point while the parameters move;
        # both forms must replay the same function
        pairs = []

        def fn():
            z_e = model.encode(values)
            qr = live_quantize(z_e, model.codebook, 0.3)
            pairs.append((qr, per_group_quantize(z_e, model.codebook, 0.3)))
            return mixed_loss(qr)

        params = {k: model.params[k] for k in ("vq.group0.codebook", "vq.group1.codebook",
                                                "enc.block0.ff.w2")}
        report = ad.check_gradients(fn, params, eps=1e-5, sample_per_param=3)
        assert report.ok(1e-4), report.per_param
        assert len(pairs) == 1 + 2 * 3 * len(params)
        for qr, ref in pairs:
            assert_same_quantize(qr, ref)
        return

    qr, grads = quantize_through_encoder(model, live_quantize, values, lengths)
    ref, ref_grads = quantize_through_encoder(model, per_group_quantize, values, lengths)
    assert_same_quantize(qr, ref)
    assert grads.keys() == ref_grads.keys()
    assert any(k.startswith("vq.") for k in grads) and any(k.startswith("enc.") for k in grads)
    for name, g in grads.items():
        scale = max(np.abs(ref_grads[name]).max(), 1e-300)
        assert np.abs(g - ref_grads[name]).max() <= 1e-12 * scale, name


def test_select_records_one_lookup_per_group_and_a_concat():
    cb = make_codebook(dim=6, n_groups=3)
    z = Tensor(np.random.default_rng(10).normal(size=(2, 5, 6)))
    with Tape() as tape:
        e, indices = bn.select(z, cb)
    assert len(tape) == 4 and indices.shape == (2, 5, 3)
    for g, table in enumerate(cb.groups):
        np.testing.assert_array_equal(e.values[..., 2 * g : 2 * g + 2],
                                      table.values[indices[..., g]])
    with Tape() as tape:
        bn.quantize(z, cb)
    # select, straight-through, then sub, mul, sum, mean and scale per loss
    assert len(tape) == 4 + 1 + 2 * 5
