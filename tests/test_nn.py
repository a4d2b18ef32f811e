"""Forward/backward pass against independent oracles.

The backward pass is checked against central finite differences, and the
forward pass against a plain scalar-loop reimplementation, so neither test
shares code with the implementation under test.
"""

import numpy as np
import pytest

from mpfl.model import Batch, PruneMask, init_params
from mpfl.nn import accuracy, backward, forward, predict, sgd_step, train_sgd

from conftest import make_arch, make_model, random_mask, zero_group_mask


def scalar_forward(model, x, y):
    """Loop-based reference: affine, relu, affine, ..., softmax cross entropy."""
    n = x.shape[0]
    total = 0.0
    logits_out = np.zeros((n, model.arch.num_classes))
    for s in range(n):
        act = [float(v) for v in x[s]]
        for li, (w, b) in enumerate(zip(model.weights, model.biases)):
            out = []
            for i in range(w.shape[0]):
                z = float(b[i])
                for j in range(w.shape[1]):
                    z += float(w[i, j]) * act[j]
                out.append(z)
            if li < len(model.weights) - 1:
                out = [max(0.0, z) for z in out]
            act = out
        logits_out[s] = act
        m = max(act)
        lse = m + np.log(sum(np.exp(z - m) for z in act))
        total += lse - act[int(y[s])]
    return logits_out, total / n


def numeric_gradient(model, batch, h=1e-5):
    """Central finite differences over every parameter."""
    grads = model.copy()
    for arrs in (grads.weights, grads.biases):
        for a in arrs:
            a[...] = 0.0
    for which in ("weights", "biases"):
        for li, arr in enumerate(getattr(model, which)):
            garr = getattr(grads, which)[li]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                _, lp = forward(model, batch)
                arr[idx] = orig - h
                _, lm = forward(model, batch)
                arr[idx] = orig
                garr[idx] = (lp - lm) / (2 * h)
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-6)])


class TestForward:
    def test_matches_scalar_loop(self, rng):
        arch = make_arch(5, 7, 4)
        model = make_model(arch, seed=3)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 4, size=6)
        logits, loss = forward(model, Batch(x=x, y=y))
        ref_logits, ref_loss = scalar_forward(model, x, y)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-12, atol=1e-12)
        assert loss == pytest.approx(ref_loss, rel=1e-12)

    def test_zero_weights_give_log_c_loss(self, rng):
        """With all parameters zero the logits are uniform, so loss is ln(C)."""
        arch = make_arch(4, 6, 3)
        model = make_model(arch, seed=0)
        for w in model.weights:
            w[...] = 0.0
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        _, loss = forward(model, Batch(x=x, y=y))
        assert loss == pytest.approx(np.log(3.0), rel=1e-12)

    def test_loss_is_mean_over_batch(self, rng):
        arch = make_arch(3, 5, 2)
        model = make_model(arch, seed=5)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        _, full = forward(model, Batch(x=x, y=y))
        singles = [forward(model, Batch(x=x[i : i + 1], y=y[i : i + 1]))[1] for i in range(4)]
        assert full == pytest.approx(np.mean(singles), rel=1e-12)

    def test_extreme_logits_stable(self):
        arch = make_arch(1, 2)
        model = make_model(arch, seed=0)
        model.weights[0][...] = [[500.0], [-500.0]]
        _, loss = forward(model, Batch(x=np.array([[1.0]]), y=np.array([1])))
        assert np.isfinite(loss)
        assert loss == pytest.approx(1000.0, rel=1e-9)


class TestBackward:
    def test_last_bias_closed_form(self, rng):
        """d loss / d b_last = mean(softmax - onehot), direct from the chain rule."""
        arch = make_arch(4, 6, 3)
        model = make_model(arch, seed=2)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        batch = Batch(x=x, y=y)
        logits, _ = forward(model, batch)
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(3)[y]
        grads = backward(model, batch)
        np.testing.assert_allclose(grads.biases[-1], (p - onehot).mean(axis=0), rtol=1e-10)

    def test_finite_differences_small_net(self, rng):
        arch = make_arch(3, 5, 4, 2)
        model = make_model(arch, seed=7)
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)
        batch = Batch(x=x, y=y)
        grads = backward(model, batch)
        ref = numeric_gradient(model, batch)
        for g, r in zip(grads.weights + grads.biases, ref.weights + ref.biases):
            assert rel_err(g, r).max() < 1e-4

    def test_gradient_descends(self, rng):
        arch = make_arch(6, 10, 3)
        model = make_model(arch, seed=4)
        x = rng.normal(size=(32, 6))
        y = rng.integers(0, 3, size=32)
        batch = Batch(x=x, y=y)
        _, before = forward(model, batch)
        stepped = sgd_step(model, backward(model, batch), lr=0.05)
        _, after = forward(stepped, batch)
        assert after < before


class TestSgd:
    def test_zero_lr_is_identity(self, tiny_model, rng):
        x = rng.normal(size=(4, 4))
        y = rng.integers(0, 3, size=4)
        stepped = sgd_step(tiny_model, backward(tiny_model, Batch(x=x, y=y)), lr=0.0)
        assert stepped.allclose(tiny_model)

    def test_masked_step_keeps_pruned_groups_zero(self, tiny_arch, rng):
        model = make_model(tiny_arch, seed=6)
        mask = random_mask(tiny_arch, rng)
        from mpfl.pruning import apply_mask

        model = apply_mask(model, mask)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        stepped = sgd_step(model, backward(model, Batch(x=x, y=y)), lr=0.1, mask=mask)
        for li, keep in enumerate(mask.layers):
            dead = ~keep
            np.testing.assert_array_equal(stepped.weights[li][dead], 0.0)
            np.testing.assert_array_equal(stepped.biases[li][dead], 0.0)

    def test_masked_matches_manual(self, tiny_model, tiny_arch, rng):
        mask = random_mask(tiny_arch, rng)
        x = rng.normal(size=(4, 4))
        y = rng.integers(0, 3, size=4)
        grads = backward(tiny_model, Batch(x=x, y=y))
        got = sgd_step(tiny_model, grads, lr=0.2, mask=mask)
        for li, keep in enumerate(mask.layers):
            want_w = (tiny_model.weights[li] - 0.2 * grads.weights[li]) * keep[:, None]
            np.testing.assert_allclose(got.weights[li], want_w)


class TestTrain:
    def test_loss_drops_on_separable_data(self, rng):
        from mpfl.data import make_blobs

        ds = make_blobs(200, 8, 3, rng, cluster_std=0.5)
        arch = make_arch(8, 16, 3)
        model = make_model(arch, seed=11)
        _, start = forward(model, Batch(x=ds.x, y=ds.y))
        trained, last = train_sgd(
            model, ds.x, ds.y, lr=0.2, epochs=10, batch_size=32, rng=np.random.default_rng(1)
        )
        assert last < start / 2
        assert accuracy(trained, ds.x, ds.y) > 0.9

    def test_deterministic_given_seed(self, rng):
        from mpfl.data import make_blobs

        ds = make_blobs(100, 5, 2, rng)
        arch = make_arch(5, 8, 2)
        model = make_model(arch, seed=13)
        a, _ = train_sgd(model, ds.x, ds.y, lr=0.1, epochs=3, batch_size=16,
                         rng=np.random.default_rng(42))
        b, _ = train_sgd(model, ds.x, ds.y, lr=0.1, epochs=3, batch_size=16,
                         rng=np.random.default_rng(42))
        assert a.allclose(b)

    def test_mask_survives_training(self, rng):
        from mpfl.data import make_blobs

        ds = make_blobs(120, 6, 3, rng)
        arch = make_arch(6, 12, 3)
        model = make_model(arch, seed=17)
        mask = random_mask(arch, np.random.default_rng(3))
        trained, _ = train_sgd(model, ds.x, ds.y, lr=0.1, epochs=4, batch_size=16,
                               rng=np.random.default_rng(5), mask=mask)
        assert zero_group_mask(trained).issubset(mask)


class TestPredictAccuracy:
    def test_predict_argmax(self, tiny_model, rng):
        x = rng.normal(size=(6, 4))
        logits, _ = forward(tiny_model, Batch(x=x, y=np.zeros(6, dtype=int)))
        np.testing.assert_array_equal(predict(tiny_model, x), logits.argmax(axis=1))

    def test_accuracy_range(self, tiny_model, rng):
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        acc = accuracy(tiny_model, x, y)
        assert 0.0 <= acc <= 1.0
