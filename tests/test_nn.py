"""Forward/backward pass against independent oracles.

The backward pass is checked against central finite differences, and the
forward pass against a plain scalar-loop reimplementation, so neither test
shares code with the implementation under test.  Training is checked against
a reference loop that takes each step from the public pieces.
"""

import sys
import threading

import numpy as np
import pytest

from mpfl.errors import ConfigError
from mpfl.model import Batch, ModelParams, PruneMask, init_params
from mpfl.nn import accuracy, backward, forward, predict, train_sgd
from mpfl.pruning import apply_mask

from conftest import make_arch, make_model, random_mask, same_params, zero_group_mask


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


def one_step(model, x, y, lr, mask=None):
    """A single SGD step of train_sgd on a copy of ``model``: one epoch, one
    batch holding every row, under ``mask`` or else the all-kept mask.
    Returns the stepped copy and the loss."""
    stepped = model.copy()
    loss = train_sgd(stepped, x, y, lr=lr, epochs=1, batch_size=len(x),
                     rng=np.random.default_rng(0),
                     mask=PruneMask.ones(model.arch) if mask is None else mask)
    return stepped, loss


def reference_train(model, x, y, *, lr, epochs, batch_size, rng, mask):
    """Minibatch SGD step by step: backward, w - lr * g, then apply_mask."""
    model = apply_mask(model, mask)
    if epochs == 0:
        return model, forward(model, Batch(x, y))[1]
    loss = float("nan")
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = order[start : start + batch_size]
            batch = Batch(x[idx], y[idx])
            _, loss = forward(model, batch)
            grads = backward(model, batch)
            model = ModelParams(
                model.arch,
                [w - lr * g for w, g in zip(model.weights, grads.weights)],
                [b - lr * g for b, g in zip(model.biases, grads.biases)],
            )
            model = apply_mask(model, mask)
    return model, loss


def param_bytes(model):
    return [a.tobytes() for a in model.weights + model.biases]


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
        stepped, _ = one_step(model, x, y, lr=0.05)
        _, after = forward(stepped, batch)
        assert after < before


class TestSgd:
    def test_zero_lr_is_identity(self, tiny_model, rng):
        x = rng.normal(size=(4, 4))
        y = rng.integers(0, 3, size=4)
        stepped, _ = one_step(tiny_model, x, y, lr=0.0)
        assert param_bytes(stepped) == param_bytes(tiny_model)

    def test_masked_step_keeps_pruned_groups_zero(self, tiny_arch, rng):
        model = make_model(tiny_arch, seed=6)
        mask = random_mask(tiny_arch, rng)
        model = apply_mask(model, mask)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        stepped, _ = one_step(model, x, y, lr=0.1, mask=mask)
        for li, keep in enumerate(mask.layers):
            dead = ~keep
            np.testing.assert_array_equal(stepped.weights[li][dead], 0.0)
            np.testing.assert_array_equal(stepped.biases[li][dead], 0.0)

    def test_masked_matches_manual(self, tiny_model, tiny_arch, rng):
        """The step starts from the masked model: (w - lr * g(masked w)) * keep."""
        mask = random_mask(tiny_arch, rng)
        x = rng.normal(size=(4, 4))
        y = rng.integers(0, 3, size=4)
        masked = apply_mask(tiny_model, mask)
        grads = backward(masked, Batch(x=x, y=y))
        got, _ = one_step(tiny_model, x, y, lr=0.2, mask=mask)
        for li, keep in enumerate(mask.layers):
            want_w = (masked.weights[li] - 0.2 * grads.weights[li]) * keep[:, None]
            want_b = (masked.biases[li] - 0.2 * grads.biases[li]) * keep
            np.testing.assert_allclose(got.weights[li], want_w)
            np.testing.assert_allclose(got.biases[li], want_b)

    @pytest.mark.parametrize(
        "kwargs",
        [{"lr": -0.1}, {"epochs": -1}, {"batch_size": 0}],
        ids=["negative_lr", "negative_epochs", "zero_batch"],
    )
    def test_bad_settings_rejected(self, tiny_model, rng, kwargs):
        x = rng.normal(size=(4, 4))
        y = rng.integers(0, 3, size=4)
        settings = {"lr": 0.1, "epochs": 1, "batch_size": 4, **kwargs}
        with pytest.raises(ConfigError):
            train_sgd(tiny_model, x, y, rng=rng, mask=PruneMask.ones(tiny_model.arch), **settings)

    @pytest.mark.parametrize("features, label", [(5, 0), (4, 3), (4, -1)],
                             ids=["features", "label_high", "label_negative"])
    def test_bad_inputs_rejected(self, tiny_model, rng, features, label):
        x = rng.normal(size=(6, features))
        y = np.zeros(6, dtype=int)
        y[-1] = label
        with pytest.raises(ConfigError):
            train_sgd(tiny_model, x, y, lr=0.1, epochs=1, batch_size=4, rng=rng,
                      mask=PruneMask.ones(tiny_model.arch))


def _mask_pruning_output(arch, rng):
    mask = random_mask(arch, rng)
    mask.layers[-1][1] = False
    return mask


def _mask_keep_all(arch, rng):
    return PruneMask.ones(arch)


def _mask_dead_hidden(arch, rng):
    """Every group of the first hidden layer pruned, as min_keep=0 allows."""
    mask = random_mask(arch, rng)
    mask.layers[0][:] = False
    return mask


def _mask_prunes_every_layer(arch, rng):
    """40% of each hidden layer's groups pruned, and one output group."""
    mask = PruneMask.ones(arch)
    for bits in mask.layers[:-1]:
        bits[rng.permutation(bits.size)[: round(0.4 * bits.size)]] = False
    mask.layers[-1][1] = False
    return mask


# dims, rows, batch_size, epochs, mask maker; BLAS kernels differ by shape, so
# the benchmark's 64-512-10 layout is a case of its own
EXACT_CASES = {
    "bench_layout": ((64, 512, 10), 200, 64, 2, _mask_prunes_every_layer),
    "two_hidden_every_layer_pruned": ((32, 96, 64, 10), 100, 32, 2, _mask_prunes_every_layer),
    "no_mask": ((6, 10, 3), 48, 16, 2, _mask_keep_all),
    "mask_prunes_output": ((6, 10, 3), 48, 16, 2, _mask_pruning_output),
    "two_hidden": ((6, 10, 8, 3), 48, 16, 2, _mask_pruning_output),
    "two_hidden_no_mask": ((6, 10, 8, 3), 48, 16, 2, _mask_keep_all),
    "ragged_last_batch": ((6, 10, 3), 50, 16, 3, random_mask),
    "dead_hidden_layer": ((6, 10, 8, 3), 48, 16, 2, _mask_dead_hidden),
    "epochs_0": ((6, 10, 3), 48, 16, 0, random_mask),
    "epochs_0_no_mask": ((6, 10, 3), 48, 16, 0, _mask_keep_all),
}


class TestTrainExact:
    """train_sgd equals the step-by-step reference bit for bit."""

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_matches_reference_loop(self, case):
        dims, rows, batch_size, epochs, make_mask = EXACT_CASES[case]
        data = np.random.default_rng(21)
        arch = make_arch(*dims)
        model = make_model(arch, seed=8)
        mask = make_mask(arch, data)
        x = data.normal(size=(rows, dims[0]))
        y = data.integers(0, dims[-1], size=rows)
        settings = dict(lr=0.3, epochs=epochs, batch_size=batch_size, mask=mask)

        want, want_loss = reference_train(model, x, y, rng=np.random.default_rng(5), **settings)
        arrays = model.weights + model.biases
        got_loss = train_sgd(model, x, y, rng=np.random.default_rng(5), **settings)
        # trained in place: the model keeps its arrays, and they hold the result
        assert all(a is b for a, b in zip(model.weights + model.biases, arrays))
        assert param_bytes(model) == param_bytes(want)
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
        assert np.isfinite(got_loss)


def _train_case(seed):
    """A 16-128-64-4 model, shard and mask from ``seed``: a function that trains
    a copy and returns its bytes, and the bytes ``reference_train`` gives."""
    data = np.random.default_rng(seed)
    arch = make_arch(16, 128, 64, 4)
    model = make_model(arch, seed=seed)
    x = data.normal(size=(300, 16))
    y = data.integers(0, 4, size=300)
    settings = dict(lr=0.1, epochs=2, batch_size=32, mask=_mask_prunes_every_layer(arch, data))
    want, _ = reference_train(model, x, y, rng=np.random.default_rng(seed), **settings)

    def train():
        got = model.copy()
        train_sgd(got, x, y, rng=np.random.default_rng(seed), **settings)
        return param_bytes(got)

    return train, param_bytes(want)


class TestTrainKeepsNoState:
    """Each train_sgd call owns its buffers, so calls cannot leak into each
    other: not back to back, and not on threads at once, as TCP nodes train."""

    def test_back_to_back(self):
        cases = [_train_case(seed) for seed in (31, 32)]
        for train, want in cases + cases:
            assert train() == want

    def test_concurrent_threads(self):
        cases = [_train_case(seed) for seed in (31, 32)] * 2  # more threads than cores
        got = [None] * len(cases)
        start = threading.Barrier(len(cases))

        def worker(i):
            start.wait()
            got[i] = cases[i][0]()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want for _, want in cases]


class TestTrain:
    def test_loss_drops_on_separable_data(self, rng):
        from mpfl.data import make_blobs

        ds = make_blobs(200, 8, 3, rng, cluster_std=0.5)
        arch = make_arch(8, 16, 3)
        model = make_model(arch, seed=11)
        _, start = forward(model, Batch(x=ds.x, y=ds.y))
        last = train_sgd(
            model, ds.x, ds.y, lr=0.2, epochs=10, batch_size=32, rng=np.random.default_rng(1),
            mask=PruneMask.ones(arch),
        )
        assert last < start / 2
        assert accuracy(model, ds.x, ds.y) > 0.9

    def test_deterministic_given_seed(self, rng):
        from mpfl.data import make_blobs

        ds = make_blobs(100, 5, 2, rng)
        arch = make_arch(5, 8, 2)
        model = make_model(arch, seed=13)
        a, b = model.copy(), model.copy()
        ones = PruneMask.ones(arch)
        train_sgd(a, ds.x, ds.y, lr=0.1, epochs=3, batch_size=16, rng=np.random.default_rng(42),
                  mask=ones)
        train_sgd(b, ds.x, ds.y, lr=0.1, epochs=3, batch_size=16, rng=np.random.default_rng(42),
                  mask=ones)
        assert same_params(a, b)

    def test_mask_survives_training(self, rng):
        from mpfl.data import make_blobs

        ds = make_blobs(120, 6, 3, rng)
        arch = make_arch(6, 12, 3)
        model = make_model(arch, seed=17)
        mask = random_mask(arch, np.random.default_rng(3))
        train_sgd(model, ds.x, ds.y, lr=0.1, epochs=4, batch_size=16,
                  rng=np.random.default_rng(5), mask=mask)
        assert zero_group_mask(model).issubset(mask)


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
