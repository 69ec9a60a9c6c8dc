import numpy as np
import pytest

from shapgate import network
from shapgate.errors import DataError, TrainingDivergedError


def make_batch(rng, n=8, p=4, k=2):
    onehot = np.zeros((n, k))
    onehot[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    return network.NetBatch(
        x=rng.normal(size=(n, p)),
        shap=rng.normal(size=(n, p)),
        onehot=onehot,
    )


def wire(batch, mode, cluster, seed):
    """The batch as the pipeline wires it: gate rows from shap, from the
    fixed noise vector of the given network seed, or none; one-hot or none."""
    if mode == "random":
        noise = np.random.default_rng([seed, 0xA7, 99]).standard_normal(batch.x.shape[1])
        gate = np.broadcast_to(noise, batch.x.shape)
    else:
        gate = batch.shap if mode == "shap" else None
    return network.NetBatch(x=batch.x, shap=gate, onehot=batch.onehot if cluster else None)


def plain_mlp_forward(params, X):
    """Independent minimal MLP; the attention-off network must match bit for bit."""
    z1 = X @ params.W1 + params.b1
    r1 = np.maximum(z1, 0.0)
    z2 = r1 @ params.W2 + params.b2
    r2 = np.maximum(z2, 0.0)
    logit = (r2 @ params.W3 + params.b3)[:, 0]
    return 1.0 / (1.0 + np.exp(-logit))


def finite_difference_check(params, batch, y, step=1e-5, rel_tol=1e-4):
    _, grads = network.loss_and_grads(params, batch, y)
    for name in params.trainable():
        arr = getattr(params, name)
        analytic = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + step
            up = network.loss_and_grads(params, batch, y)[0]
            arr[ix] = keep - step
            down = network.loss_and_grads(params, batch, y)[0]
            arr[ix] = keep
            numeric = (up - down) / (2 * step)
            denom = max(abs(analytic[ix]), abs(numeric), 1e-8)
            assert abs(analytic[ix] - numeric) / denom <= rel_tol, (
                f"{name}{ix}: analytic {analytic[ix]} vs numeric {numeric}"
            )


def test_attention_gate_hand_values():
    # the gated block h0[:, :p] of the forward pass is sigmoid(shap + delta) * x;
    # delta starts at zero, so the gate weight is the shap row itself
    x = np.array([[2.0, -4.0, 1.0]])
    params = network.init_params(3, network.NetConfig(), n_clusters=2)

    def gated(w):
        batch = network.NetBatch(x=x, shap=np.full((1, 3), w), onehot=[[0.0, 1.0]])
        _, cache = network._forward_full(params, batch)
        h0 = cache[1]
        assert np.array_equal(h0[:, 3:], [[0.0, 1.0]])
        return h0[:, :3]

    assert np.array_equal(gated(0.0), 0.5 * x)
    assert np.max(np.abs(gated(20.0) - x)) < 1e-8
    assert np.max(np.abs(gated(-20.0))) < 1e-8 * np.max(np.abs(x))
    with pytest.raises(DataError):
        network.NetBatch(x=x, shap=np.zeros((1, 2)))


def test_zero_params_output_half():
    rng = np.random.default_rng(1)
    batch = make_batch(rng)
    config = network.NetConfig(seed=0)
    params = network.init_params(4, config, n_clusters=2)
    for name in params.trainable():
        getattr(params, name)[...] = 0.0
    probs = network.predict(params, batch)
    assert np.all(probs == 0.5)


def test_attention_off_matches_plain_mlp_bit_for_bit():
    rng = np.random.default_rng(3)
    config = network.NetConfig(seed=7)
    params = network.init_params(5, config)
    X = rng.normal(size=(40, 5))
    ours = network.predict(params, network.NetBatch(x=X))
    theirs = plain_mlp_forward(params, X)
    assert np.array_equal(ours, theirs)


def test_gradient_check_full_architecture():
    rng = np.random.default_rng(5)
    config = network.NetConfig(seed=11)
    params = network.init_params(4, config, n_clusters=2)
    batch = make_batch(rng)
    y = rng.integers(0, 2, size=8).astype(float)
    finite_difference_check(params, batch, y)


def test_gradient_check_ten_random_draws_all_modes():
    rng = np.random.default_rng(13)
    for draw in range(10):
        mode = ("shap", "random", "off")[draw % 3]
        cluster = draw % 2 == 0
        config = network.NetConfig(seed=100 + draw, hidden_sizes=(7, 5))
        params = network.init_params(4, config, n_clusters=2 if cluster else 0)
        # move off the zero init so delta gradients are exercised
        params.delta[...] = rng.normal(size=4)
        batch = wire(make_batch(rng), mode, cluster, config.seed)
        y = rng.integers(0, 2, size=8).astype(float)
        finite_difference_check(params, batch, y)


def test_xor_training_accuracy():
    rng = np.random.default_rng(17)
    corners = rng.integers(0, 2, size=(200, 2))
    X = corners + 0.05 * rng.normal(size=(200, 2))
    y = (corners[:, 0] ^ corners[:, 1]).astype(float)
    config = network.NetConfig(step_size=1e-2, seed=19)
    batch = network.NetBatch(x=X)
    result = network.train(batch, y, batch, y, config)
    preds = (network.predict(result.params, batch) > 0.5).astype(float)
    assert (preds == y).mean() >= 0.95


def test_constant_labels_rejected():
    rng = np.random.default_rng(23)
    batch = network.NetBatch(x=rng.normal(size=(10, 3)))
    config = network.NetConfig()
    with pytest.raises(DataError):
        network.train(batch, np.ones(10), batch, np.ones(10), config)


def test_training_determinism():
    rng = np.random.default_rng(29)
    batch = make_batch(rng, n=40)
    y = rng.integers(0, 2, size=40).astype(float)
    y[:5] = 0.0
    y[5:10] = 1.0
    config = network.NetConfig(seed=31, max_epochs=12, batch_size=8)
    a = network.train(batch, y, batch, y, config)
    b = network.train(batch, y, batch, y, config)
    for name in a.params.trainable():
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
    assert a.train_losses == b.train_losses


def test_batch_vs_single_forward():
    rng = np.random.default_rng(37)
    config = network.NetConfig(seed=41)
    params = network.init_params(4, config, n_clusters=2)
    batch = make_batch(rng, n=16)
    together = network.predict(params, batch)
    alone = np.array([
        network.predict(params, batch.take([i]))[0] for i in range(16)
    ])
    assert np.max(np.abs(together - alone)) < 1e-12


def test_predict_is_pointwise():
    rng = np.random.default_rng(43)
    config = network.NetConfig(seed=47)
    params = network.init_params(5, config)
    batch = wire(network.NetBatch(x=rng.normal(size=(12, 5))), "random", False, config.seed)
    probs = network.predict(params, batch)
    perm = rng.permutation(12)
    permuted = network.predict(params, batch.take(perm))
    assert np.array_equal(probs[perm], permuted)
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_early_stopping_restores_best_validation_params():
    rng = np.random.default_rng(53)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(float)
    Xv = rng.normal(size=(30, 3))
    yv = rng.integers(0, 2, size=30).astype(float)  # noise: validation loss must rise
    config = network.NetConfig(step_size=1e-2, patience=5, max_epochs=200, seed=59)
    result = network.train(network.NetBatch(x=X), y, network.NetBatch(x=Xv), yv, config)
    losses = np.asarray(result.val_losses)
    assert result.best_epoch == int(np.argmin(losses))
    refit = network.bce_loss(
        network._forward_full(result.params, network.NetBatch(x=Xv))[0], yv
    )
    assert refit == losses[result.best_epoch]
    assert losses.size < 200  # patience actually stopped it


def test_divergence_raises_with_epoch():
    # infinite inputs make the very first forward pass non-finite
    config = network.NetConfig(seed=61)
    batch = network.NetBatch(x=np.full((8, 2), np.inf))
    y = np.array([0.0, 1.0] * 4)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
        network.train(batch, y, batch, y, config)
    assert err.value.epoch == 0


def test_config_validation():
    with pytest.raises(DataError):
        network.NetConfig(step_size=0.0)
    with pytest.raises(DataError):
        network.NetConfig(patience=-1)
    with pytest.raises(DataError):
        network.NetConfig(hidden_sizes=(50, 30, 10))
