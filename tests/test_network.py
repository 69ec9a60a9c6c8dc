import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fresh_loss_and_grads, net_config, plain_batch
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
    _, grads = fresh_loss_and_grads(params, batch, y)
    for name in network.PARAM_GROUPS:
        arr = getattr(params, name)
        analytic = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + step
            up = fresh_loss_and_grads(params, batch, y)[0]
            arr[ix] = keep - step
            down = fresh_loss_and_grads(params, batch, y)[0]
            arr[ix] = keep
            numeric = (up - down) / (2 * step)
            denom = max(abs(analytic[ix]), abs(numeric), 1e-8)
            assert abs(analytic[ix] - numeric) / denom <= rel_tol, (
                f"{name}{ix}: analytic {analytic[ix]} vs numeric {numeric}"
            )


def reference_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))


def reference_forward(params, batch):
    """The forward pass as whole-array expressions, each value a fresh array;
    (logit, backprop cache)."""
    if batch.shap is None:
        gated, gate_sig = batch.x, None
    else:
        gate_sig = reference_sigmoid(batch.shap + params.delta)
        gated = gate_sig * batch.x
    h0 = gated if batch.onehot is None else np.concatenate((gated, batch.onehot), axis=1)
    z1 = h0 @ params.W1 + params.b1
    r1 = np.maximum(z1, 0.0)
    z2 = r1 @ params.W2 + params.b2
    r2 = np.maximum(z2, 0.0)
    logit = (r2 @ params.W3 + params.b3)[:, 0]
    return logit, (gate_sig, h0, z1, r1, z2, r2)


def reference_bce(logit, y):
    return float((np.logaddexp(0.0, logit) - y * logit).mean())


def reference_loss_and_grads(params, batch, y):
    """Backward pass as it was before the flat buffer: every gradient a fresh
    array from `@` and `.sum`, no `out=` targets."""
    logit, (gate_sig, h0, z1, r1, z2, r2) = reference_forward(params, batch)
    p = batch.x.shape[1]
    dlogit = (reference_sigmoid(logit) - y)[:, None] / batch.n
    dz2 = (dlogit @ params.W3.T) * (z2 > 0)
    dz1 = (dz2 @ params.W2.T) * (z1 > 0)
    if gate_sig is None:
        gdelta = np.zeros(p)
    else:
        dgated = (dz1 @ params.W1.T)[:, :p]
        gdelta = (dgated * batch.x * gate_sig * (1.0 - gate_sig)).sum(axis=0)
    grads = {"delta": gdelta, "W1": h0.T @ dz1, "b1": dz1.sum(axis=0),
             "W2": r1.T @ dz2, "b2": dz2.sum(axis=0),
             "W3": r2.T @ dlogit, "b3": dlogit.sum(axis=0)}
    return reference_bce(logit, y), grads


def copy_params(params):
    return network.NetParams(**{k: getattr(params, k).copy() for k in network.PARAM_GROUPS})


def reference_train(train_batch, train_labels, val_batch, val_labels, config):
    """Per-group Adam trainer: separate parameter and moment arrays per group,
    a validated NetBatch for every mini-batch, a training curve summed from
    the step losses, and a separate validation pass every epoch.
    network.train must equal it bit for bit."""
    y_train = np.asarray(train_labels, dtype=np.float64)
    y_val = np.asarray(val_labels, dtype=np.float64)
    params = network.init_params(train_batch.x.shape[1], config,
                                 n_clusters=0 if train_batch.onehot is None else train_batch.onehot.shape[1])
    names = network.PARAM_GROUPS
    moment1 = {k: np.zeros_like(getattr(params, k)) for k in names}
    moment2 = {k: np.zeros_like(getattr(params, k)) for k in names}
    step = 0
    best = copy_params(params)
    best_loss = np.inf
    best_epoch = -1
    since_best = 0
    train_losses = []
    val_losses = []
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, 0xE0, epoch]).permutation(train_batch.n)
        loss_sum = 0.0
        for lo in range(0, train_batch.n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            sub = network.NetBatch(
                x=train_batch.x[idx],
                shap=None if train_batch.shap is None else train_batch.shap[idx],
                onehot=None if train_batch.onehot is None else train_batch.onehot[idx],
            )
            loss, grads = reference_loss_and_grads(params, sub, y_train[idx])
            loss_sum += loss * idx.size
            step += 1
            for k in names:
                g = grads[k]
                moment1[k] = network.ADAM_BETA1 * moment1[k] + (1 - network.ADAM_BETA1) * g
                moment2[k] = network.ADAM_BETA2 * moment2[k] + (1 - network.ADAM_BETA2) * g * g
                m_hat = moment1[k] / (1 - network.ADAM_BETA1**step)
                v_hat = moment2[k] / (1 - network.ADAM_BETA2**step)
                getattr(params, k)[...] -= (
                    config.step_size * m_hat / (np.sqrt(v_hat) + network.ADAM_EPS)
                )
        train_losses.append(loss_sum / train_batch.n)
        val_losses.append(reference_bce(reference_forward(params, val_batch)[0], y_val))
        if val_losses[-1] < best_loss:
            best_loss = val_losses[-1]
            best = copy_params(params)
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break
    return network.TrainResult(params=best, train_losses=train_losses,
                               val_losses=val_losses, best_epoch=best_epoch)


def train_both(train_batch, y_train, val_batch, y_val, config):
    """network.train and the reference trainer on the same call; asserts that
    they agree bit for bit and returns network.train's result."""
    ours = network.train(train_batch, y_train, val_batch, y_val, config)
    ref = reference_train(train_batch, y_train, val_batch, y_val, config)
    for name in network.PARAM_GROUPS:
        a, b = getattr(ours.params, name), getattr(ref.params, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert ours.train_losses == ref.train_losses
    assert ours.val_losses == ref.val_losses
    assert ours.best_epoch == ref.best_epoch
    return ours


def labelled_batch(seed, n, p=4, k=3):
    rng = np.random.default_rng(seed)
    batch = make_batch(rng, n=n, p=p, k=k)
    y = (batch.x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
    y[:2] = (0.0, 1.0)
    return batch, y


def test_attention_gate_hand_values():
    # the gated block h0[:, :p] of the forward pass is sigmoid(shap + delta) * x;
    # delta starts at zero, so the gate weight is the shap row itself
    x = np.array([[2.0, -4.0, 1.0]])
    params = network.init_params(3, net_config(), n_clusters=2)

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
        network.NetBatch(x=x, shap=np.zeros((1, 2)), onehot=None)


def test_zero_params_output_half():
    rng = np.random.default_rng(1)
    batch = make_batch(rng)
    config = net_config(seed=0)
    params = network.init_params(4, config, n_clusters=2)
    for name in network.PARAM_GROUPS:
        getattr(params, name)[...] = 0.0
    probs = network.predict(params, batch)
    assert np.all(probs == 0.5)


def test_attention_off_matches_plain_mlp_bit_for_bit():
    rng = np.random.default_rng(3)
    config = net_config(seed=7)
    params = network.init_params(5, config, n_clusters=0)
    X = rng.normal(size=(40, 5))
    ours = network.predict(params, plain_batch(X))
    theirs = plain_mlp_forward(params, X)
    assert np.array_equal(ours, theirs)


def test_gradient_check_full_architecture():
    rng = np.random.default_rng(5)
    config = net_config(seed=11)
    params = network.init_params(4, config, n_clusters=2)
    batch = make_batch(rng)
    y = rng.integers(0, 2, size=8).astype(float)
    finite_difference_check(params, batch, y)


def test_gradient_check_ten_random_draws_all_modes(monkeypatch):
    monkeypatch.setattr(network, "HIDDEN_SIZES", (7, 5))
    rng = np.random.default_rng(13)
    for draw in range(10):
        mode = ("shap", "random", "off")[draw % 3]
        cluster = draw % 2 == 0
        config = net_config(seed=100 + draw)
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
    config = net_config(step_size=1e-2, seed=19)
    batch = plain_batch(X)
    result = network.train(batch, y, batch, y, config)
    preds = (network.predict(result.params, batch) > 0.5).astype(float)
    assert (preds == y).mean() >= 0.95


def test_constant_labels_rejected():
    rng = np.random.default_rng(23)
    batch = plain_batch(rng.normal(size=(10, 3)))
    config = net_config()
    with pytest.raises(DataError):
        network.train(batch, np.ones(10), batch, np.ones(10), config)


def test_training_determinism():
    rng = np.random.default_rng(29)
    batch = make_batch(rng, n=40)
    y = rng.integers(0, 2, size=40).astype(float)
    y[:5] = 0.0
    y[5:10] = 1.0
    config = net_config(seed=31, max_epochs=12, batch_size=8)
    a = network.train(batch, y, batch, y, config)
    b = network.train(batch, y, batch, y, config)
    for name in network.PARAM_GROUPS:
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
    assert a.train_losses == b.train_losses


def test_batch_vs_single_forward():
    rng = np.random.default_rng(37)
    config = net_config(seed=41)
    params = network.init_params(4, config, n_clusters=2)
    batch = make_batch(rng, n=16)
    together = network.predict(params, batch)
    alone = np.array([
        network.predict(params, batch.take([i]))[0] for i in range(16)
    ])
    assert np.max(np.abs(together - alone)) < 1e-12


def test_predict_is_pointwise():
    rng = np.random.default_rng(43)
    config = net_config(seed=47)
    params = network.init_params(5, config, n_clusters=0)
    batch = wire(plain_batch(rng.normal(size=(12, 5))), "random", False, config.seed)
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
    config = net_config(step_size=1e-2, patience=5, max_epochs=200, seed=59)
    result = network.train(plain_batch(X), y, plain_batch(Xv), yv, config)
    losses = np.asarray(result.val_losses)
    assert result.best_epoch == int(np.argmin(losses))
    refit = network.bce_loss(
        network._forward_full(result.params, plain_batch(Xv))[0], yv
    )
    assert refit == losses[result.best_epoch]
    assert losses.size < 200  # patience actually stopped it


def test_divergence_raises_with_epoch():
    # infinite inputs make the very first forward pass non-finite
    config = net_config(seed=61)
    batch = plain_batch(np.full((8, 2), np.inf))
    y = np.array([0.0, 1.0] * 4)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
        network.train(batch, y, batch, y, config)
    assert err.value.epoch == 0


@pytest.mark.parametrize("mode", ["shap", "random", "off"])
@pytest.mark.parametrize("cluster", [True, False])
def test_train_matches_reference_every_wiring(mode, cluster):
    batch, y = labelled_batch(71, n=45)  # 45 % 8: a ragged last batch of 5
    config = net_config(step_size=1e-2, batch_size=8, max_epochs=12, seed=73)
    fit = wire(network.NetBatch(x=batch.x[:33], shap=batch.shap[:33], onehot=batch.onehot[:33]),
               mode, cluster, config.seed)
    val = wire(network.NetBatch(x=batch.x[33:], shap=batch.shap[33:], onehot=batch.onehot[33:]),
               mode, cluster, config.seed)
    train_both(fit, y[:33], val, y[33:], config)


def test_train_matches_reference_last_batch_of_one():
    batch, y = labelled_batch(79, n=41)
    val, yv = labelled_batch(83, n=15)
    config = net_config(step_size=1e-2, batch_size=8, max_epochs=10, seed=89)
    assert batch.n % config.batch_size == 1
    train_both(batch, y, val, yv, config)


def test_train_matches_reference_patience_and_max_epochs_stops():
    batch, y = labelled_batch(97, n=60)
    val, _ = labelled_batch(101, n=30)
    yv = np.random.default_rng(103).integers(0, 2, size=30).astype(float)  # noise
    patience = net_config(step_size=1e-2, batch_size=16, patience=3, max_epochs=200, seed=107)
    stopped = train_both(batch, y, val, yv, patience)
    assert len(stopped.val_losses) < patience.max_epochs
    capped = net_config(step_size=1e-2, batch_size=16, patience=50, max_epochs=7, seed=107)
    assert len(train_both(batch, y, val, yv, capped).val_losses) == capped.max_epochs


def test_train_matches_reference_when_validating_on_training_set():
    # the final fit's call: the training batch and labels serve as validation
    batch, y = labelled_batch(109, n=40)
    config = net_config(step_size=1e-2, batch_size=16, max_epochs=15, seed=113)
    train_both(batch, y, batch, y, config)


@st.composite
def step_cases(draw):
    """One training step's inputs, wired as the pipeline wires its variants,
    at input scales from 0.01 to 100."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 30))
    width = draw(st.integers(0, 6))
    scale = draw(st.sampled_from([0.01, 1.0, 10.0, 100.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    onehot = np.zeros((n, width))
    if width:
        onehot[np.arange(n), rng.integers(0, width, size=n)] = 1.0
    source = network.NetBatch(x=scale * rng.normal(size=(n, p)),
                              shap=scale * rng.normal(size=(n, p)), onehot=onehot)
    cluster = draw(st.booleans())
    config = net_config(seed=seed % 1000)
    hidden_sizes = (draw(st.integers(1, 50)), draw(st.integers(1, 30)))
    batch = wire(source, draw(st.sampled_from(["shap", "random", "off"])), cluster, config.seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "HIDDEN_SIZES", hidden_sizes)
        params = network.init_params(p, config, n_clusters=width if cluster else 0)
    params.delta[...] = rng.normal(size=p)  # off the zero init, so the gate matters
    return params, batch, rng.integers(0, 2, size=n).astype(float)


@settings(max_examples=300, deadline=None)
@given(step_cases())
def test_loss_and_grads_match_the_expressions(case):
    # the module's forward, loss and backward give the bytes of the
    # reference expressions, written into the given gradient dict
    params, batch, y = case
    ref_loss, ref_grads = reference_loss_and_grads(params, batch, y)
    out = {k: np.empty_like(getattr(params, k)) for k in network.PARAM_GROUPS}
    loss, grads = network.loss_and_grads(params, batch, y, out)
    assert grads is out
    assert repr(loss) == repr(ref_loss)
    for name in network.PARAM_GROUPS:
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name
    probs = network.predict(params, batch)
    assert probs.tobytes() == reference_sigmoid(reference_forward(params, batch)[0]).tobytes()


def test_one_full_forward_pass_per_epoch(monkeypatch):
    """Each step makes one forward pass and each epoch one more, over the
    validation batch, whether or not that batch is the training batch."""
    calls = []
    real = network._forward_full

    def counted(params, batch):
        calls.append(batch.n)
        return real(params, batch)

    monkeypatch.setattr(network, "_forward_full", counted)
    batch, y = labelled_batch(127, n=41)
    val, yv = labelled_batch(131, n=15)
    config = net_config(step_size=1e-2, batch_size=8, max_epochs=9, seed=137)
    steps_per_epoch = -(-batch.n // config.batch_size)
    for val_batch, val_labels in ((val, yv), (batch, y)):
        calls.clear()
        result = network.train(batch, y, val_batch, val_labels, config)
        epochs = len(result.val_losses)
        assert len(result.train_losses) == epochs
        assert len(calls) == epochs * steps_per_epoch + epochs
        assert calls.count(val_batch.n) == epochs
