"""Attention-gated feedforward classifier trained on binary cross-entropy.

The batch decides the wiring. When it carries gate rows (``batch.shap``),
each feature is reweighted as a_i = sigmoid(s_i + delta_i) * x_i, where s is
the row's gate input and delta a trainable per-feature offset; without them
the features pass through ungated. When it carries a cluster one-hot block
(``batch.onehot``), that block is concatenated after the gate, so the first
layer's width is p + n_clusters. A batch with neither is a plain MLP on x,
bit for bit. The gate input is whatever the caller supplies: the pipeline
feeds attribution rows, or one fixed seeded noise vector broadcast to every
row for its random-attention ablation. Two ReLU layers (50, 30) feed one
sigmoid unit.

Training is mini-batch gradient descent with adaptive moment estimates and
early stopping on validation loss; the best-validation parameters are
restored. Each epoch makes one full forward pass, over the validation batch;
the training curve reuses the mini-batch losses. All arithmetic is float64
numpy; gradients are hand-derived and checked against central finite
differences in the tests.

The bits of every result are set by the forward, loss, backward and Adam
operations, in the order written. A rewrite of the code around them must
keep each operation's operands and order; the reference forward, loss and
trainer in the tests, written as whole-array expressions, check the bytes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import seeds
from .errors import DataError, NumericalError, TrainingDivergedError

HIDDEN_SIZES = (50, 30)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# NetParams' trainable groups, in the order train() lays them end to end
PARAM_GROUPS = ("delta", "W1", "b1", "W2", "b2", "W3", "b3")


@dataclass(frozen=True)
class NetConfig:
    step_size: float
    batch_size: int
    max_epochs: int
    patience: int
    seed: int


@dataclass
class NetParams:
    delta: np.ndarray  # (p,) gate offset
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray


@dataclass
class NetBatch:
    x: np.ndarray  # (n, p) gated-feature source
    shap: np.ndarray | None  # (n, p) gate input rows; None: no gate
    onehot: np.ndarray | None  # (n, k) cluster one-hot; None: no block

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        if self.shap is not None:
            self.shap = np.atleast_2d(np.asarray(self.shap, dtype=np.float64))
            if self.shap.shape != self.x.shape:
                raise DataError(f"shap shape {self.shap.shape} != x shape {self.x.shape}")
        if self.onehot is not None:
            self.onehot = np.atleast_2d(np.asarray(self.onehot, dtype=np.float64))
            if self.onehot.shape[0] != self.x.shape[0]:
                raise DataError("cluster one-hot row count differs from x")

    @property
    def n(self):
        return self.x.shape[0]

    def take(self, idx):
        """Row subset (an index array or a slice). The rows come from this
        already-checked batch, so the subset is built without running the
        validation again."""
        sub = object.__new__(type(self))
        sub.x = self.x[idx]
        sub.shap = None if self.shap is None else self.shap[idx]
        sub.onehot = None if self.onehot is None else self.onehot[idx]
        return sub


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))


def init_params(p, config, n_clusters):
    """Seeded uniform fan-in initialization; gate offset starts at zero.

    n_clusters is the width of the batch's one-hot block, 0 when it has none.
    """
    rng = seeds.rng("network_init", config.seed)
    width = p + n_clusters
    h1, h2 = HIDDEN_SIZES

    def dense(rng, fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=fan_out)
        return W, b

    W1, b1 = dense(rng, width, h1)
    W2, b2 = dense(rng, h1, h2)
    W3, b3 = dense(rng, h2, 1)
    return NetParams(delta=np.zeros(p), W1=W1, b1=b1, W2=W2, b2=b2, W3=W3, b3=b3)


def _forward_full(params, batch):
    """Forward pass keeping intermediates for backprop."""
    if batch.shap is None:
        gated = batch.x
        gate_sig = None
    else:
        gate_sig = _sigmoid(batch.shap + params.delta)
        gated = gate_sig * batch.x
    h0 = gated if batch.onehot is None else np.concatenate((gated, batch.onehot), axis=1)
    z1 = h0 @ params.W1 + params.b1
    r1 = np.maximum(z1, 0.0)
    z2 = r1 @ params.W2 + params.b2
    r2 = np.maximum(z2, 0.0)
    logit = (r2 @ params.W3 + params.b3)[:, 0]
    if not np.isfinite(logit).all():
        raise NumericalError("non-finite activation in forward pass")
    return logit, (gate_sig, h0, z1, r1, z2, r2)


def predict(params, batch):
    """Probability in (0,1) for each row."""
    logit, _ = _forward_full(params, batch)
    return _sigmoid(logit)


def bce_loss(logit, y):
    # softplus(z) - y*z, the stable form of -log p(y|z); the mean as
    # .mean() takes it, one pairwise sum and one division, without numpy's
    # Python wrapper
    terms = np.logaddexp(0.0, logit) - y * logit
    return float(np.add.reduce(terms) / terms.size)


def _backward(params, batch, logit, cache, y, out):
    """Write each group's gradient into the matching array of `out`."""
    gate_sig, h0, z1, r1, z2, r2 = cache
    n = batch.n
    p = batch.x.shape[1]
    dlogit = (_sigmoid(logit) - y)[:, None] / n
    np.matmul(r2.T, dlogit, out=out["W3"])
    dlogit.sum(axis=0, out=out["b3"])
    dz2 = (dlogit @ params.W3.T) * (z2 > 0)
    np.matmul(r1.T, dz2, out=out["W2"])
    dz2.sum(axis=0, out=out["b2"])
    dz1 = (dz2 @ params.W2.T) * (z1 > 0)
    np.matmul(h0.T, dz1, out=out["W1"])
    dz1.sum(axis=0, out=out["b1"])
    if gate_sig is None:
        out["delta"].fill(0.0)
    else:
        dgated = (dz1 @ params.W1.T)[:, :p]
        (dgated * batch.x * gate_sig * (1.0 - gate_sig)).sum(axis=0, out=out["delta"])
    return out


def loss_and_grads(params, batch, y, out):
    """Mean BCE and its gradient for every trainable parameter group.

    `out` is a dict, keyed by group name, of arrays shaped like the groups;
    the gradients are written into it and it is returned.
    """
    y = np.asarray(y, dtype=np.float64)
    logit, cache = _forward_full(params, batch)
    return bce_loss(logit, y), _backward(params, batch, logit, cache, y, out)


@dataclass
class TrainResult:
    params: NetParams
    # per epoch: the size-weighted mean of its mini-batch losses, each taken before its step's update
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int


def _group_views(flat, shapes):
    """Reshaped views into `flat`, one per (name, shape) pair, laid end to end."""
    views = {}
    lo = 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = flat[lo : lo + size].reshape(shape)
        lo += size
    return views


def _adam_update(theta, g, m, v, scratch, step, step_size):
    """One in-place Adam update of the flat parameter buffer `theta`.

    Every operation is elementwise and keeps the order of
        m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,
        theta -= step_size*m_hat / (sqrt(v_hat) + eps),
    so the result equals a per-group update bit for bit. The bias
    corrections take Python's float power of the int step: numpy's power
    can differ from it in the last bit.
    """
    a, b = scratch
    m *= ADAM_BETA1
    np.multiply(g, 1 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(g, 1 - ADAM_BETA2, out=a)
    a *= g
    v += a
    np.divide(m, 1 - ADAM_BETA1**step, out=a)
    a *= step_size
    np.divide(v, 1 - ADAM_BETA2**step, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    theta -= a


def train(train_batch, train_labels, val_batch, val_labels, config):
    """Fit from scratch; returns the best-validation parameters and history.

    The trainable groups are views into one flat buffer, and so are their
    gradients, so each step is one Adam update over the whole buffer.
    """
    y_train = np.asarray(train_labels, dtype=np.float64)
    y_val = np.asarray(val_labels, dtype=np.float64)
    if y_train.min() == y_train.max():
        raise DataError("training labels are single-class")
    init = init_params(train_batch.x.shape[1], config,
                       n_clusters=0 if train_batch.onehot is None else train_batch.onehot.shape[1])
    shapes = [(k, getattr(init, k).shape) for k in PARAM_GROUPS]
    flat = np.concatenate([getattr(init, k).ravel() for k, _ in shapes])
    params = NetParams(**_group_views(flat, shapes))
    grad = np.zeros_like(flat)
    grads = _group_views(grad, shapes)
    moment1 = np.zeros_like(flat)
    moment2 = np.zeros_like(flat)
    scratch = (np.empty_like(flat), np.empty_like(flat))
    step = 0
    best = flat.copy()
    best_loss = np.inf
    best_epoch = -1
    since_best = 0
    train_losses = []
    val_losses = []
    for epoch in range(config.max_epochs):
        order = seeds.rng("epoch_shuffle", config.seed, epoch).permutation(train_batch.n)
        # shuffle once per epoch; each mini-batch is then a contiguous slice
        shuffled = train_batch.take(order)
        y_shuffled = y_train[order]
        loss_sum = 0.0
        try:
            for lo in range(0, train_batch.n, config.batch_size):
                rows = slice(lo, lo + config.batch_size)
                y_step = y_shuffled[rows]
                loss, _ = loss_and_grads(params, shuffled.take(rows), y_step, out=grads)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch)
                loss_sum += loss * y_step.size
                step += 1
                _adam_update(flat, grad, moment1, moment2, scratch, step, config.step_size)
            epoch_train = loss_sum / train_batch.n
            epoch_val = bce_loss(_forward_full(params, val_batch)[0], y_val)
        except NumericalError as e:
            raise TrainingDivergedError(epoch) from e
        if not (np.isfinite(epoch_train) and np.isfinite(epoch_val)):
            raise TrainingDivergedError(epoch)
        train_losses.append(epoch_train)
        val_losses.append(epoch_val)
        if epoch_val < best_loss:
            best_loss = epoch_val
            best[...] = flat
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break
    return TrainResult(params=NetParams(**_group_views(best, shapes)),
                       train_losses=train_losses, val_losses=val_losses, best_epoch=best_epoch)
