"""Training loop primitives shared by component and fusion models."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, NumericError
from .losses import weighted_bce
from .optim import Adam


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 150
    class_weights: tuple = (1.0, 1.0)
    seed: int = 0

    def validate(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if any(w <= 0 for w in self.class_weights):
            raise ValueError("class weights must be positive")
        return self


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_metric: float


def balanced_class_weights(labels):
    """Default BCE weights: w_pos = n_neg / n_pos, w_neg = 1."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("both classes are required to derive class weights")
    return (n_neg / n_pos, 1.0)


def pad_batch(seqs):
    """Stack variable-length (T_i, D) sequences into (B, T_max, D) + lengths."""
    lengths = np.array([s.shape[0] for s in seqs], dtype=np.int64)
    t_max = int(lengths.max())
    dim = seqs[0].shape[1]
    out = np.zeros((len(seqs), t_max, dim))
    for i, s in enumerate(seqs):
        out[i, : s.shape[0]] = s
    return out, lengths


PREDICT_BATCH = 256


def _batch(inputs, idx):
    """Rows idx as (x, lengths): a matrix is indexed, a list of (T_i, D) sequences padded."""
    if isinstance(inputs, np.ndarray):
        return inputs[idx], None
    return pad_batch([inputs[i] for i in idx])


def predict(graph, inputs, tap=-1):
    """Eval-mode pass in batches; returns (scores (N,), outputs of layers[tap] (N, D)).

    inputs is an (N, D) matrix or a list of (T_i, D) sequences, as for fit.
    No backward follows, so each batch's layer caches are dropped at once.
    """
    n = len(inputs)
    scores = np.empty(n)
    taps = np.empty((n, 0))
    for start in range(0, n, PREDICT_BATCH):
        idx = np.arange(start, min(start + PREDICT_BATCH, n))
        x, lengths = _batch(inputs, idx)
        out, acts = graph.forward_all(x, lengths=lengths)
        graph.drop_caches()
        if start == 0:
            taps = np.empty((n, acts[tap].shape[1]), dtype=acts[tap].dtype)
        scores[idx] = out.ravel()
        taps[idx] = acts[tap]
    return scores, taps


def fit(
    graph,
    inputs,
    labels,
    val_inputs,
    val_labels,
    config,
    val_metric,
    log=None,
    epoch_inputs=None,
):
    """Mini-batch training with per-epoch validation and best-epoch restore.

    inputs: 2-D array (vector models) or list of (T_i, D) arrays (sequence
    models, padded per batch with lengths). val_metric maps (scores, labels)
    to a scalar where lower is better; the parameters achieving the best
    validation value are restored before returning.

    epoch_inputs, when given, is called with no arguments at the start of
    every epoch and returns that epoch's inputs (used for modality dropout,
    which redraws dropped inputs each epoch). fit reads what it returns only
    until the next call, so the callee may hand back one buffer every epoch,
    rewritten in place.
    """
    config.validate()
    labels = np.asarray(labels, dtype=np.float64)
    if len(inputs) != len(labels):
        raise DataError("inputs and labels differ in length")
    if len(labels) == 0:
        raise DataError("empty training set")

    rng = np.random.default_rng(config.seed)
    adam = Adam()
    named = graph.named_params()

    history = []
    best = (np.inf, -1, None)
    for epoch in range(config.epochs):
        if epoch_inputs is not None:
            inputs = epoch_inputs()
        order = rng.permutation(len(labels))
        total_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            x, lengths = _batch(inputs, idx)
            out = graph.forward(x, lengths=lengths, train=True, rng=rng)
            y = labels[idx].reshape(out.shape)
            loss, dpred = weighted_bce(out, y, config.class_weights)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            graph.backward(dpred)
            adam.step(named)
            graph.zero_grads()
            total_loss += loss
            n_batches += 1

        val_scores, _ = predict(graph, val_inputs)
        metric = float(val_metric(val_scores, val_labels))
        stats = EpochStats(epoch=epoch, train_loss=total_loss / max(n_batches, 1), val_metric=metric)
        history.append(stats)
        if log is not None:
            log(stats)
        if metric < best[0]:
            best = (metric, epoch, graph.snapshot_params())

    if best[2] is not None:
        graph.restore_params(best[2])
    return history, best[1]
