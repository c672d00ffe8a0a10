"""Local training loops for classification and masked-LM objectives.

These loops are shared by every scheme in the paper: the centralized and
standalone baselines call them directly, and the federated learners call
them once per round inside a client.
"""

from __future__ import annotations

import time

import numpy as np

from ..autograd import Adam, Module, clip_grad_norm, functional as F, no_grad
from ..autograd.clip import grad_global_norm
from ..data import IGNORE_INDEX, ClassificationDataset, MlmCollator, SequenceDataset
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .metrics import EpochMetrics, MetricAverager, top1_accuracy

__all__ = ["TrainConfig", "train_classifier", "evaluate_classifier",
           "train_mlm", "evaluate_mlm"]


class TrainConfig:
    """Hyperparameters of a local training run (paper Table I defaults).

    ``class_weights`` enables cost-sensitive training for the imbalanced ADR
    task; ``early_stopping_patience`` stops after that many epochs without
    validation-accuracy improvement and restores the best weights.
    """

    def __init__(self, epochs: int = 10, batch_size: int = 32, lr: float = 1e-2,
                 max_grad_norm: float | None = 1.0, seed: int = 0,
                 log_every: int = 0, class_weights: np.ndarray | None = None,
                 early_stopping_patience: int | None = None) -> None:
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if early_stopping_patience is not None and early_stopping_patience <= 0:
            raise ValueError("early_stopping_patience must be positive")
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.max_grad_norm = max_grad_norm
        self.seed = seed
        self.log_every = log_every
        self.class_weights = class_weights
        self.early_stopping_patience = early_stopping_patience


# Gradient norms live on a very different scale from the registry's default
# seconds buckets.
_GRAD_NORM_BUCKETS: tuple[float, ...] = tuple(10.0 ** e for e in range(-4, 7))


def _step(model: Module, optimizer: Adam, loss, max_grad_norm: float | None) -> float:
    """One optimizer step; returns the pre-clipping global gradient norm.

    When clipping is off the norm is only computed while a telemetry
    registry is armed — the extra full-gradient reduction must not tax
    un-instrumented runs.
    """
    model.zero_grad()
    loss.backward()
    if max_grad_norm is not None:
        norm = clip_grad_norm(model.parameters(), max_grad_norm)
    elif obs_metrics.get_registry().enabled:
        norm = grad_global_norm(model.parameters())
    else:
        norm = 0.0
    optimizer.step()
    return norm


def _record_tokens(objective: str, tokens: int, real_tokens: int,
                   elapsed: float) -> None:
    """One epoch's token accounting: batch cells (padding included), the real
    tokens among them, and the share of the epoch's cells that was padding."""
    obs_metrics.counter("train.tokens", objective=objective).inc(tokens)
    obs_metrics.counter("train.real_tokens", objective=objective).inc(real_tokens)
    if tokens:
        obs_metrics.gauge("train.padding_share",
                          objective=objective).set(1.0 - real_tokens / tokens)
    if elapsed > 0:
        obs_metrics.gauge("train.tokens_per_sec",
                          objective=objective).set(tokens / elapsed)


def train_classifier(model: Module, dataset: ClassificationDataset,
                     config: TrainConfig,
                     valid: ClassificationDataset | None = None,
                     optimizer: Adam | None = None,
                     regularizer=None, abort_signal=None) -> list[EpochMetrics]:
    """Train a classifier; returns per-epoch metrics.

    One ``default_rng(config.seed)`` drives every epoch's batches, so epochs
    differ from one another and the whole call repeats for one seed.  Batches
    come length-bucketed and trimmed from ``dataset.iter_batches``: a step
    runs at its batch's own width, not the dataset's ``max_len``.

    ``regularizer`` is an optional ``model -> Tensor`` penalty added to every
    batch loss (used for the FedProx proximal term in federated learners).
    ``abort_signal`` is an optional Event-like object polled between
    batches: once set, training stops and the history ends with the partial
    epoch (federated learners pass the run's signal; the result is unused).
    """
    aborted = abort_signal.is_set if abort_signal is not None else lambda: False
    optimizer = optimizer or Adam(model.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history: list[EpochMetrics] = []
    best_acc: float | None = None
    best_state = None
    stale_epochs = 0
    step_hist = obs_metrics.histogram("train.step_seconds", objective="classifier")
    grad_hist = obs_metrics.histogram("train.grad_norm",
                                      buckets=_GRAD_NORM_BUCKETS,
                                      objective="classifier")
    nonfinite_counter = obs_metrics.counter("train.nonfinite_steps",
                                            objective="classifier")
    for epoch in range(config.epochs):
        started = time.perf_counter()
        model.train()
        averager = MetricAverager()
        tokens = real_tokens = 0
        with obs_trace.span("local_train", objective="classifier", epoch=epoch):
            for ids, mask, labels in dataset.iter_batches(config.batch_size,
                                                          shuffle=True, rng=rng):
                if aborted():
                    break
                step_started = time.perf_counter()
                with obs_trace.span("step"):
                    logits = model(ids, attention_mask=mask)
                    loss = F.cross_entropy(logits, labels,
                                           class_weights=config.class_weights)
                    if regularizer is not None:
                        loss = loss + regularizer(model)
                    grad_norm = _step(model, optimizer, loss, config.max_grad_norm)
                step_hist.observe(time.perf_counter() - step_started)
                grad_hist.observe(grad_norm)
                tokens += int(ids.size)
                real_tokens += int(mask.sum())
                loss_value = loss.item()
                if not np.isfinite(loss_value) or not np.isfinite(grad_norm):
                    nonfinite_counter.inc()
                averager.update(loss_value, weight=len(labels))
        elapsed = time.perf_counter() - started
        _record_tokens("classifier", tokens, real_tokens, elapsed)
        obs_metrics.gauge("train.loss", objective="classifier").set(averager.average)
        metrics = EpochMetrics(epoch=epoch, train_loss=averager.average,
                               seconds=elapsed)
        if aborted():
            history.append(metrics)  # the partial epoch, not validated
            break
        if valid is not None and len(valid):
            metrics.valid_acc, metrics.valid_loss = evaluate_classifier(model, valid,
                                                                        config.batch_size)
        history.append(metrics)
        if config.early_stopping_patience is not None and metrics.valid_acc is not None:
            if best_acc is None or metrics.valid_acc > best_acc:
                best_acc = metrics.valid_acc
                best_state = model.state_dict()
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= config.early_stopping_patience:
                    break
    if best_state is not None:
        model.load_state_dict(best_state)
    return history


def evaluate_classifier(model: Module, dataset: ClassificationDataset,
                        batch_size: int = 64) -> tuple[float, float]:
    """Return ``(top1_accuracy, mean_loss)`` on a dataset.

    Walks the rows in length order — both averages are order-free, and
    batch-mates of one length leave the least padding to compute.
    """
    model.eval()
    accuracy = MetricAverager()
    loss_avg = MetricAverager()
    with no_grad():
        for ids, mask, labels in dataset.sorted_by_length().iter_batches(batch_size):
            logits = model(ids, attention_mask=mask)
            loss = F.cross_entropy(logits, labels)
            accuracy.update(top1_accuracy(logits.data, labels), weight=len(labels))
            loss_avg.update(loss.item(), weight=len(labels))
    model.train()
    return accuracy.average, loss_avg.average


def train_mlm(model: Module, dataset: SequenceDataset, collator: MlmCollator,
              config: TrainConfig, valid: SequenceDataset | None = None,
              optimizer: Adam | None = None,
              abort_signal=None) -> list[EpochMetrics]:
    """Masked-LM pretraining; ``train_loss`` holds the MLM loss (Fig. 2).
    Batches, the per-call Generator and ``abort_signal``: as in
    :func:`train_classifier`; the collator masks the trimmed batch."""
    aborted = abort_signal.is_set if abort_signal is not None else lambda: False
    optimizer = optimizer or Adam(model.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history: list[EpochMetrics] = []
    step_hist = obs_metrics.histogram("train.step_seconds", objective="mlm")
    grad_hist = obs_metrics.histogram("train.grad_norm",
                                      buckets=_GRAD_NORM_BUCKETS,
                                      objective="mlm")
    nonfinite_counter = obs_metrics.counter("train.nonfinite_steps",
                                            objective="mlm")
    for epoch in range(config.epochs):
        started = time.perf_counter()
        model.train()
        averager = MetricAverager()
        tokens = real_tokens = 0
        with obs_trace.span("local_train", objective="mlm", epoch=epoch):
            for ids, mask in dataset.iter_batches(config.batch_size, shuffle=True, rng=rng):
                if aborted():
                    break
                example = collator(ids, mask)
                n_targets = int((example.labels != IGNORE_INDEX).sum())
                if n_targets == 0:
                    continue  # tiny batch where masking selected nothing
                step_started = time.perf_counter()
                with obs_trace.span("step"):
                    logits = model(example.input_ids,
                                   attention_mask=example.attention_mask)
                    # fused cross_entropy flattens (batch, seq, vocab) internally
                    loss = F.cross_entropy(logits, example.labels.reshape(-1),
                                           ignore_index=IGNORE_INDEX)
                    grad_norm = _step(model, optimizer, loss, config.max_grad_norm)
                step_hist.observe(time.perf_counter() - step_started)
                grad_hist.observe(grad_norm)
                tokens += int(ids.size)
                real_tokens += int(mask.sum())
                loss_value = loss.item()
                if not np.isfinite(loss_value) or not np.isfinite(grad_norm):
                    nonfinite_counter.inc()
                averager.update(loss_value, weight=n_targets)
        elapsed = time.perf_counter() - started
        _record_tokens("mlm", tokens, real_tokens, elapsed)
        obs_metrics.gauge("train.loss", objective="mlm").set(averager.average)
        metrics = EpochMetrics(epoch=epoch, train_loss=averager.average,
                               seconds=elapsed)
        if aborted():
            history.append(metrics)  # the partial epoch, not validated
            break
        if valid is not None and len(valid):
            metrics.valid_loss = evaluate_mlm(model, valid, collator, config.batch_size)
        history.append(metrics)
    return history


def evaluate_mlm(model: Module, dataset: SequenceDataset, collator: MlmCollator,
                 batch_size: int = 64) -> float:
    """Mean MLM loss over a held-out set, walked in length order as
    :func:`evaluate_classifier` does."""
    model.eval()
    averager = MetricAverager()
    with no_grad():
        for ids, mask in dataset.sorted_by_length().iter_batches(batch_size):
            example = collator(ids, mask)
            n_targets = int((example.labels != IGNORE_INDEX).sum())
            if n_targets == 0:
                continue
            logits = model(example.input_ids, attention_mask=example.attention_mask)
            loss = F.cross_entropy(logits, example.labels.reshape(-1),
                                   ignore_index=IGNORE_INDEX)
            averager.update(loss.item(), weight=n_targets)
    model.train()
    return averager.average
