"""The client-side classification learner (the paper's ``CiBertLearner``).

Each federated round: load the incoming global weights, run the configured
local epochs of Adam on the site's shard, log per-epoch lines in the Fig. 3
format, and return the updated weights with sample-count metadata.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autograd import Adam, Module
from ..data import ClassificationDataset
from ..flare import DXO, DataKind, FLContext, Learner, MetaKey, ReservedKey
from .trainer import TrainConfig, evaluate_classifier, train_classifier

__all__ = ["ClinicalClassificationLearner"]

ModelFactory = Callable[[], Module]


class ClinicalClassificationLearner(Learner):
    """Binary ADR classification on one site's local data."""

    def __init__(self, site_name: str, model_factory: ModelFactory,
                 train_data: ClassificationDataset,
                 valid_data: ClassificationDataset | None,
                 local_epochs: int = 10, batch_size: int = 32, lr: float = 1e-2,
                 seed: int = 0, send_diff: bool = False,
                 fedprox_mu: float = 0.0,
                 class_weights=None) -> None:
        super().__init__(name="CiBertLearner")
        if len(train_data) == 0:
            raise ValueError(f"{site_name}: empty training shard")
        self.site_name = site_name
        self.model_factory = model_factory
        self.train_data = train_data
        self.valid_data = valid_data
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.send_diff = send_diff
        if fedprox_mu < 0:
            raise ValueError("fedprox_mu must be non-negative")
        self.fedprox_mu = fedprox_mu
        self.class_weights = class_weights
        self.model: Module | None = None
        self.epoch_seconds: list[float] = []

    # ------------------------------------------------------------------
    def initialize(self, fl_ctx: FLContext) -> None:
        self.model = self.model_factory()

    def _require_model(self) -> Module:
        if self.model is None:
            raise RuntimeError("learner used before initialize()")
        return self.model

    # ------------------------------------------------------------------
    def train(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        model = self._require_model()
        incoming = {key: np.asarray(value) for key, value in dxo.data.items()}
        model.load_state_dict(incoming, strict=False)
        round_number = fl_ctx.get_prop("current_round",
                                       fl_ctx.get_prop("__round_number__", 0))

        # One call, one Generator: every local epoch of the round draws its
        # own batches from ``default_rng(seed + 1000 * round)``.
        config = TrainConfig(epochs=self.local_epochs, batch_size=self.batch_size,
                             lr=self.lr, seed=self.seed + 1000 * int(round_number),
                             class_weights=self.class_weights)
        regularizer = None
        if self.fedprox_mu > 0:
            from .fedprox import make_proximal_regularizer

            regularizer = make_proximal_regularizer(self.fedprox_mu, incoming)
        abort_signal = fl_ctx.get_prop(ReservedKey.ABORT_SIGNAL)
        history = train_classifier(model, self.train_data, config,
                                   valid=self.valid_data,
                                   optimizer=Adam(model.parameters(), lr=self.lr),
                                   regularizer=regularizer,
                                   abort_signal=abort_signal)
        model.zero_grad()  # the last step's gradients are dead until next round
        if abort_signal is not None and abort_signal.is_set():
            history.pop()  # the partial epoch; the client discards this result
        last_loss = history[-1].train_loss if history else float("nan")
        valid_acc = float("nan")
        for metrics in history:
            if metrics.valid_acc is not None:  # None without validation data
                valid_acc = metrics.valid_acc
            self.epoch_seconds.append(metrics.seconds)
            self.log_info(
                "Local epoch %s: %d/%d (lr=%s), train_loss=%.3f, valid_acc=%.3f",
                self.site_name, metrics.epoch + 1, self.local_epochs, self.lr,
                metrics.train_loss, valid_acc)
        if self.epoch_seconds:
            self.log_info("Training cost: %.1f sec/local epoch",
                          sum(self.epoch_seconds) / len(self.epoch_seconds))

        updated = model.state_dict()
        if self.send_diff:
            payload = {key: np.asarray(updated[key]) - incoming[key]
                       for key in updated if key in incoming}
            kind = DataKind.WEIGHT_DIFF
        else:
            payload = {key: np.asarray(value) for key, value in updated.items()}
            kind = DataKind.WEIGHTS
        mean_epoch_seconds = (sum(self.epoch_seconds) / len(self.epoch_seconds)
                              if self.epoch_seconds else float("nan"))
        meta = {
            MetaKey.NUM_STEPS_CURRENT_ROUND: len(self.train_data) * self.local_epochs,
            "train_loss": last_loss,
            "valid_acc": valid_acc,
            "site": self.site_name,
            # local-training throughput: the dominant term of federated
            # round wall-clock time, surfaced so the server can spot slow
            # sites from the aggregation logs alone
            "seconds_per_epoch": mean_epoch_seconds,
            "samples_per_second": len(self.train_data) / mean_epoch_seconds
            if mean_epoch_seconds > 0 else float("nan"),
        }
        return DXO(data_kind=kind, data=payload, meta=meta)

    # ------------------------------------------------------------------
    def validate(self, dxo: DXO, fl_ctx: FLContext) -> dict[str, float]:
        model = self._require_model()
        model.load_state_dict({key: np.asarray(value) for key, value in dxo.data.items()},
                              strict=False)
        data = self.valid_data if self.valid_data is not None and len(self.valid_data) \
            else self.train_data
        accuracy, loss = evaluate_classifier(model, data, self.batch_size)
        return {"valid_acc": accuracy, "valid_loss": loss}
