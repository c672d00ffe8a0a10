"""The client-side masked-LM learner (BERT federated pretraining, Fig. 2)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autograd import Adam, Module
from ..data import MlmCollator, SequenceDataset
from ..flare import DXO, DataKind, FLContext, Learner, MetaKey, ReservedKey
from .trainer import TrainConfig, evaluate_mlm, train_mlm

__all__ = ["MlmPretrainLearner"]

ModelFactory = Callable[[], Module]


class MlmPretrainLearner(Learner):
    """Federated MLM pretraining on one site's unlabeled sequences."""

    def __init__(self, site_name: str, model_factory: ModelFactory,
                 train_data: SequenceDataset, collator: MlmCollator,
                 valid_data: SequenceDataset | None = None,
                 local_epochs: int = 1, batch_size: int = 32, lr: float = 1e-3,
                 seed: int = 0) -> None:
        super().__init__(name="MlmPretrainLearner")
        if len(train_data) == 0:
            raise ValueError(f"{site_name}: empty pretraining shard")
        self.site_name = site_name
        self.model_factory = model_factory
        self.train_data = train_data
        self.valid_data = valid_data
        self.collator = collator
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.model: Module | None = None

    def initialize(self, fl_ctx: FLContext) -> None:
        self.model = self.model_factory()

    def train(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if self.model is None:
            raise RuntimeError("learner used before initialize()")
        self.model.load_state_dict(
            {key: np.asarray(value) for key, value in dxo.data.items()}, strict=False)
        round_number = int(fl_ctx.get_prop("current_round", 0))
        config = TrainConfig(epochs=self.local_epochs, batch_size=self.batch_size,
                             lr=self.lr, seed=self.seed + 1000 * round_number)
        optimizer = Adam(self.model.parameters(), lr=self.lr)
        history = train_mlm(self.model, self.train_data, self.collator, config,
                            optimizer=optimizer,
                            abort_signal=fl_ctx.get_prop(ReservedKey.ABORT_SIGNAL))
        self.model.zero_grad()  # the last step's gradients are dead until next round
        mlm_loss = history[-1].train_loss
        epoch_seconds = sum(m.seconds for m in history) / len(history)
        self.log_info("Local epoch %s: %d/%d (lr=%s), mlm_loss=%.3f",
                      self.site_name, self.local_epochs, self.local_epochs,
                      self.lr, mlm_loss)
        return DXO(
            data_kind=DataKind.WEIGHTS,
            data={key: np.asarray(value) for key, value in self.model.state_dict().items()},
            meta={MetaKey.NUM_STEPS_CURRENT_ROUND: len(self.train_data) * self.local_epochs,
                  "train_loss": mlm_loss, "site": self.site_name,
                  "seconds_per_epoch": epoch_seconds,
                  "samples_per_second": len(self.train_data) / epoch_seconds
                  if epoch_seconds > 0 else float("nan")},
        )

    def validate(self, dxo: DXO, fl_ctx: FLContext) -> dict[str, float]:
        if self.model is None:
            raise RuntimeError("learner used before initialize()")
        self.model.load_state_dict(
            {key: np.asarray(value) for key, value in dxo.data.items()}, strict=False)
        data = self.valid_data if self.valid_data is not None and len(self.valid_data) \
            else self.train_data
        return {"mlm_loss": evaluate_mlm(self.model, data, self.collator, self.batch_size)}
