"""Ablations beyond the paper, on the Table III cohort and shards.

- *Privacy filters*: FL accuracy with no result filter, Gaussian noise at
  two strengths and percentile clipping. The paper calls NVFlare
  privacy-preserving but does not measure the utility cost.
- *One corrupted site*: site-8 replaces its update with large noise; the
  weighted mean (FedAvg) against the coordinate-wise median. The paper's
  FedAvg assumes every clinic ships an honest update.
- *Dataset size* (§IV-B.3 / future work): centralized accuracy of one
  attentive and one recursive model on growing fractions of the training
  split. The paper says the LSTM "can be effectively trained with
  relatively smaller amounts of data".

The federated ablations run one local epoch per round whatever the scale:
they compare settings with each other, not with Table III.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..flare import (
    DXO,
    CoordinateMedianAggregator,
    DataKind,
    FLJob,
    GaussianPrivacy,
    InTimeAccumulateWeightedAggregator,
    PercentilePrivacy,
    SimulatorRunner,
    set_console_level,
)
from ..training import (
    ClinicalClassificationLearner,
    evaluate_classifier,
    run_centralized,
    run_federated,
)
from .configs import ExperimentScale, get_scale
from .report import format_table
from .table3 import classifier_factory, prepare_table3_data

__all__ = ["AblationsResult", "run_ablations"]

FILTERS = {
    "none": lambda: [],
    "gaussian-0.05": lambda: [GaussianPrivacy(sigma0=0.05, seed=0)],
    "gaussian-0.3": lambda: [GaussianPrivacy(sigma0=0.3, seed=0)],
    "percentile-10": lambda: [PercentilePrivacy(percentile=10.0)],
}

AGGREGATORS = {
    "fedavg": InTimeAccumulateWeightedAggregator,
    "median": CoordinateMedianAggregator,
}

FRACTIONS = (0.1, 0.3, 1.0)

CORRUPTED_SITE = "site-8"

# the paper's model where the scale trains it, else its tiny stand-in
_TINY = {"bert-mini": "bert-tiny", "lstm": "lstm-tiny"}


def _model(name: str, scale: ExperimentScale) -> str:
    return name if name in scale.models else _TINY[name]


class CorruptingLearner(ClinicalClassificationLearner):
    """Trains normally, then replaces its update with large noise."""

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        result = super().train(dxo, fl_ctx)
        rng = np.random.default_rng(0)
        poisoned = {key: rng.normal(scale=10.0, size=np.asarray(value).shape)
                    .astype(np.float32)
                    for key, value in result.data.items()}
        return DXO(data_kind=DataKind.WEIGHTS, data=poisoned, meta=dict(result.meta))


@dataclass
class AblationsResult:
    """Accuracy (percent) per ablation setting."""

    privacy: dict[str, float] = field(default_factory=dict)      # filter -> best
    corrupted: dict[str, float] = field(default_factory=dict)    # aggregator -> final
    size: dict[str, dict[float, float]] = field(default_factory=dict)  # model -> fraction -> best
    scale_name: str = "bench"

    def to_text(self) -> str:
        scale = f"(scale={self.scale_name})"
        return "\n\n".join([
            format_table(["filter", "top-1"],
                         [[name, f"{acc:.1f}"] for name, acc in self.privacy.items()],
                         title=f"Ablation — privacy filters: FL best top-1 [%] {scale}"),
            format_table(["aggregator", "top-1"],
                         [[name, f"{acc:.1f}"] for name, acc in self.corrupted.items()],
                         title=f"Ablation — {CORRUPTED_SITE} corrupted: FL final top-1 [%] "
                               f"{scale}"),
            format_table(["model"] + [f"{f:.0%} of train" for f in FRACTIONS],
                         [[model] + [f"{accs[f]:.1f}" for f in FRACTIONS]
                          for model, accs in self.size.items()],
                         title=f"Ablation — dataset size: centralized best top-1 [%] "
                               f"{scale}"),
        ])

    def shape_checks(self) -> dict[str, bool]:
        """- the median aggregator stays above 50% with a corrupted site,
        - more data never costs much: full-data accuracy is within 5 points
          of the best fraction, per model."""
        checks: dict[str, bool] = {}
        if "median" in self.corrupted:
            checks[f"median above 50% with {CORRUPTED_SITE} corrupted"] = (
                self.corrupted["median"] > 50.0)
        for model, accs in self.size.items():
            checks[f"{model}: full data within 5pts of best fraction"] = (
                accs[1.0] >= max(accs.values()) - 5.0)
        return checks


def _privacy(scale: ExperimentScale, seed: int, model, shards,
             valid) -> dict[str, float]:
    return {name: 100.0 * run_federated(
                model, shards, valid, num_rounds=scale.num_rounds, local_epochs=1,
                batch_size=scale.batch_size, lr=scale.lr, seed=seed,
                job_name=f"privacy-{name}", task_result_filters=filters()).best_acc
            for name, filters in FILTERS.items()}


def _corrupted(scale: ExperimentScale, seed: int, model, shards,
               valid) -> dict[str, float]:
    def learner_factory(client_name: str):
        cls = CorruptingLearner if client_name == CORRUPTED_SITE else ClinicalClassificationLearner
        return cls(site_name=client_name, model_factory=model,
                   train_data=shards[client_name], valid_data=None,
                   local_epochs=1, batch_size=scale.batch_size, lr=scale.lr)

    eval_model = model()

    def evaluator(weights):
        eval_model.load_state_dict({k: np.asarray(v) for k, v in weights.items()},
                                   strict=False)
        accuracy, _ = evaluate_classifier(eval_model, valid)
        return {"valid_acc": accuracy}

    accs = {}
    for name, aggregator in AGGREGATORS.items():
        job = FLJob(name=f"corrupted-{name}", initial_weights=model().state_dict(),
                    learner_factory=learner_factory, num_rounds=scale.num_rounds,
                    evaluator=evaluator, aggregator_factory=aggregator)
        result = SimulatorRunner(job, n_clients=len(shards), seed=seed,
                                 capture_log=False).run()
        accs[name] = 100.0 * result.stats.final_global_metric("valid_acc")
    return accs


def _size(scale: ExperimentScale, seed: int, train, valid,
          vocab_size: int) -> dict[str, dict[float, float]]:
    sweep = {}
    for name in ("bert-mini", "lstm"):
        model = _model(name, scale)
        factory = classifier_factory(model, vocab_size, scale, seed)
        sweep[model] = {
            fraction: 100.0 * run_centralized(
                factory, train.subset(np.arange(max(16, int(len(train) * fraction)))),
                valid, epochs=scale.centralized_epochs, batch_size=scale.batch_size,
                lr=scale.lr, seed=seed).best_acc
            for fraction in FRACTIONS}
    return sweep


def run_ablations(scale: ExperimentScale | None = None,
                  seed: int = 7) -> AblationsResult:
    """Run the three ablations on the Table III data."""
    scale = scale or get_scale()
    set_console_level(logging.WARNING)
    train, valid, shards, vocab_size = prepare_table3_data(scale, seed=seed)
    lstm = classifier_factory(_model("lstm", scale), vocab_size, scale, seed)
    return AblationsResult(
        privacy=_privacy(scale, seed, lstm, shards, valid),
        corrupted=_corrupted(scale, seed, lstm, shards, valid),
        size=_size(scale, seed, train, valid, vocab_size),
        scale_name=scale.name)
