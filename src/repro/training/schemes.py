"""The paper's three training schemes: centralized, standalone, federated.

- *Centralized*: one model trained on all pooled data (upper bound).
- *Standalone*: each site trains alone on its own shard; the reported score
  is the mean over sites (lower bound — small local datasets).
- *FL*: NVFlare-style ScatterAndGather over the same shards.

Each scheme evaluates on the same held-out validation split, so Table III
comparisons are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..autograd import Module
from ..data import ClassificationDataset, MlmCollator, SequenceDataset
from ..flare import FLJob, SimulationResult, SimulatorRunner
from .classification import ClinicalClassificationLearner
from .metrics import EpochMetrics
from .mlm_learner import MlmPretrainLearner
from .trainer import TrainConfig, evaluate_classifier, evaluate_mlm, train_classifier, train_mlm

__all__ = ["SchemeResult", "StandaloneResult", "FederatedResult",
           "run_centralized", "run_standalone", "run_federated",
           "run_centralized_mlm", "run_federated_mlm"]

ModelFactory = Callable[[], Module]


@dataclass
class SchemeResult:
    """Outcome of a single-model training scheme."""

    final_acc: float
    best_acc: float
    history: list[EpochMetrics] = field(default_factory=list)


@dataclass
class StandaloneResult:
    """Per-site standalone outcomes."""

    site_accs: dict[str, float]

    @property
    def mean_acc(self) -> float:
        return float(np.mean(list(self.site_accs.values()))) if self.site_accs else 0.0

    @property
    def best_acc(self) -> float:
        return max(self.site_accs.values()) if self.site_accs else 0.0


@dataclass
class FederatedResult:
    """Federated run outcome: accuracy plus the full simulation result."""

    final_acc: float
    best_acc: float
    simulation: SimulationResult


# ---------------------------------------------------------------------------
# classification schemes
# ---------------------------------------------------------------------------
def run_centralized(model_factory: ModelFactory, train: ClassificationDataset,
                    valid: ClassificationDataset, epochs: int = 10,
                    batch_size: int = 32, lr: float = 1e-2,
                    seed: int = 0, class_weights=None) -> SchemeResult:
    """Upper-bound scheme: pooled training."""
    model = model_factory()
    config = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed,
                         class_weights=class_weights)
    history = train_classifier(model, train, config, valid=valid)
    accs = [m.valid_acc for m in history if m.valid_acc is not None]
    final_acc, _ = evaluate_classifier(model, valid, batch_size)
    return SchemeResult(final_acc=final_acc,
                        best_acc=max(accs + [final_acc]),
                        history=history)


def run_standalone(model_factory: ModelFactory,
                   shards: dict[str, ClassificationDataset],
                   valid: ClassificationDataset, epochs: int = 10,
                   batch_size: int = 32, lr: float = 1e-2,
                   seed: int = 0, class_weights=None) -> StandaloneResult:
    """Lower-bound scheme: every site trains only on its own shard."""
    site_accs: dict[str, float] = {}
    for index, (site, shard) in enumerate(sorted(shards.items())):
        model = model_factory()
        config = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr,
                             seed=seed + index, class_weights=class_weights)
        train_classifier(model, shard, config)
        accuracy, _ = evaluate_classifier(model, valid, batch_size)
        site_accs[site] = accuracy
    return StandaloneResult(site_accs=site_accs)


def run_federated(model_factory: ModelFactory,
                  shards: dict[str, ClassificationDataset],
                  valid: ClassificationDataset, num_rounds: int = 10,
                  local_epochs: int = 10, batch_size: int = 32, lr: float = 1e-2,
                  seed: int = 0, job_name: str = "clinical-fl",
                  threads: bool = True, run_dir=None,
                  task_result_filters=None, class_weights=None,
                  fedprox_mu: float = 0.0,
                  transport: str | None = None) -> FederatedResult:
    """The paper's FL scheme: ScatterAndGather over the site shards."""
    site_names = sorted(shards)

    eval_model = model_factory()

    def evaluator(weights: dict[str, np.ndarray]) -> dict[str, float]:
        eval_model.load_state_dict({k: np.asarray(v) for k, v in weights.items()},
                                   strict=False)
        accuracy, loss = evaluate_classifier(eval_model, valid, batch_size)
        return {"valid_acc": accuracy, "valid_loss": loss}

    def learner_factory(client_name: str) -> ClinicalClassificationLearner:
        shard = shards[client_name]
        return ClinicalClassificationLearner(
            site_name=client_name, model_factory=model_factory,
            train_data=shard, valid_data=valid,
            local_epochs=local_epochs, batch_size=batch_size, lr=lr,
            seed=seed + site_names.index(client_name),
            class_weights=class_weights, fedprox_mu=fedprox_mu)

    job = FLJob(name=job_name,
                initial_weights=model_factory().state_dict(),
                learner_factory=learner_factory,
                num_rounds=num_rounds,
                evaluator=evaluator,
                task_result_filters=list(task_result_filters or []),
                transport=transport)
    runner = SimulatorRunner(job, n_clients=len(site_names), seed=seed,
                             threads=threads, run_dir=run_dir)
    simulation = runner.run()
    history = simulation.stats.global_metric_history("valid_acc")
    return FederatedResult(final_acc=history[-1] if history else 0.0,
                           best_acc=max(history) if history else 0.0,
                           simulation=simulation)


# ---------------------------------------------------------------------------
# MLM pretraining schemes (Fig. 2)
# ---------------------------------------------------------------------------
def run_centralized_mlm(model_factory: ModelFactory, train: SequenceDataset,
                        valid: SequenceDataset, collator: MlmCollator,
                        epochs: int = 10, batch_size: int = 32, lr: float = 1e-3,
                        seed: int = 0) -> list[EpochMetrics]:
    """Centralized MLM pretraining; returns the per-epoch loss history."""
    model = model_factory()
    config = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)
    return train_mlm(model, train, collator, config, valid=valid)


def run_federated_mlm(model_factory: ModelFactory,
                      shards: dict[str, SequenceDataset],
                      valid: SequenceDataset, collator: MlmCollator,
                      num_rounds: int = 10, local_epochs: int = 1,
                      batch_size: int = 32, lr: float = 1e-3, seed: int = 0,
                      job_name: str = "mlm-fl", threads: bool = True,
                      transport: str | None = None
                      ) -> tuple[list[float], SimulationResult]:
    """Federated MLM pretraining; returns per-round global MLM loss.

    ``collator`` gives the masking settings only: the evaluator and every
    site mask with their own copy, seeded from ``seed`` (and the site's
    place in the sorted site list). A masking RNG advances on every batch,
    so one shared by threaded sites would draw its masks in scheduling
    order, not seed order.
    """
    site_names = sorted(shards)
    eval_model = model_factory()
    eval_collator = _reseeded(collator, seed)

    def evaluator(weights: dict[str, np.ndarray]) -> dict[str, float]:
        eval_model.load_state_dict({k: np.asarray(v) for k, v in weights.items()},
                                   strict=False)
        return {"mlm_loss": evaluate_mlm(eval_model, valid, eval_collator, batch_size)}

    def learner_factory(client_name: str) -> MlmPretrainLearner:
        index = site_names.index(client_name)
        return MlmPretrainLearner(
            site_name=client_name, model_factory=model_factory,
            train_data=shards[client_name],
            collator=_reseeded(collator, seed + 1 + index),
            local_epochs=local_epochs, batch_size=batch_size, lr=lr,
            seed=seed + index)

    job = FLJob(name=job_name,
                initial_weights=model_factory().state_dict(),
                learner_factory=learner_factory,
                num_rounds=num_rounds,
                evaluator=evaluator,
                transport=transport)
    runner = SimulatorRunner(job, n_clients=len(shards), seed=seed,
                             threads=threads)
    simulation = runner.run()
    return simulation.stats.global_metric_history("mlm_loss"), simulation


def _reseeded(collator: MlmCollator, seed: int) -> MlmCollator:
    """A collator with ``collator``'s masking settings and its own RNG."""
    return MlmCollator(collator.vocab, mask_prob=collator.mask_prob,
                       replace_mask_frac=collator.replace_mask_frac,
                       replace_random_frac=collator.replace_random_frac, seed=seed)
