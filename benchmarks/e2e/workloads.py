"""The four workloads: generated inputs, the ``FLJob`` each one runs, and
the correctness checks on what the job returns.

Everything a job consumes — cohort, split, partition, model init, per-site
learner seeds, the ``ShiftLearner`` noise — is derived from the workload
seed here; the program (``repro``) receives only the generated inputs.
Jobs are built directly on ``FLJob`` with explicit per-site seeds, not via
``training.run_federated``, whose ``hash(client_name)`` seeds are salted
per interpreter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data import (
    CohortSpec,
    EhrTokenizer,
    build_clinical_vocab,
    encode_cohort,
    generate_cohort,
    partition_balanced,
    train_valid_split,
)
from repro.flare import DXO, DataKind, FLJob, Learner, MetaKey, ReservedKey, RunStats
from repro.models import build_classifier
from repro.training import ClinicalClassificationLearner, evaluate_classifier

N_SITES = 8
MAX_PARALLEL = 2
BATCH_SIZE = 32
SEQ_LEN = 40
PATIENTS = 1600
LOCAL_EPOCHS = 2
# Table I's 1e-2 leaves the numpy LSTM at the label prior for the first six
# rounds; at 1e-3 it learns from round 3, so final_loss guards real training.
LEARNING_RATE = 1e-3
NOISE_SIGMA = 1e-3
# Round counts below are sized so one job lasts about this long on the
# 2-core reference box; ``--seconds`` scales them in proportion.
NOMINAL_SECONDS = 25
# How many of the BERT state dict's tensors the FedAvg reference recomputes:
# regenerating all 2.46 M normals for 8 sites x 40 rounds would take longer
# than the job itself, and a fold error would show in every tensor alike.
REFERENCE_TENSORS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    model: str            # repro.models preset
    trains: bool          # real local training vs the numpy-only ShiftLearner
    rounds: int           # rounds (sync) or commits (async) at NOMINAL_SECONDS
    transport: str
    mode: str = "sync"
    compression: str | None = None

    def scaled_rounds(self, seconds: float) -> int:
        return max(2, round(self.rounds * seconds / NOMINAL_SECONDS))


# Why each one exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("lstm_sync_shm", model="lstm", trains=True, rounds=5,
             transport="shm"),
    Workload("bertmini_async_memory", model="bert-mini", trains=True, rounds=5,
             transport="memory", mode="async"),
    Workload("wire_raw_socket", model="bert", trains=False, rounds=28,
             transport="socket"),
    Workload("wire_comp_socket", model="bert", trains=False, rounds=36,
             transport="socket", compression="delta+fp16+topk:0.1"),
)}


def site_seed(seed: int, site: str) -> int:
    return seed * 1000 + int(site.rsplit("-", 1)[1])


class ShiftLearner(Learner):
    """Returns the global model plus seeded Gaussian noise: milliseconds of
    numpy, so a round's time is wire, fold and persist."""

    def __init__(self, site: str, seed: int) -> None:
        super().__init__(name="ShiftLearner")
        self.site = site
        self.seed = seed

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        round_number = int(fl_ctx.get_prop(ReservedKey.CURRENT_ROUND, 0))
        shifted = {
            key: np.asarray(value) + shift_noise(self.seed, round_number, index,
                                                 np.shape(value))
            for index, (key, value) in enumerate(dxo.data.items())}
        return DXO(DataKind.WEIGHTS, data=shifted,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1, "site": self.site})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        return {}


def shift_noise(seed: int, round_number: int, tensor_index: int,
                shape: tuple[int, ...]) -> np.ndarray:
    """One tensor's noise; seeded per tensor so the FedAvg reference can
    regenerate a sample of tensors without drawing the whole model."""
    rng = np.random.default_rng((seed, round_number, tensor_index))
    return np.float32(NOISE_SIGMA) * rng.standard_normal(shape, dtype=np.float32)


@dataclass
class Inputs:
    """What set-up generates for one (workload, seed): the job's inputs."""

    workload: Workload
    seed: int
    rounds: int
    initial_weights: dict[str, np.ndarray]
    evaluator: Callable[[dict[str, np.ndarray]], dict[str, float]]
    learner_factory: Callable[[str], Learner]
    initial_loss: float
    # training workloads only: what the layer replay steps a model on
    model_factory: Callable[[], object] | None = None
    first_batch: tuple | None = None

    def job(self, **wrapped) -> FLJob:
        """The job as the program sees it; ``wrapped`` lets the traced run
        substitute its timed learner factory / evaluator / aggregator /
        stamp filters for the plain ones."""
        workload = self.workload
        options = dict(
            name=workload.name, initial_weights=self.initial_weights,
            learner_factory=self.learner_factory, evaluator=self.evaluator,
            num_rounds=self.rounds, transport=workload.transport,
            mode=workload.mode, compression=workload.compression,
            sampling_seed=self.seed)
        if workload.mode == "async":
            options.update(buffer_size=4, concurrency=N_SITES, min_clients=4)
        options.update(wrapped)
        return FLJob(**options)


def generate(workload: Workload, seed: int, seconds: float,
             patients: int = PATIENTS) -> Inputs:
    rounds = workload.scaled_rounds(seconds)
    if workload.trains:
        return _training_inputs(workload, seed, rounds, patients)
    return _wire_inputs(workload, seed, rounds)


def _training_inputs(workload: Workload, seed: int, rounds: int,
                     patients: int) -> Inputs:
    cohort = generate_cohort(CohortSpec(n_patients=patients, seed=seed))
    dataset = encode_cohort(cohort, EhrTokenizer(cohort.vocab, max_len=SEQ_LEN))
    train_idx, valid_idx = train_valid_split(len(dataset), valid_fraction=0.2,
                                             seed=seed)
    train, valid = dataset.subset(train_idx), dataset.subset(valid_idx)
    shards = {f"site-{index + 1}": train.subset(shard) for index, shard in
              enumerate(partition_balanced(len(train), N_SITES, seed=seed))}
    overrides = {"max_seq_len": SEQ_LEN} if workload.model.startswith("bert") else {}

    def model_factory():
        return build_classifier(workload.model, vocab_size=len(cohort.vocab),
                                seed=seed, **overrides)

    eval_model = model_factory()

    def evaluator(weights: dict[str, np.ndarray]) -> dict[str, float]:
        eval_model.load_state_dict({k: np.asarray(v) for k, v in weights.items()},
                                   strict=False)
        accuracy, loss = evaluate_classifier(eval_model, valid, BATCH_SIZE)
        return {"valid_acc": accuracy, "valid_loss": loss}

    def learner_factory(site: str) -> Learner:
        return ClinicalClassificationLearner(
            site_name=site, model_factory=model_factory, train_data=shards[site],
            valid_data=None, local_epochs=LOCAL_EPOCHS, batch_size=BATCH_SIZE,
            lr=LEARNING_RATE, seed=site_seed(seed, site))

    initial_weights = model_factory().state_dict()
    return Inputs(workload, seed, rounds, initial_weights, evaluator,
                  learner_factory,
                  initial_loss=evaluator(initial_weights)["valid_loss"],
                  model_factory=model_factory,
                  first_batch=next(iter(shards["site-1"].iter_batches(BATCH_SIZE))))


def _wire_inputs(workload: Workload, seed: int, rounds: int) -> Inputs:
    model = build_classifier(workload.model, vocab_size=len(build_clinical_vocab()),
                             seed=seed)
    initial_weights = {key: np.array(value) for key, value in
                       model.state_dict().items()}
    size = sum(value.size for value in initial_weights.values())

    def evaluator(weights: dict[str, np.ndarray]) -> dict[str, float]:
        """RMS drift of the global from the initial weights in units of the
        noise sigma: the wire workloads' stand-in for a validation loss, so
        a lossy codec or a wrong fold moves ``final_loss`` here too."""
        squares = 0.0
        for key, value in weights.items():
            delta = (np.asarray(value) - initial_weights[key]).ravel()
            squares += float(np.dot(delta, delta))
        return {"valid_loss": (squares / size) ** 0.5 / NOISE_SIGMA}

    return Inputs(workload, seed, rounds, initial_weights, evaluator,
                  lambda site: ShiftLearner(site, site_seed(seed, site)),
                  initial_loss=evaluator(initial_weights)["valid_loss"])


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------
def checkpoint_digest(weights: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for key in sorted(weights):
        value = np.ascontiguousarray(weights[key])
        digest.update(f"{key}|{value.dtype.str}|{value.shape}|".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def task_counts(stats: RunStats) -> tuple[int, int]:
    """(tasks answered, tasks not folded for cause).  Async stragglers
    drained at run end never reach a round record and are not failures."""
    attempted = failed = 0
    for record in stats.rounds:
        tasks = len(record.client_records) + len(record.dropped_clients)
        attempted += tasks
        failed += len(record.dropped_clients) if record.quorum_met else tasks
    return attempted, failed


def check(inputs: Inputs, stats: RunStats,
          final_weights: dict[str, np.ndarray]) -> list[str]:
    """Every way this run's outputs are wrong (empty = correct)."""
    problems = []
    if stats.num_rounds != inputs.rounds:
        problems.append(f"{stats.num_rounds} rounds recorded, {inputs.rounds} asked")
    if stats.failed_rounds:
        problems.append(f"{stats.failed_rounds} round(s) under quorum")
    if stats.dropped_clients:
        problems.append(f"dropped clients: {stats.dropped_clients}")
    if not all(np.isfinite(np.asarray(v)).all() for v in final_weights.values()):
        problems.append("non-finite weights in the final global model")
    if inputs.workload.trains:
        final_loss = stats.final_global_metric("valid_loss")
        if not final_loss < inputs.initial_loss:
            problems.append(f"final_loss {final_loss:.4f} is not below the initial "
                            f"weights' loss {inputs.initial_loss:.4f}")
    elif inputs.workload.compression is None:
        problems.extend(_fedavg_mismatches(inputs, final_weights))
    return problems


def _fedavg_mismatches(inputs: Inputs, final_weights) -> list[str]:
    """Compare a sample of tensors with a FedAvg of the ShiftLearner noise
    recomputed here in float64 numpy, independently of the program."""
    keys = list(inputs.initial_weights)
    stride = max(1, len(keys) // REFERENCE_TENSORS)
    sites = [site_seed(inputs.seed, f"site-{i + 1}") for i in range(N_SITES)]
    problems = []
    for index in range(inputs.seed % stride, len(keys), stride):
        key = keys[index]
        expected = inputs.initial_weights[key].astype(np.float64)
        for round_number in range(inputs.rounds):
            expected += np.mean(
                [shift_noise(site, round_number, index, expected.shape)
                 for site in sites], axis=0, dtype=np.float64)
        if not np.allclose(final_weights[key], expected, rtol=1e-4, atol=1e-5):
            worst = float(np.max(np.abs(final_weights[key] - expected)))
            problems.append(f"{key} differs from the FedAvg reference by {worst:.2e}")
    return problems
