"""Test helpers: a toy learner with predictable arithmetic behaviour."""

from __future__ import annotations

import numpy as np

from repro.flare import DXO, DataKind, FLContext, Learner, MetaKey


class ToyLearner(Learner):
    """'Trains' by adding a fixed delta to every incoming weight.

    Deterministic and instant, so controller/simulator logic can be verified
    exactly: after FedAvg of identical learners, global weights advance by
    ``delta`` per round.
    """

    def __init__(self, site_name: str, delta: float = 1.0, steps: int = 10,
                 fail_on_round: int | None = None) -> None:
        super().__init__(name="ToyLearner")
        self.site_name = site_name
        self.delta = delta
        self.steps = steps
        self.fail_on_round = fail_on_round
        self.initialized = False
        self.finalized = False
        self.train_calls = 0
        self.seen_rounds: list[int] = []

    def initialize(self, fl_ctx: FLContext) -> None:
        self.initialized = True

    def train(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        round_number = int(fl_ctx.get_prop("current_round", 0))
        self.seen_rounds.append(round_number)
        self.train_calls += 1
        if self.fail_on_round is not None and round_number == self.fail_on_round:
            raise RuntimeError("injected failure")
        updated = {key: np.asarray(value) + self.delta
                   for key, value in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=updated,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: self.steps,
                         "train_loss": 1.0 / (1 + round_number),
                         "valid_acc": 0.5 + 0.01 * round_number})

    def validate(self, dxo: DXO, fl_ctx: FLContext) -> dict[str, float]:
        mean = float(np.mean([np.mean(np.asarray(v)) for v in dxo.data.values()]))
        return {"valid_acc": mean, "valid_loss": -mean}

    def finalize(self, fl_ctx: FLContext) -> None:
        self.finalized = True


def toy_weights(value: float = 0.0) -> dict[str, np.ndarray]:
    return {"layer.weight": np.full((2, 2), value, dtype=np.float32),
            "layer.bias": np.full(2, value, dtype=np.float32)}


def bert_topk_delta(seed: int = 0) -> tuple[DXO, int]:
    """One ``delta+fp16+topk:0.1`` update of the ``bert`` preset (the 9.87 MB
    state of the wire e2e workloads): a σ = 1e-3 Gaussian delta on every
    tensor through ``WireForm(top_k=0.1, float16=True)``.  Returns the
    WEIGHT_DIFF and the delta's float32 bytes."""
    from repro.data import build_clinical_vocab
    from repro.flare.filters import WireForm
    from repro.models import build_classifier

    model = build_classifier("bert", vocab_size=len(build_clinical_vocab()), seed=3)
    rng = np.random.default_rng(seed)
    wire = WireForm(top_k=0.1, float16=True)
    raw_bytes = 0
    for key, value in model.state_dict().items():
        delta = np.float32(1e-3) * rng.standard_normal(np.shape(value), dtype=np.float32)
        raw_bytes += delta.nbytes
        wire.add(key, delta)
    return wire.to_dxo(DataKind.WEIGHT_DIFF, {}), raw_bytes
