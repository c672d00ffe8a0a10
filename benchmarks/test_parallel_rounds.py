"""Wall-clock per federated round: serial fabric vs the shm worker pool,
plus array-backend A/Bs at model shapes.

The cross-fabric bit-identity gate is ``python -m repro.smoke fabrics``;
a whole job's wall-clock, per layer and parent against change, is
``benchmarks/e2e`` with ``scripts/ab_bench.py``.  Protocol notes in
"Measuring parallel rounds" in ``docs/PERFORMANCE.md`` apply: compare
back-to-back ratios, never absolute times, and read the core count before
reading a speedup.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.autograd import Tensor, available_backends, functional as F, use_backend
from repro.flare import DXO, DataKind, FLJob, Learner, MetaKey, SimulatorRunner
from repro.models import build_classifier

from .conftest import run_once


class StepLearner(Learner):
    """A learner doing real fused-kernel work: N train steps per round."""

    def __init__(self, site_name: str, steps: int = 4) -> None:
        super().__init__(name="StepLearner")
        self.site_name = site_name
        self.steps = steps
        self.model = build_classifier("bert-mini", vocab_size=60,
                                      seed=abs(hash(site_name)) % 1000)
        rng = np.random.default_rng(abs(hash(site_name)) % 2**31)
        self.ids = rng.integers(1, 60, size=(8, 24))
        self.labels = rng.integers(0, 2, size=8)

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        self.model.load_state_dict({k: np.asarray(v)
                                    for k, v in dxo.data.items()})
        for _ in range(self.steps):
            self.model.zero_grad()
            loss = F.cross_entropy(self.model(self.ids), self.labels)
            loss.backward()
        return DXO(DataKind.WEIGHTS, data=self.model.state_dict(),
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: self.steps})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        return {"valid_acc": 0.0}


def federated_job(rounds: int = 2) -> FLJob:
    weights = build_classifier("bert-mini", vocab_size=60, seed=0).state_dict()
    return FLJob(name="parallel-bench", initial_weights=weights,
                 learner_factory=lambda name: StepLearner(name),
                 num_rounds=rounds, min_clients=4, result_timeout=300.0)


@pytest.mark.parametrize("transport", ["memory", "shm"])
def test_federated_round_wallclock(benchmark, tmp_path, transport):
    """Whole-run wall clock on each fabric — the honest pool metric."""
    rounds = 2

    def run():
        return SimulatorRunner(replace(federated_job(rounds), transport=transport),
                               n_clients=4, seed=7,
                               run_dir=tmp_path / f"{transport}-run").run()

    result = run_once(benchmark, run)
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    benchmark.extra_info["transport"] = transport
    benchmark.extra_info["rounds"] = rounds
    benchmark.extra_info["clients"] = 4
    benchmark.extra_info["cores"] = cores
    assert result.stats.num_rounds == rounds


@pytest.mark.parametrize("backend_name", available_backends())
def test_gelu_chain_by_backend(benchmark, backend_name):
    """The GELU fwd+bwd hot loop under each registered backend."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(16, 40, 256)).astype(np.float32),
               requires_grad=True)

    def step():
        with use_backend(backend_name):
            x.grad = None
            out = F.gelu(x)
            out.backward(np.ones_like(out.data))
        return out

    benchmark(step)
    benchmark.extra_info["backend"] = backend_name


@pytest.mark.parametrize("backend_name", available_backends())
def test_lstm_gates_by_backend(benchmark, backend_name):
    """The sigmoid-heavy LSTM gate math under each registered backend."""
    rng = np.random.default_rng(1)
    hd = 128
    gates = Tensor(rng.normal(size=(32, 4 * hd)).astype(np.float32),
                   requires_grad=True)
    h = Tensor(rng.normal(size=(32, hd)).astype(np.float32),
               requires_grad=True)
    c = Tensor(rng.normal(size=(32, hd)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.normal(size=(4 * hd, hd)).astype(np.float32),
               requires_grad=True)

    def step():
        with use_backend(backend_name):
            for p in (gates, h, c, w):
                p.grad = None
            h_out, c_out = F.lstm_step(gates, h, c, w)
            (h_out.sum() + c_out.sum()).backward()
        return h_out

    benchmark(step)
    benchmark.extra_info["backend"] = backend_name
