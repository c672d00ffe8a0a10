"""Wire benchmark: codec throughput and federated bytes-per-round.

Three families of measurements (the PR 4 figures are in BENCH_pr4.json
under ``"wire"``; ``codec.*`` of a traced ``benchmarks/e2e`` run is the
codec's cost inside a round):

- ``test_codec_encode`` / ``test_codec_decode`` time the RTC1 zero-copy
  codec on real model state dicts (Table II sizes).
- ``test_federated_round_bytes`` runs a short simulated federation per
  compression setting and attaches the measured wire traffic (bytes per
  round, raw vs encoded tensor bytes) to the benchmark record.
- ``test_topk_message_codec`` times the codec encode of one
  ``delta+fp16+topk:0.1`` BERT message and records its bytes and decode
  time.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.flare import (
    DXO,
    DataKind,
    FLContext,
    FLJob,
    Learner,
    MetaKey,
    SimulatorRunner,
)
from repro.flare.codec import decode_tensors, encode_tensors
from repro.models import build_classifier
from tests.flare.helpers import bert_topk_delta

MODELS = ["bert", "bert-mini", "lstm"]
VOCAB = 200

COMPRESSION_SETTINGS = {
    "none": None,
    "delta+fp16": "delta+fp16",
    "delta+fp16+topk": "delta+fp16+topk:0.1",
}


def model_state(model_name: str) -> dict[str, np.ndarray]:
    return dict(build_classifier(model_name, vocab_size=VOCAB, seed=0).state_dict())


class DriftLearner(Learner):
    """Deterministic stand-in for local training: adds a small seeded
    perturbation to every float tensor.  Instant, so the benchmark measures
    the wire, not the optimizer."""

    def __init__(self, site_name: str, scale: float = 1e-3) -> None:
        super().__init__(name="DriftLearner")
        # by site index: hash() of a str is salted per interpreter
        self.rng = np.random.default_rng(int(site_name.rsplit("-", 1)[1]))
        self.scale = scale

    def train(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        updated = {}
        for key, value in dxo.data.items():
            value = np.asarray(value)
            if value.dtype.kind == "f":
                drift = self.rng.normal(0.0, self.scale, size=value.shape)
                updated[key] = (value + drift).astype(value.dtype)
            else:
                updated[key] = value
        return DXO(DataKind.WEIGHTS, data=updated,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1})

    def validate(self, dxo: DXO, fl_ctx: FLContext) -> dict[str, float]:
        return {"valid_acc": 0.0}


# ---------------------------------------------------------------------------
# codec throughput
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model_name", MODELS)
def test_codec_encode(benchmark, model_name):
    state = model_state(model_name)
    blob = benchmark(encode_tensors, state)
    benchmark.extra_info["payload_bytes"] = int(sum(a.nbytes for a in state.values()))
    benchmark.extra_info["blob_bytes"] = len(blob)


@pytest.mark.parametrize("model_name", MODELS)
def test_codec_decode(benchmark, model_name):
    state = model_state(model_name)
    blob = encode_tensors(state)
    arrays = benchmark(lambda: decode_tensors(blob)[0])
    assert set(arrays) == set(state)
    benchmark.extra_info["blob_bytes"] = len(blob)


def test_topk_message_codec(benchmark):
    dxo, raw_bytes = bert_topk_delta()
    blob = benchmark(encode_tensors, dxo.data, {"meta": dxo.meta})
    decode_s = []
    for _ in range(9):
        started = time.perf_counter()
        decode_tensors(blob)
        decode_s.append(time.perf_counter() - started)
    benchmark.extra_info.update({
        "raw_float32_bytes": raw_bytes,
        "blob_bytes": len(blob),
        "decode_s_median": float(np.median(decode_s)),
    })


# ---------------------------------------------------------------------------
# federated wire traffic per compression setting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("setting", list(COMPRESSION_SETTINGS))
@pytest.mark.parametrize("model_name", MODELS)
def test_federated_round_bytes(benchmark, tmp_path, model_name, setting):
    rounds, n_clients = 3, 2
    job = FLJob(name=f"wire-{model_name}-{setting}",
                initial_weights=model_state(model_name),
                learner_factory=lambda name: DriftLearner(name),
                num_rounds=rounds, compression=COMPRESSION_SETTINGS[setting])

    def run():
        return SimulatorRunner(
            job, n_clients=n_clients, seed=0,
            run_dir=tmp_path / f"{model_name}-{setting}",
            capture_log=False).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    stats = result.stats
    per_round = [record.bytes_on_wire for record in stats.rounds]
    benchmark.extra_info.update({
        "model": model_name,
        "compression": setting,
        "rounds": rounds,
        "n_clients": n_clients,
        "bytes_delivered": stats.bytes_delivered,
        "bytes_per_round_mean": int(np.mean(per_round)),
        # steady state: from round 1 on, downlink deltas are active
        "bytes_per_round_steady": int(np.mean(per_round[1:])) if len(per_round) > 1
        else int(per_round[0]),
        "round_seconds_mean": float(np.mean([r.seconds for r in stats.rounds])),
        "wire_bytes_raw": stats.wire_bytes_raw,
        "wire_bytes_encoded": stats.wire_bytes_encoded,
    })
    assert stats.failed_rounds == 0
    assert not stats.dropped_clients
