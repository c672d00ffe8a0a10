"""Part B of the per-layer numbers: each layer's public functions called
directly on the workload's own tensors.

Runs in the traced run's subprocess after the job has returned, so it never
touches the untraced timings or RSS.  The payload is a real client update —
the workload's own learner trained once more on the final global — pushed
through that workload's compression chain, codec and fabric.  Every figure
is the median of ``CALLS`` calls.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro.autograd import Adam, functional as F
from repro.flare import (
    DXO,
    CompressionConfig,
    DataKind,
    FLContext,
    MessageBus,
    ModelPersistor,
    Provisioner,
    ReservedKey,
    Shareable,
    ShmMessageBus,
    SocketMessageBus,
    TopKSparsify,
    default_project,
    from_dxo,
    hmac_sign,
    hmac_verify,
)

from .workloads import LEARNING_RATE, N_SITES, Inputs

CALLS = 30
SERVER, ECHO = "server", "echo"
SERVER_KEY, ECHO_KEY = b"s" * 32, b"e" * 32


def _median_seconds(call, calls: int = CALLS) -> float:
    samples = []
    for _ in range(calls):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return median(samples)


def replay(inputs: Inputs, final_weights: dict[str, np.ndarray],
           directory: Path) -> dict[str, float]:
    workload = inputs.workload
    metrics: dict[str, float] = {}

    project = default_project(n_clients=N_SITES, name=workload.name)
    metrics["provision.provision_s"] = _median_seconds(
        lambda: Provisioner(project, seed=inputs.seed, key_bits=512).provision())

    metrics.update(_autograd_step(inputs))

    # one real client update on the final global, then the uplink as sent
    context = FLContext(identity="site-1")
    context.set_prop(ReservedKey.GLOBAL_MODEL, final_weights)
    context.set_prop(ReservedKey.CURRENT_ROUND, inputs.rounds)
    learner = inputs.learner_factory("site-1")
    learner.initialize(context)
    update = learner.train(DXO(DataKind.WEIGHTS, data=final_weights), context)
    compression = CompressionConfig.from_spec(workload.compression)
    sent = update
    if compression is not None:
        sent, filter_metrics = _filter_chains(compression, update, final_weights,
                                              context)
        metrics.update(filter_metrics)
    else:
        metrics.update({"filters.client_result_s": 0.0, "filters.server_result_s": 0.0,
                        "filters.downlink_s": 0.0})
    blob = sent.to_bytes()
    metrics["filters.bytes_ratio"] = len(blob) / len(update.to_bytes())

    metrics["codec.encode_s"] = _median_seconds(sent.to_bytes)
    metrics["codec.decode_s"] = _median_seconds(lambda: DXO.from_bytes(blob))
    metrics["codec.payload_mb"] = len(blob) / 1e6
    metrics["security.sign_verify_s"] = _median_seconds(
        lambda: hmac_verify(blob, hmac_sign(blob, SERVER_KEY), SERVER_KEY))

    roundtrip = _transport_roundtrip(workload.transport, from_dxo(sent))
    metrics["transport.roundtrip_s"] = roundtrip
    metrics["transport.mb_per_s"] = 2 * len(blob) / 1e6 / roundtrip

    persistor = ModelPersistor(directory / "replay-models")
    metrics["persistor.save_s"] = _median_seconds(
        lambda: persistor.save(final_weights, context))
    return metrics


def _autograd_step(inputs: Inputs) -> dict[str, float]:
    """One batch-32 step of the workload's model, phase by phase."""
    if inputs.model_factory is None:  # ShiftLearner workloads build no graph
        return {"autograd.forward_s": 0.0, "autograd.backward_s": 0.0,
                "autograd.optimizer_s": 0.0, "training.step_s": 0.0}
    model = inputs.model_factory()
    model.train()
    optimizer = Adam(model.parameters(), lr=LEARNING_RATE)
    ids, mask, labels = inputs.first_batch
    phases: dict[str, list[float]] = {"forward": [], "backward": [], "optimizer": []}
    for _ in range(CALLS):
        model.zero_grad()
        t0 = time.perf_counter()
        loss = F.cross_entropy(model(ids, attention_mask=mask), labels)
        t1 = time.perf_counter()
        loss.backward()
        t2 = time.perf_counter()
        optimizer.step()
        t3 = time.perf_counter()
        phases["forward"].append(t1 - t0)
        phases["backward"].append(t2 - t1)
        phases["optimizer"].append(t3 - t2)
    result = {f"autograd.{name}_s": median(samples)
              for name, samples in phases.items()}
    result["training.step_s"] = median(map(sum, zip(*phases.values())))
    return result


def _filter_chains(compression: CompressionConfig, update: DXO,
                   global_weights: dict[str, np.ndarray],
                   context: FLContext) -> tuple[DXO, dict[str, float]]:
    def run(chain, dxo):
        for dxo_filter in chain:
            dxo = dxo_filter.process(dxo, context)
        return dxo

    client_chain = compression.client_result_filters()
    sent = run(client_chain, update)
    blob = sent.to_bytes()
    server_chain = compression.server_result_filters()
    # what the controller does to a round's model delta before broadcasting it
    delta = DXO(DataKind.WEIGHT_DIFF,
                data={key: np.asarray(value) - np.asarray(global_weights[key])
                      for key, value in update.data.items()})
    downlink_chain = ([TopKSparsify(ratio=compression.top_k)]
                      if compression.top_k else [])
    downlink_chain += compression.downlink_task_filters()

    server_samples = []
    for _ in range(CALLS):
        received = DXO.from_bytes(blob)  # decode is the codec's time, not ours
        started = time.perf_counter()
        run(server_chain, received)
        server_samples.append(time.perf_counter() - started)
    return sent, {
        "filters.client_result_s": _median_seconds(lambda: run(client_chain, update)),
        "filters.server_result_s": median(server_samples),
        "filters.downlink_s": _median_seconds(lambda: run(downlink_chain, delta)),
    }


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------
def _echo(bus) -> None:
    while True:
        sender, topic, shareable = bus.receive(ECHO, timeout=60.0)
        if topic == "stop":
            return
        bus.send_shareable(ECHO, sender, topic, shareable)


def _socket_echo(address) -> None:
    spoke = SocketMessageBus.connect(address)
    try:
        spoke.register_endpoint(ECHO)
        spoke.register_peer(SERVER)
        spoke.install_session_key(ECHO, ECHO_KEY)
        spoke.install_session_key(SERVER, SERVER_KEY)
        _echo(spoke)
    finally:
        spoke.close()


def _transport_roundtrip(transport: str, shareable: Shareable) -> float:
    """``send_shareable`` + ``receive`` to an echo peer and back; the peer
    is a thread on the memory bus and a forked process on socket / shm,
    which is how each fabric's clients run."""
    fork = multiprocessing.get_context("fork")
    if transport == "socket":
        bus = SocketMessageBus()
        bus.register_endpoint(SERVER)
        bus.register_peer(ECHO)
        peer = fork.Process(target=_socket_echo, args=(bus.address,), daemon=True)
    else:
        bus = ShmMessageBus() if transport == "shm" else MessageBus()
        bus.register_endpoint(SERVER)
        bus.register_endpoint(ECHO)
        peer = (fork.Process(target=_echo, args=(bus,), daemon=True)
                if transport == "shm"
                else threading.Thread(target=_echo, args=(bus,), daemon=True))
    bus.install_session_key(SERVER, SERVER_KEY)
    bus.install_session_key(ECHO, ECHO_KEY)
    try:
        peer.start()
        if transport == "socket":
            bus.wait_for_endpoints([ECHO], timeout=30.0)

        def roundtrip() -> None:
            bus.send_shareable(SERVER, ECHO, "echo", shareable)
            bus.receive(SERVER, timeout=60.0)

        return _median_seconds(roundtrip)
    finally:
        bus.send_shareable(SERVER, ECHO, "stop", Shareable())
        peer.join(timeout=30.0)
        if peer.is_alive() and transport != "memory":
            peer.terminate()
            peer.join(timeout=10.0)
        bus.close()
