"""End-to-end multi-process federation over the socket transport.

The acceptance bar for the socket runtime: the *same job, same seed* must
produce bit-identical global checkpoints whether the clients are threads on
the in-memory bus or separate OS processes on TCP loopback.  FedAvg
accumulates contributions in float64 and casts the aggregate to float32,
so arrival-order differences between the fabrics wash out below the stored
precision — any surviving difference is a transport bug.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.data import MlmCollator, SequenceDataset, partition_balanced
from repro.flare import (
    FederatedClient,
    FLJob,
    FLServer,
    MessageBus,
    ProcessClientRunner,
    Provisioner,
    ReceiveTimeout,
    SimulatorRunner,
    default_project,
)
from repro.models import build_mlm_model
from repro.training import MlmPretrainLearner

from .helpers import ToyLearner, toy_weights


def toy_job(num_rounds: int = 2, min_clients: int = 4) -> FLJob:
    return FLJob(name="socket-e2e", initial_weights=toy_weights(0.0),
                 learner_factory=lambda name: ToyLearner(name, delta=1.0),
                 num_rounds=num_rounds, min_clients=min_clients)


def run_sim(job: FLJob, transport: str, tmp_path, tag: str, **kwargs):
    runner = SimulatorRunner(replace(job, transport=transport), n_clients=4, seed=7,
                             run_dir=tmp_path / f"{tag}-{transport}", **kwargs)
    return runner.run()


def assert_bit_identical(memory_result, socket_result) -> None:
    assert set(memory_result.final_weights) == set(socket_result.final_weights)
    for key in memory_result.final_weights:
        np.testing.assert_array_equal(memory_result.final_weights[key],
                                      socket_result.final_weights[key])


class TestSocketEndToEnd:
    def test_toy_job_bit_identical_across_transports(self, tmp_path):
        job = toy_job()
        memory_result = run_sim(job, "memory", tmp_path, "toy")
        socket_result = run_sim(job, "socket", tmp_path, "toy")
        assert_bit_identical(memory_result, socket_result)
        for key in memory_result.best_weights:
            np.testing.assert_array_equal(memory_result.best_weights[key],
                                          socket_result.best_weights[key])
        # seeded provisioning: the same sites get the same join tokens
        assert memory_result.tokens == socket_result.tokens
        assert socket_result.stats.num_rounds == 2
        assert all(record.quorum_met for record in socket_result.stats.rounds)

    def test_mlm_job_bit_identical_across_transports(self, tmp_path,
                                                     tiny_sequences,
                                                     tiny_cohort, vocab_size):
        """The ISSUE acceptance criterion: a 2-round federated MLM job."""
        shard_indices = partition_balanced(len(tiny_sequences), 4, seed=0)
        shards = {f"site-{i + 1}": tiny_sequences.subset(s)
                  for i, s in enumerate(shard_indices)}
        site_seeds = {name: 100 + i for i, name in enumerate(sorted(shards))}

        def model_factory():
            return build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                   max_seq_len=24)

        def learner_factory(client_name: str) -> MlmPretrainLearner:
            # per-site collator: MlmCollator is stateful (its masking RNG
            # advances per call), so sharing one across sites would tie the
            # masks to thread/process scheduling instead of the seed
            collator = MlmCollator(tiny_cohort.vocab,
                                   seed=site_seeds[client_name])
            return MlmPretrainLearner(
                site_name=client_name, model_factory=model_factory,
                train_data=shards[client_name], collator=collator,
                local_epochs=1, batch_size=16, lr=1e-3,
                seed=site_seeds[client_name])

        job = FLJob(name="mlm-socket", initial_weights=model_factory().state_dict(),
                    learner_factory=learner_factory, num_rounds=2, min_clients=4)
        memory_result = run_sim(job, "memory", tmp_path, "mlm")
        socket_result = run_sim(job, "socket", tmp_path, "mlm")
        assert_bit_identical(memory_result, socket_result)

    def test_health_monitor_over_sockets(self, tmp_path):
        result = run_sim(toy_job(), "socket", tmp_path, "health", health=True)
        health_path = result.run_dir / "health.jsonl"
        assert health_path.exists()
        records = [json.loads(line)
                   for line in health_path.read_text().splitlines() if line]
        rounds_seen = {record["round_number"] for record in records
                       if record.get("event") == "round"}
        assert rounds_seen == {0, 1}

    def test_telemetry_over_sockets(self, tmp_path):
        result = run_sim(toy_job(), "socket", tmp_path, "telemetry",
                         telemetry=True)
        counters = json.loads(
            (result.run_dir / "metrics.json").read_text())["counters"]
        names = {entry["name"] for entry in counters}
        # hub-side delivery totals made it into the run's telemetry export
        assert "transport.messages_delivered" in names

    def test_compression_over_sockets_matches_memory(self, tmp_path):
        job = toy_job()
        memory_result = run_sim(replace(job, compression="delta+fp16"), "memory",
                                tmp_path, "comp")
        socket_result = run_sim(replace(job, compression="delta+fp16"), "socket",
                                tmp_path, "comp")
        for key in memory_result.final_weights:
            np.testing.assert_allclose(memory_result.final_weights[key],
                                       socket_result.final_weights[key],
                                       atol=1e-3)


class TestRunnerAndConfig:
    def test_transport_validation(self):
        with pytest.raises(ValueError, match="transport"):
            FLJob(name="bad", initial_weights=toy_weights(),
                  learner_factory=lambda name: ToyLearner(name),
                  transport="carrier-pigeon")

    def test_socket_requires_threads(self):
        with pytest.raises(ValueError, match="threads"):
            SimulatorRunner(replace(toy_job(), transport="socket"), threads=False)

    def test_job_transport_field_drives_runner(self, tmp_path):
        job = toy_job()
        job.transport = "socket"
        result = SimulatorRunner(job, n_clients=4, seed=7,
                                 run_dir=tmp_path / "job-field").run()
        assert result.stats.num_rounds == 2

    def test_runner_rejects_memory_bus(self):
        project = default_project(n_clients=1, name="t")
        kits = Provisioner(project, seed=0, key_bits=512).provision()
        server = FLServer(kits["server"], MessageBus(), seed=0)
        with pytest.raises(TypeError, match="SocketMessageBus"):
            ProcessClientRunner(lambda name: ToyLearner(name), kits, server)

    def test_client_processes_exit_cleanly(self, tmp_path):
        from repro.flare.socket_transport import SocketMessageBus

        project = default_project(n_clients=2, name="t")
        kits = Provisioner(project, seed=0, key_bits=512).provision()
        hub = SocketMessageBus()
        server = FLServer(kits["server"], hub, seed=0)
        runner = ProcessClientRunner(lambda name: ToyLearner(name), kits,
                                     server, heartbeat_interval=0.5)
        names = ["site-1", "site-2"]
        tokens = runner.launch(names)
        assert set(tokens) == set(names)
        assert set(runner.alive()) == set(names)
        server.stop_clients(names)
        exit_codes = runner.join(timeout=20.0)
        assert exit_codes == {"site-1": 0, "site-2": 0}
        hub.close()

    def test_poll_once_timeout_names_the_stalled_wait(self):
        """Regression: a client's idle receive names topic and server peer."""
        project = default_project(n_clients=1, name="t")
        kits = Provisioner(project, seed=0, key_bits=512).provision()
        bus = MessageBus()
        server = FLServer(kits["server"], bus, seed=0)
        client = FederatedClient(kits["site-1"], ToyLearner("site-1"), bus)
        client.register(server)
        with pytest.raises(ReceiveTimeout) as excinfo:
            client.poll_once(timeout=0.05)
        assert excinfo.value.endpoint == "site-1"
        assert excinfo.value.topic == "task"
        assert excinfo.value.peer == server.name
        assert "expected topic 'task'" in str(excinfo.value)
