"""The run-level abort signal: a finished workflow waits for no training.

The controller sets the signal where it used to drain in-flight tasks; a
TRAIN task queued at the gate is dropped unrun, a learner polling
``fl_ctx.get_prop(ReservedKey.ABORT_SIGNAL)`` returns within one batch, an
aborted task sends no reply, and no client thread outlives ``run()``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.flare import (
    Buffered,
    CrossSiteModelEval,
    FLContext,
    FLJob,
    FLServer,
    FederatedClient,
    InTimeAccumulateWeightedAggregator,
    MessageBus,
    Provisioner,
    ReservedKey,
    ScatterAndGather,
    SimulatorRunner,
    default_project,
    from_dxo,
)
from repro.flare import simulator as simulator_module
from repro.flare.constants import TaskName
from repro.flare.dxo import DXO, DataKind
from repro.models import build_classifier
from repro.training import ClinicalClassificationLearner, TrainConfig, train_classifier

from .helpers import ToyLearner, toy_weights

BATCH_SECONDS = 0.2


class BatchedLearner(ToyLearner):
    """``batches`` steps of ``BATCH_SECONDS`` each, polling the abort
    signal between them the way ``train_classifier`` does."""

    started = 0          # class-wide, so threaded runs count across sites
    cut_short = 0
    _lock = threading.Lock()

    def __init__(self, site_name: str, batches: int = 2) -> None:
        super().__init__(site_name)
        self.batches = batches

    def train(self, dxo, fl_ctx):
        with BatchedLearner._lock:
            BatchedLearner.started += 1
        abort = fl_ctx.get_prop(ReservedKey.ABORT_SIGNAL)
        for _ in range(self.batches):
            if abort.wait(BATCH_SECONDS):
                with BatchedLearner._lock:
                    BatchedLearner.cut_short += 1
                break
        return super().train(dxo, fl_ctx)


@pytest.fixture(autouse=True)
def _reset_counters():
    BatchedLearner.started = BatchedLearner.cut_short = 0


def client_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("client-")]


def buffered_job(**overrides) -> FLJob:
    """The benchmark's async shape: 8 sites all tasked, commit every 4."""
    options = dict(name="abort", initial_weights=toy_weights(0.0),
                   learner_factory=BatchedLearner, num_rounds=3, mode="async",
                   buffer_size=4, concurrency=8, min_clients=4)
    options.update(overrides)
    return FLJob(**options)


def train_task():
    task = from_dxo(DXO(DataKind.WEIGHTS, data=toy_weights(0.0)))
    task.set_header(ReservedKey.ROUND_NUMBER, 0)
    return task


# ----------------------------------------------------------------------
# the client: gate, mid-training, no reply
# ----------------------------------------------------------------------
class TestClientHonoursTheSignal:
    @pytest.fixture()
    def two_clients(self):
        kits = Provisioner(default_project(n_clients=2, name="gate"), seed=0,
                           key_bits=128).provision()
        bus = MessageBus()
        server = FLServer(kits["server"], bus, seed=0)
        gate = threading.Semaphore(1)
        clients = []
        for name in ("site-1", "site-2"):
            client = FederatedClient(kits[name], BatchedLearner(name, batches=50),
                                     bus)
            client.task_semaphore = gate
            client.abort_signal = server.abort_signal
            client.register(server)
            clients.append(client)
        return server, clients

    def test_task_queued_at_the_gate_never_reaches_train(self, two_clients):
        server, (first, second) = two_clients
        replies = {}

        def work(client):
            replies[client.name] = client.process_task(TaskName.TRAIN, train_task())

        threads = [threading.Thread(target=work, args=(client,))
                   for client in (first, second)]
        threads[0].start()
        while BatchedLearner.started == 0:   # site-1 holds the gate, training
            time.sleep(0.01)
        threads[1].start()
        time.sleep(0.05)                     # site-2 is now parked at the gate
        began = time.monotonic()
        server.abort_signal.set()
        for thread in threads:
            thread.join(5.0)
        assert time.monotonic() - began < 2 * BATCH_SECONDS  # within one batch
        assert BatchedLearner.started == 1
        assert second.learner.train_calls == 0
        assert replies == {"site-1": None, "site-2": None}   # nothing to send

    def test_validate_is_still_served_after_the_abort(self, two_clients):
        server, (first, _) = two_clients
        server.abort_signal.set()
        assert first.process_task(TaskName.TRAIN, train_task()) is None
        reply = first.process_task(TaskName.VALIDATE, train_task())
        assert reply is not None and reply.return_code == "OK"

    def test_stop_sets_a_hand_driven_clients_own_signal(self):
        kits = Provisioner(default_project(n_clients=1, name="own"), seed=0,
                           key_bits=128).provision()
        bus = MessageBus()
        server = FLServer(kits["server"], bus, seed=0)
        client = FederatedClient(kits["site-1"],
                                 BatchedLearner("site-1", batches=50), bus)
        client.register(server)
        client.serve_in_thread()
        server.broadcast_task(TaskName.TRAIN, train_task(), ["site-1"])
        while BatchedLearner.started == 0:
            time.sleep(0.01)
        began = time.monotonic()
        client.stop()   # no simulator, no controller: stop() alone aborts
        assert time.monotonic() - began < 1.0
        assert not client_threads()
        assert not server.abort_signal.is_set()
        assert bus.pending(server.name) == 0   # and no reply was sent


# ----------------------------------------------------------------------
# the training loops: back within one batch
# ----------------------------------------------------------------------
class TestTrainingLoopsPollTheSignal:
    def test_train_classifier_stops_within_one_batch(self, tiny_split, vocab_size):
        train, valid = tiny_split
        model = build_classifier("lstm-tiny", vocab_size=vocab_size, seed=0)
        signal = threading.Event()
        steps = []

        def set_on_second_batch(model):
            steps.append(None)
            if len(steps) == 2:
                signal.set()
            return 0.0

        history = train_classifier(
            model, train, TrainConfig(epochs=3, batch_size=16), valid=valid,
            regularizer=set_on_second_batch, abort_signal=signal)
        assert len(steps) == 2                 # of 3 epochs' worth
        assert len(history) == 1 and history[0].valid_acc is None

    def test_learner_reads_the_signal_from_fl_ctx(self, tiny_split, vocab_size):
        train, _ = tiny_split
        learner = ClinicalClassificationLearner(
            "site-1", lambda: build_classifier("lstm-tiny", vocab_size=vocab_size,
                                               seed=0),
            train_data=train, valid_data=None, local_epochs=5, batch_size=16)
        fl_ctx = FLContext(identity="site-1")
        learner.initialize(fl_ctx)
        signal = threading.Event()
        signal.set()
        fl_ctx.set_prop(ReservedKey.ABORT_SIGNAL, signal)
        before = {k: np.array(v) for k, v in learner.model.state_dict().items()}
        began = time.monotonic()
        result = learner.train(DXO(DataKind.WEIGHTS, data=before), fl_ctx)
        assert time.monotonic() - began < 0.5
        assert len(learner.epoch_seconds) == 0   # not one epoch was run
        for key, value in before.items():        # and not one step taken
            np.testing.assert_array_equal(result.data[key], value)


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
class TestBufferedTeardown:
    @pytest.mark.parametrize("transport", ["memory", "shm", "socket"])
    def test_tears_down_in_under_a_second(self, transport, monkeypatch):
        buses = []
        if transport == "shm":
            real = simulator_module.ShmMessageBus

            def recording(*args, **kwargs):
                buses.append(real(*args, **kwargs))
                return buses[-1]

            monkeypatch.setattr(simulator_module, "ShmMessageBus", recording)
        commits = []
        job = buffered_job(
            evaluator=lambda weights: commits.append(time.monotonic()) or {})
        result = SimulatorRunner(replace(job, transport=transport), n_clients=8, seed=0,
                                 key_bits=128, capture_log=False, max_parallel=2).run()
        teardown = time.monotonic() - commits[-1]
        assert len(commits) == 3
        assert teardown < 1.0, teardown
        assert not client_threads()
        # an aborted task left no trace: every recorded update trained to
        # its end (a site answering twice in one window is recorded twice)
        records = [c for r in result.stats.rounds for c in r.client_records]
        assert len(records) >= 3 * 4
        assert all(c.seconds >= 2 * BATCH_SECONDS for c in records)
        assert result.stats.dropped_clients == []
        for bus in buses:   # every segment was consumed or swept with the dir
            assert not os.path.exists(bus.segment_dir)

    @pytest.mark.parametrize("max_parallel", [1, 2, 3])
    def test_wasted_train_calls_are_bounded_by_max_parallel(self, max_parallel):
        # the engine's invariant for a well-behaved federation: when the
        # last window fills, only the sites holding a gate slot are inside
        # ``train``, and nobody enters it afterwards
        folds = []

        class CountingAggregator(InTimeAccumulateWeightedAggregator):
            def accept(self, dxo, contributor, fl_ctx):
                folds.append(contributor)
                return super().accept(dxo, contributor, fl_ctx)

        SimulatorRunner(
            buffered_job(learner_factory=lambda name: BatchedLearner(name, 1),
                         aggregator_factory=CountingAggregator),
            n_clients=8, seed=max_parallel, key_bits=128, capture_log=False,
            max_parallel=max_parallel).run()
        folded = len(folds)   # every reply the engine handed to the fold
        assert folded >= 12
        assert BatchedLearner.cut_short <= max_parallel
        # a call that ran to its end as the window filled was overtaken,
        # not cut short; with one slot the calls are 0.2 s apart, so none is
        overtaken = BatchedLearner.started - BatchedLearner.cut_short - folded
        assert 0 <= overtaken < max_parallel
        assert BatchedLearner.started - folded <= 2 * max_parallel - 1

    def test_last_window_tasks_only_what_the_run_can_still_fold(self):
        # sequential drive: every task dispatched is trained, so the count
        # of train calls is the count of tasks — 8 to fill the pipe, then
        # one per fold until the last window opens with 7 already out
        job = buffered_job(learner_factory=lambda name: BatchedLearner(name, 0))
        result = SimulatorRunner(job, n_clients=8, seed=0, key_bits=128,
                                 capture_log=False, threads=False).run()
        assert sum(len(r.client_records) for r in result.stats.rounds) == 12
        assert BatchedLearner.started == 8 + 3 + 1 + 3   # it was: + 1 + 3 more


class TestBarrierStraggler:
    def test_run_end_does_not_wait_for_an_abandoned_straggler(self):
        class Straggler(BatchedLearner):
            def __init__(self, name):
                super().__init__(name, batches=100 if name == "site-3" else 0)

        job = FLJob(name="straggler", initial_weights=toy_weights(0.0),
                    learner_factory=Straggler, num_rounds=2, min_clients=2,
                    result_timeout=0.4)
        began = time.monotonic()
        result = SimulatorRunner(job, n_clients=3, seed=0, key_bits=128,
                                 capture_log=False, max_parallel=3).run()
        # two 0.4 s deadlines, then nothing: site-3 would train for 20 s
        assert time.monotonic() - began < 2.5
        assert not client_threads()
        assert [r.dropped_clients for r in result.stats.rounds] == [["site-3"]] * 2
        np.testing.assert_allclose(result.final_weights["layer.bias"], 2.0)


# ----------------------------------------------------------------------
# the next workflow on the same server and clients
# ----------------------------------------------------------------------
class TestNextWorkflow:
    @pytest.fixture()
    def federation(self):
        """As tests/flare/test_controller_cross_site.py builds one, sharing
        the server's signal the way the simulator does."""
        kits = Provisioner(default_project(n_clients=3, name="ctl"), seed=0,
                           key_bits=512).provision()
        bus = MessageBus()
        server = FLServer(kits["server"], bus, seed=0)
        clients = []
        for i in (1, 2, 3):
            client = FederatedClient(kits[f"site-{i}"],
                                     BatchedLearner(f"site-{i}", batches=i), bus)
            client.abort_signal = server.abort_signal
            client.register(server)
            client.serve_in_thread()
            clients.append(client)
        yield server, clients
        server.stop_clients([c.name for c in clients])
        for client in clients:
            client.stop()

    def test_cross_site_eval_after_an_aborted_run(self, federation):
        server, clients = federation
        names = [client.name for client in clients]
        controller = ScatterAndGather(
            server=server, client_names=names, initial_weights=toy_weights(0.0),
            aggregator=InTimeAccumulateWeightedAggregator(), num_rounds=2,
            policy=Buffered(buffer_size=1, concurrency=3))
        stats = controller.run()   # returns with sites 2 and 3 mid-training
        assert sum(len(r.client_records) for r in stats.rounds) == 2
        results = CrossSiteModelEval(server, names).evaluate(
            {"global": controller.global_weights})
        assert set(results["global"]) == set(names)   # exactly n VALIDATE replies
        for metrics in results["global"].values():
            assert set(metrics) == {"valid_acc", "valid_loss"}
        time.sleep(2 * BATCH_SECONDS)   # anything cut short has returned by now
        assert server.bus.pending(server.name) == 0   # no stray train:result
        assert server.next_result(timeout=0.05) is None
