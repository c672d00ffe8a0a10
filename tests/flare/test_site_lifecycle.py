"""One site lifecycle on every host: setup failures tear everything down,
and a thread-hosted site handles a corrupted task the way a worker does."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.flare import (
    DXO,
    DataKind,
    FaultPlan,
    FederatedClient,
    FLJob,
    FLServer,
    LogCapture,
    MessageBus,
    Provisioner,
    ReservedKey,
    SimulatorRunner,
    TaskName,
    default_project,
    from_dxo,
)
from repro.flare import simulator as simulator_module

from .helpers import ToyLearner, toy_weights

# threads a site or a fabric starts: the thread host's loop, the socket
# hub's accept and per-connection reader threads
_SITE_THREADS = ("client-", "bus-accept", "bus-reader")


def live_site_threads(before: set[threading.Thread]) -> list[str]:
    return [thread.name for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
            and thread.name.startswith(_SITE_THREADS)]


@pytest.mark.parametrize("transport", ["memory", "socket", "shm"])
def test_setup_failure_leaks_no_site(transport, tmp_path, monkeypatch):
    """``min_clients`` the policy can never meet raises while the
    controller is built — after every site started on its host."""
    buses = []
    fabric = {"socket": "SocketMessageBus", "shm": "ShmMessageBus"}.get(transport)
    if fabric is not None:
        real = getattr(simulator_module, fabric)

        def recording(*args, **kwargs):
            buses.append(real(*args, **kwargs))
            return buses[-1]

        monkeypatch.setattr(simulator_module, fabric, recording)
    job = FLJob(name="leak", initial_weights=toy_weights(),
                learner_factory=ToyLearner, num_rounds=1, min_clients=99,
                transport=transport)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="min_clients"):
        SimulatorRunner(job, n_clients=2, seed=0, key_bits=128,
                        capture_log=False, run_dir=tmp_path).run()
    assert live_site_threads(before) == []
    assert [p.name for p in multiprocessing.active_children()
            if p.name.startswith("fl-client-")] == []
    for bus in buses:
        if transport == "shm":
            assert not os.path.exists(bus.segment_dir)


def test_thread_host_logs_a_corrupted_task_and_keeps_serving():
    kits = Provisioner(default_project(n_clients=1, name="corrupt"), seed=0,
                       key_bits=128).provision()
    bus = MessageBus(fault_plan=FaultPlan(seed=0, corrupt_prob=1.0))
    server = FLServer(kits["server"], bus, seed=0)
    client = FederatedClient(kits["site-1"], ToyLearner("site-1"), bus)
    client.register(server)
    task = from_dxo(DXO(DataKind.WEIGHTS, data=toy_weights()))
    task.set_header(ReservedKey.ROUND_NUMBER, 0)
    capture = LogCapture().attach()
    try:
        thread = client.serve_in_thread()
        for _ in range(2):
            server.broadcast_task(TaskName.TRAIN, task, ["site-1"])
        deadline = time.monotonic() + 10.0
        while (capture.text().count("rejected corrupted/forged task") < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert capture.text().count("rejected corrupted/forged task") == 2
        assert thread.is_alive()  # both dropped, the site still serves
        assert client.learner.train_calls == 0
    finally:
        client.stop()
        capture.detach()
    assert not thread.is_alive()
