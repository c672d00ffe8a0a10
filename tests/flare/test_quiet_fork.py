"""Workers fork from a quiet parent: no thread the run started is alive at
any worker fork, so none can hold a lock a child would then wait on forever.

A run starts no thread before its last fork: the socket hub binds in its
constructor and accepts only once every worker is forked, and a
telemetry-armed run starts its session's flusher and sysmon threads after
the launch.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import pytest

from repro.flare import FLJob, SimulatorRunner

from .helpers import ToyLearner, toy_weights

N_CLIENTS = 4

# Threads alive at each fork while a test records; an at-fork hook cannot be
# unregistered, so it is installed once and is a no-op between tests.
_at_fork: list[set[threading.Thread]] | None = None


def _record_threads() -> None:
    if _at_fork is not None:
        _at_fork.append(set(threading.enumerate()))


os.register_at_fork(before=_record_threads)


@pytest.mark.parametrize("transport, telemetry", [
    pytest.param("socket", False, id="socket"),
    pytest.param("shm", False, id="shm"),
    pytest.param("socket", True, id="socket-telemetry")])
def test_no_thread_of_the_run_is_alive_at_a_worker_fork(transport, telemetry, tmp_path):
    global _at_fork
    job = FLJob(name="quiet-fork", initial_weights=toy_weights(),
                learner_factory=lambda name: ToyLearner(name), num_rounds=1)
    runner = SimulatorRunner(replace(job, transport=transport),
                             n_clients=N_CLIENTS, seed=0, run_dir=tmp_path,
                             key_bits=128, telemetry=telemetry, sysmon=telemetry)
    before = set(threading.enumerate())
    _at_fork = []
    try:
        result = runner.run()
        at_fork = _at_fork
    finally:
        _at_fork = None
    assert result.stats.num_rounds == 1
    assert (result.stats.peak_rss_bytes > 0) == telemetry  # sysmon sampled
    assert len(at_fork) >= N_CLIENTS
    for alive in at_fork:
        # equal, unless a thread left over from an earlier test ended meanwhile
        assert alive <= before, sorted(t.name for t in alive - before)
