"""One BLAS thread budget per run, on every fabric.

``recommended_blas_threads(k)`` for the ``k = min(n_clients, max_parallel)``
sites that can train at once: the threaded memory fabric resizes this
process's pool to it for the duration of ``run()``, forked workers get it
through ``WorkerRuntime.capture(k)``, sequential runs leave the pool alone.
"""

from __future__ import annotations

import pytest

from repro.autograd import blas_thread_info
from repro.autograd._blas import (
    get_blas_threads,
    recommended_blas_threads,
    set_blas_threads,
)
from repro.flare import FLJob, SimulatorRunner
from repro.flare import simulator as simulator_module

from .helpers import ToyLearner, toy_weights

pytestmark = pytest.mark.skipif(
    not blas_thread_info()["controllable"],
    reason="the loaded BLAS exposes no thread-count entry point")

N_CLIENTS, MAX_PARALLEL = 3, 2
BUDGET = recommended_blas_threads(min(N_CLIENTS, MAX_PARALLEL))
OUTSIDE = BUDGET + 2   # a pool size no budget rule would pick


class PoolProbe(ToyLearner):
    seen: list[int] = []

    def train(self, dxo, fl_ctx):
        PoolProbe.seen.append(get_blas_threads())
        return super().train(dxo, fl_ctx)


class Offline(ToyLearner):
    def train(self, dxo, fl_ctx):
        raise RuntimeError("site offline")


@pytest.fixture(autouse=True)
def outside_pool():
    """Every test starts from a pool size that is not the budget."""
    PoolProbe.seen = []
    previous = set_blas_threads(OUTSIDE)
    yield
    set_blas_threads(previous)


def test_set_blas_threads_returns_the_previous_size():
    assert set_blas_threads(1) == OUTSIDE
    assert get_blas_threads() == 1
    assert set_blas_threads(OUTSIDE) == 1   # and the fixture restores the rest
    assert get_blas_threads() == OUTSIDE


def run(learner_factory=PoolProbe, evaluator=None, transport=None, **runner_options):
    job = FLJob(name="blas", initial_weights=toy_weights(0.0),
                learner_factory=learner_factory, num_rounds=2,
                evaluator=evaluator, transport=transport)
    return SimulatorRunner(job, n_clients=N_CLIENTS, seed=0, key_bits=128,
                           capture_log=False, max_parallel=MAX_PARALLEL,
                           **runner_options).run()


def test_threaded_run_trains_and_evaluates_under_the_budget():
    evaluated = []
    run(evaluator=lambda weights: evaluated.append(get_blas_threads()) or {})
    assert PoolProbe.seen == [BUDGET] * (2 * N_CLIENTS)
    assert evaluated == [BUDGET] * 2       # the server's evaluator shares it
    assert get_blas_threads() == OUTSIDE   # and run() put the pool back


def test_pool_is_restored_when_the_controller_raises():
    with pytest.raises(RuntimeError, match="usable results"):
        run(learner_factory=Offline)
    assert get_blas_threads() == OUTSIDE


def test_sequential_run_leaves_the_pool_alone():
    run(threads=False)
    assert PoolProbe.seen == [OUTSIDE] * (2 * N_CLIENTS)
    assert get_blas_threads() == OUTSIDE


@pytest.mark.parametrize("transport", ["shm", "socket"])
def test_process_fabrics_split_the_same_budget(transport, monkeypatch):
    asked = []
    capture = simulator_module.WorkerRuntime.capture

    def recording(workers, **options):
        asked.append(workers)
        return capture(workers, **options)

    monkeypatch.setattr(simulator_module.WorkerRuntime, "capture", recording)
    # PoolProbe.seen is filled in the workers; the learner's answer comes
    # back as its step count instead
    class WorkerProbe(ToyLearner):
        def train(self, dxo, fl_ctx):
            self.steps = get_blas_threads()
            return super().train(dxo, fl_ctx)

    result = run(learner_factory=WorkerProbe, transport=transport)
    assert asked == [min(N_CLIENTS, MAX_PARALLEL)]   # k, not the site count
    steps = {c.num_steps for r in result.stats.rounds for c in r.client_records}
    assert steps == {BUDGET}
    assert get_blas_threads() == OUTSIDE   # the parent's pool is not resized
