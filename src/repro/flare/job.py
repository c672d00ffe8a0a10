"""Job configuration: the declarative recipe a simulator run executes.

Mirrors an NVFlare job folder (config_fed_server.json / config_fed_client
.json): which workflow, how many rounds, which aggregator, which filters —
plus a learner factory that plays the role of the client executor config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .aggregators import Aggregator, InTimeAccumulateWeightedAggregator
from .constants import DataKind
from .filters import CompressionConfig, DXOFilter
from .learner import Learner
from .sampling import ClientSampler

__all__ = ["FLJob"]

LearnerFactory = Callable[[str], Learner]
Evaluator = Callable[[dict[str, np.ndarray]], dict[str, float]]


@dataclass
class FLJob:
    """Everything needed to run one federated job: what it computes and on
    which fabric (``SimulatorRunner`` says how it is hosted and observed).

    Parameters
    ----------
    name:
        Job identifier (used for the run directory).
    initial_weights:
        The round-0 global model state dict.
    learner_factory:
        ``client_name -> Learner``; called once per site at registration.
    num_rounds:
        E communication rounds.
    evaluator:
        Optional server-side validation of each aggregated model.
    aggregator_factory:
        Builds the server aggregator (default: weighted FedAvg on WEIGHTS).
    task_result_filters / server_result_filters:
        Client-side and server-side DXO filter chains.
    min_clients:
        Minimum usable results per round (the quorum).
    result_timeout:
        Seconds the server waits for a round's results before aggregating
        whatever arrived.
    max_failed_rounds:
        Consecutive under-quorum rounds tolerated before the run aborts.
    compression:
        Wire-compression chain for the whole job: a
        :class:`CompressionConfig`, a spec string like ``"delta+fp16"``, or
        ``None`` (full weights both ways).  ``SimulatorRunner`` installs the
        matching client and server filter chains and switches the wire
        codec accordingly.
    transport:
        Which fabric carries the job's messages: ``"memory"`` (threaded
        clients on the in-process bus), ``"socket"`` (one OS process per
        client over TCP loopback), ``"shm"`` (one OS process per client
        over fork-inherited shared memory — the persistent worker pool),
        or ``None`` for ``"memory"``.  Run one job on another fabric with
        ``dataclasses.replace(job, transport=...)``.
    mode:
        Which commit policy :class:`ScatterAndGather` runs under:
        ``"sync"`` is the paper's round barrier (:class:`Barrier`);
        ``"async"`` is FedBuff-style buffered aggregation
        (:class:`Buffered`), where ``num_rounds`` counts global commits
        and the ``buffer_size`` / ``concurrency`` / ``staleness_alpha`` /
        ``max_staleness`` knobs below apply.  Every fabric and
        ``compression`` setting works under both.
    clients_per_round:
        Sync mode: how many sites to task per round (``None`` = all).
    sampler:
        Cohort-selection policy: a :class:`~repro.flare.sampling
        .ClientSampler` instance or a spec string (``"uniform"``,
        ``"weighted"``, ``"stratified[:n]"``); ``None`` = seeded uniform.
    site_sizes:
        Per-site data sizes for the weighted/stratified samplers (sites
        not listed count as size 1).
    sampling_seed:
        Seed for spec-string samplers (ignored when ``sampler`` is an
        instance, which carries its own seed).
    buffer_size / concurrency / staleness_alpha / max_staleness:
        Async-mode knobs, passed to :class:`Buffered`.
    """

    name: str
    initial_weights: dict[str, np.ndarray]
    learner_factory: LearnerFactory
    num_rounds: int = 10
    evaluator: Evaluator | None = None
    aggregator_factory: Callable[[], Aggregator] = field(
        default=lambda: InTimeAccumulateWeightedAggregator(
            expected_data_kind=DataKind.WEIGHTS))
    task_result_filters: list[DXOFilter] = field(default_factory=list)
    server_result_filters: list[DXOFilter] = field(default_factory=list)
    min_clients: int | None = None
    result_timeout: float = 600.0
    max_failed_rounds: int = 0
    compression: CompressionConfig | str | None = None
    transport: str | None = None
    mode: str = "sync"
    clients_per_round: int | None = None
    sampler: ClientSampler | str | None = None
    site_sizes: dict[str, float] | None = None
    sampling_seed: int = 0
    buffer_size: int = 4
    concurrency: int | None = None
    staleness_alpha: float = 0.5
    max_staleness: int | None = None

    def __post_init__(self) -> None:
        self.compression = CompressionConfig.from_spec(self.compression)
        if self.transport not in (None, "memory", "socket", "shm"):
            raise ValueError("transport must be 'memory', 'socket' or "
                             f"'shm', got {self.transport!r}")
        if self.mode not in ("sync", "async"):
            raise ValueError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if not self.initial_weights:
            raise ValueError("initial_weights must be non-empty")
        if self.result_timeout <= 0:
            raise ValueError("result_timeout must be positive")
        if self.max_failed_rounds < 0:
            raise ValueError("max_failed_rounds must be non-negative")
