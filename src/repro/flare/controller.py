"""ScatterAndGather: the federated workflow the paper runs.

Each round (paper Sec. III-A): broadcast the global model to the clients,
admit their local training results, aggregate the weighted updates, persist
the new global model, validate it, repeat for E communication rounds.  The
log lines emitted here are the ones shown in the paper's Fig. 3.

One engine runs every round ("commit window").  What differs between the
paper's round barrier and FedBuff-style buffered asynchronous aggregation
(Nguyen et al., AISTATS 2022) is four decisions, taken by a
:class:`CommitPolicy`: whom to task now, when the window is full, what
happens to unanswered tasks at close, and the fold weight — tabulated in
docs/FEDERATION_RUNTIME.md, "Massive cohorts".
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.health import HealthMonitor
from .aggregators import Aggregator, MaterializationTracker
from .constants import EventType, ReservedKey, ReturnCode, TaskName
from .downlink import Downlink
from .dxo import MetaKey
from .events import FLComponent, format_names
from .filters import CompressionConfig, DXOFilter, dense_tensors
from .fl_context import FLContext
from .persistor import ModelPersistor
from .sampling import ClientSampler, UniformSampler
from .server import FLServer
from .shareable import Shareable, to_dxo
from .shareable_generator import FullModelShareableGenerator
from .stats import ClientRoundRecord, RoundRecord, RunStats

__all__ = ["ScatterAndGather", "CommitPolicy", "Barrier", "Buffered",
           "staleness_discount"]

Evaluator = Callable[[dict[str, np.ndarray]], dict[str, float]]

# Byte-scaled histogram buckets (powers of four from 1 KiB to 4 GiB) for the
# per-round wire-traffic distribution; the registry's default buckets are
# seconds-scaled and would lump every round into the overflow bucket.
_BYTE_BUCKETS: tuple[float, ...] = tuple(float(1024 * 4 ** i) for i in range(16))


def staleness_discount(staleness: int, alpha: float) -> float:
    """FedBuff's polynomial staleness penalty: ``1 / (1 + s)**alpha``."""
    return 1.0 / (1.0 + max(0, int(staleness))) ** alpha


class _InFlight(NamedTuple):
    """One outstanding task: where and when it was dispatched."""

    window: int     # window index at dispatch (echoed back on the reply)
    version: int    # commits so far at dispatch (staleness baseline)
    clock: float    # perf_counter at dispatch (health latency)


class CommitPolicy:
    """The four decisions on which commit policies differ; a subclass
    overrides the ones it takes differently from these neutral defaults.

    A policy belongs to one controller, which binds it to the federation's
    sites and sampler before the first window.
    """

    span_attrs: dict = {}    # extra attributes of the ``round`` trace span
    carries_tasks = False    # decision 3: do unanswered tasks survive a close?

    def bind(self, sites: list[str], sampler: ClientSampler,
             min_clients: int | None) -> int:
        """Validate against the federation; returns the quorum to enforce
        (by default, every update a window can accept)."""
        self.sites, self.sampler = sites, sampler
        capacity = self.capacity(len(sites))
        if min_clients is None:
            return capacity
        if min_clients > capacity:
            raise ValueError(
                f"min_clients={min_clients} can never be met: a window "
                f"accepts at most {capacity} update(s)")
        return min_clients

    def capacity(self, n_sites: int) -> int:
        """Most updates one window can accept (validates the policy's knobs)."""
        raise NotImplementedError

    def eligible(self, window: int) -> list[str]:
        """Sites that may be tasked (and are health-monitored) this window."""
        return list(self.sites)

    def to_task(self, eligible: list[str], in_flight: dict, opening: bool,
                wave: int, accepted: int, last: bool) -> list[str]:
        """Decision 1, asked at window open and before every receive;
        ``accepted`` counts this window's folds so far and ``last`` says no
        window follows this one."""
        raise NotImplementedError

    def full(self, accepted: int) -> bool:
        """Decision 2: close the window although tasks are still in flight."""
        return False

    def discount(self, staleness: int) -> float | None:
        """Decision 4: factor on the update's fold weight; None discards it."""
        return 1.0


class Barrier(CommitPolicy):
    """The paper's round barrier over ``clients_per_round`` sampled sites
    (``None`` = every site): task the cohort once, close when nothing of it
    is in flight, abandon what did not answer."""

    def __init__(self, clients_per_round: int | None = None) -> None:
        self.clients_per_round = clients_per_round

    def capacity(self, n_sites):
        if self.clients_per_round is None:
            return n_sites
        if not 0 < self.clients_per_round <= n_sites:
            raise ValueError("clients_per_round must be in [1, len(client_names)]")
        return self.clients_per_round

    def eligible(self, window):
        # the sampler hands back everyone when asked for the whole federation
        return self.sampler.sample(
            self.sites, self.clients_per_round or len(self.sites), window)

    def to_task(self, eligible, in_flight, opening, wave, accepted, last):
        return eligible if opening else []


class Buffered(CommitPolicy):
    """FedBuff: commit every ``buffer_size`` accepted updates (K) while up
    to ``concurrency`` sites (Mc) hold a task.

    ``concurrency`` defaults to ``min(2 * buffer_size, n_sites)`` so the
    buffer refills while stale stragglers are still training;
    ``staleness_alpha`` 0 disables the discount; updates more than
    ``max_staleness`` commits old are dropped (``None`` = fold any).
    """

    carries_tasks = True

    def __init__(self, buffer_size: int = 4, concurrency: int | None = None,
                 staleness_alpha: float = 0.5,
                 max_staleness: int | None = None) -> None:
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if staleness_alpha < 0:
            raise ValueError("staleness_alpha must be non-negative")
        if max_staleness is not None and max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")
        self.buffer_size = buffer_size
        self.concurrency = concurrency
        self.staleness_alpha = staleness_alpha
        self.max_staleness = max_staleness
        self.span_attrs = {"mode": "async", "buffer_size": buffer_size}

    def capacity(self, n_sites):
        if self.concurrency is None:
            self.concurrency = min(2 * self.buffer_size, n_sites)
        if not 0 < self.concurrency <= n_sites:
            raise ValueError("concurrency must be in [1, len(client_names)]")
        return self.buffer_size

    def to_task(self, eligible, in_flight, opening, wave, accepted, last):
        # one sampler wave per call, so the draw is a pure function of
        # (seed, wave); unreachable sites never entered ``in_flight``
        idle = [site for site in eligible if site not in in_flight]
        want = min(self.concurrency - len(in_flight), len(idle))
        if last:
            # the run can fold only so many more updates; a reply that
            # fails or is over-stale reopens room on the next call
            want = min(want, self.buffer_size - accepted - len(in_flight))
        return self.sampler.sample(idle, want, wave) if want > 0 else []

    def full(self, accepted):
        return accepted >= self.buffer_size

    def discount(self, staleness):
        if self.max_staleness is not None and staleness > self.max_staleness:
            return None
        return staleness_discount(staleness, self.staleness_alpha)


class ScatterAndGather(FLComponent):
    """The controller coordinating rounds on the server.

    Parameters
    ----------
    server:
        Registered :class:`FLServer` with a live message bus.
    client_names:
        Participating sites (must all be registered).
    initial_weights:
        Round-0 global model.
    aggregator, shareable_generator, persistor:
        Pluggable workflow components, as in an NVFlare job config.
    num_rounds:
        E communication rounds (global commits under :class:`Buffered`).
    evaluator:
        Optional server-side validation run on each new global model; its
        metrics land in the run stats (key ``valid_acc`` drives best-model
        tracking).
    result_filters:
        Server-side task-result filter chain.
    min_clients:
        Quorum: a round needs at least this many accepted results to commit.
    result_timeout:
        Seconds a round waits for results before closing on what arrived.
    max_failed_rounds:
        *Consecutive* under-quorum rounds tolerated (each keeps the previous
        global model and moves on) before the next one aborts the run.
    sampler, sampling_seed:
        Site selection (repro.flare.sampling); default: seeded uniform draw.
    compression:
        Optional :class:`CompressionConfig`: its server-side decompression
        filters are prepended to ``result_filters``, the aggregator is
        pointed at WEIGHT_DIFF when delta encoding is on, and the
        :class:`Downlink` ships fp16 / versioned-delta payloads.
    health:
        Optional :class:`~repro.obs.health.HealthMonitor` fed every update
        and round: diagnostics and alerts (``RunStats.alerts``,
        ``health.jsonl``), a per-round status line, and — when its
        quarantine policy is armed — exclusion of persistently diverging
        clients from aggregation for a few rounds.
    policy:
        The :class:`CommitPolicy`; default ``Barrier()`` over every site.
    listeners:
        Components handed every lifecycle event after the controller itself;
        an exception raised by one aborts the run.
    """

    def __init__(self, server: FLServer, client_names: list[str],
                 initial_weights: dict[str, np.ndarray],
                 aggregator: Aggregator,
                 shareable_generator: FullModelShareableGenerator | None = None,
                 persistor: ModelPersistor | None = None,
                 num_rounds: int = 10,
                 evaluator: Evaluator | None = None,
                 result_filters: list[DXOFilter] | None = None,
                 min_clients: int | None = None,
                 result_timeout: float = 600.0,
                 max_failed_rounds: int = 0,
                 sampling_seed: int = 0,
                 sampler: ClientSampler | None = None,
                 compression: CompressionConfig | None = None,
                 health: HealthMonitor | None = None,
                 policy: CommitPolicy | None = None,
                 listeners: list[FLComponent] | None = None) -> None:
        super().__init__(name="ScatterAndGather")
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if not client_names:
            raise ValueError("need at least one client")
        if max_failed_rounds < 0:
            raise ValueError("max_failed_rounds must be non-negative")
        self.server = server
        self.client_names = list(client_names)
        self.global_weights = {key: np.asarray(value).copy()
                               for key, value in initial_weights.items()}
        self.aggregator = aggregator
        self.shareable_generator = shareable_generator or FullModelShareableGenerator()
        self.persistor = persistor
        self.num_rounds = num_rounds
        self.evaluator = evaluator
        self.result_filters = list(result_filters or [])
        self.result_timeout = result_timeout
        self.max_failed_rounds = max_failed_rounds
        self.policy = policy if policy is not None else Barrier()
        self.min_clients = self.policy.bind(
            self.client_names,
            sampler if sampler is not None else UniformSampler(seed=sampling_seed),
            min_clients)
        self.listeners = list(listeners or [])
        if compression is not None:
            self.result_filters = (compression.server_result_filters()
                                   + self.result_filters)
            compression.adapt_aggregator(self.aggregator)
        self.downlink = Downlink(compression, self.shareable_generator)
        self.health = health
        self.stats = RunStats()
        # Bounded-materialization instrumentation: every decoded client
        # update is accounted while alive (in-flight fold + any aggregator
        # stash); the run's high-water mark lands on the stats.
        self.materialization = MaterializationTracker()
        self.aggregator.tracker = self.materialization
        self._under_quorum_streak = 0
        self._version = 0   # commits so far
        self._wave = 0      # dispatch waves so far (sampler + downlink key)
        self._in_flight: dict[str, _InFlight] = {}

    def fire_event(self, event_type: str, fl_ctx: FLContext,
                   targets: list[FLComponent] | None = None) -> None:
        super().fire_event(event_type, fl_ctx,
                           targets if targets is not None
                           else [self, *self.listeners])

    # ------------------------------------------------------------------
    def run(self) -> RunStats:
        """Execute all rounds; returns the collected statistics."""
        fl_ctx = self.server.fl_ctx
        self.fire_event(EventType.START_RUN, fl_ctx)
        for window in range(self.num_rounds):
            # One span name under every policy, so round-oriented consumers
            # (tail, dashboard, trace export) need no mode switch.
            with obs_trace.span("round", round=window,
                                **self.policy.span_attrs) as span:
                self._run_window(window, fl_ctx, span)
        self.fire_event(EventType.END_RUN, fl_ctx)
        bus = self.server.bus
        self.stats.messages_delivered = bus.delivered_count
        self.stats.bytes_delivered = bus.delivered_bytes
        self.stats.retries = bus.retry_count
        self.stats.duplicates_dropped = bus.duplicates_dropped
        self.stats.peak_materialized_updates = self.materialization.peak
        self.stats.peak_receive_buffer_bytes = bus.peak_receive_buffer_bytes
        return self.stats

    # ------------------------------------------------------------------
    def _run_window(self, window: int, fl_ctx: FLContext, span) -> None:
        """Fill one commit window and (quorum permitting) commit the global."""
        started = time.perf_counter()
        bytes_before = self.server.bus.delivered_bytes
        self.log_info("Round %d started.", window)
        fl_ctx.set_prop(ReservedKey.CURRENT_ROUND, window)
        fl_ctx.set_prop("current_round", window)
        self.fire_event(EventType.ROUND_STARTED, fl_ctx)
        eligible = self.policy.eligible(window)
        if len(eligible) < len(self.client_names):
            self.log_info("sampled %d/%d clients for round %d: %s",
                          len(eligible), len(self.client_names), window,
                          format_names(eligible))

        record = RoundRecord(round_number=window)
        self.aggregator.reset()
        accepted = 0
        answered: set[str] = set()
        contributors: set[str] = set()
        self._dispatch(eligible, True, window, accepted, fl_ctx)
        if self.health is not None:
            # Reference = exactly what this window first broadcast (post
            # fp16/delta canonicalization), so client updates are measured
            # against it.
            self.health.begin_round(window, eligible,
                                    reference=self.global_weights)
        deadline = time.monotonic() + self.result_timeout
        # Streaming aggregation: each reply is decoded, filtered and folded
        # into the running sums as it arrives and unbound before the next
        # send or wait (and the commit): on the socket fabric the server holds
        # one received frame, the one in the fold or the one the hub reads.
        # A reply held across a send would also hold the hub's receive credit
        # while the controller sits in sendmsg to a site that may itself be
        # blocked sending to the hub.
        while self._in_flight:
            result = reply = None
            result = self.server.next_result(timeout=deadline - time.monotonic())
            if result is None:
                self.log_warning(
                    "round %d: %d task(s) unanswered at the %.1fs deadline",
                    window, len(self._in_flight), self.result_timeout)
                break
            sender, reply = result
            entry = self._in_flight.get(sender)
            if entry is None or \
                    reply.get_header(ReservedKey.ROUND_NUMBER) != entry.window:
                # answers a task an earlier window abandoned: it trained on
                # an older global and must not count toward this quorum
                obs_metrics.counter("federation.late_results").inc()
                self.log_warning("late result from %s discarded", sender)
                continue
            del self._in_flight[sender]
            answered.add(sender)
            folded = self._admit(sender, reply, entry, record, contributors, fl_ctx)
            result = reply = None
            if folded:
                accepted += 1
                if self.policy.full(accepted):
                    break
            self._dispatch(eligible, False, window, accepted, fl_ctx)

        if self.policy.carries_tasks:
            abandoned: set[str] = set()
        else:
            abandoned = set(eligible) - answered
            self._in_flight.clear()
        if window == self.num_rounds - 1:
            # Whatever is still out (carried by the policy, or a straggler
            # the barrier gave up on) trains for nobody now: abort it, wait
            # for none — before the last commit, whose evaluation would
            # otherwise share the cores with it.
            self.server.abort_tasks()
            self._in_flight.clear()
        record.dropped_clients = sorted((answered | abandoned) - contributors)
        if record.dropped_clients:
            obs_metrics.counter("federation.dropped_clients").inc(
                len(record.dropped_clients))
            self.log_warning("round %d: dropped site(s): %s", window,
                             format_names(record.dropped_clients))

        obs_metrics.counter("federation.rounds").inc()
        record.quorum_met = accepted >= self.min_clients
        if record.quorum_met:
            self._under_quorum_streak = 0
            self._commit(record, fl_ctx)
        else:
            obs_metrics.counter("federation.under_quorum_rounds").inc()
            self._under_quorum_streak += 1

        record.seconds = time.perf_counter() - started
        record.bytes_on_wire = self.server.bus.delivered_bytes - bytes_before
        obs_metrics.histogram("federation.round_seconds").observe(record.seconds)
        obs_metrics.histogram("federation.round_bytes",
                              buckets=_BYTE_BUCKETS).observe(record.bytes_on_wire)
        self.stats.add_round(record)
        if self.health is not None:
            round_health, alerts = self.health.end_round(
                seconds=record.seconds,
                bytes_on_wire=record.bytes_on_wire,
                quorum_met=record.quorum_met,
                global_metrics=record.global_metrics,
                # Under quorum the global model did not move; passing no new
                # global keeps the aggregate-update norm/cosines undefined.
                new_global=self.global_weights if record.quorum_met else None)
            record.quarantined_clients = list(round_health.quarantined)
            self.stats.alerts.extend(alerts)
            self.log_info("%s", self.health.status_line(round_health, alerts))
        span.set_attr("version", self._version)
        span.set_attr("accepted", accepted)
        span.set_attr("quorum_met", record.quorum_met)
        span.set_attr("n_clients", len(record.client_records))
        span.set_attr("staleness_max", max(
            (client.staleness for client in record.client_records), default=0))

        if not record.quorum_met:
            if self._under_quorum_streak > self.max_failed_rounds:
                raise RuntimeError(
                    f"round {window}: only {accepted} usable results "
                    f"(min_clients={self.min_clients}) after "
                    f"{self._under_quorum_streak} consecutive under-quorum round(s)")
            self.log_warning(
                "round %d: under quorum (%d/%d); keeping previous global model "
                "(%d/%d tolerated failures)", window, accepted,
                self.min_clients, self._under_quorum_streak, self.max_failed_rounds)
        else:
            self.log_info("Round %d finished.", window)
        self.fire_event(EventType.ROUND_DONE, fl_ctx)

    # ------------------------------------------------------------------
    def _dispatch(self, eligible: list[str], opening: bool, window: int,
                  accepted: int, fl_ctx: FLContext) -> None:
        """Task whomever the policy names with the current global (one
        dispatch wave)."""
        targets = self.policy.to_task(eligible, self._in_flight, opening,
                                      self._wave, accepted,
                                      window == self.num_rounds - 1)
        if not targets:
            return
        headers = {ReservedKey.ROUND_NUMBER: window,
                   ReservedKey.TOTAL_ROUNDS: self.num_rounds}
        self.global_weights, task, overrides = self.downlink.build(
            self.global_weights, targets, self._wave, headers, fl_ctx)
        clock = time.perf_counter()
        unreachable = self.server.broadcast_task(TaskName.TRAIN, task, targets,
                                                 overrides=overrides)
        for site in set(targets).difference(unreachable):
            self._in_flight[site] = _InFlight(window, self._version, clock)
        if unreachable:
            self.log_warning("round %d: %d site(s) unreachable at broadcast: %s",
                             window, len(unreachable), format_names(unreachable))
        self._wave += 1
        # the sequential drive (threads=False) runs tasked clients off this
        # event, so every wave must fire it — not just round boundaries
        self.fire_event(EventType.TASKS_BROADCAST, fl_ctx)

    def _admit(self, sender: str, reply: Shareable, entry: _InFlight,
               record: RoundRecord, contributors: set[str],
               fl_ctx: FLContext) -> bool:
        """The admission pipeline for one on-time reply; True if folded."""
        if reply.return_code in (ReturnCode.OK, ReturnCode.EXECUTION_EXCEPTION):
            # even a client whose training failed decoded (and applied) the
            # task data first, so its model cache is current
            self.downlink.ack(sender)
        if reply.return_code != ReturnCode.OK:
            self.log_warning("client %s returned %s; skipping its update",
                             sender, reply.return_code)
            return False
        self.materialization.acquire()  # the decoded update is now live
        try:
            dxo = to_dxo(reply)
            del reply
            for result_filter in self.result_filters:
                with obs_trace.span("filter", stage="server_result",
                                    filter=type(result_filter).__name__,
                                    client=sender):
                    dxo = result_filter.process(dxo, fl_ctx)
            self.log_info("Contribution from %s received.", sender)
            steps = int(dxo.get_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND, 0))
            if self.health is not None:
                self.health.record_update(
                    sender, dense_tensors(dxo), data_kind=dxo.data_kind,
                    meta=dxo.meta, latency_seconds=time.perf_counter() - entry.clock)
            staleness = self._version - entry.version
            obs_metrics.histogram("federation.staleness").observe(staleness)
            discount = self.policy.discount(staleness)
            folded = False
            if discount is None:
                self.log_warning("update from %s is %d commit(s) stale; discarded",
                                 sender, staleness)
            elif self.health is not None and self.health.is_quarantined(
                    sender, record.round_number):
                # Responded fine but is serving a quarantine window: its
                # diagnostics are recorded, its update is not aggregated and
                # it is not counted toward quorum.
                contributors.add(sender)
                self.log_warning("client %s is quarantined; excluding its "
                                 "update from aggregation", sender)
            else:
                if discount != 1.0:
                    dxo.set_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND, float(
                        dxo.get_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND, 1.0))
                        * discount)
                folded = self.aggregator.accept(dxo, sender, fl_ctx)
                if folded:
                    contributors.add(sender)
            record.client_records.append(ClientRoundRecord(
                client=sender,
                round_number=record.round_number,
                train_loss=float(dxo.get_meta_prop("train_loss", float("nan"))),
                valid_acc=float(dxo.get_meta_prop("valid_acc", float("nan"))),
                num_steps=steps,
                seconds=float(dxo.get_meta_prop("train_seconds", 0.0)),
                staleness=staleness,
            ))
        except ValueError as error:
            # a corrupt payload or a malformed top-k pair: this site's
            # update is dropped, the round goes on
            self.log_error("malformed update from %s dropped: %s", sender, error)
            return False
        finally:
            self.materialization.release()  # folded, stash-accounted or discarded
        return folded

    def _commit(self, record: RoundRecord, fl_ctx: FLContext) -> None:
        """Aggregate the window into the next global; evaluate and persist."""
        self.fire_event(EventType.BEFORE_AGGREGATION, fl_ctx)
        with obs_trace.span("aggregate", round=record.round_number):
            aggregation_started = time.perf_counter()
            aggregated = self.aggregator.aggregate(fl_ctx)
            obs_metrics.histogram("federation.aggregation_seconds").observe(
                time.perf_counter() - aggregation_started)
        self.log_info("End aggregation.")
        self.global_weights = self.shareable_generator.dxo_to_learnable(
            aggregated, self.global_weights)
        del aggregated  # evaluate and persist run beside the new global only
        self._version += 1
        self.fire_event(EventType.AFTER_AGGREGATION, fl_ctx)
        if self.evaluator is not None:
            record.global_metrics = dict(self.evaluator(self.global_weights))
        if self.persistor is not None:
            self.persistor.save(self.global_weights, fl_ctx,
                                metric=record.global_metrics.get("valid_acc"))
