"""Part A of the per-layer numbers: spans recorded from outside the program.

The traced run hands ``FLJob`` wrapped components — a timed ``Learner``, a
timed subclass of the default aggregator, a timed evaluator and two no-op
stamp filters — so every span is taken in this file, around the call into
the layer.  Spans stay in memory and are written when a learner is
finalized (forked workers report that way) and when the run returns.
``time.monotonic`` is CLOCK_MONOTONIC, shared across forks, so spans from
every process lie on one timeline.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from repro.flare import (
    DXOFilter,
    InTimeAccumulateWeightedAggregator,
    Learner,
    MetaKey,
    ReservedKey,
)

SPAN_NAMES = ("train", "reset", "accept", "aggregate", "evaluate")


class Recorder:
    """In-memory span list; one instance is shared by everything the traced
    run wraps, and forked into every worker."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._records: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        start = time.monotonic()
        try:
            yield attrs
        finally:
            self._records.append({"pid": os.getpid(), "name": name, "start": start,
                                  "end": time.monotonic(), **attrs})

    def stamp(self, name: str, **attrs) -> None:
        now = time.monotonic()
        self._records.append({"pid": os.getpid(), "name": name, "start": now,
                              "end": now, **attrs})

    def dump(self) -> None:
        """Write this process's spans (a forked worker also holds a copy of
        what its parent had recorded before the fork; those are not its own)."""
        pid = os.getpid()
        own = [record for record in self._records if record["pid"] == pid]
        (self.directory / f"spans-{pid}.json").write_text(json.dumps(own))

    def load(self) -> list[dict]:
        return [record for path in sorted(self.directory.glob("spans-*.json"))
                for record in json.loads(path.read_text())]


class TimedLearner(Learner):
    def __init__(self, inner: Learner, site: str, recorder: Recorder) -> None:
        super().__init__(name=inner.name)
        self.inner = inner
        self.site = site
        self.recorder = recorder

    def initialize(self, fl_ctx) -> None:
        self.inner.initialize(fl_ctx)

    def train(self, dxo, fl_ctx):
        with self.recorder.span("train", client=self.site,
                                round=fl_ctx.get_prop(ReservedKey.CURRENT_ROUND, 0)):
            return self.inner.train(dxo, fl_ctx)

    def validate(self, dxo, fl_ctx):
        return self.inner.validate(dxo, fl_ctx)

    def finalize(self, fl_ctx) -> None:
        self.inner.finalize(fl_ctx)
        self.recorder.dump()


class TimedAggregator(InTimeAccumulateWeightedAggregator):
    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self.recorder = recorder

    def reset(self) -> None:
        with self.recorder.span("reset"):
            super().reset()

    def accept(self, dxo, contributor, fl_ctx) -> bool:
        with self.recorder.span("accept", client=contributor) as attrs:
            attrs["ok"] = super().accept(dxo, contributor, fl_ctx)
        return attrs["ok"]

    def aggregate(self, fl_ctx):
        with self.recorder.span("aggregate"):
            return super().aggregate(fl_ctx)


class StampFilter(DXOFilter):
    """Passes the DXO through untouched and notes when it went by.

    First in ``task_result_filters`` it marks "train returned, compression
    not yet applied" on the client; in ``server_result_filters`` it marks
    "update received, verified, decoded and decompressed, about to fold".
    """

    def __init__(self, stamp_name: str, recorder: Recorder) -> None:
        super().__init__(name=stamp_name)
        self.recorder = recorder

    def process(self, dxo, fl_ctx):
        client = dxo.get_meta_prop(MetaKey.CLIENT_NAME) or fl_ctx.identity
        self.recorder.stamp(self.name, client=client)
        return dxo


def wrap_job(inputs, recorder: Recorder):
    """The workload's job with every component the benchmark can reach timed."""
    def evaluator(weights):
        with recorder.span("evaluate"):
            return inputs.evaluator(weights)

    return inputs.job(
        learner_factory=lambda site: TimedLearner(inputs.learner_factory(site),
                                                  site, recorder),
        evaluator=evaluator,
        aggregator_factory=lambda: TimedAggregator(recorder),
        task_result_filters=[StampFilter("client_stamp", recorder)],
        server_result_filters=[StampFilter("server_stamp", recorder)])


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def attribute(spans: list[dict], round_seconds: list[float], run_entry: float,
              run_return: float, max_parallel: int) -> dict[str, float]:
    """Turn one traced run's spans into the Part A layer metrics.

    Rounds are delimited by the ends of the server's ``evaluate`` spans
    (round 1 starts at ``run()`` entry).  Train spans are clipped to their
    round and to the start of its ``aggregate`` — a no-op on the sync
    workloads, where no site trains across a round boundary; on the async
    workload it turns "first train start" into "a site was already
    training".  Per-round figures are medians over rounds 2..N, like
    ``round_s``.
    """
    by_name: dict[str, list[dict]] = {}
    for record in sorted(spans, key=lambda record: record["start"]):
        by_name.setdefault(record["name"], []).append(record)
    trains, accepts = by_name["train"], by_name["accept"]
    evaluates, aggregates = by_name["evaluate"], by_name["aggregate"]
    timed = [record for name in SPAN_NAMES for record in by_name[name]]
    edges = [run_entry] + [record["end"] for record in evaluates]

    rounds = []
    for index, (aggregate, evaluate) in enumerate(zip(aggregates, evaluates)):
        low, high = edges[index], edges[index + 1]
        clipped = [(max(t["start"], low), min(t["end"], aggregate["start"]))
                   for t in trains
                   if t["end"] > low and t["start"] < aggregate["start"]]
        first = min(start for start, _ in clipped)
        last = max(end for _, end in clipped)
        open_spans = [(max(s["start"], low), min(s["end"], high))
                      for s in timed if s["end"] > low and s["start"] < high]
        rounds.append({
            "dispatch": first - low,
            "window": last - first,
            "busy": sum(end - start for start, end in clipped),
            "tail": aggregate["start"] - last,
            "aggregate": aggregate["end"] - aggregate["start"],
            "evaluate": evaluate["end"] - evaluate["start"],
            "wait": (high - low) - _union_length(open_spans),
        })
    steady = rounds[1:]
    attributed = sum(r["dispatch"] + r["window"] + r["tail"] + r["aggregate"]
                     + r["evaluate"] for r in steady)

    # k-th update a site stamped on its way out = k-th update of that site
    # the server stamped on its way in (one task per site at a time)
    uplinks = []
    for client in {record["client"] for record in by_name["client_stamp"]}:
        sent = [r["start"] for r in by_name["client_stamp"] if r["client"] == client]
        got = [r["start"] for r in by_name["server_stamp"] if r["client"] == client]
        uplinks += [arrived - left for left, arrived in zip(sent, got)]

    steady_round = median(round_seconds[1:])
    folded = sum(1 for record in accepts if record.get("ok"))
    return {
        "simulator.startup_s": trains[0]["start"] - run_entry,
        "simulator.teardown_s": run_return - evaluates[-1]["end"],
        "simulator.first_round_excess_s": round_seconds[0] - steady_round,
        "controller.dispatch_s": median(r["dispatch"] for r in steady),
        "controller.collect_tail_s": median(r["tail"] for r in steady),
        "controller.wait_s": median(r["wait"] for r in steady),
        "controller.round_coverage": attributed / sum(round_seconds[1:]),
        "training.train_s": median(t["end"] - t["start"] for t in trains),
        "training.train_calls": len(trains),
        "training.window_s": median(r["window"] for r in steady),
        "training.slot_idle_share": 1.0 - sum(r["busy"] for r in steady) / (
            sum(r["window"] for r in steady) * max_parallel),
        "training.useful_ratio": folded / len(trains),
        "training.evaluate_s": median(r["evaluate"] for r in steady),
        "server.uplink_s": median(uplinks),
        "aggregators.accept_s": median(a["end"] - a["start"] for a in accepts),
        "aggregators.accept_calls": len(accepts),
        "aggregators.aggregate_s": median(r["aggregate"] for r in steady),
        "trace.span_processes": len({record["pid"] for record in trains}),
    }
