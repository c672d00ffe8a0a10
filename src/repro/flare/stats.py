"""Run statistics: per-round and per-client metrics plus timings.

The source of the numbers the paper reports: Table III accuracies, Fig. 2
loss curves and the "12.7 sec/local epoch" observation all come out of a
structure like this.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..obs.health import Alert

__all__ = ["ClientRoundRecord", "RoundRecord", "RunStats"]


@dataclass
class ClientRoundRecord:
    """One client's contribution to one round."""

    client: str
    round_number: int
    train_loss: float
    valid_acc: float
    num_steps: int
    seconds: float
    # Async aggregation only: how many commits the global model advanced
    # between this update's dispatch and its fold (0 in synchronous rounds).
    staleness: int = 0


@dataclass
class RoundRecord:
    """Aggregated view of one federated round."""

    round_number: int
    client_records: list[ClientRoundRecord] = field(default_factory=list)
    global_metrics: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    # Encoded bytes this round put on the bus (broadcasts + results).
    bytes_on_wire: int = 0
    # Sites that were tasked but contributed no usable update (crashed,
    # unreachable, timed out or returned a non-OK code).
    dropped_clients: list[str] = field(default_factory=list)
    # False when the round finished under quorum and aggregation was skipped.
    quorum_met: bool = True
    # Sites excluded from aggregation this round by the health monitor's
    # quarantine policy (they still trained and were still diagnosed).
    quarantined_clients: list[str] = field(default_factory=list)


@dataclass
class RunStats:
    """Everything measured during a run.

    ``wire_bytes_raw`` / ``wire_bytes_encoded`` count the codec work of the
    process that ran the job.  On the memory fabric that is every
    participant, and the run's ``metrics.json`` holds the same
    ``transport.bytes_raw`` / ``transport.bytes_encoded`` totals.  On the
    process fabrics (socket, shm) it is the server's share only: the
    workers encode and decode in their own processes, and only
    ``metrics.json`` adds their counts in.
    """

    rounds: list[RoundRecord] = field(default_factory=list)
    messages_delivered: int = 0
    bytes_delivered: int = 0
    # Resend attempts made by all participants (server broadcasts + client
    # result submissions) over the whole run.
    retries: int = 0
    # Receives skipped by message-id dedup (resends and replayed duplicates).
    duplicates_dropped: int = 0
    # Wire-codec accounting for the run: tensor payload bytes before
    # encoding vs bytes actually produced for the wire (all codecs, both
    # directions).  With compression on, encoded < raw.
    wire_bytes_raw: int = 0
    wire_bytes_encoded: int = 0
    # High-water mark of simultaneously-materialized decoded client updates
    # (in-flight folds + aggregator stashes) — the massive-cohort memory
    # guarantee asserts this stays O(buffer/arity), never O(cohort).
    peak_materialized_updates: int = 0
    # High-water of the hub's receive buffers alive at once (socket fabric only).
    peak_receive_buffer_bytes: int = 0
    # High-water mark of the parent process's resident set (bytes) as seen
    # by the resource monitor (repro.obs.sysmon); 0 when sysmon was off.
    # A registry dimension: ``runs diff`` compares it across runs.
    peak_rss_bytes: int = 0
    # Paths of the telemetry artifacts a TelemetrySession wrote for this run,
    # keyed metrics / trace / profile / health; empty when telemetry was off.
    telemetry: dict[str, str] = field(default_factory=dict)
    # Severity-ranked anomaly verdicts from the health monitor, in round
    # order (empty when health monitoring was off).
    alerts: list[Alert] = field(default_factory=list)

    def add_round(self, record: RoundRecord) -> None:
        self.rounds.append(record)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def dropped_clients(self) -> list[str]:
        """Every site that missed at least one round, sorted."""
        return sorted({client for record in self.rounds
                       for client in record.dropped_clients})

    @property
    def quarantined_clients(self) -> list[str]:
        """Every site the health monitor quarantined at least once, sorted."""
        return sorted({client for record in self.rounds
                       for client in record.quarantined_clients})

    @property
    def failed_rounds(self) -> int:
        """Rounds that finished under quorum (aggregation skipped)."""
        return sum(1 for record in self.rounds if not record.quorum_met)

    def _metric_history(self, key: str) -> list[float]:
        """Per-round values of ``key``; KeyError (naming the recorded keys)
        when no round ever reported it."""
        history = [r.global_metrics[key] for r in self.rounds
                   if key in r.global_metrics]
        if not history:
            available = sorted({k for r in self.rounds for k in r.global_metrics})
            raise KeyError(f"no global metric {key!r} recorded "
                           f"(available: {available or 'none'})")
        return history

    def global_metric_history(self, key: str) -> list[float]:
        """The per-round trajectory of a server-side metric."""
        return self._metric_history(key)

    def best_global_metric(self, key: str, mode: str = "max") -> float:
        """The best value of ``key`` across rounds.

        ``mode`` says which direction is better: ``"max"`` for scores like
        accuracy/AUC, ``"min"`` for losses and perplexities.
        """
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
        history = self._metric_history(key)
        return max(history) if mode == "max" else min(history)

    def final_global_metric(self, key: str) -> float:
        return self._metric_history(key)[-1]

    def mean_seconds_per_local_epoch(self) -> float:
        """Average wall-clock per client local-train call (cf. "12.7 sec")."""
        seconds = [c.seconds for r in self.rounds for c in r.client_records]
        return float(np.mean(seconds)) if seconds else 0.0

    def client_metric_history(self, client: str) -> list[ClientRoundRecord]:
        return [c for r in self.rounds for c in r.client_records if c.client == client]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dump of everything measured."""
        payload = {
            "messages_delivered": self.messages_delivered,
            "bytes_delivered": self.bytes_delivered,
            "retries": self.retries,
            "duplicates_dropped": self.duplicates_dropped,
            "wire_bytes_raw": self.wire_bytes_raw,
            "wire_bytes_encoded": self.wire_bytes_encoded,
            "peak_materialized_updates": self.peak_materialized_updates,
            "peak_receive_buffer_bytes": self.peak_receive_buffer_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "dropped_clients": self.dropped_clients,
            "failed_rounds": self.failed_rounds,
            "rounds": [asdict(record) for record in self.rounds],
        }
        if self.telemetry:
            payload["telemetry"] = dict(self.telemetry)
        if self.alerts:
            payload["alerts"] = [alert.to_dict() for alert in self.alerts]
        return payload

    def save_json(self, path: str | Path) -> Path:
        """Write the stats to ``path`` as pretty-printed JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=float))
        return path

    @classmethod
    def from_dict(cls, payload: dict) -> "RunStats":
        stats = cls(messages_delivered=payload.get("messages_delivered", 0),
                    bytes_delivered=payload.get("bytes_delivered", 0),
                    retries=payload.get("retries", 0),
                    duplicates_dropped=payload.get("duplicates_dropped", 0),
                    wire_bytes_raw=payload.get("wire_bytes_raw", 0),
                    wire_bytes_encoded=payload.get("wire_bytes_encoded", 0),
                    peak_materialized_updates=payload.get(
                        "peak_materialized_updates", 0),
                    peak_receive_buffer_bytes=payload.get("peak_receive_buffer_bytes", 0),
                    peak_rss_bytes=payload.get("peak_rss_bytes", 0),
                    telemetry=dict(payload.get("telemetry", {})),
                    alerts=[Alert.from_dict(a)
                            for a in payload.get("alerts", [])])
        for round_payload in payload.get("rounds", []):
            clients = [ClientRoundRecord(**c)
                       for c in round_payload.get("client_records", [])]
            stats.add_round(RoundRecord(
                round_number=round_payload["round_number"],
                client_records=clients,
                global_metrics=dict(round_payload.get("global_metrics", {})),
                seconds=round_payload.get("seconds", 0.0),
                bytes_on_wire=round_payload.get("bytes_on_wire", 0),
                dropped_clients=list(round_payload.get("dropped_clients", [])),
                quorum_met=round_payload.get("quorum_met", True),
                quarantined_clients=list(
                    round_payload.get("quarantined_clients", []))))
        return stats
