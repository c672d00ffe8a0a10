"""Live federation health: per-client drift diagnostics and anomaly alerts.

The telemetry layer (metrics/trace/profile) records what a run *did*; this
module interprets it while the run is still going.  In a multi-site clinical
deployment the operator's question is "which hospital's updates are hurting
the global model, and is this run on track?" — so at every aggregation the
controller feeds a :class:`HealthMonitor` one snapshot per contributing
client (update norm, cosine alignment with the aggregated global update,
loss/accuracy trajectory, task latency, staleness, payload bytes) and a set
of pluggable :class:`Detector` rules turns the stream into severity-ranked
:class:`Alert` events.

Artifacts and surfaces:

- ``<run_dir>/health.jsonl`` — a schema header line, then one ``round``
  event per federated round (all client diagnostics inline) and one
  ``alert`` event per alert.
- tagged metrics ``health.client.*{client=...}`` and
  ``health.alerts{detector=,severity=}`` in the process-wide registry.
- ``RunStats.alerts`` — every alert, round-tripping through
  ``RunStats.to_dict``/``from_dict``.
- a one-line per-round status summary the controller sends through the
  existing console logger.

Cosine similarities are computed on a deterministic *coordinate sample* of
the flattened update vector (a few thousand coordinates, allocated across
parameters proportionally to size), so the monitor never retains a full
model copy per client — the streaming-aggregation memory property of the
controller is preserved.  Norms and max-abs are exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as obs_metrics
from .rundir import HEALTH_FILE

__all__ = [
    "Alert", "ClientRoundHealth", "RoundHealth", "Detector",
    "NonFiniteUpdateDetector", "DivergingClientDetector", "StragglerDetector",
    "StalledConvergenceDetector", "WireBlowupDetector",
    "HealthMonitor", "default_detectors", "HEALTH_FILE",
]

HEALTH_SCHEMA = "repro.obs.health/v1"

SEVERITIES = ("info", "warning", "critical")

# L2-norm buckets for the health.client.update_norm histogram: update norms
# live on a very different scale from the registry's seconds buckets.
NORM_BUCKETS: tuple[float, ...] = tuple(10.0 ** e for e in range(-4, 7))


def _severity_rank(severity: str) -> int:
    return SEVERITIES.index(severity) if severity in SEVERITIES else 0


@dataclass
class Alert:
    """One anomaly verdict emitted by a detector."""

    detector: str
    severity: str  # "info" | "warning" | "critical"
    round_number: int
    message: str
    client: str | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, "
                             f"got {self.severity!r}")

    def to_dict(self) -> dict:
        payload = {"detector": self.detector, "severity": self.severity,
                   "round_number": self.round_number, "message": self.message}
        if self.client is not None:
            payload["client"] = self.client
        if self.value is not None:
            payload["value"] = float(self.value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Alert":
        return cls(detector=payload["detector"], severity=payload["severity"],
                   round_number=int(payload["round_number"]),
                   message=payload["message"], client=payload.get("client"),
                   value=payload.get("value"))


@dataclass
class ClientRoundHealth:
    """Diagnostics for one client's contribution to one round."""

    client: str
    round_number: int
    # Exact L2 norm / max-abs of the update (client payload minus the
    # broadcast global for WEIGHTS payloads; the payload itself for diffs).
    update_norm: float = 0.0
    update_max_abs: float = 0.0
    # Cosine of the update against the aggregated global update, estimated
    # on the coordinate sample (NaN until aggregation, or when either side
    # has ~zero norm).
    cosine_to_global: float = float("nan")
    # Cosine against the coordinate-wise *median* of all clients' update
    # sketches.  Robust: one dominant outlier drags the aggregate direction
    # with it (making honest clients look misaligned), but not the median.
    cosine_to_peers: float = float("nan")
    train_loss: float = float("nan")
    valid_acc: float = float("nan")
    num_steps: int = 0
    # Client-reported local training wall-clock.
    train_seconds: float = 0.0
    # Server-observed broadcast->result latency (includes the wire, so
    # injected straggler delays are visible here but not in train_seconds).
    latency_seconds: float = 0.0
    # Rounds since this client last contributed (1 = contributed last round).
    staleness: int = 0
    # Raw tensor bytes of the decoded payload.
    payload_bytes: int = 0
    quarantined: bool = False


@dataclass
class RoundHealth:
    """Everything the detectors see about one round."""

    round_number: int
    clients: dict[str, ClientRoundHealth] = field(default_factory=dict)
    participants: list[str] = field(default_factory=list)
    seconds: float = 0.0
    bytes_on_wire: int = 0
    quorum_met: bool = True
    aggregate_update_norm: float = float("nan")
    global_metrics: dict[str, float] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------
class Detector:
    """One anomaly rule over the round-health stream.

    ``observe`` sees the just-finished round plus the full history of prior
    rounds (oldest first) and returns any alerts it wants to raise.
    Detectors are stateless with respect to the monitor — anything they need
    to remember across rounds they read back out of ``history``.
    """

    name = "detector"

    def observe(self, current: RoundHealth,
                history: list[RoundHealth]) -> list[Alert]:
        raise NotImplementedError


class NonFiniteUpdateDetector(Detector):
    """NaN/Inf or exploding client updates (the classic silent killer).

    Fires ``critical`` when a client's update norm or reported training loss
    is non-finite, or when the update norm exceeds ``max_norm``.
    """

    name = "nan-update"

    def __init__(self, max_norm: float = 1e6) -> None:
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.max_norm = max_norm

    def observe(self, current: RoundHealth,
                history: list[RoundHealth]) -> list[Alert]:
        alerts: list[Alert] = []
        for name, c in current.clients.items():
            if not math.isfinite(c.update_norm):
                alerts.append(Alert(
                    detector=self.name, severity="critical",
                    round_number=current.round_number, client=name,
                    value=c.update_norm,
                    message=f"client {name} shipped a non-finite update "
                            f"(norm={c.update_norm})"))
            elif c.update_norm > self.max_norm:
                alerts.append(Alert(
                    detector=self.name, severity="critical",
                    round_number=current.round_number, client=name,
                    value=c.update_norm,
                    message=f"client {name} update norm {c.update_norm:.3g} "
                            f"exceeds {self.max_norm:.3g} (exploding gradients?)"))
            elif math.isinf(c.train_loss):
                # NaN means "not reported" (the meta default), so only an
                # explicit infinity is alert-worthy here; NaN *weights* are
                # caught above via the update norm.
                alerts.append(Alert(
                    detector=self.name, severity="critical",
                    round_number=current.round_number, client=name,
                    value=c.train_loss,
                    message=f"client {name} reported a non-finite train loss"))
        return alerts


class DivergingClientDetector(Detector):
    """A client whose updates persistently point away from the consensus.

    Two signals, evaluated per client per round:

    - **cosine** — alignment of the client's update with the peer
      *consensus* direction (the coordinate-wise median of all clients'
      update sketches; falls back to the aggregated global update when the
      consensus is unavailable) below ``cosine_floor`` — negative means the
      client is actively pulling against the cohort;
    - **norm z-score** — the client's update norm is ``z_threshold`` robust
      standard deviations above the rolling norm distribution of *all*
      clients over the last ``window`` rounds (median/MAD based, so one
      outlier cannot mask itself).

    One bad round is ``warning``; ``persist`` consecutive bad rounds make it
    ``critical`` (which is what drives quarantine).
    """

    name = "diverging-client"

    def __init__(self, cosine_floor: float = 0.0, z_threshold: float = 4.0,
                 window: int = 8, persist: int = 2) -> None:
        if window < 1 or persist < 1:
            raise ValueError("window and persist must be >= 1")
        self.cosine_floor = cosine_floor
        self.z_threshold = z_threshold
        self.window = window
        self.persist = persist

    # ------------------------------------------------------------------
    def _is_suspect(self, c: ClientRoundHealth, norms: list[float]) -> tuple[bool, str, float]:
        cosine = c.cosine_to_peers
        against = "the peer consensus"
        if not math.isfinite(cosine):
            cosine = c.cosine_to_global
            against = "the aggregated update"
        if math.isfinite(cosine) and cosine < self.cosine_floor:
            return True, (f"update cosine {cosine:.3f} to {against} below "
                          f"{self.cosine_floor:.3f}"), cosine
        finite = [n for n in norms if math.isfinite(n)]
        if len(finite) >= 3 and math.isfinite(c.update_norm):
            median = float(np.median(finite))
            mad = float(np.median(np.abs(np.asarray(finite) - median)))
            scale = 1.4826 * mad if mad > 0 else max(abs(median), 1e-12)
            z = (c.update_norm - median) / scale
            if z > self.z_threshold:
                return True, (f"update norm {c.update_norm:.3g} is "
                              f"{z:.1f} robust std-devs above the rolling "
                              f"median {median:.3g}"), z
        return False, "", 0.0

    def observe(self, current: RoundHealth,
                history: list[RoundHealth]) -> list[Alert]:
        recent = history[-(self.window - 1):] if self.window > 1 else []
        norms = [c.update_norm for rh in [*recent, current]
                 for c in rh.clients.values()]
        alerts: list[Alert] = []
        for name, c in current.clients.items():
            suspect, why, value = self._is_suspect(c, norms)
            if not suspect:
                continue
            streak = 1
            for rh in reversed(history):
                prior = rh.clients.get(name)
                if prior is None:
                    break
                was, _, _ = self._is_suspect(
                    prior, [x.update_norm for x in rh.clients.values()])
                if not was:
                    break
                streak += 1
            severity = "critical" if streak >= self.persist else "warning"
            alerts.append(Alert(
                detector=self.name, severity=severity,
                round_number=current.round_number, client=name, value=value,
                message=f"client {name} diverging at round "
                        f"{current.round_number}: {why} "
                        f"({streak} consecutive round(s))"))
        return alerts


class StragglerDetector(Detector):
    """A client whose task latency dominates the round.

    Compares each client's server-observed broadcast-to-result latency with
    the round's median; ``ratio`` times the median (and at least
    ``min_seconds``) is a ``warning``.  Latency — not client-reported
    training time — so slow links and injected transport delays count.
    """

    name = "straggler"

    def __init__(self, ratio: float = 3.0, min_seconds: float = 0.05) -> None:
        if ratio <= 1.0:
            raise ValueError("ratio must be > 1")
        self.ratio = ratio
        self.min_seconds = min_seconds

    def observe(self, current: RoundHealth,
                history: list[RoundHealth]) -> list[Alert]:
        latencies = [c.latency_seconds for c in current.clients.values()
                     if c.latency_seconds > 0]
        if len(latencies) < 2:
            return []
        median = float(np.median(latencies))
        alerts: list[Alert] = []
        for name, c in current.clients.items():
            if c.latency_seconds >= max(self.ratio * median, self.min_seconds) \
                    and c.latency_seconds > median:
                alerts.append(Alert(
                    detector=self.name, severity="warning",
                    round_number=current.round_number, client=name,
                    value=c.latency_seconds,
                    message=f"client {name} took {c.latency_seconds:.2f}s "
                            f"(round median {median:.2f}s) — straggling"))
        return alerts


class StalledConvergenceDetector(Detector):
    """The tracked global metric has stopped improving.

    Fires ``warning`` once the best value of ``metric`` has not improved by
    ``min_delta`` for ``patience`` consecutive rounds (and again every
    ``patience`` rounds while still stalled, so long plateaus stay visible
    without spamming one alert per round).
    """

    name = "stalled-convergence"

    def __init__(self, metric: str = "valid_acc", mode: str = "max",
                 patience: int = 5, min_delta: float = 1e-4) -> None:
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.metric = metric
        self.mode = mode
        self.patience = patience
        self.min_delta = min_delta

    def observe(self, current: RoundHealth,
                history: list[RoundHealth]) -> list[Alert]:
        series = [(rh.round_number, rh.global_metrics[self.metric])
                  for rh in [*history, current]
                  if self.metric in rh.global_metrics]
        if len(series) < self.patience + 1:
            return []
        values = [v for _, v in series]
        # rounds since the running best last improved by min_delta
        best = values[0]
        last_improvement = 0
        for i, value in enumerate(values[1:], start=1):
            improved = value > best + self.min_delta if self.mode == "max" \
                else value < best - self.min_delta
            if improved:
                best = value
                last_improvement = i
        stalled = len(values) - 1 - last_improvement
        if stalled >= self.patience and stalled % self.patience == 0:
            return [Alert(
                detector=self.name, severity="warning",
                round_number=current.round_number, value=best,
                message=f"global {self.metric} has not improved for "
                        f"{stalled} round(s) (best {best:.4g})")]
        return []


class WireBlowupDetector(Detector):
    """Round wire traffic jumping far above the run's steady state.

    Compares this round's delivered bytes with the median of the previous
    rounds (at least ``min_history`` of them); ``ratio`` times the median is
    a ``warning`` — e.g. a delta-compression path silently falling back to
    full broadcasts.
    """

    name = "wire-blowup"

    def __init__(self, ratio: float = 2.5, min_history: int = 2) -> None:
        if ratio <= 1.0:
            raise ValueError("ratio must be > 1")
        self.ratio = ratio
        self.min_history = max(1, min_history)

    def observe(self, current: RoundHealth,
                history: list[RoundHealth]) -> list[Alert]:
        prior = [rh.bytes_on_wire for rh in history if rh.bytes_on_wire > 0]
        if len(prior) < self.min_history or current.bytes_on_wire <= 0:
            return []
        median = float(np.median(prior))
        if current.bytes_on_wire > self.ratio * median:
            return [Alert(
                detector=self.name, severity="warning",
                round_number=current.round_number,
                value=float(current.bytes_on_wire),
                message=f"round {current.round_number} put "
                        f"{current.bytes_on_wire} bytes on the wire, "
                        f"{current.bytes_on_wire / median:.1f}x the prior "
                        f"median ({median:.0f})")]
        return []


def default_detectors() -> list[Detector]:
    """The built-in rule set the simulator arms by default."""
    return [NonFiniteUpdateDetector(), DivergingClientDetector(),
            StragglerDetector(), StalledConvergenceDetector(),
            WireBlowupDetector()]


# ---------------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------------
def _jsonable(value):
    """Deep-copy ``value`` into strict JSON: non-finite floats become null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (int, np.integer, str, bool)) or value is None:
        return value
    return str(value)


def _key_seed(key: str, seed: int) -> int:
    digest = hashlib.blake2b(f"{seed}|{key}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little")


class HealthMonitor:
    """Streaming per-round health evaluation for a federated run.

    Driven by the controller at aggregation time::

        monitor.begin_round(r, participants, reference=global_weights)
        for sender, dxo in ...:
            monitor.record_update(sender, dxo.data, dxo.data_kind, meta=...)
        round_health, alerts = monitor.end_round(record, new_global)

    Parameters
    ----------
    run_dir:
        Where ``health.jsonl`` is appended (``None`` keeps everything
        in memory only).
    detectors:
        Rule set; defaults to :func:`default_detectors`.
    sample_size:
        Total flattened coordinates sampled for cosine estimation,
        allocated across parameters proportionally to their size.
    quarantine_after:
        Quarantine a client after this many *consecutive* rounds with a
        critical ``diverging-client`` alert.  0 (default) disables
        quarantine entirely.
    quarantine_rounds:
        How many rounds a quarantined client sits out before re-admission.
    seed:
        Seeds the deterministic coordinate sample.
    """

    def __init__(self, run_dir: str | Path | None = None,
                 detectors: list[Detector] | None = None,
                 sample_size: int = 4096,
                 quarantine_after: int = 0, quarantine_rounds: int = 2,
                 seed: int = 0) -> None:
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if quarantine_after < 0 or quarantine_rounds < 1:
            raise ValueError("quarantine_after must be >= 0 and "
                             "quarantine_rounds >= 1")
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.detectors = list(detectors) if detectors is not None \
            else default_detectors()
        self.sample_size = sample_size
        self.quarantine_after = quarantine_after
        self.quarantine_rounds = quarantine_rounds
        self.seed = seed
        self.history: list[RoundHealth] = []
        self.alerts: list[Alert] = []
        self._sample_indices: dict[tuple[str, int], np.ndarray] = {}
        self._current: RoundHealth | None = None
        self._reference: dict[str, np.ndarray] | None = None
        self._sketches: dict[str, np.ndarray] = {}
        self._last_contributed: dict[str, int] = {}
        self._suspect_streak: dict[str, int] = {}
        # client -> first round it is re-admitted at
        self._quarantined_until: dict[str, int] = {}
        self._header_written = False

    # ------------------------------------------------------------------
    @property
    def health_path(self) -> Path | None:
        return self.run_dir / HEALTH_FILE if self.run_dir is not None else None

    def is_quarantined(self, client: str, round_number: int | None = None) -> bool:
        """Is ``client`` excluded from aggregation this round?"""
        if round_number is None:
            round_number = self._current.round_number if self._current else 0
        return round_number < self._quarantined_until.get(client, -1)

    @property
    def quarantined_clients(self) -> list[str]:
        """Clients currently serving a quarantine window, sorted.

        Mid-round this means "excluded from the round in flight"; between
        rounds it is forward-looking ("would be excluded next round").
        """
        if self._current is not None:
            current = self._current.round_number
        elif self.history:
            current = self.history[-1].round_number + 1
        else:
            current = 0
        return sorted(c for c, until in self._quarantined_until.items()
                      if current < until)

    # ------------------------------------------------------------------
    def begin_round(self, round_number: int, participants: list[str],
                    reference: dict[str, np.ndarray]) -> None:
        """Start a round; ``reference`` is the broadcast global model."""
        self._current = RoundHealth(round_number=round_number,
                                    participants=list(participants))
        self._reference = reference
        self._sketches = {}
        self._current.quarantined = [
            c for c in participants if self.is_quarantined(c, round_number)]

    def _indices_for(self, key: str, size: int, quota: int) -> np.ndarray:
        cache_key = (key, size)
        cached = self._sample_indices.get(cache_key)
        if cached is not None and cached.size == min(quota, size):
            return cached
        rng = np.random.default_rng(_key_seed(key, self.seed))
        if quota >= size:
            indices = np.arange(size)
        else:
            indices = np.sort(rng.choice(size, size=quota, replace=False))
        self._sample_indices[cache_key] = indices
        return indices

    def _sample_update(self, update_by_key: dict[str, np.ndarray]) -> np.ndarray:
        """Deterministic coordinate sample of the flattened update vector."""
        sizes = {key: int(np.asarray(v).size) for key, v in update_by_key.items()}
        total = sum(sizes.values()) or 1
        parts: list[np.ndarray] = []
        for key in sorted(update_by_key):
            size = sizes[key]
            if size == 0:
                continue
            quota = max(1, min(size, int(round(self.sample_size * size / total))))
            indices = self._indices_for(key, size, quota)
            flat = np.asarray(update_by_key[key], dtype=np.float64).ravel()
            parts.append(flat[indices])
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    def record_update(self, client: str, data: dict[str, np.ndarray],
                      data_kind: str = "WEIGHTS",
                      meta: dict | None = None,
                      latency_seconds: float = 0.0) -> ClientRoundHealth:
        """Fold one client's decoded payload into the round's diagnostics.

        ``data`` is only read — per-key deltas are transient, so the monitor
        holds no model-sized state per client (just the coordinate sample).
        """
        if self._current is None:
            raise RuntimeError("record_update() outside begin_round()/end_round()")
        meta = meta or {}
        round_number = self._current.round_number
        is_diff = data_kind == "WEIGHT_DIFF"
        reference = self._reference or {}
        norm_sq = 0.0
        max_abs = 0.0
        payload_bytes = 0
        deltas: dict[str, np.ndarray] = {}
        for key, value in data.items():
            array = np.asarray(value)
            payload_bytes += array.nbytes
            if array.dtype.kind not in "fiu" or array.size == 0:
                continue
            if is_diff or key not in reference:
                delta = array.astype(np.float64, copy=False)
            else:
                delta = array.astype(np.float64, copy=False) - \
                    np.asarray(reference[key], dtype=np.float64)
            norm_sq += float(np.dot(delta.ravel(), delta.ravel()))
            if delta.size:
                max_abs = max(max_abs, float(np.max(np.abs(delta))))
            deltas[key] = delta
        self._sketches[client] = self._sample_update(deltas)
        last = self._last_contributed.get(client)
        health = ClientRoundHealth(
            client=client, round_number=round_number,
            update_norm=math.sqrt(norm_sq) if math.isfinite(norm_sq)
            else float("inf"),
            update_max_abs=max_abs,
            train_loss=float(meta.get("train_loss", float("nan"))),
            valid_acc=float(meta.get("valid_acc", float("nan"))),
            num_steps=int(meta.get("NUM_STEPS_CURRENT_ROUND", 0)),
            train_seconds=float(meta.get("train_seconds", 0.0)),
            latency_seconds=float(latency_seconds),
            staleness=(round_number - last) if last is not None else 0,
            payload_bytes=payload_bytes,
            quarantined=self.is_quarantined(client, round_number),
        )
        self._last_contributed[client] = round_number
        self._current.clients[client] = health
        return health

    # ------------------------------------------------------------------
    def end_round(self, *, seconds: float = 0.0, bytes_on_wire: int = 0,
                  quorum_met: bool = True,
                  global_metrics: dict[str, float] | None = None,
                  new_global: dict[str, np.ndarray] | None = None
                  ) -> tuple[RoundHealth, list[Alert]]:
        """Close the round: cosines, detectors, quarantine, artifacts."""
        if self._current is None:
            raise RuntimeError("end_round() without begin_round()")
        current = self._current
        current.seconds = float(seconds)
        current.bytes_on_wire = int(bytes_on_wire)
        current.quorum_met = bool(quorum_met)
        current.global_metrics = dict(global_metrics or {})

        # Aggregated-update sketch: by linearity the sample of (new - ref)
        # is the difference of samples, so one pass over the new global.
        agg_sketch = None
        if new_global is not None and self._reference is not None and quorum_met:
            agg_delta = {}
            for key in new_global:
                if key not in self._reference:
                    continue
                agg_delta[key] = (
                    np.asarray(new_global[key], dtype=np.float64)
                    - np.asarray(self._reference[key], dtype=np.float64))
            agg_sketch = self._sample_update(agg_delta)
            full_sq = sum(float(np.dot(d.ravel(), d.ravel()))
                          for d in agg_delta.values())
            current.aggregate_update_norm = math.sqrt(full_sq)
        agg_norm = float(np.linalg.norm(agg_sketch)) if agg_sketch is not None \
            else 0.0
        for client, health in current.clients.items():
            sketch = self._sketches.get(client)
            if sketch is None or agg_sketch is None or agg_norm <= 1e-12 \
                    or sketch.shape != agg_sketch.shape:
                continue
            norm = float(np.linalg.norm(sketch))
            if norm <= 1e-12:
                continue
            health.cosine_to_global = float(
                np.dot(sketch, agg_sketch) / (norm * agg_norm))

        # Peer-consensus direction: coordinate-wise median of the finite
        # client sketches (modal shape wins when payload layouts differ).
        # Needs no aggregation result, so it exists even under quorum loss.
        by_shape: dict[tuple, list[str]] = {}
        for client, sketch in self._sketches.items():
            if sketch.size and bool(np.isfinite(sketch).all()):
                by_shape.setdefault(sketch.shape, []).append(client)
        members = max(by_shape.values(), key=len) if by_shape else []
        if len(members) >= 2:
            consensus = np.median(
                np.stack([self._sketches[c] for c in members]), axis=0)
            consensus_norm = float(np.linalg.norm(consensus))
            if consensus_norm > 1e-12:
                for client in members:
                    sketch = self._sketches[client]
                    norm = float(np.linalg.norm(sketch))
                    if norm > 1e-12 and client in current.clients:
                        current.clients[client].cosine_to_peers = float(
                            np.dot(sketch, consensus)
                            / (norm * consensus_norm))

        alerts: list[Alert] = []
        for detector in self.detectors:
            try:
                alerts.extend(detector.observe(current, self.history))
            except Exception as error:  # one broken rule must not kill a run
                alerts.append(Alert(
                    detector=detector.name, severity="info",
                    round_number=current.round_number,
                    message=f"detector {detector.name} failed: {error!r}"))
        alerts.extend(self._update_quarantine(current, alerts))
        alerts.sort(key=lambda a: -_severity_rank(a.severity))

        self.alerts.extend(alerts)
        self.history.append(current)
        self._export_round(current, alerts)
        self._record_metrics(current, alerts)
        self._current = None
        self._reference = None
        self._sketches = {}
        return current, alerts

    # ------------------------------------------------------------------
    def _update_quarantine(self, current: RoundHealth,
                           alerts: list[Alert]) -> list[Alert]:
        """Track diverging streaks; quarantine / re-admit clients."""
        extra: list[Alert] = []
        flagged = {a.client for a in alerts
                   if a.detector == DivergingClientDetector.name
                   and a.client is not None}
        for client in current.clients:
            if client in flagged:
                self._suspect_streak[client] = \
                    self._suspect_streak.get(client, 0) + 1
            else:
                self._suspect_streak[client] = 0
        ending = {client for client, until in self._quarantined_until.items()
                  if until == current.round_number + 1}
        if self.quarantine_after > 0:
            for client, streak in self._suspect_streak.items():
                if streak >= self.quarantine_after \
                        and not self.is_quarantined(client,
                                                    current.round_number + 1):
                    until = current.round_number + 1 + self.quarantine_rounds
                    self._quarantined_until[client] = until
                    self._suspect_streak[client] = 0
                    # still diverging at the re-admission boundary: the new
                    # sentence replaces the re-admission notice
                    ending.discard(client)
                    extra.append(Alert(
                        detector="quarantine", severity="critical",
                        round_number=current.round_number, client=client,
                        value=float(self.quarantine_rounds),
                        message=f"client {client} quarantined from "
                                f"aggregation for {self.quarantine_rounds} "
                                f"round(s) after {streak} consecutive "
                                f"diverging round(s)"))
        for client in sorted(ending):
            extra.append(Alert(
                detector="quarantine", severity="info",
                round_number=current.round_number, client=client,
                message=f"client {client} re-admitted to aggregation "
                        f"from round {current.round_number + 1}"))
        return extra

    # ------------------------------------------------------------------
    def _record_metrics(self, current: RoundHealth,
                        alerts: list[Alert]) -> None:
        for client, c in current.clients.items():
            obs_metrics.gauge("health.client.cosine", client=client).set(
                c.cosine_to_global if math.isfinite(c.cosine_to_global)
                else 0.0)
            obs_metrics.gauge("health.client.cosine_peers", client=client).set(
                c.cosine_to_peers if math.isfinite(c.cosine_to_peers)
                else 0.0)
            obs_metrics.histogram("health.client.update_norm",
                                  buckets=NORM_BUCKETS,
                                  client=client).observe(
                c.update_norm if math.isfinite(c.update_norm) else 0.0)
            obs_metrics.gauge("health.client.staleness",
                              client=client).set(c.staleness)
            obs_metrics.histogram("health.client.latency_seconds",
                                  client=client).observe(c.latency_seconds)
        for alert in alerts:
            obs_metrics.counter("health.alerts", detector=alert.detector,
                                severity=alert.severity).inc()

    def _export_round(self, current: RoundHealth, alerts: list[Alert]) -> None:
        if self.health_path is None:
            return
        self.health_path.parent.mkdir(parents=True, exist_ok=True)
        lines: list[str] = []
        if not self._header_written:
            lines.append(json.dumps({"schema": HEALTH_SCHEMA}))
            self._header_written = True
        event = {"event": "round", **asdict(current)}
        lines.append(json.dumps(_jsonable(event)))
        for alert in alerts:
            lines.append(json.dumps({"event": "alert", **alert.to_dict()}))
        with self.health_path.open("a") as fh:
            fh.write("\n".join(lines) + "\n")

    # ------------------------------------------------------------------
    def status_line(self, current: RoundHealth | None = None,
                    alerts: list[Alert] | None = None) -> str:
        """One console line summarizing the (last) round's health."""
        if current is None:
            if not self.history:
                return "health: no rounds observed"
            current = self.history[-1]
        if alerts is None:
            alerts = [a for a in self.alerts
                      if a.round_number == current.round_number]
        n = len(current.clients)
        norms = [c.update_norm for c in current.clients.values()
                 if math.isfinite(c.update_norm)]
        cosines = [c.cosine_to_peers if math.isfinite(c.cosine_to_peers)
                   else c.cosine_to_global for c in current.clients.values()]
        cosines = [v for v in cosines if math.isfinite(v)]
        parts = [f"health r{current.round_number}:",
                 f"{n} update(s)"]
        if norms:
            parts.append(f"norm med {float(np.median(norms)):.3g}")
        if cosines:
            parts.append(f"cos min {min(cosines):.2f}")
        counts = {s: sum(1 for a in alerts if a.severity == s)
                  for s in SEVERITIES}
        if any(counts.values()):
            parts.append("alerts " + "/".join(
                f"{counts[s]} {s}" for s in SEVERITIES if counts[s]))
            worst = alerts[0]
            parts.append(f"[{worst.detector}" +
                         (f": {worst.client}]" if worst.client else "]"))
        else:
            parts.append("ok")
        if current.quarantined:
            parts.append("quarantined: " + ",".join(current.quarantined))
        return " ".join(parts)

    # ------------------------------------------------------------------
    def finalize(self) -> Path | None:
        """Make sure ``health.jsonl`` exists and ends with a summary event.

        Idempotent enough for a ``finally:`` block: the summary is appended
        once per call, so call it when the run is over.
        """
        if self.health_path is None:
            return None
        self.health_path.parent.mkdir(parents=True, exist_ok=True)
        lines: list[str] = []
        if not self._header_written:
            lines.append(json.dumps({"schema": HEALTH_SCHEMA}))
            self._header_written = True
        lines.append(json.dumps(_jsonable({
            "event": "summary",
            "rounds": len(self.history),
            "alerts": self.alerts_by_severity(),
            "quarantined_ever": sorted({c for rh in self.history
                                        for c in rh.quarantined}),
        })))
        with self.health_path.open("a") as fh:
            fh.write("\n".join(lines) + "\n")
        return self.health_path

    # ------------------------------------------------------------------
    def alerts_by_severity(self) -> dict[str, int]:
        counts = {s: 0 for s in SEVERITIES}
        for alert in self.alerts:
            counts[alert.severity] = counts.get(alert.severity, 0) + 1
        return counts
