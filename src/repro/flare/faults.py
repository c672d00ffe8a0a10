"""Deterministic fault injection for both transport fabrics.

Real NVFlare deployments sit on flaky hospital-site networks: messages get
dropped, delayed, duplicated or corrupted, and whole sites crash mid-job.
A seeded :class:`FaultPlan` makes chaos scenarios reproducible bit-for-bit —
every fault decision is a pure hash of ``(seed, kind, sender, recipient,
topic, msg_id, attempt)``, never of wall-clock time or thread scheduling,
so the *same plan makes the same per-message decisions on every fabric*
(each node applies the plan to the messages it dispatches).

Every fabric takes the plan as ``fault_plan=`` — ``MessageBus``,
``SocketMessageBus`` and ``ShmMessageBus`` alike — and
``BaseTransport.send_shareable`` runs the :class:`FaultInjector` between
signing and dispatch, so drops surface to the sender and corruptions reach
the receiver's HMAC check the same way on all three.

Fault semantics (mirroring what a real channel does):

- **drop** — the send raises :class:`TransportError`, as a broken socket
  would; the sender's retry loop (``send_with_retry``) gets a fresh,
  independently-seeded decision per attempt.
- **crash** — every message to or from a crashed site fails; the site
  registered fine but is gone, so the controller marks it dropped.
- **straggler / delay** — delivery is held back by sleeping in the sender's
  thread before the dispatch (no extra timer threads to leak).
- **duplicate** — the envelope is dispatched twice; the receiver's
  message-id dedup makes delivery exactly-once anyway.
- **corrupt** — a body byte is flipped *after* signing, so the receiver's
  HMAC check rejects the message instead of decoding garbage.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from .constants import ReservedKey
from .transport import Message, TransportError

__all__ = ["FaultPlan", "FaultInjector"]

_FAULT_KINDS = ("drop", "crash", "duplicate", "corrupt", "delay")


@dataclass
class FaultPlan:
    """Seeded description of which faults to inject and how often.

    Schema (all probabilities in ``[0, 1]``):

    - ``seed`` — root of every fault decision; same plan + same message
      stream ⇒ same faults.
    - ``drop_prob`` — chance each send attempt fails outright.
    - ``duplicate_prob`` — chance a delivered message is enqueued twice.
    - ``corrupt_prob`` — chance a delivered body is bit-flipped in flight.
    - ``delay_prob`` / ``max_delay`` — chance a delivery is held back, and
      the upper bound (seconds) of the injected latency.
    - ``crashed_clients`` — sites that are down for the whole run; every
      message to or from them fails.
    - ``stragglers`` — ``site -> seconds`` of fixed extra latency on every
      message that site sends.
    """

    seed: int = 0
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    corrupt_prob: float = 0.0
    delay_prob: float = 0.0
    max_delay: float = 0.02
    crashed_clients: tuple[str, ...] = ()
    stragglers: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("drop_prob", "duplicate_prob", "corrupt_prob", "delay_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if any(delay < 0 for delay in self.stragglers.values()):
            raise ValueError("straggler delays must be non-negative")
        self.crashed_clients = tuple(self.crashed_clients)

    # ------------------------------------------------------------------
    def unit(self, kind: str, key: str) -> float:
        """Deterministic pseudo-random draw in ``[0, 1)`` for one decision."""
        digest = hashlib.sha256(f"{self.seed}|{kind}|{key}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little") / 2.0 ** 64


class FaultInjector:
    """Applies a :class:`FaultPlan` to messages at dispatch time.

    Transport-agnostic: ``BaseTransport.send_shareable`` runs it on every
    signed envelope before the fabric's dispatch.  Drop/crash faults
    surface to the *sender* as :class:`TransportError` (like a failed
    socket write), which drives the retry/backoff layer; duplicate/corrupt/
    delay faults happen silently in flight, which drives the receiver-side
    dedup and HMAC defenses.  Injections are tagged counters in the owning
    bus's registry, so a telemetry session exports them alongside delivery
    totals.
    """

    def __init__(self, plan: FaultPlan, registry: MetricsRegistry) -> None:
        self.plan = plan
        self._counters = {kind: registry.counter("transport.faults", kind=kind)
                          for kind in _FAULT_KINDS}

    def count(self, kind: str) -> int:
        return int(self._counters[kind].value)

    def apply(self, message: Message) -> list[Message]:
        """Fault one dispatch; returns the envelope(s) to actually deliver.

        Raises :class:`TransportError` for drop/crash faults (the sender
        sees a failed write), sleeps in the calling thread for delays,
        flips a signed body byte for corruptions, and returns the message
        twice for duplicates.
        """
        plan = self.plan
        decision_key = "|".join((
            message.sender, message.recipient, message.topic,
            str(message.headers.get(ReservedKey.MSG_ID, "")),
            str(message.headers.get(ReservedKey.ATTEMPT, 0))))

        for endpoint in (message.sender, message.recipient):
            if endpoint in plan.crashed_clients:
                self._counters["crash"].inc()
                raise TransportError(
                    f"injected crash: site {endpoint!r} is down "
                    f"(message {message.topic!r} lost)")

        if plan.drop_prob and plan.unit("drop", decision_key) < plan.drop_prob:
            self._counters["drop"].inc()
            raise TransportError(
                f"injected drop of {message.topic!r} from {message.sender!r} "
                f"to {message.recipient!r}")

        delay = plan.stragglers.get(message.sender, 0.0)
        if plan.delay_prob and plan.unit("delay", decision_key) < plan.delay_prob:
            delay += plan.max_delay * plan.unit("delay-amount", decision_key)
        if delay > 0:
            self._counters["delay"].inc()
            time.sleep(delay)

        if plan.corrupt_prob and plan.unit("corrupt", decision_key) < plan.corrupt_prob:
            self._counters["corrupt"].inc()
            if message.body:
                flip_at = len(message.body) // 2
                message.body = (message.body[:flip_at]
                                + bytes([message.body[flip_at] ^ 0xFF])
                                + message.body[flip_at + 1:])
            else:
                message.signature = "0" * len(message.signature)

        if plan.duplicate_prob and plan.unit("duplicate", decision_key) < plan.duplicate_prob:
            self._counters["duplicate"].inc()
            return [message, message]
        return [message]
