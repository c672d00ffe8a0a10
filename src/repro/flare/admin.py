"""Admin API: the operator's view of a running federation.

NVFlare ships an admin console (list clients, check job status, abort).
This module provides the equivalent programmatic surface over the in-process
federation: registered-client inventory, transport counters, controller
progress and an abort signal the controller honours between rounds (the
console is one of the controller's event listeners).
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import EventType, ReservedKey
from .controller import ScatterAndGather
from .events import FLComponent
from .fl_context import FLContext
from .server import FLServer

__all__ = ["AdminAPI", "ClientInfo", "JobStatus"]


@dataclass(frozen=True)
class ClientInfo:
    """One registered client as the admin sees it."""

    name: str
    token: str
    pending_messages: int


@dataclass(frozen=True)
class JobStatus:
    """Controller progress snapshot."""

    current_round: int
    total_rounds: int
    finished: bool
    aborted: bool
    messages_delivered: int
    bytes_delivered: int


class AdminAPI(FLComponent):
    """Operator console over a server and (optionally) its controller."""

    def __init__(self, server: FLServer,
                 controller: ScatterAndGather | None = None) -> None:
        super().__init__(name="AdminAPI")
        self.server = server
        self.controller = controller
        self._abort_requested = False
        if controller is not None:
            controller.listeners.append(self)

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def list_clients(self) -> list[ClientInfo]:
        """All registered clients, with their tokens and queue depth."""
        return [ClientInfo(name=name, token=token,
                           pending_messages=self.server.bus.pending(name))
                for name, token in sorted(self.server.tokens.items())]

    def check_client(self, name: str) -> ClientInfo:
        if name not in self.server.tokens:
            raise KeyError(f"client {name!r} is not registered")
        return ClientInfo(name=name, token=self.server.tokens[name],
                          pending_messages=self.server.bus.pending(name))

    # ------------------------------------------------------------------
    # job control
    # ------------------------------------------------------------------
    def job_status(self) -> JobStatus:
        if self.controller is None:
            raise RuntimeError("no controller attached")
        completed = self.controller.stats.num_rounds
        return JobStatus(
            current_round=completed,
            total_rounds=self.controller.num_rounds,
            finished=completed >= self.controller.num_rounds,
            aborted=self._abort_requested,
            messages_delivered=self.server.bus.delivered_count,
            bytes_delivered=self.server.bus.delivered_bytes,
        )

    def abort_job(self) -> None:
        """Ask the controller to stop after the current round."""
        self._abort_requested = True
        self.log_warning("abort requested by admin")

    def handle_event(self, event_type: str, fl_ctx: FLContext) -> None:
        if event_type == EventType.ROUND_STARTED and self._abort_requested:
            raise RuntimeError(
                "job aborted by admin before round "
                f"{fl_ctx.get_prop(ReservedKey.CURRENT_ROUND)}")
