"""Learner: the client-side training abstraction.

NVFlare executors delegate the actual ML to a ``Learner`` (the paper's log
shows a ``CiBertLearner``).  A learner receives the current global weights
as a DXO, trains locally for the configured epochs, and returns its updated
weights (or diff) plus step-count metadata for weighted aggregation.
Concrete learners for classification and MLM live in :mod:`repro.training`.

Abort: NVFlare hands ``train`` an ``abort_signal``; here it rides side-band
as ``fl_ctx.get_prop(ReservedKey.ABORT_SIGNAL)`` — an Event-like object
(``is_set()`` / ``wait(timeout)``) set once when the training workflow is
over.  A learner that checks it between batches and returns early (any DXO:
the client sends no reply for an aborted task) frees its thread or process
within one batch; one that ignores it is merely waited for at teardown.
"""

from __future__ import annotations

from .dxo import DXO
from .events import FLComponent
from .fl_context import FLContext

__all__ = ["Learner"]


class Learner(FLComponent):
    """Interface implemented by task-specific trainers."""

    def initialize(self, fl_ctx: FLContext) -> None:
        """One-time setup before the first round (build model, data)."""

    def train(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        """Load global weights from ``dxo``, train locally, return an update.

        The returned DXO must carry ``MetaKey.NUM_STEPS_CURRENT_ROUND`` so the
        aggregator can weight the contribution.  Long loops should poll
        ``fl_ctx.get_prop(ReservedKey.ABORT_SIGNAL).is_set()`` between
        batches and return early once it is: the result is discarded.
        """
        raise NotImplementedError

    def validate(self, dxo: DXO, fl_ctx: FLContext) -> dict[str, float]:
        """Evaluate the weights in ``dxo`` on this client's validation data."""
        raise NotImplementedError

    def finalize(self, fl_ctx: FLContext) -> None:
        """Cleanup after the run."""
